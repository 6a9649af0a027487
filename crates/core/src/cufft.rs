//! The cuFFT stand-in: dense FFTs executed functionally on the host while
//! the device is charged a modelled duration.
//!
//! cuFFT's internals are not traced kernel-by-kernel (the library is a
//! black box in the paper too); instead the charge follows the standard
//! Kepler cuFFT model — memory-bound multi-pass Stockham with an effective
//! radix of 8, so `⌈log₂(len)/3⌉` passes each streaming the data once in
//! and once out — capped below by the compute roofline.

use fft::cplx::Cplx;
use fft::{BatchPlan, Direction, ParallelPlan};
use gpu_sim::{DeviceBuffer, GpuDevice, GpuError, StreamId};

/// Modelled duration of a batched `row_len`-point FFT (`batch` rows) on
/// `device`.
pub fn cufft_model_time(device: &GpuDevice, row_len: usize, batch: usize) -> f64 {
    let spec = device.spec();
    if row_len < 2 || batch == 0 {
        return spec.launch_overhead_us * 1e-6;
    }
    let log2n = (row_len as f64).log2();
    let passes = (log2n / 3.0).ceil().max(1.0);
    let elems = (row_len * batch) as f64;
    let bytes = elems * 16.0 * 2.0 * passes; // read + write per pass
    let flops = 5.0 * elems * log2n;
    let t_mem = bytes / spec.effective_bandwidth();
    let t_comp = flops / spec.peak_fp64_flops();
    // Batched mode shares twiddles and launches once per pass (the paper's
    // reason for using it); a per-call fixed overhead covers plan dispatch.
    spec.launch_overhead_us * 1e-6 * passes + t_mem.max(t_comp)
}

/// Executes a batched in-place forward FFT over `rows` (each a row of
/// `row_len` points) and charges a single batched-cuFFT operation. The
/// rows need not be contiguous, so callers can gather same-geometry
/// buffers owned by *different* requests into one batched launch (the
/// serving layer's cross-request batching). Fails with a typed device
/// error on an injected launch fault, in which case no row was
/// transformed (safe to retry).
pub fn batched_fft_rows(
    device: &GpuDevice,
    rows: &mut [&mut DeviceBuffer<Cplx>],
    row_len: usize,
    stream: StreamId,
    label: &str,
) -> Result<(), GpuError> {
    if rows.is_empty() {
        return Ok(());
    }
    // Charge (and roll the fault gate) *before* transforming: a faulted
    // batched FFT must leave every row untouched so a retry does not
    // double-transform the data in place.
    let dur = cufft_model_time(device, row_len, rows.len());
    device.try_charge_device_op(label, dur, stream)?;
    let plan = BatchPlan::new(row_len, 1);
    for buf in rows.iter_mut() {
        assert_eq!(buf.len(), row_len, "row buffer has wrong length");
        plan.process(buf.as_mut_slice(), Direction::Forward);
    }
    Ok(())
}

/// The dense-FFT GPU baseline of Figure 5: full-length cuFFT with a
/// device-resident input (same convention as [`crate::CusFft`]; the input
/// PCIe cost is symmetric for both and reported by the harness). The
/// device→host copy of the full spectrum *is* charged — unlike the sparse
/// pipeline, cuFFT must ship `n` coefficients back.
///
/// Returns the spectrum; the elapsed simulated time is on the device
/// clock (caller brackets with `reset_clock` / `elapsed`).
pub fn cufft_dense_baseline(device: &GpuDevice, time: &[Cplx], stream: StreamId) -> Vec<Cplx> {
    let mut data = time.to_vec();
    // Functional transform on the host (parallel, it is the big one).
    ParallelPlan::new(time.len()).process(&mut data, Direction::Forward);
    let dur = cufft_model_time(device, time.len(), 1);
    device
        .try_charge_device_op("cufft_dense", dur, stream)
        .expect("the dense baseline runs on a fault-free device");
    // Charge the output transfer explicitly.
    let out_buf = DeviceBuffer::from_host(&data);
    device
        .try_dtoh(&out_buf, stream)
        .expect("the dense baseline runs on a fault-free device")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::cplx::ZERO;
    use fft::Plan;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};

    #[test]
    fn model_time_scales_n_log_n() {
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let t1 = cufft_model_time(&dev, 1 << 20, 1);
        let t2 = cufft_model_time(&dev, 1 << 24, 1);
        let ratio = t2 / t1;
        // 16× the data, slightly superlinear (more passes): 16..32×.
        assert!((16.0..36.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batched_cheaper_than_separate_calls() {
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let batched = cufft_model_time(&dev, 1 << 12, 16);
        let separate = 16.0 * cufft_model_time(&dev, 1 << 12, 1);
        assert!(
            batched < separate,
            "batched {batched:.2e} vs separate {separate:.2e}"
        );
    }

    #[test]
    fn k20x_full_size_fft_time_is_plausible() {
        // 2^27 points on K20x: ~9 passes × 4.3 GB / 187 GB/s ≈ 0.2 s.
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let t = cufft_model_time(&dev, 1 << 27, 1);
        assert!((0.05..1.0).contains(&t), "t = {t}");
    }

    #[test]
    fn batched_exec_transforms_every_row() {
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let row = 64;
        let mut bufs: Vec<DeviceBuffer<Cplx>> = (0..3)
            .map(|r| {
                let mut v = vec![ZERO; row];
                v[r + 1] = fft::cplx::ONE;
                DeviceBuffer::from_host(&v)
            })
            .collect();
        let mut rows: Vec<&mut DeviceBuffer<Cplx>> = bufs.iter_mut().collect();
        batched_fft_rows(&dev, &mut rows, row, DEFAULT_STREAM, "cufft_batched").unwrap();
        let plan = Plan::new(row);
        for (r, buf) in bufs.iter().enumerate() {
            let mut expect = vec![ZERO; row];
            expect[r + 1] = fft::cplx::ONE;
            plan.process(&mut expect, Direction::Forward);
            for (a, b) in buf.peek().iter().zip(&expect) {
                assert!(a.dist(*b) < 1e-12);
            }
        }
        // Exactly one charged op.
        assert_eq!(dev.records().len(), 1);
        assert!(dev.elapsed() > 0.0);
    }

    #[test]
    fn dense_baseline_matches_direct_fft() {
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let n = 1 << 10;
        let x: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let got = cufft_dense_baseline(&dev, &x, DEFAULT_STREAM);
        let expect = Plan::new(n).transform(&x, Direction::Forward);
        for (a, b) in got.iter().zip(&expect) {
            assert!(a.dist(*b) < 1e-8);
        }
        // The output transfer and the FFT op were charged (input is
        // device-resident by convention).
        let recs = dev.records();
        assert!(recs.iter().all(|r| !r.name.starts_with("htod")));
        assert!(recs.iter().any(|r| r.name.starts_with("dtoh")));
        assert!(recs.iter().any(|r| r.name == "cufft_dense"));
    }
}
