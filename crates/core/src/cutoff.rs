//! GPU cutoff (Step 4): baseline sort&select (Algorithm 3, Thrust) and
//! the optimized fast k-selection (Algorithm 6).

use fft::cplx::Cplx;
use gpu_sim::{
    BufferPool, DevAppendU32, DeviceBuffer, GpuDevice, GpuError, LaunchConfig, PooledBuffer,
    StreamId,
};

const BLOCK: u32 = 256;

/// Computes `|Z[b]|²` on the device (the magnitude kernel both cutoff
/// variants share) into a buffer drawn from `pool`. In steady state (a
/// pooled buffer of the right length is idle) this costs no `MemPool`
/// traffic and rolls no allocation fault gate; from a fresh pool it
/// allocates. Fails with a typed device error on an injected allocation
/// or launch fault.
pub fn magnitudes_device(
    device: &GpuDevice,
    pool: &BufferPool<f64>,
    buckets: &DeviceBuffer<Cplx>,
    stream: StreamId,
) -> Result<PooledBuffer<f64>, GpuError> {
    let mut mags = device.try_alloc_zeroed_pooled(pool, buckets.len(), stream)?;
    let cfg = LaunchConfig::for_elements(buckets.len(), BLOCK);
    device.try_launch_map("magnitude", cfg, stream, &mut mags, |ctx, gm| {
        let z = gm.ld(buckets, ctx.global_id());
        gm.flops(3);
        z.norm_sqr()
    })?;
    Ok(mags)
}

/// Modelled duration of a Thrust radix sort-by-key over `b` elements
/// (8-bit digits over 64-bit keys: 8 passes, each streaming key+value).
fn thrust_sort_model_time(device: &GpuDevice, b: usize) -> f64 {
    let spec = device.spec();
    let passes = 8.0;
    let bytes = (b * (8 + 4)) as f64 * 2.0 * passes;
    // Thrust launches several kernels per pass (histogram, scan, scatter).
    spec.launch_overhead_us * 1e-6 * passes * 3.0 + bytes / spec.effective_bandwidth()
}

/// Baseline cutoff: sort & select (Algorithm 3). Returns the indices of
/// the `num` largest-magnitude buckets, charging a modelled Thrust sort.
pub fn sort_select_device(
    device: &GpuDevice,
    mags: &DeviceBuffer<f64>,
    num: usize,
    stream: StreamId,
) -> Result<Vec<usize>, GpuError> {
    device.try_charge_device_op(
        "cutoff_sort",
        thrust_sort_model_time(device, mags.len()),
        stream,
    )?;
    Ok(kselect::sort_select(mags.as_slice(), num))
}

/// Optimized cutoff: fast k-selection (Algorithm 6). One pass over the
/// magnitudes; every element at or above `threshold` is appended to the
/// output. Returns the selected indices, sorted (real CUDA output order
/// depends on warp scheduling).
pub fn fast_select_device(
    device: &GpuDevice,
    mags: &DeviceBuffer<f64>,
    threshold: f64,
    stream: StreamId,
) -> Result<Vec<usize>, GpuError> {
    let b = mags.len();
    let out = DevAppendU32::with_capacity(b);
    let cfg = LaunchConfig::for_elements(b, BLOCK);
    device.try_launch_foreach("cutoff_select", cfg, stream, |ctx, gm| {
        let tid = ctx.global_id();
        if tid >= b {
            return;
        }
        let v = gm.ld(mags, tid);
        if v >= threshold {
            out.push(gm, tid as u32);
        }
    })?;
    Ok(out.snapshot().into_iter().map(|v| v as usize).collect())
}

/// Chooses the fast-selection threshold from the bucket magnitudes: a
/// sampled noise-floor median times a safety factor (see
/// `kselect::threshold`). Charged as a small sampling kernel.
pub fn noise_threshold_device(
    device: &GpuDevice,
    mags: &DeviceBuffer<f64>,
    factor: f64,
    stream: StreamId,
) -> Result<f64, GpuError> {
    let spec = device.spec();
    device.try_charge_device_op(
        "noise_floor",
        spec.launch_overhead_us * 1e-6 + (512.0 * 8.0) / spec.effective_bandwidth(),
        stream,
    )?;
    Ok(kselect::noise_floor_threshold(mags.as_slice(), 512, factor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::cplx::ZERO;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};

    fn device() -> GpuDevice {
        GpuDevice::new(DeviceSpec::tesla_k20x())
    }

    fn spiky_buckets(b: usize, spikes: &[usize]) -> DeviceBuffer<Cplx> {
        let mut v = vec![ZERO; b];
        for (rank, &i) in spikes.iter().enumerate() {
            v[i] = Cplx::new(10.0 + rank as f64, -3.0);
        }
        for (i, slot) in v.iter_mut().enumerate() {
            if slot.abs() == 0.0 {
                *slot = Cplx::new(1e-7 * ((i % 13) as f64), 0.0);
            }
        }
        DeviceBuffer::from_host(&v)
    }

    #[test]
    fn magnitude_kernel_computes_norm_sqr() {
        let dev = device();
        let buckets = DeviceBuffer::from_host(&[Cplx::new(3.0, 4.0), Cplx::new(1.0, -1.0)]);
        let mags = magnitudes_device(&dev, &BufferPool::new(), &buckets, DEFAULT_STREAM).unwrap();
        let host = mags.peek();
        assert!((host[0] - 25.0).abs() < 1e-12);
        assert!((host[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sort_and_fast_select_agree_on_clear_spikes() {
        let dev = device();
        let spikes = [5usize, 100, 731, 1023];
        let buckets = spiky_buckets(2048, &spikes);
        let mags = magnitudes_device(&dev, &BufferPool::new(), &buckets, DEFAULT_STREAM).unwrap();

        let mut by_sort = sort_select_device(&dev, &mags, 4, DEFAULT_STREAM).unwrap();
        by_sort.sort_unstable();
        let thresh = noise_threshold_device(&dev, &mags, 16.0, DEFAULT_STREAM).unwrap();
        let by_fast = fast_select_device(&dev, &mags, thresh, DEFAULT_STREAM).unwrap();

        assert_eq!(by_sort, spikes.to_vec());
        assert_eq!(by_fast, spikes.to_vec());
    }

    #[test]
    fn fast_select_is_cheaper_than_sort_on_device_clock() {
        let dev = device();
        let buckets = spiky_buckets(1 << 14, &[3, 9999]);
        let mags = magnitudes_device(&dev, &BufferPool::new(), &buckets, DEFAULT_STREAM).unwrap();
        dev.reset_clock();
        let _ = sort_select_device(&dev, &mags, 2, DEFAULT_STREAM);
        let t_sort = dev.elapsed();
        dev.reset_clock();
        let _ = fast_select_device(&dev, &mags, 1.0, DEFAULT_STREAM);
        let t_fast = dev.elapsed();
        assert!(
            t_fast < t_sort,
            "fast select {t_fast:.2e}s must beat sort {t_sort:.2e}s"
        );
    }

    #[test]
    fn fast_select_with_low_threshold_returns_superset() {
        let dev = device();
        let buckets = spiky_buckets(256, &[7, 13]);
        let mags = magnitudes_device(&dev, &BufferPool::new(), &buckets, DEFAULT_STREAM).unwrap();
        let sel = fast_select_device(&dev, &mags, 0.0, DEFAULT_STREAM).unwrap();
        assert_eq!(sel.len(), 256, "threshold 0 selects everything");
    }

    #[test]
    fn empty_selection_when_threshold_too_high() {
        let dev = device();
        let buckets = spiky_buckets(128, &[3]);
        let mags = magnitudes_device(&dev, &BufferPool::new(), &buckets, DEFAULT_STREAM).unwrap();
        let sel = fast_select_device(&dev, &mags, 1e12, DEFAULT_STREAM).unwrap();
        assert!(sel.is_empty());
    }
}
