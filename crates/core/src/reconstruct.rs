//! GPU magnitude reconstruction (paper Algorithm 5): one thread per hit
//! computes, for every loop, `Z_r[hash_r(f)] · n / Ĝ_r(off) · phase(τ_r)`
//! and reports the component-wise median.

use fft::cplx::{Cplx, ZERO};
use gpu_sim::{BufferPool, DeviceBuffer, GpuDevice, GpuError, LaunchConfig, StreamId};
use kselect::median_cplx;
use sfft_cpu::perm::mul_mod;

const BLOCK: u32 = 64;

/// Upper bound on total loops supported by the kernel's stack buffer.
pub const MAX_LOOPS: usize = 64;

/// Per-loop constants the kernel needs (CUDA would place these in
/// constant memory).
#[derive(Debug, Clone, Copy)]
pub struct LoopMeta {
    /// σ.
    pub a: usize,
    /// σ⁻¹ mod n.
    pub ai: usize,
    /// τ.
    pub tau: usize,
    /// Location loop (uses the location filter/buckets geometry)?
    pub is_loc: bool,
}

/// Filter geometry the kernel needs for one side (location/estimation).
#[derive(Debug)]
pub struct SideGeometry<'a> {
    /// Bucket count B.
    pub b: usize,
    /// Banded frequency response, offsets `-half ..= half` at
    /// `band[off + half]`.
    pub band: &'a DeviceBuffer<Cplx>,
    /// Band half-width.
    pub half: usize,
}

/// Minimum |Ĝ| to divide by (matches the CPU estimator).
const MIN_FILTER_MAG: f64 = 1e-8;

/// Runs the reconstruction kernel: for each frequency in `hits`, the
/// median estimate over all loops. Returns estimates aligned with `hits`.
/// The values buffer is drawn from `pool` and the bucket rows are
/// accepted through `AsRef` (plain or pooled device buffers). In steady
/// state — a request with the same hit count as a prior one in the group
/// — the values buffer is a free-list hit: no `MemPool` traffic, no
/// allocation fault gate. Fails with a typed device error on an injected
/// allocation or launch fault.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_device<B: AsRef<DeviceBuffer<Cplx>> + Sync>(
    device: &GpuDevice,
    pool: &BufferPool<Cplx>,
    hits: &DeviceBuffer<u32>,
    loops: &[LoopMeta],
    buckets: &[B],
    loc_geo: &SideGeometry<'_>,
    est_geo: &SideGeometry<'_>,
    n: usize,
    stream: StreamId,
) -> Result<Vec<Cplx>, GpuError> {
    assert_eq!(loops.len(), buckets.len(), "one bucket row per loop");
    assert!(loops.len() <= MAX_LOOPS, "too many loops for the kernel");
    let num_hits = hits.len();
    if num_hits == 0 {
        return Ok(Vec::new());
    }
    let mut vals = device.try_alloc_zeroed_pooled(pool, num_hits, stream)?;
    let cfg = LaunchConfig::for_elements(num_hits, BLOCK);
    device.try_launch_map("reconstruct", cfg, stream, &mut vals, |ctx, gm| {
        let tid = ctx.global_id();
        let f = gm.ld(hits, tid) as usize;
        let mut mags = [ZERO; MAX_LOOPS];
        let mut count = 0usize;
        for (r, meta) in loops.iter().enumerate() {
            let geo = if meta.is_loc { loc_geo } else { est_geo };
            let n_div_b = n / geo.b;
            let g = mul_mod(meta.ai, f, n);
            let mut hashed = g / n_div_b;
            let mut dist = (g % n_div_b) as i64;
            if dist > (n_div_b / 2) as i64 {
                hashed = (hashed + 1) % geo.b;
                dist -= n_div_b as i64;
            }
            let band_idx = (geo.half as i64 - dist) as usize;
            let gf = gm.ld_ro(geo.band, band_idx);
            gm.flops(20);
            if gf.abs() < MIN_FILTER_MAG {
                continue;
            }
            let z = gm.ld(buckets[r].as_ref(), hashed);
            let phase =
                Cplx::cis(-std::f64::consts::TAU * mul_mod(f, meta.tau, n) as f64 / n as f64);
            mags[count] = z.scale(n as f64) / gf * phase;
            count += 1;
        }
        if count == 0 {
            ZERO
        } else {
            median_cplx(&mags[..count])
        }
    })?;
    Ok(vals.peek())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::Plan;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};
    use sfft_cpu::estimate::estimate;
    use sfft_cpu::inner::{perm_filter, subsample_fft, LoopData};
    use sfft_cpu::{Permutation, SfftParams};
    use signal::{MagnitudeModel, SparseSignal};

    /// Builds matched CPU LoopData and GPU-side structures, then checks
    /// the kernel agrees with the CPU estimator on every hit.
    #[test]
    fn kernel_matches_cpu_estimator() {
        let n = 1 << 12;
        let k = 8;
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 13);
        let sigmas = [101usize, 2031, 333, 1097, 55, 777];

        let plan_loc = Plan::new(params.b_loc);
        let plan_est = Plan::new(params.b_est);
        let mut loops_cpu: Vec<LoopData> = Vec::new();
        let mut metas: Vec<LoopMeta> = Vec::new();
        let mut bucket_bufs: Vec<DeviceBuffer<Cplx>> = Vec::new();
        for (i, &a) in sigmas.iter().enumerate() {
            let is_loc = i < params.loops_loc;
            let (b, filt, plan) = if is_loc {
                (params.b_loc, &params.filter_loc, &plan_loc)
            } else {
                (params.b_est, &params.filter_est, &plan_est)
            };
            let perm = Permutation::new(a, 7, n);
            let mut buckets = perm_filter(&s.time, filt, b, &perm);
            subsample_fft(&mut buckets, plan);
            metas.push(LoopMeta {
                a: perm.a,
                ai: perm.ai,
                tau: perm.tau,
                is_loc,
            });
            bucket_bufs.push(DeviceBuffer::from_host(&buckets));
            loops_cpu.push(LoopData {
                perm,
                buckets,
                is_loc,
            });
        }

        let band_loc = band_buffer(&params.filter_loc);
        let band_est = band_buffer(&params.filter_est);
        let loc_geo = SideGeometry {
            b: params.b_loc,
            band: &band_loc,
            half: params.filter_loc.half_band(),
        };
        let est_geo = SideGeometry {
            b: params.b_est,
            band: &band_est,
            half: params.filter_est.half_band(),
        };

        let hits_host: Vec<u32> = s.coords.iter().map(|&(f, _)| f as u32).collect();
        let hits = DeviceBuffer::from_host(&hits_host);
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let gpu_vals = reconstruct_device(
            &dev,
            &BufferPool::new(),
            &hits,
            &metas,
            &bucket_bufs,
            &loc_geo,
            &est_geo,
            n,
            DEFAULT_STREAM,
        )
        .unwrap();

        let hits_usize: Vec<usize> = hits_host.iter().map(|&h| h as usize).collect();
        let cpu_vals = estimate(&hits_usize, &loops_cpu, &params);
        for ((f, cpu), gpu) in cpu_vals.iter().zip(&gpu_vals) {
            assert!(cpu.dist(*gpu) < 1e-9, "f={f}: cpu {cpu:?} vs gpu {gpu:?}");
        }
        // And they recover the truth.
        for (i, &(_, tv)) in s.coords.iter().enumerate() {
            assert!(gpu_vals[i].dist(tv) < 1e-3, "truth mismatch at {i}");
        }
    }

    fn band_buffer(f: &filters::FlatFilter) -> DeviceBuffer<Cplx> {
        let half = f.half_band() as i64;
        let host: Vec<Cplx> = (-half..=half).map(|o| f.freq_at(o)).collect();
        DeviceBuffer::from_host(&host)
    }

    #[test]
    fn empty_hits_yield_empty_result() {
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let hits: DeviceBuffer<u32> = DeviceBuffer::zeroed(0);
        let band: DeviceBuffer<Cplx> = DeviceBuffer::zeroed(3);
        let geo = SideGeometry {
            b: 8,
            band: &band,
            half: 1,
        };
        let no_rows: &[DeviceBuffer<Cplx>] = &[];
        let pool = BufferPool::new();
        let out = reconstruct_device(
            &dev,
            &pool,
            &hits,
            &[],
            no_rows,
            &geo,
            &geo,
            64,
            DEFAULT_STREAM,
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
