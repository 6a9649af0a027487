//! GPU permutation + filtering + binning (paper Algorithms 1-2, Section
//! IV; async data-layout transformation, Section V-A).
//!
//! Three implementations, all producing the same buckets:
//!
//! * [`perm_filter_atomic`] — the "conventional histogram" strawman the
//!   paper argues against: one thread per filter tap, `atomicAdd` into the
//!   shared bucket array. Kept for the ablation bench.
//! * [`perm_filter_partition`] — Algorithm 2 (the paper's *baseline*):
//!   loop partition; thread `tid` owns bucket `tid` and serially reduces
//!   the `w/B` taps that map to it. No replication, no atomics — but only
//!   `B` threads, so the kernel is under-occupied and its scattered,
//!   accumulator-chained loads are latency-bound.
//! * [`perm_filter_async`] — the Section V optimisation: per chunk of `B`
//!   taps, a *remap* kernel gathers the scattered signal reads into a
//!   coalesced staging buffer and an *execution* kernel consumes it;
//!   chunks round-robin over CUDA streams so the gathers and the compute
//!   overlap, and a final reduction folds the per-chunk partials.
//!
//! The async variant additionally has two remap flavours
//! ([`RemapKind`]): the *direct* remap stages raw signal values, and the
//! *tiled* remap (the affine-permutation tiling of arXiv 2306.07795)
//! stages the `signal × tap` product through a shared-memory tile, so the
//! execution kernel never re-reads the taps — one whole coalesced read
//! stream eliminated, with bit-identical buckets by construction.
//! [`choose_remap`] prices both with the `warp_transactions` model and
//! picks the winner, guarded by the occupancy cost of the tile.
//!
//! Tap index convention matches `sfft-cpu`: tap `i` applies to time
//! `t = i − w/2` and bucket `t mod B`; thread/bucket `tid` therefore owns
//! taps `i ≡ tid + w/2 (mod B)`. Taps are zero-padded to a multiple of B
//! (`w_pad`), which changes nothing numerically.

use fft::cplx::{Cplx, ZERO};
use gpu_sim::trace::{warp_transactions, TxnPolicy};
use gpu_sim::{
    occupancy, BufferPool, DevAtomicCplx, DeviceBuffer, DeviceSpec, GpuDevice, GpuError,
    LaunchConfig, PooledBuffer, StreamId,
};
use sfft_cpu::perm::mul_mod;
use sfft_cpu::Permutation;

/// Threads per block used by the filter kernels.
const BLOCK: u32 = 256;

/// Shared memory per block of the tiled remap: one tap sub-tile plus one
/// product sub-tile of `BLOCK` complex doubles each.
const TILE_BYTES: u32 = 2 * BLOCK * std::mem::size_of::<Cplx>() as u32;

/// Signal index for tap `i`: `(τ + (i − w/2)·σ⁻¹) mod n` — the paper's
/// *index mapping* (no dependence on the previous iteration).
#[inline]
pub fn tap_source_index(i: usize, half: usize, perm: &Permutation) -> usize {
    let n = perm.n;
    let t = (i + n - half) % n; // i − half (mod n); half < n always
    (perm.tau + mul_mod(t, perm.ai, n)) % n
}

/// Strawman: per-tap threads with atomic bucket updates.
pub fn perm_filter_atomic(
    device: &GpuDevice,
    signal: &DeviceBuffer<Cplx>,
    taps: &DeviceBuffer<Cplx>,
    w: usize,
    b: usize,
    perm: &Permutation,
    stream: StreamId,
) -> Vec<Cplx> {
    let half = w / 2;
    let acc = DevAtomicCplx::zeroed(b);
    let cfg = LaunchConfig::for_elements(w, BLOCK);
    device
        .try_launch_foreach("perm_filter_atomic", cfg, stream, |ctx, gm| {
            let i = ctx.global_id();
            if i >= w {
                return;
            }
            let src = tap_source_index(i, half, perm);
            let x = gm.ld(signal, src); // scattered
            let t = gm.ld_ro(taps, i); // coalesced, read-only
            gm.flops(8);
            let bi = (i + b - half % b) % b;
            acc.fetch_add(gm, bi, x * t);
        })
        .expect("the ablation strawman runs on a fault-free device");
    acc.snapshot()
}

/// Algorithm 2: loop-partition kernel (the paper's baseline).
///
/// Writes the buckets into `out` (length `b`). `w_pad` must be a multiple
/// of `b` and `taps` must be padded to `w_pad`. Fails with a typed device
/// error on an injected launch fault (no blocks execute, `out` untouched).
#[allow(clippy::too_many_arguments)]
pub fn perm_filter_partition(
    device: &GpuDevice,
    signal: &DeviceBuffer<Cplx>,
    taps: &DeviceBuffer<Cplx>,
    w_pad: usize,
    w: usize,
    b: usize,
    perm: &Permutation,
    out: &mut DeviceBuffer<Cplx>,
    stream: StreamId,
) -> Result<(), GpuError> {
    assert_eq!(w_pad % b, 0, "taps must be padded to a multiple of B");
    assert_eq!(out.len(), b, "output must have B elements");
    let half = w / 2;
    let rounds = w_pad / b;
    let cfg = LaunchConfig::for_elements(b, BLOCK);
    device.try_launch_map("perm_filter_partition", cfg, stream, out, |ctx, gm| {
        let tid = ctx.global_id();
        let first = (tid + half) % b;
        let mut acc = ZERO;
        for j in 0..rounds {
            let i = first + j * b;
            let t = gm.ld_ro(taps, i); // coalesced
            if t == ZERO {
                continue; // padding tail
            }
            let src = tap_source_index(i, half, perm);
            let x = gm.ld_acc(signal, src); // scattered, feeds accumulator
            gm.flops(8);
            acc = x.mul_add(t, acc);
        }
        acc
    })
}

/// Why the conventional shared-memory histogram cannot run for a given
/// bucket count (the paper's Section IV argument, made checkable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedMemOverflow {
    /// Bytes one per-block sub-histogram needs.
    pub required: usize,
    /// Shared memory available per SM.
    pub available: usize,
    /// Bucket count that caused it.
    pub b: usize,
}

impl std::fmt::Display for SharedMemOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a per-block sub-histogram of B={} complex buckets needs {} B of shared memory, \
             but the device has {} B per SM — the conventional histogram approach is \
             inapplicable (paper Section IV)",
            self.b, self.required, self.available
        )
    }
}

impl std::error::Error for SharedMemOverflow {}

/// The conventional GPU-histogram approach with per-block sub-histograms
/// in shared memory (\[21\], \[22\] in the paper): each block accumulates
/// into its private copy, then merges into global memory with atomics.
///
/// Returns `Err` when `B` complex buckets do not fit in shared memory —
/// which, as the paper points out, is the common case for sFFT
/// (`B = √(nk/log n)` reaches thousands while 48 KB holds at most 3072
/// complex-double bins per block).
#[allow(clippy::too_many_arguments)]
#[must_use = "this operation can fault; the error carries the recovery cue"]
pub fn try_perm_filter_shared(
    device: &GpuDevice,
    signal: &DeviceBuffer<Cplx>,
    taps: &DeviceBuffer<Cplx>,
    w: usize,
    b: usize,
    perm: &Permutation,
    stream: StreamId,
) -> Result<Vec<Cplx>, SharedMemOverflow> {
    let required = b * std::mem::size_of::<Cplx>();
    let available = device.spec().shared_mem_per_sm;
    if required > available {
        return Err(SharedMemOverflow {
            required,
            available,
            b,
        });
    }
    let half = w / 2;
    let cfg = LaunchConfig::for_elements(w, BLOCK).with_shared_mem(required as u32);
    let grid_blocks = cfg.grid_dim as usize;

    // Phase 1: per-block accumulation into shared memory. Shared-memory
    // traffic is free of DRAM charges; the kernel still pays the
    // scattered signal gather, and the shared-memory request throttles
    // occupancy through the launch config. Functionally we accumulate
    // into per-block host-side sub-histograms.
    let subhist = DevAtomicCplx::zeroed(grid_blocks * b);
    device
        .try_launch_foreach("perm_filter_shared", cfg, stream, |ctx, gm| {
            let i = ctx.global_id();
            if i >= w {
                return;
            }
            let src = tap_source_index(i, half, perm);
            let x = gm.ld(signal, src);
            let t = gm.ld_ro(taps, i);
            gm.flops(8);
            let bi = (i + b - half % b) % b;
            // In-block shared-memory atomics: functional accumulation
            // without a DRAM trace (intra-block conflicts are negligible
            // for B ≫ 32).
            subhist.fetch_add_untraced(ctx.block_idx as usize * b + bi, x * t);
        })
        .expect("the ablation strawman runs on a fault-free device");

    // Phase 2: merge the sub-histograms with global atomics — this is the
    // part the paper calls "a major bottleneck to good performance".
    let acc = DevAtomicCplx::zeroed(b);
    let merge_cfg = LaunchConfig::for_elements(grid_blocks * b, BLOCK);
    device
        .try_launch_foreach("perm_filter_shared_merge", merge_cfg, stream, |ctx, gm| {
            let t = ctx.global_id();
            if t >= grid_blocks * b {
                return;
            }
            let v = subhist.load_untraced(t);
            if v != ZERO {
                acc.fetch_add(gm, t % b, v);
            }
        })
        .expect("the ablation strawman runs on a fault-free device");
    Ok(acc.snapshot())
}

/// Which remap implementation the async data-layout pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemapKind {
    /// Stage raw signal values; the execution kernel re-reads the taps.
    Direct,
    /// Stage the `signal × tap` *product* through a shared-memory tile
    /// (the affine-permutation tiling of arXiv 2306.07795): the
    /// execution kernel never touches the taps again, eliminating one
    /// whole coalesced read stream. Buckets are bit-identical to
    /// [`RemapKind::Direct`] because `x·t + acc` is evaluated with the
    /// same expression tree either way (see `Cplx::mul_add`).
    Tiled,
}

/// Chunking decision of the async layout pass — shared with plan warming
/// so pooled staging buffers can be pre-sized exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Rounds of `B` taps per chunk.
    pub rounds_per_chunk: usize,
    /// Number of chunks (each gets one staging + one partial buffer).
    pub chunks: usize,
    /// Whether staging buffers stay L2-resident (free of DRAM traffic).
    pub staged_cached: bool,
}

/// Computes the chunking the async pass will use for a `(w_pad, b)`
/// geometry: chunks large enough that a remap kernel's DRAM time
/// amortises its launch overhead, small enough that the staging buffer
/// stays L2-resident (which is what lets the execution kernel consume it
/// without DRAM traffic).
pub fn chunk_plan(spec: &DeviceSpec, w_pad: usize, b: usize) -> ChunkPlan {
    let rounds = w_pad / b;
    let min_chunk_elems =
        (4.0 * spec.launch_overhead_us * 1e-6 * spec.effective_bandwidth() / 32.0) as usize;
    let by_l2 = spec.l2_bytes / (16 * b); // rounds per chunk fitting L2
    let mut rpc = (min_chunk_elems / b).clamp(1, rounds);
    if by_l2 >= 1 {
        rpc = rpc.min(by_l2);
    }
    ChunkPlan {
        rounds_per_chunk: rpc,
        chunks: rounds.div_ceil(rpc),
        staged_cached: by_l2 >= 1, // B itself may exceed L2 at huge n
    }
}

/// Element counts of every scratch buffer the async pass acquires, in
/// acquisition order: the per-chunk staging buffers, then the per-chunk
/// partial bucket vectors. Plan warming acquires exactly this sequence
/// (holding all of them at once) so a steady-state pass reuses every
/// buffer with zero `MemPool` traffic.
pub fn staging_lens(spec: &DeviceSpec, w_pad: usize, b: usize) -> Vec<usize> {
    let cp = chunk_plan(spec, w_pad, b);
    let rounds = w_pad / b;
    let mut lens = Vec::with_capacity(2 * cp.chunks);
    for c in 0..cp.chunks {
        let r_lo = c * cp.rounds_per_chunk;
        lens.push(cp.rounds_per_chunk.min(rounds - r_lo) * b);
    }
    lens.resize(2 * cp.chunks, b);
    lens
}

/// Transaction-model comparison of the two remap flavours for one
/// permutation pass (the shared `bucket_reduce` is excluded — it is
/// identical under both).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapChoice {
    /// The selected flavour.
    pub kind: RemapKind,
    /// Modeled DRAM transactions under [`RemapKind::Direct`].
    pub direct_txns: u64,
    /// Modeled DRAM transactions under [`RemapKind::Tiled`].
    pub tiled_txns: u64,
    /// Occupancy fraction of the tiled remap kernel — the shared-memory
    /// tile can throttle residency on small-shared-memory devices.
    pub tiled_occupancy: f64,
}

/// Prices both remap flavours with the [`warp_transactions`] model and
/// selects the tiled one when it strictly reduces DRAM transactions
/// *and* its shared-memory tile costs no occupancy relative to the
/// direct remap (on the K20x, a 2×256×16 B tile leaves the kernel
/// warp-slot-limited, so the tile is free).
///
/// The gather pattern is priced as fully scattered — representative of a
/// random affine stride `σ⁻¹`, and identical under both flavours, so it
/// never affects the comparison.
pub fn choose_remap(spec: &DeviceSpec, w_pad: usize, b: usize) -> RemapChoice {
    let cp = chunk_plan(spec, w_pad, b);
    let rounds = w_pad / b;
    let warp = spec.warp_size as u64;
    let elem = std::mem::size_of::<Cplx>() as u32;
    let price = |addrs: &[(u64, u32)], policy: TxnPolicy| {
        warp_transactions(addrs, spec.transaction_bytes, spec.scatter_segment_bytes, policy)
            .transactions
    };
    let coalesced: Vec<(u64, u32)> = (0..warp).map(|l| (l * elem as u64, elem)).collect();
    let scattered: Vec<(u64, u32)> = (0..warp).map(|l| (l * 4096, elem)).collect();

    let taps_ro = price(&coalesced, TxnPolicy::Segmented); // __ldg, coalesced
    let gather = price(&scattered, TxnPolicy::Segmented); // __ldg, scattered
    let store = price(&coalesced, TxnPolicy::Segmented); // staging store
    let staged_ld = if cp.staged_cached {
        0 // L2-resident producer-consumer read: no DRAM traffic
    } else {
        price(&coalesced, TxnPolicy::CachedLine)
    };

    let warps_per_round = (b as u64).div_ceil(warp);
    let total = |per_warp_round: u64| per_warp_round * warps_per_round * rounds as u64;
    // Both flavours pay the remap-side traffic; only the direct flavour
    // re-reads the taps in the execution kernel.
    let remap_side = taps_ro + gather + store;
    let direct_txns = total(remap_side + staged_ld + taps_ro);
    let tiled_txns = total(remap_side + staged_ld);

    let chunk_elems = cp.rounds_per_chunk * b;
    let direct_occ = occupancy(spec, LaunchConfig::for_elements(chunk_elems, BLOCK));
    let tiled_occ = occupancy(
        spec,
        LaunchConfig::for_elements(chunk_elems, BLOCK).with_shared_mem(TILE_BYTES),
    );
    let kind = if tiled_txns < direct_txns && tiled_occ.fraction >= direct_occ.fraction {
        RemapKind::Tiled
    } else {
        RemapKind::Direct
    };
    RemapChoice {
        kind,
        direct_txns,
        tiled_txns,
        tiled_occupancy: tiled_occ.fraction,
    }
}

/// Section V: asynchronous data-layout transformation, with the
/// PR-baseline direct remap and per-call scratch allocation. See
/// [`perm_filter_async_opts`] for the pooled / tiled form.
#[allow(clippy::too_many_arguments)]
pub fn perm_filter_async(
    device: &GpuDevice,
    signal: &DeviceBuffer<Cplx>,
    taps: &DeviceBuffer<Cplx>,
    w_pad: usize,
    w: usize,
    b: usize,
    perm: &Permutation,
    out: &mut DeviceBuffer<Cplx>,
    streams: &[StreamId],
    reduce_stream: StreamId,
) -> Result<(), GpuError> {
    perm_filter_async_opts(
        device,
        signal,
        taps,
        w_pad,
        w,
        b,
        perm,
        out,
        streams,
        reduce_stream,
        RemapKind::Direct,
        None,
    )
}

/// Section V: asynchronous data-layout transformation.
///
/// `streams` are the CUDA streams the chunks round-robin over (the paper
/// uses up to 32 concurrent kernels on GK110). Scratch buffers are
/// acquired from `pool` when one is supplied (so a warmed plan runs the
/// pass with zero `MemPool` traffic) and allocated per call otherwise;
/// either way they are tracked against device capacity. The final
/// buckets land in `out`. `kind` selects the remap flavour — both
/// produce bit-identical buckets. Fails with a typed device error on
/// injected allocation or launch faults; the launch-gate sequence is
/// identical for both flavours, so fault ordinals align across them.
#[allow(clippy::too_many_arguments)]
pub fn perm_filter_async_opts(
    device: &GpuDevice,
    signal: &DeviceBuffer<Cplx>,
    taps: &DeviceBuffer<Cplx>,
    w_pad: usize,
    w: usize,
    b: usize,
    perm: &Permutation,
    out: &mut DeviceBuffer<Cplx>,
    streams: &[StreamId],
    reduce_stream: StreamId,
    kind: RemapKind,
    pool: Option<&BufferPool<Cplx>>,
) -> Result<(), GpuError> {
    assert_eq!(w_pad % b, 0, "taps must be padded to a multiple of B");
    assert_eq!(out.len(), b, "output must have B elements");
    assert!(!streams.is_empty(), "need at least one stream");
    let half = w / 2;
    let rounds = w_pad / b;
    let spec = device.spec();
    let cp = chunk_plan(spec, w_pad, b);
    let (rpc, chunks, staged_cached) = (cp.rounds_per_chunk, cp.chunks, cp.staged_cached);

    // Without a caller pool, a throwaway local pool degenerates to the
    // allocate-per-call behaviour: every acquisition misses and all
    // reservations release when `local` drops at return.
    let local: BufferPool<Cplx>;
    let pool = match pool {
        Some(p) => p,
        None => {
            local = BufferPool::new();
            &local
        }
    };
    let cfg_b = LaunchConfig::for_elements(b, BLOCK);
    let mut staged: Vec<PooledBuffer<Cplx>> = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let r_lo = c * rpc;
        let cr = rpc.min(rounds - r_lo);
        staged.push(device.try_alloc_zeroed_pooled(pool, cr * b, streams[c % streams.len()])?);
    }
    let mut partial: Vec<PooledBuffer<Cplx>> = Vec::with_capacity(chunks);
    for c in 0..chunks {
        partial.push(device.try_alloc_zeroed_pooled(pool, b, streams[c % streams.len()])?);
    }

    for (c, (staged_c, partial_c)) in staged.iter_mut().zip(partial.iter_mut()).enumerate() {
        let stream = streams[c % streams.len()];
        let r_lo = c * rpc;
        let cr = staged_c.len() / b;
        // Remap kernel: gather the chunk's scattered signal reads into
        // coalesced order. Loads are independent (index mapping) and feed
        // no accumulator, so the kernel runs at full memory-level
        // parallelism — this is where the paper's optimisation wins over
        // the serially-stalling baseline loop.
        let remap_cfg = LaunchConfig::for_elements(cr * b, BLOCK);
        match kind {
            RemapKind::Direct => {
                let remap_body = |ctx: gpu_sim::ThreadCtx, gm: &mut gpu_sim::Gmem<'_>| {
                    let t = ctx.global_id();
                    let i = r_lo * b + t;
                    let tap = gm.ld_ro(taps, i);
                    if tap == ZERO {
                        return ZERO;
                    }
                    let src = tap_source_index(i, half, perm);
                    // The gather goes through the read-only (`__ldg`)
                    // path: the signal is immutable for the kernel's
                    // duration, and Kepler services __ldg scatter as 32 B
                    // segments instead of full 128 B lines — the
                    // coalescing win of the transformation.
                    gm.ld_ro(signal, src)
                };
                if staged_cached {
                    device.try_launch_map_scratch("remap", remap_cfg, stream, staged_c, remap_body)?;
                } else {
                    device.try_launch_map("remap", remap_cfg, stream, staged_c, remap_body)?;
                }
                // Execution kernel: consume the reordered data with
                // coalesced accesses only; one partial per chunk.
                let staged_ref: &DeviceBuffer<Cplx> = staged_c;
                device.try_launch_map("exec", cfg_b, stream, partial_c, |ctx, gm| {
                    let tid = ctx.global_id();
                    let pos = (tid + half) % b;
                    let mut acc = ZERO;
                    for j in 0..cr {
                        let x = if staged_cached {
                            gm.ld_cached(staged_ref, j * b + pos)
                        } else {
                            gm.ld(staged_ref, j * b + pos)
                        };
                        let tap = gm.ld_ro(taps, (r_lo + j) * b + pos);
                        gm.flops(8);
                        acc = x.mul_add(tap, acc);
                    }
                    acc
                })?;
            }
            RemapKind::Tiled => {
                // Tiled/fused remap: lanes cooperatively stage the tap
                // tile and the gathered signal tile in shared memory
                // (`TILE_BYTES`, modelled through the launch config) and
                // write back the *product*. Same loads as the direct
                // remap plus the 6-flop complex multiply; the pay-off is
                // in `exec_tiled`, which drops the tap stream entirely.
                let tiled_cfg = remap_cfg.with_shared_mem(TILE_BYTES);
                let remap_body = |ctx: gpu_sim::ThreadCtx, gm: &mut gpu_sim::Gmem<'_>| {
                    let t = ctx.global_id();
                    let i = r_lo * b + t;
                    let tap = gm.ld_ro(taps, i);
                    if tap == ZERO {
                        return ZERO;
                    }
                    let src = tap_source_index(i, half, perm);
                    let x = gm.ld_ro(signal, src);
                    gm.flops(6);
                    // Same multiply `Cplx::mul_add` performs, so the
                    // buckets stay bit-identical to the direct flavour.
                    x * tap
                };
                if staged_cached {
                    device.try_launch_map_scratch(
                        "remap_tiled",
                        tiled_cfg,
                        stream,
                        staged_c,
                        remap_body,
                    )?;
                } else {
                    device.try_launch_map("remap_tiled", tiled_cfg, stream, staged_c, remap_body)?;
                }
                let staged_ref: &DeviceBuffer<Cplx> = staged_c;
                device.try_launch_map("exec_tiled", cfg_b, stream, partial_c, |ctx, gm| {
                    let tid = ctx.global_id();
                    let pos = (tid + half) % b;
                    let mut acc = ZERO;
                    for j in 0..cr {
                        let x = if staged_cached {
                            gm.ld_cached(staged_ref, j * b + pos)
                        } else {
                            gm.ld(staged_ref, j * b + pos)
                        };
                        gm.flops(2);
                        acc = x + acc;
                    }
                    acc
                })?;
            }
        }
    }

    // Reduction: buckets[tid] = Σ_c partial[c][tid] (all reads coalesced).
    // The reduce runs on `reduce_stream` and must wait for every chunk's
    // execution kernel on the other streams (cudaStreamWaitEvent).
    for &s in streams.iter().take(chunks) {
        let ev = device.record_event(s);
        device.stream_wait_event(reduce_stream, ev);
    }
    let partial_ref = &partial;
    device.try_launch_map("bucket_reduce", cfg_b, reduce_stream, out, |ctx, gm| {
        let tid = ctx.global_id();
        let mut acc = ZERO;
        for p in partial_ref {
            acc += gm.ld(&**p, tid);
            gm.flops(2);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::Plan;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};
    use sfft_cpu::inner::perm_filter as cpu_perm_filter;
    use sfft_cpu::SfftParams;
    use signal::{MagnitudeModel, SparseSignal};

    struct Setup {
        device: GpuDevice,
        params: SfftParams,
        s: SparseSignal,
        perm: Permutation,
        taps_pad: Vec<Cplx>,
        w_pad: usize,
    }

    fn setup() -> Setup {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8);
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 77);
        let perm = Permutation::new(1001, 13, n);
        let w = params.filter_loc.width();
        let b = params.b_loc;
        let w_pad = w.div_ceil(b) * b;
        let mut taps_pad = params.filter_loc.taps().to_vec();
        taps_pad.resize(w_pad, ZERO);
        Setup {
            device: GpuDevice::new(DeviceSpec::tesla_k20x()),
            params,
            s,
            perm,
            taps_pad,
            w_pad,
        }
    }

    fn cpu_reference(su: &Setup) -> Vec<Cplx> {
        cpu_perm_filter(&su.s.time, &su.params.filter_loc, su.params.b_loc, &su.perm)
    }

    fn assert_buckets_match(a: &[Cplx], b: &[Cplx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.dist(*y) < tol, "bucket {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn partition_kernel_matches_cpu_reference() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let mut out = DeviceBuffer::zeroed(su.params.b_loc);
        perm_filter_partition(
            &su.device,
            &signal,
            &taps,
            su.w_pad,
            su.params.filter_loc.width(),
            su.params.b_loc,
            &su.perm,
            &mut out,
            DEFAULT_STREAM,
        )
        .unwrap();
        assert_buckets_match(&out.peek(), &cpu_reference(&su), 1e-10);
    }

    #[test]
    fn atomic_kernel_matches_cpu_reference() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let got = perm_filter_atomic(
            &su.device,
            &signal,
            &taps,
            su.params.filter_loc.width(),
            su.params.b_loc,
            &su.perm,
            DEFAULT_STREAM,
        );
        // Atomic accumulation order varies → slightly looser tolerance.
        assert_buckets_match(&got, &cpu_reference(&su), 1e-9);
    }

    #[test]
    fn async_kernel_matches_cpu_reference() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let mut out = DeviceBuffer::zeroed(su.params.b_loc);
        let streams: Vec<StreamId> = (0..4).map(|_| su.device.create_stream()).collect();
        perm_filter_async(
            &su.device,
            &signal,
            &taps,
            su.w_pad,
            su.params.filter_loc.width(),
            su.params.b_loc,
            &su.perm,
            &mut out,
            &streams,
            DEFAULT_STREAM,
        )
        .unwrap();
        assert_buckets_match(&out.peek(), &cpu_reference(&su), 1e-10);
    }

    #[test]
    fn tiled_remap_is_bit_identical_to_direct() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let b = su.params.b_loc;
        let w = su.params.filter_loc.width();
        let streams: Vec<StreamId> = (0..4).map(|_| su.device.create_stream()).collect();
        let mut direct = DeviceBuffer::zeroed(b);
        perm_filter_async_opts(
            &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut direct, &streams,
            DEFAULT_STREAM, RemapKind::Direct, None,
        )
        .unwrap();
        let mut tiled = DeviceBuffer::zeroed(b);
        perm_filter_async_opts(
            &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut tiled, &streams,
            DEFAULT_STREAM, RemapKind::Tiled, None,
        )
        .unwrap();
        assert_eq!(direct.peek(), tiled.peek(), "buckets must match bit-for-bit");
    }

    #[test]
    fn tiled_remap_reduces_modeled_transactions() {
        // Both the a-priori pricing and the actually traced kernels must
        // agree that dropping the exec-side tap stream moves fewer bytes.
        let su = setup();
        let b = su.params.b_loc;
        let w = su.params.filter_loc.width();
        let choice = choose_remap(su.device.spec(), su.w_pad, b);
        assert_eq!(choice.kind, RemapKind::Tiled, "K20x tile costs no occupancy");
        assert!(choice.tiled_txns < choice.direct_txns);

        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let streams: Vec<StreamId> = (0..4).map(|_| su.device.create_stream()).collect();
        let traced = |kind: RemapKind| {
            su.device.reset_clock();
            let mut out = DeviceBuffer::zeroed(b);
            perm_filter_async_opts(
                &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut out, &streams,
                DEFAULT_STREAM, kind, None,
            )
            .unwrap();
            su.device
                .records()
                .iter()
                .map(|r| r.stats.transactions)
                .sum::<f64>()
        };
        let direct = traced(RemapKind::Direct);
        let tiled = traced(RemapKind::Tiled);
        assert!(
            tiled < direct,
            "tiled txns {tiled} must undercut direct {direct}"
        );
    }

    #[test]
    fn pooled_rerun_has_zero_mem_pool_traffic() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let b = su.params.b_loc;
        let w = su.params.filter_loc.width();
        let streams: Vec<StreamId> = (0..2).map(|_| su.device.create_stream()).collect();
        let pool: BufferPool<Cplx> = BufferPool::new();
        let run = || {
            let mut out = DeviceBuffer::zeroed(b);
            perm_filter_async_opts(
                &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut out, &streams,
                DEFAULT_STREAM, RemapKind::Tiled, Some(&pool),
            )
            .unwrap();
            out.peek()
        };
        let first = run();
        let (alloc0, release0) = (su.device.pool_alloc_ops(), su.device.pool_release_ops());
        assert!(alloc0 > 0, "cold pass must allocate");
        let second = run();
        assert_eq!(first, second, "pool reuse must not perturb values");
        assert_eq!(
            (su.device.pool_alloc_ops(), su.device.pool_release_ops()),
            (alloc0, release0),
            "warm pass must touch the MemPool zero times"
        );
        assert_eq!(pool.stats().fresh_misses, pool.stats().reuse_hits);
    }

    #[test]
    fn staging_lens_matches_chunk_plan() {
        let su = setup();
        let spec = su.device.spec();
        let cp = chunk_plan(spec, su.w_pad, su.params.b_loc);
        let lens = staging_lens(spec, su.w_pad, su.params.b_loc);
        assert_eq!(lens.len(), 2 * cp.chunks);
        assert_eq!(
            lens.iter().take(cp.chunks).sum::<usize>(),
            su.w_pad,
            "staging chunks cover all padded taps"
        );
        assert!(lens[cp.chunks..].iter().all(|&l| l == su.params.b_loc));
    }

    #[test]
    fn all_variants_feed_identical_spectra() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let b = su.params.b_loc;
        let w = su.params.filter_loc.width();

        let mut part = DeviceBuffer::zeroed(b);
        perm_filter_partition(
            &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut part, DEFAULT_STREAM,
        )
        .unwrap();
        let mut asy = DeviceBuffer::zeroed(b);
        let streams: Vec<StreamId> = (0..2).map(|_| su.device.create_stream()).collect();
        perm_filter_async(
            &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut asy, &streams,
            DEFAULT_STREAM,
        )
        .unwrap();
        let plan = Plan::new(b);
        let mut za = part.peek();
        let mut zb = asy.peek();
        plan.process(&mut za, fft::Direction::Forward);
        plan.process(&mut zb, fft::Direction::Forward);
        assert_buckets_match(&za, &zb, 1e-8);
    }

    #[test]
    fn async_variant_is_faster_in_simulated_time() {
        // The headline mechanism: the optimized layout beats the
        // under-occupied baseline kernel on the device clock.
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let b = su.params.b_loc;
        let w = su.params.filter_loc.width();

        su.device.reset_clock();
        let mut part = DeviceBuffer::zeroed(b);
        perm_filter_partition(
            &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut part, DEFAULT_STREAM,
        )
        .unwrap();
        let t_baseline = su.device.elapsed();

        su.device.reset_clock();
        let streams: Vec<StreamId> = (0..8).map(|_| su.device.create_stream()).collect();
        let mut asy = DeviceBuffer::zeroed(b);
        perm_filter_async(
            &su.device, &signal, &taps, su.w_pad, w, b, &su.perm, &mut asy, &streams,
            DEFAULT_STREAM,
        )
        .unwrap();
        let t_async = su.device.elapsed();
        assert!(
            t_async < t_baseline,
            "async {t_async:.3e}s should beat baseline {t_baseline:.3e}s"
        );
    }

    #[test]
    fn atomic_variant_pays_contention() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        su.device.reset_clock();
        let _ = perm_filter_atomic(
            &su.device,
            &signal,
            &taps,
            su.params.filter_loc.width(),
            su.params.b_loc,
            &su.perm,
            DEFAULT_STREAM,
        );
        let rec = &su.device.records()[0];
        assert!(rec.stats.atomic_ops > 0.0, "atomics must be traced");
        assert!(rec.cost.t_atomic > 0.0, "contention must be charged");
    }

    #[test]
    fn shared_histogram_matches_reference_when_b_fits() {
        let su = setup(); // B = params.b_loc complex buckets
        let b = su.params.b_loc;
        assert!(
            b * 16 <= su.device.spec().shared_mem_per_sm,
            "test setup: B must fit shared memory"
        );
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let got = try_perm_filter_shared(
            &su.device,
            &signal,
            &taps,
            su.params.filter_loc.width(),
            b,
            &su.perm,
            DEFAULT_STREAM,
        )
        .expect("B fits in shared memory");
        assert_buckets_match(&got, &cpu_reference(&su), 1e-9);
    }

    #[test]
    fn shared_histogram_rejects_oversized_b() {
        // The paper's core argument: realistic sFFT bucket counts do not
        // fit the 64 KB shared memory as complex doubles.
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let b = 8192; // 8192 × 16 B = 128 KB > 64 KB
        let err = try_perm_filter_shared(
            &su.device,
            &signal,
            &taps,
            su.params.filter_loc.width(),
            b,
            &su.perm,
            DEFAULT_STREAM,
        )
        .unwrap_err();
        assert_eq!(err.b, b);
        assert!(err.required > err.available);
        assert!(err.to_string().contains("inapplicable"));
    }

    #[test]
    #[should_panic(expected = "padded")]
    fn unpadded_taps_rejected() {
        let su = setup();
        let signal = DeviceBuffer::from_host(&su.s.time);
        let taps = DeviceBuffer::from_host(&su.taps_pad);
        let mut out = DeviceBuffer::zeroed(su.params.b_loc);
        let _ = perm_filter_partition(
            &su.device,
            &signal,
            &taps,
            su.w_pad + 1,
            su.params.filter_loc.width(),
            su.params.b_loc,
            &su.perm,
            &mut out,
            DEFAULT_STREAM,
        );
    }
}
