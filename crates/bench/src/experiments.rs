//! Experiment runners — one function per table/figure of the paper's
//! evaluation (see DESIGN.md for the experiment index).
//!
//! Every runner is deterministic given its seed. GPU-side numbers are
//! simulated-device seconds from `gpu-sim`'s cost model; CPU-side numbers
//! are wall-clock on the current host (see EXPERIMENTS.md for how the two
//! are compared).

use std::sync::Arc;
use std::time::Instant;

use cusfft::{cufft_dense_baseline, cufft_model_time, CusFft, Variant};
use fft::{Direction, ParallelPlan};
use gpu_sim::{DeviceSpec, GpuDevice, DEFAULT_STREAM};
use sfft_cpu::{psfft, sfft_profiled, SfftParams, StepTimings};
use signal::{l1_error_per_coeff, support_recall, MagnitudeModel, SparseSignal};

/// One point of the Figure 5 runtime comparison.
#[derive(Debug, Clone, Copy)]
pub struct RuntimePoint {
    /// log2 of the signal size.
    pub log2_n: u32,
    /// Sparsity.
    pub k: usize,
    /// cusFFT baseline variant — simulated device seconds (input
    /// device-resident).
    pub cusfft_base: f64,
    /// cusFFT optimized variant — simulated device seconds.
    pub cusfft_opt: f64,
    /// Input PCIe transfer (added for GPU-vs-CPU comparisons).
    pub input_transfer: f64,
    /// Dense cuFFT — simulated device seconds (same convention).
    pub cufft: f64,
    /// PsFFT — wall seconds on this host.
    pub psfft_wall: f64,
    /// Parallel dense FFT ("FFTW") — wall seconds on this host.
    pub fftw_wall: f64,
    /// L1 error per large coefficient, baseline variant.
    pub l1_base: f64,
    /// L1 error per large coefficient, optimized variant.
    pub l1_opt: f64,
    /// Support recall of the optimized variant.
    pub recall_opt: f64,
}

impl RuntimePoint {
    /// Fig 5(c): speedup of each cusFFT variant over cuFFT (GPU vs GPU —
    /// both with device-resident inputs).
    pub fn speedup_over_cufft(&self) -> (f64, f64) {
        (self.cufft / self.cusfft_base, self.cufft / self.cusfft_opt)
    }

    /// Fig 5(d): speedup of optimized cusFFT over parallel FFTW (GPU vs
    /// CPU — the GPU pays the input transfer).
    pub fn speedup_over_fftw(&self) -> f64 {
        self.fftw_wall / (self.cusfft_opt + self.input_transfer)
    }

    /// Fig 5(e): speedup of optimized cusFFT over PsFFT (GPU vs CPU).
    pub fn speedup_over_psfft(&self) -> f64 {
        self.psfft_wall / (self.cusfft_opt + self.input_transfer)
    }
}

/// Measures one `(n, k)` point with every implementation.
pub fn runtime_point(log2_n: u32, k: usize, seed: u64) -> RuntimePoint {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let params = Arc::new(SfftParams::tuned(n, k));

    // GPU sparse: both variants on fresh devices.
    let dev_b = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let base = CusFft::new(dev_b, params.clone(), Variant::Baseline).execute(&s.time, seed);
    let dev_o = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let opt = CusFft::new(dev_o, params.clone(), Variant::Optimized).execute(&s.time, seed);

    // GPU dense (cuFFT).
    let dev_c = GpuDevice::new(DeviceSpec::tesla_k20x());
    let _ = cufft_dense_baseline(&dev_c, &s.time, DEFAULT_STREAM);
    let cufft = dev_c.elapsed();

    // CPU sparse (PsFFT) — wall clock.
    let t0 = Instant::now();
    let _ = psfft(&params, &s.time, seed);
    let psfft_wall = t0.elapsed().as_secs_f64();

    // CPU dense ("parallel FFTW") — wall clock.
    let plan = ParallelPlan::new(n);
    let mut buf = s.time.clone();
    let t1 = Instant::now();
    plan.process(&mut buf, Direction::Forward);
    let fftw_wall = t1.elapsed().as_secs_f64();

    RuntimePoint {
        log2_n,
        k,
        cusfft_base: base.sim_time,
        cusfft_opt: opt.sim_time,
        input_transfer: opt.input_transfer,
        cufft,
        psfft_wall,
        fftw_wall,
        l1_base: l1_error_per_coeff(&s.coords, &base.recovered),
        l1_opt: l1_error_per_coeff(&s.coords, &opt.recovered),
        recall_opt: support_recall(&s.coords, &opt.recovered),
    }
}

/// Fig 5(a): runtime vs signal size at fixed sparsity.
pub fn fig5a(log2_range: impl Iterator<Item = u32>, k: usize, seed: u64) -> Vec<RuntimePoint> {
    log2_range.map(|l| runtime_point(l, k, seed)).collect()
}

/// Fig 5(b): runtime vs sparsity at fixed signal size.
pub fn fig5b(log2_n: u32, ks: &[usize], seed: u64) -> Vec<RuntimePoint> {
    ks.iter().map(|&k| runtime_point(log2_n, k, seed)).collect()
}

/// Fig 5(f): L1 error per large coefficient vs sparsity.
pub fn fig5f(log2_n: u32, ks: &[usize], seed: u64) -> Vec<(usize, f64, f64)> {
    ks.iter()
        .map(|&k| {
            let p = runtime_point(log2_n, k, seed);
            (k, p.l1_base, p.l1_opt)
        })
        .collect()
}

/// One row of the Figure 2 profile: per-step shares of sequential sFFT.
#[derive(Debug, Clone, Copy)]
pub struct ProfileRow {
    /// log2 n.
    pub log2_n: u32,
    /// Sparsity.
    pub k: usize,
    /// Per-step timings.
    pub timings: StepTimings,
}

/// Fig 2(a): per-step time distribution vs n at fixed k.
pub fn fig2a(log2_range: impl Iterator<Item = u32>, k: usize, seed: u64) -> Vec<ProfileRow> {
    log2_range
        .map(|log2_n| profile_point(log2_n, k, seed))
        .collect()
}

/// Fig 2(b): per-step time distribution vs k at fixed n.
pub fn fig2b(log2_n: u32, ks: &[usize], seed: u64) -> Vec<ProfileRow> {
    ks.iter().map(|&k| profile_point(log2_n, k, seed)).collect()
}

fn profile_point(log2_n: u32, k: usize, seed: u64) -> ProfileRow {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let params = SfftParams::tuned(n, k);
    let (_, timings) = sfft_profiled(&params, &s.time, seed);
    ProfileRow { log2_n, k, timings }
}

/// Ablation A (Section V-A): permutation+filter kernel variants.
#[derive(Debug, Clone, Copy)]
pub struct FilterAblation {
    /// log2 n.
    pub log2_n: u32,
    /// Atomic-histogram strawman time (simulated).
    pub atomic: f64,
    /// Loop-partition (Algorithm 2) time.
    pub partition: f64,
    /// Async data-layout transformation time.
    pub async_layout: f64,
}

/// Runs the perm+filter kernel ablation at one size.
pub fn filter_ablation(log2_n: u32, k: usize, seed: u64) -> FilterAblation {
    use cusfft::perm_filter::{
        perm_filter_async, perm_filter_atomic, perm_filter_partition, RemapKind,
    };
    use fft::cplx::ZERO;
    use gpu_sim::{BufferPool, DeviceBuffer};
    use sfft_cpu::Permutation;

    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let params = SfftParams::tuned(n, k);
    let b = params.b_loc;
    let w = params.filter_loc.width();
    let w_pad = w.div_ceil(b) * b;
    let mut taps = params.filter_loc.taps().to_vec();
    taps.resize(w_pad, ZERO);

    let device = GpuDevice::new(DeviceSpec::tesla_k20x());
    let signal = DeviceBuffer::from_host(&s.time);
    let taps_buf = DeviceBuffer::from_host(&taps);
    let perm = Permutation::new((1001 % n) | 1, 0, n);

    device.reset_clock();
    let _ = perm_filter_atomic(&device, &signal, &taps_buf, w, b, &perm, DEFAULT_STREAM);
    let atomic = device.elapsed();

    device.reset_clock();
    let mut out = DeviceBuffer::zeroed(b);
    perm_filter_partition(
        &device,
        &signal,
        &taps_buf,
        w_pad,
        w,
        b,
        &perm,
        &mut out,
        DEFAULT_STREAM,
    )
    .expect("fault-free device");
    let partition = device.elapsed();

    device.reset_clock();
    let streams: Vec<_> = (0..8).map(|_| device.create_stream()).collect();
    let mut out2 = DeviceBuffer::zeroed(b);
    perm_filter_async(
        &device,
        &signal,
        &taps_buf,
        w_pad,
        w,
        b,
        &perm,
        &mut out2,
        &streams,
        DEFAULT_STREAM,
        RemapKind::Direct,
        &BufferPool::new(),
    )
    .expect("fault-free device");
    let async_layout = device.elapsed();

    FilterAblation {
        log2_n,
        atomic,
        partition,
        async_layout,
    }
}

/// Ablation B (Section V-B): cutoff selection strategies on sFFT-shaped
/// (spiky) bucket magnitudes. Returns `(sort, bucket_select_passes,
/// fast_select)` simulated times plus the BucketSelect pass count.
#[derive(Debug, Clone, Copy)]
pub struct SelectionAblation {
    /// Bucket count.
    pub b: usize,
    /// Thrust-style sort&select time (simulated).
    pub sort: f64,
    /// Fast threshold selection time (simulated).
    pub fast: f64,
    /// BucketSelect refinement passes on the spiky data (work proxy; the
    /// paper's argument for not using it).
    pub bucket_passes: u32,
}

/// Runs the selection ablation for a bucket vector of size `b` with `k`
/// spikes.
pub fn selection_ablation(b: usize, k: usize, seed: u64) -> SelectionAblation {
    use cusfft::cutoff::{fast_select_device, magnitudes_device, sort_select_device};
    use fft::Cplx;
    use gpu_sim::{BufferPool, DeviceBuffer};
    use rand::{Rng, SeedableRng};

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut buckets = vec![fft::cplx::ZERO; b];
    for slot in buckets.iter_mut() {
        *slot = Cplx::new(rng.gen_range(0.0..1e-6), 0.0);
    }
    for _ in 0..k {
        let i = rng.gen_range(0..b);
        buckets[i] = Cplx::new(rng.gen_range(0.5..2.0), rng.gen_range(-1.0..1.0));
    }

    let device = GpuDevice::new(DeviceSpec::tesla_k20x());
    let bucket_buf = DeviceBuffer::from_host(&buckets);
    let mags = magnitudes_device(&device, &BufferPool::new(), &bucket_buf, DEFAULT_STREAM)
        .expect("fault-free device");

    device.reset_clock();
    let _ = sort_select_device(&device, &mags, k, DEFAULT_STREAM);
    let sort = device.elapsed();

    device.reset_clock();
    let _ = fast_select_device(&device, &mags, 1e-3, DEFAULT_STREAM);
    let fast = device.elapsed();

    let bucket_passes = kselect::bucket_select(mags.as_slice(), k).stats.passes;

    SelectionAblation {
        b,
        sort,
        fast,
        bucket_passes,
    }
}

/// GPU-side step breakdown (the device-clock analogue of Figure 2,
/// showing where the paper's optimisations move the time).
#[derive(Debug, Clone, Copy)]
pub struct GpuProfileRow {
    /// log2 n.
    pub log2_n: u32,
    /// Step breakdown of the optimized pipeline (simulated seconds).
    pub steps: cusfft::StepBreakdown,
}

/// Sweeps the GPU step breakdown over signal sizes.
pub fn fig2_gpu(log2_range: impl Iterator<Item = u32>, k: usize, seed: u64) -> Vec<GpuProfileRow> {
    log2_range
        .map(|log2_n| {
            let n = 1usize << log2_n;
            let s = SparseSignal::generate(n, k.min(n / 8), MagnitudeModel::Unit, seed);
            let params = Arc::new(SfftParams::tuned(n, k.min(n / 8)));
            let out = CusFft::new(
                Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x())),
                params,
                Variant::Optimized,
            )
            .execute(&s.time, seed);
            GpuProfileRow {
                log2_n,
                steps: out.steps,
            }
        })
        .collect()
}

/// One row of the noise-robustness sweep (our extension experiment:
/// the paper evaluates noiseless signals; this quantifies the voting
/// threshold's tolerance).
#[derive(Debug, Clone, Copy)]
pub struct NoisePoint {
    /// Signal-to-noise ratio in dB.
    pub snr_db: f64,
    /// Support recall of the optimized cusFFT.
    pub recall: f64,
    /// L1 error per large coefficient.
    pub l1: f64,
}

/// Sweeps AWGN levels at fixed `(n, k)`.
pub fn noise_sweep(log2_n: u32, k: usize, snrs: &[f64], seed: u64) -> Vec<NoisePoint> {
    let n = 1usize << log2_n;
    let params = Arc::new(SfftParams::tuned(n, k));
    let plan = CusFft::new(
        Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x())),
        params,
        Variant::Optimized,
    );
    snrs.iter()
        .map(|&snr_db| {
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
            let mut noisy = s.time.clone();
            signal::add_awgn(&mut noisy, snr_db, seed ^ 0x5a5a);
            let out = plan.execute(&noisy, seed);
            NoisePoint {
                snr_db,
                recall: support_recall(&s.coords, &out.recovered),
                l1: l1_error_per_coeff(&s.coords, &out.recovered),
            }
        })
        .collect()
}

/// Device-sensitivity sweep (the paper's future work mentions other
/// architectures): the same workload on different simulated parts.
pub fn device_sweep(log2_n: u32, k: usize, seed: u64) -> Vec<(String, f64)> {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let params = Arc::new(SfftParams::tuned(n, k));
    [DeviceSpec::tesla_k20x(), DeviceSpec::tesla_k40()]
        .into_iter()
        .map(|spec| {
            let name = spec.name.clone();
            let out = CusFft::new(
                Arc::new(GpuDevice::new(spec)),
                params.clone(),
                Variant::Optimized,
            )
            .execute(&s.time, seed);
            (name, out.sim_time)
        })
        .collect()
}

/// sFFT v1 vs v2 (comb pre-filter) on the CPU: wall time and hit counts.
#[derive(Debug, Clone, Copy)]
pub struct CombAblation {
    /// log2 n.
    pub log2_n: u32,
    /// v1 wall seconds.
    pub v1_wall: f64,
    /// v2 wall seconds (includes the comb passes).
    pub v2_wall: f64,
    /// Hits v1 estimated (true + spurious).
    pub v1_hits: usize,
    /// Hits v2 estimated — the comb starves spurious candidates.
    pub v2_hits: usize,
    /// Residues the comb kept.
    pub residues_kept: usize,
}

/// Runs the v1-vs-v2 comb ablation.
pub fn comb_ablation(log2_n: u32, k: usize, seed: u64) -> CombAblation {
    use sfft_cpu::{sfft_v2, CombParams};
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let params = SfftParams::tuned(n, k);
    let comb = CombParams::tuned(n, k);

    let t0 = Instant::now();
    let v1 = sfft_cpu::sfft(&params, &s.time, seed);
    let v1_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (v2, stats) = sfft_v2(&params, &comb, &s.time, seed);
    let v2_wall = t1.elapsed().as_secs_f64();

    CombAblation {
        log2_n,
        v1_wall,
        v2_wall,
        v1_hits: v1.len(),
        v2_hits: v2.len(),
        residues_kept: stats.residues_kept,
    }
}

/// One point of the host-parallel engine benchmark: the same plan,
/// executed once with the work-stealing pool pinned to a single thread
/// and once with the default pool. The outputs are bit-identical by the
/// engine's determinism contract (see `third_party/rayon`), so the only
/// thing that moves is host wall time.
#[derive(Debug, Clone, Copy)]
pub struct HostParallelPoint {
    /// log2 of the signal size.
    pub log2_n: u32,
    /// Sparsity.
    pub k: usize,
    /// Pool width used for the parallel run (`rayon::current_num_threads`
    /// under the default configuration).
    pub pool_threads: usize,
    /// Best-of-reps host wall seconds with the pool pinned to 1 thread.
    pub wall_sequential: f64,
    /// Best-of-reps host wall seconds with the default pool.
    pub wall_parallel: f64,
    /// Per-phase host walls of the best parallel rep.
    pub phases: cusfft::HostPhaseWalls,
    /// Modelled device seconds (identical in both modes — asserted).
    pub sim_time: f64,
}

impl HostParallelPoint {
    /// Host-side speedup of the default pool over the pinned pool.
    pub fn speedup(&self) -> f64 {
        self.wall_sequential / self.wall_parallel
    }
}

/// Measures one `(n, k)` point of the host-parallel benchmark.
///
/// Both modes run the same [`CusFft`] plan on fresh devices; wall times
/// are the minimum over `reps` repetitions (first rep per mode is a
/// discarded warm-up when `reps > 1`). Panics if the two modes disagree
/// on the modelled time — that would be a determinism bug, not noise.
pub fn host_parallel_point(log2_n: u32, k: usize, seed: u64, reps: usize) -> HostParallelPoint {
    let n = 1usize << log2_n;
    let k = k.min(n / 8);
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let params = Arc::new(SfftParams::tuned(n, k));
    let plan = CusFft::new(
        Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x())),
        params,
        Variant::Optimized,
    );

    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool build is infallible");

    let mut wall_sequential = f64::INFINITY;
    let mut sim_seq = 0.0;
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        let out = one.install(|| plan.execute(&s.time, seed));
        let wall = t.elapsed().as_secs_f64();
        sim_seq = out.sim_time;
        if rep > 0 || reps == 1 {
            wall_sequential = wall_sequential.min(wall);
        }
    }

    let mut wall_parallel = f64::INFINITY;
    let mut phases = cusfft::HostPhaseWalls::default();
    let mut sim_par = 0.0;
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        let (out, walls) = plan.execute_profiled(&s.time, seed);
        let wall = t.elapsed().as_secs_f64();
        sim_par = out.sim_time;
        if (rep > 0 || reps == 1) && wall < wall_parallel {
            wall_parallel = wall;
            phases = walls;
        }
    }

    assert_eq!(
        sim_seq, sim_par,
        "modelled time must not depend on pool width"
    );

    HostParallelPoint {
        log2_n,
        k,
        pool_threads: rayon::current_num_threads(),
        wall_sequential,
        wall_parallel,
        phases,
        sim_time: sim_par,
    }
}

/// Sweeps the host-parallel benchmark over signal sizes.
pub fn host_parallel_bench(
    log2_range: impl Iterator<Item = u32>,
    k: usize,
    seed: u64,
    reps: usize,
) -> Vec<HostParallelPoint> {
    log2_range
        .map(|l| host_parallel_point(l, k, seed, reps))
        .collect()
}

/// Batched vs per-loop cuFFT (the Step-3 design choice).
pub fn batched_fft_ablation(b: usize, loops: usize) -> (f64, f64) {
    let device = GpuDevice::new(DeviceSpec::tesla_k20x());
    let batched = cufft_model_time(&device, b, loops);
    let separate = loops as f64 * cufft_model_time(&device, b, 1);
    (batched, separate)
}

/// One row of the serving-throughput experiment: a fixed batch served by
/// an engine with the given worker count.
#[derive(Debug, Clone, Copy)]
pub struct ServePoint {
    pub workers: usize,
    pub requests: usize,
    pub groups: usize,
    /// Simulated makespan of the merged multi-stream timeline.
    pub makespan: f64,
    /// Requests per simulated second.
    pub throughput: f64,
    pub max_concurrent_streams: usize,
    pub avg_concurrent_streams: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Builds the standard serving batch: `batch` requests alternating over
/// three geometries around `n = 2^log2_n` (so one batch exercises the
/// plan cache and populates several concurrent groups).
pub fn serve_requests(log2_n: u32, k: usize, batch: usize, seed: u64) -> Vec<cusfft::ServeRequest> {
    assert!(log2_n >= 10, "serve sweep wants n >= 2^10");
    let geometries = [
        (1usize << log2_n, k),
        (1usize << (log2_n - 1), k),
        (1usize << log2_n, (k / 2).max(2)),
    ];
    (0..batch)
        .map(|i| {
            let (n, k) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed ^ (i as u64) << 8);
            cusfft::ServeRequest::new(
                s.time,
                k,
                Variant::Optimized,
                seed.wrapping_mul(31).wrapping_add(i as u64),
            )
        })
        .collect()
}

/// Serves the same batch under each worker count with a fresh engine and
/// reports the merged-timeline throughput and cache/stream counters.
pub fn serve_sweep(
    log2_n: u32,
    k: usize,
    batch: usize,
    worker_counts: &[usize],
    seed: u64,
) -> Vec<ServePoint> {
    let requests = serve_requests(log2_n, k, batch, seed);
    worker_counts
        .iter()
        .map(|&workers| {
            let engine = cusfft::ServeEngine::new(
                DeviceSpec::tesla_k20x(),
                cusfft::ServeConfig {
                    workers,
                    cache_capacity: 8,
                    ..cusfft::ServeConfig::default()
                },
            )
            .expect("serve config is valid");
            let report = engine.serve_batch(&requests);
            ServePoint {
                workers,
                requests: requests.len(),
                groups: report.groups,
                makespan: report.makespan,
                throughput: report.throughput,
                max_concurrent_streams: report.concurrency.max_concurrent_streams,
                avg_concurrent_streams: report.concurrency.avg_concurrent_streams,
                cache_hits: report.cache.hits,
                cache_misses: report.cache.misses,
            }
        })
        .collect()
}

/// One row of the steady-state throughput experiment: the same batch
/// served through the allocation-free hot path with the remap flavour
/// pinned, plus the telemetry that justifies the tiling choice — the
/// layout-transform step's rolled-up modeled DRAM transactions and the
/// arena/`MemPool` traffic of the whole call.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Remap flavour label (`"direct"` or `"tiled"`).
    pub remap: &'static str,
    pub requests: usize,
    /// Simulated makespan of the merged multi-stream timeline.
    pub makespan: f64,
    /// Requests per simulated second.
    pub throughput: f64,
    /// Modeled DRAM transactions of the layout-transform step (the
    /// remap staging kernel plus the bucket execution kernel it feeds).
    pub perm_txns: f64,
    /// Modeled DRAM transactions over every kernel of the call.
    pub total_txns: f64,
    /// Tracked `MemPool` allocations — per-group warmup cost only; the
    /// steady state adds nothing (pinned by `tests/steady_state_alloc`).
    pub pool_alloc_ops: u64,
    /// Tracked `MemPool` releases (group-end arena resets).
    pub pool_release_ops: u64,
    /// Arena acquisitions satisfied from a free list.
    pub arena_reuse_hits: u64,
    /// Arena acquisitions that fell through to a fresh allocation.
    pub arena_fresh_misses: u64,
}

/// Serves the standard batch twice — direct remap, then tiled — through
/// engines whose GPU backend pins the flavour, and reads throughput,
/// transaction and pool counters off the reports' telemetry rollups.
/// Spectra are bit-identical between the two rows (pinned by
/// `tests/remap_differential`); only the modeled cost moves.
pub fn throughput_sweep(log2_n: u32, k: usize, batch: usize, seed: u64) -> Vec<ThroughputPoint> {
    use cusfft::{BackendRegistry, GpuSimBackend, RemapKind, SfftCpuBackend};

    let requests = serve_requests(log2_n, k, batch, seed);
    let step = ["remap", "remap_tiled", "exec", "exec_tiled"];
    [("direct", RemapKind::Direct), ("tiled", RemapKind::Tiled)]
        .iter()
        .map(|&(label, kind)| {
            let mut registry = BackendRegistry::empty();
            registry.register(Arc::new(GpuSimBackend { remap: Some(kind) }));
            registry.register(Arc::new(SfftCpuBackend));
            let engine = cusfft::ServeEngine::with_registry(
                DeviceSpec::tesla_k20x(),
                cusfft::ServeConfig {
                    workers: 2,
                    cache_capacity: 8,
                    ..cusfft::ServeConfig::default()
                },
                registry,
            )
            .expect("serve config is valid");
            let report = engine.serve_batch(&requests);
            let mut perm_txns = 0.0;
            let mut total_txns = 0.0;
            for kr in &report.kernels {
                total_txns += kr.transactions;
                if step.contains(&kr.name.as_str()) {
                    perm_txns += kr.transactions;
                }
            }
            ThroughputPoint {
                remap: label,
                requests: requests.len(),
                makespan: report.makespan,
                throughput: report.throughput,
                perm_txns,
                total_txns,
                pool_alloc_ops: report.pool.alloc_ops,
                pool_release_ops: report.pool.release_ops,
                arena_reuse_hits: report.pool.reuse_hits,
                arena_fresh_misses: report.pool.fresh_misses,
            }
        })
        .collect()
}

/// One row of the overload experiment: a paced trace at `offered_load`×
/// nominal capacity pushed through [`cusfft::ServeEngine::serve_overload`]
/// under a deterministic fault plan.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Offered load as a multiple of nominal capacity (1.0 = arrivals
    /// paced at exactly one nominal service time apart).
    pub offered_load: f64,
    pub requests: usize,
    pub admitted: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    /// Requests re-planned onto the degraded-accuracy tier at admission.
    pub degraded: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub breaker_trips: u64,
    pub breaker_short_circuits: u64,
    /// Detected silent corruptions (SDC residual-check hits).
    pub sdc_detected: u64,
    /// Fraction of arrivals shed at admission.
    pub shed_rate: f64,
    /// Fraction of arrivals rejected for unmeetable deadlines.
    pub deadline_miss_rate: f64,
    /// p50 simulated latency over completed requests (seconds).
    pub latency_p50: f64,
    /// p99 simulated latency over completed requests (seconds).
    pub latency_p99: f64,
    pub makespan: f64,
    /// Completed requests per simulated second.
    pub throughput: f64,
    /// Deterministic latency summary per (served path, QoS tier), from
    /// the telemetry histograms (quantiles are bucket upper bounds).
    pub path_latency: Vec<cusfft::PathLatency>,
}

/// Builds a timed trace from the standard serving batch: arrivals are
/// paced `nominal / offered_load` apart (so load 2.0 means requests
/// arrive twice as fast as the engine's nominal single-request service
/// time), and every fourth request carries a deadline of four nominal
/// service times — tight enough that a deep queue makes it unmeetable.
pub fn overload_trace(
    log2_n: u32,
    k: usize,
    batch: usize,
    seed: u64,
    offered_load: f64,
) -> Vec<cusfft::TimedRequest> {
    assert!(offered_load > 0.0, "offered load must be positive");
    let requests = serve_requests(log2_n, k, batch, seed);
    // Pacing unit: the admission controller's own service estimate for
    // the largest geometry in the batch. Using the same model the
    // virtual queue prices with makes "load 2.0" mean arrivals twice as
    // fast as the admission model believes the server drains.
    let spec = DeviceSpec::tesla_k20x();
    let nominal = cusfft::nominal_service(&spec, 1 << log2_n, k);
    let gap = nominal / offered_load;
    requests
        .into_iter()
        .enumerate()
        .map(|(i, req)| {
            let t = cusfft::TimedRequest::at(req, i as f64 * gap);
            if i % 4 == 3 {
                t.with_deadline(4.0 * nominal)
            } else {
                t
            }
        })
        .collect()
}

/// The overload policy the sweep and the CI smoke run share: a bounded
/// queue sized to half the batch, brownout at a quarter, default breaker
/// thresholds, and hedging pegged to 1.25× the *median* group duration —
/// the sweep only has a handful of geometry groups, so a p90 anchor
/// would degenerate to the max and never fire.
pub fn overload_policy(batch: usize) -> cusfft::OverloadConfig {
    cusfft::OverloadConfig {
        queue_capacity: (batch / 2).max(2),
        brownout_depth: (batch / 4).max(1),
        hedge_percentile: 0.5,
        hedge_factor: 1.25,
        ..cusfft::OverloadConfig::default()
    }
}

/// Serves a paced trace at each offered load with a fresh engine under a
/// low-rate uniform fault plan (with SDC enabled) and reports the
/// admission, hedging, breaker and latency outcomes.
pub fn overload_sweep(
    log2_n: u32,
    k: usize,
    batch: usize,
    loads: &[f64],
    seed: u64,
) -> Vec<OverloadPoint> {
    let policy = overload_policy(batch);
    loads
        .iter()
        .map(|&load| {
            let trace = overload_trace(log2_n, k, batch, seed, load);
            let engine = cusfft::ServeEngine::new(
                DeviceSpec::tesla_k20x(),
                cusfft::ServeConfig {
                    workers: 4,
                    cache_capacity: 8,
                    faults: Some(gpu_sim::FaultConfig::uniform(seed, 0.002).with_sdc(0.01)),
                    ..cusfft::ServeConfig::default()
                },
            )
            .expect("serve config is valid");
            let report = engine.serve_overload(&trace, &policy);
            let ov = report.overload;
            let n = trace.len() as f64;
            OverloadPoint {
                offered_load: load,
                requests: trace.len(),
                admitted: ov.admitted,
                shed: ov.shed,
                deadline_exceeded: ov.deadline_exceeded,
                degraded: ov.degraded,
                hedges: ov.hedges,
                hedge_wins: ov.hedge_wins,
                breaker_trips: ov.breaker_trips,
                breaker_short_circuits: ov.breaker_short_circuits,
                sdc_detected: report.faults.sdc_detected,
                shed_rate: ov.shed as f64 / n,
                deadline_miss_rate: ov.deadline_exceeded as f64 / n,
                latency_p50: report.latency.p50,
                latency_p99: report.latency.p99,
                makespan: report.makespan,
                throughput: report.throughput,
                path_latency: report.path_latency.clone(),
            }
        })
        .collect()
}

/// Breaker-vs-retry comparison on a persistently faulting device: the
/// same batch served by `serve_overload` (circuit breaker short-circuits
/// doomed groups straight to the CPU path) and by the PR-3
/// `serve_batch` (which retries every request through the full backoff
/// ladder first). Returns `(breaker_throughput, retry_throughput)` in
/// completed requests per simulated second — the breaker must win.
pub fn breaker_vs_retry(log2_n: u32, k: usize, batch: usize, seed: u64) -> (f64, f64) {
    // Distinct sparsities give every request its own plan key, hence its
    // own batch group — enough independent groups for the breaker's
    // sliding window to fill and trip.
    let n = 1usize << log2_n;
    let requests: Vec<cusfft::ServeRequest> = (0..batch)
        .map(|i| {
            let ki = (k / 2).max(2) + i;
            let s = SparseSignal::generate(n, ki, MagnitudeModel::Unit, seed ^ ((i as u64) << 8));
            cusfft::ServeRequest::new(
                s.time,
                ki,
                Variant::Optimized,
                seed.wrapping_mul(31).wrapping_add(i as u64),
            )
        })
        .collect();
    let trace: Vec<cusfft::TimedRequest> = requests
        .iter()
        .cloned()
        .map(|r| cusfft::TimedRequest::at(r, 0.0))
        .collect();
    let cfg = cusfft::ServeConfig {
        workers: 4,
        cache_capacity: batch.max(8),
        faults: Some(gpu_sim::FaultConfig::persistent(seed)),
        ..cusfft::ServeConfig::default()
    };
    let breaker =
        cusfft::ServeEngine::new(DeviceSpec::tesla_k20x(), cfg).expect("serve config is valid");
    let policy = cusfft::OverloadConfig {
        queue_capacity: batch.max(1),
        brownout_depth: batch.max(1),
        // Trip after two consecutive faulted groups and stay open for
        // the rest of the run — the point is to stop paying the doomed
        // retry ladder on every remaining group.
        breaker: gpu_sim::BreakerConfig {
            window: 2,
            trip_faults: 2,
            cooldown: 10 * batch,
        },
        epoch_groups: 2,
        ..cusfft::OverloadConfig::default()
    };
    let over = breaker.serve_overload(&trace, &policy);
    let retry =
        cusfft::ServeEngine::new(DeviceSpec::tesla_k20x(), cfg).expect("serve config is valid");
    let legacy = retry.serve_batch(&requests);
    (over.throughput, legacy.throughput)
}

/// One row of the backend comparison: the standard serving batch routed
/// wholesale through a single registered backend (DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct BackendPoint {
    pub backend: cusfft::BackendKind,
    /// Capability report straight from the registry.
    pub caps: cusfft::BackendCaps,
    pub requests: usize,
    pub groups: usize,
    /// Simulated makespan of the merged timeline (host-only backends
    /// still charge zero-cost host ops, so this is ~0 for them).
    pub makespan: f64,
    /// Admission-pricer estimate for one request of the lead geometry.
    pub est_service: f64,
    /// Mean per-coefficient ℓ1 distance from the dense-oracle spectra
    /// for the identical batch.
    pub l1_vs_oracle: f64,
    /// Mean recall of the oracle's support.
    pub oracle_recall: f64,
}

/// Serves the same batch once per registered backend and scores every
/// backend against the dense oracle's spectra. The registry is the only
/// source of backends — the sweep exercises exactly the serving-layer
/// selection path that `tests/backend_differential.rs` pins.
pub fn backend_sweep(log2_n: u32, k: usize, batch: usize, seed: u64) -> Vec<BackendPoint> {
    use cusfft::{BackendKind, BackendRegistry, ServeConfig, ServeEngine, ServeReport};

    let base = serve_requests(log2_n, k, batch, seed);
    let registry = BackendRegistry::with_defaults();
    let spec = DeviceSpec::tesla_k20x();
    let serve = |kind: BackendKind| -> ServeReport {
        let reqs: Vec<_> = base.iter().cloned().map(|r| r.with_backend(kind)).collect();
        ServeEngine::new(
            spec.clone(),
            ServeConfig {
                workers: 2,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        )
        .expect("serve config is valid")
        .serve_batch(&reqs)
    };

    let oracle = serve(BackendKind::DenseFft);
    let oracle_spectra: Vec<_> = oracle.responses().map(|r| r.recovered.clone()).collect();
    let model_dev = cusfft::backend::worker_device(&spec, None);
    let params = SfftParams::tuned(1 << log2_n, k);

    registry
        .kinds()
        .into_iter()
        .map(|kind| {
            let backend = registry.get(kind).expect("default registry is total");
            let report = if kind == BackendKind::DenseFft {
                oracle.clone()
            } else {
                serve(kind)
            };
            let mut l1 = 0.0;
            let mut recall = 0.0;
            for (resp, truth) in report.responses().zip(&oracle_spectra) {
                l1 += l1_error_per_coeff(truth, &resp.recovered);
                recall += support_recall(truth, &resp.recovered);
            }
            let count = oracle_spectra.len().max(1) as f64;
            BackendPoint {
                backend: kind,
                caps: backend.capabilities(),
                requests: base.len(),
                groups: report.groups,
                makespan: report.makespan,
                est_service: backend.estimate_cost(&model_dev, &spec, &params),
                l1_vs_oracle: l1 / count,
                oracle_recall: recall / count,
            }
        })
        .collect()
}

/// One row of the fleet serving experiment: a fleet topology/failure
/// scenario serving the standard batch, with the routing and failover
/// counters that explain the throughput it achieved.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Scenario label (`single`, `hetero-3`, `hetero-loss`, ...).
    pub scenario: &'static str,
    /// Fleet members.
    pub members: usize,
    /// Requests served.
    pub requests: usize,
    /// Requests that completed (fleet serving never sheds).
    pub completed: usize,
    /// Simulated makespan: the slowest member lane (or the CPU lane).
    pub makespan: f64,
    /// Requests per simulated second.
    pub throughput: f64,
    pub device_losses: u64,
    pub failovers: u64,
    pub standby_acquires: u64,
    pub cpu_served_groups: u64,
    pub brownout_groups: u64,
    pub drains: u64,
}

fn fleet_point(
    scenario: &'static str,
    fleet: cusfft::FleetConfig,
    requests: &[cusfft::ServeRequest],
) -> FleetPoint {
    let members = fleet.members.len();
    let fleet = cusfft::DeviceFleet::new(
        fleet,
        cusfft::ServeConfig {
            workers: 3,
            cache_capacity: 8,
            ..cusfft::ServeConfig::default()
        },
    )
    .expect("fleet config is valid");
    let report = fleet.serve(requests);
    let completed = report
        .outcomes
        .iter()
        .filter(|o| o.response().is_some())
        .count();
    FleetPoint {
        scenario,
        members,
        requests: requests.len(),
        completed,
        makespan: report.makespan,
        throughput: report.throughput,
        device_losses: report.fleet.device_losses,
        failovers: report.fleet.failovers,
        standby_acquires: report.fleet.standby_acquires,
        cpu_served_groups: report.fleet.cpu_served_groups,
        brownout_groups: report.fleet.brownout_groups,
        drains: report.fleet.drains,
    }
}

/// The fleet serving experiment: the same batch served by (a) one K20x,
/// (b) three K20x, (c) the heterogeneous K20x/K40/K2000 pool, (d) one
/// K20x under certain device loss (every group completes on the CPU
/// tier — the degraded floor a single-device deployment falls to), and
/// (e) the heterogeneous pool with that same loss targeted at the K20x
/// member (the survivors absorb its load through the standby slabs).
///
/// The robustness headline is (e) vs (d): serving *through* a device
/// failure with a fleet, against losing the only device.
pub fn fleet_sweep(log2_n: u32, k: usize, batch: usize, seed: u64) -> Vec<FleetPoint> {
    let requests = serve_requests(log2_n, k, batch, seed);
    let loss = gpu_sim::FaultConfig::uniform(seed, 0.0).with_device_loss(1.0);

    let mut single_lossy = cusfft::FleetConfig::homogeneous(1);
    single_lossy.members[0].faults = Some(loss);
    let mut hetero_lossy = cusfft::FleetConfig::heterogeneous();
    hetero_lossy.members[0].faults = Some(loss);

    vec![
        fleet_point("single", cusfft::FleetConfig::homogeneous(1), &requests),
        fleet_point("homo-3", cusfft::FleetConfig::homogeneous(3), &requests),
        fleet_point("hetero-3", cusfft::FleetConfig::heterogeneous(), &requests),
        fleet_point("single-loss", single_lossy, &requests),
        fleet_point("hetero-loss", hetero_lossy, &requests),
    ]
}

/// Outcome of one chaos exploration, shaped for the reproduction
/// harness: the sweep totals plus every minimized failing schedule as
/// replayable JSON (empty when all invariants held).
pub struct ChaosSweep {
    /// Schedules explored end-to-end.
    pub explored: usize,
    /// Individual invariant checks performed.
    pub invariants_checked: u64,
    /// Crash schedules that measured a recovery overhead.
    pub crash_runs: usize,
    /// Mean relative recovery overhead across crash runs.
    pub mean_recovery_overhead: f64,
    /// Worst relative recovery overhead.
    pub max_recovery_overhead: f64,
    /// `(invariant labels, minimal schedule JSON)` per violating run.
    pub violations: Vec<(Vec<String>, String)>,
}

/// Runs the chaos explorer over the smoke or full schedule space and
/// folds the result into a [`ChaosSweep`]. Deterministic end to end —
/// rerunning reproduces every counter bit-for-bit.
pub fn chaos_sweep(smoke: bool) -> ChaosSweep {
    let space = cusfft::chaos_space(smoke);
    let report = cusfft::explore(&space);
    ChaosSweep {
        explored: report.explored,
        invariants_checked: report.invariants_checked,
        crash_runs: report.crash_runs,
        mean_recovery_overhead: report.mean_recovery_overhead,
        max_recovery_overhead: report.max_recovery_overhead,
        violations: report
            .violations
            .iter()
            .map(|v| {
                (
                    v.violations.iter().map(|i| i.label().to_string()).collect(),
                    v.schedule.to_json(),
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_trace_paces_arrivals_and_deadlines() {
        let trace = overload_trace(10, 4, 8, 3, 2.0);
        assert_eq!(trace.len(), 8);
        assert!(trace.windows(2).all(|w| w[0].arrival < w[1].arrival));
        // Doubling the load halves the inter-arrival gap.
        let slow = overload_trace(10, 4, 8, 3, 1.0);
        let gap = |t: &[cusfft::TimedRequest]| t[1].arrival - t[0].arrival;
        assert!((gap(&slow) - 2.0 * gap(&trace)).abs() < 1e-12);
        // Every fourth request carries the deadline, nobody else does.
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(t.deadline.is_some(), i % 4 == 3, "request {i}");
        }
    }

    #[test]
    fn breaker_vs_retry_breaker_wins() {
        let (breaker, retry) = breaker_vs_retry(10, 4, 6, 5);
        assert!(
            breaker > retry,
            "breaker {breaker} must beat retry-every-request {retry}"
        );
    }

    #[test]
    fn runtime_point_is_consistent() {
        let p = runtime_point(12, 8, 3);
        assert!(p.cusfft_base > 0.0 && p.cusfft_opt > 0.0 && p.cufft > 0.0);
        assert!(p.psfft_wall > 0.0 && p.fftw_wall > 0.0);
        assert!(p.l1_opt < 1e-3, "l1 {}", p.l1_opt);
        assert!(p.recall_opt > 0.99);
        assert!(p.speedup_over_cufft().1 > 0.0);
    }

    #[test]
    fn fig2_profile_rows() {
        let rows = fig2a(10..=11, 4, 1);
        assert_eq!(rows.len(), 2);
        for r in rows {
            let sum: f64 = r.timings.shares().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn filter_ablation_ordering() {
        let a = filter_ablation(14, 16, 2);
        assert!(
            a.async_layout < a.partition,
            "async {:.3e} < partition {:.3e}",
            a.async_layout,
            a.partition
        );
        assert!(a.atomic > 0.0);
    }

    #[test]
    fn selection_ablation_ordering() {
        let s = selection_ablation(1 << 13, 32, 5);
        assert!(s.fast < s.sort, "fast {:.2e} < sort {:.2e}", s.fast, s.sort);
        assert!(s.bucket_passes >= 1);
    }

    #[test]
    fn batched_fft_wins() {
        let (batched, separate) = batched_fft_ablation(4096, 16);
        assert!(batched < separate);
    }

    #[test]
    fn noise_sweep_degrades_gracefully() {
        let pts = noise_sweep(12, 8, &[60.0, 20.0], 3);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].recall > 0.99, "clean-ish signal fully recovered");
        assert!(pts[0].l1 < pts[1].l1 * 10.0, "error grows with noise");
    }

    #[test]
    fn device_sweep_orders_devices() {
        let rows = device_sweep(13, 16, 1);
        assert_eq!(rows.len(), 2);
        let k20x = rows.iter().find(|(n, _)| n.contains("K20x")).unwrap().1;
        let k40 = rows.iter().find(|(n, _)| n.contains("K40")).unwrap().1;
        assert!(k40 < k20x);
    }

    #[test]
    fn backend_sweep_scores_all_backends_against_the_oracle() {
        let rows = backend_sweep(10, 4, 6, 11);
        assert_eq!(rows.len(), 3, "one row per registered backend");
        for p in &rows {
            assert_eq!(p.caps.kind, p.backend);
            assert_eq!(p.requests, 6);
            assert!(
                p.est_service > 0.0,
                "{}: pricer yields real time",
                p.backend.label()
            );
            assert!(
                p.l1_vs_oracle <= p.caps.oracle_bound,
                "{}: ℓ1 {} within documented bound {}",
                p.backend.label(),
                p.l1_vs_oracle,
                p.caps.oracle_bound
            );
            assert!(
                p.oracle_recall > 0.99,
                "{}: clean batch fully recovered",
                p.backend.label()
            );
        }
        let dense = rows
            .iter()
            .find(|p| p.backend == cusfft::BackendKind::DenseFft)
            .unwrap();
        assert_eq!(dense.l1_vs_oracle, 0.0, "the oracle matches itself exactly");
        let gpu = rows
            .iter()
            .find(|p| p.backend == cusfft::BackendKind::GpuSim)
            .unwrap();
        assert!(gpu.makespan > 0.0, "device backend occupies simulated time");
    }

    #[test]
    fn comb_ablation_reduces_hits() {
        let a = comb_ablation(14, 16, 9);
        assert!(a.v2_hits <= a.v1_hits + 16);
        assert!(a.residues_kept > 0);
        assert!(a.v1_wall > 0.0 && a.v2_wall > 0.0);
    }
}
