//! The full cusFFT pipeline on the simulated device.
//!
//! Orchestration follows the paper (Section IV):
//!
//! 1. copy the signal to the device once (PCIe charged);
//! 2. run permutation+filter+bin for every loop — baseline loop-partition
//!    kernels, or the async remap/exec pipeline in the optimized variant;
//! 3. one *batched* cuFFT per bucket geometry ("compute cuFFT only once");
//! 4. per location loop: magnitude kernel, cutoff (Thrust sort&select or
//!    fast k-selection), and the location-voting kernel;
//! 5. one reconstruction kernel over the hits; copy the sparse result
//!    back.
//!
//! Filters (taps + banded frequency responses) are uploaded at plan
//! construction and excluded from the timed region, matching the paper's
//! methodology (filters depend only on `(n, k)` and are precomputed, as
//! in the MIT reference and FFTW's plan/execute split).

use std::sync::Arc;

use fft::cplx::{Cplx, ZERO};
use gpu_sim::{DeviceBuffer, GpuDevice, PooledBuffer, StreamId, DEFAULT_STREAM};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfft_cpu::{Permutation, SfftParams};
use signal::Recovered;

use crate::arena::ExecArena;
use crate::cufft::batched_fft_rows;
use crate::cutoff::{
    fast_select_device, magnitudes_device_pooled, noise_threshold_device, sort_select_device,
};
use crate::error::CusFftError;
use crate::locate::{locate_device, LocateState};
use crate::perm_filter::{
    choose_remap, perm_filter_async_opts, perm_filter_partition, staging_lens, RemapChoice,
    RemapKind,
};
use crate::reconstruct::{reconstruct_device_pooled, LoopMeta, SideGeometry};
use crate::report::StepBreakdown;

/// Which implementation tier to run (the two curves of Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Section IV: loop-partition filter kernel + Thrust sort&select.
    Baseline,
    /// Section V: async data-layout transformation + fast k-selection.
    Optimized,
}

/// Result of one cusFFT execution.
#[derive(Debug, Clone)]
pub struct CusFftOutput {
    /// Recovered `(frequency, coefficient)` pairs, sorted by frequency.
    pub recovered: Recovered,
    /// Simulated device time for the pipeline with the input already
    /// device-resident (the GPU-vs-GPU comparison of Figure 5(a)-(c);
    /// cuFFT is timed under the same convention).
    pub sim_time: f64,
    /// PCIe time to ship the input signal to the device — added to
    /// `sim_time` for GPU-vs-CPU comparisons (Figure 5(d)-(e), where the
    /// paper notes the transfer "offsets the performance gains").
    pub input_transfer: f64,
    /// Per-step breakdown of the simulated time.
    pub steps: StepBreakdown,
    /// Number of located frequencies before estimation.
    pub num_hits: usize,
}

impl CusFftOutput {
    /// Simulated end-to-end time including the input transfer.
    pub fn sim_time_with_transfer(&self) -> f64 {
        self.sim_time + self.input_transfer
    }
}

/// Host wall-clock seconds per phase of one [`CusFft::execute_profiled`]
/// run. This is the *host execution engine* view (how long the pool took
/// to functionally execute each phase); the simulated-device view of the
/// same run is [`StepBreakdown`]. The split follows the serving layer's
/// phase boundaries: front half (perm+filter+bin), batched cuFFT, back
/// half (cutoff+locate+estimate).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostPhaseWalls {
    /// Front half: comb mask, permutations, filter+bin kernels.
    pub prepare: f64,
    /// Batched subsampled FFTs.
    pub batched_fft: f64,
    /// Back half: cutoff, location, reconstruction.
    pub finish: f64,
}

impl HostPhaseWalls {
    /// Total host wall seconds across the three phases.
    pub fn total(&self) -> f64 {
        self.prepare + self.batched_fft + self.finish
    }
}

/// A reusable cusFFT plan: device-resident filters plus launch settings.
pub struct CusFft {
    device: Arc<GpuDevice>,
    params: Arc<SfftParams>,
    variant: Variant,
    taps_loc: DeviceBuffer<Cplx>,
    w_pad_loc: usize,
    taps_est: DeviceBuffer<Cplx>,
    w_pad_est: usize,
    band_loc: DeviceBuffer<Cplx>,
    band_est: DeviceBuffer<Cplx>,
    /// Streams used by the async layout transformation.
    num_streams: usize,
    /// Fast-selection threshold factor over the sampled noise floor.
    select_factor: f64,
    /// Optional sFFT-v2 comb pre-filter.
    comb: Option<sfft_cpu::CombParams>,
    /// Transaction-priced remap flavour per filter geometry (location /
    /// estimation side), chosen at plan build.
    remap_loc: RemapChoice,
    remap_est: RemapChoice,
}

/// The set of simulated streams one execution enqueues on: `main` carries
/// the serial backbone (filters, cuFFT, cutoff, locate, reconstruct) and
/// `aux` feeds the async layout transformation. Created once per worker in
/// the serving layer so that consecutive requests on the same worker reuse
/// the same stream ids (fresh ids per request would fake concurrency the
/// hardware does not have).
pub struct ExecStreams {
    /// Backbone stream (the default stream in the single-shot path).
    pub main: StreamId,
    /// Auxiliary streams for `perm_filter_async`.
    pub aux: Vec<StreamId>,
    /// Per-worker buffer pools every request on these streams draws its
    /// device scratch from (see [`crate::arena::ExecArena`]). The serving
    /// layer resets it at group boundaries for determinism.
    pub arena: ExecArena,
}

impl ExecStreams {
    /// Creates `num_aux` fresh auxiliary streams on `device`, with the
    /// device's default stream as the backbone.
    pub fn on_device(device: &GpuDevice, num_aux: usize) -> Self {
        ExecStreams {
            main: DEFAULT_STREAM,
            aux: (0..num_aux).map(|_| device.create_stream()).collect(),
            arena: ExecArena::new(),
        }
    }

    /// Same, but with a dedicated (non-default) backbone stream — used by
    /// serve workers so each worker's ops land on its own stream family.
    pub fn on_device_private(device: &GpuDevice, num_aux: usize) -> Self {
        ExecStreams {
            main: device.create_stream(),
            aux: (0..num_aux).map(|_| device.create_stream()).collect(),
            arena: ExecArena::new(),
        }
    }
}

/// Per-request state between `CusFft::prepare` and `CusFft::finish`:
/// the filtered bucket buffers awaiting their (possibly batched-across-
/// requests) cuFFT, plus the permutations and comb mask the back half
/// needs.
pub struct PreparedRequest {
    pub(crate) bucket_bufs: Vec<PooledBuffer<Cplx>>,
    pub(crate) perms: Vec<Permutation>,
    pub(crate) mask_buf: Option<PooledBuffer<u8>>,
    /// Sampled time-domain checkpoints `(t_j, x[t_j])` for the result-
    /// integrity check in [`CusFft::finish`] — captured from the host
    /// shadow of the input signal at deterministic seed-derived
    /// positions (no device ops).
    pub(crate) samples: Vec<(usize, Cplx)>,
}

/// Output of [`CusFft::finish_compute`]: the located hits and their
/// reconstructed values, still awaiting their D2H transfers (which the
/// serving layer may aggregate across a whole batch group).
pub(crate) struct ComputedRequest {
    /// Located frequencies, sorted.
    pub(crate) hits: Vec<usize>,
    /// The hits already device-resident (the reconstruction kernel's
    /// input), reused for the result transfer.
    pub(crate) hits_buf: DeviceBuffer<u32>,
    /// Reconstructed coefficients aligned with `hits` (host shadow; the
    /// device copy is transferred by the caller).
    pub(crate) vals: Vec<Cplx>,
}

impl CusFft {
    /// Builds a plan on `device` for the given parameters and variant.
    pub fn new(device: Arc<GpuDevice>, params: Arc<SfftParams>, variant: Variant) -> Self {
        let (taps_loc, w_pad_loc) = padded_taps(&params.filter_loc, params.b_loc);
        let (taps_est, w_pad_est) = padded_taps(&params.filter_est, params.b_est);
        let band_loc = band_buffer(&params.filter_loc);
        let band_est = band_buffer(&params.filter_est);
        let remap_loc = choose_remap(device.spec(), w_pad_loc, params.b_loc);
        let remap_est = choose_remap(device.spec(), w_pad_est, params.b_est);
        CusFft {
            device,
            params,
            variant,
            taps_loc,
            w_pad_loc,
            taps_est,
            w_pad_est,
            band_loc,
            band_est,
            num_streams: 8,
            select_factor: 16.0,
            comb: None,
            remap_loc,
            remap_est,
        }
    }

    /// Overrides the transaction-priced remap selection on both filter
    /// geometries — used by differential tests and benchmarks to pin the
    /// async layout pass to one flavour.
    pub fn with_remap(mut self, kind: RemapKind) -> Self {
        self.remap_loc.kind = kind;
        self.remap_est.kind = kind;
        self
    }

    /// Enables the sFFT-v2 comb pre-filter: a few aliased subsampled FFTs
    /// restrict location candidates to `O(k)` residue classes, starving
    /// spurious votes (see `sfft_cpu::comb`).
    pub fn with_comb(mut self, comb: sfft_cpu::CombParams) -> Self {
        assert_eq!(
            self.params.n % comb.comb_size,
            0,
            "comb size must divide n"
        );
        self.comb = Some(comb);
        self
    }

    /// The device this plan runs on.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// The plan's parameters.
    pub fn params(&self) -> &SfftParams {
        &self.params
    }

    /// The implementation tier.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Runs the sparse FFT on `time`, returning the sparse spectrum and
    /// the simulated device timing. Deterministic per `(plan, time, seed)`
    /// (the seed drives the permutations, consumed in the same order as
    /// the CPU reference implementations).
    pub fn execute(&self, time: &[Cplx], seed: u64) -> CusFftOutput {
        self.execute_profiled(time, seed).0
    }

    /// Fallible [`CusFft::execute`]: returns a typed error instead of
    /// panicking on malformed input or an injected device fault. On a
    /// fault-free device within capacity it never fails.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_execute(&self, time: &[Cplx], seed: u64) -> Result<CusFftOutput, CusFftError> {
        self.try_execute_profiled(time, seed).map(|(out, _)| out)
    }

    /// Like [`CusFft::execute`], additionally reporting *host* wall-clock
    /// seconds per pipeline phase — the host-execution-engine view used
    /// by the `hostperf` benchmark. The returned output is bit-identical
    /// to [`CusFft::execute`] (profiling only reads the host clock).
    pub fn execute_profiled(&self, time: &[Cplx], seed: u64) -> (CusFftOutput, HostPhaseWalls) {
        assert_eq!(time.len(), self.params.n, "signal length must match params.n");
        self.try_execute_profiled(time, seed)
            .expect("execute on a fault-free device within capacity")
    }

    /// Fallible [`CusFft::execute_profiled`].
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_execute_profiled(
        &self,
        time: &[Cplx],
        seed: u64,
    ) -> Result<(CusFftOutput, HostPhaseWalls), CusFftError> {
        let p = &*self.params;
        if time.len() != p.n {
            return Err(CusFftError::BadRequest {
                reason: format!("signal length {} must match params.n {}", time.len(), p.n),
            });
        }
        let device = &*self.device;
        device.reset_clock();

        // The input is device-resident for the timed region; its PCIe cost
        // is reported separately (see `CusFftOutput::input_transfer`).
        let signal = DeviceBuffer::from_host(time);
        let input_transfer = gpu_sim::transfer_time(device.spec(), signal.size_bytes());
        let streams = ExecStreams::on_device(device, self.num_streams);

        let t0 = std::time::Instant::now();
        let mut prep = self.prepare(device, &signal, seed, &streams)?;
        let t1 = std::time::Instant::now();
        self.run_batched_ffts(device, &mut [&mut prep], streams.main)?;
        let t2 = std::time::Instant::now();
        let (recovered, num_hits) = self.finish(device, &prep, &streams)?;
        let t3 = std::time::Instant::now();

        let sim_time = device.elapsed();
        let steps = StepBreakdown::from_records(&device.records());
        let output = CusFftOutput {
            recovered,
            sim_time,
            input_transfer,
            steps,
            num_hits,
        };
        let walls = HostPhaseWalls {
            prepare: (t1 - t0).as_secs_f64(),
            batched_fft: (t2 - t1).as_secs_f64(),
            finish: (t3 - t2).as_secs_f64(),
        };
        Ok((output, walls))
    }

    /// Front half of the pipeline (steps 1-2): comb mask, permutations,
    /// and the permutation+filter+bin loops. Returns the filtered bucket
    /// buffers awaiting their cuFFT. `device` need not be the plan's own
    /// device — the serving layer runs a shared plan on per-worker devices
    /// (the plan's filter buffers are device-agnostic host-backed arrays).
    ///
    /// Fails with a typed error on an injected device fault or memory
    /// exhaustion; nothing executed so far escapes (the partial buffers
    /// are dropped, releasing their reservations).
    pub(crate) fn prepare(
        &self,
        device: &GpuDevice,
        signal: &DeviceBuffer<Cplx>,
        seed: u64,
        streams: &ExecStreams,
    ) -> Result<PreparedRequest, CusFftError> {
        let p = &*self.params;
        let n = p.n;
        if signal.len() != n {
            return Err(CusFftError::BadRequest {
                reason: format!("signal length {} must match params.n {}", signal.len(), n),
            });
        }
        let stream0 = streams.main;

        // Optional comb pre-filter (sFFT v2): compute the residue mask
        // first, on the device. It consumes the RNG ahead of the
        // permutations — the same stream discipline as `sfft_cpu::v2`.
        let mut rng = StdRng::seed_from_u64(seed);
        let mask_buf: Option<PooledBuffer<u8>> = match self.comb.as_ref() {
            Some(comb) => {
                let mask =
                    crate::comb::comb_mask_device(device, signal, n, p.k, comb, &mut rng, stream0)?;
                let bytes: Vec<u8> = mask.into_iter().map(u8::from).collect();
                Some(device.try_resident_pooled(&streams.arena.bytes, &bytes, stream0)?)
            }
            None => None,
        };
        let perms: Vec<Permutation> = (0..p.loops_total())
            .map(|_| Permutation::random(&mut rng, n, p.random_tau))
            .collect();

        // Steps 1-2: permutation + filtering for every loop. Every scratch
        // buffer comes from the worker's arena — in steady state (same
        // request shape as a prior one on this worker since the last
        // arena reset) these are free-list hits with no MemPool traffic.
        let mut bucket_bufs: Vec<PooledBuffer<Cplx>> = Vec::with_capacity(p.loops_total());
        for (r, perm) in perms.iter().enumerate() {
            let is_loc = r < p.loops_loc;
            let (b, taps, w_pad, w, remap) = if is_loc {
                (
                    p.b_loc,
                    &self.taps_loc,
                    self.w_pad_loc,
                    p.filter_loc.width(),
                    self.remap_loc.kind,
                )
            } else {
                (
                    p.b_est,
                    &self.taps_est,
                    self.w_pad_est,
                    p.filter_est.width(),
                    self.remap_est.kind,
                )
            };
            let mut out = device.try_alloc_zeroed_pooled(&streams.arena.cplx, b, stream0)?;
            match self.variant {
                Variant::Baseline => perm_filter_partition(
                    device, signal, taps, w_pad, w, b, perm, &mut out, stream0,
                )?,
                Variant::Optimized => perm_filter_async_opts(
                    device,
                    signal,
                    taps,
                    w_pad,
                    w,
                    b,
                    perm,
                    &mut out,
                    &streams.aux,
                    stream0,
                    remap,
                    Some(&streams.arena.cplx),
                )?,
            }
            bucket_bufs.push(out);
        }

        Ok(PreparedRequest {
            bucket_bufs,
            perms,
            mask_buf,
            samples: residual_samples(signal, seed),
        })
    }

    /// Step 3: the batched cuFFT calls — one per bucket geometry — over
    /// *all* prepared requests in `group`. With a single request this is
    /// exactly the two launches of the single-shot path; the serving layer
    /// passes every same-plan request in a batch so their subsampled FFTs
    /// ride in one cuFFT launch per side ("compute cuFFT only once",
    /// amortised across requests as well as loops).
    /// Fails with a typed error on an injected launch fault, in which
    /// case no row in the failing batch was transformed (retry-safe). A
    /// failure on the estimation batch after the location batch succeeded
    /// leaves the group half-transformed — the serving layer treats any
    /// batched-FFT failure as failing the *whole group attempt* and
    /// re-prepares survivors from scratch, so the asymmetry never leaks.
    pub(crate) fn run_batched_ffts(
        &self,
        device: &GpuDevice,
        group: &mut [&mut PreparedRequest],
        stream: StreamId,
    ) -> Result<(), CusFftError> {
        let p = &*self.params;
        let mut loc_rows: Vec<&mut DeviceBuffer<Cplx>> = Vec::new();
        let mut est_rows: Vec<&mut DeviceBuffer<Cplx>> = Vec::new();
        for prep in group.iter_mut() {
            let (loc, est) = prep.bucket_bufs.split_at_mut(p.loops_loc);
            loc_rows.extend(loc.iter_mut().map(|p| &mut **p));
            est_rows.extend(est.iter_mut().map(|p| &mut **p));
        }
        batched_fft_rows(device, &mut loc_rows, p.b_loc, stream, "cufft_batched_loc")?;
        batched_fft_rows(device, &mut est_rows, p.b_est, stream, "cufft_batched_est")?;
        Ok(())
    }

    /// Back half of the pipeline (steps 4-6): cutoff + location voting per
    /// location loop, reconstruction over the hits, and the result
    /// transfers. Returns the sorted sparse spectrum and the hit count.
    pub(crate) fn finish(
        &self,
        device: &GpuDevice,
        prep: &PreparedRequest,
        streams: &ExecStreams,
    ) -> Result<(Recovered, usize), CusFftError> {
        let fc = self.finish_compute(device, prep, streams)?;
        // Copy the sparse result back (2 small transfers).
        let vals_buf = DeviceBuffer::from_host(&fc.vals);
        let _ = device.try_dtoh(&fc.hits_buf, streams.main)?;
        let vals_host = device.try_dtoh(&vals_buf, streams.main)?;
        self.finish_resolve(device, prep, &fc.hits, vals_host)
    }

    /// Device-compute portion of [`CusFft::finish`]: cutoff + location
    /// voting per location loop and the reconstruction kernel, stopping
    /// *before* the result transfers. The serving layer runs this per
    /// request and then aggregates the D2H transfers of a whole batch
    /// group into two copies (see `ExecutePlan::finish_group`).
    pub(crate) fn finish_compute(
        &self,
        device: &GpuDevice,
        prep: &PreparedRequest,
        streams: &ExecStreams,
    ) -> Result<ComputedRequest, CusFftError> {
        let p = &*self.params;
        let n = p.n;
        let stream0 = streams.main;
        let bucket_bufs = &prep.bucket_bufs;
        let perms = &prep.perms;

        // Steps 4-5: cutoff + location voting per location loop. The
        // selection scratch vector is reused across loops.
        let state = LocateState::new(n, n);
        let mut sel_host: Vec<u32> = Vec::new();
        for r in 0..p.loops_loc {
            let mags =
                magnitudes_device_pooled(device, &streams.arena.f64s, &bucket_bufs[r], stream0)?;
            let selected: Vec<usize> = match self.variant {
                Variant::Baseline => {
                    sort_select_device(device, &mags, p.num_candidates, stream0)?
                }
                Variant::Optimized => {
                    let noise =
                        noise_threshold_device(device, &mags, self.select_factor, stream0)?;
                    // Guard against an all-zero noise floor (synthetic
                    // noiseless inputs): never select below peak·1e-12.
                    let peak = mags.as_slice().iter().copied().fold(0.0, f64::max);
                    let thr = noise.max(peak * 1e-12);
                    fast_select_device(device, &mags, thr, stream0)?
                }
            };
            sel_host.clear();
            sel_host.extend(selected.iter().map(|&i| i as u32));
            let sel_buf = DeviceBuffer::from_host(&sel_host);
            match &prep.mask_buf {
                Some(mask) => crate::locate::locate_masked_device(
                    device,
                    &sel_buf,
                    &perms[r],
                    p.b_loc,
                    p.loops_thresh,
                    &state,
                    mask,
                    stream0,
                )?,
                None => locate_device(
                    device,
                    &sel_buf,
                    &perms[r],
                    p.b_loc,
                    p.loops_thresh,
                    &state,
                    stream0,
                )?,
            }
        }
        let hits = state.hits_sorted();

        // Step 6: magnitude reconstruction.
        let metas: Vec<LoopMeta> = perms
            .iter()
            .enumerate()
            .map(|(r, perm)| LoopMeta {
                a: perm.a,
                ai: perm.ai,
                tau: perm.tau,
                is_loc: r < p.loops_loc,
            })
            .collect();
        let loc_geo = SideGeometry {
            b: p.b_loc,
            band: &self.band_loc,
            half: p.filter_loc.half_band(),
        };
        let est_geo = SideGeometry {
            b: p.b_est,
            band: &self.band_est,
            half: p.filter_est.half_band(),
        };
        let hits_host: Vec<u32> = hits.iter().map(|&h| h as u32).collect();
        let hits_buf = DeviceBuffer::from_host(&hits_host);
        let vals = reconstruct_device_pooled(
            device,
            &streams.arena.cplx,
            &hits_buf,
            &metas,
            bucket_bufs,
            &loc_geo,
            &est_geo,
            n,
            stream0,
        )?;

        Ok(ComputedRequest {
            hits,
            hits_buf,
            vals,
        })
    }

    /// Host-side tail of [`CusFft::finish`], run after the result
    /// transfers (however they were batched): pairs hits with their
    /// transferred values, sorts by frequency, and applies the gated
    /// result-integrity check.
    pub(crate) fn finish_resolve(
        &self,
        device: &GpuDevice,
        prep: &PreparedRequest,
        hits: &[usize],
        vals_host: Vec<Cplx>,
    ) -> Result<(Recovered, usize), CusFftError> {
        let p = &*self.params;
        let mut recovered: Recovered = hits
            .iter()
            .zip(vals_host)
            .map(|(&f, v)| (f, v))
            .collect();
        recovered.sort_unstable_by_key(|&(f, _)| f);

        // Result-integrity check, gated so fault-free timelines stay
        // bit-identical: only a fault plan that can silently corrupt
        // payloads makes the (host-side, op-free) residual test run.
        if device.sdc_checks_enabled() {
            verify_residual(p, &prep.samples, &recovered)?;
        }

        Ok((recovered, hits.len()))
    }

    /// Auxiliary streams the async layout transformation wants.
    pub(crate) fn num_streams(&self) -> usize {
        self.num_streams
    }

    /// Pre-sizes the arena for `group_size` same-shape requests by
    /// acquiring (then parking) every pool shape they will need:
    /// request-lifetime buffers (signal, comb mask, bucket rows) are held
    /// simultaneously ×`group_size`; transient scratch (async staging
    /// chunks, magnitude vectors) is recycled within a request, so one
    /// set suffices. After a successful warm, per-request acquisitions
    /// are free-list hits — zero `MemPool` traffic, no allocation fault
    /// gates. The reconstruction values buffer is content-dependent (hit
    /// count) and warms on the first real request instead. Timeline-
    /// invisible on a fault-free device (successful allocations record
    /// no ops); under fault injection the fresh allocations here roll
    /// the usual alloc gates.
    pub(crate) fn warm_arena(
        &self,
        device: &GpuDevice,
        streams: &ExecStreams,
        group_size: usize,
    ) -> Result<(), CusFftError> {
        let p = &*self.params;
        let main = streams.main;
        let arena = &streams.arena;
        let mut held: Vec<PooledBuffer<Cplx>> = Vec::new();
        let mut held_bytes: Vec<PooledBuffer<u8>> = Vec::new();
        for _ in 0..group_size {
            held.push(device.try_alloc_zeroed_pooled(&arena.cplx, p.n, main)?);
            if let Some(comb) = self.comb.as_ref() {
                held_bytes.push(device.try_alloc_zeroed_pooled(
                    &arena.bytes,
                    comb.comb_size,
                    main,
                )?);
            }
            for r in 0..p.loops_total() {
                let b = if r < p.loops_loc { p.b_loc } else { p.b_est };
                held.push(device.try_alloc_zeroed_pooled(&arena.cplx, b, main)?);
            }
        }
        if self.variant == Variant::Optimized {
            for (w_pad, b) in [(self.w_pad_loc, p.b_loc), (self.w_pad_est, p.b_est)] {
                let mut set: Vec<PooledBuffer<Cplx>> = Vec::new();
                for len in staging_lens(device.spec(), w_pad, b) {
                    set.push(device.try_alloc_zeroed_pooled(&arena.cplx, len, main)?);
                }
            }
        }
        if p.loops_loc > 0 {
            let _mags = device.try_alloc_zeroed_pooled(&arena.f64s, p.b_loc, main)?;
        }
        Ok(())
    }
}

// The serving layer shares one plan across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CusFft>();
};

/// Pads filter taps to a multiple of `b` and uploads them.
fn padded_taps(filter: &filters::FlatFilter, b: usize) -> (DeviceBuffer<Cplx>, usize) {
    let w = filter.width();
    let w_pad = w.div_ceil(b) * b;
    let mut taps = filter.taps().to_vec();
    taps.resize(w_pad, ZERO);
    (DeviceBuffer::from_host(&taps), w_pad)
}

/// Uploads a filter's banded frequency response
/// (`band[off + half] = Ĝ(off)`).
fn band_buffer(filter: &filters::FlatFilter) -> DeviceBuffer<Cplx> {
    let half = filter.half_band() as i64;
    let host: Vec<Cplx> = (-half..=half).map(|o| filter.freq_at(o)).collect();
    DeviceBuffer::from_host(&host)
}

/// Number of time-domain checkpoints the integrity check samples.
const RESIDUAL_SAMPLES: usize = 8;

/// splitmix64, for seed-derived sample positions (matching the idiom of
/// `gpu_sim::fault` — no RNG state to thread through).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Picks the checkpoint positions for a request: a pure function of the
/// request seed, read from the signal's host shadow (no device ops, so
/// timelines are unchanged whether or not the check later runs).
fn residual_samples(signal: &DeviceBuffer<Cplx>, seed: u64) -> Vec<(usize, Cplx)> {
    let n = signal.len();
    let data = signal.as_slice();
    (0..RESIDUAL_SAMPLES)
        .map(|j| {
            let t = (mix64(seed ^ 0x5244_4348_4b00 ^ ((j as u64) << 48)) as usize) % n;
            (t, data[t])
        })
        .collect()
}

/// Detection threshold of the residual check for a problem shape.
///
/// A legitimate recovery reproduces each sampled `x(t_j)` to within
/// roughly `k · tol_est / n` (per-coefficient estimation error ~`tol_est`,
/// `k` coefficients, the inverse transform's `1/n`). A high-bit flip of
/// a recovered coefficient `v` shifts *every* sample by `≥ ~|v|/2n` —
/// for the O(1)-magnitude coefficients sFFT targets, orders of magnitude
/// above this threshold (set 100× above the legitimate error floor).
/// The false-negative corner: a flip that *shrinks* an already-spurious
/// coefficient tinier than `k·1e-6` stays under the threshold — but then
/// the served spectrum is within `tolerance · n` of the fault-free one
/// per coefficient, i.e. not meaningfully wrong (bound pinned by
/// `tests/serve_overload.rs`).
pub fn residual_tolerance(p: &SfftParams) -> f64 {
    (p.k as f64) * 1e-6 / (p.n as f64)
}

/// The sampled residual check: reconstructs `ŷ(t_j) = (1/n) Σ_f v_f
/// e^{+2πi f t_j / n}` from the recovered spectrum at each checkpoint
/// and compares against the stored input samples. O(samples · k) host
/// work — the "cheap verification" of Hassanieh et al., checking a
/// handful of points instead of the full inverse transform. NaN-safe:
/// a NaN residual (corruption drove a coefficient to NaN/Inf) fails the
/// `residual <= tolerance` test and is treated as detected.
fn verify_residual(
    p: &SfftParams,
    samples: &[(usize, Cplx)],
    recovered: &Recovered,
) -> Result<(), CusFftError> {
    let n = p.n as f64;
    let tolerance = residual_tolerance(p);
    let mut residual = 0.0_f64;
    for &(t, x) in samples {
        let mut y = ZERO;
        for &(f, v) in recovered.iter() {
            let theta = std::f64::consts::TAU * (f as f64) * (t as f64) / n;
            y += v * Cplx::cis(theta);
        }
        let err = x.dist(y.unscale(n));
        // NaN is sticky: once a checkpoint reconstructs to NaN the
        // residual stays NaN and fails the final comparison.
        if err.is_nan() || err > residual {
            residual = err;
        }
    }
    if residual.is_nan() || residual > tolerance {
        Err(CusFftError::SilentCorruption {
            residual,
            tolerance,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use signal::{l1_error_per_coeff, support_recall, MagnitudeModel, SparseSignal};

    fn make(variant: Variant, n: usize, k: usize) -> (CusFft, SparseSignal) {
        let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
        let params = Arc::new(SfftParams::tuned(n, k));
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 31);
        (CusFft::new(device, params, variant), s)
    }

    #[test]
    fn baseline_recovers_sparse_spectrum() {
        let (plan, s) = make(Variant::Baseline, 1 << 12, 8);
        let out = plan.execute(&s.time, 5);
        assert!(support_recall(&s.coords, &out.recovered) > 0.99);
        assert!(l1_error_per_coeff(&s.coords, &out.recovered) < 1e-3);
        assert!(out.sim_time > 0.0);
        assert!(out.num_hits >= 8);
    }

    #[test]
    fn optimized_recovers_sparse_spectrum() {
        let (plan, s) = make(Variant::Optimized, 1 << 12, 8);
        let out = plan.execute(&s.time, 5);
        assert!(support_recall(&s.coords, &out.recovered) > 0.99);
        assert!(l1_error_per_coeff(&s.coords, &out.recovered) < 1e-3);
    }

    #[test]
    fn optimized_is_faster_on_the_device_clock() {
        let (base, s) = make(Variant::Baseline, 1 << 14, 16);
        let opt = CusFft::new(
            Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x())),
            Arc::new(SfftParams::tuned(1 << 14, 16)),
            Variant::Optimized,
        );
        let tb = base.execute(&s.time, 9).sim_time;
        let to = opt.execute(&s.time, 9).sim_time;
        assert!(
            to < tb,
            "optimized {to:.3e}s should beat baseline {tb:.3e}s"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (plan, s) = make(Variant::Optimized, 1 << 12, 8);
        let a = plan.execute(&s.time, 77);
        let b = plan.execute(&s.time, 77);
        assert_eq!(a.recovered, b.recovered);
        assert!((a.sim_time - b.sim_time).abs() < 1e-12);
    }

    #[test]
    fn matches_cpu_reference_support_and_values() {
        let n = 1 << 12;
        let k = 8;
        let (plan, s) = make(Variant::Baseline, n, k);
        let cpu = sfft_cpu::sfft(plan.params(), &s.time, 123);
        let gpu = plan.execute(&s.time, 123).recovered;
        // Compare the large coefficients (spurious tiny entries may
        // differ between the quickselect and sort cutoffs).
        let big = |rec: &Recovered| -> Vec<usize> {
            rec.iter()
                .filter(|(_, v)| v.abs() > 0.5)
                .map(|&(f, _)| f)
                .collect::<Vec<_>>()
        };
        assert_eq!(big(&cpu), big(&gpu), "large-coefficient support");
        for (f, v) in cpu.iter().filter(|(_, v)| v.abs() > 0.5) {
            let (_, g) = gpu.iter().find(|(gf, _)| gf == f).unwrap();
            assert!(v.dist(*g) < 1e-6, "f={f}: cpu {v:?} vs gpu {g:?}");
        }
    }

    #[test]
    fn step_breakdown_covers_whole_pipeline() {
        let (plan, s) = make(Variant::Optimized, 1 << 12, 8);
        let out = plan.execute(&s.time, 5);
        assert!(out.steps.perm_filter > 0.0);
        assert!(out.steps.subsampled_fft > 0.0);
        assert!(out.steps.cutoff > 0.0);
        assert!(out.steps.locate > 0.0);
        assert!(out.steps.estimate > 0.0);
        assert!(out.steps.transfer > 0.0);
        assert_eq!(out.steps.other, 0.0, "no unclassified kernels");
        // Overlap means elapsed ≤ serial sum.
        assert!(out.sim_time <= out.steps.total() + 1e-12);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_length_rejected() {
        let (plan, _) = make(Variant::Baseline, 1 << 12, 8);
        plan.execute(&[ZERO; 64], 1);
    }
}
