//! Cross-backend differential conformance suite — DESIGN.md §12.
//!
//! Every registered backend pair is compared over a generated matrix of
//! workloads (signal sizes × sparsities × SNRs × fault seeds):
//!
//! 1. **Served = direct** — all three backends declare
//!    `exact_vs_direct`, so serving a request through [`ServeEngine`]
//!    must return a spectrum **bit-identical** to building the plan and
//!    driving `prepare`/`run_batched_ffts`/`finish` on a fresh device.
//! 2. **Per-backend determinism** — for each backend, outcomes
//!    (spectra included), fault tallies and grouping are bit-identical
//!    across serve worker counts {1, 2, 4}, and a rerun of the same
//!    configuration reproduces the whole report, merged timeline
//!    included, bit for bit (the timeline itself is a function of the
//!    worker count: each worker owns a private stream family).
//! 3. **Cross-backend agreement** — the two sFFT backends (gpu-sim and
//!    CPU reference) recover the same large coefficients to ≤ 1e-6,
//!    and both stay within the documented residual bound
//!    ([`cusfft::BackendCaps::oracle_bound`]) of the dense-FFT oracle,
//!    whose own top-k is exact (bound 0.0) against the generated truth.
//! 4. **Fault re-routing is backend selection** — under an injected
//!    fault plan (seed honours `CUSFFT_FAULT_SEED`, like the rest of
//!    the fault suite), every response that stayed on a GPU path is
//!    bit-identical to the fault-free serve, and outcomes and tallies
//!    are invariant under worker count.

use std::sync::Arc;

use cusfft::{
    execute_direct, BackendKind, BackendRegistry, PlanKey, ServeConfig, ServeEngine, ServePath,
    ServeQos, ServeReport, ServeRequest, Variant,
};
use fft::Cplx;
use gpu_sim::{DeviceSpec, FaultConfig, GpuDevice};
use signal::{add_awgn, SparseSignal};

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// One workload cell of the conformance matrix.
struct Case {
    n: usize,
    k: usize,
    snr_db: Option<f64>,
    signal: SparseSignal,
    /// The time samples actually served (noisy when `snr_db` is set).
    time: Vec<Cplx>,
    seed: u64,
}

/// Sizes {2^9, 2^10, 2^11} × sparsities {4, 8} × SNR {clean, 30 dB}.
fn matrix() -> Vec<Case> {
    let mut cases = Vec::new();
    for (ci, &n) in [1usize << 9, 1 << 10, 1 << 11].iter().enumerate() {
        for &k in &[4usize, 8] {
            for &snr_db in &[None, Some(30.0)] {
                let sig_seed = 9000 + (cases.len() as u64) * 37;
                let signal = SparseSignal::generate(n, k, signal::MagnitudeModel::Unit, sig_seed);
                let mut time = signal.time.clone();
                if let Some(snr) = snr_db {
                    add_awgn(&mut time, snr, sig_seed ^ 0x5eed);
                }
                cases.push(Case {
                    n,
                    k,
                    snr_db,
                    signal,
                    time,
                    seed: 100 + ci as u64 * 13 + cases.len() as u64,
                });
            }
        }
    }
    cases
}

fn requests_for(cases: &[Case], backend: BackendKind) -> Vec<ServeRequest> {
    cases
        .iter()
        .map(|c| {
            ServeRequest::new(c.time.clone(), c.k, Variant::Optimized, c.seed).with_backend(backend)
        })
        .collect()
}

/// Serves `reqs` on a fresh engine (fresh plan cache, fresh home device).
fn serve(reqs: &[ServeRequest], workers: usize, faults: Option<FaultConfig>) -> ServeReport {
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers,
            cache_capacity: 16,
            faults,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    engine.serve_batch(reqs)
}

/// Worker-count-invariant report slice: outcomes (spectra included),
/// fault tallies and grouping. The merged timeline is *not* compared —
/// it is a function of the worker count, since each worker owns a
/// private stream family.
fn assert_outcomes_identical(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes");
    assert_eq!(a.faults, b.faults, "{what}: fault tally");
    assert_eq!(a.group_info, b.group_info, "{what}: grouping");
}

/// Full bit-level report equality for reruns of one configuration:
/// everything above plus the merged-timeline makespan and the
/// concurrency profile.
fn assert_reports_identical(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_outcomes_identical(a, b, what);
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan"
    );
    assert_eq!(a.concurrency, b.concurrency, "{what}: concurrency");
}

/// Coefficients the cross-backend comparison treats as load-bearing.
fn large(rec: &[(usize, Cplx)]) -> Vec<(usize, Cplx)> {
    let mut v: Vec<(usize, Cplx)> = rec.iter().copied().filter(|(_, c)| c.abs() > 0.5).collect();
    v.sort_by_key(|&(f, _)| f);
    v
}

#[test]
fn default_registry_serves_all_three_backends() {
    let registry = BackendRegistry::with_defaults();
    for kind in BackendKind::all() {
        let backend = registry
            .get(kind)
            .unwrap_or_else(|| panic!("{} must be registered by default", kind.label()));
        let caps = backend.capabilities();
        assert_eq!(caps.kind, kind);
        assert!(
            caps.exact_vs_direct,
            "{}: every shipped backend serves bit-identically to direct execution",
            kind.label()
        );
    }
    // The oracle is exact by definition; the sFFT tiers carry the
    // documented residual bound.
    assert_eq!(
        registry
            .get(BackendKind::DenseFft)
            .unwrap()
            .capabilities()
            .oracle_bound,
        0.0
    );
    for kind in [BackendKind::GpuSim, BackendKind::SfftCpu] {
        assert!(registry.get(kind).unwrap().capabilities().oracle_bound > 0.0);
    }
}

/// Contract 1: for every backend, every served spectrum is bit-identical
/// to direct plan execution on a fresh device (`exact_vs_direct`).
#[test]
fn served_spectra_are_bit_identical_to_direct_execution() {
    let cases = matrix();
    let spec = DeviceSpec::tesla_k20x();
    let registry = BackendRegistry::with_defaults();
    let home = Arc::new(GpuDevice::new(spec.clone()));
    for kind in BackendKind::all() {
        let reqs = requests_for(&cases, kind);
        let report = serve(&reqs, 2, None);
        for (i, (req, outcome)) in reqs.iter().zip(&report.outcomes).enumerate() {
            let resp = outcome
                .response()
                .unwrap_or_else(|| panic!("{}: request {i} completes", kind.label()));
            assert_eq!(resp.backend, kind, "{}: request {i} backend", kind.label());
            assert_eq!(resp.qos, ServeQos::Full);
            let plan = registry
                .get(kind)
                .unwrap()
                .build_plan(&home, req.plan_key());
            let direct = execute_direct(plan.as_ref(), &spec, &req.time, req.seed)
                .unwrap_or_else(|e| panic!("{}: direct execution of {i}: {e}", kind.label()));
            assert_eq!(
                resp.recovered,
                direct,
                "{}: request {i} served vs direct spectra",
                kind.label()
            );
        }
    }
}

/// Contract 2: per-backend outcomes/faults/grouping are bit-identical
/// across worker counts {1, 2, 4} (fresh engine each time), and a rerun
/// at a fixed worker count reproduces the whole report — merged
/// timeline included — bit for bit.
#[test]
fn per_backend_reports_are_worker_count_invariant() {
    let cases = matrix();
    for kind in BackendKind::all() {
        let reqs = requests_for(&cases, kind);
        let reference = serve(&reqs, 1, None);
        for workers in [2usize, 4] {
            let report = serve(&reqs, workers, None);
            assert_outcomes_identical(
                &report,
                &reference,
                &format!("{} workers={workers}", kind.label()),
            );
            let rerun = serve(&reqs, workers, None);
            assert_reports_identical(
                &rerun,
                &report,
                &format!("{} workers={workers} rerun", kind.label()),
            );
        }
    }
}

/// Contract 3: cross-backend agreement over the matrix. The dense
/// oracle's top-k equals the generated truth; the two sFFT backends
/// agree with each other to 1e-6 on large coefficients and sit within
/// their documented `oracle_bound` of the oracle's values.
#[test]
fn backends_agree_within_documented_residual_bounds() {
    let cases = matrix();
    let registry = BackendRegistry::with_defaults();
    let gpu = serve(&requests_for(&cases, BackendKind::GpuSim), 2, None);
    let cpu = serve(&requests_for(&cases, BackendKind::SfftCpu), 2, None);
    let dense = serve(&requests_for(&cases, BackendKind::DenseFft), 2, None);
    let sfft_bound = registry
        .get(BackendKind::GpuSim)
        .unwrap()
        .capabilities()
        .oracle_bound;

    for (i, case) in cases.iter().enumerate() {
        let what = format!(
            "case {i} (n={}, k={}, snr={:?})",
            case.n, case.k, case.snr_db
        );
        let g = &gpu.outcomes[i].response().expect("gpu completes").recovered;
        let c = &cpu.outcomes[i].response().expect("cpu completes").recovered;
        let d = &dense.outcomes[i]
            .response()
            .expect("dense completes")
            .recovered;

        // The oracle recovers the exact truth support; on clean signals
        // its values match the planted coefficients to float round-off.
        let truth: Vec<usize> = case.signal.coords.iter().map(|&(f, _)| f).collect();
        let oracle_support: Vec<usize> = d.iter().map(|&(f, _)| f).collect();
        assert_eq!(oracle_support, truth, "{what}: oracle support");
        if case.snr_db.is_none() {
            for (&(f, est), &(_, v)) in d.iter().zip(&case.signal.coords) {
                assert!(
                    est.dist(v) < 1e-9,
                    "{what}: oracle f={f}: {est:?} vs planted {v:?}"
                );
            }
        }

        // gpu-sim and the CPU reference run the same algorithm: on
        // clean signals they recover the same large support with
        // values within 1e-6. Under noise, marginal coefficients near
        // the 0.5 cut can fall on different sides for the two
        // implementations, so the comparison is over the common large
        // support — which must still cover most of the truth.
        let gl = large(g);
        let cl = large(c);
        if case.snr_db.is_none() {
            assert_eq!(
                gl.iter().map(|&(f, _)| f).collect::<Vec<_>>(),
                cl.iter().map(|&(f, _)| f).collect::<Vec<_>>(),
                "{what}: gpu vs cpu large support"
            );
        }
        let mut common = 0usize;
        for &(f, gv) in &gl {
            if let Some(&(_, cv)) = cl.iter().find(|&&(cf, _)| cf == f) {
                common += 1;
                assert!(
                    gv.dist(cv) < 1e-6,
                    "{what}: f={f}: gpu {gv:?} vs cpu {cv:?}"
                );
            }
        }
        assert!(
            common * 2 >= case.k,
            "{what}: gpu and cpu agree on only {common} of {} coefficients",
            case.k
        );

        // Both sFFT recoveries stay within the documented residual
        // bound of the oracle. On clean cells the recovery covers the
        // whole oracle support and the per-coefficient ℓ1 honours
        // `oracle_bound`; on noisy cells marginal coefficients may be
        // missed entirely, so coverage and value error are bounded
        // separately (value error relaxed to the noise floor).
        for rec in [g, c] {
            let mut hit_err = 0.0;
            let mut hits = 0usize;
            for &(f, dv) in d {
                if let Some(&(_, v)) = rec.iter().find(|&&(rf, _)| rf == f) {
                    hits += 1;
                    hit_err += v.dist(dv);
                }
            }
            match case.snr_db {
                None => {
                    assert_eq!(hits, d.len(), "{what}: clean recovery covers the oracle");
                    let per_coeff = hit_err / d.len() as f64;
                    assert!(
                        per_coeff <= sfft_bound,
                        "{what}: per-coeff ℓ1 {per_coeff} exceeds bound {sfft_bound}"
                    );
                }
                Some(_) => {
                    assert!(
                        hits * 2 >= case.k,
                        "{what}: noisy recovery found only {hits}/{}",
                        case.k
                    );
                    let per_hit = hit_err / hits as f64;
                    assert!(
                        per_hit <= 0.2,
                        "{what}: per-recovered-coeff error {per_hit} exceeds noise floor"
                    );
                }
            }
        }
    }
}

/// A mixed batch naming all three backends in one serve call: requests
/// group per backend, every response reports the backend that executed
/// it, and each spectrum matches the corresponding single-backend serve.
#[test]
fn mixed_backend_batch_routes_each_request_correctly() {
    let cases = matrix();
    let kinds = BackendKind::all();
    let mixed: Vec<ServeRequest> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ServeRequest::new(c.time.clone(), c.k, Variant::Optimized, c.seed)
                .with_backend(kinds[i % kinds.len()])
        })
        .collect();
    let report = serve(&mixed, 4, None);

    let per_backend: Vec<ServeReport> = kinds
        .iter()
        .map(|&kind| serve(&requests_for(&cases, kind), 2, None))
        .collect();

    for (i, (req, outcome)) in mixed.iter().zip(&report.outcomes).enumerate() {
        let resp = outcome.response().expect("mixed batch completes");
        assert_eq!(resp.backend, req.backend, "request {i} names its backend");
        let solo = per_backend[i % kinds.len()].outcomes[i]
            .response()
            .expect("single-backend serve completes");
        assert_eq!(
            resp.recovered, solo.recovered,
            "request {i}: mixed-batch spectrum must equal the single-backend serve"
        );
    }
    // Grouping respects the backend dimension of the plan key.
    for g in &report.group_info {
        let PlanKey { backend, .. } = g.key;
        for &idx in &g.indices {
            assert_eq!(mixed[idx].backend, backend, "group {} member {idx}", g.gid);
        }
    }
}

/// Contract 4: under injected faults, responses that stayed on a GPU
/// path are bit-identical to the fault-free serve (recovery is
/// invisible), re-routed ones report the `SfftCpu` backend, and the
/// whole report is invariant under worker count.
#[test]
fn faulty_serving_is_worker_invariant_and_gpu_paths_match_fault_free() {
    let cases = matrix();
    let reqs = requests_for(&cases, BackendKind::GpuSim);
    let fc = FaultConfig::uniform(fault_seed(), 0.02);
    let clean = serve(&reqs, 1, None);
    let reference = serve(&reqs, 1, Some(fc));

    for (i, (c, f)) in clean.outcomes.iter().zip(&reference.outcomes).enumerate() {
        let c = c.response().expect("fault-free serving completes");
        let f = f.response().expect("recovery completes every request");
        if f.path == ServePath::Cpu {
            assert_eq!(
                f.backend,
                BackendKind::SfftCpu,
                "request {i}: fault re-route is ordinary backend selection"
            );
        } else {
            assert_eq!(f.backend, BackendKind::GpuSim, "request {i}");
            assert_eq!(
                c.recovered, f.recovered,
                "request {i}: recovery is invisible"
            );
        }
    }
    for workers in [2usize, 4] {
        let report = serve(&reqs, workers, Some(fc));
        assert_outcomes_identical(
            &report,
            &reference,
            &format!("faulty workers={workers} seed={}", fault_seed()),
        );
        let rerun = serve(&reqs, workers, Some(fc));
        assert_reports_identical(
            &rerun,
            &report,
            &format!("faulty workers={workers} rerun seed={}", fault_seed()),
        );
    }
}
