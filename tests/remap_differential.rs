//! Differential tests for the tiled affine-permutation remap
//! (DESIGN.md §13): forcing [`RemapKind::Tiled`] versus
//! [`RemapKind::Direct`] through the backend must change only the
//! *modeled cost* of the layout pass, never its output. Recovered
//! spectra are pinned bit-identical across signal sizes × batch widths ×
//! fault seeds, and the transaction model must actually prefer the tiled
//! flavour where the paper says it wins (large padded widths).

use std::sync::Arc;

use cusfft::{
    choose_remap, BackendRegistry, GpuSimBackend, RemapKind, ServeConfig, ServeEngine,
    ServeRequest, SfftCpuBackend, Variant,
};
use gpu_sim::{DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

/// An engine whose GPU backend is pinned to one remap flavour (the CPU
/// backend rides along for fault-exhausted fallbacks).
fn engine(kind: RemapKind, faults: Option<FaultConfig>) -> ServeEngine {
    let mut registry = BackendRegistry::empty();
    registry.register(Arc::new(GpuSimBackend { remap: Some(kind) }));
    registry.register(Arc::new(SfftCpuBackend));
    ServeEngine::with_registry(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 2,
            faults,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("serve config is valid")
}

fn batch(n: usize, width: usize) -> Vec<ServeRequest> {
    (0..width)
        .map(|i| {
            let s = SparseSignal::generate(n, 4, MagnitudeModel::Unit, 500 + i as u64);
            ServeRequest::new(s.time, 4, Variant::Optimized, 31 * i as u64 + 7)
        })
        .collect()
}

#[test]
fn tiled_remap_spectra_are_bit_identical_to_direct() {
    let fault_plans: [Option<FaultConfig>; 3] = [
        None,
        Some(FaultConfig::uniform(0xc0ffee, 0.02)),
        Some(FaultConfig::uniform(97, 0.05)),
    ];
    for &n in &[1usize << 10, 1 << 12] {
        for &width in &[1usize, 3] {
            for faults in &fault_plans {
                let reqs = batch(n, width);
                let direct = engine(RemapKind::Direct, *faults).serve_batch(&reqs);
                let tiled = engine(RemapKind::Tiled, *faults).serve_batch(&reqs);
                assert_eq!(direct.outcomes.len(), tiled.outcomes.len());
                for (i, (d, t)) in direct.outcomes.iter().zip(&tiled.outcomes).enumerate() {
                    assert_eq!(
                        d,
                        t,
                        "n={n} width={width} faults={:?} request {i}: tiled remap \
                         must be execution-invisible",
                        faults.as_ref().map(|f| f.seed)
                    );
                }
            }
        }
    }
}

/// The cost model must select the tiled flavour exactly when it strictly
/// reduces modeled DRAM transactions without an occupancy penalty — and
/// on the paper's large-width configurations it must actually win.
#[test]
fn transaction_model_prefers_tiled_on_large_widths() {
    let spec = DeviceSpec::tesla_k20x();

    // A large padded width with many rounds per bucket: the dominant
    // scattered-gather stream amortises the tile's extra staging store,
    // so tiling must strictly reduce transactions.
    let big = choose_remap(&spec, 1 << 14, 1 << 8);
    assert!(
        big.tiled_txns < big.direct_txns,
        "large-width remap must save transactions: tiled={} direct={}",
        big.tiled_txns,
        big.direct_txns
    );
    assert_eq!(big.kind, RemapKind::Tiled);

    // Consistency: the tiled flavour is only ever selected when it
    // strictly undercuts the direct price (occupancy can veto a win,
    // but never manufacture one).
    for &(w_pad, b) in &[
        (1usize << 8, 1usize << 6),
        (1 << 11, 1 << 7),
        (1 << 14, 1 << 8),
    ] {
        let c = choose_remap(&spec, w_pad, b);
        if c.kind == RemapKind::Tiled {
            assert!(
                c.tiled_txns < c.direct_txns,
                "w_pad={w_pad} b={b}: tiled selected without a saving ({c:?})"
            );
            assert!(c.tiled_occupancy > 0.0, "occupancy must be populated");
        }
    }
}

/// End to end through serving telemetry: with the tiled remap the
/// permutation step's rolled-up modeled transactions must drop relative
/// to direct remap on a large-n batch, while every other kernel's
/// launch counts line up one to one.
#[test]
fn serve_rollup_shows_transaction_drop() {
    let reqs = batch(1 << 14, 2);
    let direct = engine(RemapKind::Direct, None).serve_batch(&reqs);
    let tiled = engine(RemapKind::Tiled, None).serve_batch(&reqs);

    // The layout-transform step is the remap staging kernel plus the
    // bucket execution kernel that consumes it: the tiled flavour stages
    // the product, so `exec_tiled` drops the whole tap read stream.
    let step = ["remap", "remap_tiled", "exec", "exec_tiled"];
    let txns = |report: &cusfft::ServeReport| -> (f64, f64) {
        let mut perm = 0.0;
        let mut total = 0.0;
        for k in &report.kernels {
            total += k.transactions;
            if step.contains(&k.name.as_str()) {
                perm += k.transactions;
            }
        }
        (perm, total)
    };
    let (perm_direct, total_direct) = txns(&direct);
    let (perm_tiled, total_tiled) = txns(&tiled);
    assert!(
        perm_direct > 0.0,
        "permutation kernels must appear in the rollup"
    );
    assert!(
        perm_tiled < perm_direct,
        "tiled remap must lower the permutation step's modeled transactions: \
         tiled={perm_tiled} direct={perm_direct}"
    );
    assert!(
        total_tiled < total_direct,
        "the saving must survive into the end-to-end total: \
         tiled={total_tiled} direct={total_direct}"
    );
}
