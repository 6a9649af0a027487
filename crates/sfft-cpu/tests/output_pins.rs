//! Bit-exact pins of the CPU reference outputs.
//!
//! Each case runs one CPU entry point on a fixed signal and compares an
//! FNV-1a-64 digest of the result's `Debug` rendering with a checked-in
//! value. Floats print in shortest round-trip form, so the digest moves
//! with any bit of any recovered coefficient. The other CPU tests check
//! recall, error bounds and relations between implementations; these
//! check that a refactor of the sequential loop, the location step or the
//! comb keeps every output bit. A mismatch prints the digest the code now
//! produces.

use sfft_cpu::{psfft, sfft, sfft_profiled, sfft_v2, CombParams, SfftParams};
use signal::{MagnitudeModel, SparseSignal};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

/// `(n, k, signal seed, run seed)`.
const GEOMETRIES: [(usize, usize, u64, u64); 4] = [
    (1 << 11, 4, 11, 101),
    (1 << 13, 16, 13, 103),
    (1 << 14, 8, 14, 107),
    (1 << 16, 32, 16, 109),
];

/// Digests one entry point over every geometry and fails listing each
/// geometry whose digest moved.
fn check(what: &str, pinned: [u64; 4], run: impl Fn(&SfftParams, &SparseSignal, u64) -> u64) {
    let mut bad = Vec::new();
    for (&(n, k, sig_seed, seed), &pin) in GEOMETRIES.iter().zip(&pinned) {
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, sig_seed);
        let got = run(&params, &s, seed);
        if got != pin {
            bad.push(format!(
                "  n={n} k={k}: pinned {pin:#018x}, actual {got:#018x}"
            ));
        }
    }
    assert!(bad.is_empty(), "{what} output moved:\n{}", bad.join("\n"));
}

/// The three v1 entry points recover the same spectrum bit for bit, so
/// they share one digest table.
const V1: [u64; 4] = [
    0x6e64_aeec_600a_228b,
    0x8a41_b6a4_40a9_af78,
    0xfa92_47f7_5145_f472,
    0x9517_9110_bebe_63c3,
];

/// `sfft_v2`'s spectrum together with its `V2Stats`.
const V2: [u64; 4] = [
    0x49b8_f2d1_47b5_6dc0,
    0x8d0b_b744_fd84_4ce9,
    0x2c81_fafc_3673_d74b,
    0x6a49_c5bf_aaad_6ab1,
];

#[test]
fn sfft_outputs_are_pinned() {
    check("sfft", V1, |p, s, seed| digest(&sfft(p, &s.time, seed)));
}

#[test]
fn sfft_profiled_outputs_are_pinned() {
    check("sfft_profiled", V1, |p, s, seed| {
        digest(&sfft_profiled(p, &s.time, seed).0)
    });
}

#[test]
fn sfft_v2_outputs_are_pinned() {
    check("sfft_v2", V2, |p, s, seed| {
        let comb = CombParams::tuned(p.n, p.k);
        digest(&sfft_v2(p, &comb, &s.time, seed))
    });
}

#[test]
fn psfft_outputs_are_pinned() {
    check("psfft", V1, |p, s, seed| digest(&psfft(p, &s.time, seed)));
}
