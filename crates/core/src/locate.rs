//! GPU location recovery (paper Algorithm 4), index-mapped: one thread
//! per (selected bucket, preimage). A bucket's preimage under the
//! permutation is an affine progression mod n, so thread `tid` computes
//! its frequency from its id (`loc = ((j·n/B − n/2B + i) mod n)·a mod n`)
//! instead of walking the progression in a loop-carried `loc += a` chain,
//! the rewrite the paper's technique 1 applies to perm+filter. Each thread
//! votes once with `atomicAdd` on the score array and appends its
//! frequency to the hit list when the vote reaches the threshold.

use gpu_sim::{
    DevAppendU32, DevAtomicU32, DeviceBuffer, GpuDevice, GpuError, LaunchConfig, StreamId,
};
use sfft_cpu::perm::mul_mod;
use sfft_cpu::Permutation;

const BLOCK: u32 = 256;

/// Device-resident voting state shared across the location loops.
pub struct LocateState {
    /// Per-frequency vote counters (size n).
    pub score: DevAtomicU32,
    /// Frequencies whose votes reached the threshold (capacity bounded by
    /// the caller).
    pub hits: DevAppendU32,
}

impl LocateState {
    /// Allocates voting state for signals of length `n` with room for at
    /// most `max_hits` recovered frequencies.
    pub fn new(n: usize, max_hits: usize) -> Self {
        LocateState {
            score: DevAtomicU32::zeroed(n),
            hits: DevAppendU32::with_capacity(max_hits),
        }
    }

    /// Currently recorded hits (host side), sorted by frequency (CUDA
    /// append order depends on warp scheduling).
    pub fn hits_sorted(&self) -> Vec<usize> {
        self.hits
            .snapshot()
            .into_iter()
            .map(|h| h as usize)
            .collect()
    }
}

/// Runs the location kernel for one location loop. Fails with a typed
/// device error on an injected launch fault; the voting state is then
/// untouched (no blocks executed), so a retry re-votes from clean state.
pub fn locate_device(
    device: &GpuDevice,
    selected: &DeviceBuffer<u32>,
    perm: &Permutation,
    b: usize,
    thresh: usize,
    state: &LocateState,
    stream: StreamId,
) -> Result<(), GpuError> {
    let n = perm.n;
    let n_div_b = n / b;
    let half = n_div_b / 2;
    let a = perm.a;
    let votes = selected.len() * n_div_b;
    if votes == 0 {
        return Ok(());
    }
    let cfg = LaunchConfig::for_elements(votes, BLOCK);
    device.try_launch_foreach("locate", cfg, stream, |ctx, gm| {
        let tid = ctx.global_id();
        if tid >= votes {
            return;
        }
        let j = gm.ld(selected, tid / n_div_b) as usize;
        let i = tid % n_div_b;
        let loc = mul_mod((j * n_div_b + n - half + i) % n, a, n);
        let old = state.score.fetch_add(gm, loc, 1);
        if old as usize + 1 == thresh {
            state.hits.push(gm, loc as u32);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};
    use proptest::prelude::*;

    fn device() -> GpuDevice {
        GpuDevice::new(DeviceSpec::tesla_k20x())
    }

    /// One location loop's selection of `b` buckets: none (`kind` 0),
    /// all (1), or `picks` mod `b` together with buckets 0 and `b − 1`,
    /// whose preimages wrap around n.
    fn selection(b: usize, kind: usize, picks: &[usize]) -> Vec<usize> {
        match kind {
            0 => Vec::new(),
            1 => (0..b).collect(),
            _ => {
                let mut sel: Vec<usize> = picks.iter().map(|p| p % b).chain([0, b - 1]).collect();
                sel.sort_unstable();
                sel.dedup();
                sel
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The index-mapped kernel casts the votes of the CPU reference's
        /// walk: the same per-frequency scores and the same hits. A hit
        /// list shorter than the hit count still counts every claim but
        /// stores only `capacity` of them.
        #[test]
        fn matches_cpu_locate_on_random_geometries(
            log2_n in 8u32..15,
            b_draw in 0u32..14,
            thresh in 1usize..4,
            short_list in 0usize..2,
            loops in prop::collection::vec(
                (0usize..1 << 14, 0usize..4, prop::collection::vec(0usize..1 << 14, 0..6)),
                1..5,
            ),
        ) {
            let n = 1usize << log2_n;
            let b = 1usize << (1 + b_draw % log2_n);
            let rounds: Vec<(Permutation, Vec<usize>)> = loops
                .iter()
                .map(|(a, kind, picks)| {
                    (Permutation::new((2 * a + 1) % n, 0, n), selection(b, *kind, picks))
                })
                .collect();

            let mut score = vec![0u8; n];
            let mut cpu_hits = Vec::new();
            for (perm, sel) in &rounds {
                sfft_cpu::inner::locate(sel, perm, b, thresh, &mut score, &mut cpu_hits, None);
            }
            cpu_hits.sort_unstable();

            let capacity = if short_list == 1 { cpu_hits.len() / 2 } else { n };
            let dev = device();
            let state = LocateState::new(n, capacity);
            for (perm, sel) in &rounds {
                let sel: Vec<u32> = sel.iter().map(|&j| j as u32).collect();
                let sel = DeviceBuffer::from_host(&sel);
                locate_device(&dev, &sel, perm, b, thresh, &state, DEFAULT_STREAM).unwrap();
            }

            let gpu_score = state.score.snapshot();
            prop_assert!(gpu_score.iter().zip(&score).all(|(&g, &c)| g == u32::from(c)));
            prop_assert_eq!(state.hits.claimed(), cpu_hits.len());
            let hits = state.hits_sorted();
            if capacity >= cpu_hits.len() {
                prop_assert_eq!(hits, cpu_hits);
            } else {
                prop_assert_eq!(hits.len(), capacity);
                prop_assert!(hits.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(hits.iter().all(|h| cpu_hits.binary_search(h).is_ok()));
            }
        }
    }

    #[test]
    fn matches_cpu_locate() {
        let dev = device();
        let n = 1 << 12;
        let b = 64;
        let perm = Permutation::new(1001, 0, n);
        let selected_host: Vec<u32> = vec![3, 17, 40];

        // CPU reference.
        let mut score = vec![0u8; n];
        let mut cpu_hits = Vec::new();
        let sel_usize: Vec<usize> = selected_host.iter().map(|&x| x as usize).collect();
        sfft_cpu::inner::locate(&sel_usize, &perm, b, 1, &mut score, &mut cpu_hits, None);
        cpu_hits.sort_unstable();

        // GPU kernel.
        let selected = DeviceBuffer::from_host(&selected_host);
        let state = LocateState::new(n, n);
        locate_device(&dev, &selected, &perm, b, 1, &state, DEFAULT_STREAM).unwrap();
        assert_eq!(state.hits_sorted(), cpu_hits);
    }

    #[test]
    fn threshold_accumulates_across_loops() {
        let dev = device();
        let n = 1 << 10;
        let b = 32;
        let state = LocateState::new(n, n);
        let perm = Permutation::new(5, 0, n);
        let selected = DeviceBuffer::from_host(&[2u32]);
        locate_device(&dev, &selected, &perm, b, 2, &state, DEFAULT_STREAM).unwrap();
        assert!(state.hits_sorted().is_empty(), "one vote < threshold 2");
        locate_device(&dev, &selected, &perm, b, 2, &state, DEFAULT_STREAM).unwrap();
        assert_eq!(state.hits_sorted().len(), n / b);
    }

    #[test]
    fn each_hit_recorded_once() {
        let dev = device();
        let n = 256;
        let b = 16;
        let state = LocateState::new(n, n);
        let perm = Permutation::new(9, 0, n);
        let selected = DeviceBuffer::from_host(&[1u32]);
        for _ in 0..5 {
            locate_device(&dev, &selected, &perm, b, 2, &state, DEFAULT_STREAM).unwrap();
        }
        let hits = state.hits_sorted();
        let mut dedup = hits.clone();
        dedup.dedup();
        assert_eq!(hits, dedup, "no duplicate hits");
        assert_eq!(hits.len(), n / b);
    }

    #[test]
    fn kernel_records_atomic_traffic() {
        let dev = device();
        let n = 1 << 12;
        let state = LocateState::new(n, 128);
        let perm = Permutation::new(77, 0, n);
        let selected = DeviceBuffer::from_host(&[0u32, 1, 2, 3]);
        dev.reset_clock();
        locate_device(&dev, &selected, &perm, 64, 1, &state, DEFAULT_STREAM).unwrap();
        let rec = &dev.records()[0];
        assert!(rec.stats.atomic_ops > 0.0);
        assert_eq!(rec.name, "locate");
    }
}
