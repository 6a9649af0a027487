//! GPU location recovery (paper Algorithm 4): one thread per selected
//! bucket walks the bucket's preimage, votes with `atomicAdd` on the
//! score array, and appends frequencies that reach the threshold through
//! an atomic cursor.

use gpu_sim::{DevAtomicU32, DeviceBuffer, GpuDevice, GpuError, LaunchConfig, StreamId};
use sfft_cpu::perm::mul_mod;
use sfft_cpu::Permutation;

const BLOCK: u32 = 64;

/// Device-resident voting state shared across the location loops.
pub struct LocateState {
    /// Per-frequency vote counters (size n).
    pub score: DevAtomicU32,
    /// Hit output slots (capacity bounded by the caller).
    pub hits: DevAtomicU32,
    /// Cursor: `hits[0..cursor]` are valid.
    pub cursor: DevAtomicU32,
}

impl LocateState {
    /// Allocates voting state for signals of length `n` with room for at
    /// most `max_hits` recovered frequencies.
    pub fn new(n: usize, max_hits: usize) -> Self {
        LocateState {
            score: DevAtomicU32::zeroed(n),
            hits: DevAtomicU32::zeroed(max_hits),
            cursor: DevAtomicU32::zeroed(1),
        }
    }

    /// Currently recorded hits (host side), sorted by frequency for
    /// determinism (CUDA append order depends on warp scheduling).
    pub fn hits_sorted(&self) -> Vec<usize> {
        let count = (self.cursor.snapshot()[0] as usize).min(self.hits.len());
        let mut v: Vec<usize> = self.hits.snapshot()[..count]
            .iter()
            .map(|&h| h as usize)
            .collect();
        v.sort_unstable();
        v
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
    let count = selected.len();
    if count == 0 {
        return Ok(());
    }
    let max_hits = state.hits.len() as u32;
    let cfg = LaunchConfig::for_elements(count, BLOCK);
    device.try_launch_foreach("locate", cfg, stream, |ctx, gm| {
        let tid = ctx.global_id();
        if tid >= count {
            return;
        }
        let j = gm.ld(selected, tid) as usize;
        let low = (j * n_div_b + n - half) % n;
        let mut loc = mul_mod(low, a, n);
        for _ in 0..n_div_b {
            let old = state.score.fetch_add(gm, loc, 1);
            if old as usize + 1 == thresh {
                let slot = state.cursor.fetch_add(gm, 0, 1);
                if slot < max_hits {
                    state.hits.store(gm, slot as usize, loc as u32);
                }
            }
            loc += a;
            if loc >= n {
                loc -= n;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};

    fn device() -> GpuDevice {
        GpuDevice::new(DeviceSpec::tesla_k20x())
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
