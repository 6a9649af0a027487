//! Multithreaded single-transform FFT — the stand-in for multithreaded FFTW
//! in the paper's CPU baseline.
//!
//! Strategy per butterfly stage: while blocks are plentiful, parallelise
//! across blocks (`par_chunks_exact_mut`); once blocks become fewer than the
//! desired task count, switch to splitting the *inside* of each block, which
//! is safe because the lo/hi halves of a block are disjoint slices.

use rayon::prelude::*;

use crate::cplx::{Cplx, ZERO};
use crate::plan::Plan;
use crate::Direction;

/// Minimum work (in elements) per rayon task; below this, sequential
/// execution wins because task spawning dominates.
const MIN_TASK_ELEMS: usize = 1 << 13;

/// A parallel executor wrapping a shared [`Plan`].
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    plan: Plan,
}

impl ParallelPlan {
    /// Builds a parallel plan for a power-of-two size.
    pub fn new(n: usize) -> Self {
        ParallelPlan { plan: Plan::new(n) }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Never true; 1-point plans still have length 1.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Executes the transform in place using the global rayon pool.
    pub fn process(&self, data: &mut [Cplx], dir: Direction) {
        let n = self.plan.len();
        assert_eq!(
            data.len(),
            n,
            "plan built for n={n}, got buffer of len {}",
            data.len()
        );
        if n < 2 * MIN_TASK_ELEMS {
            // Small transforms: the sequential plan is strictly faster.
            self.plan.process(data, dir);
            return;
        }

        // Parallel bit-reversal gather into scratch, then copy back.
        let bitrev = self.plan.bitrev_table();
        let mut scratch = vec![ZERO; n];
        scratch
            .par_chunks_mut(MIN_TASK_ELEMS)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * MIN_TASK_ELEMS;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = data[bitrev[base + i] as usize];
                }
            });
        data.par_chunks_mut(MIN_TASK_ELEMS)
            .zip(scratch.par_chunks(MIN_TASK_ELEMS))
            .for_each(|(d, s)| d.copy_from_slice(s));

        let twiddles = self.plan.twiddle_table();
        let conj = dir == Direction::Inverse;
        let mut len = 2usize;
        while len <= n {
            let stride = n / len;
            let half = len / 2;
            if len <= MIN_TASK_ELEMS {
                // Many small blocks: group them so each task is big enough.
                let group = (MIN_TASK_ELEMS / len).max(1) * len;
                data.par_chunks_mut(group).for_each(|span| {
                    for chunk in span.chunks_exact_mut(len) {
                        butterfly_block(chunk, half, twiddles, stride, conj);
                    }
                });
            } else {
                // Few large blocks: split the inside of each block.
                for chunk in data.chunks_exact_mut(len) {
                    let (lo, hi) = chunk.split_at_mut(half);
                    lo.par_chunks_mut(MIN_TASK_ELEMS / 2)
                        .zip(hi.par_chunks_mut(MIN_TASK_ELEMS / 2))
                        .enumerate()
                        .for_each(|(ci, (lo_c, hi_c))| {
                            let j0 = ci * (MIN_TASK_ELEMS / 2);
                            for (j, (a, b)) in lo_c.iter_mut().zip(hi_c.iter_mut()).enumerate() {
                                let mut w = twiddles[(j0 + j) * stride];
                                if conj {
                                    w = w.conj();
                                }
                                let t = *b * w;
                                let av = *a;
                                *a = av + t;
                                *b = av - t;
                            }
                        });
                }
            }
            len <<= 1;
        }

        if dir == Direction::Inverse {
            let inv = 1.0 / n as f64;
            data.par_chunks_mut(MIN_TASK_ELEMS)
                .for_each(|chunk| chunk.iter_mut().for_each(|v| *v = v.scale(inv)));
        }
    }

    /// Out-of-place convenience wrapper.
    pub fn transform(&self, input: &[Cplx], dir: Direction) -> Vec<Cplx> {
        let mut buf = input.to_vec();
        self.process(&mut buf, dir);
        buf
    }
}

#[inline]
fn butterfly_block(chunk: &mut [Cplx], half: usize, twiddles: &[Cplx], stride: usize, conj: bool) {
    let (lo, hi) = chunk.split_at_mut(half);
    for j in 0..half {
        let mut w = twiddles[j * stride];
        if conj {
            w = w.conj();
        }
        let t = hi[j] * w;
        let a = lo[j];
        lo[j] = a + t;
        hi[j] = a - t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_signal(n: usize, seed: u64) -> Vec<Cplx> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
                Cplx::new(a, b)
            })
            .collect()
    }

    #[test]
    fn matches_sequential_plan_small() {
        // Small sizes take the sequential fallback path.
        for log2 in [4u32, 8, 10] {
            let n = 1usize << log2;
            let x = rand_signal(n, log2 as u64);
            let seq = Plan::new(n).transform(&x, Direction::Forward);
            let par = ParallelPlan::new(n).transform(&x, Direction::Forward);
            for (a, b) in seq.iter().zip(&par) {
                assert!(a.dist(*b) < 1e-10);
            }
        }
    }

    #[test]
    fn matches_sequential_plan_large() {
        // Large enough to exercise both parallel stage strategies.
        let n = 1usize << 16;
        let x = rand_signal(n, 99);
        let seq = Plan::new(n).transform(&x, Direction::Forward);
        let par = ParallelPlan::new(n).transform(&x, Direction::Forward);
        let scale = (n as f64).sqrt();
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert!(a.dist(*b) < 1e-9 * scale, "elem {i}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn inverse_roundtrip_large() {
        let n = 1usize << 16;
        let x = rand_signal(n, 123);
        let pp = ParallelPlan::new(n);
        let mut buf = x.clone();
        pp.process(&mut buf, Direction::Forward);
        pp.process(&mut buf, Direction::Inverse);
        for (a, b) in buf.iter().zip(&x) {
            assert!(a.dist(*b) < 1e-9);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let n = 1usize << 15;
        let x = rand_signal(n, 5);
        let pp = ParallelPlan::new(n);
        let a = pp.transform(&x, Direction::Forward);
        let b = pp.transform(&x, Direction::Forward);
        assert_eq!(a, b, "parallel FFT must be run-to-run deterministic");
    }

    #[test]
    #[should_panic(expected = "plan built for")]
    fn wrong_size_panics() {
        let pp = ParallelPlan::new(1 << 14);
        let mut buf = rand_signal(8, 1);
        pp.process(&mut buf, Direction::Forward);
    }
}
