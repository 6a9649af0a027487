//! Batched transforms: many same-size FFTs over a contiguous buffer.
//!
//! This mirrors cuFFT's *batched mode*, which the paper uses for the
//! B-dimensional subsampled FFTs of all outer loops in a single call
//! ("by sharing the twiddle factors, the batched cuFFT combines the
//! number of outer_loops transforms into one function call"). Here the
//! shared state is the [`Plan`]: one twiddle/bit-reversal table serves
//! every row, and the rows are independent so they parallelise with rayon.

use rayon::prelude::*;

use crate::cplx::Cplx;
use crate::plan::Plan;
use crate::Direction;

/// A plan for `batch` transforms of `row_len` points each, laid out
/// contiguously (row-major) in one buffer.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    plan: Plan,
    batch: usize,
}

impl BatchPlan {
    /// Builds a batched plan. `row_len` must be a power of two.
    pub fn new(row_len: usize, batch: usize) -> Self {
        BatchPlan {
            plan: Plan::new(row_len),
            batch,
        }
    }

    /// Points per row.
    #[inline]
    pub fn row_len(&self) -> usize {
        self.plan.len()
    }

    /// Number of rows.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Total buffer length this plan expects.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.plan.len() * self.batch
    }

    /// Shared single-row plan.
    #[inline]
    pub fn row_plan(&self) -> &Plan {
        &self.plan
    }

    fn check(&self, data: &[Cplx]) {
        assert_eq!(
            data.len(),
            self.total_len(),
            "batched buffer must be row_len*batch = {} elements, got {}",
            self.total_len(),
            data.len()
        );
    }

    /// Transforms every row sequentially, in place.
    pub fn process(&self, data: &mut [Cplx], dir: Direction) {
        self.check(data);
        for row in data.chunks_exact_mut(self.plan.len()) {
            self.plan.process(row, dir);
        }
    }

    /// Transforms every row in parallel (one rayon task per row), in place.
    ///
    /// Rows are disjoint `chunks_exact_mut` slices, so this is data-race
    /// free by construction.
    pub fn process_parallel(&self, data: &mut [Cplx], dir: Direction) {
        self.check(data);
        data.par_chunks_exact_mut(self.plan.len())
            .for_each(|row| self.plan.process(row, dir));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn rand_signal(n: usize, seed: u64) -> Vec<Cplx> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
                Cplx::new(a, b)
            })
            .collect()
    }

    #[test]
    fn each_row_matches_standalone_transform() {
        let (rows, len) = (5, 32);
        let data = rand_signal(rows * len, 1);
        let bp = BatchPlan::new(len, rows);
        let mut batched = data.clone();
        bp.process(&mut batched, Direction::Forward);
        for r in 0..rows {
            let row = &data[r * len..(r + 1) * len];
            let expected = dft(row, Direction::Forward);
            for (i, v) in batched[r * len..(r + 1) * len].iter().enumerate() {
                assert!(v.dist(expected[i]) < 1e-8, "row {r} elem {i}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let bp = BatchPlan::new(64, 9);
        let data = rand_signal(bp.total_len(), 2);
        let mut a = data.clone();
        let mut b = data;
        bp.process(&mut a, Direction::Forward);
        bp.process_parallel(&mut b, Direction::Forward);
        assert_eq!(a, b, "parallel batch must be bit-identical to sequential");
    }

    #[test]
    fn inverse_roundtrip() {
        let bp = BatchPlan::new(16, 4);
        let data = rand_signal(bp.total_len(), 3);
        let mut buf = data.clone();
        bp.process(&mut buf, Direction::Forward);
        bp.process_parallel(&mut buf, Direction::Inverse);
        for (x, y) in buf.iter().zip(&data) {
            assert!(x.dist(*y) < 1e-9);
        }
    }

    #[test]
    fn accessors() {
        let bp = BatchPlan::new(8, 3);
        assert_eq!(bp.row_len(), 8);
        assert_eq!(bp.batch(), 3);
        assert_eq!(bp.total_len(), 24);
        assert_eq!(bp.row_plan().len(), 8);
    }

    #[test]
    fn zero_batch_is_noop() {
        let bp = BatchPlan::new(8, 0);
        let mut buf: Vec<Cplx> = Vec::new();
        bp.process(&mut buf, Direction::Forward);
        bp.process_parallel(&mut buf, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "row_len*batch")]
    fn wrong_length_panics() {
        let bp = BatchPlan::new(8, 2);
        let mut buf = rand_signal(8, 1);
        bp.process(&mut buf, Direction::Forward);
    }
}
