//! Quickselect (`nth_element`) — the O(B) expected-time selection the
//! serial reference uses for its cutoff, and the building block for
//! "value of the k-th largest element" queries.

/// Returns the value of the `k`-th largest element (1-based: `k = 1` is
/// the maximum). Average O(n).
pub fn kth_largest(values: &[f64], k: usize) -> f64 {
    assert!(
        k >= 1 && k <= values.len(),
        "k={k} out of 1..={}",
        values.len()
    );
    let mut buf: Vec<f64> = values.to_vec();
    let idx = k - 1;
    let (_, kth, _) = buf.select_nth_unstable_by(idx, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    });
    *kth
}

/// Returns the indices of all elements `>= threshold`, preserving index
/// order (the partition step quickselect-based cutoffs use once the k-th
/// value is known).
pub fn indices_at_least(values: &[f64], threshold: f64) -> Vec<usize> {
    values
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| if v >= threshold { Some(i) } else { None })
        .collect()
}

/// Top-k selection via quickselect: find the k-th largest value, then a
/// linear partition pass. Returns indices in index order (not value
/// order); with ties, may return slightly more than `k` candidates —
/// callers that need exactly `k` truncate (the sFFT cutoff explicitly
/// tolerates "slightly more than k").
pub fn quickselect_top_k(values: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(values.len());
    if k == 0 {
        return Vec::new();
    }
    let thresh = kth_largest(values, k);
    indices_at_least(values, thresh)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_largest_basics() {
        let v = [3.0, 9.0, 1.0, 7.0, 5.0];
        assert_eq!(kth_largest(&v, 1), 9.0);
        assert_eq!(kth_largest(&v, 3), 5.0);
        assert_eq!(kth_largest(&v, 5), 1.0);
    }

    #[test]
    fn top_k_contains_the_largest() {
        let v = [3.0, 9.0, 1.0, 7.0, 5.0];
        let idx = quickselect_top_k(&v, 2);
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn ties_may_return_more_than_k() {
        let v = [5.0, 5.0, 1.0];
        let idx = quickselect_top_k(&v, 1);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn matches_sort_oracle_as_a_set() {
        let v: Vec<f64> = (0..5000).map(|i| ((i * 48271) % 65537) as f64).collect();
        let k = 37;
        let mut a = quickselect_top_k(&v, k);
        let mut b = crate::sort_select::sort_select_seq(&v, k);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "distinct values → identical top-k sets");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn k_zero_panics_for_kth() {
        kth_largest(&[1.0], 0);
    }

    #[test]
    fn indices_at_least_threshold() {
        let v = [0.5, 2.0, 1.0, 3.0];
        assert_eq!(indices_at_least(&v, 1.0), vec![1, 2, 3]);
        assert_eq!(indices_at_least(&v, 10.0), Vec::<usize>::new());
    }

    #[test]
    fn quickselect_empty_k() {
        assert!(quickselect_top_k(&[1.0, 2.0], 0).is_empty());
        assert!(quickselect_top_k(&[], 3).is_empty());
    }
}
