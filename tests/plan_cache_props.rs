//! Property tests for the serving layer's plan cache: under arbitrary
//! interleaved lookup sequences, plans never cross-contaminate (the plan
//! returned for a key always has that key's geometry, variant and
//! backend) and the resident set never exceeds the LRU bound.

use std::sync::Arc;

use cusfft::{BackendKind, BackendRegistry, PlanCache, PlanKey, ServeQos, Variant};
use gpu_sim::{DeviceSpec, GpuDevice};
use proptest::prelude::*;

/// Decodes a generated tuple into a plan key: signal lengths 2^9..2^12,
/// sparsities {2, 4, 8}, both variants, all three backends.
fn key(n_exp: usize, k_sel: usize, v_sel: usize, b_sel: usize) -> PlanKey {
    PlanKey {
        n: 1 << n_exp,
        k: [2, 4, 8][k_sel],
        variant: if v_sel == 0 {
            Variant::Baseline
        } else {
            Variant::Optimized
        },
        qos: ServeQos::Full,
        backend: BackendKind::all()[b_sel],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn plans_never_cross_contaminate_and_lru_bound_holds(
        capacity in 1usize..5,
        lookups in prop::collection::vec(
            (9usize..13, 0usize..3, 0usize..2, 0usize..3), 1..30),
    ) {
        let cache = PlanCache::new(capacity);
        let registry = BackendRegistry::with_defaults();
        let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
        for &(n_exp, k_sel, v_sel, b_sel) in &lookups {
            let k = key(n_exp, k_sel, v_sel, b_sel);
            let plan = cache.get_or_build(&device, &registry, k).unwrap();
            // The plan handed back for this key must be *for* this key —
            // an interleaved workload must never observe another
            // geometry's filters, the wrong variant, or a plan built by
            // a different backend.
            prop_assert_eq!(plan.params().n, k.n);
            prop_assert_eq!(plan.params().k, k.k);
            prop_assert_eq!(plan.variant(), k.variant);
            prop_assert_eq!(plan.backend(), k.backend);
            // The LRU bound is an invariant, not an eventual property.
            prop_assert!(cache.stats().len <= capacity);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, lookups.len() as u64);
    }

    #[test]
    fn repeated_key_shares_one_plan(
        n_exp in 9usize..13,
        k_sel in 0usize..3,
        b_sel in 0usize..3,
        repeats in 2usize..6,
    ) {
        let cache = PlanCache::new(4);
        let registry = BackendRegistry::with_defaults();
        let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
        let k = key(n_exp, k_sel, 1, b_sel);
        let first = cache.get_or_build(&device, &registry, k).unwrap();
        for _ in 1..repeats {
            let again = cache.get_or_build(&device, &registry, k).unwrap();
            prop_assert!(Arc::ptr_eq(&first, &again),
                "hits must return the cached plan, not a rebuild");
        }
        prop_assert_eq!(cache.stats().misses, 1);
        prop_assert_eq!(cache.stats().hits, (repeats - 1) as u64);
    }
}

#[test]
fn eviction_is_strictly_lru() {
    // Deterministic companion to the property: fill a capacity-2 cache,
    // touch the older key, insert a third — the untouched key is evicted.
    let cache = PlanCache::new(2);
    let registry = BackendRegistry::with_defaults();
    let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let a = key(9, 0, 0, 0);
    let b = key(10, 0, 0, 0);
    let c = key(11, 0, 0, 0);
    cache.get_or_build(&device, &registry, a);
    cache.get_or_build(&device, &registry, b);
    cache.get_or_build(&device, &registry, a); // a most recent; b is the LRU victim
    cache.get_or_build(&device, &registry, c);
    assert_eq!(cache.stats().evictions, 1);
    cache.get_or_build(&device, &registry, a); // still resident: a hit
    assert_eq!(cache.stats().hits, 2);
    cache.get_or_build(&device, &registry, b); // evicted: a rebuild
    assert_eq!(cache.stats().misses, 4);
}

/// Regression: before the backend dimension existed, two requests with
/// the same `(n, k, variant, qos)` but different execution backends
/// aliased to one cache slot — the second requester silently received a
/// plan built by the *other* backend. The key now carries the backend,
/// so equal geometries on different backends are distinct entries that
/// never share a plan.
#[test]
fn backend_dimension_prevents_plan_aliasing() {
    let cache = PlanCache::new(8);
    let registry = BackendRegistry::with_defaults();
    let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let gpu = key(10, 1, 1, 0);
    let cpu = PlanKey {
        backend: BackendKind::SfftCpu,
        ..gpu
    };
    assert_eq!(gpu.n, cpu.n);
    assert_eq!(gpu.variant, cpu.variant);
    assert_ne!(gpu, cpu, "keys differing only in backend must not collide");

    let gpu_plan = cache.get_or_build(&device, &registry, gpu).unwrap();
    let cpu_plan = cache.get_or_build(&device, &registry, cpu).unwrap();
    assert_eq!(gpu_plan.backend(), BackendKind::GpuSim);
    assert_eq!(cpu_plan.backend(), BackendKind::SfftCpu);
    assert_eq!(
        cache.stats().misses,
        2,
        "distinct backends are distinct entries"
    );
    assert_eq!(cache.stats().len, 2);

    // Looking either key up again returns the plan built by its own
    // backend, not the other one's.
    let gpu_again = cache.get_or_build(&device, &registry, gpu).unwrap();
    assert!(Arc::ptr_eq(&gpu_plan, &gpu_again));
    assert_eq!(cache.stats().hits, 1);
}
