//! Deterministic fault injection.
//!
//! A [`FaultConfig`] installed on a [`crate::device::GpuDevice`] makes the
//! simulator inject the failure modes of the paper's K20x test-bench
//! (device OOM against the 6 GB capacity, PCIe transfer errors, kernel
//! launch failures and watchdog timeouts, ECC-detected corruption) as
//! **typed errors** from the device's `try_*` entry points.
//!
//! Determinism is the whole design: whether op number `i` of fault scope
//! `s` faults is a *pure function* of `(seed, s, i, fault class)` — a
//! splitmix64 hash compared against the class's rate. No wall clock, no
//! OS randomness, no dependence on host-thread scheduling. Identical
//! `(workload, fault seed)` therefore replays an identical fault
//! timeline at any `CUSFFT_HOST_THREADS` or serve-worker width, which is
//! what lets `tests/fault_injection.rs` pin recovery behaviour
//! bit-for-bit.
//!
//! **Scopes** decouple fault decisions from physical devices: the serving
//! layer executes request group `g` under fault scope `g` regardless of
//! which worker (and hence which private device) runs it, so the set of
//! injected faults — and every recovery decision downstream of it — is
//! invariant to the worker count.
//!
//! Every injected fault is recorded as an op on the simulated timeline
//! (label `fault:<kind>:<what>`), charging the work the failure wasted:
//! a failed transfer occupied the copy engine for its full duration, a
//! timed-out kernel held the device for the watchdog window, a failed
//! launch burned its launch overhead. Faults are therefore *observable*
//! in makespans and profiler reports, not silent control flow.

/// The operation classes faults attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Tracked device allocation (`try_alloc_zeroed`, `try_resident`,
    /// the allocation half of `try_htod`).
    Alloc,
    /// Host→device copy.
    H2d,
    /// Device→host copy.
    D2h,
    /// Kernel launch (map/foreach/modelled device op).
    Launch,
    /// Kernel watchdog timeout.
    Timeout,
    /// ECC-detected corruption on a device→host read.
    Ecc,
    /// Silent data corruption: a device→host read *succeeds* but one
    /// element of the returned payload has a high bit flipped. Unlike
    /// every other class this is not a typed error — the caller sees
    /// `Ok` with wrong data, and only a result-integrity check (the
    /// serving layer's sampled residual check) can catch it.
    Sdc,
    /// Whole-device loss: the device goes dark mid-epoch (XID-style
    /// bus drop / firmware hang). Unlike the per-op classes above this
    /// is never rolled by `FaultState::decide` on the op path — the
    /// fleet layer rolls it directly via [`fault_roll`] at epoch
    /// granularity with the member's device scope, so enabling it can
    /// never shift the per-op fault timeline of existing workloads.
    DeviceLoss,
}

impl FaultClass {
    /// Every fault class, in salt order — the enumeration axis chaos
    /// schedules sweep their per-class rate grid over.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Alloc,
        FaultClass::H2d,
        FaultClass::D2h,
        FaultClass::Launch,
        FaultClass::Timeout,
        FaultClass::Ecc,
        FaultClass::Sdc,
        FaultClass::DeviceLoss,
    ];

    /// Stable per-class salt for the decision hash.
    fn salt(self) -> u64 {
        match self {
            FaultClass::Alloc => 0x01,
            FaultClass::H2d => 0x02,
            FaultClass::D2h => 0x03,
            FaultClass::Launch => 0x04,
            FaultClass::Timeout => 0x05,
            FaultClass::Ecc => 0x06,
            FaultClass::Sdc => 0x07,
            FaultClass::DeviceLoss => 0x08,
        }
    }

    /// Short label used in timeline op names (`fault:<label>:…`).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Alloc => "oom",
            FaultClass::H2d => "htod",
            FaultClass::D2h => "dtoh",
            FaultClass::Launch => "launch",
            FaultClass::Timeout => "timeout",
            FaultClass::Ecc => "ecc",
            FaultClass::Sdc => "sdc",
            FaultClass::DeviceLoss => "device_loss",
        }
    }
}

/// Injection rates per fault class, plus the seed that makes the plan a
/// pure function.
///
/// A rate of `0.0` disables the class, `1.0` makes every applicable op
/// fail (a *persistent* device failure — the serving layer's cue to
/// degrade to the CPU path). Small rates model transient faults that
/// bounded retry rides out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan. Same seed → same fault timeline, always.
    pub seed: u64,
    /// Device allocation failures (on top of real capacity exhaustion).
    pub oom_rate: f64,
    /// Host→device transfer failures.
    pub h2d_rate: f64,
    /// Device→host transfer failures.
    pub d2h_rate: f64,
    /// Kernel launch failures (fail before any block executes).
    pub launch_rate: f64,
    /// Kernel watchdog timeouts.
    pub timeout_rate: f64,
    /// ECC-detected corruption on device→host reads.
    pub ecc_rate: f64,
    /// Silent data corruption on device→host reads: the transfer
    /// succeeds but one element of the payload comes back with a high
    /// bit flipped. Off by default (including in [`FaultConfig::uniform`]
    /// / [`FaultConfig::persistent`]) — opt in with
    /// [`FaultConfig::with_sdc`].
    pub sdc_rate: f64,
    /// Whole-device loss per scheduling epoch. Off by default (including
    /// in [`FaultConfig::uniform`] / [`FaultConfig::persistent`]) — opt
    /// in with [`FaultConfig::with_device_loss`]. Rolled by the fleet
    /// layer per `(device scope, epoch)`, never on the op path, so
    /// enabling it does not shift per-op fault decisions.
    pub device_loss_rate: f64,
    /// Simulated seconds a timed-out kernel holds the device before the
    /// watchdog kills it (charged on the timeline).
    pub timeout_s: f64,
}

/// A full per-class rate vector — the *explicit schedule* form of a
/// fault plan. [`FaultConfig::uniform`]/[`FaultConfig::persistent`]
/// cover the common presets; a chaos explorer instead enumerates rate
/// vectors directly and turns each into a plan with
/// [`FaultConfig::from_rates`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Device allocation failures.
    pub oom: f64,
    /// Host→device transfer failures.
    pub h2d: f64,
    /// Device→host transfer failures.
    pub d2h: f64,
    /// Kernel launch failures.
    pub launch: f64,
    /// Kernel watchdog timeouts.
    pub timeout: f64,
    /// ECC-detected corruption.
    pub ecc: f64,
    /// Silent data corruption (payload bit flips, no typed error).
    pub sdc: f64,
    /// Whole-device loss per scheduling epoch (fleet-level).
    pub device_loss: f64,
}

impl FaultRates {
    /// All classes off.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Every *typed-error* class at `rate` (SDC and device loss stay
    /// off, mirroring [`FaultConfig::uniform`]).
    pub fn uniform(rate: f64) -> Self {
        FaultRates {
            oom: rate,
            h2d: rate,
            d2h: rate,
            launch: rate,
            timeout: rate,
            ecc: rate,
            sdc: 0.0,
            device_loss: 0.0,
        }
    }

    /// A one-hot vector: only `class` fires, at `rate`.
    pub fn one_hot(class: FaultClass, rate: f64) -> Self {
        let mut r = Self::zero();
        r.set(class, rate);
        r
    }

    /// Rate for one class.
    pub fn get(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::Alloc => self.oom,
            FaultClass::H2d => self.h2d,
            FaultClass::D2h => self.d2h,
            FaultClass::Launch => self.launch,
            FaultClass::Timeout => self.timeout,
            FaultClass::Ecc => self.ecc,
            FaultClass::Sdc => self.sdc,
            FaultClass::DeviceLoss => self.device_loss,
        }
    }

    /// Sets the rate for one class.
    pub fn set(&mut self, class: FaultClass, rate: f64) {
        match class {
            FaultClass::Alloc => self.oom = rate,
            FaultClass::H2d => self.h2d = rate,
            FaultClass::D2h => self.d2h = rate,
            FaultClass::Launch => self.launch = rate,
            FaultClass::Timeout => self.timeout = rate,
            FaultClass::Ecc => self.ecc = rate,
            FaultClass::Sdc => self.sdc = rate,
            FaultClass::DeviceLoss => self.device_loss = rate,
        }
    }

    /// Whether every class is off.
    pub fn is_zero(&self) -> bool {
        FaultClass::ALL.iter().all(|&c| self.get(c) == 0.0)
    }
}

/// Deterministic host-crash plan — the "crash hook" crash-consistency
/// tests arm. The journaled serving layer polls [`CrashPlan::fires_at`]
/// at every epoch boundary and kills the run (discarding the journal's
/// unflushed tail, exactly as a power loss would) when the epoch
/// matches. Purely declarative, so a chaos schedule can name an exact
/// kill point and replay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashPlan {
    /// Epoch index at which the host dies; `None` never crashes.
    pub at_epoch: Option<u64>,
}

impl CrashPlan {
    /// A plan that kills the run at epoch `e`.
    pub fn at_epoch(e: u64) -> Self {
        CrashPlan { at_epoch: Some(e) }
    }

    /// A plan that never fires.
    pub fn never() -> Self {
        Self::default()
    }

    /// Whether the host dies at `epoch`.
    #[must_use = "ignoring the crash decision defeats the crash plan"]
    pub fn fires_at(&self, epoch: u64) -> bool {
        self.at_epoch == Some(epoch)
    }
}

impl FaultConfig {
    /// A fault plan from an explicit per-class rate vector — the
    /// constructor chaos schedules use, bypassing the presets.
    pub fn from_rates(seed: u64, rates: FaultRates) -> Self {
        FaultConfig {
            seed,
            oom_rate: rates.oom,
            h2d_rate: rates.h2d,
            d2h_rate: rates.d2h,
            launch_rate: rates.launch,
            timeout_rate: rates.timeout,
            ecc_rate: rates.ecc,
            sdc_rate: rates.sdc,
            device_loss_rate: rates.device_loss,
            timeout_s: 1e-3,
        }
    }

    /// This plan's rate vector, round-trippable through
    /// [`FaultConfig::from_rates`].
    pub fn rates(&self) -> FaultRates {
        FaultRates {
            oom: self.oom_rate,
            h2d: self.h2d_rate,
            d2h: self.d2h_rate,
            launch: self.launch_rate,
            timeout: self.timeout_rate,
            ecc: self.ecc_rate,
            sdc: self.sdc_rate,
            device_loss: self.device_loss_rate,
        }
    }

    /// Uniform transient faults: every class fires at `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            oom_rate: rate,
            h2d_rate: rate,
            d2h_rate: rate,
            launch_rate: rate,
            timeout_rate: rate,
            ecc_rate: rate,
            sdc_rate: 0.0,
            device_loss_rate: 0.0,
            timeout_s: 1e-3,
        }
    }

    /// Enables silent-data-corruption injection at `rate`. Kept out of
    /// [`FaultConfig::uniform`] because SDC changes *payloads*, not
    /// control flow: workloads without an integrity check downstream
    /// would silently produce wrong answers rather than exercise
    /// recovery.
    pub fn with_sdc(mut self, rate: f64) -> Self {
        self.sdc_rate = rate;
        self
    }

    /// Enables whole-device loss at `rate` per scheduling epoch. Kept
    /// out of [`FaultConfig::uniform`] because device loss is a fleet-
    /// level event: only the fleet router can do anything about it
    /// (failover), and single-device workloads enabling it would simply
    /// dead-end.
    pub fn with_device_loss(mut self, rate: f64) -> Self {
        self.device_loss_rate = rate;
        self
    }

    /// A persistently broken device: every operation faults. Retry can
    /// never succeed; only CPU fallback completes requests.
    pub fn persistent(seed: u64) -> Self {
        Self::uniform(seed, 1.0)
    }

    /// Rate for one class.
    pub fn rate(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::Alloc => self.oom_rate,
            FaultClass::H2d => self.h2d_rate,
            FaultClass::D2h => self.d2h_rate,
            FaultClass::Launch => self.launch_rate,
            FaultClass::Timeout => self.timeout_rate,
            FaultClass::Ecc => self.ecc_rate,
            FaultClass::Sdc => self.sdc_rate,
            FaultClass::DeviceLoss => self.device_loss_rate,
        }
    }
}

/// splitmix64 — tiny, well-mixed, and already the idiom the vendored
/// `rand` uses for seeding.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The decision function: uniform in `[0, 1)` as a pure function of
/// `(seed, scope, ordinal, class)`.
pub fn fault_roll(seed: u64, scope: u64, ordinal: u64, class: FaultClass) -> f64 {
    let h = splitmix64(seed ^ splitmix64(scope ^ splitmix64(ordinal ^ (class.salt() << 56))));
    // 53 mantissa bits → exact double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Entropy accompanying a fault decision — the corruption site for SDC
/// (element index, bit choice). Salted differently from every decision
/// roll so it is independent of *whether* the fault fired.
fn corruption_entropy(seed: u64, scope: u64, ordinal: u64) -> u64 {
    splitmix64(seed ^ splitmix64(scope ^ splitmix64(ordinal ^ (0x5D << 56))))
}

/// Payload types a device→host transfer can return, with their silent-
/// data-corruption behaviour. Integer payloads (bucket indices,
/// permutation tables, vote counters) are declared immune: flipping a
/// bit of an index produces loud downstream failures (out-of-range
/// hits), not the *silent* wrong-answer mode this fault class models —
/// floating-point spectra are where SDC hides.
pub trait SdcTarget: Sized {
    /// Whether SDC injection applies to this payload type.
    const SUSCEPTIBLE: bool = false;
    /// Flips a high-order bit chosen by `entropy`. Only called on
    /// susceptible types.
    fn corrupt(&mut self, _entropy: u64) {}
}

macro_rules! sdc_immune {
    ($($t:ty),* $(,)?) => { $(impl SdcTarget for $t {})* };
}
sdc_immune!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Flips one of the nine highest bits (top mantissa bits, exponent,
/// sign) of an `f64`, so the corrupted value differs from the original
/// by at least ~half its magnitude — the "stuck DRAM cell in the result
/// buffer" failure mode, not a rounding-level perturbation.
fn flip_high_bit(v: f64, entropy: u64) -> f64 {
    let bit = 55 + (entropy % 9) as u32;
    f64::from_bits(v.to_bits() ^ (1u64 << bit))
}

impl SdcTarget for f64 {
    const SUSCEPTIBLE: bool = true;
    fn corrupt(&mut self, entropy: u64) {
        *self = flip_high_bit(*self, entropy);
    }
}

impl SdcTarget for fft::cplx::Cplx {
    const SUSCEPTIBLE: bool = true;
    fn corrupt(&mut self, entropy: u64) {
        if entropy & (1 << 16) == 0 {
            self.re = flip_high_bit(self.re, entropy >> 17);
        } else {
            self.im = flip_high_bit(self.im, entropy >> 17);
        }
    }
}

/// Mutable per-device injection state: the config plus the current scope
/// and the op ordinal within it. Lives inside the device's state mutex so
/// ordinals are assigned in op-enqueue order.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) config: FaultConfig,
    scope: u64,
    ordinal: u64,
    injected: u64,
}

impl FaultState {
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultState {
            config,
            scope: 0,
            ordinal: 0,
            injected: 0,
        }
    }

    /// Enters fault scope `scope` and restarts the op ordinal, so the
    /// decisions taken inside the scope depend only on the scope id and
    /// the op sequence within it — not on what ran before on this device.
    pub(crate) fn set_scope(&mut self, scope: u64) {
        self.scope = scope;
        self.ordinal = 0;
    }

    /// Takes the decision for the next device op. `classes` lists the
    /// fault classes applicable to the op in priority order; the first
    /// one whose roll comes in under its rate fires. Exactly one ordinal
    /// is consumed whether or not a fault fires — adding or removing a
    /// class from the list therefore never shifts later decisions. The
    /// returned entropy locates the corruption for SDC faults and is
    /// itself a pure function of `(seed, scope, ordinal)`.
    pub(crate) fn decide(&mut self, classes: &[FaultClass]) -> Option<(FaultClass, u64)> {
        let ordinal = self.ordinal;
        self.ordinal += 1;
        for &class in classes {
            let rate = self.config.rate(class);
            if rate > 0.0 && fault_roll(self.config.seed, self.scope, ordinal, class) < rate {
                self.injected += 1;
                let entropy = corruption_entropy(self.config.seed, self.scope, ordinal);
                return Some((class, entropy));
            }
        }
        None
    }

    /// Total faults injected since the plan was installed.
    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_round_trip_through_from_rates() {
        let mut rates = FaultRates::zero();
        for (i, &c) in FaultClass::ALL.iter().enumerate() {
            rates.set(c, 0.1 * (i + 1) as f64);
        }
        let cfg = FaultConfig::from_rates(9, rates);
        assert_eq!(cfg.rates(), rates);
        for &c in &FaultClass::ALL {
            assert_eq!(cfg.rate(c), rates.get(c));
        }
        assert!(!rates.is_zero());
        assert!(FaultRates::zero().is_zero());
        let hot = FaultRates::one_hot(FaultClass::Launch, 0.5);
        assert_eq!(hot.get(FaultClass::Launch), 0.5);
        assert_eq!(hot.get(FaultClass::Timeout), 0.0);
        // uniform() leaves the payload/fleet classes off, like the preset.
        assert_eq!(FaultRates::uniform(0.2).sdc, 0.0);
        assert_eq!(FaultRates::uniform(0.2).device_loss, 0.0);
    }

    #[test]
    fn crash_plan_fires_exactly_at_its_epoch() {
        assert!(!CrashPlan::never().fires_at(0));
        let p = CrashPlan::at_epoch(3);
        assert!(!p.fires_at(2));
        assert!(p.fires_at(3));
        assert!(!p.fires_at(4));
    }

    #[test]
    fn roll_is_a_pure_function() {
        for (seed, scope, ord) in [(0u64, 0u64, 0u64), (1, 2, 3), (u64::MAX, 7, 99)] {
            let a = fault_roll(seed, scope, ord, FaultClass::Launch);
            let b = fault_roll(seed, scope, ord, FaultClass::Launch);
            assert_eq!(a.to_bits(), b.to_bits());
            assert!((0.0..1.0).contains(&a));
        }
    }

    #[test]
    fn classes_roll_independently() {
        // Same coordinates, different classes → different rolls (salted).
        let a = fault_roll(42, 0, 0, FaultClass::Launch);
        let b = fault_roll(42, 0, 0, FaultClass::Timeout);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn rates_are_respected_statistically() {
        let cfg = FaultConfig::uniform(7, 0.25);
        let mut st = FaultState::new(cfg);
        let mut fired = 0;
        let trials = 4000;
        for _ in 0..trials {
            if st.decide(&[FaultClass::Launch]).is_some() {
                fired += 1;
            }
        }
        let frac = fired as f64 / trials as f64;
        assert!(
            (0.2..0.3).contains(&frac),
            "25% rate produced {frac} over {trials} trials"
        );
        assert_eq!(st.injected(), fired);
    }

    #[test]
    fn persistent_config_always_fires() {
        let mut st = FaultState::new(FaultConfig::persistent(3));
        for _ in 0..100 {
            assert!(st.decide(&[FaultClass::Launch, FaultClass::Timeout]).is_some());
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut st = FaultState::new(FaultConfig::uniform(3, 0.0));
        for _ in 0..1000 {
            assert_eq!(st.decide(&[FaultClass::Alloc, FaultClass::Ecc]), None);
        }
        assert_eq!(st.injected(), 0);
    }

    #[test]
    fn sdc_is_opt_in_and_independent() {
        // uniform()/persistent() leave SDC off — PR 3's bit-identity
        // tests rely on that.
        assert_eq!(FaultConfig::uniform(1, 0.5).sdc_rate, 0.0);
        assert_eq!(FaultConfig::persistent(1).sdc_rate, 0.0);
        let cfg = FaultConfig::uniform(1, 0.0).with_sdc(1.0);
        let mut st = FaultState::new(cfg);
        // SDC only fires when listed as applicable.
        assert_eq!(st.decide(&[FaultClass::D2h, FaultClass::Ecc]), None);
        let hit = st.decide(&[FaultClass::D2h, FaultClass::Ecc, FaultClass::Sdc]);
        assert_eq!(hit.map(|(c, _)| c), Some(FaultClass::Sdc));
    }

    #[test]
    fn device_loss_is_opt_in_and_off_the_op_path() {
        // uniform()/persistent() leave device loss off, and enabling it
        // never shifts op-path decisions because decide() never lists it.
        assert_eq!(FaultConfig::uniform(1, 0.5).device_loss_rate, 0.0);
        assert_eq!(FaultConfig::persistent(1).device_loss_rate, 0.0);
        let cfg = FaultConfig::uniform(1, 0.3);
        let mut a = FaultState::new(cfg);
        let mut b = FaultState::new(cfg.with_device_loss(1.0));
        for _ in 0..200 {
            assert_eq!(
                a.decide(&[FaultClass::Launch, FaultClass::Timeout]),
                b.decide(&[FaultClass::Launch, FaultClass::Timeout])
            );
        }
        // The fleet rolls it directly; the roll is pure and class-salted.
        assert_eq!(FaultClass::DeviceLoss.label(), "device_loss");
        let r = fault_roll(7, 42, 0, FaultClass::DeviceLoss);
        assert_eq!(r.to_bits(), fault_roll(7, 42, 0, FaultClass::DeviceLoss).to_bits());
        assert_ne!(
            r.to_bits(),
            fault_roll(7, 42, 0, FaultClass::Timeout).to_bits()
        );
    }

    #[test]
    fn listing_sdc_never_shifts_other_decisions() {
        // One ordinal per decide() regardless of the class list, and
        // per-class salted rolls: adding Sdc to an op's class list must
        // not change what the other classes do.
        let cfg = FaultConfig::uniform(9, 0.3);
        let mut a = FaultState::new(cfg);
        let mut b = FaultState::new(cfg.with_sdc(0.0));
        for _ in 0..200 {
            let ra = a.decide(&[FaultClass::D2h, FaultClass::Ecc]);
            let rb = b.decide(&[FaultClass::D2h, FaultClass::Ecc, FaultClass::Sdc]);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn corruption_flips_a_high_bit() {
        // A high-bit flip moves the value by at least half its magnitude
        // (possibly to NaN/Inf when the exponent tops out) — never a
        // rounding-level nudge. NaN deltas count as (very) corrupted.
        for e in 0..64u64 {
            let mut v = 1.25f64;
            v.corrupt(e);
            let dv = (v - 1.25).abs();
            assert!(dv.is_nan() || dv >= 0.5, "entropy {e} gave weak flip: {v}");
            let mut c = fft::cplx::Cplx::new(1.0, -1.0);
            c.corrupt(e);
            let dc = c.dist(fft::cplx::Cplx::new(1.0, -1.0));
            assert!(dc.is_nan() || dc >= 0.5);
        }
    }

    #[test]
    fn scope_reset_replays_the_same_decisions() {
        let cfg = FaultConfig::uniform(11, 0.3);
        let take = |st: &mut FaultState| -> Vec<Option<(FaultClass, u64)>> {
            (0..50).map(|_| st.decide(&[FaultClass::Launch])).collect()
        };
        let mut a = FaultState::new(cfg);
        a.set_scope(5);
        let first = take(&mut a);
        // Different history before re-entering the scope must not matter.
        let mut b = FaultState::new(cfg);
        b.set_scope(9);
        let _ = take(&mut b);
        b.set_scope(5);
        let second = take(&mut b);
        assert_eq!(first, second);
    }

    #[test]
    fn scopes_decouple() {
        let cfg = FaultConfig::uniform(11, 0.5);
        let mut a = FaultState::new(cfg);
        a.set_scope(0);
        let ra: Vec<_> = (0..64).map(|_| a.decide(&[FaultClass::Launch])).collect();
        let mut b = FaultState::new(cfg);
        b.set_scope(1);
        let rb: Vec<_> = (0..64).map(|_| b.decide(&[FaultClass::Launch])).collect();
        assert_ne!(ra, rb, "distinct scopes should see distinct fault timelines");
    }

    #[test]
    fn priority_order_picks_first_firing_class() {
        // With rate 1.0 everywhere, the first listed class wins.
        let mut st = FaultState::new(FaultConfig::persistent(0));
        assert_eq!(
            st.decide(&[FaultClass::Timeout, FaultClass::Launch])
                .map(|(c, _)| c),
            Some(FaultClass::Timeout)
        );
        assert_eq!(
            st.decide(&[FaultClass::Launch, FaultClass::Timeout])
                .map(|(c, _)| c),
            Some(FaultClass::Launch)
        );
    }
}
