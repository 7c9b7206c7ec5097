use std::sync::Arc;

use crate::{PowerDomain, SimTime};

/// A component that draws current from the SoC's monitored rails.
///
/// Loads are queried as pure functions of simulation time: given the same
/// `t` they must report the same current (control-state changes such as
/// activating power-virus groups happen *between* electrical evaluations
/// through each load's own API, typically via atomics). This keeps the
/// two-phase solve — loads first, then rail voltage, then sensor ADCs —
/// deterministic and race-free even when an attacker thread samples
/// concurrently.
///
/// Dynamic current follows Equation 2 of the paper:
///
/// ```text
/// P_dyn = V_dd * sum I(LE, RAM, DSP, Clocks, ...)
/// ```
///
/// each load contributes one term of that sum on each domain it touches.
pub trait PowerLoad: Send + Sync {
    /// Current drawn from `domain` at time `t`, in milliamps. Loads that do
    /// not touch `domain` return 0.
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64;

    /// Current at two nearby instants in one call — the transient-aware
    /// sampling fast path (`V = V_set - I*R - L*dI/dt` needs `I` at `t` and
    /// `t - 1 µs` for every averaging step).
    ///
    /// The contract is strict bit-equality with two [`PowerLoad::current_ma`]
    /// calls: implementations may share work between the two instants (most
    /// loads quantize time into activity buckets far coarser than 1 µs, so
    /// both instants usually map to the same internal state), but the
    /// returned pair must be exactly `(current_ma(t_now), current_ma(t_prev))`.
    fn current_ma_pair(&self, t_now: SimTime, t_prev: SimTime, domain: PowerDomain) -> (f64, f64) {
        (
            self.current_ma(t_now, domain),
            self.current_ma(t_prev, domain),
        )
    }

    /// Short human-readable label for diagnostics.
    fn label(&self) -> &str {
        "load"
    }
}

impl<T: PowerLoad + ?Sized> PowerLoad for Arc<T> {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        (**self).current_ma(t, domain)
    }

    fn current_ma_pair(&self, t_now: SimTime, t_prev: SimTime, domain: PowerDomain) -> (f64, f64) {
        (**self).current_ma_pair(t_now, t_prev, domain)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// A fixed current draw on a single domain.
///
/// # Examples
///
/// ```
/// use zynq_soc::{ConstantLoad, PowerDomain, PowerLoad, SimTime};
///
/// let idle = ConstantLoad::new(PowerDomain::Ddr, 120.0);
/// assert_eq!(idle.current_ma(SimTime::ZERO, PowerDomain::Ddr), 120.0);
/// assert_eq!(idle.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantLoad {
    domain: PowerDomain,
    current_ma: f64,
    label: String,
}

impl ConstantLoad {
    /// Creates a constant load of `current_ma` milliamps on `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `current_ma` is negative.
    pub fn new(domain: PowerDomain, current_ma: f64) -> Self {
        assert!(current_ma >= 0.0, "current must be non-negative");
        ConstantLoad {
            domain,
            current_ma,
            label: format!("constant({domain})"),
        }
    }
}

impl PowerLoad for ConstantLoad {
    fn current_ma(&self, _t: SimTime, domain: PowerDomain) -> f64 {
        if domain == self.domain {
            self.current_ma
        } else {
            0.0
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Static (leakage) current of deployed-but-inactive fabric logic, with a
/// slow thermal drift.
///
/// The paper notes that "current measurements do not start from 0" because
/// inactive power-virus instances still leak (static workloads, Moradi
/// CHES'14). Leakage rises with die temperature; we model the drift as a
/// pair of slow deterministic oscillations (self-heating and ambient), so
/// long captures show realistic wander without breaking reproducibility.
///
/// # Examples
///
/// ```
/// use zynq_soc::{PowerDomain, PowerLoad, SimTime, StaticFabricLoad};
///
/// let leak = StaticFabricLoad::new(600.0, 7);
/// let i = leak.current_ma(SimTime::from_secs(1), PowerDomain::FpgaLogic);
/// assert!((i - 600.0).abs() < 600.0 * 0.02); // within the +/-1% drift
/// ```
#[derive(Debug, Clone)]
pub struct StaticFabricLoad {
    base_ma: f64,
    phase_a: f64,
    phase_b: f64,
}

impl StaticFabricLoad {
    /// Relative amplitude of each drift component.
    const DRIFT_AMPLITUDE: f64 = 0.005;
    /// Periods of the two drift components in seconds.
    const PERIOD_A_S: f64 = 41.0;
    const PERIOD_B_S: f64 = 173.0;

    /// Creates a static fabric load of `base_ma` milliamps; `seed` fixes
    /// the drift phases.
    ///
    /// # Panics
    ///
    /// Panics if `base_ma` is negative.
    pub fn new(base_ma: f64, seed: u64) -> Self {
        assert!(base_ma >= 0.0, "current must be non-negative");
        // Derive two deterministic phases from the seed (splitmix-style).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (z >> 27);
            (z % 10_000) as f64 / 10_000.0 * std::f64::consts::TAU
        };
        StaticFabricLoad {
            base_ma,
            phase_a: next(),
            phase_b: next(),
        }
    }

    /// The nominal leakage at the reference temperature.
    pub fn base_ma(&self) -> f64 {
        self.base_ma
    }
}

impl PowerLoad for StaticFabricLoad {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        if domain != PowerDomain::FpgaLogic {
            return 0.0;
        }
        let s = t.as_secs_f64();
        let drift = Self::DRIFT_AMPLITUDE
            * ((std::f64::consts::TAU * s / Self::PERIOD_A_S + self.phase_a).sin()
                + (std::f64::consts::TAU * s / Self::PERIOD_B_S + self.phase_b).sin());
        self.base_ma * (1.0 + drift)
    }

    fn label(&self) -> &str {
        "static-fabric"
    }
}

/// Sum of several loads, itself a load.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zynq_soc::{CompositeLoad, ConstantLoad, PowerDomain, PowerLoad, SimTime};
///
/// let mut rail = CompositeLoad::new();
/// rail.push(Arc::new(ConstantLoad::new(PowerDomain::FpgaLogic, 100.0)));
/// rail.push(Arc::new(ConstantLoad::new(PowerDomain::FpgaLogic, 50.0)));
/// assert_eq!(rail.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic), 150.0);
/// ```
#[derive(Clone, Default)]
pub struct CompositeLoad {
    parts: Vec<Arc<dyn PowerLoad>>,
}

impl CompositeLoad {
    /// Creates an empty composite (draws zero current).
    pub fn new() -> Self {
        CompositeLoad { parts: Vec::new() }
    }

    /// Adds a component load.
    pub fn push(&mut self, load: Arc<dyn PowerLoad>) {
        self.parts.push(load);
    }

    /// Number of component loads.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the composite has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Iterates over the component loads.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn PowerLoad>> {
        self.parts.iter()
    }
}

impl std::fmt::Debug for CompositeLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeLoad")
            .field(
                "parts",
                &self.parts.iter().map(|p| p.label()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PowerLoad for CompositeLoad {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        self.parts.iter().map(|p| p.current_ma(t, domain)).sum()
    }

    /// Single traversal of the parts for both instants.
    ///
    /// The two sums accumulate separately, each in part order, so the result
    /// is bit-identical to two independent [`CompositeLoad::current_ma`]
    /// walks — while paying the vec traversal (and each part's shared
    /// bucket lookup) only once.
    fn current_ma_pair(&self, t_now: SimTime, t_prev: SimTime, domain: PowerDomain) -> (f64, f64) {
        let mut i_now = 0.0;
        let mut i_prev = 0.0;
        for p in &self.parts {
            let (a, b) = p.current_ma_pair(t_now, t_prev, domain);
            i_now += a;
            i_prev += b;
        }
        (i_now, i_prev)
    }

    fn label(&self) -> &str {
        "composite"
    }
}

impl FromIterator<Arc<dyn PowerLoad>> for CompositeLoad {
    fn from_iter<I: IntoIterator<Item = Arc<dyn PowerLoad>>>(iter: I) -> Self {
        CompositeLoad {
            parts: iter.into_iter().collect(),
        }
    }
}

impl Extend<Arc<dyn PowerLoad>> for CompositeLoad {
    fn extend<I: IntoIterator<Item = Arc<dyn PowerLoad>>>(&mut self, iter: I) {
        self.parts.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_load_only_on_its_domain() {
        let l = ConstantLoad::new(PowerDomain::FullPowerCpu, 250.0);
        for d in PowerDomain::ALL {
            let expect = if d == PowerDomain::FullPowerCpu {
                250.0
            } else {
                0.0
            };
            assert_eq!(l.current_ma(SimTime::from_ms(5), d), expect);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn constant_load_rejects_negative() {
        let _ = ConstantLoad::new(PowerDomain::Ddr, -1.0);
    }

    #[test]
    fn static_load_is_deterministic_and_bounded() {
        let a = StaticFabricLoad::new(600.0, 42);
        let b = StaticFabricLoad::new(600.0, 42);
        for ms in (0..10_000).step_by(137) {
            let t = SimTime::from_ms(ms);
            let ia = a.current_ma(t, PowerDomain::FpgaLogic);
            assert_eq!(ia, b.current_ma(t, PowerDomain::FpgaLogic));
            assert!((ia - 600.0).abs() <= 600.0 * 0.0101);
        }
    }

    #[test]
    fn static_load_actually_drifts() {
        let l = StaticFabricLoad::new(600.0, 1);
        let i0 = l.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic);
        let i1 = l.current_ma(SimTime::from_secs(20), PowerDomain::FpgaLogic);
        assert_ne!(i0, i1);
    }

    #[test]
    fn static_load_silent_on_other_domains() {
        let l = StaticFabricLoad::new(600.0, 1);
        assert_eq!(l.current_ma(SimTime::ZERO, PowerDomain::Ddr), 0.0);
    }

    #[test]
    fn composite_sums_components() {
        let mut c = CompositeLoad::new();
        assert!(c.is_empty());
        c.push(Arc::new(ConstantLoad::new(PowerDomain::FpgaLogic, 10.0)));
        c.push(Arc::new(ConstantLoad::new(PowerDomain::FpgaLogic, 20.0)));
        c.push(Arc::new(ConstantLoad::new(PowerDomain::Ddr, 5.0)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic), 30.0);
        assert_eq!(c.current_ma(SimTime::ZERO, PowerDomain::Ddr), 5.0);
        assert_eq!(c.current_ma(SimTime::ZERO, PowerDomain::LowPowerCpu), 0.0);
    }

    #[test]
    fn composite_collects_from_iterator() {
        let loads: Vec<Arc<dyn PowerLoad>> = vec![
            Arc::new(ConstantLoad::new(PowerDomain::Ddr, 1.0)),
            Arc::new(ConstantLoad::new(PowerDomain::Ddr, 2.0)),
        ];
        let c: CompositeLoad = loads.into_iter().collect();
        assert_eq!(c.current_ma(SimTime::ZERO, PowerDomain::Ddr), 3.0);
    }

    #[test]
    fn loads_are_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompositeLoad>();
        assert_send_sync::<Arc<dyn PowerLoad>>();
    }

    sim_rt::prop_check! {
        /// The transient-pair walk must be bit-identical to two independent
        /// walks, at any instant — including bucket boundaries of the
        /// sub-loads, where the shared-evaluation shortcut must not apply.
        fn pair_walk_matches_two_walks(ns in 0u64..10_000_000_000u64) {
            let mut c = CompositeLoad::new();
            c.push(Arc::new(StaticFabricLoad::new(480.0, 3)));
            c.push(Arc::new(crate::cpu::CpuBackgroundLoad::new(
                crate::cpu::CpuActivityConfig::default(),
                4,
            )));
            c.push(Arc::new(ConstantLoad::new(PowerDomain::Ddr, 140.0)));
            let t_now = SimTime::from_nanos(ns);
            let t_prev = t_now.saturating_sub(SimTime::from_us(1));
            for d in PowerDomain::ALL {
                let (a, b) = c.current_ma_pair(t_now, t_prev, d);
                assert_eq!(a.to_bits(), c.current_ma(t_now, d).to_bits());
                assert_eq!(b.to_bits(), c.current_ma(t_prev, d).to_bits());
            }
        }

        fn composite_sum_matches_manual(
            currents in sim_rt::check::vec_of(0.0f64..1e4, 0..10)
        ) {
            let mut c = CompositeLoad::new();
            for &i in &currents {
                c.push(Arc::new(ConstantLoad::new(PowerDomain::FpgaLogic, i)));
            }
            let total: f64 = currents.iter().sum();
            let got = c.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic);
            assert!((got - total).abs() < 1e-9);
        }
    }
}
