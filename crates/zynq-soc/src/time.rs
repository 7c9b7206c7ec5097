use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation timestamp with nanosecond resolution.
///
/// All platform components (loads, sensors, the hwmon update clock, the
/// attacker's sampling loop) share this clock, so a capture is fully
/// determined by its start time and seed — there is no wall-clock
/// dependency anywhere in the simulation.
///
/// # Examples
///
/// ```
/// use zynq_soc::SimTime;
///
/// let t = SimTime::from_ms(35);
/// assert_eq!(t.as_nanos(), 35_000_000);
/// assert_eq!(t + SimTime::from_us(500), SimTime::from_us(35_500));
/// assert!((t.as_secs_f64() - 0.035).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a timestamp from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a timestamp from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a timestamp from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a timestamp from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "time must be finite and non-negative"
        );
        SimTime((s * 1e9).round() as u64)
    }

    /// Value in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, other: SimTime) -> Option<SimTime> {
        match self.0.checked_add(other.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The instant `k` periods after this one, `self + period * k`, or
    /// `None` when it overflows the u64 nanosecond clock: the grid of
    /// every fixed-rate capture. Checking a grid's last instant checks
    /// every instant before it.
    pub const fn checked_step(self, period: SimTime, k: u64) -> Option<SimTime> {
        match period.0.checked_mul(k) {
            Some(span) => self.checked_add(SimTime(span)),
            None => None,
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self` (u64 underflow). Use
    /// [`SimTime::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_step_walks_the_grid_and_catches_overflow() {
        let start = SimTime::from_ms(5);
        let period = SimTime::from_us(250);
        assert_eq!(start.checked_step(period, 0), Some(start));
        assert_eq!(start.checked_step(period, 4), Some(SimTime::from_ms(6)));
        // The product overflows, and so does the sum alone.
        assert_eq!(
            start.checked_step(SimTime::from_nanos(u64::MAX / 2), 3),
            None
        );
        let last = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!(
            last.checked_step(SimTime::from_nanos(1), 1),
            Some(SimTime::from_nanos(u64::MAX))
        );
        assert_eq!(last.checked_step(SimTime::from_nanos(1), 2), None);
    }

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_ms(35).as_micros(), 35_000);
        assert_eq!(SimTime::from_us(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(0.001), SimTime::from_ms(1));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(10);
        let b = SimTime::from_ms(3);
        assert_eq!(a + b, SimTime::from_ms(13));
        assert_eq!(a - b, SimTime::from_ms(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ms(13));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(
            SimTime::from_nanos(u64::MAX).checked_add(SimTime::from_nanos(1)),
            None
        );
        assert_eq!(
            SimTime::from_nanos(1).checked_add(SimTime::from_nanos(2)),
            Some(SimTime::from_nanos(3))
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000000s");
    }

    sim_rt::prop_check! {
        fn ordering_consistent_with_nanos(a in 0u64..1u64 << 60, b in 0u64..1u64 << 60) {
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            assert_eq!(ta < tb, a < b);
            assert_eq!(ta == tb, a == b);
        }

        fn secs_f64_round_trip(ms in 0u64..10_000_000) {
            let t = SimTime::from_ms(ms);
            let back = SimTime::from_secs_f64(t.as_secs_f64());
            // f64 has 52 bits of mantissa; millisecond inputs survive exactly.
            assert_eq!(back, t);
        }
    }
}
