use sim_rt::lockorder::TrackedMutex;
use std::sync::Arc;

use ina226::{Config, Ina226, Readouts};
use zynq_soc::SimTime;

/// Source of the true electrical operating point of a monitored rail.
///
/// The platform wires each hwmon device to the rail its INA226 sits on;
/// `operating_point` returns `(current_amps, bus_volts)` at a simulation
/// instant. Implementations must be cheap — the sensor calls this once per
/// averaging step of every conversion.
pub trait RailProbe: Send + Sync {
    /// True rail current (A) and bus voltage (V) at time `t`.
    fn operating_point(&self, t: SimTime) -> (f64, f64);

    /// The operating points of every instant in `times` — the batched
    /// form a conversion uses to evaluate all of its averaging steps in
    /// one call, letting implementations hoist per-call work (locks,
    /// table lookups) out of the step loop.
    ///
    /// Implementations must return exactly what mapping
    /// [`operating_point`](Self::operating_point) over `times` would —
    /// bit-for-bit, element for element.
    fn operating_points(&self, times: &[SimTime]) -> Vec<(f64, f64)> {
        times.iter().map(|&t| self.operating_point(t)).collect()
    }
}

impl<F> RailProbe for F
where
    F: Fn(SimTime) -> (f64, f64) + Send + Sync,
{
    fn operating_point(&self, t: SimTime) -> (f64, f64) {
        self(t)
    }
}

/// A countermeasure installed on a device's sensing path.
///
/// Defense layers (see the `sim-defend` crate) hook the three stages of a
/// conversion: *when* the update boundary falls, the *analog* operating
/// points the sensor averages, and the *digital* readouts it latches. Every
/// hook has an identity default, must be deterministic (a pure function of
/// its arguments plus any state the implementation seeds itself), and sees
/// the conversion's window index so stateless implementations can derive
/// per-window randomness.
///
/// A device without a defense installed pays only an `Option` check on the
/// value-hold fast path.
pub trait SensorDefense: Send + Sync {
    /// Shifts the update boundary of window `window` forward by up to one
    /// interval (returned nanoseconds are clamped to `interval_ns - 1`),
    /// dithering the driver's otherwise perfectly periodic update clock.
    fn boundary_offset_ns(&self, _device: &str, _window: u64, _interval_ns: u64) -> u64 {
        0
    }

    /// Perturbs the `(current_amps, bus_volts)` averaging steps of a
    /// conversion before the sensor sees them — analog-domain injection.
    fn perturb_steps(&self, _device: &str, _window: u64, _steps: &mut [(f64, f64)]) {}

    /// Rewrites the integer readouts latched by a conversion — digital
    /// post-processing (quantization widening, throttling). Value-hold
    /// reads serve the transformed copy.
    fn transform(&self, _device: &str, _window: u64, readouts: Readouts) -> Readouts {
        readouts
    }
}

/// One `hwmonN` device: an INA226 plus the Linux driver's conversion
/// clocking and unit formatting.
///
/// The device latches a new conversion at every multiple of its update
/// interval; reads between updates return the held value, exactly like the
/// real driver's cached register reads.
pub struct HwmonDevice {
    name: String,
    sensor: TrackedMutex<Ina226>,
    rail: Arc<dyn RailProbe>,
    state: TrackedMutex<ClockState>,
    /// Installed countermeasure, if any. Plain data set through `&mut`
    /// (no lock): defenses are installed while the platform is being
    /// hardened, before any concurrent sampling.
    defense: Option<Arc<dyn SensorDefense>>,
}

impl std::fmt::Debug for HwmonDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwmonDevice")
            .field("name", &self.name)
            .field("state", &*self.state.lock())
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone, Copy)]
struct ClockState {
    update_interval_ms: u64,
    /// The update interval in nanoseconds, precomputed so the per-read
    /// boundary schedule is two integer ops with no unit conversion.
    interval_ns: u64,
    /// Update boundary of the most recent conversion.
    last_boundary: Option<SimTime>,
    /// Integer hwmon readouts latched at `last_boundary`. Value-hold reads
    /// are served from this copy under the (cheap, uncontended) clock lock
    /// without ever touching the sensor mutex.
    latched: Readouts,
}

/// Default hwmon update interval (Section III-C: "the default updating
/// interval is set to 35 ms").
pub const DEFAULT_UPDATE_INTERVAL_MS: u64 = 35;

/// Smallest / largest configurable update interval (Section III-C: "a
/// configurable updating interval between 2 and 35 ms"; the driver accepts
/// larger values too, we cap at 1 s for sanity).
pub const MIN_UPDATE_INTERVAL_MS: u64 = 2;

impl HwmonDevice {
    /// Creates a device named `name` monitoring `rail` through a shunt of
    /// `shunt_ohm` with the given current LSB.
    ///
    /// # Panics
    ///
    /// Panics on invalid shunt/LSB values (see [`Ina226::new`]).
    pub fn new(
        name: impl Into<String>,
        shunt_ohm: f64,
        current_lsb_a: f64,
        rail: Arc<dyn RailProbe>,
        seed: u64,
    ) -> Self {
        let mut sensor = Ina226::new(shunt_ohm, current_lsb_a, seed);
        sensor.set_config(Config::for_update_interval_ms(DEFAULT_UPDATE_INTERVAL_MS));
        HwmonDevice {
            name: name.into(),
            sensor: TrackedMutex::new("hwmon.sensor", sensor),
            rail,
            state: TrackedMutex::new(
                "hwmon.clock",
                ClockState {
                    update_interval_ms: DEFAULT_UPDATE_INTERVAL_MS,
                    interval_ns: SimTime::from_ms(DEFAULT_UPDATE_INTERVAL_MS).as_nanos(),
                    last_boundary: None,
                    latched: Readouts::default(),
                },
            ),
            defense: None,
        }
    }

    /// Installs (or with `None` removes) a [`SensorDefense`] on this
    /// device's sensing path and invalidates the latched conversion so the
    /// next read goes through the new hooks.
    pub fn set_defense(&mut self, defense: Option<Arc<dyn SensorDefense>>) {
        self.defense = defense;
        self.state.lock().last_boundary = None;
    }

    /// Device name (the `name` attribute, e.g. "ina226_u79").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current update interval in milliseconds.
    pub fn update_interval_ms(&self) -> u64 {
        self.state.lock().update_interval_ms
    }

    /// Sets the update interval (the root-only `update_interval` write).
    /// Values are clamped to the supported range; the sensor's averaging
    /// configuration is re-derived like the Linux driver does.
    pub fn set_update_interval_ms(&self, ms: u64) {
        let ms = ms.clamp(MIN_UPDATE_INTERVAL_MS, 1_000);
        let mut state = self.state.lock();
        state.update_interval_ms = ms;
        state.interval_ns = SimTime::from_ms(ms).as_nanos();
        state.last_boundary = None;
        self.sensor
            .lock()
            .set_config(Config::for_update_interval_ms(ms));
    }

    /// The update boundary whose conversion a read at `now` sees: the
    /// last multiple of `interval` at or before `now`, or with a defense
    /// installed, its jittered counterpart. Per-read and run reads share
    /// this one function, so both convert at the same instants.
    fn boundary(&self, interval: u64, now: SimTime) -> SimTime {
        match &self.defense {
            None => SimTime::from_nanos(now.as_nanos() / interval * interval),
            Some(d) => {
                // Jittered update clock: the boundary of window `w` moves
                // forward by the defense's per-window offset. A read that
                // lands before its own window's (shifted) boundary still
                // sees the previous window's conversion.
                let shifted = |w: u64| {
                    let off = d
                        .boundary_offset_ns(&self.name, w, interval)
                        .min(interval.saturating_sub(1));
                    w * interval + off
                };
                let w = now.as_nanos() / interval;
                let candidate = shifted(w);
                if now.as_nanos() >= candidate {
                    SimTime::from_nanos(candidate)
                } else if w == 0 {
                    SimTime::ZERO
                } else {
                    SimTime::from_nanos(shifted(w - 1))
                }
            }
        }
    }

    /// Runs the conversion whose window ends at `boundary` and latches its
    /// readouts into `state`. The caller holds the clock lock, so the lock
    /// order stays `hwmon.clock` -> `hwmon.sensor`.
    fn convert(&self, state: &mut ClockState, boundary: SimTime) {
        let mut sensor = self.sensor.lock();
        let n = sensor.config().avg.samples() as u64;
        let cycle = SimTime::from_us(sensor.config().cycle_micros());
        let start = boundary.saturating_sub(cycle);
        let step_ns = cycle.as_nanos().max(1) / n.max(1);
        let times: Vec<SimTime> = (0..n)
            .map(|k| start + SimTime::from_nanos(k * step_ns))
            .collect();
        let mut points = self.rail.operating_points(&times);
        if let Some(d) = &self.defense {
            let window = boundary.as_nanos() / state.interval_ns;
            d.perturb_steps(&self.name, window, &mut points);
            sensor.convert(points);
            state.latched = d.transform(&self.name, window, sensor.readouts());
        } else {
            sensor.convert(points);
            state.latched = sensor.readouts();
        }
        state.last_boundary = Some(boundary);
    }

    /// Ensures the latched readouts reflect the conversion whose window
    /// ends at the last update boundary before `now`, and returns them.
    ///
    /// The value-hold path (a read inside the window of the latest
    /// conversion) is a single short clock-lock hold: boundary arithmetic
    /// on the precomputed interval, one comparison, and a copy of the
    /// latched integers — the sensor mutex is never taken. Only a read
    /// that crosses into a new window pays for a conversion.
    fn refresh(&self, now: SimTime) -> Readouts {
        let mut state = self.state.lock();
        let boundary = self.boundary(state.interval_ns, now);
        if state.last_boundary == Some(boundary) {
            // The driver's cached-register path: the read waits on no new
            // conversion and returns the held value.
            obs::counter!("hwmon.reads.held").inc();
            obs::counter!("sampler.reads.held_fastpath").inc();
            return state.latched;
        }
        obs::counter!("hwmon.reads.fresh").inc();
        self.convert(&mut state, boundary);
        state.latched
    }

    /// The run form of `reads_per_instant` consecutive measurement reads
    /// at each of `count` instants `start + k * period`: one clock-lock
    /// hold for the whole window, a conversion exactly where
    /// [`refresh`](Self::refresh) would convert (the first read of an
    /// instant past a new boundary), and `visit` handed the latched
    /// readouts of every instant. The held/fresh counters end at the
    /// totals the per-read loop leaves. The caller has checked that the
    /// window's last instant fits the clock.
    pub(crate) fn read_run(
        &self,
        start: SimTime,
        period: SimTime,
        count: usize,
        reads_per_instant: usize,
        mut visit: impl FnMut(&Readouts),
    ) {
        let mut state = self.state.lock();
        let interval = state.interval_ns;
        let mut conversions = 0u64;
        let mut now = start;
        for k in 0..count {
            if k > 0 {
                now += period;
            }
            let boundary = self.boundary(interval, now);
            if state.last_boundary != Some(boundary) {
                self.convert(&mut state, boundary);
                conversions += 1;
            }
            visit(&state.latched);
        }
        let held = (count * reads_per_instant) as u64 - conversions;
        obs::counter!("hwmon.reads.fresh").add(conversions);
        obs::counter!("hwmon.reads.held").add(held);
        obs::counter!("sampler.reads.held_fastpath").add(held);
    }

    /// `curr1_input`: latched current in mA (driver rounds to mA — the
    /// paper's "resolution of +/-1 mA").
    pub fn curr1_input(&self, now: SimTime) -> i64 {
        self.refresh(now).curr1_ma
    }

    /// `in0_input`: latched shunt voltage in mV (2.5 µV register LSB, so
    /// typically a small single-digit value — the Linux driver rounds to
    /// mV here too).
    pub fn in0_input(&self, now: SimTime) -> i64 {
        self.refresh(now).in0_mv
    }

    /// `in1_input`: latched bus voltage in mV (1.25 mV register LSB).
    pub fn in1_input(&self, now: SimTime) -> i64 {
        self.refresh(now).in1_mv
    }

    /// `power1_input`: latched power in µW (25 x current LSB register).
    pub fn power1_input(&self, now: SimTime) -> i64 {
        self.refresh(now).power1_uw
    }

    /// All four measurement attributes of the window containing `now`, from
    /// a single conversion — the batched read used by
    /// three-channel captures. On real hardware all hwmon attributes expose
    /// registers latched by the *same* conversion, so one conversion per
    /// window is also the faithful behaviour.
    pub fn readouts(&self, now: SimTime) -> Readouts {
        self.refresh(now)
    }

    /// Direct access to the sensor model (tests and calibration).
    pub fn with_sensor<R>(&self, f: impl FnOnce(&mut Ina226) -> R) -> R {
        f(&mut self.sensor.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ramp;
    impl RailProbe for Ramp {
        fn operating_point(&self, t: SimTime) -> (f64, f64) {
            // 1 A + 0.1 A per second.
            (1.0 + 0.1 * t.as_secs_f64(), 0.85)
        }
    }

    fn quiet_device(rail: Arc<dyn RailProbe>) -> HwmonDevice {
        let dev = HwmonDevice::new("ina226_test", 0.0005, 0.0005, rail, 0);
        dev.with_sensor(|s| s.set_adc_noise(0.0, 0.0));
        dev
    }

    #[test]
    fn units_are_hwmon_units() {
        let dev = quiet_device(Arc::new(|_t: SimTime| (2.0, 0.85)));
        let t = SimTime::from_ms(40);
        assert!((dev.curr1_input(t) - 2_000).abs() <= 2);
        assert!((dev.in1_input(t) - 850).abs() <= 1);
        let uw = dev.power1_input(t);
        assert!((uw - 1_700_000).abs() < 30_000, "{uw} uW");
    }

    #[test]
    fn value_holds_between_updates() {
        let dev = quiet_device(Arc::new(Ramp));
        // Two reads within the same 35 ms window latch the same value...
        let a = dev.curr1_input(SimTime::from_ms(36));
        let b = dev.curr1_input(SimTime::from_ms(69));
        assert_eq!(a, b);
        // ...a read after the boundary sees a fresh conversion.
        let c = dev.curr1_input(SimTime::from_secs(10));
        assert!(c > a);
    }

    #[test]
    fn faster_interval_updates_more_often() {
        let dev = quiet_device(Arc::new(Ramp));
        dev.set_update_interval_ms(2);
        assert_eq!(dev.update_interval_ms(), 2);
        let a = dev.curr1_input(SimTime::from_ms(10));
        let b = dev.curr1_input(SimTime::from_ms(12));
        // At 0.1 A/s the 2 ms step is 0.2 mA; conversions happen but may
        // quantize to the same mA. Advance far enough to see a step.
        let c = dev.curr1_input(SimTime::from_ms(200));
        assert!(c > a);
        let _ = b;
    }

    #[test]
    fn interval_is_clamped() {
        let dev = quiet_device(Arc::new(Ramp));
        dev.set_update_interval_ms(0);
        assert_eq!(dev.update_interval_ms(), MIN_UPDATE_INTERVAL_MS);
        dev.set_update_interval_ms(100_000);
        assert_eq!(dev.update_interval_ms(), 1_000);
    }

    #[test]
    fn conversion_count_tracks_boundaries() {
        let dev = quiet_device(Arc::new(Ramp));
        for ms in [36u64, 37, 38, 71, 106] {
            let _ = dev.curr1_input(SimTime::from_ms(ms));
        }
        // Boundaries hit: 35, (35), (35), 70, 105 -> 3 conversions.
        assert_eq!(dev.with_sensor(|s| s.conversions()), 3);
    }

    #[test]
    fn averaging_window_spans_the_cycle() {
        // A rail that steps mid-window: the conversion must average, not
        // sample a single point.
        let probe = |t: SimTime| {
            if t.as_millis() < 18 {
                (1.0, 0.85)
            } else {
                (3.0, 0.85)
            }
        };
        let dev = quiet_device(Arc::new(probe));
        let ma = dev.curr1_input(SimTime::from_ms(35));
        assert!(
            ma > 1_100 && ma < 2_900,
            "averaged value expected between the two levels, got {ma}"
        );
    }

    #[test]
    fn name_attribute() {
        let dev = quiet_device(Arc::new(Ramp));
        assert_eq!(dev.name(), "ina226_test");
    }

    /// A defense that applies all three hooks with fixed effects.
    struct FixedDefense {
        offset_ns: u64,
        add_amps: f64,
        add_ma: i64,
    }
    impl SensorDefense for FixedDefense {
        fn boundary_offset_ns(&self, _d: &str, _w: u64, interval_ns: u64) -> u64 {
            self.offset_ns.min(interval_ns)
        }
        fn perturb_steps(&self, _d: &str, _w: u64, steps: &mut [(f64, f64)]) {
            for s in steps {
                s.0 += self.add_amps;
            }
        }
        fn transform(&self, _d: &str, _w: u64, mut r: Readouts) -> Readouts {
            r.curr1_ma += self.add_ma;
            r
        }
    }

    #[test]
    fn defense_hooks_apply_in_order() {
        let make = || quiet_device(Arc::new(|_t: SimTime| (1.0, 0.85)));
        let plain = make().curr1_input(SimTime::from_ms(40));
        let mut dev = make();
        dev.set_defense(Some(Arc::new(FixedDefense {
            offset_ns: 0,
            add_amps: 0.5,
            add_ma: 7,
        })));
        let defended = dev.curr1_input(SimTime::from_ms(40));
        // 0.5 A analog injection + 7 mA digital rewrite.
        assert_eq!(defended, plain + 500 + 7);
        // Removing the defense restores the undefended reading.
        dev.set_defense(None);
        assert_eq!(dev.curr1_input(SimTime::from_ms(40)), plain);
    }

    #[test]
    fn jittered_boundary_delays_the_update() {
        let mut dev = quiet_device(Arc::new(Ramp));
        // Shift every boundary 10 ms into its window.
        dev.set_defense(Some(Arc::new(FixedDefense {
            offset_ns: SimTime::from_ms(10).as_nanos(),
            add_amps: 0.0,
            add_ma: 0,
        })));
        // A read at 36 ms precedes window 1's shifted boundary (45 ms), so
        // it latches window 0's conversion; a read at 46 ms crosses it.
        let early = dev.curr1_input(SimTime::from_ms(36));
        let late = dev.curr1_input(SimTime::from_ms(46));
        assert!(late > early, "{early} then {late}");
        // Held-value reads inside the shifted window stay identical.
        assert_eq!(dev.curr1_input(SimTime::from_ms(47)), late);
        assert_eq!(dev.curr1_input(SimTime::from_ms(79)), late);
    }

    #[test]
    fn identity_defense_matches_undefended_readouts() {
        struct Identity;
        impl SensorDefense for Identity {}
        let make = || quiet_device(Arc::new(Ramp));
        let plain = make();
        let mut defended = make();
        defended.set_defense(Some(Arc::new(Identity)));
        for ms in [36u64, 50, 71, 200, 1_000] {
            let t = SimTime::from_ms(ms);
            assert_eq!(plain.readouts(t), defended.readouts(t));
        }
    }

    mod properties {
        use super::*;

        sim_rt::prop_check! {
            /// Value-hold invariant: any two reads whose timestamps fall in
            /// the same update window return the same latched value,
            /// regardless of read order or spacing.
            fn reads_within_a_window_are_identical(
                window in 1u64..500,
                a_off in 0u64..35_000,
                b_off in 0u64..35_000
            ) {
                let dev = quiet_device(Arc::new(Ramp));
                let base = window * 35_000; // us
                let ta = SimTime::from_us(base + a_off);
                let tb = SimTime::from_us(base + b_off);
                assert_eq!(dev.curr1_input(ta), dev.curr1_input(tb));
            }

            /// Monotone source, monotone windows: later windows never read
            /// lower on a strictly increasing rail.
            fn later_windows_read_higher_on_a_ramp(w1 in 1u64..200, gap in 5u64..200) {
                let dev = quiet_device(Arc::new(Ramp));
                let t1 = SimTime::from_ms(w1 * 35 + 1);
                let t2 = SimTime::from_ms((w1 + gap) * 35 + 1);
                let a = dev.curr1_input(t1);
                let b = dev.curr1_input(t2);
                assert!(b >= a, "{a} then {b}");
            }
        }
    }
}
