use hwmon_sim::Privilege;
use zynq_soc::{PowerDomain, SimTime};

use crate::{AttackError, Channel, Platform, Result, Trace};

/// The attacker's sampling loop: an (optionally unprivileged) process that
/// polls hwmon attribute files at a fixed rate.
///
/// This is the entire attack apparatus of AmpereBleed — no crafted
/// circuit, no fabric access, just `open`/`read` on world-readable sysfs
/// nodes. The sampler is bound to a platform and a privilege level; the
/// Section V mitigation makes the unprivileged variant fail with
/// `PermissionDenied`.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a quickstart.
#[derive(Debug, Clone, Copy)]
pub struct CurrentSampler<'a> {
    platform: &'a Platform,
    privilege: Privilege,
}

impl<'a> CurrentSampler<'a> {
    /// An unprivileged attacker process (the paper's threat model).
    pub fn unprivileged(platform: &'a Platform) -> Self {
        CurrentSampler {
            platform,
            privilege: Privilege::User,
        }
    }

    /// A root process (for mitigation comparisons and benign monitoring).
    pub fn privileged(platform: &'a Platform) -> Self {
        CurrentSampler {
            platform,
            privilege: Privilege::Root,
        }
    }

    /// The privilege level this sampler runs at.
    pub fn privilege(&self) -> Privilege {
        self.privilege
    }

    fn count_reads(channel: Channel, n: u64) {
        match channel {
            Channel::Current => obs::counter!("sampler.reads.current").add(n),
            Channel::Voltage => obs::counter!("sampler.reads.voltage").add(n),
            Channel::Power => obs::counter!("sampler.reads.power").add(n),
        }
    }

    /// Reads `channels` of `domain` at `count` instants from `start` as
    /// one hwmon run read, appending each channel's samples to the
    /// matching `series`. Counts reads as the per-instant loop would: all
    /// of them on success, and the one failing read on error (a refused
    /// run fails on its first read).
    fn read_run<const N: usize>(
        &self,
        domain: PowerDomain,
        channels: [Channel; N],
        start: SimTime,
        period: SimTime,
        count: usize,
        series: &mut [Vec<f64>; N],
    ) -> Result<()> {
        let handles = channels.map(|c| self.platform.sensor_handle(domain, c.hwmon_attribute()));
        let fs = self.platform.hwmon();
        let run = fs.read_run(&handles, start, period, count, self.privilege, |slot, v| {
            // Run reads hand out slots below `handles.len() == N`. sim-lint: allow(panic-path)
            series[slot].push(v as f64)
        });
        match run {
            Ok(()) => {
                for channel in channels {
                    Self::count_reads(channel, count as u64);
                }
                Ok(())
            }
            Err(e) => {
                if let Some(&first) = channels.first() {
                    Self::count_reads(first, 1);
                }
                obs::counter!("sampler.read_errors").inc();
                Err(e.into())
            }
        }
    }

    /// Validates capture parameters and derives the sampling period,
    /// rejecting windows whose last timestamp would overflow the u64
    /// nanosecond simulation clock.
    fn capture_period(rate_hz: f64, start: SimTime, count: usize) -> Result<SimTime> {
        if rate_hz <= 0.0 || rate_hz.is_nan() {
            return Err(AttackError::InvalidParameter(
                "sampling rate must be positive".into(),
            ));
        }
        if count == 0 {
            return Err(AttackError::InvalidParameter(
                "sample count must be non-zero".into(),
            ));
        }
        let period_s = 1.0 / rate_hz;
        if !period_s.is_finite() {
            return Err(AttackError::InvalidParameter(
                "sampling period 1 / rate must be finite".into(),
            ));
        }
        let period = SimTime::from_secs_f64(period_s);
        start
            .checked_step(period, count as u64 - 1)
            .ok_or_else(|| {
                AttackError::InvalidParameter(
                    "capture window overflows the u64 nanosecond clock".into(),
                )
            })?;
        Ok(period)
    }

    /// Reads one sample of `channel` on `domain` at simulation time `t`.
    ///
    /// Uses the typed hwmon path: a pre-resolved handle and an integer
    /// read, no path rendering or string parsing. The hwmon integers are
    /// far below 2^53, so the `i64 -> f64` conversion is exact and the
    /// result is bit-identical to parsing the sysfs string.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Hwmon`] on sysfs failures (notably
    /// `PermissionDenied` under the mitigation).
    pub fn read_once(&self, domain: PowerDomain, channel: Channel, t: SimTime) -> Result<f64> {
        Self::count_reads(channel, 1);
        let handle = self
            .platform
            .sensor_handle(domain, channel.hwmon_attribute());
        match self.platform.hwmon().read_value(handle, t, self.privilege) {
            Ok(v) => Ok(v as f64),
            Err(e) => {
                obs::counter!("sampler.read_errors").inc();
                Err(e.into())
            }
        }
    }

    /// Captures `count` samples at `rate_hz`, starting at `start`.
    ///
    /// Sampling faster than the sensor's update interval yields repeated
    /// values (value-hold), exactly as on hardware — the RSA attack
    /// samples at 1 kHz against a 35 ms update interval.
    ///
    /// # Errors
    ///
    /// * [`AttackError::InvalidParameter`] if `rate_hz` is not positive,
    ///   its period `1 / rate_hz` is not finite (a subnormal rate), or
    ///   `count` is zero.
    /// * [`AttackError::Hwmon`] on sysfs failures.
    pub fn capture(
        &self,
        domain: PowerDomain,
        channel: Channel,
        start: SimTime,
        rate_hz: f64,
        count: usize,
    ) -> Result<Trace> {
        let period = Self::capture_period(rate_hz, start, count)?;
        let started = obs::clock::monotonic_ns();
        let mut series = [Vec::with_capacity(count)];
        self.read_run(domain, [channel], start, period, count, &mut series)?;
        let [samples] = series;
        obs::histogram!("sampler.capture.ns")
            .observe(obs::clock::monotonic_ns().saturating_sub(started));
        obs::debug!(
            "core.sampler",
            sim = start.as_nanos(),
            "capture complete";
            "channel" => channel.attribute(),
            "rate_hz" => rate_hz,
            "count" => count as u64
        );
        Ok(Trace {
            domain,
            channel,
            start,
            period,
            samples,
        })
    }

    /// Captures all three channels of one domain over the same window
    /// (current, voltage, power), as the characterization experiment does.
    ///
    /// The timestamp sequence is walked once for all three channels: at
    /// each instant the current read clocks the sensor's conversion and
    /// the voltage/power reads return values latched from that same
    /// conversion — one conversion per boundary instead of three, which is
    /// also how a real INA226 behaves (all result registers are latched
    /// together). The current trace is bit-identical to a standalone
    /// [`capture`](Self::capture) of [`Channel::Current`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CurrentSampler::capture`].
    pub fn capture_all_channels(
        &self,
        domain: PowerDomain,
        start: SimTime,
        rate_hz: f64,
        count: usize,
    ) -> Result<[Trace; 3]> {
        let period = Self::capture_period(rate_hz, start, count)?;
        let started = obs::clock::monotonic_ns();
        let mut samples = [
            Vec::with_capacity(count),
            Vec::with_capacity(count),
            Vec::with_capacity(count),
        ];
        self.read_run(domain, Channel::ALL, start, period, count, &mut samples)?;
        obs::histogram!("sampler.capture.ns")
            .observe(obs::clock::monotonic_ns().saturating_sub(started));
        obs::debug!(
            "core.sampler",
            sim = start.as_nanos(),
            "capture complete";
            "channel" => "all",
            "rate_hz" => rate_hz,
            "count" => count as u64
        );
        let [s0, s1, s2] = samples;
        let [c0, c1, c2] = Channel::ALL;
        let trace = |channel, samples| Trace {
            domain,
            channel,
            start,
            period,
            samples,
        };
        Ok([trace(c0, s0), trace(c1, s1), trace(c2, s2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::virus::VirusConfig;

    fn platform_with_virus(active: u32) -> Platform {
        let mut p = Platform::zcu102(21);
        let virus = p.deploy_virus(VirusConfig::default()).unwrap();
        virus.activate_groups(active).unwrap();
        p
    }

    #[test]
    fn capture_shape_and_units() {
        let p = platform_with_virus(40);
        let s = CurrentSampler::unprivileged(&p);
        let t = s
            .capture(
                PowerDomain::FpgaLogic,
                Channel::Current,
                SimTime::from_ms(40),
                1_000.0,
                50,
            )
            .unwrap();
        assert_eq!(t.len(), 50);
        assert_eq!(t.period, SimTime::from_ms(1));
        // 40 groups x 40 mA + ~900 mA baseline: roughly 2.5 A.
        assert!((1_800.0..3_500.0).contains(&t.mean()), "{}", t.mean());
    }

    #[test]
    fn value_hold_at_high_rates() {
        let p = platform_with_virus(80);
        let s = CurrentSampler::unprivileged(&p);
        // 10 kHz against the 35 ms update interval: long runs of equal
        // values.
        let t = s
            .capture(
                PowerDomain::FpgaLogic,
                Channel::Current,
                SimTime::from_ms(40),
                10_000.0,
                200,
            )
            .unwrap();
        let distinct: std::collections::BTreeSet<i64> =
            t.samples.iter().map(|&v| v as i64).collect();
        assert!(
            distinct.len() <= 2,
            "expected held values, got {distinct:?}"
        );
    }

    #[test]
    fn all_channels_capture() {
        let p = platform_with_virus(100);
        let s = CurrentSampler::unprivileged(&p);
        let [c, v, w] = s
            .capture_all_channels(PowerDomain::FpgaLogic, SimTime::from_ms(40), 100.0, 20)
            .unwrap();
        assert_eq!(c.channel, Channel::Current);
        assert_eq!(v.channel, Channel::Voltage);
        assert_eq!(w.channel, Channel::Power);
        // Voltage in the stabilized band (mV), power consistent with I*V.
        assert!((820.0..880.0).contains(&v.mean()), "v {}", v.mean());
        let implied_w = c.mean() / 1_000.0 * v.mean() / 1_000.0; // A*V = W
        let measured_w = w.mean() / 1e6;
        assert!(
            (implied_w - measured_w).abs() / implied_w < 0.05,
            "power {measured_w} vs implied {implied_w}"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let p = platform_with_virus(0);
        let s = CurrentSampler::unprivileged(&p);
        assert!(matches!(
            s.capture(PowerDomain::Ddr, Channel::Current, SimTime::ZERO, 0.0, 10),
            Err(AttackError::InvalidParameter(_))
        ));
        assert!(matches!(
            s.capture(PowerDomain::Ddr, Channel::Current, SimTime::ZERO, 100.0, 0),
            Err(AttackError::InvalidParameter(_))
        ));
        // A subnormal rate is positive, but 1 / rate is infinite.
        assert!(matches!(
            s.capture(PowerDomain::Ddr, Channel::Current, SimTime::ZERO, 1e-310, 1),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn overlong_capture_window_rejected() {
        let p = platform_with_virus(0);
        let s = CurrentSampler::unprivileged(&p);
        // ~31.7 years per sample x 1000 samples overflows u64 nanoseconds:
        // must fail up front, not wrap the clock mid-capture.
        for start in [SimTime::ZERO, SimTime::from_nanos(u64::MAX - 1)] {
            assert!(matches!(
                s.capture(PowerDomain::Ddr, Channel::Current, start, 1e-9, 1_000),
                Err(AttackError::InvalidParameter(_))
            ));
        }
        // A huge start alone is fine when the window fits.
        assert!(s
            .capture(
                PowerDomain::Ddr,
                Channel::Current,
                SimTime::from_nanos(u64::MAX - 1_000_000_000),
                1_000.0,
                10,
            )
            .is_ok());
    }

    #[test]
    fn privilege_levels() {
        let p = platform_with_virus(0);
        assert_eq!(
            CurrentSampler::unprivileged(&p).privilege(),
            Privilege::User
        );
        assert_eq!(CurrentSampler::privileged(&p).privilege(), Privilege::Root);
    }
}
