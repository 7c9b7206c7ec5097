//! Time-to-digital-converter (TDC) voltage sensor — the modern
//! crafted-circuit baseline.
//!
//! After clouds banned combinational loops (ring oscillators), crafted
//! sensors moved to delay lines: a clock edge races through a carry chain
//! and the number of stages it traverses in one clock period is latched as
//! a thermometer code. Supply-voltage droop slows the stages, so the
//! latched tap count measures voltage — with a *quantized* output (one
//! tap ≈ a fixed delay step) and higher sample rates than an RO counter.
//! RDS (CHES'23), 1LUTSensor (CHES'24) and VITI (CHES'22) are refinements
//! of this idea; all still require fabric co-residence, which AmpereBleed
//! does not.
//!
//! On a stabilized PDN the millivolt-scale droop moves the race by only a
//! fraction of a tap, so a TDC sees even less than an RO bank — this
//! module exists to show the crafted-circuit dead end is not specific to
//! ring oscillators.

use zynq_soc::{GaussianNoise, SimTime};

use crate::resources::{Bitstream, Utilization};

/// Codes per jitter-kernel call.
const BATCH: usize = 1024;

/// Configuration of a [`TdcSensor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdcConfig {
    /// Number of delay-line taps (carry-chain stages).
    pub taps: u32,
    /// Nominal per-tap delay at the linearization voltage, picoseconds.
    pub tap_delay_ps: f64,
    /// Sampling clock period (the race window).
    pub clock: SimTime,
    /// Relative delay change per relative voltage change
    /// (`d(delay)/delay = -sensitivity * dV/V`).
    pub voltage_sensitivity: f64,
    /// Voltage the delay model is linearized around, volts.
    pub nominal_volts: f64,
    /// Per-sample timing jitter (1 sigma, in taps).
    pub jitter_taps: f64,
}

impl Default for TdcConfig {
    fn default() -> Self {
        TdcConfig {
            taps: 256,
            // A UltraScale+ CARRY8 stage is ~15 ps per bit.
            tap_delay_ps: 15.0,
            // 300 MHz-class sampling clock: ~3 ns race window lands the
            // edge around tap 200 of the 256-tap line at nominal voltage.
            clock: SimTime::from_nanos(3),
            voltage_sensitivity: 1.3,
            nominal_volts: 0.85,
            jitter_taps: 0.6,
        }
    }
}

/// A carry-chain TDC with thermometer-code readout.
///
/// # Examples
///
/// ```
/// use fpga_fabric::tdc::{TdcConfig, TdcSensor};
///
/// let mut tdc = TdcSensor::new(TdcConfig::default(), 1);
/// let hi: f64 = (0..100).map(|_| tdc.sample(0.853) as f64).sum::<f64>() / 100.0;
/// let lo: f64 = (0..100).map(|_| tdc.sample(0.845) as f64).sum::<f64>() / 100.0;
/// assert!(hi >= lo); // higher voltage -> faster stages -> more taps
/// ```
#[derive(Debug)]
pub struct TdcSensor {
    config: TdcConfig,
    noise: GaussianNoise,
    samples_taken: u64,
}

impl TdcSensor {
    /// Instantiates the sensor; `seed` fixes the jitter stream.
    ///
    /// # Panics
    ///
    /// Panics if `taps == 0` or timing parameters are not positive.
    pub fn new(config: TdcConfig, seed: u64) -> Self {
        assert!(config.taps > 0, "tap count must be non-zero");
        assert!(config.tap_delay_ps > 0.0, "tap delay must be positive");
        assert!(
            config.nominal_volts > 0.0,
            "nominal voltage must be positive"
        );
        TdcSensor {
            config,
            noise: GaussianNoise::new(seed ^ 0x7464_6373), // "tdcs"
            samples_taken: 0,
        }
    }

    /// The sensor configuration.
    pub fn config(&self) -> &TdcConfig {
        &self.config
    }

    /// Number of samples taken.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Latches one thermometer code at rail voltage `rail_v`: how many
    /// taps the edge traverses within the race window (clipped to the
    /// physical line length).
    pub fn sample(&mut self, rail_v: f64) -> u32 {
        self.sample_at(&[rail_v])[0]
    }

    /// One [`sample`](Self::sample) per rail voltage, in order,
    /// bit-identical to calling it in a loop: the jitter draws go through
    /// the batched kernel in bounded chunks.
    pub fn sample_at(&mut self, rail_volts: &[f64]) -> Vec<u32> {
        let window_ps = self.config.clock.as_nanos() as f64 * 1_000.0;
        let (sigma, taps) = (self.config.jitter_taps, f64::from(self.config.taps));
        let mut bases = Vec::with_capacity(BATCH.min(rail_volts.len()));
        let mut codes = vec![0; rail_volts.len()];
        for (volts, out) in rail_volts.chunks(BATCH).zip(codes.chunks_mut(BATCH)) {
            bases.clear();
            bases.extend(volts.iter().map(|&v| {
                let dv_rel = (v - self.config.nominal_volts) / self.config.nominal_volts;
                // Lower voltage -> longer per-tap delay -> fewer taps.
                let delay_ps =
                    self.config.tap_delay_ps * (1.0 - self.config.voltage_sensitivity * dv_rel);
                window_ps / delay_ps
            }));
            self.noise.round_jittered(&bases, sigma, 0.0, taps, out);
        }
        self.samples_taken += rail_volts.len() as u64;
        codes
    }

    /// Mean tap count over `n` consecutive samples at a fixed voltage.
    pub fn sample_mean(&mut self, rail_v: f64, n: usize) -> f64 {
        let volts = [rail_v; BATCH];
        let sum = (0..n)
            .step_by(BATCH)
            .flat_map(|k| self.sample_at(&volts[..BATCH.min(n - k)]))
            .map(|c| c as f64)
            .sum::<f64>();
        sum / n.max(1) as f64
    }

    /// Resource utilization: the carry chain plus capture flip-flops.
    pub fn bitstream(&self) -> Bitstream {
        Bitstream::new(
            "tdc-sensor",
            Utilization {
                luts: self.config.taps as u64 / 8 + 16,
                ffs: self.config.taps as u64,
                dsps: 0,
                bram_kb: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_count_tracks_voltage() {
        let mut tdc = TdcSensor::new(TdcConfig::default(), 2);
        let hi = tdc.sample_mean(0.86, 500);
        let lo = tdc.sample_mean(0.84, 500);
        assert!(hi > lo, "{hi} vs {lo}");
    }

    #[test]
    fn output_is_clipped_to_line_length() {
        let mut tdc = TdcSensor::new(TdcConfig::default(), 3);
        // Absurdly high voltage: stages nearly instant, but the line has
        // only 256 taps.
        for _ in 0..50 {
            assert!(tdc.sample(2.0) <= 256);
        }
        // Very low voltage: the slowed edge traverses only a small prefix
        // of the line.
        let mut slowed = TdcSensor::new(TdcConfig::default(), 3);
        let crawl = slowed.sample(0.2);
        let nominal = slowed.sample(0.85);
        assert!(
            (crawl as f64) < nominal as f64 * 0.6,
            "{crawl} vs {nominal}"
        );
    }

    #[test]
    fn stabilized_droop_is_a_fraction_of_a_tap() {
        // 5.4 mV of droop: the mean code moves by less than 2 taps out of
        // ~220 unclipped — the same dead end as the RO baseline.
        let cfg = TdcConfig {
            taps: 1024, // generous line so nothing clips
            ..TdcConfig::default()
        };
        let mut tdc = TdcSensor::new(cfg, 4);
        let idle = tdc.sample_mean(0.8520, 2_000);
        let busy = tdc.sample_mean(0.8466, 2_000);
        let delta = idle - busy;
        assert!(delta > 0.0);
        assert!(delta < 3.0, "droop moved the code by {delta} taps");
        let rel = delta / idle;
        assert!(rel < 0.012, "relative TDC variation {rel}");
    }

    #[test]
    fn batched_codes_match_the_scalar_jitter_expression() {
        // The per-sample code the sensor drew before the batched kernel,
        // replayed on a twin of its stream; voltages span both clips.
        let config = TdcConfig::default();
        let mut tdc = TdcSensor::new(config, 21);
        let mut noise = GaussianNoise::new(21 ^ 0x7464_6373);
        let mut scalar = |v: f64| {
            let dv_rel = (v - config.nominal_volts) / config.nominal_volts;
            let delay_ps = config.tap_delay_ps * (1.0 - config.voltage_sensitivity * dv_rel);
            let window_ps = config.clock.as_nanos() as f64 * 1_000.0;
            let taps = window_ps / delay_ps + noise.sample(0.0, config.jitter_taps);
            taps.round().clamp(0.0, config.taps as f64) as u32
        };
        let volts: Vec<f64> = (0..2_501).map(|k| 0.3 + k as f64 * 6e-4).collect();
        let batched = tdc.sample_at(&volts);
        let want: Vec<u32> = volts.iter().map(|&v| scalar(v)).collect();
        assert_eq!(batched, want);
        assert!(batched.contains(&config.taps));
        assert_eq!(tdc.sample(0.85), scalar(0.85));
        let mean = tdc.sample_mean(0.849, 1_501);
        let want = (0..1_501).map(|_| scalar(0.849) as f64).sum::<f64>() / 1_501.0;
        assert_eq!(mean.to_bits(), want.to_bits());
        assert_eq!(tdc.samples_taken(), 2_501 + 1 + 1_501);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = TdcSensor::new(TdcConfig::default(), 9);
        let mut b = TdcSensor::new(TdcConfig::default(), 9);
        for _ in 0..20 {
            assert_eq!(a.sample(0.85), b.sample(0.85));
        }
        assert_eq!(a.samples_taken(), 20);
    }

    #[test]
    fn bitstream_scales_with_taps() {
        let tdc = TdcSensor::new(TdcConfig::default(), 0);
        assert_eq!(tdc.bitstream().utilization.ffs, 256);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_taps_rejected() {
        let cfg = TdcConfig {
            taps: 0,
            ..TdcConfig::default()
        };
        let _ = TdcSensor::new(cfg, 0);
    }
}
