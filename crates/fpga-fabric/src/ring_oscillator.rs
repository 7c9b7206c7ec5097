//! Ring-oscillator voltage sensors — the crafted-circuit baseline.
//!
//! Zhao & Suh (S&P'18) sense on-chip voltage with combinational-loop ring
//! oscillators: an RO's period is proportional to its inverters' gate
//! delay, and gate delay shrinks as supply voltage rises. A counter
//! clocked by the RO and sampled at fixed intervals therefore reads out a
//! count whose variation tracks rail voltage.
//!
//! On a modern board the PDN stabilizer confines the rail to a few
//! millivolts of droop across the entire workload range, so the RO count
//! barely moves — this module is the "261x less variation" baseline that
//! Figure 2 compares AmpereBleed against. (RO circuits are also banned by
//! commercial clouds, e.g. the AWS F1 design-rule checks.)

use zynq_soc::{GaussianNoise, SimTime};

use crate::resources::{Bitstream, Region, Utilization};

/// Configuration of a [`RoBank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoConfig {
    /// Number of ring oscillators distributed over the die.
    pub count: usize,
    /// Inverter stages per oscillator (odd).
    pub stages: u32,
    /// Oscillation frequency at nominal voltage, in MHz.
    pub nominal_freq_mhz: f64,
    /// Counter sampling window (paper baseline: 2 MHz sampling = 500 ns).
    pub sample_window: SimTime,
    /// Relative frequency change per relative voltage change
    /// (`df/f = sensitivity * dV/V`, first-order around nominal).
    pub voltage_sensitivity: f64,
    /// Nominal rail voltage the sensitivity is linearized around, volts.
    pub nominal_volts: f64,
    /// Counter jitter (1 sigma, in counts) per sample.
    pub jitter_counts: f64,
    /// Per-RO process-variation spread of the nominal frequency (1 sigma,
    /// relative).
    pub process_variation: f64,
}

impl Default for RoConfig {
    fn default() -> Self {
        RoConfig {
            count: 32,
            stages: 5,
            nominal_freq_mhz: 400.0,
            sample_window: SimTime::from_nanos(500),
            // First-order delay sensitivity of a LUT-based RO around the
            // 0.85 V operating point, calibrated against the measured
            // current-vs-RO variation ratio of the paper's Figure 2.
            voltage_sensitivity: 0.89,
            nominal_volts: 0.85,
            jitter_counts: 0.5,
            process_variation: 0.02,
        }
    }
}

/// A bank of ring oscillators with counters, distributed over the die to
/// average out spatial proximity to the aggressor (Section IV-A).
///
/// # Examples
///
/// ```
/// use fpga_fabric::ring_oscillator::{RoBank, RoConfig};
///
/// let mut bank = RoBank::new(RoConfig::default(), 3);
/// let at_high_v = bank.sample_mean_count(0.853);
/// let at_low_v = bank.sample_mean_count(0.848);
/// // Averaged over jitter the counts track voltage; single samples may not,
/// // so compare means of a few:
/// let hi: f64 = (0..50).map(|_| bank.sample_mean_count(0.853)).sum::<f64>() / 50.0;
/// let lo: f64 = (0..50).map(|_| bank.sample_mean_count(0.848)).sum::<f64>() / 50.0;
/// assert!(hi > lo);
/// # let _ = (at_high_v, at_low_v);
/// ```
#[derive(Debug)]
pub struct RoBank {
    config: RoConfig,
    /// Per-RO nominal frequency after process variation, MHz.
    ro_freq_mhz: Vec<f64>,
    regions: Vec<Region>,
    noise: GaussianNoise,
    samples_taken: u64,
}

impl RoBank {
    /// Instantiates a bank; `seed` fixes process variation and jitter.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `stages` is even, or the frequency /
    /// sensitivity parameters are not positive.
    pub fn new(config: RoConfig, seed: u64) -> Self {
        assert!(config.count > 0, "RO count must be non-zero");
        assert!(config.stages % 2 == 1, "RO needs an odd number of stages");
        assert!(config.nominal_freq_mhz > 0.0, "frequency must be positive");
        assert!(
            config.voltage_sensitivity > 0.0,
            "sensitivity must be positive"
        );
        assert!(
            config.nominal_volts > 0.0,
            "nominal voltage must be positive"
        );
        let mut noise = GaussianNoise::new(seed ^ 0x726F_6261); // "roba"
        let ro_freq_mhz: Vec<f64> = (0..config.count)
            .map(|_| config.nominal_freq_mhz * (1.0 + noise.sample(0.0, config.process_variation)))
            .collect();
        let nx = (config.count as f64).sqrt().ceil() as usize;
        let ny = config.count.div_ceil(nx);
        let regions: Vec<Region> = (0..config.count)
            .map(|i| Region::grid_cell(nx, ny, i % nx, i / nx))
            .collect();
        RoBank {
            config,
            ro_freq_mhz,
            regions,
            noise,
            samples_taken: 0,
        }
    }

    /// The bank configuration.
    pub fn config(&self) -> &RoConfig {
        &self.config
    }

    /// Number of counter samples taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Placement of RO `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn region(&self, i: usize) -> Region {
        self.regions[i]
    }

    /// Relative RO frequency at rail voltage `v` (first-order delay model).
    fn freq_scale(&self, v: f64) -> f64 {
        let dv_rel = (v - self.config.nominal_volts) / self.config.nominal_volts;
        1.0 + self.config.voltage_sensitivity * dv_rel
    }

    /// One counter readout of RO `i` over a sampling window: its nominal
    /// frequency scaled by `freq_scale`, plus one jitter draw.
    fn count(&mut self, i: usize, freq_scale: f64) -> u32 {
        let window_s = self.config.sample_window.as_secs_f64();
        let counts = self.ro_freq_mhz[i] * 1e6 * freq_scale * window_s
            + self.noise.sample(0.0, self.config.jitter_counts);
        counts.round().max(0.0) as u32
    }

    /// Samples every counter over one window at rail voltage `rail_v`,
    /// returning integer counts (what the attacker's readback logic sees).
    pub fn sample_counts(&mut self, rail_v: f64) -> Vec<u32> {
        self.samples_taken += 1;
        let freq_scale = self.freq_scale(rail_v);
        (0..self.ro_freq_mhz.len())
            .map(|i| self.count(i, freq_scale))
            .collect()
    }

    /// Mean counter value across the bank for one sampling window — the
    /// mean of [`RoBank::sample_counts`], summed in RO order without
    /// materializing the counts (integer sums are exact in `f64`).
    pub fn sample_mean_count(&mut self, rail_v: f64) -> f64 {
        self.samples_taken += 1;
        let freq_scale = self.freq_scale(rail_v);
        let mut sum = 0.0;
        for i in 0..self.ro_freq_mhz.len() {
            sum += f64::from(self.count(i, freq_scale));
        }
        sum / self.ro_freq_mhz.len() as f64
    }

    /// Samples the bank with *local* IR-drop hotspots in addition to the
    /// global rail voltage: each hotspot `(region, droop_v)` depresses a
    /// nearby RO's supply by `droop_v * d0 / (d + d0)` where `d` is the
    /// center distance and `d0 = 0.1` die units.
    ///
    /// This models the spatial dependence the paper's setup averages away
    /// by distributing ROs "throughout the FPGA board" — an RO adjacent to
    /// the aggressor sees several times the droop of a far one.
    pub fn sample_counts_spatial(&mut self, rail_v: f64, hotspots: &[(Region, f64)]) -> Vec<u32> {
        const D0: f64 = 0.1;
        self.samples_taken += 1;
        (0..self.ro_freq_mhz.len())
            .map(|i| {
                let local_droop: f64 = hotspots
                    .iter()
                    .map(|(region, droop_v)| {
                        let d = self.regions[i].distance_to(region);
                        droop_v * D0 / (d + D0)
                    })
                    .sum();
                let freq_scale = self.freq_scale(rail_v - local_droop);
                self.count(i, freq_scale)
            })
            .collect()
    }

    /// Resource utilization of the deployed bank: each RO is `stages` LUTs
    /// plus a 32-bit counter.
    pub fn bitstream(&self) -> Bitstream {
        let n = self.config.count as u64;
        Bitstream::new(
            "ro-sensor-bank",
            Utilization {
                luts: n * (self.config.stages as u64 + 8),
                ffs: n * 32,
                dsps: 0,
                bram_kb: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(bank: &mut RoBank, v: f64, n: usize) -> f64 {
        (0..n).map(|_| bank.sample_mean_count(v)).sum::<f64>() / n as f64
    }

    #[test]
    fn counts_increase_with_voltage() {
        let mut bank = RoBank::new(RoConfig::default(), 1);
        let lo = mean_of(&mut bank, 0.845, 200);
        let hi = mean_of(&mut bank, 0.855, 200);
        assert!(hi > lo, "RO count must rise with voltage ({hi} vs {lo})");
    }

    #[test]
    fn nominal_count_matches_window() {
        // 400 MHz over 500 ns = 200 counts.
        let mut bank = RoBank::new(
            RoConfig {
                process_variation: 0.0,
                jitter_counts: 0.0,
                ..RoConfig::default()
            },
            0,
        );
        let counts = bank.sample_counts(0.85);
        assert!(counts.iter().all(|&c| c == 200), "{counts:?}");
    }

    #[test]
    fn stabilized_band_variation_is_sub_percent() {
        // The whole stabilizer band (0.825-0.876 V) moves counts by only a
        // few percent; the millivolt-scale droop of a real workload moves
        // them by well under 1% — the Figure 2 observation.
        let mut bank = RoBank::new(RoConfig::default(), 2);
        let idle = mean_of(&mut bank, 0.8520, 500);
        let busy = mean_of(&mut bank, 0.8466, 500); // 5.4 mV droop
        let rel = (idle - busy) / idle;
        assert!(rel > 0.0);
        assert!(rel < 0.01, "relative RO variation {rel} too large");
    }

    #[test]
    fn sensitivity_scales_response() {
        let mk = |k: f64| {
            RoBank::new(
                RoConfig {
                    voltage_sensitivity: k,
                    jitter_counts: 0.0,
                    process_variation: 0.0,
                    ..RoConfig::default()
                },
                0,
            )
        };
        let mut weak = mk(0.5);
        let mut strong = mk(2.0);
        let dv = 0.87;
        let weak_delta = weak.sample_mean_count(dv) - weak.sample_mean_count(0.85);
        let strong_delta = strong.sample_mean_count(dv) - strong.sample_mean_count(0.85);
        assert!(strong_delta > 2.0 * weak_delta);
    }

    #[test]
    fn mean_count_is_the_bit_exact_mean_of_the_counts() {
        let mut a = RoBank::new(RoConfig::default(), 41);
        let mut b = RoBank::new(RoConfig::default(), 41);
        for k in 0..200 {
            let v = 0.84 + k as f64 * 1e-4;
            let counts = a.sample_counts(v);
            let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
            assert_eq!(b.sample_mean_count(v).to_bits(), mean.to_bits());
        }
        assert_eq!(a.samples_taken(), b.samples_taken());
    }

    #[test]
    fn jitter_makes_single_samples_noisy() {
        let mut bank = RoBank::new(RoConfig::default(), 9);
        let a = bank.sample_counts(0.85);
        let b = bank.sample_counts(0.85);
        assert_ne!(a, b, "counter jitter must vary between samples");
        assert_eq!(bank.samples_taken(), 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = RoBank::new(RoConfig::default(), 33);
        let mut b = RoBank::new(RoConfig::default(), 33);
        for _ in 0..10 {
            assert_eq!(a.sample_counts(0.851), b.sample_counts(0.851));
        }
    }

    #[test]
    fn spatial_hotspot_depresses_nearby_ro() {
        let mut bank = RoBank::new(
            RoConfig {
                jitter_counts: 0.0,
                process_variation: 0.0,
                ..RoConfig::default()
            },
            0,
        );
        // Hotspot on top of RO 0's cell; 10 mV of local droop at d=0.
        let hotspot = bank.region(0);
        let counts = bank.sample_counts_spatial(0.85, &[(hotspot, 0.010)]);
        let near = counts[0];
        let far = counts[31];
        assert!(
            near < far,
            "RO next to the aggressor must read lower ({near} vs {far})"
        );
        // Without hotspots the spatial sampler matches the plain one.
        let uniform = bank.sample_counts_spatial(0.85, &[]);
        assert!(uniform.iter().all(|&c| c == uniform[0]));
    }

    #[test]
    fn distributed_placement() {
        let bank = RoBank::new(RoConfig::default(), 0);
        let d = bank.region(0).distance_to(&bank.region(31));
        assert!(d > 0.5);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_stage_count_rejected() {
        let _ = RoBank::new(
            RoConfig {
                stages: 4,
                ..RoConfig::default()
            },
            0,
        );
    }

    #[test]
    fn bitstream_utilization_scales_with_count() {
        let bank = RoBank::new(RoConfig::default(), 0);
        let bs = bank.bitstream();
        assert_eq!(bs.utilization.ffs, 32 * 32);
        assert!(bs.utilization.luts > 0);
    }

    sim_rt::prop_check! {
        fn counts_are_finite_and_positive(v in 0.7f64..1.0, seed in 0u64..100) {
            let mut bank = RoBank::new(RoConfig::default(), seed);
            for c in bank.sample_counts(v) {
                assert!(c > 0);
                assert!(c < 10_000);
            }
        }
    }
}
