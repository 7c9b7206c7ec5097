use crate::board::BoardSpec;
use crate::PowerDomain;

/// A closed voltage interval `[min_v, max_v]` guaranteed by a rail's
/// regulator (the "PDN stabilizer" of Section III-B).
///
/// # Examples
///
/// ```
/// use zynq_soc::VoltageBand;
///
/// let band = VoltageBand::ZYNQ_ULTRASCALE_PLUS;
/// assert!(band.contains(0.85));
/// assert!(!band.contains(0.9));
/// assert_eq!(band.clamp(1.0), band.max_v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageBand {
    /// Lower bound in volts.
    pub min_v: f64,
    /// Upper bound in volts.
    pub max_v: f64,
}

impl VoltageBand {
    /// Zynq UltraScale+ FPGA core band: 0.825 V to 0.876 V (Table I).
    pub const ZYNQ_ULTRASCALE_PLUS: VoltageBand = VoltageBand {
        min_v: 0.825,
        max_v: 0.876,
    };

    /// Versal FPGA core band: 0.775 V to 0.825 V (Table I).
    pub const VERSAL: VoltageBand = VoltageBand {
        min_v: 0.775,
        max_v: 0.825,
    };

    /// Creates a band.
    ///
    /// # Panics
    ///
    /// Panics if `min_v > max_v`.
    pub fn new(min_v: f64, max_v: f64) -> Self {
        assert!(min_v <= max_v, "voltage band must be ordered");
        VoltageBand { min_v, max_v }
    }

    /// Whether `v` lies inside the band.
    pub fn contains(&self, v: f64) -> bool {
        (self.min_v..=self.max_v).contains(&v)
    }

    /// Clamps `v` into the band.
    pub fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.min_v, self.max_v)
    }

    /// Band width in volts.
    pub fn width(&self) -> f64 {
        self.max_v - self.min_v
    }

    /// Band midpoint in volts.
    pub fn midpoint(&self) -> f64 {
        (self.min_v + self.max_v) / 2.0
    }
}

/// First-order power-delivery-network model for one rail.
///
/// Implements Equation 1 of the paper:
///
/// ```text
/// V_drop = I * R + L * dI/dt
/// ```
///
/// with the regulator holding the output inside a [`VoltageBand`]. The
/// effective output impedance `R_eff` of a stabilized rail is tiny — a full
/// 6 A swing of fabric current moves the rail by only a few millivolts,
/// which is why voltage-observing attacks (RO circuits) see almost nothing
/// while the *current* through the shunt tracks the load one-for-one.
///
/// # Examples
///
/// ```
/// use zynq_soc::{board::BoardSpec, Pdn, PowerDomain};
///
/// let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic);
/// let idle = pdn.rail_voltage(500.0, 0.0);
/// let busy = pdn.rail_voltage(6_500.0, 0.0);
/// assert!(idle > busy);           // IR droop is monotone in load
/// assert!(idle - busy < 0.01);    // ...but stabilized to millivolts
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pdn {
    /// Regulator set-point in volts.
    pub v_set: f64,
    /// Guaranteed output band.
    pub band: VoltageBand,
    /// Effective DC output impedance in ohms (regulator + plane).
    pub r_eff_ohm: f64,
    /// Effective output inductance in henries (transient term of Eq. 1).
    pub l_eff_h: f64,
    /// Stabilizer strength in `[0, 1]`: 1.0 is the shipped board behaviour,
    /// 0.0 disables regulation entirely (an unstabilized research PDN).
    /// Exposed for the `ablation_stabilizer` experiment.
    pub stabilizer_strength: f64,
}

impl Pdn {
    /// Builds the PDN model of one monitored rail on a given board.
    pub fn for_board(board: &BoardSpec, domain: PowerDomain) -> Self {
        let band = match domain {
            PowerDomain::FpgaLogic => board.fpga_voltage_band,
            // CPU and DDR rails on these boards are regulated at higher
            // voltages; band widths are comparable.
            PowerDomain::FullPowerCpu => VoltageBand::new(0.845, 0.905),
            PowerDomain::LowPowerCpu => VoltageBand::new(0.845, 0.905),
            PowerDomain::Ddr => VoltageBand::new(1.185, 1.235),
        };
        Pdn {
            v_set: band.midpoint() + band.width() * 0.2,
            band,
            // ~0.9 mΩ effective impedance: 6 A swing -> ~5.4 mV droop,
            // i.e. ~4 LSB of the INA226's 1.25 mV bus ADC. This reproduces
            // the "voltage shows only slight LSB changes" observation.
            r_eff_ohm: 0.9e-3,
            l_eff_h: 0.4e-9,
            stabilizer_strength: 1.0,
        }
    }

    /// Returns a copy with a different stabilizer strength.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is outside `[0, 1]`.
    pub fn with_stabilizer_strength(mut self, strength: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&strength),
            "stabilizer strength must be in [0, 1]"
        );
        self.stabilizer_strength = strength;
        self
    }

    /// Computes the rail voltage for a load current `i_ma` (milliamps) and
    /// current slew `di_dt_ma_per_us` (milliamps per microsecond).
    ///
    /// With the stabilizer at full strength the result is clamped into the
    /// guaranteed band; with the stabilizer weakened, droop grows toward
    /// the raw (unregulated) `V_set - I*R_raw - L*dI/dt` response, where the
    /// raw plane impedance is ~20x the regulated effective impedance.
    pub fn rail_voltage(&self, i_ma: f64, di_dt_ma_per_us: f64) -> f64 {
        let i_a = i_ma / 1_000.0;
        let di_dt_a_per_s = di_dt_ma_per_us * 1_000.0; // mA/us == A/ms -> A/s x1000
                                                       // Interpolate impedance between regulated and raw as the stabilizer
                                                       // weakens.
        let raw_factor = 20.0;
        let scale = self.stabilizer_strength + (1.0 - self.stabilizer_strength) * raw_factor;
        let drop = i_a * self.r_eff_ohm * scale + self.l_eff_h * scale * di_dt_a_per_s;
        // A slew past ~1 A/us is a genuine transient event (virus toggles,
        // DPU layer edges) — worth counting for the campaign profile. The
        // droop gauge holds the most recent transient's droop; steady
        // operating points leave it alone, keeping this path store-free.
        if di_dt_ma_per_us.abs() > 1_000.0 {
            obs::counter!("zynq.pdn.transients").inc();
            obs::gauge!("zynq.pdn.droop_uv").set(drop * 1e6);
        }
        let v = self.v_set - drop;
        if self.stabilizer_strength >= 1.0 {
            self.band.clamp(v)
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_match_table_one() {
        assert_eq!(VoltageBand::ZYNQ_ULTRASCALE_PLUS.min_v, 0.825);
        assert_eq!(VoltageBand::ZYNQ_ULTRASCALE_PLUS.max_v, 0.876);
        assert_eq!(VoltageBand::VERSAL.min_v, 0.775);
        assert_eq!(VoltageBand::VERSAL.max_v, 0.825);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn band_rejects_inverted_bounds() {
        let _ = VoltageBand::new(1.0, 0.5);
    }

    #[test]
    fn stabilized_rail_stays_in_band() {
        let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic);
        for i_ma in [0.0, 100.0, 1_000.0, 7_000.0, 20_000.0] {
            let v = pdn.rail_voltage(i_ma, 0.0);
            assert!(pdn.band.contains(v), "{i_ma} mA -> {v} V escapes the band");
        }
    }

    #[test]
    fn droop_is_monotone_in_load() {
        let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic);
        let mut prev = f64::INFINITY;
        for i_ma in [0.0, 1_000.0, 3_000.0, 6_000.0] {
            let v = pdn.rail_voltage(i_ma, 0.0);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn full_load_droop_is_millivolts() {
        // The stabilizer limits a 6.4 A virus swing to a handful of bus-ADC
        // LSBs (1.25 mV) — the Figure 2 voltage observation.
        let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic);
        let droop = pdn.rail_voltage(500.0, 0.0) - pdn.rail_voltage(6_900.0, 0.0);
        assert!(droop > 0.0);
        assert!(
            droop < 0.010,
            "droop {droop} V too large for a stabilized rail"
        );
        assert!(droop / 1.25e-3 < 8.0, "more than 8 voltage LSBs of droop");
    }

    #[test]
    fn weakened_stabilizer_increases_droop() {
        let strong = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic);
        let weak = strong.clone().with_stabilizer_strength(0.0);
        let d_strong = strong.rail_voltage(0.0, 0.0) - strong.rail_voltage(6_000.0, 0.0);
        let d_weak = weak.rail_voltage(0.0, 0.0) - weak.rail_voltage(6_000.0, 0.0);
        assert!(d_weak > 5.0 * d_strong);
    }

    #[test]
    fn transient_term_contributes() {
        let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic)
            .with_stabilizer_strength(0.5);
        let steady = pdn.rail_voltage(1_000.0, 0.0);
        let slewing = pdn.rail_voltage(1_000.0, 50_000.0);
        assert!(slewing < steady, "dI/dt term must add droop");
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn stabilizer_strength_validated() {
        let _ = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic)
            .with_stabilizer_strength(1.5);
    }

    sim_rt::prop_check! {
        fn clamp_is_idempotent(v in -10.0f64..10.0) {
            let band = VoltageBand::ZYNQ_ULTRASCALE_PLUS;
            let once = band.clamp(v);
            assert_eq!(band.clamp(once), once);
            assert!(band.contains(once));
        }

        fn rail_voltage_in_band_at_full_strength(i_ma in 0.0f64..50_000.0, slew in -1e5f64..1e5) {
            let pdn = Pdn::for_board(&BoardSpec::zcu102(), PowerDomain::FpgaLogic);
            let v = pdn.rail_voltage(i_ma, slew);
            assert!(pdn.band.contains(v));
        }
    }
}
