//! Characterization of the current side channel (Figure 2).
//!
//! The experiment: deploy 160 k power-virus instances in 160 groups,
//! activate 0..=160 of them (161 distinct victim activity levels), and at
//! each level collect hwmon samples of FPGA current, voltage and power
//! plus the co-resident RO baseline's counter. Per-level means are then
//! correlated against the activity level.
//!
//! Expected shape (paper values): current and power reach Pearson r =
//! 0.999, voltage r = 0.958 with a near-zero slope, RO r = -0.996, and
//! the current channel's relative variation is ~261x the RO's.

use sim_rt::json;
use sim_rt::pool::Pool;
use sim_rt::ser::Value;
use sim_store::{Checkpoint, Digest, Store};
use trace_stats::{pearson, LinearFit, Summary};
use zynq_soc::{PowerDomain, SimTime};

use crate::{AttackError, Channel, CurrentSampler, Platform, Result};

/// Simulation instant the first level's settle phase starts at.
const SWEEP_START: SimTime = SimTime::from_ms(40);

/// Parameters of the characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Activation levels to visit (default: 0..=160, the paper's 161).
    pub levels: Vec<u32>,
    /// hwmon samples collected per level (paper: 10 000).
    pub samples_per_level: usize,
    /// Attacker sampling rate in Hz.
    pub sample_rate_hz: f64,
    /// Settling time after switching levels.
    pub settle: SimTime,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            levels: (0..=160).collect(),
            samples_per_level: 10_000,
            sample_rate_hz: 1_000.0,
            settle: SimTime::from_ms(70),
        }
    }
}

impl CharacterizeConfig {
    /// A reduced sweep for fast tests: every 16th level, 300 samples.
    pub fn quick() -> Self {
        CharacterizeConfig {
            levels: (0..=160).step_by(16).collect(),
            samples_per_level: 300,
            ..CharacterizeConfig::default()
        }
    }

    /// Checks the sweep parameters before any capture starts.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidParameter`] for fewer than two levels, a zero
    /// sample count, a non-positive/non-finite sample rate, a
    /// zero-duration settle phase, or a sweep whose last instant overflows
    /// the u64 nanosecond clock.
    pub fn validate(&self) -> Result<()> {
        if self.levels.len() < 2 {
            return Err(AttackError::InvalidParameter(
                "characterization needs at least two levels".into(),
            ));
        }
        if self.samples_per_level == 0 {
            return Err(AttackError::InvalidParameter(
                "samples_per_level must be non-zero".into(),
            ));
        }
        if !self.sample_rate_hz.is_finite() || self.sample_rate_hz <= 0.0 {
            return Err(AttackError::InvalidParameter(format!(
                "sample rate {} Hz is out of range",
                self.sample_rate_hz
            )));
        }
        if self.settle.as_nanos() == 0 {
            return Err(AttackError::InvalidParameter(
                "settle phase must have a non-zero duration".into(),
            ));
        }
        if self.sweep_end().is_none() {
            return Err(AttackError::InvalidParameter(
                "sweep overflows the u64 nanosecond clock".into(),
            ));
        }
        Ok(())
    }

    /// The cursor after the last level, walked as [`run_with`] walks it
    /// (settle, then one level span, per level), or `None` if any step
    /// overflows. Every instant the sweep samples lies before it.
    fn sweep_end(&self) -> Option<SimTime> {
        let period_s = Some(1.0 / self.sample_rate_hz).filter(|s| s.is_finite())?;
        let level_span = SimTime::from_secs_f64(period_s)
            .as_nanos()
            .checked_mul(u64::try_from(self.samples_per_level).ok()?)?;
        self.levels.iter().try_fold(SWEEP_START, |cursor, _| {
            cursor
                .checked_add(self.settle)?
                .checked_add(SimTime::from_nanos(level_span))
        })
    }

    /// Content digest of the sweep (parameterized by the platform seed the
    /// caller's factory uses), addressing its checkpoint file.
    pub fn sweep_key(&self, seed: u64) -> Digest {
        let content = Value::Object(vec![
            (
                "levels".into(),
                Value::Array(
                    self.levels
                        .iter()
                        .map(|&l| Value::from(u64::from(l)))
                        .collect(),
                ),
            ),
            ("sample_rate_hz".into(), Value::from(self.sample_rate_hz)),
            (
                "samples_per_level".into(),
                Value::from(self.samples_per_level as u64),
            ),
            ("settle_ns".into(), Value::from(self.settle.as_nanos())),
        ]);
        Store::key("characterize-sweep", seed, &content)
    }
}

/// Per-level measurement summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRow {
    /// Number of active power-virus groups.
    pub active_groups: u32,
    /// FPGA current channel (mA).
    pub current_ma: Summary,
    /// FPGA voltage channel (mV).
    pub voltage_mv: Summary,
    /// FPGA power channel (µW).
    pub power_uw: Summary,
    /// RO baseline mean counter value, if an RO bank is deployed.
    pub ro_count: Option<Summary>,
    /// TDC baseline thermometer code, if a TDC is deployed.
    pub tdc_code: Option<Summary>,
}

/// Checkpoint codec: a [`Summary`] as a stable JSON value (all fields
/// finite, so shortest-roundtrip floats survive bit-exactly).
fn summary_to_value(s: &Summary) -> Value {
    Value::Object(vec![
        ("count".into(), Value::from(s.count as u64)),
        ("max".into(), Value::from(s.max)),
        ("mean".into(), Value::from(s.mean)),
        ("median".into(), Value::from(s.median)),
        ("min".into(), Value::from(s.min)),
        ("std_dev".into(), Value::from(s.std_dev)),
        ("variance".into(), Value::from(s.variance)),
    ])
}

fn summary_from_value(v: &Value) -> Option<Summary> {
    Some(Summary {
        count: usize::try_from(v.get("count")?.as_u64()?).ok()?,
        mean: v.get("mean")?.as_f64()?,
        variance: v.get("variance")?.as_f64()?,
        std_dev: v.get("std_dev")?.as_f64()?,
        min: v.get("min")?.as_f64()?,
        max: v.get("max")?.as_f64()?,
        median: v.get("median")?.as_f64()?,
    })
}

impl LevelRow {
    /// Checkpoint codec: the row as a stable JSON value. Optional baseline
    /// columns encode as `null` so a resume distinguishes "not deployed"
    /// from "absent field".
    pub fn to_value(&self) -> Value {
        let opt = |s: &Option<Summary>| match s {
            Some(s) => summary_to_value(s),
            None => Value::Null,
        };
        Value::Object(vec![
            (
                "active_groups".into(),
                Value::from(u64::from(self.active_groups)),
            ),
            ("current_ma".into(), summary_to_value(&self.current_ma)),
            ("power_uw".into(), summary_to_value(&self.power_uw)),
            ("ro_count".into(), opt(&self.ro_count)),
            ("tdc_code".into(), opt(&self.tdc_code)),
            ("voltage_mv".into(), summary_to_value(&self.voltage_mv)),
        ])
    }

    /// Decodes a checkpointed row; `None` for any schema mismatch (the
    /// caller recomputes the level).
    pub fn from_json(line: &str) -> Option<LevelRow> {
        let v = json::parse(line).ok()?;
        let opt = |name: &str| -> Option<Option<Summary>> {
            match v.get(name)? {
                Value::Null => Some(None),
                s => Some(Some(summary_from_value(s)?)),
            }
        };
        Some(LevelRow {
            active_groups: u32::try_from(v.get("active_groups")?.as_u64()?).ok()?,
            current_ma: summary_from_value(v.get("current_ma")?)?,
            voltage_mv: summary_from_value(v.get("voltage_mv")?)?,
            power_uw: summary_from_value(v.get("power_uw")?)?,
            ro_count: opt("ro_count")?,
            tdc_code: opt("tdc_code")?,
        })
    }
}

/// Result of the Figure 2 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationReport {
    /// One row per activity level.
    pub rows: Vec<LevelRow>,
    /// Pearson r of per-level mean current vs. level.
    pub pearson_current: f64,
    /// Pearson r of per-level mean voltage vs. level.
    pub pearson_voltage: f64,
    /// Pearson r of per-level mean power vs. level.
    pub pearson_power: f64,
    /// Pearson r of per-level mean RO count vs. level (negative), if the
    /// RO bank was deployed.
    pub pearson_ro: Option<f64>,
    /// Pearson r of per-level mean TDC code vs. level (negative), if a
    /// TDC is deployed.
    pub pearson_tdc: Option<f64>,
    /// Linear fit of mean current (mA) vs. level: the slope is the paper's
    /// "~40 LSBs per setting" at the 1 mA hwmon resolution.
    pub fit_current: LinearFit,
    /// Linear fit of mean voltage (mV) vs. level; slope/1.25 is the LSB
    /// change per setting (paper: ~0.006).
    pub fit_voltage: LinearFit,
    /// Linear fit of mean power (mW) vs. level; slope/25 is the LSB change
    /// per setting (1-2 LSBs between consecutive settings).
    pub fit_power_mw: LinearFit,
    /// Relative variation of the current channel divided by the RO
    /// baseline's — the paper's headline 261x factor.
    pub variation_ratio_vs_ro: Option<f64>,
    /// Relative variation of the current channel divided by the TDC
    /// baseline's — same verdict for the post-RO-ban sensor generation.
    pub variation_ratio_vs_tdc: Option<f64>,
}

impl CharacterizationReport {
    /// Slope of the voltage channel in bus-ADC LSBs per activation step.
    pub fn voltage_lsb_per_step(&self) -> f64 {
        self.fit_voltage.slope / 1.25
    }

    /// Slope of the power channel in power-register LSBs per step
    /// (25 mW LSB at the FPGA sensor's calibration).
    pub fn power_lsb_per_step(&self) -> f64 {
        self.fit_power_mw.slope / 25.0
    }
}

/// Runs the characterization sweep on a platform with a deployed virus
/// array (and optionally a deployed RO bank for the baseline columns),
/// overlapping each level's captures on the process-wide pool.
///
/// # Errors
///
/// * [`AttackError::NotDeployed`] if no virus array is deployed.
/// * [`AttackError::Hwmon`] / [`AttackError::Stats`] on capture or
///   analysis failures.
pub fn run(platform: &Platform, config: &CharacterizeConfig) -> Result<CharacterizationReport> {
    run_with(platform, config, Pool::global())
}

/// [`run`] with the sweep spread over `pool` as a one-level software
/// pipeline: while level `i` is active, its hwmon capture and its rail
/// voltage pass run beside the fabric-baseline draws of level `i - 1`,
/// which read only voltages captured while that level was active. The
/// levels still run in order on one platform, and each job draws from its
/// own noise streams in their serial order, so the report is bit-identical
/// at any pool width.
///
/// # Errors
///
/// Same failure modes as [`run`].
pub fn run_with(
    platform: &Platform,
    config: &CharacterizeConfig,
    pool: &Pool,
) -> Result<CharacterizationReport> {
    let _trace = obs::trace::span("core.characterize", "sweep");
    let virus = platform
        .virus()
        .ok_or(AttackError::NotDeployed("power-virus array"))?;
    config.validate()?;
    let sampler = CurrentSampler::unprivileged(platform);
    let period = SimTime::from_secs_f64(1.0 / config.sample_rate_hz);
    let level_span = SimTime::from_nanos(period.as_nanos() * config.samples_per_level as u64);

    let mut cursor = SWEEP_START;
    let mut rows = Vec::with_capacity(config.levels.len());
    let mut captured = None;
    for &level in &config.levels {
        virus
            .activate_groups(level)
            .map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
        cursor += config.settle;
        let (row, next) = sweep_step(
            platform,
            &sampler,
            config,
            captured.take(),
            Some((level, cursor)),
            pool,
        )?;
        rows.extend(row);
        captured = next;
        cursor += level_span;
    }
    let (row, _) = sweep_step(platform, &sampler, config, captured, None, pool)?;
    rows.extend(row);

    analyze(rows)
}

/// Runs the characterization sweep with one fresh platform per activity
/// level, spreading levels across `pool`.
///
/// The serial [`run`] walks one platform through the levels with a moving
/// time cursor; here every level instead gets its own platform from
/// `factory(level)` and is measured right after settling. Keep the factory
/// a pure function of the level (e.g. `Platform::zcu102(seed ^ level)` with
/// virus/RO deployment) and the report is identical at any thread count.
///
/// # Errors
///
/// Same failure modes as [`run`], plus any error from `factory`.
pub fn run_parallel(
    factory: impl Fn(u32) -> Result<Platform> + Sync,
    config: &CharacterizeConfig,
    pool: &Pool,
) -> Result<CharacterizationReport> {
    run_parallel_checkpointed(factory, config, pool, &Checkpoint::in_memory())
}

/// [`run_parallel`] persisting every finished level row to `ckpt` as it
/// lands, indexed by the level's position in `config.levels`. A sweep
/// interrupted mid-flight resumes by rerunning with the same checkpoint:
/// persisted rows are decoded instead of re-measured, and the resumed
/// report is byte-identical to an uninterrupted run.
///
/// # Errors
///
/// Same failure modes as [`run_parallel`]. A checkpoint record that fails
/// to decode is re-measured, not an error.
pub fn run_parallel_checkpointed(
    factory: impl Fn(u32) -> Result<Platform> + Sync,
    config: &CharacterizeConfig,
    pool: &Pool,
    ckpt: &Checkpoint,
) -> Result<CharacterizationReport> {
    let _trace = obs::trace::span("core.characterize", "sweep");
    config.validate()?;
    let rows = pool
        .par_map(&config.levels, |i, &level| -> Result<LevelRow> {
            if let Some(row) = ckpt.get(i as u64).as_deref().and_then(LevelRow::from_json) {
                return Ok(row);
            }
            let platform = factory(level)?;
            let virus = platform
                .virus()
                .ok_or(AttackError::NotDeployed("power-virus array"))?;
            virus
                .activate_groups(level)
                .map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
            let sampler = CurrentSampler::unprivileged(&platform);
            let cursor = SWEEP_START + config.settle;
            let captured = CapturedLevel {
                level,
                channels: hwmon_summaries(&sampler, config, cursor)?,
                rail_volts: baseline_rail_volts(&platform, config, cursor),
            };
            let row = baseline_row(&platform, &captured)?;
            ckpt.put(i as u64, &row.to_value().to_json());
            Ok(row)
        })
        .into_iter()
        .collect::<Result<Vec<LevelRow>>>()?;
    analyze(rows)
}

/// What a level leaves once its loads are no longer needed: the hwmon
/// channel summaries, and the FPGA rail voltage at each fabric-baseline
/// sample instant (empty when no baseline is deployed).
struct CapturedLevel {
    level: u32,
    channels: [Summary; 3],
    rail_volts: Vec<f64>,
}

/// A finished job of one [`sweep_step`].
enum StepPart {
    Row(LevelRow),
    Hwmon([Summary; 3]),
    RailVolts(Vec<f64>),
}

/// One stage of the sweep pipeline, as up to three jobs on `pool`: the
/// fabric-baseline draws that finish `done`'s row, and the hwmon capture
/// and rail-voltage pass of the level `next` names (active now, measured
/// from its cursor). The jobs share no noise stream.
fn sweep_step(
    platform: &Platform,
    sampler: &CurrentSampler<'_>,
    config: &CharacterizeConfig,
    done: Option<CapturedLevel>,
    next: Option<(u32, SimTime)>,
    pool: &Pool,
) -> Result<(Option<LevelRow>, Option<CapturedLevel>)> {
    type Job<'a> = Box<dyn Fn() -> Result<StepPart> + Sync + 'a>;
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(3);
    if let Some(done) = &done {
        jobs.push(Box::new(move || {
            baseline_row(platform, done).map(StepPart::Row)
        }));
    }
    if let Some((_, cursor)) = next {
        jobs.push(Box::new(move || {
            hwmon_summaries(sampler, config, cursor).map(StepPart::Hwmon)
        }));
        jobs.push(Box::new(move || {
            Ok(StepPart::RailVolts(baseline_rail_volts(
                platform, config, cursor,
            )))
        }));
    }
    let (mut row, mut channels, mut rail_volts) = (None, None, Vec::new());
    for part in pool.par_map(&jobs, |_, job| job()) {
        match part? {
            StepPart::Row(r) => row = Some(r),
            StepPart::Hwmon(h) => channels = Some(h),
            StepPart::RailVolts(v) => rail_volts = v,
        }
    }
    let captured = next
        .zip(channels)
        .map(|((level, _), channels)| CapturedLevel {
            level,
            channels,
            rail_volts,
        });
    Ok((row, captured))
}

/// Current, voltage and power summaries of one level's hwmon capture.
fn hwmon_summaries(
    sampler: &CurrentSampler<'_>,
    config: &CharacterizeConfig,
    cursor: SimTime,
) -> Result<[Summary; 3]> {
    let [current, voltage, power] = sampler.capture_all_channels(
        PowerDomain::FpgaLogic,
        cursor,
        config.sample_rate_hz,
        config.samples_per_level,
    )?;
    Ok([
        Summary::from_samples(&current.samples)?,
        Summary::from_samples(&voltage.samples)?,
        Summary::from_samples(&power.samples)?,
    ])
}

/// The rail voltages a level's fabric-baseline samples see, or none when
/// no baseline is deployed.
fn baseline_rail_volts(
    platform: &Platform,
    config: &CharacterizeConfig,
    cursor: SimTime,
) -> Vec<f64> {
    if !platform.has_fabric_baseline() {
        return Vec::new();
    }
    let period = SimTime::from_secs_f64(1.0 / config.sample_rate_hz);
    platform.fpga_rail_volts(cursor, period, config.samples_per_level)
}

/// Draws a captured level's fabric baselines and completes its row.
fn baseline_row(platform: &Platform, level: &CapturedLevel) -> Result<LevelRow> {
    // Each probe draws at the level's first instant, as
    // `sample_ro(cursor)` would: the draw is part of the noise stream.
    let probe = level.rail_volts.get(..1).unwrap_or_default();
    let ro_count = if platform.sample_ro_at(probe).is_ok() {
        Some(Summary::from_samples(
            &platform.sample_ro_at(&level.rail_volts)?,
        )?)
    } else {
        None
    };
    let tdc_code = if platform.sample_tdc_at(probe).is_ok() {
        let codes: Vec<f64> = platform
            .sample_tdc_at(&level.rail_volts)?
            .into_iter()
            .map(f64::from)
            .collect();
        Some(Summary::from_samples(&codes)?)
    } else {
        None
    };
    let [current_ma, voltage_mv, power_uw] = level.channels;
    Ok(LevelRow {
        active_groups: level.level,
        current_ma,
        voltage_mv,
        power_uw,
        ro_count,
        tdc_code,
    })
}

/// Correlates per-level means against the activity level (Figure 2).
fn analyze(rows: Vec<LevelRow>) -> Result<CharacterizationReport> {
    let levels_f: Vec<f64> = rows.iter().map(|r| r.active_groups as f64).collect();
    let mean_i: Vec<f64> = rows.iter().map(|r| r.current_ma.mean).collect();
    let mean_v: Vec<f64> = rows.iter().map(|r| r.voltage_mv.mean).collect();
    let mean_p_mw: Vec<f64> = rows.iter().map(|r| r.power_uw.mean / 1_000.0).collect();
    let mean_ro: Option<Vec<f64>> = rows
        .iter()
        .map(|r| r.ro_count.as_ref().map(|s| s.mean))
        .collect();
    let mean_tdc: Option<Vec<f64>> = rows
        .iter()
        .map(|r| r.tdc_code.as_ref().map(|s| s.mean))
        .collect();

    let pearson_ro = match &mean_ro {
        Some(ro) => Some(pearson(&levels_f, ro)?),
        None => None,
    };
    let pearson_tdc = match &mean_tdc {
        Some(tdc) => Some(pearson(&levels_f, tdc)?),
        None => None,
    };
    let i_summary = Summary::from_samples(&mean_i)?;
    let variation_ratio_vs_ro = match &mean_ro {
        Some(ro) => {
            let ro_summary = Summary::from_samples(ro)?;
            Some(i_summary.relative_range()? / ro_summary.relative_range()?)
        }
        None => None,
    };
    let variation_ratio_vs_tdc = match &mean_tdc {
        Some(tdc) => {
            let tdc_summary = Summary::from_samples(tdc)?;
            Some(i_summary.relative_range()? / tdc_summary.relative_range()?)
        }
        None => None,
    };

    Ok(CharacterizationReport {
        pearson_current: pearson(&levels_f, &mean_i)?,
        pearson_voltage: pearson(&levels_f, &mean_v)?,
        pearson_power: pearson(&levels_f, &mean_p_mw)?,
        pearson_ro,
        pearson_tdc,
        fit_current: LinearFit::fit(&levels_f, &mean_i)?,
        fit_voltage: LinearFit::fit(&levels_f, &mean_v)?,
        fit_power_mw: LinearFit::fit(&levels_f, &mean_p_mw)?,
        variation_ratio_vs_ro,
        variation_ratio_vs_tdc,
        rows,
    })
}

/// The quickstart sweep: six coarse activity levels measured on an
/// already-deployed platform — a cheap "is this board leaking" probe with
/// one injected knob. Used by the `quickstart` example flow and as the
/// serving layer's lightest campaign verb.
///
/// # Errors
///
/// Same failure modes as [`run`]; `samples_per_level` must be non-zero.
pub fn quicklook(platform: &Platform, samples_per_level: usize) -> Result<CharacterizationReport> {
    let _trace = obs::trace::span("core.characterize", "quicklook");
    run_with(
        platform,
        &CharacterizeConfig {
            levels: vec![0, 20, 40, 80, 120, 160],
            samples_per_level,
            ..CharacterizeConfig::quick()
        },
        &Pool::serial(),
    )
}

/// Sensitivity comparison across domains: which sensors see a victim that
/// only stresses the FPGA rail. Used by examples and the ablation bench.
///
/// # Errors
///
/// Propagates capture errors from the sampler.
pub fn domain_sensitivity(
    platform: &Platform,
    start: SimTime,
    samples: usize,
) -> Result<Vec<(PowerDomain, Summary)>> {
    let sampler = CurrentSampler::unprivileged(platform);
    PowerDomain::ALL
        .iter()
        .map(|&d| {
            let trace = sampler.capture(d, Channel::Current, start, 1_000.0, samples)?;
            Ok((d, Summary::from_samples(&trace.samples)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::ring_oscillator::RoConfig;
    use fpga_fabric::virus::VirusConfig;

    fn ready_platform(seed: u64) -> Platform {
        let mut p = Platform::zcu102(seed);
        p.deploy_virus(VirusConfig::default()).unwrap();
        p.deploy_ro_bank(RoConfig::default()).unwrap();
        p
    }

    #[test]
    fn tdc_baseline_shares_the_ro_verdict() {
        let mut p = ready_platform(37);
        p.deploy_tdc(fpga_fabric::tdc::TdcConfig::default())
            .unwrap();
        let mut cfg = CharacterizeConfig::quick();
        cfg.levels = (0..=160).step_by(32).collect();
        cfg.samples_per_level = 400;
        let report = run(&p, &cfg).unwrap();
        // The TDC tracks load negatively (more load, more droop, fewer
        // taps), and its relative variation is as tiny as the RO's.
        assert!(
            report.pearson_tdc.unwrap() < -0.8,
            "{:?}",
            report.pearson_tdc
        );
        let ratio = report.variation_ratio_vs_tdc.unwrap();
        assert!(ratio > 50.0, "current must dwarf TDC variation ({ratio}x)");
    }

    #[test]
    fn quick_sweep_reproduces_figure_two_shape() {
        let p = ready_platform(31);
        let report = run(&p, &CharacterizeConfig::quick()).unwrap();
        assert_eq!(report.rows.len(), 11);
        // Current and power: near-perfect positive correlation.
        assert!(
            report.pearson_current > 0.995,
            "r_I = {}",
            report.pearson_current
        );
        assert!(
            report.pearson_power > 0.995,
            "r_P = {}",
            report.pearson_power
        );
        // Voltage correlates on means but with a tiny slope.
        assert!(report.pearson_voltage < -0.5, "voltage droops with load");
        assert!(report.voltage_lsb_per_step().abs() < 0.2);
        // RO: strong negative correlation, tiny relative variation.
        assert!(
            report.pearson_ro.unwrap() < -0.95,
            "r_RO = {:?}",
            report.pearson_ro
        );
        // ~40 mA per group step.
        assert!(
            (30.0..50.0).contains(&report.fit_current.slope),
            "slope {}",
            report.fit_current.slope
        );
        // Power: 1-2 LSB per step.
        assert!(
            (0.5..3.0).contains(&report.power_lsb_per_step()),
            "power LSB/step {}",
            report.power_lsb_per_step()
        );
        // The headline factor: current variation dwarfs RO variation.
        let ratio = report.variation_ratio_vs_ro.unwrap();
        assert!((100.0..500.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sweep_without_ro_bank_omits_baseline() {
        let mut p = Platform::zcu102(32);
        p.deploy_virus(VirusConfig::default()).unwrap();
        let mut cfg = CharacterizeConfig::quick();
        cfg.levels = vec![0, 80, 160];
        cfg.samples_per_level = 100;
        let report = run(&p, &cfg).unwrap();
        assert!(report.pearson_ro.is_none());
        assert!(report.pearson_tdc.is_none());
        assert!(report.variation_ratio_vs_ro.is_none());
        assert!(report.variation_ratio_vs_tdc.is_none());
        assert!(report.rows.iter().all(|r| r.ro_count.is_none()));
    }

    #[test]
    fn parallel_sweep_is_identical_at_any_thread_count() {
        // One fixed seed: per-seed RO calibration offsets are larger than
        // the RO's (deliberately tiny) load response, so the baseline
        // columns only trend cleanly when every level shares a platform
        // build. The levels stay independent jobs either way.
        let factory = |_level: u32| Ok(ready_platform(1_000));
        let mut cfg = CharacterizeConfig::quick();
        cfg.levels = vec![0, 40, 80, 120, 160];
        cfg.samples_per_level = 120;
        let serial = run_parallel(factory, &cfg, &Pool::serial()).unwrap();
        let two = run_parallel(factory, &cfg, &Pool::new(2)).unwrap();
        let eight = run_parallel(factory, &cfg, &Pool::new(8)).unwrap();
        assert_eq!(serial, two);
        assert_eq!(serial, eight);
        // The parallel sweep still reproduces the Figure 2 shape.
        assert!(
            serial.pearson_current > 0.99,
            "r_I = {}",
            serial.pearson_current
        );
        assert!(serial.pearson_ro.unwrap() < -0.9);
    }

    #[test]
    fn parallel_sweep_requires_virus_in_factory_platforms() {
        let factory = |level: u32| Ok(Platform::zcu102(level as u64));
        let report = run_parallel(factory, &CharacterizeConfig::quick(), &Pool::serial());
        assert!(matches!(report, Err(AttackError::NotDeployed(_))));
    }

    #[test]
    fn requires_virus_deployment() {
        let p = Platform::zcu102(33);
        assert!(matches!(
            run(&p, &CharacterizeConfig::quick()),
            Err(AttackError::NotDeployed(_))
        ));
    }

    #[test]
    fn rejects_empty_levels() {
        let p = ready_platform(34);
        let cfg = CharacterizeConfig {
            levels: vec![],
            ..CharacterizeConfig::quick()
        };
        assert!(matches!(
            run(&p, &cfg),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn current_does_not_start_from_zero() {
        // Static workloads of deployed-but-inactive instances (Figure 2
        // note in the paper).
        let p = ready_platform(35);
        let cfg = CharacterizeConfig {
            levels: vec![0, 160],
            samples_per_level: 200,
            ..CharacterizeConfig::quick()
        };
        let report = run(&p, &cfg).unwrap();
        assert_eq!(report.rows[0].active_groups, 0);
        assert!(report.rows[0].current_ma.mean > 500.0);
    }

    #[test]
    fn domain_sensitivity_singles_out_fpga() {
        let p = ready_platform(36);
        p.virus().unwrap().activate_groups(160).unwrap();
        let rows = domain_sensitivity(&p, SimTime::from_ms(40), 60).unwrap();
        let fpga = rows
            .iter()
            .find(|(d, _)| *d == PowerDomain::FpgaLogic)
            .unwrap()
            .1
            .mean;
        for (d, s) in &rows {
            if *d != PowerDomain::FpgaLogic {
                assert!(fpga > s.mean, "FPGA rail must dominate ({d}: {})", s.mean);
            }
        }
    }
}
