//! The attack-vs-defense scenario matrix: the `defend` campaign verb.
//!
//! A defend sweep fixes one attack (RSA key recovery, DPU fingerprinting,
//! or the covert channel) and one defense stack (layers from
//! [`sim_defend`]), then measures the attack's success metric at each
//! configured defense strength — the undefended baseline first, then every
//! sweep point on a platform hardened with the stack built at that
//! strength. The result is an ROC-style success-vs-strength curve
//! ([`trace_stats::roc`]) answering the operator's question: *how strong
//! must this countermeasure be before this attack stops working?*
//!
//! Determinism: every sweep point builds fresh platforms and a fresh
//! defense stack from seeds derived only from the campaign seed, the layer
//! kind, the device and the conversion window, so a sweep is byte-identical
//! at any pool width and whether served or run serially. At strength zero
//! the stack installs nothing, making the zero point *exactly* the
//! undefended baseline.

use sim_defend::{stack_from, LayerKind};
use sim_rt::json;
use sim_rt::pool::Pool;
use sim_rt::rng::derive_seed;
use sim_rt::ser::Value;
use sim_store::{Checkpoint, Digest, Store};
use trace_stats::roc::{RocCurve, RocPoint};

use fpga_fabric::covert::CovertConfig;
use hwmon_sim::HwmonError;

use crate::fingerprint::{self, FingerprintConfig};
use crate::rsa_attack::{self, RsaAttackConfig};
use crate::{covert, AttackError, Platform, Result};

/// A platform-hardening hook the attack entry points accept: called once
/// per freshly built platform, after the victim deploys and before any
/// capture. The no-op hardener reproduces the undefended attack exactly.
pub type Hardener<'a> = &'a (dyn Fn(&mut Platform) -> Result<()> + Sync);

/// The no-op hardener.
pub const UNDEFENDED: Hardener<'static> = &|_| Ok(());

/// Stream tag for deriving the defense master seed from the campaign seed
/// (`derive_seed(seed, DEFENSE_STREAM)`), keeping defense randomness
/// disjoint from every attack stream.
pub const DEFENSE_STREAM: u64 = 0xDEF0;

/// Which attack a defend sweep measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AttackKind {
    /// RSA Hamming-weight recovery; success = fraction of key groups the
    /// current channel distinguishes.
    Rsa,
    /// DPU model fingerprinting; success = best cross-validated top-1
    /// accuracy over the Table III grid.
    Fingerprint,
    /// Covert channel; success = binary-symmetric-channel capacity
    /// `1 - H2(BER)` of the round trip.
    Covert,
}

impl AttackKind {
    /// Every attack kind, in canonical order.
    pub const ALL: [AttackKind; 3] = [AttackKind::Rsa, AttackKind::Fingerprint, AttackKind::Covert];

    /// Stable configuration tag.
    pub fn tag(self) -> &'static str {
        match self {
            AttackKind::Rsa => "rsa",
            AttackKind::Fingerprint => "fingerprint",
            AttackKind::Covert => "covert",
        }
    }

    /// Parses a configuration tag.
    pub fn from_tag(tag: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Parameters of one defend sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DefendConfig {
    /// Campaign master seed (drives attack *and* defense randomness, on
    /// disjoint derived streams).
    pub seed: u64,
    /// The attack under test.
    pub attack: AttackKind,
    /// Defense layers to stack, in application order.
    pub layers: Vec<LayerKind>,
    /// Strengths to sweep, strictly increasing, each in `[0, 1]`.
    pub strengths: Vec<f64>,
    /// RSA attack parameters (used when `attack` is [`AttackKind::Rsa`];
    /// its seed field is overridden by `seed`).
    pub rsa: RsaAttackConfig,
    /// Fingerprinting parameters (seed likewise overridden).
    pub fingerprint: FingerprintConfig,
    /// Zoo prefix size for fingerprinting.
    pub n_models: usize,
    /// Covert-channel parameters.
    pub covert: CovertConfig,
    /// Covert payload.
    pub payload: Vec<u8>,
}

impl DefendConfig {
    /// A reduced sweep against `attack` for fast tests and smoke gates:
    /// jitter + noise + throttle at strengths 0, ½, 1.
    pub fn quick(attack: AttackKind) -> Self {
        DefendConfig {
            seed: 11,
            attack,
            layers: vec![LayerKind::Jitter, LayerKind::Noise, LayerKind::Throttle],
            strengths: vec![0.0, 0.5, 1.0],
            rsa: RsaAttackConfig {
                hamming_weights: vec![1, 512, 1024],
                samples_per_key: 1_500,
                ..RsaAttackConfig::quick()
            },
            fingerprint: FingerprintConfig {
                traces_per_model: 4,
                capture_seconds: 1.0,
                folds: 2,
                ..FingerprintConfig::quick()
            },
            n_models: 3,
            covert: CovertConfig::default(),
            payload: b"ampere".to_vec(),
        }
    }

    /// Checks the sweep parameters (including the selected attack's own
    /// config) before any capture starts.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidParameter`] for an empty layer list, an
    /// empty/unsorted/out-of-range strength list, or an invalid attack
    /// config.
    pub fn validate(&self) -> Result<()> {
        if self.layers.is_empty() {
            return Err(AttackError::InvalidParameter("no defense layers".into()));
        }
        if self.strengths.is_empty() {
            return Err(AttackError::InvalidParameter("no sweep strengths".into()));
        }
        for &s in &self.strengths {
            if !s.is_finite() || !(0.0..=1.0).contains(&s) {
                return Err(AttackError::InvalidParameter(format!(
                    "strength {s} outside [0, 1]"
                )));
            }
        }
        if self.strengths.windows(2).any(|w| w[1] <= w[0]) {
            return Err(AttackError::InvalidParameter(
                "strengths must be strictly increasing".into(),
            ));
        }
        match self.attack {
            AttackKind::Rsa => self.rsa.validate(),
            AttackKind::Fingerprint => self.fingerprint.validate(),
            AttackKind::Covert => {
                if self.payload.is_empty() {
                    return Err(AttackError::InvalidParameter(
                        "payload must be non-empty".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// The stack's stable textual form at sweep granularity (layer tags
    /// joined by `+`), used in reports.
    pub fn stack_tags(&self) -> String {
        self.layers
            .iter()
            .map(|k| k.tag())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Content digest of the whole sweep, addressing its checkpoint points:
    /// two sweeps share persisted points exactly when every
    /// result-affecting parameter matches.
    pub fn sweep_key(&self) -> Digest {
        let content = Value::Object(vec![
            ("attack".into(), Value::Str(self.attack.tag().into())),
            ("covert".into(), Value::Str(format!("{:?}", self.covert))),
            (
                "fingerprint".into(),
                Value::Str(format!("{:?}", self.fingerprint)),
            ),
            ("n_models".into(), Value::from(self.n_models as u64)),
            (
                "payload".into(),
                Value::Array(
                    self.payload
                        .iter()
                        .map(|&b| Value::from(b as u64))
                        .collect(),
                ),
            ),
            ("rsa".into(), Value::Str(format!("{:?}", self.rsa))),
            ("stack".into(), Value::Str(self.stack_tags())),
            (
                "strengths".into(),
                Value::Array(self.strengths.iter().map(|&s| Value::from(s)).collect()),
            ),
        ]);
        Store::key("defend-sweep", self.seed, &content)
    }
}

/// One sweep point: the attack's measured success under one defense
/// strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefendPoint {
    /// Uniform strength the stack was built at (0 for the baseline).
    pub strength: f64,
    /// Attack success metric in `[0, 1]`.
    pub success: f64,
    /// Whether the attack was blocked outright (unprivileged reads denied
    /// by an install-time layer) rather than statistically degraded.
    pub blocked: bool,
}

impl DefendPoint {
    /// Checkpoint codec: the point as a stable JSON value. `f64` fields
    /// survive bit-exactly — the serializer emits shortest-roundtrip
    /// floats, so a resumed sweep is byte-identical to a fresh one.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("blocked".into(), Value::Bool(self.blocked)),
            ("strength".into(), Value::from(self.strength)),
            ("success".into(), Value::from(self.success)),
        ])
    }

    /// Decodes a checkpointed point; `None` for any schema mismatch (the
    /// caller recomputes — a damaged record only costs work, never
    /// correctness).
    pub fn from_json(line: &str) -> Option<DefendPoint> {
        let v = json::parse(line).ok()?;
        Some(DefendPoint {
            strength: v.get("strength")?.as_f64()?,
            success: v.get("success")?.as_f64()?,
            blocked: v.get("blocked")?.as_bool()?,
        })
    }
}

/// The result of a defend sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DefendReport {
    /// The attack under test.
    pub attack: AttackKind,
    /// Layer tags of the stack, in application order.
    pub stack: String,
    /// The undefended reference point.
    pub baseline: DefendPoint,
    /// One point per configured strength, in sweep order.
    pub points: Vec<DefendPoint>,
    /// The validated success-vs-strength curve over `points`.
    pub curve: RocCurve,
}

impl DefendReport {
    /// Renders the deterministic report table (see
    /// [`RocCurve::render_table`]) — the artifact the byte-identity
    /// acceptance tests pin.
    pub fn render(&self) -> String {
        self.curve
            .render_table(self.attack.tag(), &self.stack, self.baseline.success)
    }
}

/// Shannon capacity of a binary symmetric channel with crossover `ber`,
/// the covert channel's success metric: `1` for error-free decoding,
/// `0` at BER one-half.
pub fn bsc_capacity(ber: f64) -> f64 {
    let p = ber.clamp(0.0, 1.0);
    let p = p.min(1.0 - p); // an inverting channel still carries bits
    if p <= 0.0 {
        return 1.0;
    }
    1.0 + p * p.log2() + (1.0 - p) * (1.0 - p).log2()
}

/// Runs one attack, hardened or not, and reduces it to a [`DefendPoint`].
/// `strength: None` is the undefended baseline (structurally identical to
/// calling the plain attack entry points). The RSA attack spreads its keys
/// across `pool`; sweep points already inside a `par_map` pass
/// [`Pool::serial`].
fn attack_point(config: &DefendConfig, strength: Option<f64>, pool: &Pool) -> Result<DefendPoint> {
    let started_ns = obs::clock::monotonic_ns();
    let defense_seed = derive_seed(config.seed, DEFENSE_STREAM);
    let harden = move |platform: &mut Platform| -> Result<()> {
        if let Some(s) = strength {
            // Fresh stack per platform: stateful layers (throttle) must
            // not leak history across the sweep's independent platforms.
            let stack = stack_from(&config.layers, s, defense_seed);
            if !stack.is_noop() {
                stack
                    .install(platform.hwmon_mut())
                    .map_err(AttackError::from)?;
            }
        }
        Ok(())
    };
    let outcome: Result<f64> = match config.attack {
        AttackKind::Rsa => {
            let mut cfg = config.rsa.clone();
            cfg.seed = config.seed;
            rsa_attack::run_hardened(&cfg, pool, &harden).map(|report| {
                report.current_separability.distinguishable as f64
                    / report.observations.len() as f64
            })
        }
        AttackKind::Fingerprint => {
            let mut cfg = config.fingerprint.clone();
            cfg.seed = config.seed;
            // Serial inner pool: the sweep point is the parallel axis.
            fingerprint::run_hardened(&cfg, config.n_models, &Pool::serial(), &harden).map(|grid| {
                grid.rows
                    .iter()
                    .flat_map(|(_, cells)| cells.iter().map(|c| c.top1))
                    .fold(0.0f64, f64::max)
            })
        }
        AttackKind::Covert => {
            covert::round_trip_hardened(&config.covert, &config.payload, config.seed, &harden)
                .map(|(_rx, ber)| bsc_capacity(ber))
        }
    };
    let point = match outcome {
        Ok(success) => DefendPoint {
            strength: strength.unwrap_or(0.0),
            success,
            blocked: false,
        },
        // An install-time layer (root-only) denies the unprivileged
        // sampler: the attack is blocked outright, success zero.
        Err(AttackError::Hwmon(HwmonError::PermissionDenied(_))) => {
            obs::counter!("defend.blocked").inc();
            DefendPoint {
                strength: strength.unwrap_or(0.0),
                success: 0.0,
                blocked: true,
            }
        }
        Err(e) => return Err(e),
    };
    obs::counter!("defend.points").inc();
    obs::histogram!("defend.point.ns")
        .observe(obs::clock::monotonic_ns().saturating_sub(started_ns));
    Ok(point)
}

/// Runs a defend sweep on the process-wide pool.
///
/// # Errors
///
/// Propagates configuration and attack failures (a permission-denied
/// capture is a *blocked* point, not an error).
pub fn run(config: &DefendConfig) -> Result<DefendReport> {
    run_with(config, Pool::global())
}

/// [`run`] with the sweep points spread across `pool`. Each point is a
/// pure function of `(seed, attack config, layers, strength)`, so the
/// report is byte-identical at any pool width.
///
/// # Errors
///
/// Propagates configuration and attack failures.
pub fn run_with(config: &DefendConfig, pool: &Pool) -> Result<DefendReport> {
    run_checkpointed(config, pool, None)
}

/// [`run_with`] persisting every finished point to `ckpt` as it lands:
/// point 0 is the undefended baseline, point `i + 1` is `strengths[i]`.
/// A sweep interrupted mid-flight resumes by rerunning with the same
/// checkpoint — already-persisted points are decoded instead of
/// recomputed, and the resumed report is byte-identical to an
/// uninterrupted run (the codec round-trips `f64` bit-exactly).
///
/// `None` persists nothing (that is all [`run_with`] does).
///
/// # Errors
///
/// Propagates configuration and attack failures. A checkpoint record that
/// fails to decode is recomputed, not an error.
pub fn run_checkpointed(
    config: &DefendConfig,
    pool: &Pool,
    ckpt: Option<&Checkpoint>,
) -> Result<DefendReport> {
    config.validate()?;
    obs::counter!("defend.sweeps").inc();
    obs::info!(
        "core.defend",
        "defend sweep started";
        "attack" => config.attack.tag(),
        "points" => config.strengths.len() as u64
    );
    let baseline = checkpointed_point(ckpt, 0, || attack_point(config, None, pool))?;
    let indices: Vec<usize> = (0..config.strengths.len()).collect();
    let points: Vec<DefendPoint> = pool
        .par_map(&indices, |_, &i| {
            checkpointed_point(ckpt, i as u64 + 1, || {
                // Serial inner pool: the sweep point is the parallel axis.
                attack_point(config, config.strengths.get(i).copied(), &Pool::serial())
            })
        })
        .into_iter()
        .collect::<Result<_>>()?;
    let curve = RocCurve::new(
        points
            .iter()
            .map(|p| RocPoint {
                strength: p.strength,
                success: p.success,
            })
            .collect(),
    )?;
    obs::info!("core.defend", "defend sweep finished"; "auc" => format!("{:.4}", curve.auc()));
    Ok(DefendReport {
        attack: config.attack,
        stack: config.stack_tags(),
        baseline,
        points,
        curve,
    })
}

/// Serves point `index` from `ckpt` when a decodable record exists,
/// otherwise computes it via `compute` and persists the result.
fn checkpointed_point(
    ckpt: Option<&Checkpoint>,
    index: u64,
    compute: impl FnOnce() -> Result<DefendPoint>,
) -> Result<DefendPoint> {
    let Some(ckpt) = ckpt else {
        return compute();
    };
    if let Some(point) = ckpt.get(index).as_deref().and_then(DefendPoint::from_json) {
        return Ok(point);
    }
    let point = compute()?;
    ckpt.put(index, &point.to_value().to_json());
    Ok(point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsc_capacity_shape() {
        assert_eq!(bsc_capacity(0.0), 1.0);
        assert!(bsc_capacity(0.5).abs() < 1e-12);
        assert_eq!(bsc_capacity(1.0), 1.0); // inverted but perfect
        let mid = bsc_capacity(0.11);
        assert!((0.0..1.0).contains(&mid));
        assert!(bsc_capacity(0.05) > bsc_capacity(0.2));
    }

    #[test]
    fn validation_rejects_bad_sweeps() {
        let mut c = DefendConfig::quick(AttackKind::Covert);
        c.layers.clear();
        assert!(c.validate().is_err());
        let mut c = DefendConfig::quick(AttackKind::Covert);
        c.strengths = vec![0.5, 0.5];
        assert!(c.validate().is_err());
        let mut c = DefendConfig::quick(AttackKind::Covert);
        c.strengths = vec![-0.1];
        assert!(c.validate().is_err());
        let mut c = DefendConfig::quick(AttackKind::Covert);
        c.payload.clear();
        assert!(c.validate().is_err());
        assert!(DefendConfig::quick(AttackKind::Covert).validate().is_ok());
    }

    #[test]
    fn covert_sweep_degrades_with_strength() {
        let config = DefendConfig::quick(AttackKind::Covert);
        let report = run_with(&config, &Pool::serial()).unwrap();
        assert_eq!(report.points.len(), 3);
        // Strength zero equals the undefended baseline exactly.
        assert_eq!(report.points[0].success, report.baseline.success);
        assert_eq!(report.baseline.success, 1.0, "quick covert decodes clean");
        // Full strength must hurt: jitter+noise+throttle at 1.0 break the
        // on-off keying decode.
        assert!(
            report.points[2].success < report.baseline.success,
            "full-strength stack did not degrade the channel: {:?}",
            report.points
        );
        assert!(report.curve.auc() < 1.0);
        let table = report.render();
        assert!(table.contains("defend sweep        : covert vs jitter+noise+throttle"));
    }

    #[test]
    fn root_only_blocks_every_attack_kind() {
        for attack in AttackKind::ALL {
            let mut config = DefendConfig::quick(attack);
            config.layers = vec![LayerKind::RootOnly];
            config.strengths = vec![1.0];
            let report = run_with(&config, &Pool::serial()).unwrap();
            assert!(report.points[0].blocked, "{attack} not blocked");
            assert_eq!(report.points[0].success, 0.0);
            assert!(!report.baseline.blocked);
            assert!(report.baseline.success > 0.0);
        }
    }

    #[test]
    fn attack_kind_tags_round_trip() {
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.to_string(), kind.tag());
        }
        assert_eq!(AttackKind::from_tag("bogus"), None);
    }
}
