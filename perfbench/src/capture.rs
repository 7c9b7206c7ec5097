//! `capture`: the Fig. 2 sweep over all 161 levels with the RO bank
//! co-deployed, then Fig. 4 over all 17 key weights, on one serial
//! platform per pass. The sensing stack does nearly all the work.

use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use sim_rt::ser::Value;
use sim_serve::exec;

use crate::offline::Loop;
use crate::report::{Layers, Outcome};
use crate::{digest, shape};

/// hwmon samples per level of the Fig. 2 sweep.
const FIG2_SAMPLES: usize = 8_000;
/// Samples per key of the Fig. 4 profile: the paper's count. At 20 000,
/// two adjacent weights merge on about one seed in twenty (16/17 groups).
const FIG4_SAMPLES: usize = 100_000;

/// Runs the offline loop for `budget_s` seconds.
pub fn offline(
    seed: u64,
    budget_s: f64,
    out: &mut Outcome,
    mut layers: Option<&mut Layers>,
) -> Loop {
    let fig2 = CharacterizeConfig {
        samples_per_level: FIG2_SAMPLES,
        ..CharacterizeConfig::default()
    };
    let fig4 = RsaAttackConfig {
        samples_per_key: FIG4_SAMPLES,
        seed,
        ..RsaAttackConfig::default()
    };
    let mut digests: Option<(String, String)> = None;
    let run = crate::offline::run(seed, budget_s, layers.as_deref_mut(), |timer| {
        let platform = exec::ready_platform(seed).map_err(|e| e.message);
        let sweep = timer.time("fig2", || {
            platform.and_then(|p| characterize::run(&p, &fig2).map_err(|e| e.to_string()))
        });
        let profile = timer.time("fig4", || rsa_attack::run(&fig4));

        let first = digests.is_none();
        let (d2, d4) = (
            sweep.as_ref().map(fig2_digest).unwrap_or_default(),
            profile.as_ref().map(fig4_digest).unwrap_or_default(),
        );
        let (ref2, ref4) = digests.get_or_insert_with(|| (d2.clone(), d4.clone()));
        let ok2 = match &sweep {
            Ok(r) => {
                let ratio = r.variation_ratio_vs_ro.unwrap_or(f64::NAN);
                let shapes = [
                    shape(
                        first,
                        "fig2 r_I",
                        r.pearson_current,
                        "0.999",
                        r.pearson_current > 0.998,
                    ),
                    shape(
                        first,
                        "fig2 slope mA/step",
                        r.fit_current.slope,
                        "~40",
                        (30.0..=50.0).contains(&r.fit_current.slope),
                    ),
                    shape(
                        first,
                        "fig2 I/RO variation x",
                        ratio,
                        "261",
                        (100.0..=500.0).contains(&ratio),
                    ),
                ];
                shapes.iter().all(|&s| s) && d2 == *ref2
            }
            Err(e) => {
                eprintln!("capture: fig2 failed: {e}");
                false
            }
        };
        let ok4 = match &profile {
            Ok(r) => {
                let (ni, np) = (
                    r.current_separability.distinguishable,
                    r.power_separability.distinguishable,
                );
                let shapes = [
                    shape(first, "fig4 current groups", ni as f64, "17", ni == 17),
                    shape(
                        first,
                        "fig4 power groups",
                        np as f64,
                        "~5",
                        (3..=8).contains(&np),
                    ),
                ];
                shapes.iter().all(|&s| s) && d4 == *ref4
            }
            Err(e) => {
                eprintln!("capture: fig4 failed: {e}");
                false
            }
        };
        if first {
            println!("digest fig2 {d2}  fig4 {d4}");
        }
        out.op(ok2);
        out.op(ok4);
    });
    if let Some(layers) = layers {
        layers.set("characterize.run_s", run.timer.per_pass("fig2", run.passes));
        layers.set("rsa_attack.run_s", run.timer.per_pass("fig4", run.passes));
    }
    run
}

fn fig2_digest(r: &characterize::CharacterizationReport) -> String {
    let rows: Vec<Value> = r
        .rows
        .iter()
        .map(|row| {
            Value::Array(vec![
                Value::Int(i64::from(row.active_groups)),
                Value::Float(row.current_ma.mean),
                Value::Float(row.voltage_mv.mean),
                Value::Float(row.power_uw.mean),
                row.ro_count
                    .as_ref()
                    .map_or(Value::Null, |s| Value::Float(s.mean)),
            ])
        })
        .collect();
    digest(&Value::Object(vec![
        ("rows".into(), Value::Array(rows)),
        ("pearson_current".into(), Value::Float(r.pearson_current)),
        ("slope".into(), Value::Float(r.fit_current.slope)),
    ]))
}

fn fig4_digest(r: &rsa_attack::RsaAttackReport) -> String {
    let obs: Vec<Value> = r
        .observations
        .iter()
        .map(|o| {
            Value::Array(vec![
                Value::Int(i64::from(o.hamming_weight)),
                Value::Float(o.current_ma.mean),
                Value::Float(o.power_mw.mean),
            ])
        })
        .collect();
    digest(&Value::Object(vec![
        ("observations".into(), Value::Array(obs)),
        (
            "current_groups".into(),
            Value::Int(r.current_separability.distinguishable as i64),
        ),
        (
            "power_groups".into(),
            Value::Int(r.power_separability.distinguishable as i64),
        ),
    ]))
}
