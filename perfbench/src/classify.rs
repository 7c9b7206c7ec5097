//! `classify`: Table III at `FingerprintConfig::quick()` scale over all
//! 39 models with the five-duration grid, then the default campaign.
//! Random-forest fitting and trace features do most of the work, on the
//! process-wide pool.

use amperebleed::campaign::{self, CampaignConfig, CampaignReport};
use amperebleed::fingerprint::{self, AccuracyGrid, FingerprintConfig, SensorChannel};
use amperebleed::Channel;
use dnn_models::ModelArch;
use sim_rt::ser::Value;
use zynq_soc::PowerDomain;

use crate::offline::Loop;
use crate::report::{Layers, Outcome};
use crate::{digest, shape};

/// Capture durations of the Table III grid, seconds.
const DURATIONS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// Campaign stages, with the per-layer metric each one's time feeds.
const PHASES: [(&str, &str); 6] = [
    ("characterization", "campaign.characterization_s"),
    ("fingerprinting", "campaign.fingerprinting_s"),
    ("rsa", "campaign.rsa_s"),
    ("covert", "campaign.covert_s"),
    ("tee+workload", "campaign.tee_workload_s"),
    ("mitigation", "campaign.mitigation_s"),
];

/// Runs the offline loop for `budget_s` seconds over `models`.
pub fn offline(
    seed: u64,
    budget_s: f64,
    models: &[ModelArch],
    out: &mut Outcome,
    mut layers: Option<&mut Layers>,
) -> Loop {
    let victims: Vec<&ModelArch> = models.iter().collect();
    let table3 = FingerprintConfig {
        seed,
        ..FingerprintConfig::quick()
    };
    let full = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };
    let mut phase_s = [0.0f64; PHASES.len()];
    let mut digests: Option<(String, String)> = None;
    let run = crate::offline::run(seed, budget_s, layers.as_deref_mut(), |timer| {
        let grid = timer
            .time("collect_corpus", || {
                fingerprint::collect_corpus(&victims, &table3)
            })
            .and_then(|corpus| {
                timer.time("evaluate_grid", || {
                    fingerprint::evaluate_grid(&corpus, &table3, &DURATIONS)
                })
            });
        let report = timer.time("campaign", || campaign::run(&full));

        let first = digests.is_none();
        let (dg, dc) = (
            grid.as_ref().map(grid_digest).unwrap_or_default(),
            report.as_ref().map(campaign_digest).unwrap_or_default(),
        );
        let (ref_g, ref_c) = digests.get_or_insert_with(|| (dg.clone(), dc.clone()));
        let ok_grid = match &grid {
            Ok(g) => {
                let top1 = |channel| {
                    let sc = SensorChannel {
                        domain: PowerDomain::FpgaLogic,
                        channel,
                    };
                    g.cell(sc, DURATIONS[4]).map_or(f64::NAN, |c| c.top1)
                };
                let (i, v) = (top1(Channel::Current), top1(Channel::Voltage));
                let shapes = [
                    shape(
                        first,
                        "table3 FPGA current top-1",
                        i,
                        "0.997",
                        i.is_finite(),
                    ),
                    shape(
                        first,
                        "table3 FPGA voltage top-1",
                        v,
                        "0.116",
                        v.is_finite(),
                    ),
                    shape(
                        first,
                        "table3 current - voltage",
                        i - v,
                        "0.881",
                        i > v + 0.3,
                    ),
                ];
                shapes.iter().all(|&s| s) && dg == *ref_g
            }
            Err(e) => {
                eprintln!("classify: table3 failed: {e}");
                false
            }
        };
        let ok_campaign = match &report {
            Ok(r) => {
                let c = &r.characterization;
                let shapes = [
                    shape(
                        first,
                        "campaign r_I",
                        c.pearson_current,
                        "0.999",
                        c.pearson_current > 0.99,
                    ),
                    shape(
                        first,
                        "campaign covert BER",
                        r.covert_ber,
                        "0",
                        r.covert_ber < 0.1,
                    ),
                    shape(
                        first,
                        "campaign mitigation blocks",
                        f64::from(u8::from(r.mitigation_effective)),
                        "1",
                        r.mitigation_effective,
                    ),
                ];
                for p in &r.phase_timings {
                    if let Some(k) = PHASES.iter().position(|(name, _)| *name == p.name) {
                        phase_s[k] += p.elapsed.as_secs_f64();
                    }
                }
                shapes.iter().all(|&s| s) && dc == *ref_c
            }
            Err(e) => {
                eprintln!("classify: campaign failed: {e}");
                false
            }
        };
        if first {
            println!("digest table3 {dg}  campaign {dc}");
        }
        out.op(ok_grid);
        out.op(ok_campaign);
    });
    if let Some(layers) = layers {
        let per_pass = |name| run.timer.per_pass(name, run.passes);
        layers.set("fingerprint.collect_corpus_s", per_pass("collect_corpus"));
        layers.set("fingerprint.evaluate_grid_s", per_pass("evaluate_grid"));
        for ((_, metric), s) in PHASES.iter().zip(phase_s) {
            layers.set(metric, s / run.passes as f64);
        }
    }
    run
}

fn grid_digest(g: &AccuracyGrid) -> String {
    let rows: Vec<Value> = g
        .rows
        .iter()
        .map(|(sc, cells)| {
            let mut row = vec![Value::Str(sc.to_string())];
            row.extend(
                cells
                    .iter()
                    .flat_map(|c| [Value::Float(c.top1), Value::Float(c.top5)]),
            );
            Value::Array(row)
        })
        .collect();
    digest(&Value::Array(rows))
}

fn campaign_digest(r: &CampaignReport) -> String {
    digest(&Value::Object(vec![
        (
            "table3".into(),
            Value::Str(grid_digest(&r.fingerprint_grid)),
        ),
        (
            "pearson_current".into(),
            Value::Float(r.characterization.pearson_current),
        ),
        (
            "rsa_current_groups".into(),
            Value::Int(r.rsa.current_separability.distinguishable as i64),
        ),
        ("covert_ber".into(), Value::Float(r.covert_ber)),
        ("tee_accuracy".into(), Value::Float(r.tee_accuracy)),
        (
            "workload_accuracy".into(),
            Value::Float(r.workload_accuracy),
        ),
        (
            "mitigation_effective".into(),
            Value::Bool(r.mitigation_effective),
        ),
    ]))
}
