//! Cross-thread-count determinism of the fingerprinting campaign and of
//! the Figure 2 and Figure 4 experiments.
//!
//! The runtime's contract: every parallel stage derives per-job seeds
//! purely from the campaign seed and the job's index, so the corpus, the
//! feature datasets, and the Table III accuracy grid are *byte-identical*
//! whether the work runs on one worker or many. These tests pin that
//! contract end to end — floating-point results are compared through
//! their bit patterns, not with a tolerance. The Figure 2 and Figure 4
//! reports are pinned to golden canonical-JSON digests, so the same check
//! also catches any drift in a noise stream, seed or draw order.

use amperebleed::characterize::{self, CharacterizationReport, CharacterizeConfig};
use amperebleed::fingerprint::{
    build_dataset, collect_corpus_with, evaluate_grid_with, AccuracyGrid, FingerprintConfig,
    ModelCapture, TABLE3_CHANNELS,
};
use amperebleed::rsa_attack::{self, RsaAttackConfig, RsaAttackReport};
use amperebleed::Platform;
use dnn_models::ModelArch;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::tdc::TdcConfig;
use fpga_fabric::virus::VirusConfig;
use sim_rt::ser::Value;
use sim_rt::Pool;
use trace_stats::separability::Separability;
use trace_stats::{LinearFit, Summary};

fn victims() -> Vec<ModelArch> {
    let models = dnn_models::zoo();
    ["mobilenet-v1", "resnet-50", "vgg-19", "squeezenet"]
        .iter()
        .map(|n| models.iter().find(|m| &m.name == n).unwrap().clone())
        .collect()
}

fn collect(pool: &Pool) -> (Vec<ModelCapture>, FingerprintConfig) {
    let models = victims();
    let refs: Vec<&ModelArch> = models.iter().collect();
    let config = FingerprintConfig::quick();
    let corpus = collect_corpus_with(&refs, &config, pool).unwrap();
    (corpus, config)
}

/// Every f64 in the corpus, as raw bits, in deterministic order.
fn corpus_bits(corpus: &[ModelCapture]) -> Vec<u64> {
    corpus
        .iter()
        .flat_map(|c| c.traces.iter())
        .flat_map(|t| t.samples.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn corpus_is_byte_identical_at_1_2_and_8_threads() {
    let (serial, config) = collect(&Pool::serial());
    let (two, _) = collect(&Pool::new(2));
    let (eight, _) = collect(&Pool::new(8));
    assert_eq!(serial.len(), 4 * config.traces_per_model);
    assert_eq!(corpus_bits(&serial), corpus_bits(&two));
    assert_eq!(corpus_bits(&serial), corpus_bits(&eight));
    // Labels and names ride along in slot order too.
    for (a, b) in serial.iter().zip(&eight) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.model_name, b.model_name);
    }
}

#[test]
fn feature_datasets_are_byte_identical_across_pools() {
    let (serial, config) = collect(&Pool::serial());
    let (eight, _) = collect(&Pool::new(8));
    for &channel in &TABLE3_CHANNELS {
        let a = build_dataset(&serial, channel, 2.0, config.resample_len).unwrap();
        let b = build_dataset(&eight, channel, 2.0, config.resample_len).unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let bits_a: Vec<u64> = a.features_of(i).iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.features_of(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "row {i} of {channel:?}");
        }
    }
}

#[test]
fn accuracy_grid_is_identical_at_1_2_and_8_threads() {
    let (corpus, config) = collect(&Pool::serial());
    let durations = [1.0, 2.0];
    for pool in [Pool::serial(), Pool::new(2), Pool::new(8)] {
        let grid = evaluate_grid_with(&corpus, &config, &durations, &pool).unwrap();
        assert_eq!(
            grid_digest(&grid),
            GRID_QUICK_DIGEST,
            "{} threads",
            pool.threads()
        );
    }
}

/// Digest of a quick Figure 2 sweep (seed-31 platform with the RO bank
/// and a TDC), recorded before the sweep was pipelined over the pool.
const FIG2_QUICK_DIGEST: &str = "cbb6b96db3d003fa";
/// Digest of a quick Figure 4 run, recorded before the keys were spread
/// across the pool.
const FIG4_QUICK_DIGEST: &str = "22c786fc1f89e9e8";
/// Digest of the quick Table III grid (four victims, 1 s and 2 s cells),
/// recorded before the random forest's split search was rewritten.
const GRID_QUICK_DIGEST: &str = "45faf1a063b53610";

fn summary_value(s: &Summary) -> Value {
    Value::Array(vec![
        Value::from(s.count as u64),
        Value::Float(s.mean),
        Value::Float(s.variance),
        Value::Float(s.std_dev),
        Value::Float(s.min),
        Value::Float(s.max),
        Value::Float(s.median),
    ])
}

fn fit_value(f: &LinearFit) -> Value {
    Value::Array(vec![
        Value::Float(f.slope),
        Value::Float(f.intercept),
        Value::Float(f.r_squared),
        Value::Float(f.residual_std),
    ])
}

fn opt_value(x: Option<f64>) -> Value {
    x.map_or(Value::Null, Value::Float)
}

fn separability_value(s: &Separability) -> Value {
    let groups = s
        .groups
        .iter()
        .map(|g| Value::Array(vec![Value::Str(g.label.clone()), summary_value(&g.summary)]))
        .collect();
    let clusters = s
        .cluster_of
        .iter()
        .map(|&c| Value::from(c as u64))
        .collect();
    Value::Object(vec![
        ("groups".into(), Value::Array(groups)),
        ("cluster_of".into(), Value::Array(clusters)),
        (
            "distinguishable".into(),
            Value::from(s.distinguishable as u64),
        ),
    ])
}

/// First 16 hex digits of the canonical-JSON digest.
fn digest(v: &Value) -> String {
    sim_store::Digest::of_str(&v.to_canonical_json()).hex()[..16].to_string()
}

/// Every field of the report, bit-exact.
fn fig2_digest(r: &CharacterizationReport) -> String {
    digest(&Value::Object(vec![
        (
            "rows".into(),
            Value::Array(r.rows.iter().map(|row| row.to_value()).collect()),
        ),
        ("pearson_current".into(), Value::Float(r.pearson_current)),
        ("pearson_voltage".into(), Value::Float(r.pearson_voltage)),
        ("pearson_power".into(), Value::Float(r.pearson_power)),
        ("pearson_ro".into(), opt_value(r.pearson_ro)),
        ("pearson_tdc".into(), opt_value(r.pearson_tdc)),
        ("fit_current".into(), fit_value(&r.fit_current)),
        ("fit_voltage".into(), fit_value(&r.fit_voltage)),
        ("fit_power_mw".into(), fit_value(&r.fit_power_mw)),
        (
            "variation_ratio_vs_ro".into(),
            opt_value(r.variation_ratio_vs_ro),
        ),
        (
            "variation_ratio_vs_tdc".into(),
            opt_value(r.variation_ratio_vs_tdc),
        ),
    ]))
}

/// Every cell of the grid, bit-exact.
fn grid_digest(g: &AccuracyGrid) -> String {
    let rows = g
        .rows
        .iter()
        .map(|(sc, cells)| {
            let mut row = vec![Value::Str(sc.to_string())];
            row.extend(cells.iter().map(|c| {
                Value::Array(vec![
                    Value::Float(c.duration_s),
                    Value::Float(c.top1),
                    Value::Float(c.top5),
                ])
            }));
            Value::Array(row)
        })
        .collect();
    digest(&Value::Object(vec![
        ("rows".into(), Value::Array(rows)),
        ("n_classes".into(), Value::from(g.n_classes as u64)),
    ]))
}

/// Every field of the report, bit-exact.
fn fig4_digest(r: &RsaAttackReport) -> String {
    let observations = r
        .observations
        .iter()
        .map(|o| {
            Value::Array(vec![
                Value::from(u64::from(o.hamming_weight)),
                summary_value(&o.current_ma),
                summary_value(&o.power_mw),
            ])
        })
        .collect();
    digest(&Value::Object(vec![
        ("observations".into(), Value::Array(observations)),
        (
            "current_separability".into(),
            separability_value(&r.current_separability),
        ),
        (
            "power_separability".into(),
            separability_value(&r.power_separability),
        ),
    ]))
}

fn fig2_platform() -> Platform {
    let mut p = Platform::zcu102(31);
    p.deploy_virus(VirusConfig::default()).unwrap();
    p.deploy_ro_bank(RoConfig::default()).unwrap();
    p.deploy_tdc(TdcConfig::default()).unwrap();
    p
}

#[test]
fn fig2_quick_report_matches_golden_digest_at_1_2_and_8_threads() {
    for pool in [Pool::serial(), Pool::new(2), Pool::new(8)] {
        let report =
            characterize::run_with(&fig2_platform(), &CharacterizeConfig::quick(), &pool).unwrap();
        assert!(report
            .rows
            .iter()
            .all(|row| row.ro_count.is_some() && row.tdc_code.is_some()));
        assert_eq!(
            fig2_digest(&report),
            FIG2_QUICK_DIGEST,
            "{} threads",
            pool.threads()
        );
    }
}

#[test]
fn fig4_quick_report_matches_golden_digest_at_1_2_and_8_threads() {
    for pool in [Pool::serial(), Pool::new(2), Pool::new(8)] {
        let report = rsa_attack::run_with(&RsaAttackConfig::quick(), &pool).unwrap();
        assert_eq!(
            fig4_digest(&report),
            FIG4_QUICK_DIGEST,
            "{} threads",
            pool.threads()
        );
    }
}
