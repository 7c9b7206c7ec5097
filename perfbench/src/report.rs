//! Metric names, the per-layer table, and the result line.

use std::collections::BTreeMap;

use obs::metrics::MetricsSnapshot;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. Counts
/// and times of the offline layers are per pass (one iteration of the
/// offline loop; the whole schedule for `farm`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("sampler.capture_s", "s"),
    ("sampler.ns_per_read", "ns"),
    ("hwmon-sim.reads", "count"),
    ("hwmon-sim.fresh_ratio", "ratio"),
    ("ina226.conversions", "count"),
    ("zynq-soc.oppoint_hit_ratio", "ratio"),
    ("zynq-soc.pdn_transients", "count"),
    ("fpga-fabric.virus_activations", "count"),
    ("characterize.run_s", "s"),
    ("rsa_attack.run_s", "s"),
    ("experiment.self_s", "s"),
    ("fingerprint.collect_corpus_s", "s"),
    ("fingerprint.evaluate_grid_s", "s"),
    ("rforest.fit_s", "s"),
    ("rforest.fits", "count"),
    ("dpu.model_loads", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.jobs_stolen", "count"),
    ("campaign.characterization_s", "s"),
    ("campaign.fingerprinting_s", "s"),
    ("campaign.rsa_s", "s"),
    ("campaign.covert_s", "s"),
    ("campaign.tee_workload_s", "s"),
    ("campaign.mitigation_s", "s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.checkout_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("store.get_us_p50", "us"),
    ("store.insert_us_p50", "us"),
    ("serve.fanout_wait_ms_mean", "ms"),
    ("serve.respond_ms_p50", "ms"),
    ("store.hit_ratio", "ratio"),
    ("sched.batch_size_mean", "count"),
    ("sched.dedup_ratio", "ratio"),
    ("gen.requests", "count"),
    ("gen.late_ms_max", "ms"),
    ("trace.dropped", "count"),
    ("trace.overhead_frac", "ratio"),
    ("ledger.unattributed_frac", "ratio"),
];

/// Per-layer values by name. A layer a workload does not exercise reads
/// 0 (an undefined ratio or percentile, such as a hit ratio with no
/// lookups, also reads 0).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be one of [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// On a name outside [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.0
            .insert(key, if value.is_finite() { value } else { 0.0 });
    }
}

/// Fills the sensing-stack and analysis layers from a metrics snapshot
/// covering `passes` passes.
pub fn sensing_layers(layers: &mut Layers, snap: &MetricsSnapshot, passes: f64) {
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hist_sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64);
    let capture_ns = hist_sum("sampler.capture.ns");
    let reads = counter("sampler.reads.current")
        + counter("sampler.reads.voltage")
        + counter("sampler.reads.power");
    let (fresh, held) = (counter("hwmon.reads.fresh"), counter("hwmon.reads.held"));
    let (hit, miss) = (
        counter("soc.oppoint.cache_hit"),
        counter("soc.oppoint.cache_miss"),
    );
    layers.set("sampler.capture_s", capture_ns / 1e9 / passes);
    layers.set("sampler.ns_per_read", capture_ns / reads);
    layers.set("hwmon-sim.reads", counter("hwmon.fs.reads") / passes);
    layers.set("hwmon-sim.fresh_ratio", fresh / (fresh + held));
    layers.set("ina226.conversions", counter("ina226.conversions") / passes);
    layers.set("zynq-soc.oppoint_hit_ratio", hit / (hit + miss));
    layers.set(
        "zynq-soc.pdn_transients",
        counter("zynq.pdn.transients") / passes,
    );
    layers.set(
        "fpga-fabric.virus_activations",
        counter("fabric.virus.activations") / passes,
    );
    layers.set(
        "rforest.fit_s",
        hist_sum("span.rforest.forest.fit.ns") / 1e9 / passes,
    );
    layers.set("rforest.fits", counter("rforest.fits") / passes);
    layers.set("dpu.model_loads", counter("dpu.model_loads") / passes);
}

/// Peak resident set of this process in MB (`VmHWM`), `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that errored or failed their correctness check.
    pub failed: usize,
    /// Correctness-check failures among them.
    pub mismatches: usize,
    /// End-to-end values by name (trace off).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values (trace on).
    pub layers: Layers,
}

impl Outcome {
    /// Records one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
        }
    }

    /// Sets an end-to-end value, which must be one of [`END_TO_END`].
    ///
    /// # Panics
    ///
    /// On a name outside [`END_TO_END`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not an end-to-end metric"));
        self.end_to_end.insert(key, value);
    }

    /// Prints the metric table and, last, the one-line JSON result.
    pub fn print(&self, traced: bool) {
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac           = {fail_frac} ({} of {} operations failed, {} correctness mismatches)",
            self.failed, self.attempted, self.mismatches
        );
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = if traced {
                self.layers.0.get(name).copied().unwrap_or(0.0)
            } else {
                self.end_to_end.get(name).copied().unwrap_or(f64::NAN)
            };
            println!("{name:<30} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// A JSON number; a non-finite value (never expected) prints as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rt::json;

    /// The names and units the benchmark prints are the ones its
    /// manifest declares, in both tables.
    #[test]
    fn tables_match_the_benchmark_manifest() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let manifest = json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = manifest
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
    }

    /// RECORD.json lists every manifest metric, in order, and states the
    /// latency limit the code applies, as does the `farm` reason.
    #[test]
    fn record_matches_the_manifest_and_the_limit() {
        let read = |path: &str| {
            json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON")
        };
        let (manifest, record) = (read("../BENCHMARK.json"), read("RECORD.json"));
        let names = |v: &sim_rt::ser::Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(|v| v.as_array())
                .expect("list")
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        let mut declared = names(&manifest, "end_to_end");
        declared.extend(names(&manifest, "per_layer"));
        assert_eq!(names(&record, "metrics"), declared);
        assert_eq!(names(&record, "workloads"), names(&manifest, "workloads"));
        let limit = record.get("latency_limit_ms").and_then(|v| v.as_f64());
        assert_eq!(limit, Some(crate::serve::LIMIT_MS));
        let farm_why = manifest
            .get("workloads")
            .and_then(|v| v.as_array())
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(|n| n.as_str()) == Some("farm"))
            })
            .and_then(|w| w.get("why"))
            .and_then(|w| w.as_str())
            .expect("farm reason");
        assert!(
            farm_why.contains(&format!("limit {} ms", crate::serve::LIMIT_MS)),
            "{farm_why}"
        );
    }

    #[test]
    fn undefined_layer_values_read_zero() {
        let mut layers = Layers::default();
        layers.set("store.hit_ratio", f64::NAN);
        layers.set("rforest.fits", 5.0);
        assert_eq!(layers.0["store.hit_ratio"], 0.0);
        assert_eq!(layers.0["rforest.fits"], 5.0);
    }
}
