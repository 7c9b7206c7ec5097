//! Satellite gate: the `serve.*` instrumentation and the runtime's
//! lock-order / pool gauges all surface through the export layer
//! (`metrics_to_csv` / `metrics_to_jsonl`), so a farm operator scraping
//! either format sees the full serving picture.
//!
//! This file is also the workspace's metric-name pin table. sim-lint's
//! `metric-name-drift` rule reconciles [`PINNED_METRICS`] against every
//! metric-name literal registered in library code: a literal missing
//! here, or a pin no code registers, fails CI in both directions.

use sim_rt::pool::service_scope;
use sim_rt::ser::Value;
use sim_serve::{Client, Server, ServerConfig};
use sim_store::StoreConfig;

/// Every statically-named metric the workspace registers, one pin per
/// `counter!`/`gauge!`/`histogram!` literal. Kept sorted.
const PINNED_METRICS: &[&str] = &[
    "defend.blocked",
    "defend.point.ns",
    "defend.points",
    "defend.stack.installs",
    "defend.stack.transforms",
    "defend.sweeps",
    "defend.throttle.trips",
    "dpu.model_loads",
    "fabric.virus.activations",
    "fabric.virus.active_groups",
    "flight.dropped",
    "flight.dumps",
    "flight.events",
    "hwmon.fs.reads",
    "hwmon.fs.reads_denied",
    "hwmon.fs.writes",
    "hwmon.reads.fresh",
    "hwmon.reads.held",
    "ina226.clips.bus",
    "ina226.clips.current",
    "ina226.clips.shunt",
    "ina226.conversions",
    "lockorder.acquisitions",
    "lockorder.cycles_detected",
    "lockorder.edges_tracked",
    "pool.profile.enabled",
    "pool.profile.run_ns",
    "pool.profile.samples",
    "pool.profile.steal_ns",
    "rforest.fits",
    "sampler.capture.ns",
    "sampler.read_errors",
    "sampler.reads.current",
    "sampler.reads.held_fastpath",
    "sampler.reads.power",
    "sampler.reads.voltage",
    "serve.accept_errors",
    "serve.admitted",
    "serve.bad_requests",
    "serve.batch.deduped",
    "serve.batch.groups",
    "serve.batch.size",
    "serve.connections",
    "serve.drains",
    "serve.exec.latency_ns",
    "serve.farm.boards",
    "serve.farm.checkouts",
    "serve.farm.free",
    "serve.farm.platform_inits",
    "serve.farm.waits",
    "serve.queue.depth",
    "serve.request.latency_ns",
    "serve.requests",
    "serve.responses.error",
    "serve.responses.ok",
    "serve.stats.requests",
    "serve.timeouts",
    "serve.tx_errors",
    "store.bytes",
    "store.checkpoint.points",
    "store.checkpoint.resumed",
    "store.decode_errors",
    "store.entries",
    "store.evictions",
    "store.hits",
    "store.hits.persist",
    "store.inserts",
    "store.io_errors",
    "store.lookup.ns",
    "store.misses",
    "store.persist.entries",
    "store.recovered_truncated",
    "store.segments",
    "trace.log.dropped",
    "trace.roots",
    "trace.spans",
    "zynq.pdn.droop_uv",
    "zynq.pdn.transients",
    "zynq.thermal.junction_c",
    "zynq.thermal.leakage_scale",
    "zynq.thermal.throttle_crossings",
];

/// Metric names assembled at runtime (`format!`-built), which the linter
/// cannot tie to a literal: the `record_pool_stats` gauge family under
/// `serve.pool.*`, the per-status `serve.responses.*` counters, and the
/// per-kind `serve.shed.*` counters.
const DYNAMIC_METRICS: &[&str] = &[
    "serve.pool.busy_nanos",
    "serve.pool.jobs_completed",
    "serve.pool.jobs_per_sec",
    "serve.pool.jobs_retried",
    "serve.pool.jobs_stolen",
    "serve.pool.maps_run",
    "serve.responses.shed",
    "serve.responses.timeout",
    "serve.shed.queue_full",
    "serve.shed.quota_exceeded",
    "serve.shed.rate_limited",
    "serve.shed.shutting_down",
];

#[test]
fn pin_table_is_sorted_and_unique() {
    for table in [PINNED_METRICS, DYNAMIC_METRICS] {
        for pair in table.windows(2) {
            assert!(pair[0] < pair[1], "{:?} out of order or duplicated", pair);
        }
    }
    for d in DYNAMIC_METRICS {
        assert!(
            !PINNED_METRICS.contains(d),
            "{d} is both pinned and dynamic"
        );
    }
}

#[test]
fn serve_metrics_surface_in_csv_and_jsonl_exports() {
    // Drive one real request (plus a drain) so every serve.* family has
    // at least one sample in the process-global registry.
    let server = Server::bind(ServerConfig {
        boards: 2,
        farm_seed: 21,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    service_scope(|svc| {
        let join = svc.spawn("metrics-server", move || server.run());
        let mut conn = Client::connect(addr).expect("connect");
        let config = Value::Object(vec![("samples_per_level".into(), Value::Int(30))]);
        // Unpinned: adopts board 0's seed, which exercises the
        // board-image fast path (and its platform_inits counter).
        let resp = conn.request("quickstart", None, config).expect("request");
        assert!(resp.is_ok(), "{:?}", resp.error);
        conn.shutdown_server().expect("drain ack");
        join.join().expect("server thread");
    });

    let snapshot = obs::metrics::snapshot();
    let csv = amperebleed::export::metrics_to_csv(&snapshot);
    let jsonl = amperebleed::export::metrics_to_jsonl(&snapshot);
    for name in [
        // serve.* counters and gauges added by this subsystem
        "serve.requests",
        "serve.admitted",
        "serve.responses.ok",
        "serve.connections",
        "serve.drains",
        "serve.queue.depth",
        "serve.farm.boards",
        "serve.farm.checkouts",
        "serve.farm.platform_inits",
        "serve.farm.free",
        // latency / batching histograms
        "serve.batch.size",
        "serve.request.latency_ns",
        "serve.exec.latency_ns",
        // pre-existing runtime gauges that must keep flowing through
        "serve.pool.jobs_stolen",
        "lockorder.acquisitions",
        "lockorder.edges_tracked",
        "lockorder.cycles_detected",
    ] {
        assert!(
            PINNED_METRICS.contains(&name) || DYNAMIC_METRICS.contains(&name),
            "{name} asserted here but absent from the pin table"
        );
        assert!(csv.contains(name), "{name} missing from metrics_to_csv");
        assert!(jsonl.contains(name), "{name} missing from metrics_to_jsonl");
    }
}

#[test]
fn trace_flight_and_profile_metrics_surface_in_exports() {
    // One traced request plus a `stats` query touches every trace.* /
    // flight.* counter (they register eagerly, so even families with no
    // increments yet must surface), and snapshot() syncs the
    // pool.profile.* gauges unconditionally.
    let server = Server::bind(ServerConfig {
        boards: 1,
        farm_seed: 29,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    service_scope(|svc| {
        let join = svc.spawn("trace-metrics-server", move || server.run());
        let mut conn = Client::connect(addr).expect("connect");
        let resp = conn.request("ping", None, Value::Null).expect("request");
        assert!(resp.is_ok(), "{:?}", resp.error);
        let trace = resp.trace.as_deref().expect("served response has a trace");
        assert_eq!(trace.len(), 16, "trace id is 16 hex chars: {trace:?}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace:?}");
        let stats = conn.stats(Value::Null).expect("stats response");
        assert!(stats.is_ok(), "{:?}", stats.error);
        conn.shutdown_server().expect("drain ack");
        join.join().expect("server thread");
    });

    let snapshot = obs::metrics::snapshot();
    let csv = amperebleed::export::metrics_to_csv(&snapshot);
    let jsonl = amperebleed::export::metrics_to_jsonl(&snapshot);
    for name in [
        "trace.spans",
        "trace.roots",
        "trace.log.dropped",
        "flight.events",
        "flight.dumps",
        "flight.dropped",
        "pool.profile.enabled",
        "pool.profile.samples",
        "pool.profile.run_ns",
        "pool.profile.steal_ns",
        "serve.stats.requests",
    ] {
        assert!(
            PINNED_METRICS.contains(&name) || DYNAMIC_METRICS.contains(&name),
            "{name} asserted here but absent from the pin table"
        );
        assert!(csv.contains(name), "{name} missing from metrics_to_csv");
        assert!(jsonl.contains(name), "{name} missing from metrics_to_jsonl");
    }
}

#[test]
fn store_metrics_surface_in_exports() {
    // The same request twice against a hot-tier store: the first misses
    // and inserts, the second is served from the store, so every always-
    // registered store.* family has a sample.
    let server = Server::bind(ServerConfig {
        boards: 1,
        farm_seed: 41,
        store: Some(StoreConfig::default()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    service_scope(|svc| {
        let join = svc.spawn("store-metrics-server", move || server.run());
        let mut conn = Client::connect(addr).expect("connect");
        let config = Value::Object(vec![("samples_per_level".into(), Value::Int(20))]);
        let cold = conn
            .request("quickstart", Some(7), config.clone())
            .expect("request");
        assert!(cold.is_ok(), "{:?}", cold.error);
        assert_ne!(cold.cached, Some(true), "first request cannot hit");
        let warm = conn
            .request("quickstart", Some(7), config)
            .expect("request");
        assert!(warm.is_ok(), "{:?}", warm.error);
        assert_eq!(warm.cached, Some(true), "second request must hit");
        assert_eq!(
            cold.result.map(|v| v.to_json()),
            warm.result.map(|v| v.to_json()),
            "store hit must replay identical result bytes"
        );
        conn.shutdown_server().expect("drain ack");
        join.join().expect("server thread");
    });

    let snapshot = obs::metrics::snapshot();
    let csv = amperebleed::export::metrics_to_csv(&snapshot);
    let jsonl = amperebleed::export::metrics_to_jsonl(&snapshot);
    for name in [
        "store.hits",
        "store.misses",
        "store.inserts",
        "store.lookup.ns",
        "store.entries",
        "store.bytes",
    ] {
        assert!(
            PINNED_METRICS.contains(&name) || DYNAMIC_METRICS.contains(&name),
            "{name} asserted here but absent from the pin table"
        );
        assert!(csv.contains(name), "{name} missing from metrics_to_csv");
        assert!(jsonl.contains(name), "{name} missing from metrics_to_jsonl");
    }
}

#[test]
fn defend_metrics_surface_in_exports() {
    // One served defend sweep (noise + throttle on the covert channel)
    // touches every defend.* metric family: the sweep/point counters in
    // core, and the stack install/transform/trip counters in sim-defend.
    let server = Server::bind(ServerConfig {
        boards: 1,
        farm_seed: 23,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    service_scope(|svc| {
        let join = svc.spawn("defend-metrics-server", move || server.run());
        let mut conn = Client::connect(addr).expect("connect");
        let config = Value::Object(vec![
            ("attack".into(), Value::Str("covert".into())),
            (
                "layers".into(),
                Value::Array(vec![
                    Value::Str("noise".into()),
                    Value::Str("throttle".into()),
                ]),
            ),
            ("strengths".into(), Value::Array(vec![Value::Float(0.9)])),
            ("payload".into(), Value::Str("m".into())),
        ]);
        let resp = conn.request("defend", Some(31), config).expect("request");
        assert!(resp.is_ok(), "{:?}", resp.error);
        conn.shutdown_server().expect("drain ack");
        join.join().expect("server thread");
    });

    let snapshot = obs::metrics::snapshot();
    let csv = amperebleed::export::metrics_to_csv(&snapshot);
    let jsonl = amperebleed::export::metrics_to_jsonl(&snapshot);
    for name in [
        "defend.sweeps",
        "defend.points",
        "defend.point.ns",
        "defend.stack.installs",
        "defend.stack.transforms",
        "defend.throttle.trips",
    ] {
        assert!(
            PINNED_METRICS.contains(&name) || DYNAMIC_METRICS.contains(&name),
            "{name} asserted here but absent from the pin table"
        );
        assert!(csv.contains(name), "{name} missing from metrics_to_csv");
        assert!(jsonl.contains(name), "{name} missing from metrics_to_jsonl");
    }
}
