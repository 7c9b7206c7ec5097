//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload capture|classify|farm --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets up, then measures one workload for `S` seconds against
//! the public APIs of `amperebleed`, `sim-serve` and `sim-store`, checks
//! every output, and prints a metric table followed, as its last line, by
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, read from the program's own counters,
//! histograms and spans. The benchmark adds no instrumentation to the
//! program: it times the calls it makes and reads what the program keeps.
//!
//! `capture` and `classify` repeat a pass of paper experiments for the
//! whole time; `farm` serves an open-loop verb mix for the whole time.

mod capture;
mod classify;
mod offline;
mod report;
mod serve;
mod stats;

use report::{Layers, Outcome};
use serve::LiveServer;
use sim_rt::ser::Value;
use stats::median;

/// Time spent repeating the set-up; `setup_s` is the median rep. One
/// rep takes about 1.5 ms, so this gives several hundred.
const SETUP_BUDGET_NS: u64 = 1_000_000_000;

const USAGE: &str =
    "usage: perfbench --workload capture|classify|farm --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0)
                    .ok_or_else(|| bad("a number of seconds >= 1"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !matches!(args.workload.as_str(), "capture" | "classify" | "farm") {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// A short digest of a result's canonical JSON.
fn digest(v: &Value) -> String {
    sim_store::Digest::of_str(&v.to_canonical_json()).hex()[..16].to_string()
}

/// One paper-shape check: prints the measured value beside the paper's
/// (on the first pass, or whenever it fails) and returns whether it held.
/// The model is checked only against the paper's published shapes; the
/// repository holds no hardware data.
fn shape(print: bool, label: &str, value: f64, paper: &str, ok: bool) -> bool {
    if print || !ok {
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("{label:<28} {value:>12.4}   paper {paper:<6} {verdict}");
    }
    ok
}

/// Sets up everything a workload touches (a ready ZCU102 platform, the
/// model zoo, a bound farm with a connected client) for
/// `SETUP_BUDGET_NS` and returns the median seconds of one set-up.
fn setup_s(seed: u64) -> f64 {
    let mut times = Vec::new();
    let start_ns = obs::clock::monotonic_ns();
    while obs::clock::monotonic_ns() - start_ns < SETUP_BUDGET_NS {
        let t0 = obs::clock::monotonic_ns();
        let platform = sim_serve::exec::ready_platform(seed).expect("ready platform");
        let models = dnn_models::zoo();
        let server = LiveServer::start(seed);
        times.push((obs::clock::monotonic_ns() - t0) as f64 / 1e9);
        drop((platform, models));
        server.stop();
    }
    median(&times)
}

/// Serves the farm mix for `seconds` from a fresh farm and folds the
/// requests into `out`; returns the phase's figures.
fn served(
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    layers: Option<&mut Layers>,
) -> serve::Served {
    let server = LiveServer::start(seed);
    let s = serve::run_phase(&server, seed, seconds, layers);
    server.stop();
    out.attempted += s.tally.attempted;
    out.failed += s.tally.failed;
    out.mismatches += s.mismatches;
    println!(
        "served {} requests over {} keys, {} from the store: hit p50 {:.3} ms, miss p50 {:.3} ms, \
         p{:.1} {:.3} ms over {} samples; generator at most {:.3} ms late; fail_frac {} ({} wrong)",
        s.requests,
        s.distinct_keys,
        s.hits,
        s.hit_p50_ms,
        s.miss_p50_ms,
        s.p99_percentile,
        s.p99_ms,
        s.requests,
        s.late_ms_max,
        s.tally.fail_frac(),
        s.mismatches
    );
    s
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    obs::init();
    let (seed, seconds) = (args.seed, args.seconds);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed {seed}: {seconds} s on {threads} threads",
        args.workload
    );
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let traced = args.trace.then_some(&mut layers);
    out.set("setup_s", setup_s(seed));
    if args.workload == "farm" {
        farm(seed, seconds, &mut out, traced);
    } else {
        let run = if args.workload == "capture" {
            capture::offline(seed, seconds, &mut out, traced)
        } else {
            let models = dnn_models::zoo();
            classify::offline(seed, seconds, &models, &mut out, traced)
        };
        println!(
            "pass walls (s): {:?} untraced, {:?} traced",
            run.walls_s, run.traced_walls_s
        );
        let measured_s: f64 = run.walls_s.iter().chain(&run.traced_walls_s).sum();
        out.set("wall_s", median(&run.walls_s));
        out.set(
            "goodput_rps",
            (out.attempted - out.failed) as f64 / measured_s,
        );
    }
    out.set("peak_rss_mb", report::peak_rss_mb());
    out.layers = layers;
    out.print(args.trace);
}

/// The `farm` workload. Traced, it serves half the time untraced and half
/// traced on identical schedules, so one run gives the served latencies,
/// the per-layer ledger and the tracing overhead.
fn farm(seed: u64, seconds: f64, out: &mut Outcome, traced: Option<&mut Layers>) {
    let Some(layers) = traced else {
        let s = served(seed, seconds, out, None);
        out.set("wall_s", s.wall_s);
        out.set("goodput_rps", s.goodput_rps);
        return;
    };
    let plain = served(seed, seconds / 2.0, out, None);
    let traced = served(seed, seconds / 2.0, out, Some(&mut *layers));
    layers.set("hit_p50_ms", plain.hit_p50_ms);
    layers.set("miss_p50_ms", plain.miss_p50_ms);
    layers.set("p99_ms", plain.p99_ms);
    report::sensing_layers(layers, &traced.snapshot, 1.0);
    layers.set("trace.overhead_frac", traced.p99_ms / plain.p99_ms - 1.0);
    layers.set("ledger.unattributed_frac", traced.ledger_frac);
    layers.set("trace.dropped", plain.dropped + traced.dropped);
}
