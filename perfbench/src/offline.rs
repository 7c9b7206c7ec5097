//! The offline loop shared by `capture` and `classify`: repeat one pass
//! of library calls with identical inputs until the time budget is spent,
//! timing each call the pass makes into a layer.
//!
//! With tracing on, odd passes run traced (span recording on, under a
//! trace context so library spans record too) and even passes untraced,
//! so the same run yields the per-layer ledger and the tracing overhead.

use std::collections::BTreeMap;

use obs::trace::TraceContext;
use sim_rt::pool::Pool;

use crate::report::Layers;
use crate::stats::{self, median};

/// Fewest passes a run makes, whatever the budget.
const MIN_PASSES: usize = 3;

/// Times the calls one pass makes into the program.
#[derive(Debug, Default)]
pub struct Timer {
    /// Seconds spent in each named call, summed over passes.
    sums: BTreeMap<&'static str, f64>,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl Timer {
    /// Runs `f` as the timed call `name`, inside a `perfbench/<name>`
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = obs::trace::span("perfbench", name);
        let t0 = obs::clock::monotonic_ns();
        let out = f();
        let t1 = obs::clock::monotonic_ns();
        span.close();
        *self.sums.entry(name).or_default() += (t1 - t0) as f64 / 1e9;
        self.first_ns.get_or_insert(t0);
        self.last_ns = t1;
        out
    }

    /// Mean seconds per pass spent in `name`.
    pub fn per_pass(&self, name: &str, passes: usize) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / passes as f64
    }

    /// Mean seconds per pass over every timed call.
    pub fn total_per_pass(&self, passes: usize) -> f64 {
        self.sums.values().sum::<f64>() / passes as f64
    }
}

/// What the loop measured.
pub struct Loop {
    /// Wall seconds of each untraced pass, first timed call to last result.
    pub walls_s: Vec<f64>,
    /// The same for traced passes.
    pub traced_walls_s: Vec<f64>,
    pub passes: usize,
    pub timer: Timer,
}

/// Runs `pass` until `budget_s` seconds have gone (at least
/// [`MIN_PASSES`] times, and an even number when traced). `layers`, when
/// given, turns tracing on and receives the per-layer figures.
pub fn run(
    seed: u64,
    budget_s: f64,
    layers: Option<&mut Layers>,
    mut pass: impl FnMut(&mut Timer),
) -> Loop {
    let traced = layers.is_some();
    let mut timer = Timer::default();
    let (mut walls_s, mut traced_walls_s) = (Vec::new(), Vec::new());
    let (mut path_ns, mut bare_ns) = (0u64, 0u64);
    obs::metrics::reset();
    let pool0 = Pool::global().stats();
    let start_ns = obs::clock::monotonic_ns();
    let mut i = 0usize;
    loop {
        let traced_pass = traced && i % 2 == 1;
        obs::trace::set_recording(traced_pass);
        let _ = obs::trace::take();
        let ctx = TraceContext::root("perfbench", seed, i as u64);
        timer.first_ns = None;
        obs::trace::scoped(ctx, || pass(&mut timer));
        let (lo, hi) = (timer.first_ns.unwrap_or(timer.last_ns), timer.last_ns);
        let wall_s = (hi - lo) as f64 / 1e9;
        if traced_pass {
            // The ledger credits only the program's own spans (the
            // characterize sweep, the campaign phases, ...), not the
            // benchmark's timers, so a layer that records no span shows
            // as unattributed.
            obs::trace::record_root(ctx, "perfbench", "pass", lo, hi);
            let forest = obs::trace::build_forest(&obs::trace::take());
            let program = |target: &str, _: &str| target != "perfbench";
            path_ns += hi - lo;
            bare_ns +=
                (stats::unattributed_frac(lo, hi, &forest, program, &[]) * (hi - lo) as f64) as u64;
            traced_walls_s.push(wall_s);
        } else {
            walls_s.push(wall_s);
        }
        i += 1;
        let spent = (obs::clock::monotonic_ns() - start_ns) as f64 / 1e9;
        if i >= MIN_PASSES && spent >= budget_s && (!traced || i.is_multiple_of(2)) {
            break;
        }
    }
    obs::trace::set_recording(false);
    let elapsed_ns = obs::clock::monotonic_ns() - start_ns;
    let snap = obs::metrics::snapshot();
    let pool1 = Pool::global().stats();
    let run = Loop {
        walls_s,
        traced_walls_s,
        passes: i,
        timer,
    };
    if let Some(layers) = layers {
        let passes = run.passes as f64;
        let sampler_s = snap
            .histogram("sampler.capture.ns")
            .map_or(0.0, |h| h.sum as f64 / 1e9);
        crate::report::sensing_layers(layers, &snap, passes);
        layers.set(
            "pool.busy_frac",
            (pool1.busy_nanos - pool0.busy_nanos) as f64 / elapsed_ns as f64,
        );
        layers.set(
            "pool.jobs_stolen",
            (pool1.jobs_stolen - pool0.jobs_stolen) as f64 / passes,
        );
        layers.set(
            "experiment.self_s",
            run.timer.total_per_pass(run.passes) - sampler_s / passes,
        );
        layers.set(
            "trace.dropped",
            snap.counter("trace.log.dropped").unwrap_or(0) as f64,
        );
        layers.set(
            "trace.overhead_frac",
            median(&run.traced_walls_s) / median(&run.walls_s) - 1.0,
        );
        layers.set("ledger.unattributed_frac", bare_ns as f64 / path_ns as f64);
    }
    run
}
