//! Deterministic request tracing: trace contexts, span trees, and a
//! structural JSONL export that is byte-identical across pool widths.
//!
//! # Identity derivation
//!
//! A [`TraceContext`] is minted per serve request from
//! `(tenant, seed, request counter)` via [`sim_rt::rng::derive_seed`]
//! chained over an FNV-1a hash of the tenant name, so replaying the same
//! request stream reproduces the same trace ids bit-for-bit. Child span
//! ids derive from `(parent span id XOR trace id, child sequence)` — also
//! deterministic, and independent of which pool worker runs the span.
//!
//! # Propagation
//!
//! The context travels *by value* across threads (it is `Copy`): the
//! scheduler carries it inside each queued job and re-installs it on the
//! executing worker with [`scoped`]. Within a thread, [`span`] reads the
//! ambient context from a thread-local stack, mints a child, and pushes
//! itself, so nested library code (board execution, campaign phases)
//! parents correctly without plumbing arguments.
//!
//! # Reconstruction and export
//!
//! Finished spans append to a process-global log (when recording is
//! enabled via [`set_recording`]); [`take`] drains it, [`build_forest`]
//! reconstructs parent/child trees, and [`forest_to_jsonl`] renders a
//! *structural* export — ids, depth, sequence, names, and batch links,
//! deliberately excluding wall-clock timestamps and notes — which is the
//! byte-identical-across-pool-widths artifact the determinism gate pins.
//! Timestamped per-span records are available via [`SpanRecord`]'s
//! [`sim_rt::ser::ToRecord`] impl for latency analysis.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use sim_rt::rng::{derive_seed, fnv1a64};
use sim_rt::ser::{Record, ToRecord, Value};

use crate::flight;

/// Hard cap on the in-memory span log; spans beyond it are counted in
/// `trace.log.dropped` instead of growing without bound.
const LOG_CAP: usize = 65_536;

/// The identity of one span within one trace, carried by value through
/// queues and across pool workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole request trace.
    pub trace_id: u64,
    /// Identity of the current span.
    pub span_id: u64,
    /// Span id of the parent span, if any.
    pub parent: Option<u64>,
}

impl TraceContext {
    /// Mints the root context for a serve request, deterministically from
    /// `(tenant, seed, request counter)`.
    pub fn root(tenant: &str, seed: u64, counter: u64) -> TraceContext {
        let trace_id = derive_seed(derive_seed(fnv1a64(tenant.as_bytes()), seed), counter);
        TraceContext {
            trace_id,
            span_id: derive_seed(trace_id, 0),
            parent: None,
        }
    }

    /// Derives the context of this span's `seq`-th child. Deterministic:
    /// depends only on the parent identity and the child's sequence
    /// number, never on the executing thread.
    pub fn child(&self, seq: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: derive_seed(self.span_id ^ self.trace_id, seq.wrapping_add(1)),
            parent: Some(self.span_id),
        }
    }
}

/// One frame of the ambient per-thread context stack.
struct Frame {
    ctx: TraceContext,
    /// Sequence number the next child span of this frame will take.
    next_child: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Whether finished spans are appended to the global log. Off by default:
/// metric counters always tick, but the log only grows when a consumer
/// (the serve layer, a test) asked for reconstruction.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Enables or disables span-log recording.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether span-log recording is currently on.
pub fn recording() -> bool {
    !crate::COMPILED_OUT && RECORDING.load(Ordering::Relaxed)
}

fn log() -> &'static Mutex<Vec<SpanRecord>> {
    static LOG: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// The ambient context on this thread, if any span or scope is open.
pub fn current() -> Option<TraceContext> {
    STACK.with(|s| s.borrow().last().map(|f| f.ctx))
}

/// Pops the scope frame even when `f` unwinds, so a panicking job cannot
/// corrupt the ambient stack of a reused pool worker.
struct PopGuard;

impl Drop for PopGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `ctx` installed as the ambient context, restoring the
/// previous context afterwards (panic-safe). This is how a pool worker
/// adopts the trace of the job it pulled off the queue.
pub fn scoped<T>(ctx: TraceContext, f: impl FnOnce() -> T) -> T {
    if crate::COMPILED_OUT {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push(Frame { ctx, next_child: 0 }));
    let _pop = PopGuard;
    f()
}

/// Opens a traced span as a child of the ambient context. A no-op guard
/// when no context is installed (library code outside a traced request
/// costs one thread-local read). Close explicitly with
/// [`TraceSpan::close`] or implicitly on drop.
pub fn span(target: &'static str, name: &'static str) -> TraceSpan {
    if crate::COMPILED_OUT {
        return TraceSpan { active: None };
    }
    let ctx = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = match stack.last_mut() {
            Some(frame) => frame,
            None => return None,
        };
        let seq = parent.next_child;
        parent.next_child += 1;
        let ctx = parent.ctx.child(seq);
        stack.push(Frame { ctx, next_child: 0 });
        Some((ctx, seq))
    });
    let Some((ctx, seq)) = ctx else {
        return TraceSpan { active: None };
    };
    TraceSpan {
        active: Some(ActiveSpan {
            ctx,
            seq,
            target,
            name,
            start_ns: crate::clock::monotonic_ns(),
            links: Vec::new(),
            notes: Vec::new(),
        }),
    }
}

/// The live state behind an open [`TraceSpan`].
struct ActiveSpan {
    ctx: TraceContext,
    seq: u64,
    target: &'static str,
    name: &'static str,
    start_ns: u64,
    links: Vec<u64>,
    notes: Vec<(&'static str, i64)>,
}

/// Guard for an open span; records the span when closed or dropped.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct TraceSpan {
    active: Option<ActiveSpan>,
}

impl TraceSpan {
    /// Links another trace to this span — how a batch span references
    /// every member request it serves. Ignored on a disabled span.
    pub fn link(&mut self, trace_id: u64) {
        if let Some(a) = self.active.as_mut() {
            a.links.push(trace_id);
        }
    }

    /// Attaches a small integer annotation (board id, batch size, …).
    /// Notes ride on the timestamped record only, never the structural
    /// export. Ignored on a disabled span.
    pub fn note(&mut self, key: &'static str, value: i64) {
        if let Some(a) = self.active.as_mut() {
            a.notes.push((key, value));
        }
    }

    /// Closes the span now instead of at end of scope.
    pub fn close(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        // Pop our own frame — but only if it is really ours. A caller
        // that leaks span guards out of order must not pop someone
        // else's frame.
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last().map(|f| f.ctx.span_id) == Some(a.ctx.span_id) {
                stack.pop();
            }
        });
        let end_ns = crate::clock::monotonic_ns();
        record(SpanRecord {
            trace_id: a.ctx.trace_id,
            span_id: a.ctx.span_id,
            parent: a.ctx.parent,
            seq: a.seq,
            target: a.target,
            name: a.name,
            start_ns: a.start_ns,
            end_ns,
            links: a.links,
            notes: a.notes,
        });
    }
}

/// A finished span, ready for reconstruction or export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Identity of the trace this span belongs to.
    pub trace_id: u64,
    /// Identity of this span.
    pub span_id: u64,
    /// Parent span id, `None` for a trace root.
    pub parent: Option<u64>,
    /// This span's sequence number among its siblings.
    pub seq: u64,
    /// Dotted subsystem target (`"serve.sched"`, `"core.campaign"`, …).
    pub target: &'static str,
    /// Span name within the target.
    pub name: &'static str,
    /// Monotonic start, nanoseconds since process start.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since process start.
    pub end_ns: u64,
    /// Trace ids of linked traces (batch membership).
    pub links: Vec<u64>,
    /// Small integer annotations (board id, …).
    pub notes: Vec<(&'static str, i64)>,
}

/// Renders a span/trace id as fixed-width lowercase hex.
pub fn hex(id: u64) -> String {
    format!("{id:016x}")
}

impl ToRecord for SpanRecord {
    /// The *timestamped* per-span row (durations, notes included). For
    /// the deterministic structural export use [`forest_to_jsonl`].
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push("trace", hex(self.trace_id))
            .push("span", hex(self.span_id))
            .push("parent", self.parent.map(hex))
            .push("seq", self.seq)
            .push("target", self.target)
            .push("name", self.name)
            .push("start_ns", self.start_ns)
            .push("dur_ns", self.end_ns.saturating_sub(self.start_ns));
        for (key, value) in &self.notes {
            r.push(*key, *value);
        }
        r
    }
}

/// Appends a finished span to the log and ticks the `trace.*` counters.
/// Public so the scheduler can record request roots directly (their
/// lifetime spans queueing plus execution, which no single scope covers).
pub fn record(rec: SpanRecord) {
    if crate::COMPILED_OUT {
        return;
    }
    crate::metrics::counter("trace.spans").inc();
    let roots = crate::metrics::counter("trace.roots");
    if rec.parent.is_none() {
        roots.inc();
    }
    // Register the overflow counter eagerly so it always exports.
    let dropped = crate::metrics::counter("trace.log.dropped");
    flight::record(
        "span",
        rec.trace_id,
        rec.span_id,
        rec.end_ns.saturating_sub(rec.start_ns) as i64,
        rec.seq as i64,
        rec.name,
    );
    if !recording() {
        return;
    }
    let mut log = log()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if log.len() >= LOG_CAP {
        dropped.inc();
        return;
    }
    log.push(rec);
}

/// Records a request-root span explicitly (sequence 0, no links/notes).
/// Used by the scheduler, whose request roots span admission through
/// response and therefore cannot be a lexical [`span`] scope.
pub fn record_root(
    ctx: TraceContext,
    target: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
) {
    record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent: ctx.parent,
        seq: 0,
        target,
        name,
        start_ns,
        end_ns,
        links: Vec::new(),
        notes: Vec::new(),
    });
}

/// Drains and returns every recorded span.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(
        &mut *log()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// One node of a reconstructed span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span at this node.
    pub record: SpanRecord,
    /// Child spans, ordered by `(seq, span_id)`.
    pub children: Vec<SpanNode>,
}

/// Reconstructs span trees from an unordered batch of records.
///
/// Roots are spans without a parent, with a parent that never finished
/// (orphans surface rather than vanish), or that claim themselves as
/// parent. Trees are ordered by `(trace_id, span_id)` and siblings by
/// `(seq, span_id)`, so the forest is a pure function of the record
/// *set* — the order spans were recorded in (which varies with pool
/// width) cannot influence it.
pub fn build_forest(records: &[SpanRecord]) -> Vec<SpanNode> {
    let ids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.span_id).collect();
    // parent span id -> children records
    let mut children: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<SpanRecord> = Vec::new();
    for rec in records {
        match rec.parent {
            Some(p) if ids.contains(&p) && p != rec.span_id => {
                children.entry(p).or_default().push(rec.clone());
            }
            _ => roots.push(rec.clone()),
        }
    }
    roots.sort_by_key(|r| (r.trace_id, r.span_id));
    roots
        .into_iter()
        .map(|r| attach(r, &mut children))
        .collect()
}

/// Builds the subtree under `rec`, consuming entries from `children` so a
/// (malformed) parent cycle cannot recurse forever.
fn attach(rec: SpanRecord, children: &mut BTreeMap<u64, Vec<SpanRecord>>) -> SpanNode {
    let mut kids = children.remove(&rec.span_id).unwrap_or_default();
    kids.sort_by_key(|r| (r.seq, r.span_id));
    SpanNode {
        record: rec,
        children: kids.into_iter().map(|k| attach(k, children)).collect(),
    }
}

/// Renders a forest as structural JSONL: one row per span in pre-order,
/// carrying ids, depth, sequence, target/name, and sorted batch links —
/// and deliberately *no* timestamps or notes, so the output depends only
/// on what executed, not when or where. This is the byte-identical
/// artifact the pool-width determinism gates compare.
pub fn forest_to_jsonl(forest: &[SpanNode]) -> String {
    let mut rows: Vec<Record> = Vec::new();
    for node in forest {
        structural_rows(node, 0, &mut rows);
    }
    sim_rt::to_jsonl(&rows)
}

fn structural_rows(node: &SpanNode, depth: u64, rows: &mut Vec<Record>) {
    let r = &node.record;
    let mut links: Vec<u64> = r.links.clone();
    links.sort_unstable();
    links.dedup();
    let mut row = Record::new();
    row.push("trace", hex(r.trace_id))
        .push("span", hex(r.span_id))
        .push("parent", r.parent.map(hex))
        .push("depth", depth)
        .push("seq", r.seq)
        .push("target", r.target)
        .push("name", r.name)
        .push(
            "links",
            Value::Array(links.into_iter().map(|l| Value::Str(hex(l))).collect()),
        );
    rows.push(row);
    for child in &node.children {
        structural_rows(child, depth + 1, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span log and recording flag are process-global; serialize.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn context_derivation_is_deterministic_and_distinct() {
        let a = TraceContext::root("alice", 7, 0);
        assert_eq!(a, TraceContext::root("alice", 7, 0));
        assert_ne!(a.trace_id, TraceContext::root("alice", 7, 1).trace_id);
        assert_ne!(a.trace_id, TraceContext::root("alice", 8, 0).trace_id);
        assert_ne!(a.trace_id, TraceContext::root("bob", 7, 0).trace_id);
        let c0 = a.child(0);
        let c1 = a.child(1);
        assert_eq!(c0.trace_id, a.trace_id);
        assert_eq!(c0.parent, Some(a.span_id));
        assert_ne!(c0.span_id, c1.span_id);
        assert_eq!(c0, a.child(0), "child derivation is pure");
    }

    #[test]
    fn root_ids_match_recorded_literals() {
        // Recorded before the tenant hash moved into sim-rt: trace ids are
        // part of the byte-identical structural export.
        let ctx = TraceContext::root("tenant-a", 7, 3);
        assert_eq!(ctx.trace_id, 0x59e7_f7d5_d23d_f127);
        assert_eq!(ctx.span_id, 0xd29a_d463_bc8c_829c);
    }

    #[test]
    fn spans_nest_and_reconstruct() {
        let _guard = guard();
        set_recording(true);
        let _ = take();
        let ctx = TraceContext::root("t", 1, 0);
        scoped(ctx, || {
            let outer = span("test.trace", "outer");
            {
                let _inner_a = span("test.trace", "a");
            }
            {
                let _inner_b = span("test.trace", "b");
            }
            outer.close();
        });
        record_root(ctx, "test.trace", "request", 0, 0);
        let records = take();
        set_recording(false);
        assert_eq!(records.len(), 4);
        let forest = build_forest(&records);
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.record.name, "request");
        assert_eq!(root.children.len(), 1);
        let outer = &root.children[0];
        assert_eq!(outer.record.name, "outer");
        let kids: Vec<&str> = outer.children.iter().map(|c| c.record.name).collect();
        assert_eq!(kids, ["a", "b"], "siblings ordered by seq");
    }

    #[test]
    fn span_without_ambient_context_is_a_noop() {
        let _guard = guard();
        set_recording(true);
        let _ = take();
        {
            let _s = span("test.trace", "orphan");
        }
        assert!(take().is_empty());
        set_recording(false);
        assert!(current().is_none());
    }

    #[test]
    fn scoped_restores_context_on_panic() {
        let _guard = guard();
        let ctx = TraceContext::root("p", 1, 0);
        let result = std::panic::catch_unwind(|| {
            scoped(ctx, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(current().is_none(), "frame popped despite panic");
    }

    #[test]
    fn orphan_spans_surface_as_roots() {
        let rec = |span_id: u64, parent: Option<u64>| SpanRecord {
            trace_id: 9,
            span_id,
            parent,
            seq: 0,
            target: "t",
            name: "n",
            start_ns: 0,
            end_ns: 0,
            links: vec![],
            notes: vec![],
        };
        // Parent 99 never finished; 5 claims itself.
        let forest = build_forest(&[rec(1, Some(99)), rec(5, Some(5))]);
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn structural_export_excludes_timing_and_dedups_links() {
        let mut rec = SpanRecord {
            trace_id: 0xAB,
            span_id: 0xCD,
            parent: None,
            seq: 0,
            target: "t",
            name: "batch",
            start_ns: 123,
            end_ns: 456,
            links: vec![7, 3, 7],
            notes: vec![("board", 2)],
        };
        let jsonl = forest_to_jsonl(&build_forest(std::slice::from_ref(&rec)));
        assert!(!jsonl.contains("123"), "no timestamps in structural rows");
        assert!(!jsonl.contains("board"), "no notes in structural rows");
        assert!(jsonl.contains(&hex(3)) && jsonl.contains(&hex(7)));
        assert_eq!(jsonl.matches(&hex(7)).count(), 1, "links deduped");
        // The timestamped record does carry both.
        rec.links.clear();
        let timed = rec.to_record().to_json();
        assert!(timed.contains("\"start_ns\":123"));
        assert!(timed.contains("\"board\":2"));
    }
}
