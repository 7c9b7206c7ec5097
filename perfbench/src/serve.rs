//! The served phase: an in-process board farm driven open-loop over one
//! connection, then checked and measured.
//!
//! A seeded Poisson schedule decides every request before the phase
//! starts. One sender thread sleeps until each due time and writes the
//! request line; one receiver thread blocks on the socket and stamps each
//! response line on arrival. Latency runs from the due time, so a stall
//! also delays every request due behind it. Both threads and the server
//! read the same clock (`obs::clock`), which lets the spans the server
//! records line up with the client's stamps.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use obs::metrics::MetricsSnapshot;
use obs::trace::SpanRecord;
use sim_rt::pool::Pool;
use sim_rt::rng::{derive_seed, splitmix64};
use sim_rt::ser::Value;
use sim_serve::protocol::{parse_response, Request, Response};
use sim_serve::{exec, Server, ServerConfig, ServerHandle};
use sim_store::StoreConfig;

use crate::report::Layers;
use crate::stats::{self, median, tail, Status, Tally};

/// Latency limit for `goodput_rps`: an `ok` response slower than this
/// counts as missed. Set well above the nominal p99 of every mix.
pub const LIMIT_MS: f64 = 250.0;

/// Boards in the farm under test.
const BOARDS: usize = 2;

/// A repeat only targets a key first due at least this long before it,
/// so its first answer is stored by the time the repeat arrives.
const REPEAT_MIN_AGE_NS: u64 = 1_000_000_000;

/// How long the receiver may wait for outstanding responses after the
/// last request is sent.
const DRAIN_GRACE_NS: u64 = 20_000_000_000;

/// Copies of one fresh key sent back to back in a burst.
const BURST_COPIES: usize = 3;

/// A served traffic mix.
struct Mix {
    /// Verbs dealt in equal shares among fresh keys. Every verb runs its
    /// server-side default (small) config.
    verbs: &'static [&'static str],
    /// Offered rate, requests per second (kept under the default
    /// 200 req/s per-tenant token bucket; a burst counts once).
    rate_rps: f64,
    /// Share of arrivals that repeat an earlier key (store reads).
    repeat_share: f64,
    /// Share of fresh keys sent as a burst of identical requests.
    burst_share: f64,
}

/// The `farm` mix: every campaign verb at its server default config.
/// No measured traffic exists, so the mix assumes as little as it can:
/// equal verb shares, the 59 % repeat share of an earlier 40 req/s
/// prototype run, and an assumed 5 % of fresh keys sent as bursts.
const MIX: Mix = Mix {
    verbs: &[
        "covert",
        "quickstart",
        "defend",
        "characterize",
        "rsa",
        "fingerprint",
    ],
    rate_rps: 40.0,
    repeat_share: 0.59,
    burst_share: 0.05,
};

/// One distinct request key.
#[derive(Debug, Clone, PartialEq)]
struct Key {
    verb: &'static str,
    seed: u64,
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
struct Planned {
    id: i64,
    /// Due time, nanoseconds after the phase start.
    due_ns: u64,
    key: usize,
    /// A repeat of a key answered long ago: must come from the store.
    repeat: bool,
}

/// The whole arrival schedule, fixed by the seed before anything runs.
struct Schedule {
    keys: Vec<Key>,
    planned: Vec<Planned>,
    seconds: f64,
}

/// Uniform draw in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws from a multiset in reshuffled rounds, so every whole round holds
/// the exact proportions and only the order depends on the seed.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `n` copies of each `(card, n)`.
    fn new(counts: &[(T, usize)]) -> Deck<T> {
        let cards = counts
            .iter()
            .flat_map(|&(card, n)| std::iter::repeat_n(card, n))
            .collect();
        Deck { cards, next: 0 }
    }

    /// Two-way deck: `share` of 100 cards are `yes`.
    fn share(share: f64, yes: T, no: T) -> Deck<T> {
        let n = (share * 100.0).round() as usize;
        Deck::new(&[(yes, n), (no, 100 - n)])
    }

    fn draw(&mut self, rng: &mut u64) -> T {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
                self.cards.swap(i, j);
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

impl Schedule {
    /// The schedule of `mix` over `seconds`: a Poisson process conditioned
    /// on its count (exactly `rate * seconds` arrivals, uniform over the
    /// window), with the repeat share, verb shares and burst share dealt
    /// from decks. Every seed offers the same load; only the arrangement
    /// changes.
    fn generate(seed: u64, mix: &Mix, seconds: f64) -> Schedule {
        let mut rng = derive_seed(seed, 0x5c4e_d01e);
        let end_ns = (seconds * 1e9) as u64;
        let n = (mix.rate_rps * seconds).round() as usize;
        let mut arrivals: Vec<u64> = (0..n)
            .map(|_| (unit(&mut rng) * end_ns as f64) as u64)
            .collect();
        arrivals.sort_unstable();
        let equal: Vec<(&'static str, usize)> = mix.verbs.iter().map(|&v| (v, 1)).collect();
        let mut verbs = Deck::new(&equal);
        let mut repeats = Deck::share(mix.repeat_share, true, false);
        let mut bursts = Deck::share(mix.burst_share, BURST_COPIES, 1);

        let mut keys: Vec<Key> = Vec::new();
        let mut first_due: Vec<u64> = Vec::new();
        let mut planned = Vec::new();
        for due_ns in arrivals {
            let eligible = first_due.partition_point(|&d| d + REPEAT_MIN_AGE_NS <= due_ns);
            let (key, copies, repeat) = if repeats.draw(&mut rng) && eligible > 0 {
                ((splitmix64(&mut rng) % eligible as u64) as usize, 1, true)
            } else {
                keys.push(Key {
                    verb: verbs.draw(&mut rng),
                    seed: derive_seed(seed, keys.len() as u64 + 1),
                });
                first_due.push(due_ns);
                (keys.len() - 1, bursts.draw(&mut rng), false)
            };
            for _ in 0..copies {
                planned.push(Planned {
                    id: planned.len() as i64 + 1,
                    due_ns,
                    key,
                    repeat,
                });
            }
        }
        Schedule {
            keys,
            planned,
            seconds,
        }
    }

    fn line(&self, p: &Planned) -> String {
        let key = &self.keys[p.key];
        let mut req = Request::new(p.id, key.verb);
        req.tenant = "perfbench".into();
        req.seed = Some(key.seed);
        req.to_json_line()
    }
}

/// A running in-process server plus the one client connection.
pub struct LiveServer {
    handle: ServerHandle,
    join: JoinHandle<()>,
    stream: TcpStream,
}

impl LiveServer {
    /// Binds a 2-board farm with the store's hot tier on, starts it and
    /// connects.
    ///
    /// # Panics
    ///
    /// When the loopback bind or connect fails.
    pub fn start(farm_seed: u64) -> LiveServer {
        let server = Server::bind(ServerConfig {
            boards: BOARDS,
            farm_seed,
            store: Some(StoreConfig::default()),
            ..ServerConfig::default()
        })
        .expect("bind the farm on loopback");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let stream = TcpStream::connect(addr).expect("connect to the farm");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        LiveServer {
            handle,
            join,
            stream,
        }
    }

    /// Drains the server and waits for its threads.
    pub fn stop(self) {
        self.handle.shutdown();
        drop(self.stream);
        self.join.join().expect("server thread");
    }
}

/// What one served phase left behind.
struct Driven {
    start_ns: u64,
    sent_ns: Vec<u64>,
    received: Vec<(u64, String)>,
}

/// Sends the schedule and collects every response line.
fn drive(server: &LiveServer, schedule: &Schedule) -> Driven {
    let mut writer = server.stream.try_clone().expect("clone the socket");
    let reader = server.stream.try_clone().expect("clone the socket");
    let expected = schedule.planned.len();
    let start_ns = obs::clock::monotonic_ns() + 20_000_000;
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut reader = BufReader::new(reader);
            let mut received = Vec::with_capacity(expected);
            let mut line = String::new();
            while received.len() < expected {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => received.push((obs::clock::monotonic_ns(), line.clone())),
                }
            }
            received
        });
        let mut sent_ns = vec![0u64; expected];
        let mut i = 0;
        while i < expected {
            let due = start_ns + schedule.planned[i].due_ns;
            let mut j = i;
            let mut lines = String::new();
            while j < expected && schedule.planned[j].due_ns == schedule.planned[i].due_ns {
                lines.push_str(&schedule.line(&schedule.planned[j]));
                j += 1;
            }
            let now = obs::clock::monotonic_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let sent = obs::clock::monotonic_ns();
            writer
                .write_all(lines.as_bytes())
                .expect("send to the farm");
            sent_ns[i..j].fill(sent);
            i = j;
        }
        // A response that never comes must not hang the run: after the
        // grace period, closing the read side ends the receiver, and the
        // missing requests count as failed.
        let give_up = obs::clock::monotonic_ns() + DRAIN_GRACE_NS;
        while !receiver.is_finished() && obs::clock::monotonic_ns() < give_up {
            std::thread::sleep(Duration::from_millis(5));
        }
        if !receiver.is_finished() {
            let _ = server.stream.shutdown(Shutdown::Read);
        }
        Driven {
            start_ns,
            sent_ns,
            received: receiver.join().expect("receiver thread"),
        }
    })
}

/// One request's fate, joined from the schedule and its response.
struct Answer {
    status: Status,
    due_ns: u64,
    sent_ns: u64,
    recv_ns: u64,
    trace: Option<u64>,
}

impl Answer {
    fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Headline and per-layer figures of one served phase.
pub struct Served {
    pub tally: Tally,
    /// Metrics registry at the end of the phase.
    pub snapshot: MetricsSnapshot,
    /// Spans the trace log dropped.
    pub dropped: f64,
    /// Unattributed share of the client-observed path (traced only).
    pub ledger_frac: f64,
    /// Correctness mismatches (wrong bytes, a repeat not from the store,
    /// an unanswered request).
    pub mismatches: usize,
    pub requests: usize,
    pub hits: usize,
    pub hit_p50_ms: f64,
    pub miss_p50_ms: f64,
    pub p99_ms: f64,
    pub p99_percentile: f64,
    pub goodput_rps: f64,
    /// Host seconds from the first due time to the last response.
    pub wall_s: f64,
    pub late_ms_max: f64,
    pub distinct_keys: usize,
}

/// Runs one served phase for `seconds` against `server`. `layers`, when
/// given, turns span recording on and receives the per-layer figures.
pub fn run_phase(
    server: &LiveServer,
    seed: u64,
    seconds: f64,
    layers: Option<&mut Layers>,
) -> Served {
    let schedule = Schedule::generate(seed, &MIX, seconds);
    obs::trace::set_recording(layers.is_some());
    let _ = obs::trace::take();
    obs::metrics::reset();
    let driven = drive(server, &schedule);
    let snapshot = obs::metrics::snapshot();
    let spans = obs::trace::take();
    obs::trace::set_recording(false);

    let (mut answers, results) = join(&schedule, &driven);
    let mismatches = check(&schedule, &mut answers, &results);
    let outcomes: Vec<(Status, f64)> = answers.iter().map(|a| (a.status, a.latency_ms())).collect();
    let tally = Tally::of(&outcomes, LIMIT_MS);
    let of = |want: Status| -> Vec<f64> {
        outcomes
            .iter()
            .filter(|(s, _)| *s == want)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let all_ms: Vec<f64> = outcomes.iter().map(|(_, ms)| *ms).collect();
    let p99 = tail(&all_ms).unwrap_or(stats::Tail {
        value: all_ms.iter().copied().fold(0.0, f64::max),
        percentile: 100.0,
    });
    let last_recv = answers
        .iter()
        .map(|a| a.recv_ns)
        .filter(|&ns| ns != u64::MAX)
        .max()
        .unwrap_or(0);
    let first_due = answers.iter().map(|a| a.due_ns).min().unwrap_or(0);
    let late_ms_max = answers
        .iter()
        .map(|a| a.sent_ns.saturating_sub(a.due_ns) as f64 / 1e6)
        .fold(0.0, f64::max);
    let ledger_frac = layers.map_or(f64::NAN, |layers| {
        served_layers(layers, &answers, &spans, &snapshot, late_ms_max, seconds)
    });
    Served {
        dropped: snapshot.counter("trace.log.dropped").unwrap_or(0) as f64,
        ledger_frac,
        snapshot,
        goodput_rps: tally.goodput_rps(schedule.seconds),
        tally,
        mismatches,
        requests: answers.len(),
        hits: of(Status::Hit).len(),
        hit_p50_ms: median(&of(Status::Hit)),
        miss_p50_ms: median(&of(Status::Miss)),
        p99_ms: p99.value,
        p99_percentile: p99.percentile,
        wall_s: last_recv.saturating_sub(first_due) as f64 / 1e9,
        late_ms_max,
        distinct_keys: schedule.keys.len(),
    }
}

/// Pairs each planned request with its response. Returns the answers and
/// each `ok` response's result (by request index) for the replay check.
fn join(schedule: &Schedule, driven: &Driven) -> (Vec<Answer>, Vec<Option<Value>>) {
    let mut by_id: BTreeMap<i64, (u64, Response)> = BTreeMap::new();
    for (recv_ns, line) in &driven.received {
        if let Ok(resp) = parse_response(line.trim()) {
            by_id.insert(resp.id, (*recv_ns, resp));
        }
    }
    let mut answers = Vec::with_capacity(schedule.planned.len());
    let mut results = Vec::with_capacity(schedule.planned.len());
    for (i, p) in schedule.planned.iter().enumerate() {
        let due_ns = driven.start_ns + p.due_ns;
        let (status, recv_ns, trace, result) = match by_id.remove(&p.id) {
            Some((recv_ns, resp)) => {
                let status = match (resp.is_ok(), resp.cached) {
                    (false, _) => Status::Failed,
                    (true, Some(true)) => Status::Hit,
                    (true, _) => Status::Miss,
                };
                let trace = resp
                    .trace
                    .as_deref()
                    .and_then(|h| u64::from_str_radix(h, 16).ok());
                (status, recv_ns, trace, resp.result)
            }
            None => (Status::Failed, u64::MAX, None, None),
        };
        answers.push(Answer {
            status,
            due_ns,
            sent_ns: driven.sent_ns[i],
            recv_ns,
            trace,
        });
        results.push(result);
    }
    (answers, results)
}

/// Untimed correctness pass: every repeat must have come from the store,
/// and every served result must be byte-identical to a fresh serial
/// `exec::execute` of its key. A wrong answer is marked failed; returns
/// how many there were.
fn check(schedule: &Schedule, answers: &mut [Answer], results: &[Option<Value>]) -> usize {
    let keys: Vec<usize> = schedule
        .planned
        .iter()
        .zip(answers.iter())
        .filter(|(_, a)| a.status != Status::Failed)
        .map(|(p, _)| p.key)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let reference: BTreeMap<usize, Option<String>> = keys
        .iter()
        .copied()
        .zip(Pool::global().par_map(&keys, |_, &k| {
            let key = &schedule.keys[k];
            exec::execute(key.verb, key.seed, &Value::Null)
                .ok()
                .map(|v| v.to_json())
        }))
        .collect();
    let mut mismatches = 0;
    for (i, p) in schedule.planned.iter().enumerate() {
        let served = results[i].as_ref().map(Value::to_json);
        let wrong = match answers[i].status {
            Status::Failed => false,
            Status::Hit => served != reference[&p.key],
            Status::Miss => p.repeat || served != reference[&p.key],
        };
        if wrong {
            answers[i].status = Status::Failed;
            mismatches += 1;
        }
    }
    mismatches
}

/// Reads the serve-path layers from the spans the server recorded and
/// returns the ledger's unattributed share of the client-observed path.
fn served_layers(
    layers: &mut Layers,
    answers: &[Answer],
    spans: &[SpanRecord],
    snapshot: &MetricsSnapshot,
    late_ms_max: f64,
    seconds: f64,
) -> f64 {
    let roots: BTreeMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|r| r.parent.is_none())
        .map(|r| (r.trace_id, r))
        .collect();
    let mut batch_of: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    for b in spans.iter().filter(|r| r.target == "serve.sched") {
        for member in &b.links {
            batch_of.insert(*member, b);
        }
    }
    let child = |parent: u64, target: &str| {
        spans
            .iter()
            .find(|r| r.parent == Some(parent) && r.target == target)
    };
    let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;

    let (mut queue, mut checkout, mut fanout) = (vec![], vec![], vec![]);
    let (mut respond, mut get_us) = (vec![], vec![]);
    let (mut path_ns, mut bare_ns) = (0u64, 0u64);
    for a in answers.iter().filter(|a| a.status != Status::Failed) {
        let Some(root) = a.trace.and_then(|t| roots.get(&t)) else {
            continue;
        };
        respond.push(ms(root.end_ns, a.recv_ns));
        let mut records: Vec<SpanRecord> = vec![(*root).clone()];
        let mut extra = vec![(a.due_ns, a.sent_ns), (root.end_ns, a.recv_ns)];
        if root.name == "store_hit" {
            get_us.push(ms(root.start_ns, root.end_ns) * 1e3);
        } else if let Some(batch) = batch_of.get(&root.trace_id) {
            queue.push(ms(root.start_ns, batch.start_ns));
            extra.push((root.start_ns, batch.start_ns));
            records.push((*batch).clone());
            if let Some(board) = child(batch.span_id, "serve.farm") {
                checkout.push(ms(batch.start_ns, board.start_ns));
                extra.push((batch.start_ns, board.start_ns));
                records.push(board.clone());
            }
            if let Some(insert) = roots
                .get(&batch.trace_id)
                .and_then(|rep| child(rep.span_id, "store"))
            {
                records.push(insert.clone());
            }
            // Fan-out: the group is done, but the batch answers all its
            // groups at once, so this request waits for the slowest.
            let group_end = records[1..].iter().map(|r| r.end_ns).max().unwrap_or(0);
            fanout.push(ms(group_end, root.end_ns));
            extra.push((group_end, root.end_ns));
        }
        let forest = obs::trace::build_forest(&records);
        let named = |target: &str, name: &str| {
            matches!(
                (target, name),
                ("serve", "store_hit") | ("serve.farm", "board") | ("store", "insert")
            )
        };
        let path = a.recv_ns.saturating_sub(a.due_ns);
        path_ns += path;
        bare_ns += (stats::unattributed_frac(a.due_ns, a.recv_ns, &forest, named, &extra)
            * path as f64) as u64;
    }
    let durations = |target: &str, name: Option<&str>| -> Vec<f64> {
        spans
            .iter()
            .filter(|r| r.target == target && name.is_none_or(|n| r.name == n))
            .map(|r| ms(r.start_ns, r.end_ns))
            .collect()
    };
    let exec_ms = durations("serve.exec", None);
    let insert_us: Vec<f64> = durations("store", Some("insert"))
        .iter()
        .map(|m| m * 1e3)
        .collect();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let (hits, misses) = (counter("store.hits"), counter("store.misses"));
    let (groups, deduped) = (
        counter("serve.batch.groups"),
        counter("serve.batch.deduped"),
    );
    layers.set("serve.queue_wait_ms_p50", median(&queue));
    layers.set("serve.checkout_wait_ms_p50", median(&checkout));
    layers.set("serve.exec_ms_p50", median(&exec_ms));
    layers.set(
        "serve.exec_ms_p99",
        tail(&exec_ms).map_or(f64::NAN, |t| t.value),
    );
    layers.set("store.get_us_p50", median(&get_us));
    layers.set("store.insert_us_p50", median(&insert_us));
    layers.set("serve.respond_ms_p50", median(&respond));
    layers.set("store.hit_ratio", hits / (hits + misses));
    layers.set(
        "sched.batch_size_mean",
        snapshot
            .histogram("serve.batch.size")
            .map_or(f64::NAN, |h| h.mean),
    );
    layers.set("sched.dedup_ratio", deduped / (groups + deduped));
    let gauge = |name: &str| snapshot.gauge(name).unwrap_or(0.0);
    layers.set(
        "pool.busy_frac",
        gauge("serve.pool.busy_nanos") / 1e9 / seconds,
    );
    layers.set("pool.jobs_stolen", gauge("serve.pool.jobs_stolen"));
    layers.set(
        "serve.fanout_wait_ms_mean",
        fanout.iter().sum::<f64>() / fanout.len() as f64,
    );
    layers.set("gen.late_ms_max", late_ms_max);
    layers.set("gen.requests", answers.len() as f64);
    bare_ns as f64 / path_ns as f64
}
