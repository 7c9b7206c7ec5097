//! `sim-store` — content-addressed, append-only result store for the
//! AmpereBleed campaign farm.
//!
//! Every response the farm produces is a deterministic function of
//! `(verb, seed, config)` — the workspace determinism contract (see
//! DESIGN.md) — so a result computed once is a result computed forever. This crate exploits that
//! end-to-end: results are addressed by a 256-bit [`Digest`] over a
//! canonical preimage of the request triple, kept in a bounded sharded
//! in-memory hot tier ([`hot::HotTier`]) backed by CRC-framed JSONL
//! segment files ([`segment::Persist`]). Long multi-point sweeps persist
//! per-point progress as ordinary records of the same store, through the
//! [`Checkpoint`] view, so a drain resumes instead of restarting and one
//! scan-and-truncate path recovers both.
//!
//! Canonicalization matters: the digest preimage uses
//! [`sim_rt::ser::Value::to_canonical_json`] (sorted keys, `-0.0`
//! normalized, NaN-free), so two configs that differ only in field
//! order address the same record. The preimage also embeds
//! [`STORE_VERSION`]; bumping it when simulation output changes
//! invalidates every stale address at once without touching the files.
//!
//! The store is a cache, never an authority: any record it loses —
//! torn tail, corrupt byte, evicted entry — is only a recompute.
//!
//! # Examples
//!
//! ```
//! use sim_rt::ser::Value;
//! use sim_store::Store;
//!
//! let store = Store::in_memory();
//! let config = Value::Object(vec![("depth".into(), Value::Int(3))]);
//! let key = Store::key("quickstart", 7, &config);
//! assert!(store.get(&key).is_none());
//! store.insert(&key, "quickstart", 7, "{\"top1\":0.99}");
//! assert_eq!(store.get(&key).as_deref(), Some("{\"top1\":0.99}"));
//! ```

pub mod digest;
pub mod hot;
pub mod segment;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sim_rt::ser::Value;

pub use digest::Digest;
use hot::HotTier;
use segment::Persist;

/// Version stamped into every digest preimage. Bump whenever simulation
/// output changes for the same `(verb, seed, config)` — every old
/// address goes stale at once, and the files need no migration because
/// unreferenced records are simply never read again.
pub const STORE_VERSION: u32 = 1;

/// A store failure: directory, file, or record-level I/O trouble.
/// Always recoverable by recomputation — the simulator remains the
/// source of truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// Human-readable description.
    pub message: String,
}

impl StoreError {
    /// Wraps a message.
    pub fn new(message: impl Into<String>) -> StoreError {
        StoreError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory for the persistent tier; `None` keeps the store
    /// memory-only.
    pub dir: Option<PathBuf>,
    /// Whole-tier hot-cache budget in bytes.
    pub hot_capacity_bytes: usize,
    /// Number of hot-tier shards (locks).
    pub shards: usize,
    /// Segment file roll-over threshold in bytes.
    pub segment_max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            dir: None,
            hot_capacity_bytes: 64 << 20,
            shards: 16,
            segment_max_bytes: 8 << 20,
        }
    }
}

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    hits_persist: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    recovered_truncated: AtomicU64,
    io_errors: AtomicU64,
}

/// A point-in-time snapshot of one store's counters and occupancy,
/// separate from the process-global `obs` metrics so several stores in
/// one process (tests) stay distinguishable.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Lookups served (hot + persistent).
    pub hits: u64,
    /// The subset of hits served by the persistent tier.
    pub hits_persist: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results inserted.
    pub inserts: u64,
    /// Hot-tier entries evicted by the byte budget.
    pub evictions: u64,
    /// Torn/corrupt tails truncated on open.
    pub recovered_truncated: u64,
    /// Persistence failures absorbed (insert kept going).
    pub io_errors: u64,
    /// Hot-tier resident entries.
    pub hot_entries: usize,
    /// Hot-tier resident bytes.
    pub hot_bytes: usize,
    /// Persistent-tier indexed records.
    pub persist_entries: usize,
    /// Persistent-tier segment files.
    pub segments: u32,
}

impl StoreStats {
    /// The snapshot as a JSON object for the `stats` serve verb.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("hits".into(), Value::from(self.hits)),
            ("hits_persist".into(), Value::from(self.hits_persist)),
            ("misses".into(), Value::from(self.misses)),
            ("inserts".into(), Value::from(self.inserts)),
            ("evictions".into(), Value::from(self.evictions)),
            (
                "recovered_truncated".into(),
                Value::from(self.recovered_truncated),
            ),
            ("io_errors".into(), Value::from(self.io_errors)),
            ("hot_entries".into(), Value::from(self.hot_entries)),
            ("hot_bytes".into(), Value::from(self.hot_bytes)),
            ("persist_entries".into(), Value::from(self.persist_entries)),
            ("segments".into(), Value::from(self.segments)),
        ])
    }
}

/// The two-tier content-addressed result store.
#[derive(Debug)]
pub struct Store {
    hot: HotTier,
    persist: Option<Mutex<Persist>>,
    stats: StatCells,
}

impl Store {
    /// Opens a store per `cfg`, scanning (and if necessary repairing)
    /// the persistent tier when a directory is configured.
    ///
    /// # Errors
    ///
    /// Propagates persistent-tier open failures (unreadable directory,
    /// uncreatable segment). Damaged record content is repaired, not
    /// reported.
    pub fn open(cfg: StoreConfig) -> Result<Store, StoreError> {
        let _span = obs::trace::span("store", "open");
        let hot = HotTier::new(cfg.hot_capacity_bytes, cfg.shards);
        let stats = StatCells::default();
        let persist = match &cfg.dir {
            None => None,
            Some(dir) => {
                let (persist, report) = Persist::open(dir, cfg.segment_max_bytes)?;
                stats
                    .recovered_truncated
                    .store(report.recovered_truncated, Ordering::Relaxed);
                if report.recovered_truncated > 0 {
                    obs::counter!("store.recovered_truncated").add(report.recovered_truncated);
                }
                obs::gauge!("store.persist.entries").set(report.entries as f64);
                obs::gauge!("store.segments").set(f64::from(report.segments));
                Some(Mutex::new(persist))
            }
        };
        Ok(Store {
            hot,
            persist,
            stats,
        })
    }

    /// A memory-only store with default tuning.
    pub fn in_memory() -> Store {
        // Default config has no dir, so open cannot fail.
        Store::open(StoreConfig::default()).unwrap_or_else(|_| Store {
            hot: HotTier::new(64 << 20, 16),
            persist: None,
            stats: StatCells::default(),
        })
    }

    /// Whether this store has a persistent tier.
    pub fn persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// The content address of a request triple: a [`Digest`] over
    /// `amperebleed-store:v{STORE_VERSION}`, the verb, the seed, and the
    /// canonical JSON of the config.
    pub fn key(verb: &str, seed: u64, config: &Value) -> Digest {
        Digest::of_str(&format!(
            "amperebleed-store:v{STORE_VERSION}\u{1f}{verb}\u{1f}{seed}\u{1f}{}",
            config.to_canonical_json()
        ))
    }

    /// Looks up a result by digest: hot tier first, then the persistent
    /// tier (promoting a persistent hit into the hot tier).
    pub fn get(&self, digest: &Digest) -> Option<Arc<str>> {
        let _span = obs::trace::span("store", "get");
        if let Some(json) = self.hot.get(digest) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter!("store.hits").inc();
            return Some(json);
        }
        if let Some(persist) = &self.persist {
            let read = persist
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get(digest);
            match read {
                Ok(Some(json)) => {
                    let json: Arc<str> = Arc::from(json.as_str());
                    let (evicted, _) = self.hot.insert(*digest, Arc::clone(&json));
                    self.note_evictions(evicted);
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    self.stats.hits_persist.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("store.hits").inc();
                    obs::counter!("store.hits.persist").inc();
                    self.publish_occupancy();
                    return Some(json);
                }
                Ok(None) => {}
                Err(_) => {
                    self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("store.io_errors").inc();
                }
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter!("store.misses").inc();
        None
    }

    /// Inserts a computed result. Persistence failures are absorbed and
    /// counted (`store.io_errors`) — a cache must never fail the request
    /// that fed it.
    pub fn insert(&self, digest: &Digest, verb: &str, seed: u64, result_json: &str) {
        let _span = obs::trace::span("store", "insert");
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        obs::counter!("store.inserts").inc();
        let (evicted, _) = self.hot.insert(*digest, Arc::from(result_json));
        self.note_evictions(evicted);
        if let Some(persist) = &self.persist {
            let mut persist = persist
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if persist.append(digest, verb, seed, result_json).is_err() {
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                obs::counter!("store.io_errors").inc();
            }
            obs::gauge!("store.persist.entries").set(persist.entries() as f64);
            obs::gauge!("store.segments").set(f64::from(persist.segments()));
        }
        self.publish_occupancy();
    }

    /// A snapshot of this store's counters and occupancy.
    pub fn stats(&self) -> StoreStats {
        let (persist_entries, segments) = match &self.persist {
            None => (0, 0),
            Some(p) => {
                let p = p.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                (p.entries(), p.segments())
            }
        };
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            hits_persist: self.stats.hits_persist.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            recovered_truncated: self.stats.recovered_truncated.load(Ordering::Relaxed),
            io_errors: self.stats.io_errors.load(Ordering::Relaxed),
            hot_entries: self.hot.entries(),
            hot_bytes: self.hot.bytes(),
            persist_entries,
            segments,
        }
    }

    fn note_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            obs::counter!("store.evictions").add(evicted);
        }
    }

    fn publish_occupancy(&self) {
        obs::gauge!("store.entries").set(self.hot.entries() as f64);
        obs::gauge!("store.bytes").set(self.hot.bytes() as f64);
    }
}

/// A sweep's per-point progress, held as ordinary records of a [`Store`]:
/// point `index` of the sweep addressed by `sweep` lives at
/// `Store::key("sweep-point", index, sweep-hex)`. Points are
/// *index-addressed*, so the order they land in (which follows worker
/// scheduling) never influences what a resume reads back. A torn or
/// evicted point is simply recomputed.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint<'s> {
    /// The store the points live in.
    pub store: &'s Store,
    /// Content digest of the sweep the points belong to.
    pub sweep: Digest,
}

impl Checkpoint<'_> {
    fn point_key(&self, index: u64) -> Digest {
        Store::key("sweep-point", index, &Value::Str(self.sweep.hex()))
    }

    /// The result JSON stored for point `index`, if any. A hit counts
    /// toward `store.checkpoint.resumed`: it is work a resume skipped.
    pub fn get(&self, index: u64) -> Option<Arc<str>> {
        let hit = self.store.get(&self.point_key(index));
        if hit.is_some() {
            obs::counter!("store.checkpoint.resumed").inc();
        }
        hit
    }

    /// Stores point `index`. Safe to call from pool workers. Write
    /// failures are absorbed like any [`Store::insert`]: losing a point
    /// only costs recomputation.
    pub fn put(&self, index: u64, result: &str) {
        self.store
            .insert(&self.point_key(index), "sweep-point", index, result);
        obs::counter!("store.checkpoint.points").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ignores_field_order_and_zero_sign() {
        let a = Value::Object(vec![
            ("alpha".into(), Value::Int(1)),
            ("beta".into(), Value::Float(-0.0)),
        ]);
        let b = Value::Object(vec![
            ("beta".into(), Value::Float(0.0)),
            ("alpha".into(), Value::Int(1)),
        ]);
        assert_eq!(Store::key("defend", 3, &a), Store::key("defend", 3, &b));
        assert_ne!(Store::key("defend", 3, &a), Store::key("defend", 4, &a));
        assert_ne!(Store::key("defend", 3, &a), Store::key("covert", 3, &a));
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = Store::in_memory();
        let cfg = Value::Object(vec![]);
        let key = Store::key("ping", 1, &cfg);
        assert!(store.get(&key).is_none());
        store.insert(&key, "ping", 1, r#"{"pong":true}"#);
        assert_eq!(store.get(&key).as_deref(), Some(r#"{"pong":true}"#));
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.hot_entries, 1);
        assert!(!store.persistent());
    }
}
