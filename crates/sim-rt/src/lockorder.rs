//! Debug-build lock-order watchdog.
//!
//! The sampling fast path holds several mutexes in a fixed nested order
//! (hwmon clock → sensor); nothing in the type
//! system stops a future change from taking them the other way round and
//! deadlocking under load. [`TrackedMutex`] is a drop-in `Mutex` wrapper
//! that, in debug builds, records every *acquired-while-holding* pair in a
//! process-global order graph and detects cycles (the classic lockdep
//! check): an `A → B` edge followed by a `B → A` acquisition anywhere in
//! the process increments [`cycles_detected`] and stores a readable report.
//!
//! Locks are grouped into **classes by name** (like lockdep), so every
//! `"hwmon.sensor"` instance shares one graph node and ordering is checked
//! per role, not per object.
//!
//! In release builds the wrapper compiles to a zero-cost passthrough: no
//! extra fields (`size_of::<TrackedMutex<T>>() == size_of::<Mutex<T>>()`),
//! no guard `Drop` impl, and every counter reads zero.
//!
//! # Examples
//!
//! ```
//! use sim_rt::lockorder::TrackedMutex;
//!
//! let m = TrackedMutex::new("doc.example", 7u32);
//! assert_eq!(*m.lock(), 7);
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::collections::{BTreeMap, BTreeSet};
#[cfg(debug_assertions)]
use std::sync::OnceLock;

/// Total `TrackedMutex::lock` acquisitions recorded (debug builds only).
static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
/// Distinct held-before edges added to the order graph.
static EDGES: AtomicU64 = AtomicU64::new(0);
/// Lock-order cycles detected (each offending edge counted once).
static CYCLES: AtomicU64 = AtomicU64::new(0);

/// A `Mutex` whose acquisitions feed the lock-order watchdog in debug
/// builds and that is a zero-cost passthrough in release builds.
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    /// Graph node for this lock's name; all same-named locks share it.
    #[cfg(debug_assertions)]
    class: usize,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` in a mutex belonging to the lock class `name`.
    pub fn new(name: &'static str, value: T) -> TrackedMutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = name;
        TrackedMutex {
            inner: Mutex::new(value),
            #[cfg(debug_assertions)]
            class: graph::intern(name),
        }
    }

    /// Acquires the lock, blocking the current thread.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is poisoned — the simulation never recovers
    /// from a panicked critical section.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(|_| panic!("tracked mutex poisoned"));
        #[cfg(debug_assertions)]
        graph::on_acquire(self.class);
        TrackedGuard {
            inner,
            #[cfg(debug_assertions)]
            class: self.class,
        }
    }

    /// Consumes the mutex, returning the inner value.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is poisoned.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|_| panic!("tracked mutex poisoned"))
    }
}

impl<T: Default> Default for TrackedMutex<T> {
    fn default() -> TrackedMutex<T> {
        TrackedMutex::new("tracked.default", T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`TrackedMutex::lock`].
pub struct TrackedGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    class: usize,
}

impl<T> Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        graph::on_release(self.class);
    }
}

/// Acquisitions recorded so far (0 in release builds).
pub fn acquisitions() -> u64 {
    ACQUISITIONS.load(Ordering::Relaxed)
}

/// Distinct held-before edges in the order graph (0 in release builds).
pub fn edges_tracked() -> u64 {
    EDGES.load(Ordering::Relaxed)
}

/// Lock-order cycles detected so far (0 in release builds).
pub fn cycles_detected() -> u64 {
    CYCLES.load(Ordering::Relaxed)
}

/// Human-readable reports of every detected cycle, oldest first. Empty in
/// release builds.
pub fn cycle_reports() -> Vec<String> {
    #[cfg(debug_assertions)]
    {
        graph::cycle_reports()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

#[cfg(debug_assertions)]
mod graph {
    use super::*;

    struct Graph {
        names: Vec<&'static str>,
        ids: BTreeMap<&'static str, usize>,
        /// `(a, b)` means some thread held class `a` while acquiring `b`.
        edges: BTreeSet<(usize, usize)>,
        cycles: Vec<String>,
    }

    fn state() -> &'static Mutex<Graph> {
        static STATE: OnceLock<Mutex<Graph>> = OnceLock::new();
        STATE.get_or_init(|| {
            Mutex::new(Graph {
                names: Vec::new(),
                ids: BTreeMap::new(),
                edges: BTreeSet::new(),
                cycles: Vec::new(),
            })
        })
    }

    thread_local! {
        /// Classes of the locks this thread currently holds, oldest first.
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn intern(name: &'static str) -> usize {
        let mut g = state().lock().expect("lockorder graph poisoned");
        if let Some(&id) = g.ids.get(name) {
            return id;
        }
        let id = g.names.len();
        g.names.push(name);
        g.ids.insert(name, id);
        id
    }

    /// Is there a path `from → … → to` over the recorded edges?
    fn reachable(g: &Graph, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut stack = vec![vec![from]];
        let mut seen = BTreeSet::new();
        while let Some(path) = stack.pop() {
            let node = *path.last().expect("path never empty");
            if node == to {
                return Some(path);
            }
            if !seen.insert(node) {
                continue;
            }
            for &(a, b) in g.edges.range((node, 0)..(node + 1, 0)) {
                debug_assert_eq!(a, node);
                let mut next = path.clone();
                next.push(b);
                stack.push(next);
            }
        }
        None
    }

    pub(super) fn on_acquire(class: usize) {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let holders: Vec<usize> = held.iter().copied().filter(|&h| h != class).collect();
            if !holders.is_empty() {
                let mut g = state().lock().expect("lockorder graph poisoned");
                for h in holders {
                    if !g.edges.insert((h, class)) {
                        continue;
                    }
                    EDGES.fetch_add(1, Ordering::Relaxed);
                    // The new edge `h → class` closes a cycle iff `h` was
                    // already reachable from `class`.
                    if let Some(path) = reachable(&g, class, h) {
                        CYCLES.fetch_add(1, Ordering::Relaxed);
                        let mut names: Vec<&str> = path.iter().map(|&id| g.names[id]).collect();
                        names.push(g.names[class]);
                        let report = format!("lock-order cycle: {}", names.join(" -> "));
                        g.cycles.push(report);
                    }
                }
            }
            held.push(class);
        });
    }

    pub(super) fn on_release(class: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards may drop out of LIFO order; release the most recent
            // acquisition of this class.
            if let Some(pos) = held.iter().rposition(|&h| h == class) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn cycle_reports() -> Vec<String> {
        state()
            .lock()
            .expect("lockorder graph poisoned")
            .cycles
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_lock_records_edge_and_no_cycle() {
        let outer = TrackedMutex::new("lockorder.unit.outer", ());
        let inner = TrackedMutex::new("lockorder.unit.inner", ());
        let before = cycles_detected();
        for _ in 0..3 {
            let _o = outer.lock();
            let _i = inner.lock();
        }
        assert_eq!(cycles_detected(), before);
        #[cfg(debug_assertions)]
        assert!(acquisitions() >= 6);
        // Release builds are a passthrough: nothing is counted.
        #[cfg(not(debug_assertions))]
        assert_eq!(
            (acquisitions(), edges_tracked(), cycles_detected()),
            (0, 0, 0)
        );
    }

    #[test]
    fn release_build_is_size_transparent() {
        #[cfg(not(debug_assertions))]
        assert_eq!(
            std::mem::size_of::<TrackedMutex<u64>>(),
            std::mem::size_of::<Mutex<u64>>()
        );
        #[cfg(debug_assertions)]
        assert!(std::mem::size_of::<TrackedMutex<u64>>() >= std::mem::size_of::<Mutex<u64>>());
    }

    #[test]
    fn into_inner_returns_value() {
        let m = TrackedMutex::new("lockorder.unit.into", 41u32);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 42);
    }
}
