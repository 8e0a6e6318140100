//! Runtime lock-order verification ("lockdep").
//!
//! The serving daemon holds locks from several subsystems at once
//! (shards, the revocation journal, the warm set, the precompute
//! tier, …). Its deadlock freedom rests on a partial order over
//! *lock classes*: every thread must acquire locks in non-decreasing
//! class rank. Historically that order lived in prose comments; this
//! module makes it machine-checked.
//!
//! Two wrappers, [`TrackedMutex`] and [`TrackedRwLock`], stand in for
//! `Mutex`/`RwLock` at every construction site in the serving path.
//! Each carries a declared [`LockClass`]. With the `lockdep` cargo
//! feature enabled, every acquisition:
//!
//! 1. records a `held-class → acquired-class` edge in a global
//!    acquired-before graph (first-seen `file:line` sites kept per
//!    edge, via `#[track_caller]`),
//! 2. flags a **declared-order inversion** if the acquired class has
//!    a strictly lower [`LockClass::rank`] than any class already
//!    held by the thread,
//! 3. flags an **observed-order inversion** if the reverse edge is
//!    already in the graph (the two classes have equal rank, i.e. are
//!    incomparable in the declared order, but runtime history pins
//!    one direction), and
//! 4. flags a **cycle** if inserting the new edges closes a longer
//!    loop in the class graph (order-insensitive: whichever thread
//!    completes the cycle reports it).
//!
//! At most one violation is reported per acquisition event, so a
//! deliberate single inversion in a test produces exactly one report.
//! Same-class nesting (two locks of one class held together, e.g. two
//! cluster slots) is deliberately out of scope at class granularity.
//!
//! With the feature disabled the wrappers compile down to plain
//! non-poisoning `std::sync` locks — no globals, no thread-locals, no
//! atomics — so production builds pay nothing.

use std::sync::{Condvar, Mutex as StdMutex, PoisonError, RwLock as StdRwLock};
use std::time::Duration;

/// `true` when this build carries the lockdep machinery (`lockdep`
/// cargo feature). When `false` every query below returns zeros.
#[cfg(feature = "lockdep")]
pub const COMPILED: bool = true;
/// `true` when this build carries the lockdep machinery (`lockdep`
/// cargo feature). When `false` every query below returns zeros.
#[cfg(not(feature = "lockdep"))]
pub const COMPILED: bool = false;

/// Declared lock classes, one per protected subsystem.
///
/// [`LockClass::rank`] encodes the acquisition partial order: a
/// thread already holding a class may only acquire classes of equal
/// or higher rank. Equal-rank classes are incomparable (no declared
/// order between them); the runtime observed-edge and cycle checks
/// still police them. This table **is** the former prose invariant
/// "warm → journal → shard" from the TCP daemon, extended to every
/// lock in the serving path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockClass {
    /// Cluster-client slots and wave result collection (`cluster.rs`).
    Cluster,
    /// Fault-injection proxy state (`faults.rs`).
    Faults,
    /// Live-connection registry of the TCP daemon (`tcp.rs`).
    Conns,
    /// Per-connection handler join-handle list (`tcp.rs`).
    Handlers,
    /// Warm-identity set feeding the precompute tier (`tcp.rs`).
    Warm,
    /// Durable revocation/warm journal (`tcp.rs`).
    Journal,
    /// Key/revocation shard (`tcp.rs`).
    Shard,
    /// Idempotency (exactly-once) window (`tcp.rs`).
    Idem,
    /// Worker-pool job queue (`tcp.rs`). Incomparable with
    /// [`LockClass::Inflight`] (equal rank): neither is ever held
    /// while taking the other.
    Pool,
    /// Per-connection in-flight pipeline gate (`tcp.rs`).
    Inflight,
    /// Precompute-tier LRU caches (`SharedLru`, `cache.rs`).
    CacheTier,
    /// Audit ring and metering state (`audit.rs`).
    AuditRing,
}

/// Number of declared lock classes.
pub const CLASS_COUNT: usize = 12;

impl LockClass {
    /// Every declared class, in rank order.
    pub const ALL: [LockClass; CLASS_COUNT] = [
        LockClass::Cluster,
        LockClass::Faults,
        LockClass::Conns,
        LockClass::Handlers,
        LockClass::Warm,
        LockClass::Journal,
        LockClass::Shard,
        LockClass::Idem,
        LockClass::Pool,
        LockClass::Inflight,
        LockClass::CacheTier,
        LockClass::AuditRing,
    ];

    /// Rank in the declared acquisition order (lower = outer, i.e.
    /// acquired first). Equal ranks are incomparable.
    ///
    /// The auditor's R5 rule cross-checks this table against the
    /// `lock:class(..)` annotations in the serving crates; keep the
    /// `LockClass::Name => rank` arms one per line.
    pub const fn rank(self) -> u8 {
        match self {
            LockClass::Cluster => 0,
            LockClass::Faults => 1,
            LockClass::Conns => 2,
            LockClass::Handlers => 3,
            LockClass::Warm => 4,
            LockClass::Journal => 5,
            LockClass::Shard => 6,
            LockClass::Idem => 7,
            LockClass::Pool => 8,
            LockClass::Inflight => 8,
            LockClass::CacheTier => 10,
            LockClass::AuditRing => 11,
        }
    }

    /// Stable display name (matches the variant identifier).
    pub const fn name(self) -> &'static str {
        match self {
            LockClass::Cluster => "Cluster",
            LockClass::Faults => "Faults",
            LockClass::Conns => "Conns",
            LockClass::Handlers => "Handlers",
            LockClass::Warm => "Warm",
            LockClass::Journal => "Journal",
            LockClass::Shard => "Shard",
            LockClass::Idem => "Idem",
            LockClass::Pool => "Pool",
            LockClass::Inflight => "Inflight",
            LockClass::CacheTier => "CacheTier",
            LockClass::AuditRing => "AuditRing",
        }
    }

    /// Parses a class from its [`LockClass::name`].
    pub fn from_name(name: &str) -> Option<LockClass> {
        LockClass::ALL.iter().copied().find(|c| c.name() == name)
    }

    #[cfg(feature = "lockdep")]
    const fn index(self) -> usize {
        match self {
            LockClass::Cluster => 0,
            LockClass::Faults => 1,
            LockClass::Conns => 2,
            LockClass::Handlers => 3,
            LockClass::Warm => 4,
            LockClass::Journal => 5,
            LockClass::Shard => 6,
            LockClass::Idem => 7,
            LockClass::Pool => 8,
            LockClass::Inflight => 9,
            LockClass::CacheTier => 10,
            LockClass::AuditRing => 11,
        }
    }
}

/// What an acquisition violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// The acquired class ranks strictly below a held class.
    DeclaredOrder,
    /// Equal ranks, but the reverse edge was observed earlier.
    ObservedOrder,
    /// Inserting this acquisition's edges closed a longer cycle.
    Cycle,
}

/// One detected lock-order violation.
#[derive(Clone, Debug)]
pub struct LockdepViolation {
    /// Which check fired.
    pub kind: ViolationKind,
    /// Class already held by the thread.
    pub held: LockClass,
    /// Class being acquired.
    pub acquired: LockClass,
    /// `file:line` where the held lock was acquired.
    pub held_site: String,
    /// `file:line` of the violating acquisition.
    pub acquire_site: String,
}

impl std::fmt::Display for LockdepViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: acquired {} (at {}) while holding {} (from {})",
            self.kind,
            self.acquired.name(),
            self.acquire_site,
            self.held.name(),
            self.held_site
        )
    }
}

/// One first-seen acquired-before edge.
#[derive(Clone, Debug)]
pub struct LockdepEdge {
    /// Class held first.
    pub from: LockClass,
    /// Class acquired while `from` was held.
    pub to: LockClass,
    /// `file:line` where the `from` lock was first seen acquired.
    pub from_site: String,
    /// `file:line` where the nested `to` acquisition was first seen.
    pub to_site: String,
}

/// Snapshot of the global lockdep state.
#[derive(Clone, Debug, Default)]
pub struct LockdepReport {
    /// Observed acquired-before edges with first-seen sites.
    pub edges: Vec<LockdepEdge>,
    /// Detected violations (detail list capped; see
    /// [`LockdepReport::violation_count`] for the true total).
    pub violations: Vec<LockdepViolation>,
    /// Total acquisition checks performed.
    pub checks: u64,
    /// Total violations detected (monotonic, never capped).
    pub violation_count: u64,
}

#[cfg(feature = "lockdep")]
mod imp {
    use super::{
        LockClass, LockdepEdge, LockdepReport, LockdepViolation, ViolationKind, CLASS_COUNT,
    };
    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError};

    /// Detail cap on the stored violation list (the counter keeps
    /// counting past it).
    const MAX_VIOLATIONS: usize = 64;

    type Site = &'static Location<'static>;

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(true);
    static CHECKS: AtomicU64 = AtomicU64::new(0);
    static VIOLATIONS: AtomicU64 = AtomicU64::new(0);
    static EDGES: AtomicU64 = AtomicU64::new(0);

    struct Graph {
        /// Adjacency bitmask: bit `to` set in `adj[from]` iff the
        /// edge `from → to` has been observed.
        adj: [u16; CLASS_COUNT],
        /// First-seen `(from_site, to_site)` per edge.
        sites: [[Option<(Site, Site)>; CLASS_COUNT]; CLASS_COUNT],
        violations: Vec<LockdepViolation>,
    }

    impl Graph {
        const fn new() -> Self {
            const NONE_ROW: [Option<(Site, Site)>; CLASS_COUNT] = [None; CLASS_COUNT];
            Graph {
                adj: [0; CLASS_COUNT],
                sites: [NONE_ROW; CLASS_COUNT],
                violations: Vec::new(),
            }
        }

        /// Bitmask of classes reachable from `start` (excluding
        /// `start` itself unless it sits on a cycle).
        fn reachable(&self, start: usize) -> u16 {
            let mut seen: u16 = 0;
            let mut frontier = self.adj[start];
            while frontier != 0 {
                let next = frontier & !seen;
                if next == 0 {
                    break;
                }
                seen |= next;
                frontier = 0;
                for i in 0..CLASS_COUNT {
                    if next & (1 << i) != 0 {
                        frontier |= self.adj[i];
                    }
                }
            }
            seen
        }
    }

    static STATE: Mutex<Graph> = Mutex::new(Graph::new());

    struct Held {
        class: LockClass,
        site: Site,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static THREAD_VIOLATIONS: RefCell<Vec<LockdepViolation>> =
            const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(1) };
    }

    fn site_str(site: Site) -> String {
        format!("{}:{}", site.file(), site.line())
    }

    fn record_violation(v: LockdepViolation) {
        VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        if state.violations.len() < MAX_VIOLATIONS {
            state.violations.push(v.clone());
        }
        drop(state);
        THREAD_VIOLATIONS.with(|t| t.borrow_mut().push(v));
    }

    /// Registers an acquisition of `class` at `site`; returns the
    /// held-set token the matching release must pass back.
    pub(super) fn on_acquire(class: LockClass, site: Site) -> u64 {
        if !ENABLED.load(Ordering::Relaxed) {
            return 0;
        }
        CHECKS.fetch_add(1, Ordering::Relaxed);
        let held: Vec<(LockClass, Site)> = HELD.with(|h| {
            h.borrow()
                .iter()
                .map(|entry| (entry.class, entry.site))
                .collect()
        });
        let mut violation: Option<LockdepViolation> = None;
        // Pass 1: declared-rank inversions (no graph lock needed).
        for &(h_class, h_site) in &held {
            if h_class == class {
                continue;
            }
            if class.rank() < h_class.rank() {
                violation = Some(LockdepViolation {
                    kind: ViolationKind::DeclaredOrder,
                    held: h_class,
                    acquired: class,
                    held_site: site_str(h_site),
                    acquire_site: site_str(site),
                });
                break;
            }
        }
        // Pass 2: record edges and run the observed-order / cycle
        // checks against the global graph.
        if !held.is_empty() {
            let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
            let to = class.index();
            for &(h_class, h_site) in &held {
                if h_class == class {
                    continue;
                }
                let from = h_class.index();
                if violation.is_none() && state.adj[to] & (1 << from) != 0 {
                    // The reverse edge (class → h_class) is already
                    // in the graph: runtime history pinned the other
                    // direction first.
                    violation = Some(LockdepViolation {
                        kind: ViolationKind::ObservedOrder,
                        held: h_class,
                        acquired: class,
                        held_site: site_str(h_site),
                        acquire_site: site_str(site),
                    });
                }
                // Record the edge only when it respects the declared
                // partial order (incomparable equal-rank pairs are
                // recorded in whichever direction runtime history pins
                // first). A rank-inverted edge is the violation itself,
                // not history — recording it would make every later
                // declared-consistent acquisition of the same pair
                // flag ObservedOrder.
                if h_class.rank() <= class.rank() && state.adj[from] & (1 << to) == 0 {
                    state.adj[from] |= 1 << to;
                    state.sites[from][to] = Some((h_site, site));
                    EDGES.fetch_add(1, Ordering::Relaxed);
                }
            }
            if violation.is_none() {
                // Cycle check: did this acquisition's edges close a
                // loop `class ⇝ held ⇝ class`? Direct 2-cycles were
                // caught above; this finds the longer ones.
                let reach = state.reachable(to);
                for &(h_class, h_site) in &held {
                    if h_class == class {
                        continue;
                    }
                    if reach & (1 << h_class.index()) != 0 {
                        violation = Some(LockdepViolation {
                            kind: ViolationKind::Cycle,
                            held: h_class,
                            acquired: class,
                            held_site: site_str(h_site),
                            acquire_site: site_str(site),
                        });
                        break;
                    }
                }
            }
            drop(state);
        }
        if let Some(v) = violation {
            record_violation(v);
        }
        let token = NEXT_TOKEN.with(|t| {
            let mut t = t.borrow_mut();
            let token = *t;
            *t += 1;
            token
        });
        HELD.with(|h| h.borrow_mut().push(Held { class, site, token }));
        token
    }

    /// Releases the held-set entry registered under `token` (tokens
    /// tolerate out-of-order guard drops).
    pub(super) fn on_release(token: u64) {
        if token == 0 {
            return;
        }
        HELD.with(|h| h.borrow_mut().retain(|entry| entry.token != token));
    }

    pub(super) fn checks() -> u64 {
        CHECKS.load(Ordering::Relaxed)
    }

    pub(super) fn violation_count() -> u64 {
        VIOLATIONS.load(Ordering::Relaxed)
    }

    pub(super) fn edge_count() -> u64 {
        EDGES.load(Ordering::Relaxed)
    }

    pub(super) fn report() -> LockdepReport {
        let state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        let mut edges = Vec::new();
        for from in LockClass::ALL {
            for to in LockClass::ALL {
                if let Some((from_site, to_site)) = state.sites[from.index()][to.index()] {
                    edges.push(LockdepEdge {
                        from,
                        to,
                        from_site: site_str(from_site),
                        to_site: site_str(to_site),
                    });
                }
            }
        }
        LockdepReport {
            edges,
            violations: state.violations.clone(),
            checks: checks(),
            violation_count: violation_count(),
        }
    }

    pub(super) fn take_thread_violations() -> Vec<LockdepViolation> {
        THREAD_VIOLATIONS.with(|t| std::mem::take(&mut *t.borrow_mut()))
    }

    pub(super) fn reset() {
        let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        *state = Graph::new();
        drop(state);
        CHECKS.store(0, Ordering::Relaxed);
        VIOLATIONS.store(0, Ordering::Relaxed);
        EDGES.store(0, Ordering::Relaxed);
        THREAD_VIOLATIONS.with(|t| t.borrow_mut().clear());
    }
}

/// Enables or disables runtime tracking (compiled builds start
/// enabled). No-op without the `lockdep` feature.
pub fn set_enabled(enabled: bool) {
    #[cfg(feature = "lockdep")]
    imp::ENABLED.store(enabled, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "lockdep"))]
    let _ = enabled;
}

/// Whether runtime tracking is currently active.
pub fn enabled() -> bool {
    #[cfg(feature = "lockdep")]
    {
        imp::ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "lockdep"))]
    {
        false
    }
}

/// Total acquisition checks performed (0 without the feature).
pub fn checks() -> u64 {
    #[cfg(feature = "lockdep")]
    {
        imp::checks()
    }
    #[cfg(not(feature = "lockdep"))]
    {
        0
    }
}

/// Total violations detected (0 without the feature).
pub fn violation_count() -> u64 {
    #[cfg(feature = "lockdep")]
    {
        imp::violation_count()
    }
    #[cfg(not(feature = "lockdep"))]
    {
        0
    }
}

/// Distinct acquired-before edges observed (0 without the feature).
pub fn edge_count() -> u64 {
    #[cfg(feature = "lockdep")]
    {
        imp::edge_count()
    }
    #[cfg(not(feature = "lockdep"))]
    {
        0
    }
}

/// Snapshots the global edge graph and violation list.
pub fn report() -> LockdepReport {
    #[cfg(feature = "lockdep")]
    {
        imp::report()
    }
    #[cfg(not(feature = "lockdep"))]
    {
        LockdepReport::default()
    }
}

/// Drains the calling thread's violation capture (test hook: lets a
/// test assert on exactly the violations its own thread produced,
/// immune to parallel tests elsewhere in the process).
pub fn take_thread_violations() -> Vec<LockdepViolation> {
    #[cfg(feature = "lockdep")]
    {
        imp::take_thread_violations()
    }
    #[cfg(not(feature = "lockdep"))]
    {
        Vec::new()
    }
}

/// Clears the global graph, violation list and counters (test hook).
pub fn reset() {
    #[cfg(feature = "lockdep")]
    imp::reset();
}

/// A mutex registered under a [`LockClass`].
///
/// Semantics match the workspace `parking_lot` shim: non-poisoning
/// (a panicking holder does not wedge later acquisitions), guard
/// implements `Deref`/`DerefMut`. Built over `std::sync::Mutex` so
/// [`TrackedMutexGuard::wait_timeout`] can park on a
/// `std::sync::Condvar`.
pub struct TrackedMutex<T: ?Sized> {
    #[cfg(feature = "lockdep")]
    class: LockClass,
    inner: StdMutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a mutex registered under `class`.
    pub const fn new(class: LockClass, value: T) -> Self {
        #[cfg(not(feature = "lockdep"))]
        let _ = class;
        TrackedMutex {
            #[cfg(feature = "lockdep")]
            class,
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the mutex, blocking until available. The acquisition
    /// site (`file:line` of the caller) tags the lockdep edge graph.
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(feature = "lockdep")]
        let token = imp::on_acquire(self.class, std::panic::Location::caller());
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedMutexGuard {
            inner: Some(guard),
            #[cfg(feature = "lockdep")]
            token,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("TrackedMutex");
        #[cfg(feature = "lockdep")]
        s.field("class", &self.class);
        s.finish_non_exhaustive()
    }
}

/// Guard for [`TrackedMutex`]; releases the lockdep held-set entry on
/// drop.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    /// `Option` so [`TrackedMutexGuard::wait_timeout`] can hand the
    /// inner guard to a `Condvar` and take it back, without `unsafe`
    /// (both serving crates forbid it). Always `Some` outside that
    /// window.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(feature = "lockdep")]
    token: u64,
}

impl<T> TrackedMutexGuard<'_, T> {
    /// Atomically releases the mutex and parks on `cv` until notified
    /// or `timeout` elapses, then reacquires. Returns `true` if the
    /// wait timed out. The lock-class held-set entry is kept across
    /// the wait: the thread is parked, so it cannot acquire anything
    /// else in the window where the lock is released.
    pub fn wait_timeout(&mut self, cv: &Condvar, timeout: Duration) -> bool {
        match self.inner.take() {
            Some(guard) => {
                let (guard, result) = match cv.wait_timeout(guard, timeout) {
                    Ok((guard, result)) => (guard, result),
                    Err(poisoned) => poisoned.into_inner(),
                };
                self.inner = Some(guard);
                result.timed_out()
            }
            None => true,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(guard) => guard,
            // Unreachable: `inner` is only `None` inside
            // `wait_timeout`, which holds `&mut self`.
            None => unreachable!("guard accessed during condvar wait"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(guard) => guard,
            None => unreachable!("guard accessed during condvar wait"),
        }
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lockdep")]
        imp::on_release(self.token);
    }
}

/// A reader-writer lock registered under a [`LockClass`].
///
/// Non-poisoning, like the workspace `parking_lot` shim. Both `read`
/// and `write` acquisitions feed the same class into the lockdep
/// graph (ordering discipline is direction-agnostic).
pub struct TrackedRwLock<T: ?Sized> {
    #[cfg(feature = "lockdep")]
    class: LockClass,
    inner: StdRwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a reader-writer lock registered under `class`.
    pub const fn new(class: LockClass, value: T) -> Self {
        #[cfg(not(feature = "lockdep"))]
        let _ = class;
        TrackedRwLock {
            #[cfg(feature = "lockdep")]
            class,
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquires shared read access.
    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        #[cfg(feature = "lockdep")]
        let token = imp::on_acquire(self.class, std::panic::Location::caller());
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        TrackedReadGuard {
            inner: guard,
            #[cfg(feature = "lockdep")]
            token,
        }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        #[cfg(feature = "lockdep")]
        let token = imp::on_acquire(self.class, std::panic::Location::caller());
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        TrackedWriteGuard {
            inner: guard,
            #[cfg(feature = "lockdep")]
            token,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("TrackedRwLock");
        #[cfg(feature = "lockdep")]
        s.field("class", &self.class);
        s.finish_non_exhaustive()
    }
}

/// Shared-read guard for [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(feature = "lockdep")]
    token: u64,
}

impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lockdep")]
        imp::on_release(self.token);
    }
}

/// Exclusive-write guard for [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(feature = "lockdep")]
    token: u64,
}

impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lockdep")]
        imp::on_release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_monotone_over_the_declared_chain() {
        // The promoted tcp.rs invariant: warm → journal → shard, and
        // the shard may feed the precompute tier.
        assert!(LockClass::Warm.rank() < LockClass::Journal.rank());
        assert!(LockClass::Journal.rank() < LockClass::Shard.rank());
        assert!(LockClass::Shard.rank() < LockClass::CacheTier.rank());
        // Pool and Inflight are deliberately incomparable.
        assert_eq!(LockClass::Pool.rank(), LockClass::Inflight.rank());
    }

    #[test]
    fn names_round_trip() {
        for class in LockClass::ALL {
            assert_eq!(LockClass::from_name(class.name()), Some(class));
        }
        assert_eq!(LockClass::from_name("NoSuchClass"), None);
    }

    #[test]
    fn tracked_mutex_behaves_like_a_mutex() {
        // lock:class(Shard) — test-local lock, class is arbitrary.
        let m = TrackedMutex::new(LockClass::Shard, 41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn tracked_rwlock_behaves_like_a_rwlock() {
        // lock:class(Shard) — test-local lock, class is arbitrary.
        let l = TrackedRwLock::new(LockClass::Shard, vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn wait_timeout_times_out_and_keeps_the_value() {
        // lock:class(Pool) — test-local lock, class is arbitrary.
        let m = TrackedMutex::new(LockClass::Pool, 7u32);
        let cv = Condvar::new();
        let mut guard = m.lock();
        let timed_out = guard.wait_timeout(&cv, Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*guard, 7);
    }
}
