//! A TCP SEM daemon speaking the [`crate::proto`] frame protocol.
//!
//! The paper's SEM is an online network service; this module makes the
//! reproduction one too: [`TcpSemServer`] binds a listener, serves
//! token requests over real sockets (one handler thread per
//! connection, shared revocation state), and [`TcpSemClient`] is the
//! user-side stub. The bytes that cross this socket are the paper's §4
//! and §5 bandwidth numbers, observable with any packet capture.
//!
//! Because the SEM "remains online all the system's lifetime" (§4),
//! the transport must survive misbehaving clients and flaky links:
//!
//! * **Deadlines** — every handler socket carries an idle deadline
//!   (waiting for the next frame), a read deadline (finishing a frame
//!   that was started), and a write deadline, so a client that
//!   connects and sends nothing — or half a frame — cannot pin a
//!   handler thread forever ([`ServerConfig`]).
//! * **Admission** — the acceptor enforces `max_connections`; sockets
//!   beyond the cap are dropped with an
//!   [`Outcome::RefusedOverload`] audit record.
//! * **Graceful drain** — live handler sockets are tracked in shared
//!   state, so [`TcpSemServer::shutdown`] force-closes them and joins
//!   every handler thread before returning ([`DrainReport`]).
//! * **Client resilience** — [`TcpSemClient`] reconnects and retries
//!   through transport faults with bounded exponential backoff under a
//!   per-request deadline ([`ClientConfig`]), so one torn connection
//!   no longer poisons the stub.
//!
//! The chaos suite in `tests/chaos.rs` drives all of this through the
//! [`crate::faults`] injection harness.
//!
//! ## Pipelined serving (protocol v2)
//!
//! The v1 transport serves one frame at a time per connection: a slow
//! pairing operation at the head of the line blocks every request
//! queued behind it on that socket. The v2 envelope
//! ([`crate::proto::Op::Pipelined`]) removes that head-of-line block:
//!
//! * Each connection's handler becomes a **reader** that decodes
//!   envelopes and hands them to a fixed **worker pool**; a lazily
//!   spawned per-connection **writer** thread sends replies back in
//!   whatever order the pool finishes them, tagged with the request id.
//! * The pool's scheduler is cryptography-aware: each worker drains a
//!   burst of cheap token-class jobs (IBE tokens, token shares,
//!   batches, stats) before picking up at most one expensive signing
//!   job per cycle, so signatures cannot starve token latency.
//! * Revocation/key state is **sharded** by identity hash
//!   ([`crate::revocation::shard_of`]): a revocation storm writing one
//!   shard leaves the other shards' read locks uncontended.
//! * The pool queue is **bounded** (`queue_cap`); an envelope that
//!   arrives while it is full is shed immediately with
//!   [`Status::Overloaded`] and an [`Outcome::RefusedOverload`] audit
//!   record — it is never executed.
//! * Replies are **idempotent** within a bounded window: the daemon
//!   remembers recent `(session, request-id)` pairs and replays the
//!   stored response for a retried id instead of executing it twice.
//! * The reader admits at most `pipeline_depth` envelopes in flight
//!   per connection; beyond that it stops reading and lets TCP
//!   backpressure the peer.
//!
//! Plain v1 frames are still served inline by the reader, exactly as
//! before — old clients interoperate with the new daemon on the same
//! port, and the two framings can mix on one connection.

use crate::audit::{AuditConfig, AuditLog, Capability, MetricsSnapshot, Outcome};
use crate::proto::{self, Op, PipelinedRequest, Request, Response, Status};
use crate::revocation::shard_of;
use crate::server::{BatchItem, BatchReply};
use crate::store::{Journal, Record, ReplayedState};
use crossbeam::channel;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sempair_core::bf_ibe::IbePublicParams;
use sempair_core::gdh::{GdhSem, GdhSemKey, HalfSignature};
use sempair_core::lockdep::{LockClass, TrackedMutex, TrackedRwLock};
use sempair_core::mediated::{DecryptToken, Sem, SemKey};
use sempair_core::threshold::{self, DecryptionShare, IdKeyShare};
use sempair_core::Error;
use sempair_hash::HmacDrbgRng;
use sempair_pairing::G1Affine;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the non-blocking accept loop polls for new connections
/// and re-checks the shutdown flag. Polling (instead of a blocking
/// `accept`) is what lets `shutdown()` work without the brittle
/// self-connect nudge, which breaks under wildcard binds like
/// `0.0.0.0:p` where the bound address is not a connectable peer.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How often an idle pool worker (or a reader blocked on a full
/// pipeline) re-checks the shutdown flag while waiting on a condvar.
const POOL_POLL: Duration = Duration::from_millis(50);

/// Token-class jobs a worker drains per cycle before it will pick up a
/// (more expensive) signing job — the cryptography-aware scheduling
/// bias.
const TOKEN_BURST: usize = 16;

/// `(session, request-id)` pairs the idempotency window remembers.
/// Retries older than this window re-execute (harmless: every request
/// is a pure function of its bytes) instead of replaying.
const IDEM_WINDOW: usize = 4096;

/// Socket-deadline and admission knobs for [`TcpSemServer`].
///
/// A zero duration disables that deadline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Max wait for the first byte of the *next* frame on an open
    /// connection. An idle client is disconnected (and counted in
    /// [`crate::audit::TransportStats::timeouts`]) when it expires —
    /// the slowloris deadline.
    pub idle_timeout: Duration,
    /// Max wait for the remainder of a frame once its length prefix
    /// arrived: a peer that starts a frame must finish it.
    pub read_timeout: Duration,
    /// Max wait for a response write to drain.
    pub write_timeout: Duration,
    /// Max simultaneous connections. The acceptor drops sockets beyond
    /// the cap before reading anything from them.
    pub max_connections: usize,
    /// Worker threads in the shared crypto pool serving pipelined
    /// envelopes (clamped to at least 1).
    pub workers: usize,
    /// Revocation/key-state shards, keyed by identity hash (clamped to
    /// at least 1). More shards mean a revocation storm on one identity
    /// range contends with fewer readers.
    pub shards: usize,
    /// Bound on the pool's job queue. Envelopes arriving while it is
    /// full are shed with [`Status::Overloaded`] instead of queuing
    /// without limit.
    pub queue_cap: usize,
    /// Brownout high-watermark on the pool queue: once its depth
    /// reaches this, *brownout-class* ops (Stats and Batch — the work
    /// that can wait) are shed with [`Status::Overloaded`] while
    /// token/signing ops keep being admitted up to `queue_cap`, so an
    /// overloaded SEM degrades observability and bulk traffic before
    /// the latency-critical crypto path. Shed responses carry a typed
    /// retry-after hint ([`proto::encode_retry_after`]). `0` (the
    /// default) means ¾ of `queue_cap`.
    pub brownout_watermark: usize,
    /// Max envelopes one connection may have in flight; past it the
    /// reader stops reading and TCP backpressures the peer.
    pub pipeline_depth: usize,
    /// Entry cap for each cache of the precompute tier
    /// ([`crate::cache::CacheTier`]): hashed `Q_ID` points, mask
    /// bases, and prepared half-keys. `0` disables the tier — token
    /// requests take the uncached pairing path.
    pub cache_cap: usize,
    /// Journal the served hot-identity set (bounded by `cache_cap`)
    /// and warm-start the precompute tier from it on restart. Only
    /// meaningful on a journal-backed daemon
    /// ([`TcpSemServer::bind_with_journal`]).
    pub cache_warm: bool,
    /// Memory bounds for the daemon's audit log and identity metering
    /// (ring-buffer cap, identity-cardinality cap).
    pub audit: AuditConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_connections: 256,
            workers: 4,
            shards: 8,
            queue_cap: 1024,
            brownout_watermark: 0,
            pipeline_depth: 64,
            cache_cap: crate::cache::DEFAULT_CACHE_CAP,
            cache_warm: false,
            audit: AuditConfig::default(),
        }
    }
}

impl ServerConfig {
    /// The queue depth at which brownout shedding starts: the
    /// configured watermark clamped to `queue_cap`, or ¾ of
    /// `queue_cap` (at least 1) when left at `0`.
    pub fn effective_brownout_watermark(&self) -> usize {
        let cap = self.queue_cap.max(1);
        if self.brownout_watermark == 0 {
            (cap * 3 / 4).max(1)
        } else {
            self.brownout_watermark.min(cap)
        }
    }
}

/// What [`TcpSemServer::shutdown`] tore down, as proof of drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections still open when shutdown began. Each was either
    /// drained by its own handler (it noticed the flag between frames)
    /// or force-closed out of a blocking read/write.
    pub connections_closed: usize,
    /// Handler threads joined (both live and already finished).
    pub handlers_joined: usize,
}

struct Shared {
    params: IbePublicParams,
    /// Revocation/key state, sharded by identity hash. One identity
    /// always lands on one shard, so a write lock (install/revoke)
    /// stalls only the readers of that shard.
    shards: Vec<TrackedRwLock<Inner>>,
    shutdown: AtomicBool,
    audit: AuditLog,
    config: ServerConfig,
    /// Live handler sockets by connection id. Handlers remove their
    /// own entry on exit; `shutdown()` force-closes whatever remains
    /// so blocked reads/writes return immediately.
    conns: TrackedMutex<HashMap<u64, TcpStream>>,
    /// Current connection count (the `max_connections` gauge).
    live: AtomicUsize,
    next_conn_id: AtomicU64,
    /// Durable revocation journal, when the daemon was opened with
    /// [`TcpSemServer::bind_with_journal`]. Appends are best-effort:
    /// an I/O failure leaves the in-memory state authoritative for
    /// this process lifetime.
    journal: TrackedMutex<Option<Journal>>,
    /// The pipelined workers' bounded job queue.
    pool: PoolQueue,
    /// Recently seen pipelined `(session, request-id)` pairs, so a
    /// retried request replays its stored response instead of
    /// executing twice.
    idem: TrackedMutex<IdemCache>,
    /// The precompute tier: hashed `Q_ID` points, mask bases, and
    /// prepared half-keys, each behind a bounded LRU
    /// (`config.cache_cap`; `0` disables).
    tier: crate::cache::CacheTier,
    /// The journaled hot-identity set: ids replayed from `Warm`
    /// records at bind plus ids first served this run. Membership
    /// means "already journaled" (dedup) and "warm the half-key at
    /// install time". Bounded by `cache_cap`.
    warm: TrackedMutex<HashSet<String>>,
}

impl Shared {
    /// The shard holding `id`'s key material and revocation bit.
    fn shard(&self, id: &str) -> &TrackedRwLock<Inner> {
        let index = shard_of(id, self.shards.len());
        // shard_of returns a value < shards.len() by construction, and
        // bind_inner creates at least one shard.
        &self.shards[index]
    }

    /// Queues a pipelined job on the worker pool; hands the job back
    /// (plus the queue depth at refusal, for the retry-after hint)
    /// when the caller must shed it. Token/signing work is shed only
    /// when the bounded queue is full; brownout-class work (Stats,
    /// Batch) is shed already at the brownout watermark, so overload
    /// degrades the deferrable traffic first.
    fn enqueue(&self, job: WireJob) -> Option<(WireJob, usize)> {
        let mut state = self.pool.state.lock(); // lock:acquire(Pool)
        let depth = state.tokens.len() + state.signs.len();
        if depth >= self.config.queue_cap.max(1) {
            return Some((job, depth));
        }
        let brownout_class = matches!(job.env.inner.op, Op::Stats | Op::Batch);
        if brownout_class && depth >= self.config.effective_brownout_watermark() {
            return Some((job, depth));
        }
        if job.env.inner.op == Op::GdhHalfSign {
            state.signs.push_back(job);
        } else {
            state.tokens.push_back(job);
        }
        drop(state);
        self.pool.ready.notify_one();
        None
    }

    /// The daemon's metrics snapshot with the precompute tier's cache
    /// counters attached — what the stats op and `metrics()` return.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.audit.metrics();
        snapshot.caches = self.tier.stats();
        snapshot
    }

    /// Marks `id` as hot: journals a `Warm` record (once per id, set
    /// bounded by `cache_cap`) so a restarted daemon can warm-start
    /// its precompute tier. Must be called **without** any shard lock
    /// held: Warm and Journal rank before Shard in the declared
    /// lock-class table ([`LockClass::rank`]), and lockdep flags the
    /// inversion.
    fn note_warm(&self, id: &str) {
        if !self.config.cache_warm || !self.tier.enabled() {
            return;
        }
        {
            let mut warm = self.warm.lock(); // lock:acquire(Warm)
            if warm.len() >= self.config.cache_cap || warm.contains(id) {
                return;
            }
            warm.insert(id.to_string());
        }
        if let Some(journal) = self.journal.lock().as_mut() {
            let _ = journal.append(&Record::Warm(id.to_string()));
        }
    }
}

/// The worker pool's two job classes under one lock: cheap token-class
/// work (ops 1/3/4/5) and expensive signing work (op 2), scheduled
/// with a token bias ([`TOKEN_BURST`]).
#[derive(Default)]
struct PoolState {
    tokens: VecDeque<WireJob>,
    signs: VecDeque<WireJob>,
}

struct PoolQueue {
    state: TrackedMutex<PoolState>,
    ready: Condvar,
}

impl Default for PoolQueue {
    fn default() -> Self {
        PoolQueue {
            // lock:class(Pool)
            state: TrackedMutex::new(LockClass::Pool, PoolState::default()),
            ready: Condvar::new(),
        }
    }
}

/// One decoded envelope plus the plumbing its reply routes through:
/// the owning connection's writer channel and in-flight gate.
struct WireJob {
    env: PipelinedRequest,
    reply: channel::Sender<Vec<u8>>,
    gate: Arc<FlightGate>,
}

/// Bounds the envelopes one connection may have in flight
/// (`pipeline_depth`). The reader acquires a slot per envelope and the
/// pool releases it once the reply is on the writer channel; a reader
/// that cannot acquire stops reading, which is exactly TCP
/// backpressure.
struct FlightGate {
    inflight: TrackedMutex<usize>,
    freed: Condvar,
    depth: usize,
}

impl FlightGate {
    fn new(depth: usize) -> Self {
        FlightGate {
            // lock:class(Inflight)
            inflight: TrackedMutex::new(LockClass::Inflight, 0),
            freed: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Blocks until a slot frees; `false` when the daemon is shutting
    /// down instead.
    fn acquire(&self, shutdown: &AtomicBool) -> bool {
        let mut n = self.inflight.lock(); // lock:acquire(Inflight)
        while *n >= self.depth {
            if shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let _ = n.wait_timeout(&self.freed, POOL_POLL);
        }
        *n += 1;
        true
    }

    fn release(&self) {
        let mut n = self.inflight.lock(); // lock:acquire(Inflight)
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_one();
    }
}

/// What the idempotency window knows about a `(session, request-id)`.
enum IdemEntry {
    /// Executing right now; a duplicate is dropped (the original's
    /// reply is already on its way).
    Pending,
    /// Finished; a duplicate replays this response without executing.
    Done(Response),
}

/// Reader-side decision for an arriving envelope.
enum Admission {
    /// Never seen: execute it.
    Fresh,
    /// Currently executing: drop the duplicate.
    InFlight,
    /// Already executed: replay the stored response.
    Replay(Response),
}

/// Bounded map of recent pipelined request ids (default window
/// [`IDEM_WINDOW`]), aged out oldest-live-first.
///
/// The admission queue is *lazy*, the same tombstone discipline as
/// `sempair_core::cache::BoundedLru`: [`IdemCache::forget`] removes
/// only the map entry and leaves its queue slot behind as a stale
/// tombstone, and every entry carries the generation stamp of its
/// (single) live slot. Eviction pops slots until it finds one whose
/// stamp still matches a live entry, so a stale tombstone can never
/// take a *different* live entry down with it — the churn bug the
/// FIFO predecessor had, where a shed-and-retried request id left a
/// duplicate slot whose eviction removed the retry's live entry (a
/// completed request would then re-execute, breaking exactly-once)
/// and every leaked slot shrank the effective window.
struct IdemCache {
    /// `(session, req_id) → (generation, state)`. The window bound is
    /// measured against **live entries** (`entries.len()`), never
    /// against the queue length, which also counts tombstones.
    entries: HashMap<(u64, u64), (u64, IdemEntry)>,
    /// Admission order, oldest first. A slot is live iff the map entry
    /// for its key carries the same generation.
    order: VecDeque<(u64, (u64, u64))>,
    next_gen: u64,
    window: usize,
}

impl Default for IdemCache {
    fn default() -> Self {
        Self::with_window(IDEM_WINDOW)
    }
}

impl IdemCache {
    /// A cache remembering at most `window` live request ids (tests
    /// shrink the window to make eviction reachable).
    fn with_window(window: usize) -> Self {
        IdemCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            next_gen: 0,
            window: window.max(1),
        }
    }

    fn admit(&mut self, key: (u64, u64)) -> Admission {
        match self.entries.get(&key) {
            Some((_, IdemEntry::Pending)) => Admission::InFlight,
            Some((_, IdemEntry::Done(response))) => Admission::Replay(response.clone()),
            None => {
                while self.entries.len() >= self.window {
                    if !self.evict_oldest() {
                        break;
                    }
                }
                self.next_gen += 1;
                let gen = self.next_gen;
                self.order.push_back((gen, key));
                self.entries.insert(key, (gen, IdemEntry::Pending));
                self.compact_if_bloated();
                Admission::Fresh
            }
        }
    }

    /// Records the response for a finished request, *before* its reply
    /// frame can reach the client, so a retry racing the reply replays
    /// instead of re-executing.
    fn complete(&mut self, key: (u64, u64), response: Response) {
        if let Some((_, entry)) = self.entries.get_mut(&key) {
            *entry = IdemEntry::Done(response);
        }
    }

    /// Un-tracks a request that was shed (never executed), so its
    /// retry is admitted as fresh. The queue slot is left behind as a
    /// tombstone, skipped at eviction time by its stale generation.
    fn forget(&mut self, key: (u64, u64)) {
        self.entries.remove(&key);
    }

    /// Pops queue slots until one **live** entry has been evicted;
    /// `false` if the queue ran dry first. Tombstones (key forgotten,
    /// or re-admitted under a newer generation) are discarded without
    /// touching the map.
    fn evict_oldest(&mut self) -> bool {
        while let Some((gen, key)) = self.order.pop_front() {
            let live = self
                .entries
                .get(&key)
                .is_some_and(|(entry_gen, _)| *entry_gen == gen);
            if live {
                self.entries.remove(&key);
                return true;
            }
        }
        false
    }

    /// Rebuilds the queue when tombstones dominate, keeping its length
    /// within a small multiple of the live entry count — so a forget
    /// storm cannot grow the queue without bound.
    fn compact_if_bloated(&mut self) {
        if self.order.len() <= 2 * self.entries.len() + 8 {
            return;
        }
        let entries = &self.entries;
        self.order.retain(|(gen, key)| {
            entries
                .get(key)
                .is_some_and(|(entry_gen, _)| *entry_gen == *gen)
        });
    }
}

#[derive(Default)]
struct Inner {
    ibe: Sem,
    gdh: GdhSem,
    /// Per-identity (t, n) key shares this replica holds
    /// (`d_IDᵢ = f(i)·Q_ID`), served over op 5.
    shares: HashMap<String, IdKeyShare>,
    /// Revocation list for the share capability (the IBE/GDH halves
    /// keep their own lists inside [`Sem`]/[`GdhSem`]).
    revoked: HashSet<String>,
}

/// A running TCP SEM daemon.
pub struct TcpSemServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<TrackedMutex<Vec<JoinHandle<()>>>>,
    /// The pipelined crypto pool ([`ServerConfig::workers`] threads).
    pool_workers: Vec<JoinHandle<()>>,
}

/// Reconnect/retry/deadline knobs for [`TcpSemClient`].
///
/// A zero duration disables that deadline.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing (or re-establishing) the connection.
    pub connect_timeout: Duration,
    /// Socket deadline applied to each request's write and read.
    pub request_timeout: Duration,
    /// Transparent re-sends after a transport failure (`0` fails
    /// fast). Requests are pure functions of their bytes — the SEM
    /// computes the same token twice — so re-sending is safe.
    pub max_retries: u32,
    /// Ceiling of the full-jitter backoff before the first retry;
    /// doubles per attempt (the actual delay is drawn uniformly below
    /// the ceiling — see `backoff_delay`).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the backoff-jitter DRBG. `None` (the default) seeds
    /// from the stub's random session id, so every client jitters
    /// differently; tests pin it to make retry schedules reproducible.
    pub backoff_seed: Option<u64>,
    /// Budget of extra re-sends when the SEM sheds with
    /// [`Status::Overloaded`]: the stub waits out the server's
    /// retry-after hint (or its jittered backoff, whichever is
    /// longer) and re-sends under the same `(session, req_id)` key.
    /// `0` surfaces the refusal to the caller immediately.
    pub overload_retries: u32,
    /// Speak protocol v2: wrap every request in a pipelined envelope
    /// tagged `(session, req_id)`, making retries idempotent on the
    /// server and letting many stubs share one connection without
    /// head-of-line coupling. Disable to interoperate with pre-v2
    /// daemons (plain v1 frames, one request in flight).
    pub pipelined: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            backoff_seed: None,
            overload_retries: 0,
            pipelined: true,
        }
    }
}

/// Client-side resilience counters (see [`TcpSemClient::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests re-sent after a transport failure.
    pub retries: u64,
    /// Connections re-established after the initial connect.
    pub reconnects: u64,
    /// Requests re-sent after the SEM shed them with
    /// [`Status::Overloaded`] (bounded by
    /// [`ClientConfig::overload_retries`]).
    pub overload_retries: u64,
}

/// A client stub (one TCP connection, reusable for many requests,
/// self-healing across transport faults per its [`ClientConfig`]).
pub struct TcpSemClient {
    addrs: Vec<SocketAddr>,
    stream: Option<TcpStream>,
    params: IbePublicParams,
    config: ClientConfig,
    stats: ClientStats,
    /// Random session tag; with `next_req_id` it keys the server's
    /// idempotency window, so a retry of the same logical request
    /// (same id) replays instead of re-executing.
    session: u64,
    next_req_id: u64,
    /// Backoff-jitter DRBG (see `backoff_delay`); seeded from
    /// [`ClientConfig::backoff_seed`] or the random session id.
    jitter: HmacDrbgRng,
}

/// Reads one length-prefixed frame payload; `Ok(None)` on clean EOF.
///
/// Uses whatever read deadline is already set on the socket (the
/// client's per-request deadline; none in tests that probe raw
/// sockets).
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > proto::MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Server-side frame read under two deadlines: `idle` bounds the wait
/// for the length prefix, `read` the wait for the rest of the frame.
fn read_frame_deadlines(
    stream: &mut TcpStream,
    idle: Duration,
    read: Duration,
) -> std::io::Result<Option<Vec<u8>>> {
    set_read_deadline(stream, idle)?;
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > proto::MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    set_read_deadline(stream, read)?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn set_read_deadline(stream: &TcpStream, deadline: Duration) -> std::io::Result<()> {
    stream.set_read_timeout((!deadline.is_zero()).then_some(deadline))
}

/// `true` for the error kinds an expired `SO_RCVTIMEO`/`SO_SNDTIMEO`
/// produces (platform-dependent: `WouldBlock` on Unix, `TimedOut` on
/// Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Readies a freshly accepted or connected socket for the frame
/// protocol: blocking mode (accepted sockets may inherit the
/// listener's non-blocking flag) and `TCP_NODELAY`. Every frame leaves
/// in one `write_all`, so Nagle's algorithm has nothing to merge; it
/// would only hold a reply until the peer acknowledged the previous
/// one, and a peer delaying its ACK stalls that reply for up to 40 ms
/// on Linux. Every daemon, client and proxy socket goes through here
/// (DESIGN.md §8).
pub(crate) fn prepare_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)
}

impl TcpSemServer {
    /// Binds and starts serving with default deadlines. Use addr
    /// `"127.0.0.1:0"` to let the OS pick a port (see
    /// [`TcpSemServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, params: IbePublicParams) -> std::io::Result<Self> {
        Self::bind_with(addr, params, ServerConfig::default())
    }

    /// [`TcpSemServer::bind`] with explicit deadline/admission knobs.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        params: IbePublicParams,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, params, config, None)
    }

    /// [`TcpSemServer::bind_with`] plus a durable revocation journal:
    /// the append-only log at `journal_path` is replayed before the
    /// listener opens (revoked identities from previous runs refuse
    /// requests from the very first frame), and every subsequent
    /// [`revoke`](Self::revoke)/[`unrevoke`](Self::unrevoke) is
    /// appended to it. Returns the replayed state so callers can see
    /// how much history survived (and whether a torn tail was
    /// truncated).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and journal open/replay I/O errors.
    pub fn bind_with_journal(
        addr: impl ToSocketAddrs,
        params: IbePublicParams,
        config: ServerConfig,
        journal_path: impl AsRef<Path>,
    ) -> std::io::Result<(Self, ReplayedState)> {
        let (journal, replayed) = Journal::open(journal_path)?;
        let server = Self::bind_inner(addr, params, config, Some(journal))?;
        for id in &replayed.revoked {
            let mut inner = server.shared.shard(id).write(); // lock:acquire(Shard)
            inner.ibe.revoke(id);
            inner.gdh.revoke(id);
            inner.revoked.insert(id.clone());
        }
        // Warm-start the precompute tier from the journaled hot set:
        // the parameter-only entries (Q_ID, mask base) can be built
        // right now; half-keys are warmed when their key material
        // arrives (`install_ibe`), keyed off the same warm set.
        if server.shared.config.cache_warm && server.shared.tier.enabled() {
            let mut warm = server.shared.warm.lock(); // lock:acquire(Warm)
            for id in replayed.warm.iter().take(server.shared.config.cache_cap) {
                warm.insert(id.clone());
                server.shared.tier.warm_params(&server.shared.params, id);
            }
        }
        Ok((server, replayed))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        params: IbePublicParams,
        config: ServerConfig,
        journal: Option<Journal>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Poll-based accept loop: see ACCEPT_POLL.
        listener.set_nonblocking(true)?;
        // lock:class(Shard)
        let shards = (0..config.shards.max(1))
            .map(|_| TrackedRwLock::new(LockClass::Shard, Inner::default()))
            .collect();
        let cache_cap = config.cache_cap;
        let shared = Arc::new(Shared {
            params,
            shards,
            shutdown: AtomicBool::new(false),
            audit: AuditLog::with_config(config.audit.clone()),
            config,
            // lock:class(Conns)
            conns: TrackedMutex::new(LockClass::Conns, HashMap::new()),
            live: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            // lock:class(Journal)
            journal: TrackedMutex::new(LockClass::Journal, journal),
            pool: PoolQueue::default(),
            // lock:class(Idem)
            idem: TrackedMutex::new(LockClass::Idem, IdemCache::default()),
            tier: crate::cache::CacheTier::new(cache_cap),
            // lock:class(Warm)
            warm: TrackedMutex::new(LockClass::Warm, HashSet::new()),
        });
        let pool_workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let worker_shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&worker_shared))
            })
            .collect();
        // lock:class(Handlers)
        let handlers = Arc::new(TrackedMutex::new(LockClass::Handlers, Vec::new()));
        let acceptor_shared = Arc::clone(&shared);
        let acceptor_handlers = Arc::clone(&handlers);
        let acceptor = std::thread::spawn(move || loop {
            if acceptor_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    accept_connection(&acceptor_shared, &acceptor_handlers, stream, peer);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                // Transient accept failure (EMFILE, aborted handshake…):
                // keep serving.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        });
        Ok(TcpSemServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            handlers,
            pool_workers,
        })
    }

    /// The bound address (for clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open (the `max_connections` gauge).
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Installs an IBE half-key (on its identity's shard). Any cached
    /// prepared half-key for the identity is invalidated under the
    /// same write lock (a re-install must never serve stale Miller
    /// lines); if the identity is in the journaled warm set, the new
    /// key is prepared into the cache right here.
    pub fn install_ibe(&self, key: SemKey) {
        let id = key.id.clone();
        // Warm-set membership is read *before* the shard lock: Warm
        // ranks before Shard in the declared class table
        // ([`LockClass::rank`]), enforced by the lockdep layer.
        // Racing a concurrent note_warm at worst skips the eager
        // warm; the first request then populates the cache.
        let warm_start = self.shared.tier.enabled() && self.shared.warm.lock().contains(&id);
        let mut inner = self.shared.shard(&id).write(); // lock:acquire(Shard)
        inner.ibe.install(key);
        self.shared.tier.invalidate(&id);
        if warm_start {
            inner
                .ibe
                .warm_prepared(&self.shared.params, &id, self.shared.tier.half_keys());
        }
    }

    /// Installs a GDH half-key (on its identity's shard).
    pub fn install_gdh(&self, key: GdhSemKey) {
        self.shared.shard(&key.id).write().gdh.install(key);
    }

    /// Installs this replica's (t, n) key share for one identity,
    /// served over the token-share wire op.
    pub fn install_token_share(&self, share: IdKeyShare) {
        self.shared
            .shard(&share.id)
            .write()
            .shares
            .insert(share.id.clone(), share);
    }

    /// Revokes an identity across all capabilities (instant). When the
    /// daemon carries a journal, the revocation is appended to it
    /// before taking effect, so it survives a crash/restart. Only the
    /// identity's own shard takes the write lock: requests for other
    /// shards keep reading undisturbed.
    pub fn revoke(&self, id: &str) {
        if let Some(journal) = self.shared.journal.lock().as_mut() {
            let _ = journal.append(&Record::Revoke(id.to_string()));
        }
        let mut inner = self.shared.shard(id).write(); // lock:acquire(Shard)
        inner.ibe.revoke(id);
        inner.gdh.revoke(id);
        inner.revoked.insert(id.to_string());
        // Still under the shard write lock: no request thread can
        // observe the revocation without also observing the cache
        // invalidation (DESIGN.md §14, revocation coherence).
        self.shared.tier.invalidate(id);
    }

    /// Reinstates an identity (journaled like [`revoke`](Self::revoke)).
    pub fn unrevoke(&self, id: &str) {
        if let Some(journal) = self.shared.journal.lock().as_mut() {
            let _ = journal.append(&Record::Unrevoke(id.to_string()));
        }
        let mut inner = self.shared.shard(id).write(); // lock:acquire(Shard)
        inner.ibe.unrevoke(id);
        inner.gdh.unrevoke(id);
        inner.revoked.remove(id);
    }

    /// Aggregate audit statistics for one identity.
    pub fn audit_stats(&self, id: &str) -> crate::audit::IdentityStats {
        self.shared.audit.stats_for(id)
    }

    /// Total bytes the daemon has returned to clients.
    pub fn audit_bytes_out(&self) -> u64 {
        self.shared.audit.total_bytes_out()
    }

    /// Transport counters: single-vs-batched traffic plus the fault
    /// counters (deadline disconnects, refused connections).
    pub fn audit_transport(&self) -> crate::audit::TransportStats {
        self.shared.audit.transport_stats()
    }

    /// Retained audit records (bounded by the configured ring cap).
    pub fn audit_len(&self) -> usize {
        self.shared.audit.len()
    }

    /// Serializable point-in-time metrics view — what the `stats` wire
    /// op (and `sempair stats`) returns, including the precompute
    /// tier's cache counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// The precompute tier's per-cache counters (hits, misses,
    /// evictions, occupancy, resident weight), sorted by cache name.
    pub fn cache_stats(&self) -> Vec<crate::audit::CacheSeries> {
        self.shared.tier.stats()
    }

    /// Stops the acceptor, force-closes every live connection, and
    /// joins every handler thread: when this returns, no thread of the
    /// daemon is running and no socket is open.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop()
    }

    fn stop(&mut self) -> DrainReport {
        // Snapshot the gauge *before* raising the flag: handlers that
        // happen to be between frames notice the flag and drain
        // themselves (removing their own registry entry), and they
        // must still be counted as connections this shutdown closed.
        let connections_closed = self.shared.live.load(Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The acceptor polls, so it notices the flag within ACCEPT_POLL
        // without any self-connect nudge.
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Force-close surviving sockets so handlers blocked in read or
        // write return immediately instead of waiting out a deadline.
        let live: Vec<TcpStream> = self.shared.conns.lock().drain().map(|(_, s)| s).collect();
        for stream in &live {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Drain the crypto pool: wake idle workers so they observe the
        // flag, join them, then drop whatever was still queued. The
        // dropped jobs release their writer senders, which is what
        // lets the per-connection writer threads (joined by their
        // readers below) run out and exit.
        self.shared.pool.ready.notify_all();
        for handle in self.pool_workers.drain(..) {
            let _ = handle.join();
        }
        {
            let mut state = self.shared.pool.state.lock(); // lock:acquire(Pool)
            state.tokens.clear();
            state.signs.clear();
        }
        let handles: Vec<JoinHandle<()>> = self.handlers.lock().drain(..).collect();
        let handlers_joined = handles.len();
        for handle in handles {
            let _ = handle.join();
        }
        DrainReport {
            connections_closed,
            handlers_joined,
        }
    }
}

impl Drop for TcpSemServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Admits (or refuses) one accepted socket and spawns its handler.
fn accept_connection(
    shared: &Arc<Shared>,
    handlers: &Arc<TrackedMutex<Vec<JoinHandle<()>>>>,
    stream: TcpStream,
    peer: SocketAddr,
) {
    if shared.live.load(Ordering::SeqCst) >= shared.config.max_connections {
        shared.audit.note_refused_conn(&peer.to_string());
        // Dropping the socket closes it before any request is read.
        return;
    }
    if prepare_stream(&stream).is_err() {
        return;
    }
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    shared.live.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().insert(conn_id, clone);
    }
    let conn_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        let _ = serve_connection(stream, &conn_shared);
        conn_shared.conns.lock().remove(&conn_id);
        conn_shared.live.fetch_sub(1, Ordering::SeqCst);
    });
    let mut handlers = handlers.lock(); // lock:acquire(Handlers)
                                        // Reap finished handlers so the vec stays bounded by the number of
                                        // *live* connections on a long-running daemon.
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            let _ = handlers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    handlers.push(handle);
}

/// Handles one client connection until EOF, deadline expiry, or
/// shutdown: a frame **reader** that serves plain v1 frames inline and
/// fans pipelined envelopes out to the worker pool, plus (once the
/// first envelope arrives) a dedicated **writer** thread that owns all
/// writes to the socket.
fn serve_connection(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_write_timeout(
        (!shared.config.write_timeout.is_zero()).then_some(shared.config.write_timeout),
    )?;
    let mut writer: Option<ConnWriter> = None;
    let result = read_frames(&mut stream, shared, &mut writer);
    if let Some(writer) = writer {
        writer.join();
    }
    result
}

/// The reader half of [`serve_connection`].
fn read_frames(
    stream: &mut TcpStream,
    shared: &Shared,
    writer: &mut Option<ConnWriter>,
) -> std::io::Result<()> {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match read_frame_deadlines(
            stream,
            shared.config.idle_timeout,
            shared.config.read_timeout,
        ) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                // Idle or mid-frame deadline expired: disconnect the
                // peer and account for it.
                shared.audit.note_timeout();
                let _ = stream.shutdown(Shutdown::Both);
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        match proto::decode_request(&payload) {
            Some(request) if request.op == Op::Pipelined => {
                match proto::decode_pipelined_body(&request.body) {
                    // An envelope that does not parse is answered with
                    // a *plain* Invalid — there is no request id to
                    // tag a reply with — and the connection survives.
                    None => send_plain(
                        stream,
                        writer.as_ref(),
                        &Response {
                            status: Status::Invalid,
                            body: vec![],
                        },
                    )?,
                    Some(env) => {
                        let sink = match writer {
                            Some(sink) => sink,
                            None => writer
                                .insert(ConnWriter::spawn(stream, shared.config.pipeline_depth)?),
                        };
                        admit_envelope(env, sink, shared);
                    }
                }
            }
            decoded => {
                // The v1 path: undecodable frames answer Invalid,
                // everything else is served inline, right here on the
                // reader thread — exactly the pre-pipelining daemon.
                let response = match decoded {
                    None => Response {
                        status: Status::Invalid,
                        body: vec![],
                    },
                    Some(request) => handle_request(&request, shared),
                };
                send_plain(stream, writer.as_ref(), &response)?;
            }
        }
    }
}

/// Sends a plain (non-enveloped) response, through the writer thread
/// when one exists so frames never interleave, inline otherwise.
fn send_plain(
    stream: &mut TcpStream,
    writer: Option<&ConnWriter>,
    response: &Response,
) -> std::io::Result<()> {
    let frame = proto::encode_response(response);
    // A response that cannot fit the protocol (a pathological
    // batch reply) is replaced by an empty Invalid instead of
    // emitting a frame the client must tear the connection on.
    let frame = if frame.len() > 4 + proto::MAX_FRAME {
        proto::encode_response(&Response {
            status: Status::Invalid,
            body: vec![],
        })
    } else {
        frame
    };
    match writer {
        Some(sink) => {
            // A send can only fail if the writer died on a torn
            // socket; the reader will observe the same tear shortly.
            let _ = sink.tx.send(frame);
            Ok(())
        }
        None => stream.write_all(&frame),
    }
}

/// The per-connection writer: a channel of pre-encoded frames drained
/// by one thread that owns the socket's write half, plus the in-flight
/// gate shared with the pool.
struct ConnWriter {
    tx: channel::Sender<Vec<u8>>,
    gate: Arc<FlightGate>,
    handle: JoinHandle<()>,
}

impl ConnWriter {
    fn spawn(stream: &TcpStream, pipeline_depth: usize) -> std::io::Result<Self> {
        let mut out = stream.try_clone()?;
        let (tx, rx) = channel::unbounded::<Vec<u8>>();
        let handle = std::thread::spawn(move || {
            while let Ok(frame) = rx.recv() {
                if out.write_all(&frame).is_err() {
                    // Torn socket: drain remaining frames into the
                    // void so no sender ever blocks, then exit when
                    // they all hang up.
                    while rx.recv().is_ok() {}
                    return;
                }
            }
        });
        Ok(ConnWriter {
            tx,
            gate: Arc::new(FlightGate::new(pipeline_depth)),
            handle,
        })
    }

    /// Hangs up the channel and joins the thread. Pool jobs still in
    /// flight hold sender clones, so this waits for their replies to
    /// drain (or be dropped at shutdown) — the writer never outlives a
    /// frame that was promised to it.
    fn join(self) {
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// Reader-side admission of one decoded envelope: idempotency window,
/// in-flight gate, then the bounded pool queue (shedding with
/// [`Status::Overloaded`] when full).
fn admit_envelope(env: PipelinedRequest, sink: &ConnWriter, shared: &Shared) {
    let key = (env.session, env.req_id);
    let admission = shared.idem.lock().admit(key);
    match admission {
        // A duplicate of a request that is executing right now: its
        // reply is already on the way; answering twice would desync
        // the stream.
        Admission::InFlight => {}
        // A retry of a finished request: replay the recorded response
        // without executing (or auditing) it again.
        Admission::Replay(response) => {
            let _ = sink
                .tx
                .send(proto::encode_pipelined_response(env.req_id, &response));
        }
        Admission::Fresh => {
            if !sink.gate.acquire(&shared.shutdown) {
                // Shutting down; the socket is about to close anyway.
                shared.idem.lock().forget(key);
                return;
            }
            let job = WireJob {
                env,
                reply: sink.tx.clone(),
                gate: Arc::clone(&sink.gate),
            };
            if let Some((job, depth)) = shared.enqueue(job) {
                // Queue full (or past the brownout watermark for
                // Stats/Batch): shed. The request was NOT executed, so
                // un-track its id — a later retry must run fresh.
                job.gate.release();
                shared.idem.lock().forget(key);
                let capability = if job.env.inner.op == Op::GdhHalfSign {
                    Capability::GdhSign
                } else {
                    Capability::IbeDecrypt
                };
                shared.audit.record(
                    &job.env.inner.id,
                    capability,
                    Outcome::RefusedOverload,
                    0,
                    Duration::ZERO,
                );
                let hint = retry_after_hint_ms(depth, shared.config.queue_cap.max(1));
                let _ = job.reply.send(proto::encode_pipelined_response(
                    job.env.req_id,
                    &Response {
                        status: Status::Overloaded,
                        body: proto::encode_retry_after(hint),
                    },
                ));
            }
        }
    }
}

/// One pool worker: drains up to [`TOKEN_BURST`] token-class jobs plus
/// at most one signing job per cycle, executes them against the
/// sharded state, records idempotency, and routes each reply to its
/// connection's writer.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = shared.pool.state.lock(); // lock:acquire(Pool)
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !state.tokens.is_empty() || !state.signs.is_empty() {
                    break;
                }
                let _ = state.wait_timeout(&shared.pool.ready, POOL_POLL);
            }
            let mut batch = Vec::new();
            while batch.len() < TOKEN_BURST {
                match state.tokens.pop_front() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
            drop(state);
            // Cache-aware scheduling: run the burst's token jobs
            // grouped by identity (stable in first-arrival order), so
            // consecutive jobs for one identity hit the precompute
            // tier back-to-back instead of interleaving identities
            // and churning the half-key LRU.
            let mut batch = group_by_identity(batch);
            let mut state = shared.pool.state.lock(); // lock:acquire(Pool)
            if let Some(job) = state.signs.pop_front() {
                batch.push(job);
            }
            batch
        };
        for job in batch {
            execute_job(job, shared);
        }
    }
}

/// Stable identity grouping for a drained token burst: jobs keep
/// their arrival order *between* identities (first occurrence wins)
/// and *within* an identity, so replies stay causally ordered per
/// client while same-identity work runs contiguously.
fn group_by_identity(jobs: Vec<WireJob>) -> Vec<WireJob> {
    if jobs.len() < 3 {
        return jobs;
    }
    let mut order: Vec<String> = Vec::new();
    let mut buckets: HashMap<String, Vec<WireJob>> = HashMap::new();
    for job in jobs {
        match buckets.get_mut(&job.env.inner.id) {
            Some(bucket) => bucket.push(job),
            None => {
                let id = job.env.inner.id.clone();
                order.push(id.clone());
                buckets.insert(id, vec![job]);
            }
        }
    }
    let mut grouped = Vec::new();
    for id in order {
        if let Some(bucket) = buckets.remove(&id) {
            grouped.extend(bucket);
        }
    }
    grouped
}

/// Executes one pipelined job end to end.
fn execute_job(job: WireJob, shared: &Shared) {
    let response = handle_request(&job.env.inner, shared);
    // Record Done *before* the reply frame can reach the client: a
    // retry racing the reply must replay, never execute twice.
    shared
        .idem
        .lock()
        .complete((job.env.session, job.env.req_id), response.clone());
    let frame = proto::encode_pipelined_response(job.env.req_id, &response);
    let frame = if frame.len() > 4 + proto::MAX_FRAME {
        proto::encode_pipelined_response(
            job.env.req_id,
            &Response {
                status: Status::Invalid,
                body: vec![],
            },
        )
    } else {
        frame
    };
    let _ = job.reply.send(frame);
    job.gate.release();
}

fn handle_request(request: &Request, shared: &Shared) -> Response {
    match request.op {
        Op::Batch => match proto::decode_batch_items(&request.body) {
            // Like an undecodable frame, an undecodable batch body is
            // answered without an audit record — there is no item to
            // attribute it to.
            None => Response {
                status: Status::Invalid,
                body: vec![],
            },
            Some(items) => handle_batch(&items, shared),
        },
        // An operator metrics pull, not a user request: answered from
        // the audit log itself and (deliberately) not audited, so
        // polling a dashboard never perturbs the numbers it reads.
        Op::Stats => Response {
            status: Status::Ok,
            body: shared.snapshot().to_prometheus_text().into_bytes(),
        },
        op => {
            let started = Instant::now();
            let (capability, response) = if op == Op::TokenShare {
                let response = serve_token_share(&request.id, &request.body, shared);
                (Capability::IbeDecrypt, response)
            } else {
                let inner = shared.shard(&request.id).read(); // lock:acquire(Shard)
                serve_item(op, &request.id, &request.body, shared, &inner)
            };
            // The shard read lock is dropped first: note_warm takes
            // the Warm and Journal classes, which rank before Shard
            // in the declared lock order.
            if op == Op::IbeToken && response.status == Status::Ok {
                shared.note_warm(&request.id);
            }
            shared.audit.record(
                &request.id,
                capability,
                outcome_for(response.status),
                response.body.len(),
                started.elapsed(),
            );
            response
        }
    }
}

/// Serves a whole decoded batch, taking each item's shard read lock
/// individually (items may land on different shards), and wraps the
/// per-item responses into one ok-frame.
fn handle_batch(items: &[Request], shared: &Shared) -> Response {
    let served: Vec<(Capability, Response, Duration)> = items
        .iter()
        .map(|item| {
            let started = Instant::now();
            let (capability, response) = {
                let inner = shared.shard(&item.id).read(); // lock:acquire(Shard)
                serve_item(item.op, &item.id, &item.body, shared, &inner)
            };
            (capability, response, started.elapsed())
        })
        .collect();
    shared.audit.note_batch(items.len());
    for (item, (_, response, _)) in items.iter().zip(&served) {
        if item.op == Op::IbeToken && response.status == Status::Ok {
            shared.note_warm(&item.id);
        }
    }
    for (item, (capability, response, latency)) in items.iter().zip(&served) {
        shared.audit.record_batched(
            &item.id,
            *capability,
            outcome_for(response.status),
            response.body.len(),
            *latency,
        );
    }
    let replies: Vec<Response> = served
        .into_iter()
        .map(|(_, response, _)| response)
        .collect();
    Response {
        status: Status::Ok,
        body: proto::encode_batch_replies(&replies),
    }
}

/// Serves one op-1/op-2 request against an already-acquired lock guard
/// (shared by the single path and every batch item).
fn serve_item(
    op: Op,
    id: &str,
    body: &[u8],
    shared: &Shared,
    inner: &Inner,
) -> (Capability, Response) {
    let params = &shared.params;
    match op {
        Op::IbeToken => {
            // `U` is decoded onto the curve but not checked for
            // membership: the token pairs it on the non-Miller side,
            // which ignores its torsion (DESIGN §14). With the tier
            // enabled the token comes from the cached prepared half-key
            // (byte-identical, proven in sempair-core's mediated
            // tests); disabled, from the plain pairing.
            let prepared = shared.tier.enabled().then(|| shared.tier.half_keys());
            let response = match inner.ibe.decrypt_token_encoded(params, id, body, prepared) {
                Ok(token) => Response {
                    status: Status::Ok,
                    body: params.curve().gt_to_bytes(&token.0),
                },
                Err(e) => Response {
                    status: Status::from_error(&e),
                    body: vec![],
                },
            };
            (Capability::IbeDecrypt, response)
        }
        Op::GdhHalfSign => {
            let response = match inner.gdh.half_sign(params.curve(), id, body) {
                Ok(half) => Response {
                    status: Status::Ok,
                    body: params.curve().point_to_bytes(&half.0),
                },
                Err(e) => Response {
                    status: Status::from_error(&e),
                    body: vec![],
                },
            };
            (Capability::GdhSign, response)
        }
        Op::TokenShare => unreachable!("token shares are served by serve_token_share"),
        Op::Batch => unreachable!("nested batches are rejected at decode"),
        Op::Stats => unreachable!("stats is handled before item dispatch"),
        Op::Pipelined => unreachable!("envelopes are unwrapped before item dispatch"),
    }
}

/// Serves one op-5 request: this replica's robust partial token.
///
/// The share costs several pairings, so only the revocation check and
/// the key-share lookup run under the shard read lock. A revocation on
/// the same shard then never waits for a share computation; a request
/// that passed the check is ordered before the revocation, as it would
/// be had the revocation queued behind the lock.
fn serve_token_share(id: &str, body: &[u8], shared: &Shared) -> Response {
    let params = &shared.params;
    let reply = |status| Response {
        status,
        body: vec![],
    };
    let Ok(u) = params.curve().point_from_bytes(body) else {
        return reply(Status::Invalid);
    };
    let share = {
        let inner = shared.shard(id).read(); // lock:acquire(Shard)
        if inner.revoked.contains(id) {
            return reply(Status::Revoked);
        }
        inner.shares.get(id).cloned()
    };
    let Some(share) = share else {
        return reply(Status::Unknown);
    };
    let mut rng = StdRng::from_entropy();
    let partial = threshold::robust_decryption_share(params.curve(), &mut rng, &share, &u);
    Response {
        status: Status::Ok,
        body: threshold::decryption_share_to_bytes(params.curve(), &partial),
    }
}

/// Maps a wire status onto an audit outcome.
fn outcome_for(status: Status) -> Outcome {
    match status {
        Status::Ok => Outcome::Served,
        Status::Revoked => Outcome::RefusedRevoked,
        Status::Unknown => Outcome::RefusedUnknown,
        Status::Invalid => Outcome::RefusedInvalid,
        Status::Overloaded => Outcome::RefusedOverload,
    }
}

/// Retry-after hint (milliseconds) for a shed request: grows with
/// queue fullness, so the deeper the overload the further out the
/// server spreads the retries it is inviting.
fn retry_after_hint_ms(depth: usize, cap: usize) -> u32 {
    let cap = cap.max(1);
    let depth = depth.min(cap);
    // 10 ms at an empty queue up to 100 ms at a full one; u32-safe
    // because depth/cap are clamped and the ratio is ≤ 1.
    (10 + (90 * depth as u64 / cap as u64)) as u32
}

/// Full-jitter bounded exponential backoff: uniform in
/// `[0, min(cap, base · 2^attempt)]`.
///
/// The *ceiling* doubles per attempt and the delay is drawn uniformly
/// below it, so a fleet of clients cut off by one replica restart
/// de-synchronizes instead of reconnecting in lockstep (the
/// thundering-herd fix). The draw comes from the client's DRBG:
/// deterministic per seed for tests, distinct per session in
/// production.
fn backoff_delay(
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: &mut impl rand::RngCore,
) -> Duration {
    let ceiling = base
        .checked_mul(1u32 << attempt.min(16))
        .unwrap_or(cap)
        .min(cap);
    let nanos = ceiling.as_nanos().min(u128::from(u64::MAX)) as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    // Modulo bias is ≤ 2⁻⁶⁴·nanos — irrelevant for scheduling delays.
    Duration::from_nanos(rng.next_u64() % nanos.saturating_add(1))
}

impl TcpSemClient {
    /// Connects to a running daemon with default resilience knobs.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the initial connect.
    pub fn connect(addr: impl ToSocketAddrs, params: IbePublicParams) -> std::io::Result<Self> {
        Self::connect_with(addr, params, ClientConfig::default())
    }

    /// [`TcpSemClient::connect`] with explicit retry/deadline knobs.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the initial connect.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        params: IbePublicParams,
        config: ClientConfig,
    ) -> std::io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut rng = StdRng::from_entropy();
        let session = rng.next_u64();
        let jitter_seed = config.backoff_seed.unwrap_or(session);
        let mut client = TcpSemClient {
            addrs,
            stream: None,
            params,
            config,
            stats: ClientStats::default(),
            session,
            next_req_id: 1,
            jitter: HmacDrbgRng::new(&jitter_seed.to_be_bytes()),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Cumulative retry/reconnect counters for this stub.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// (Re-)establishes the connection and applies the per-request
    /// socket deadlines.
    fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = None;
        let mut last: Option<std::io::Error> = None;
        for addr in &self.addrs {
            let attempt = if self.config.connect_timeout.is_zero() {
                TcpStream::connect(addr)
            } else {
                TcpStream::connect_timeout(addr, self.config.connect_timeout)
            };
            match attempt {
                Ok(stream) => {
                    prepare_stream(&stream)?;
                    let deadline = (!self.config.request_timeout.is_zero())
                        .then_some(self.config.request_timeout);
                    stream.set_read_timeout(deadline)?;
                    stream.set_write_timeout(deadline)?;
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::AddrNotAvailable, "no addresses to connect to")
        }))
    }

    /// One write/read round trip over the current connection,
    /// reconnecting first if it is torn. `Ok(None)` means the response
    /// frame arrived but did not decode.
    fn exchange_once(&mut self, frame: &[u8]) -> std::io::Result<Option<Response>> {
        if self.stream.is_none() {
            self.reconnect()?;
            self.stats.reconnects += 1;
        }
        let Some(stream) = self.stream.as_mut() else {
            // `reconnect` either filled the slot or returned Err above;
            // fail closed instead of panicking mid-request.
            return Err(std::io::Error::new(
                ErrorKind::NotConnected,
                "no connection after reconnect",
            ));
        };
        stream.write_all(frame)?;
        let payload = read_frame(stream)?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-exchange")
        })?;
        Ok(proto::decode_response(&payload))
    }

    /// One pipelined round trip: writes the enveloped frame, then reads
    /// until the reply tagged `req_id` arrives (stale replies to
    /// abandoned requests are skipped). `Ok(None)` means an intact
    /// frame arrived but did not decode.
    fn exchange_once_pipelined(
        &mut self,
        frame: &[u8],
        req_id: u64,
    ) -> std::io::Result<Option<Response>> {
        if self.stream.is_none() {
            self.reconnect()?;
            self.stats.reconnects += 1;
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(std::io::Error::new(
                ErrorKind::NotConnected,
                "no connection after reconnect",
            ));
        };
        stream.write_all(frame)?;
        loop {
            let payload = read_frame(stream)?.ok_or_else(|| {
                std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-exchange")
            })?;
            let Some(outer) = proto::decode_response(&payload) else {
                return Ok(None);
            };
            if outer.status == Status::Ok {
                if let Some((got, inner)) = proto::decode_pipelined_reply(&outer.body) {
                    if got == req_id {
                        return Ok(Some(inner));
                    }
                    // A reply to a request abandoned on an earlier
                    // attempt over this same connection: skip it.
                    continue;
                }
            }
            // A plain v1 response (a refusal for an undecodable frame,
            // or a pre-v2 daemon): with one request outstanding it can
            // only be ours.
            return Ok(Some(outer));
        }
    }

    /// Sends one request, transparently retrying through transport
    /// faults per the [`ClientConfig`].
    ///
    /// On the pipelined path the request id is allocated **once** per
    /// logical request, so every retry carries the same `(session,
    /// req_id)` key and the SEM replays rather than re-executes; on the
    /// v1 path requests are idempotent because the SEM computes the
    /// same answer for the same bytes.
    fn exchange(&mut self, request: &Request) -> Result<Response, Error> {
        let (frame, req_id) = if self.config.pipelined {
            let req_id = self.next_req_id;
            self.next_req_id = self.next_req_id.wrapping_add(1);
            let frame = proto::encode_pipelined_request(&proto::PipelinedRequest {
                session: self.session,
                req_id,
                inner: request.clone(),
            })?;
            (frame, Some(req_id))
        } else {
            (proto::encode_request(request)?, None)
        };
        let mut attempt: u32 = 0;
        let mut overload_attempt: u32 = 0;
        loop {
            let outcome = match req_id {
                Some(req_id) => self.exchange_once_pipelined(&frame, req_id),
                None => self.exchange_once(&frame),
            };
            match outcome {
                // A shed request was NOT executed (the server forgets
                // its idempotency key), so re-sending is safe; wait
                // out the server's typed retry-after hint — or our own
                // jittered backoff, whichever is longer — then re-send
                // under the same key.
                Ok(Some(response))
                    if response.status == Status::Overloaded
                        && overload_attempt < self.config.overload_retries =>
                {
                    let hint = proto::decode_retry_after(&response.body)
                        .map(u64::from)
                        .map_or(Duration::ZERO, Duration::from_millis);
                    let backoff = backoff_delay(
                        self.config.backoff_base,
                        self.config.backoff_cap,
                        overload_attempt,
                        &mut self.jitter,
                    );
                    std::thread::sleep(hint.max(backoff));
                    self.stats.overload_retries += 1;
                    overload_attempt += 1;
                }
                Ok(Some(response)) => return Ok(response),
                // An intact frame that fails to decode is a protocol
                // error, not a transport fault — retrying won't help.
                Ok(None) => return Err(Error::InvalidCiphertext),
                Err(_) if attempt < self.config.max_retries => {
                    self.stream = None;
                    self.stats.retries += 1;
                    std::thread::sleep(backoff_delay(
                        self.config.backoff_base,
                        self.config.backoff_cap,
                        attempt,
                        &mut self.jitter,
                    ));
                    attempt += 1;
                }
                Err(_) => {
                    // Leave the stub reusable: the next request starts
                    // from a fresh reconnect.
                    self.stream = None;
                    return Err(Error::Transport);
                }
            }
        }
    }

    /// Requests a mediated-IBE decryption token over the wire.
    ///
    /// # Errors
    ///
    /// SEM-side refusals mapped back ([`Error::Revoked`] etc.);
    /// [`Error::Transport`] once the retry budget is exhausted;
    /// [`Error::FrameTooLarge`] if the request cannot be encoded.
    pub fn ibe_token(&mut self, id: &str, u: &G1Affine) -> Result<DecryptToken, Error> {
        let request = Request {
            op: Op::IbeToken,
            id: id.to_string(),
            body: self.params.curve().point_to_bytes(u),
        };
        let response = self.exchange(&request)?;
        if let Some(err) = response.status.to_error() {
            return Err(err);
        }
        self.params
            .curve()
            .gt_from_bytes(&response.body)
            .map(DecryptToken)
            .map_err(|_| Error::InvalidCiphertext)
    }

    /// Requests a (t, n) partial decryption token — one replica's
    /// `ê(U, d_IDᵢ)` with its robustness proof — over the wire.
    ///
    /// The returned share is shape-validated only; callers must check
    /// it against the replica's verification key
    /// ([`sempair_core::threshold::ThresholdSystem::verify_decryption_share`])
    /// before trusting it.
    ///
    /// # Errors
    ///
    /// Same contract as [`TcpSemClient::ibe_token`]; a malformed share
    /// body as [`Error::InvalidCiphertext`].
    pub fn token_share(&mut self, id: &str, u: &G1Affine) -> Result<DecryptionShare, Error> {
        let request = Request {
            op: Op::TokenShare,
            id: id.to_string(),
            body: self.params.curve().point_to_bytes(u),
        };
        let response = self.exchange(&request)?;
        if let Some(err) = response.status.to_error() {
            return Err(err);
        }
        threshold::decryption_share_from_bytes(self.params.curve(), &response.body)
    }

    /// Requests a mediated-GDH half-signature over the wire.
    ///
    /// # Errors
    ///
    /// Same contract as [`TcpSemClient::ibe_token`].
    pub fn gdh_half_sign(&mut self, id: &str, message: &[u8]) -> Result<HalfSignature, Error> {
        let request = Request {
            op: Op::GdhHalfSign,
            id: id.to_string(),
            body: message.to_vec(),
        };
        let response = self.exchange(&request)?;
        if let Some(err) = response.status.to_error() {
            return Err(err);
        }
        self.params
            .curve()
            .point_from_bytes(&response.body)
            .map(HalfSignature)
            .map_err(|_| Error::InvalidCiphertext)
    }

    /// Pulls the daemon's metrics snapshot in its Prometheus-style
    /// text exposition (the raw `sempair stats` output).
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] once the retry budget is exhausted; a
    /// non-UTF-8 reply body as [`Error::InvalidCiphertext`].
    pub fn stats_text(&mut self) -> Result<String, Error> {
        let request = Request {
            op: Op::Stats,
            id: String::new(),
            body: vec![],
        };
        let response = self.exchange(&request)?;
        if let Some(err) = response.status.to_error() {
            return Err(err);
        }
        String::from_utf8(response.body).map_err(|_| Error::InvalidCiphertext)
    }

    /// [`TcpSemClient::stats_text`] parsed back into a
    /// [`MetricsSnapshot`].
    ///
    /// # Errors
    ///
    /// Same contract as [`TcpSemClient::stats_text`]; an exposition
    /// that fails to parse as [`Error::InvalidCiphertext`].
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, Error> {
        let text = self.stats_text()?;
        MetricsSnapshot::from_prometheus_text(&text).ok_or(Error::InvalidCiphertext)
    }

    /// Sends a mixed batch of requests as **one** frame each way and
    /// returns the per-item outcomes in request order.
    ///
    /// The daemon serves the whole batch under a single
    /// revocation-list read-lock acquisition; per-item refusals come
    /// back inside the [`BatchReply`] entries. The encoded batch must
    /// fit in [`proto::MAX_FRAME`].
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] once the retry budget is exhausted;
    /// [`Error::FrameTooLarge`] for a batch that overflows
    /// [`proto::MAX_FRAME`]; a malformed or item-count-mismatched
    /// reply as [`Error::InvalidCiphertext`].
    pub fn batch(&mut self, items: &[BatchItem]) -> Result<Vec<BatchReply>, Error> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let encoded: Vec<Request> = {
            let curve = self.params.curve();
            items
                .iter()
                .map(|item| match item {
                    BatchItem::IbeToken { id, u } => Request {
                        op: Op::IbeToken,
                        id: id.clone(),
                        body: curve.point_to_bytes(u),
                    },
                    BatchItem::GdhHalfSign { id, message } => Request {
                        op: Op::GdhHalfSign,
                        id: id.clone(),
                        body: message.clone(),
                    },
                })
                .collect()
        };
        let request = Request {
            op: Op::Batch,
            id: String::new(),
            body: proto::encode_batch_items(&encoded),
        };
        let response = self.exchange(&request)?;
        if let Some(err) = response.status.to_error() {
            return Err(err);
        }
        let replies =
            proto::decode_batch_replies(&response.body).ok_or(Error::InvalidCiphertext)?;
        if replies.len() != items.len() {
            return Err(Error::InvalidCiphertext);
        }
        let curve = self.params.curve();
        Ok(items
            .iter()
            .zip(replies)
            .map(|(item, reply)| match item {
                BatchItem::IbeToken { .. } => BatchReply::IbeToken(match reply.status.to_error() {
                    Some(err) => Err(err),
                    None => curve
                        .gt_from_bytes(&reply.body)
                        .map(DecryptToken)
                        .map_err(|_| Error::InvalidCiphertext),
                }),
                BatchItem::GdhHalfSign { .. } => {
                    BatchReply::GdhHalfSign(match reply.status.to_error() {
                        Some(err) => Err(err),
                        None => curve
                            .point_from_bytes(&reply.body)
                            .map(HalfSignature)
                            .map_err(|_| Error::InvalidCiphertext),
                    })
                }
            })
            .collect())
    }
}

/// One event observed by [`PipeClient::recv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeReply {
    /// An enveloped reply: `(req_id, inner response)`.
    Reply(u64, Response),
    /// A plain v1 response (a refusal for a frame the daemon could not
    /// parse, or a pre-v2 daemon that ignores envelopes).
    Plain(Response),
}

/// A raw pipelined client for load generators and chaos tests: submits
/// many requests on one connection without waiting, then surfaces
/// replies in whatever order the SEM finishes them.
///
/// No retries, no reconnects — faults surface as [`Error::Transport`]
/// so harnesses can observe them directly. [`TcpSemClient`] is the
/// resilient stub for applications.
pub struct PipeClient {
    stream: TcpStream,
    session: u64,
    next_req_id: u64,
}

impl PipeClient {
    /// Connects with the given per-read/write socket deadline (zero
    /// disables it).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the connect.
    pub fn connect(addr: impl ToSocketAddrs, request_timeout: Duration) -> std::io::Result<Self> {
        let mut last: Option<std::io::Error> = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    prepare_stream(&stream)?;
                    let deadline = (!request_timeout.is_zero()).then_some(request_timeout);
                    stream.set_read_timeout(deadline)?;
                    stream.set_write_timeout(deadline)?;
                    let mut rng = StdRng::from_entropy();
                    return Ok(PipeClient {
                        stream,
                        session: rng.next_u64(),
                        next_req_id: 1,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::AddrNotAvailable, "no addresses to connect to")
        }))
    }

    /// The random session tag stamped on every envelope.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Submits one enveloped request without waiting for its reply and
    /// returns the request id to match against [`PipeClient::recv`].
    ///
    /// # Errors
    ///
    /// [`Error::FrameTooLarge`] if the envelope cannot be encoded;
    /// [`Error::Transport`] on a socket fault.
    pub fn submit(&mut self, request: &Request) -> Result<u64, Error> {
        let req_id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1);
        self.submit_as(req_id, request)?;
        Ok(req_id)
    }

    /// [`PipeClient::submit`] under a caller-chosen request id — the
    /// hook idempotency tests use to re-send the *same* logical
    /// request.
    ///
    /// # Errors
    ///
    /// Same contract as [`PipeClient::submit`].
    pub fn submit_as(&mut self, req_id: u64, request: &Request) -> Result<(), Error> {
        let frame = proto::encode_pipelined_request(&proto::PipelinedRequest {
            session: self.session,
            req_id,
            inner: request.clone(),
        })?;
        self.stream.write_all(&frame).map_err(|_| Error::Transport)
    }

    /// Blocks for the next reply frame (enveloped or plain).
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] on EOF, deadline expiry, or a socket fault;
    /// [`Error::InvalidCiphertext`] for a frame that does not decode as
    /// any response.
    pub fn recv(&mut self) -> Result<PipeReply, Error> {
        let payload = read_frame(&mut self.stream)
            .map_err(|_| Error::Transport)?
            .ok_or(Error::Transport)?;
        let outer = proto::decode_response(&payload).ok_or(Error::InvalidCiphertext)?;
        if outer.status == Status::Ok {
            if let Some((req_id, inner)) = proto::decode_pipelined_reply(&outer.body) {
                return Ok(PipeReply::Reply(req_id, inner));
            }
        }
        Ok(PipeReply::Plain(outer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::LockdepStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sempair_core::bf_ibe::Pkg;
    use sempair_core::gdh;
    use sempair_pairing::CurveParams;
    use std::time::Instant;

    fn setup() -> (Pkg, TcpSemServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x7C9);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let server = TcpSemServer::bind("127.0.0.1:0", pkg.params().clone()).unwrap();
        (pkg, server, rng)
    }

    fn setup_with(config: ServerConfig) -> (Pkg, TcpSemServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x7C9);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let server = TcpSemServer::bind_with("127.0.0.1:0", pkg.params().clone(), config).unwrap();
        (pkg, server, rng)
    }

    #[test]
    fn decrypt_through_real_sockets() {
        let (pkg, server, mut rng) = setup();
        let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"over tcp")
            .unwrap();
        let token = client.ibe_token("alice", &c.u).unwrap();
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
            b"over tcp"
        );
        // Several requests over one connection.
        for i in 0..3 {
            let c = pkg
                .params()
                .encrypt_full(&mut rng, "alice", format!("msg {i}").as_bytes())
                .unwrap();
            let token = client.ibe_token("alice", &c.u).unwrap();
            assert_eq!(
                user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
                format!("msg {i}").as_bytes()
            );
        }
        // A healthy session never retried.
        assert_eq!(client.stats(), ClientStats::default());
        server.shutdown();
    }

    #[test]
    fn sign_through_real_sockets() {
        let (pkg, server, mut rng) = setup();
        let curve = pkg.params().curve();
        let (user, sem_key, pk) = gdh::mediated_keygen(&mut rng, curve, "signer");
        server.install_gdh(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let half = client.gdh_half_sign("signer", b"tcp doc").unwrap();
        let sig = user.finish_sign(curve, b"tcp doc", &half).unwrap();
        gdh::verify(curve, &pk, b"tcp doc", &sig).unwrap();
        server.shutdown();
    }

    #[test]
    fn revocation_and_errors_over_the_wire() {
        let (pkg, server, mut rng) = setup();
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        assert!(client.ibe_token("alice", &c.u).is_ok());
        server.revoke("alice");
        assert_eq!(client.ibe_token("alice", &c.u), Err(Error::Revoked));
        server.unrevoke("alice");
        assert!(client.ibe_token("alice", &c.u).is_ok());
        assert_eq!(
            client.ibe_token("nobody", &c.u),
            Err(Error::UnknownIdentity)
        );
        server.shutdown();
    }

    #[test]
    fn daemon_audits_every_request() {
        let (pkg, server, mut rng) = setup();
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        client.ibe_token("alice", &c.u).unwrap();
        server.revoke("alice");
        let _ = client.ibe_token("alice", &c.u);
        let stats = server.audit_stats("alice");
        assert_eq!(stats.served, 1);
        assert_eq!(stats.refused, 1);
        assert!(server.audit_bytes_out() > 0);
        server.shutdown();
    }

    #[test]
    fn stats_op_exposes_parseable_metrics() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            audit: AuditConfig {
                audit_cap: 2,
                identity_cap: 8,
            },
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        for _ in 0..5 {
            client.ibe_token("alice", &c.u).unwrap();
        }
        let text = client.stats_text().unwrap();
        assert!(text.contains("sem_requests_served_total 5"));
        let snapshot = client.metrics().unwrap();
        // Identical to the in-process view modulo the clock and the
        // live lockdep counters (process-global, advanced by every
        // concurrently running test when the feature is on).
        let mut local = server.metrics();
        let mut remote = snapshot.clone();
        local.uptime = Duration::ZERO;
        remote.uptime = Duration::ZERO;
        local.lockdep = LockdepStats::default();
        remote.lockdep = LockdepStats::default();
        assert_eq!(remote, local);
        assert_eq!(snapshot.records_len, 2);
        assert_eq!(snapshot.records_dropped, 3);
        assert_eq!(snapshot.totals.served, 5);
        let (_, ibe_latency) = &snapshot.latency_us[0];
        assert_eq!(ibe_latency.count(), 5);
        // The metrics pull itself is not audited: pulling twice
        // changes nothing.
        let again = client.metrics().unwrap();
        assert_eq!(again.totals, snapshot.totals);
        assert_eq!(again.transport, snapshot.transport);
        server.shutdown();
    }

    /// Every socket the daemon accepts and every socket its clients
    /// connect is no-delay (`prepare_stream`), so no reply waits on
    /// Nagle's algorithm for the peer's ACK.
    #[test]
    fn every_daemon_and_client_socket_is_nodelay() {
        let (pkg, server, _) = setup();
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
        // One round trip each: the daemon registers a connection
        // before it serves a frame from it.
        client.stats_text().unwrap();
        let curve = pkg.params().curve();
        pipe.submit(&Request {
            op: Op::IbeToken,
            id: "ghost".into(),
            body: curve.point_to_bytes(curve.generator()),
        })
        .unwrap();
        assert!(matches!(pipe.recv().unwrap(), PipeReply::Reply(..)));
        assert!(client.stream.as_ref().unwrap().nodelay().unwrap());
        assert!(pipe.stream.nodelay().unwrap());
        let conns = server.shared.conns.lock();
        assert_eq!(conns.len(), 2);
        for stream in conns.values() {
            assert!(stream.nodelay().unwrap());
        }
        drop(conns);
        server.shutdown();
    }

    #[test]
    fn concurrent_connections() {
        let (pkg, server, mut rng) = setup();
        let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let ciphertexts: Vec<_> = (0..4)
            .map(|i| {
                pkg.params()
                    .encrypt_full(&mut rng, "alice", format!("c{i}").as_bytes())
                    .unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for (i, c) in ciphertexts.iter().enumerate() {
                let addr = server.local_addr();
                let params = pkg.params().clone();
                let user = &user;
                scope.spawn(move || {
                    let mut client = TcpSemClient::connect(addr, params.clone()).unwrap();
                    let token = client.ibe_token("alice", &c.u).unwrap();
                    let m = user.finish_decrypt(&params, c, &token).unwrap();
                    assert_eq!(m, format!("c{i}").as_bytes());
                });
            }
        });
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_invalid_status() {
        let (pkg, server, _) = setup();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Garbage payload of length 3.
        stream.write_all(&3u32.to_be_bytes()).unwrap();
        stream.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let response = proto::decode_response(&payload).unwrap();
        assert_eq!(response.status, Status::Invalid);
        // The connection survives and serves a valid request afterwards.
        let curve = pkg.params().curve();
        let req = Request {
            op: Op::IbeToken,
            id: "ghost".into(),
            body: curve.point_to_bytes(curve.generator()),
        };
        stream
            .write_all(&proto::encode_request(&req).unwrap())
            .unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            proto::decode_response(&payload).unwrap().status,
            Status::Unknown
        );
        server.shutdown();
    }

    /// The token op decodes `U` (its one membership check) before it
    /// looks at revocation, so a bad `U` is `Invalid` even for a
    /// revoked identity, and its tokens match `Sem::decrypt_token`
    /// byte for byte with the cache tier on and off.
    #[test]
    fn token_op_decodes_u_once_then_checks_revocation() {
        for cache_cap in [64, 0] {
            let (pkg, server, mut rng) = setup_with(ServerConfig {
                cache_cap,
                ..ServerConfig::default()
            });
            let params = pkg.params();
            let curve = params.curve();
            let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
            let mut reference = Sem::new();
            reference.install(sem_key.clone());
            server.install_ibe(sem_key);
            let c = params.encrypt_full(&mut rng, "alice", b"m").unwrap();
            let mut x = sempair_bigint::BigUint::one();
            let outside = loop {
                if let Some((p, _)) = curve.lift_x(&x) {
                    if !curve.is_in_group(&p) {
                        break p;
                    }
                }
                x = &x + &sempair_bigint::BigUint::one();
            };
            let mut malformed = curve.point_to_bytes(&c.u);
            malformed[0] = 0x07;
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut ask = |u: &[u8]| {
                let req = Request {
                    op: Op::IbeToken,
                    id: "alice".into(),
                    body: u.to_vec(),
                };
                stream
                    .write_all(&proto::encode_request(&req).unwrap())
                    .unwrap();
                let payload = read_frame(&mut stream).unwrap().unwrap();
                proto::decode_response(&payload).unwrap()
            };
            let expect =
                curve.gt_to_bytes(&reference.decrypt_token(params, "alice", &c.u).unwrap().0);
            // Twice: with the tier on, a miss and then a hit.
            for _ in 0..2 {
                let reply = ask(&curve.point_to_bytes(&c.u));
                assert_eq!(
                    (reply.status, &reply.body),
                    (Status::Ok, &expect),
                    "cap {cache_cap}"
                );
            }
            // A U outside G1 is served as its G1 part U_r = [e]U, with
            // e ≡ 1 (mod r) and e ≡ 0 (mod h): the token pairing
            // ignores U's torsion, so the check is skipped.
            assert!(curve.pairing_ignores_torsion());
            let (r, h) = (curve.order(), curve.cofactor());
            let e = h * &sempair_bigint::modular::mod_inv(&(h % r), r).unwrap();
            let projected = curve.mul(&e, &outside);
            let expect_outside = curve.gt_to_bytes(
                &reference
                    .decrypt_token(params, "alice", &projected)
                    .unwrap()
                    .0,
            );
            let reply = ask(&curve.point_to_bytes(&outside));
            assert_eq!(
                (reply.status, &reply.body),
                (Status::Ok, &expect_outside),
                "cap {cache_cap}"
            );
            server.revoke("alice");
            assert_eq!(ask(&malformed).status, Status::Invalid);
            assert_eq!(ask(&curve.point_to_bytes(&outside)).status, Status::Revoked);
            assert_eq!(ask(&curve.point_to_bytes(&c.u)).status, Status::Revoked);
            server.shutdown();
        }
    }

    #[test]
    fn batch_over_real_sockets() {
        let (pkg, server, mut rng) = setup();
        let curve = pkg.params().curve();
        let (user, ibe_sem) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(ibe_sem);
        let (gdh_user, gdh_sem, pk) = gdh::mediated_keygen(&mut rng, curve, "signer");
        server.install_gdh(gdh_sem);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"batched")
            .unwrap();
        let replies = client
            .batch(&[
                BatchItem::IbeToken {
                    id: "alice".into(),
                    u: c.u.clone(),
                },
                BatchItem::GdhHalfSign {
                    id: "signer".into(),
                    message: b"doc".to_vec(),
                },
                BatchItem::IbeToken {
                    id: "ghost".into(),
                    u: c.u.clone(),
                },
            ])
            .unwrap();
        assert_eq!(replies.len(), 3);
        let BatchReply::IbeToken(Ok(token)) = &replies[0] else {
            panic!("item 0")
        };
        let BatchReply::GdhHalfSign(Ok(half)) = &replies[1] else {
            panic!("item 1")
        };
        assert_eq!(
            replies[2],
            BatchReply::IbeToken(Err(Error::UnknownIdentity))
        );
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c, token).unwrap(),
            b"batched"
        );
        let sig = gdh_user.finish_sign(curve, b"doc", half).unwrap();
        gdh::verify(curve, &pk, b"doc", &sig).unwrap();
        // Transport counters: one envelope, three batched items.
        let t = server.audit_transport();
        assert_eq!((t.single, t.batched_items, t.batches), (0, 3, 1));
        // A revoked identity refuses only its own item.
        server.revoke("alice");
        let replies = client
            .batch(&[
                BatchItem::IbeToken {
                    id: "alice".into(),
                    u: c.u.clone(),
                },
                BatchItem::GdhHalfSign {
                    id: "signer".into(),
                    message: b"doc".to_vec(),
                },
            ])
            .unwrap();
        assert_eq!(replies[0], BatchReply::IbeToken(Err(Error::Revoked)));
        assert!(matches!(&replies[1], BatchReply::GdhHalfSign(Ok(_))));
        server.shutdown();
    }

    #[test]
    fn malformed_batch_body_gets_invalid_status() {
        let (pkg, server, _) = setup();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let req = Request {
            op: Op::Batch,
            id: String::new(),
            body: vec![0xde, 0xad],
        };
        stream
            .write_all(&proto::encode_request(&req).unwrap())
            .unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            proto::decode_response(&payload).unwrap().status,
            Status::Invalid
        );
        // No audit record and no transport tick for an unattributable body.
        assert_eq!(
            server.audit_transport(),
            crate::audit::TransportStats::default()
        );
        drop(pkg);
        server.shutdown();
    }

    #[test]
    fn oversized_frame_rejected() {
        let (_, server, _) = setup();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(&((proto::MAX_FRAME + 1) as u32).to_be_bytes())
            .unwrap();
        stream.write_all(&[0u8; 16]).unwrap();
        // Server closes the connection: next read returns EOF/err.
        let result = read_frame(&mut stream);
        assert!(matches!(result, Ok(None) | Err(_)));
        server.shutdown();
    }

    #[test]
    fn oversized_identity_rejected_client_side() {
        let (pkg, server, mut rng) = setup();
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        // An identity over the u16 id-length field never reaches the
        // wire: encode rejects it instead of emitting a corrupt frame.
        let huge = "x".repeat(u16::MAX as usize + 1);
        assert_eq!(client.ibe_token(&huge, &c.u), Err(Error::FrameTooLarge));
        assert_eq!(
            client.gdh_half_sign(&huge, b"doc"),
            Err(Error::FrameTooLarge)
        );
        // The connection is still healthy for well-formed requests.
        assert_eq!(
            client.ibe_token("nobody", &c.u),
            Err(Error::UnknownIdentity)
        );
        assert_eq!(client.stats(), ClientStats::default());
        server.shutdown();
    }

    #[test]
    fn idle_client_disconnected_at_deadline() {
        let (_, server, _) = setup_with(ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        });
        // A slowloris: connect and send nothing.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let start = Instant::now();
        // The server closes the socket at the idle deadline: our read
        // sees EOF (or a reset), well before our own 5 s guard.
        let mut buf = [0u8; 1];
        let got = stream.read(&mut buf);
        assert!(matches!(got, Ok(0) | Err(_)));
        assert!(start.elapsed() < Duration::from_secs(4));
        // Give the handler a beat to finish its audit record.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.audit_transport().timeouts, 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_live_handlers() {
        let (pkg, server, mut rng) = setup();
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        client.ibe_token("alice", &c.u).unwrap();
        assert_eq!(server.live_connections(), 1);
        // The connection is idle (default 60 s deadline). shutdown()
        // must not wait for it: it closes the socket, joins the
        // handler, and reports the drain.
        let start = Instant::now();
        let report = server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(report.connections_closed, 1);
        assert!(report.handlers_joined >= 1);
    }

    #[test]
    fn connection_cap_refuses_excess() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        // Complete a request so the first connection is registered.
        client.ibe_token("alice", &c.u).unwrap();
        // The second connection is dropped at accept: reads see EOF.
        let mut extra = TcpStream::connect(server.local_addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        let got = extra.read(&mut buf);
        assert!(matches!(got, Ok(0) | Err(_)));
        // The refusal is audited against the peer address.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.audit_transport().refused_conns == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.audit_transport().refused_conns, 1);
        // The admitted connection still works.
        client.ibe_token("alice", &c.u).unwrap();
        server.shutdown();
    }

    #[test]
    fn token_share_over_real_sockets() {
        use sempair_core::threshold::ThresholdPkg;
        let mut rng = StdRng::seed_from_u64(0x75A2E);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let tpkg = ThresholdPkg::setup(&mut rng, curve, 2, 3).unwrap();
        let shares = tpkg.keygen("alice");
        let params = tpkg.system().params().clone();
        let server = TcpSemServer::bind("127.0.0.1:0", params.clone()).unwrap();
        server.install_token_share(shares[0].clone());
        let mut client = TcpSemClient::connect(server.local_addr(), params.clone()).unwrap();
        let u = params
            .curve()
            .mul_generator(&params.curve().random_scalar(&mut rng));
        let share = client.token_share("alice", &u).unwrap();
        assert_eq!(share.index, 1);
        tpkg.system()
            .verify_decryption_share("alice", &u, &share)
            .unwrap();
        // Unknown identity and revocation behave like the other ops.
        assert_eq!(client.token_share("bob", &u), Err(Error::UnknownIdentity));
        server.revoke("alice");
        assert_eq!(client.token_share("alice", &u), Err(Error::Revoked));
        server.unrevoke("alice");
        assert!(client.token_share("alice", &u).is_ok());
        server.shutdown();
    }

    #[test]
    fn journal_backed_revocation_survives_restart() {
        let dir = std::env::temp_dir().join(format!(
            "sempair-tcp-journal-{}-{:x}",
            std::process::id(),
            0x9A11u32
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sem.journal");
        let (pkg, mut rng) = {
            let mut rng = StdRng::seed_from_u64(0x7C9);
            let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
            (Pkg::setup(&mut rng, curve), rng)
        };
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        let addr;
        {
            let (server, replayed) = TcpSemServer::bind_with_journal(
                "127.0.0.1:0",
                pkg.params().clone(),
                ServerConfig::default(),
                &path,
            )
            .unwrap();
            assert_eq!(replayed.records, 0);
            server.install_ibe(sem_key.clone());
            addr = server.local_addr();
            let mut client = TcpSemClient::connect(addr, pkg.params().clone()).unwrap();
            assert!(client.ibe_token("alice", &c.u).is_ok());
            server.revoke("bob");
            server.revoke("alice");
            server.unrevoke("bob");
            server.shutdown();
        }
        // "Restart": a fresh daemon on the same journal refuses alice
        // before any in-memory revoke was issued, and bob is clean.
        let (server, replayed) = TcpSemServer::bind_with_journal(
            "127.0.0.1:0",
            pkg.params().clone(),
            ServerConfig::default(),
            &path,
        )
        .unwrap();
        assert_eq!(replayed.records, 3);
        assert_eq!(replayed.revoked.len(), 1);
        assert!(replayed.revoked.contains("alice"));
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        assert_eq!(client.ibe_token("alice", &c.u), Err(Error::Revoked));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_bounded_with_full_jitter() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(1);
        let mut rng = HmacDrbgRng::new(b"backoff-bounds");
        // Full jitter: each delay is uniform below a ceiling that
        // doubles per attempt, never above it.
        for (attempt, ceiling_ms) in [(0u32, 25u64), (1, 50), (2, 100)] {
            for _ in 0..32 {
                let d = backoff_delay(base, cap, attempt, &mut rng);
                assert!(d <= Duration::from_millis(ceiling_ms), "{attempt}: {d:?}");
            }
        }
        // Deep attempts saturate at the cap instead of overflowing.
        for _ in 0..32 {
            assert!(backoff_delay(base, cap, 40, &mut rng) <= cap);
            assert!(backoff_delay(Duration::from_secs(1 << 40), cap, 16, &mut rng) <= cap);
        }
        // A zero ceiling yields a zero delay, not a division panic.
        assert_eq!(
            backoff_delay(Duration::ZERO, Duration::ZERO, 0, &mut rng),
            Duration::ZERO
        );
    }

    /// The thundering-herd regression: when a replica restart cuts off
    /// a fleet of clients at once, their retry delays must NOT be
    /// identical (deterministic `base·2^attempt` re-synchronized every
    /// reconnect storm), while one client's schedule stays reproducible
    /// under a pinned seed.
    #[test]
    fn backoff_jitter_desynchronizes_reconnects_and_is_seed_deterministic() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(1);
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = HmacDrbgRng::new(&seed.to_be_bytes());
            (0..6)
                .map(|a| backoff_delay(base, cap, a, &mut rng))
                .collect()
        };
        // Deterministic under a test seed: the exact property
        // `ClientConfig::backoff_seed` exposes.
        assert_eq!(schedule(7), schedule(7));
        // De-synchronized across a fleet: simulate 16 clients all
        // starting attempt 0 at the same instant (post-restart) and
        // require their first delays to collide almost never.
        let first_delays: Vec<Duration> = (0..16u64).map(|s| schedule(s)[0]).collect();
        let mut distinct = first_delays.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() >= 15,
            "fleet re-synchronized: {first_delays:?}"
        );
    }

    /// Many requests in flight on one connection: every reply comes
    /// back tagged with its request id, exactly once, regardless of
    /// completion order across the worker pool.
    #[test]
    fn pipelined_requests_complete_out_of_order_safely() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        });
        let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"deep")
            .unwrap();
        let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
        let request = Request {
            op: Op::IbeToken,
            id: "alice".into(),
            body: pkg.params().curve().point_to_bytes(&c.u),
        };
        const DEPTH: usize = 16;
        let mut expected: std::collections::HashSet<u64> =
            (0..DEPTH).map(|_| pipe.submit(&request).unwrap()).collect();
        assert_eq!(expected.len(), DEPTH);
        for _ in 0..DEPTH {
            match pipe.recv().unwrap() {
                PipeReply::Reply(req_id, inner) => {
                    assert!(expected.remove(&req_id), "duplicate or unknown req id");
                    assert_eq!(inner.status, Status::Ok);
                    let token = pkg
                        .params()
                        .curve()
                        .gt_from_bytes(&inner.body)
                        .map(sempair_core::mediated::DecryptToken)
                        .unwrap();
                    assert_eq!(
                        user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
                        b"deep"
                    );
                }
                PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
            }
        }
        assert!(expected.is_empty());
        assert_eq!(server.audit_stats("alice").served, DEPTH as u64);
        server.shutdown();
    }

    /// Regression (unbounded queuing): with `queue_cap: 1` and a
    /// single worker, a burst overruns the bounded queue and the
    /// excess is *shed* with a typed `Overloaded` reply — audited as
    /// its own outcome, never silently buffered without bound — and a
    /// shed request can be re-submitted successfully afterwards.
    #[test]
    fn full_queue_sheds_with_typed_overload() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            workers: 1,
            queue_cap: 1,
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let (_, gdh_sem, _) = gdh::mediated_keygen(&mut rng, pkg.params().curve(), "alice");
        server.install_gdh(gdh_sem);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"x").unwrap();
        let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
        let request = Request {
            op: Op::IbeToken,
            id: "alice".into(),
            body: pkg.params().curve().point_to_bytes(&c.u),
        };
        // Half-signing a 256 KiB message hashes the whole body to a
        // curve point — slow enough that the single worker is still
        // chewing the first sign while the reader floods the 1-slot
        // queue with the rest of the burst.
        let slow_sign = Request {
            op: Op::GdhHalfSign,
            id: "alice".into(),
            body: vec![0xA5; 256 * 1024],
        };
        const SIGNS: usize = 8;
        const BURST: usize = SIGNS + 24;
        let mut shed = Vec::new();
        let mut served = 0u64;
        for _ in 0..SIGNS {
            pipe.submit(&slow_sign).unwrap();
        }
        for _ in 0..BURST - SIGNS {
            pipe.submit(&request).unwrap();
        }
        for _ in 0..BURST {
            match pipe.recv().unwrap() {
                PipeReply::Reply(req_id, inner) => match inner.status {
                    Status::Ok => served += 1,
                    Status::Overloaded => shed.push(req_id),
                    other => panic!("unexpected status: {other:?}"),
                },
                PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
            }
        }
        assert!(
            !shed.is_empty(),
            "a 32-deep burst against queue_cap=1 must shed"
        );
        assert!(served > 0, "the worker must still serve what it admitted");
        let stats = server.audit_stats("alice");
        assert_eq!(stats.served, served);
        assert_eq!(stats.refused, shed.len() as u64);
        // A shed id was forgotten by the idempotency window: retrying
        // it executes fresh instead of replaying the refusal.
        let retry_id = shed[0];
        pipe.submit_as(retry_id, &request).unwrap();
        match pipe.recv().unwrap() {
            PipeReply::Reply(req_id, inner) => {
                assert_eq!(req_id, retry_id);
                assert_eq!(inner.status, Status::Ok);
            }
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        }
        server.shutdown();
    }

    /// Brownout shedding: with the queue depth between the watermark
    /// and the cap, deferrable Stats-class work is shed (with a typed
    /// retry-after hint in the overloaded body) while token-class
    /// crypto work is still admitted.
    #[test]
    fn brownout_sheds_stats_class_before_token_class() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            workers: 1,
            queue_cap: 8,
            brownout_watermark: 2,
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let (_, gdh_sem, _) = gdh::mediated_keygen(&mut rng, pkg.params().curve(), "alice");
        server.install_gdh(gdh_sem);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"x").unwrap();
        let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
        // Wedge the single worker on slow signs and park four more in
        // the queue: the depth sits between the watermark (2) and the
        // cap (8) while the burst below arrives.
        let slow_sign = Request {
            op: Op::GdhHalfSign,
            id: "alice".into(),
            body: vec![0xA5; 256 * 1024],
        };
        let mut sign_ids = std::collections::HashSet::new();
        for _ in 0..5 {
            sign_ids.insert(pipe.submit(&slow_sign).unwrap());
        }
        let stats_id = pipe
            .submit(&Request {
                op: Op::Stats,
                id: String::new(),
                body: vec![],
            })
            .unwrap();
        let token_id = pipe
            .submit(&Request {
                op: Op::IbeToken,
                id: "alice".into(),
                body: pkg.params().curve().point_to_bytes(&c.u),
            })
            .unwrap();
        let (mut saw_stats, mut saw_token) = (false, false);
        for _ in 0..7 {
            match pipe.recv().unwrap() {
                PipeReply::Reply(req_id, inner) => {
                    if req_id == stats_id {
                        assert_eq!(
                            inner.status,
                            Status::Overloaded,
                            "Stats-class op must brown out above the watermark"
                        );
                        let hint = proto::decode_retry_after(&inner.body)
                            .expect("shed replies carry a typed retry-after hint");
                        assert!((10..=100).contains(&hint), "hint {hint} ms out of band");
                        saw_stats = true;
                    } else if req_id == token_id {
                        assert_eq!(
                            inner.status,
                            Status::Ok,
                            "token-class work must still be admitted below queue_cap"
                        );
                        saw_token = true;
                    } else {
                        assert!(sign_ids.remove(&req_id), "unknown req id");
                        assert_eq!(inner.status, Status::Ok);
                    }
                }
                PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
            }
        }
        assert!(saw_stats && saw_token && sign_ids.is_empty());
        server.shutdown();
    }

    /// Re-sending a request id that already completed replays the
    /// recorded response without executing (or auditing) it again —
    /// the exactly-once guarantee client retries rely on.
    #[test]
    fn duplicate_request_id_replays_without_reexecution() {
        let (pkg, server, mut rng) = setup();
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"x").unwrap();
        let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
        let request = Request {
            op: Op::IbeToken,
            id: "alice".into(),
            body: pkg.params().curve().point_to_bytes(&c.u),
        };
        let req_id = pipe.submit(&request).unwrap();
        let first = match pipe.recv().unwrap() {
            PipeReply::Reply(got, inner) => {
                assert_eq!(got, req_id);
                inner
            }
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        };
        // Same (session, req_id): the daemon must not run the crypto
        // again.
        pipe.submit_as(req_id, &request).unwrap();
        let second = match pipe.recv().unwrap() {
            PipeReply::Reply(got, inner) => {
                assert_eq!(got, req_id);
                inner
            }
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        };
        assert_eq!(first, second);
        // Exactly one execution in the audit log.
        assert_eq!(server.audit_stats("alice").served, 1);
        server.shutdown();
    }

    /// A pre-v2 client (plain frames, one in flight) interoperates
    /// with the pipelined daemon on the same port, concurrently with a
    /// pipelined stub.
    #[test]
    fn v1_client_interops_with_pipelined_daemon() {
        let (pkg, server, mut rng) = setup();
        let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"old")
            .unwrap();
        let mut v1 = TcpSemClient::connect_with(
            server.local_addr(),
            pkg.params().clone(),
            ClientConfig {
                pipelined: false,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let mut v2 = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        for _ in 0..3 {
            let t1 = v1.ibe_token("alice", &c.u).unwrap();
            let t2 = v2.ibe_token("alice", &c.u).unwrap();
            assert_eq!(user.finish_decrypt(pkg.params(), &c, &t1).unwrap(), b"old");
            assert_eq!(user.finish_decrypt(pkg.params(), &c, &t2).unwrap(), b"old");
        }
        assert_eq!(server.audit_stats("alice").served, 6);
        server.shutdown();
    }

    /// `pipeline_depth` bounds in-flight envelopes per connection by
    /// *blocking the reader* (TCP backpressure), never by dropping:
    /// a burst far deeper than the window still gets every reply.
    #[test]
    fn pipeline_depth_applies_backpressure_without_loss() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            workers: 2,
            pipeline_depth: 2,
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"x").unwrap();
        let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(30)).unwrap();
        let request = Request {
            op: Op::IbeToken,
            id: "alice".into(),
            body: pkg.params().curve().point_to_bytes(&c.u),
        };
        const BURST: usize = 24;
        // Submit from a second thread: with a 2-deep window the server
        // stops reading mid-burst, and a single-threaded
        // submit-all-then-recv loop could deadlock on a full socket
        // buffer in theory (not at these sizes, but the discipline is
        // the point of the test).
        let addr = server.local_addr();
        let submitted = std::thread::spawn(move || {
            for _ in 0..BURST {
                pipe.submit(&request).unwrap();
            }
            pipe
        });
        let mut pipe = submitted.join().unwrap();
        let _ = addr;
        let mut ok = 0;
        for _ in 0..BURST {
            match pipe.recv().unwrap() {
                PipeReply::Reply(_, inner) => {
                    assert_eq!(inner.status, Status::Ok);
                    ok += 1;
                }
                PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
            }
        }
        assert_eq!(ok, BURST);
        assert_eq!(server.audit_stats("alice").served, BURST as u64);
        server.shutdown();
    }

    /// Regression (idempotency-window eviction churn): a completed
    /// entry must survive `IDEM_WINDOW − 1` fresh admissions, no
    /// matter how many shed-and-forgotten ids leaked tombstone slots
    /// in between. The old FIFO evicted by queue length, so a window
    /// of forget churn would pop the live `Done` entry and a retried
    /// completed request re-executed — breaking exactly-once.
    #[test]
    fn idem_done_entry_survives_window_despite_forget_churn() {
        let mut cache = IdemCache::default();
        let done_key = (1u64, 1u64);
        let response = Response {
            status: Status::Ok,
            body: vec![0xAB],
        };
        assert!(matches!(cache.admit(done_key), Admission::Fresh));
        cache.complete(done_key, response.clone());
        // Shed churn: every admission is forgotten again, leaving
        // only tombstones behind (the overload-shedding pattern).
        for i in 0..2 * IDEM_WINDOW as u64 {
            let key = (2, i);
            assert!(matches!(cache.admit(key), Admission::Fresh));
            cache.forget(key);
        }
        // IDEM_WINDOW − 1 genuinely fresh admissions: together with
        // done_key that fills the window exactly, evicting nothing.
        for i in 0..(IDEM_WINDOW as u64 - 1) {
            assert!(matches!(cache.admit((3, i)), Admission::Fresh));
        }
        match cache.admit(done_key) {
            Admission::Replay(got) => assert_eq!(got, response),
            _ => panic!("completed entry was evicted by tombstone churn"),
        }
        // Occupancy is measured in live entries, and the tombstone
        // queue stays bounded.
        assert!(cache.entries.len() <= IDEM_WINDOW);
        assert!(cache.order.len() <= 2 * IDEM_WINDOW + 8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The idempotency window behaves exactly like an insertion-
        /// ordered map bounded to `window` live keys, under arbitrary
        /// admit/complete/forget interleavings: no live entry is
        /// evicted before `window` younger live keys exist, occupancy
        /// is bounded by live entries, and the lazy queue stays within
        /// a small multiple of the window.
        #[test]
        fn idem_cache_matches_insertion_ordered_model(
            ops in proptest::collection::vec((0u8..3u8, 0u64..24u64), 1..400),
            window in 1usize..12usize,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut cache = IdemCache::with_window(window);
            // Reference model: live keys oldest-first, plus which are Done.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut done: HashSet<(u64, u64)> = HashSet::new();
            let response = Response { status: Status::Ok, body: vec![7] };
            for (kind, k) in ops {
                let key = (1u64, k);
                match kind {
                    0 => {
                        let expected = if live.contains(&key) {
                            if done.contains(&key) { "replay" } else { "inflight" }
                        } else {
                            if live.len() >= window && !live.is_empty() {
                                let victim = live.remove(0);
                                done.remove(&victim);
                            }
                            live.push(key);
                            "fresh"
                        };
                        let got = match cache.admit(key) {
                            Admission::Fresh => "fresh",
                            Admission::InFlight => "inflight",
                            Admission::Replay(r) => {
                                prop_assert_eq!(&r, &response);
                                "replay"
                            }
                        };
                        prop_assert_eq!(got, expected);
                    }
                    1 => {
                        if live.contains(&key) {
                            done.insert(key);
                        }
                        cache.complete(key, response.clone());
                    }
                    _ => {
                        live.retain(|other| other != &key);
                        done.remove(&key);
                        cache.forget(key);
                    }
                }
                prop_assert_eq!(cache.entries.len(), live.len());
                prop_assert!(cache.entries.len() <= window);
                prop_assert!(cache.order.len() <= 2 * window + 8);
            }
        }
    }

    /// Two clients missing the same identity concurrently leave
    /// exactly ONE cached half-key entry, the hit/miss totals cover
    /// every lookup, and the cached tokens are byte-identical to a
    /// tier-disabled daemon's (the pairing-symmetry guarantee,
    /// end-to-end).
    #[test]
    fn cache_tier_coherent_under_concurrent_misses() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            workers: 4,
            cache_cap: 64,
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        let uncached = TcpSemServer::bind_with(
            "127.0.0.1:0",
            pkg.params().clone(),
            ServerConfig {
                cache_cap: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        uncached.install_ibe(sem_key.clone());
        server.install_ibe(sem_key);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        const THREADS: usize = 2;
        const REQS: usize = 4;
        let tokens: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let addr = server.local_addr();
                    let params = pkg.params().clone();
                    let u = c.u.clone();
                    scope.spawn(move || {
                        let mut client = TcpSemClient::connect(addr, params.clone()).unwrap();
                        (0..REQS)
                            .map(|_| {
                                let token = client.ibe_token("alice", &u).unwrap();
                                params.curve().gt_to_bytes(&token.0)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().unwrap())
                .collect()
        });
        let mut plain = TcpSemClient::connect(uncached.local_addr(), pkg.params().clone()).unwrap();
        let reference = pkg
            .params()
            .curve()
            .gt_to_bytes(&plain.ibe_token("alice", &c.u).unwrap().0);
        assert_eq!(tokens.len(), THREADS * REQS);
        for token in &tokens {
            assert_eq!(token, &reference, "cached token differs from uncached");
        }
        let caches = server.cache_stats();
        let half = caches.iter().find(|s| s.name == "half_key").unwrap();
        assert_eq!(
            half.entries, 1,
            "concurrent misses must coalesce to one entry"
        );
        assert_eq!(half.hits + half.misses, (THREADS * REQS) as u64);
        // At most one duplicated miss per thread racing the first fill.
        assert!(half.misses <= THREADS as u64);
        assert!(half.weight_bytes > 0);
        // The tier-disabled daemon never populated (or consulted) its caches.
        let off = uncached.cache_stats();
        assert!(off
            .iter()
            .all(|s| s.entries == 0 && s.hits == 0 && s.misses == 0));
        server.shutdown();
        uncached.shutdown();
    }

    /// `--cache-warm`: the hot-identity set is journaled, and a
    /// restarted daemon precomputes those identities' cache entries
    /// before its first request — the first post-restart token is a
    /// cache *hit*.
    #[test]
    fn cache_warm_restart_precomputes_hot_identities() {
        let dir = std::env::temp_dir().join(format!(
            "sempair-tcp-warm-{}-{:x}",
            std::process::id(),
            0xCA4Eu32
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sem.journal");
        let config = ServerConfig {
            cache_warm: true,
            ..ServerConfig::default()
        };
        let (pkg, mut rng) = {
            let mut rng = StdRng::seed_from_u64(0x7C9);
            let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
            (Pkg::setup(&mut rng, curve), rng)
        };
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        {
            let (server, replayed) = TcpSemServer::bind_with_journal(
                "127.0.0.1:0",
                pkg.params().clone(),
                config.clone(),
                &path,
            )
            .unwrap();
            assert_eq!(replayed.records, 0);
            server.install_ibe(sem_key.clone());
            let mut client =
                TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
            assert!(client.ibe_token("alice", &c.u).is_ok());
            server.shutdown();
        }
        let (server, replayed) =
            TcpSemServer::bind_with_journal("127.0.0.1:0", pkg.params().clone(), config, &path)
                .unwrap();
        assert_eq!(replayed.warm, vec!["alice".to_string()]);
        // Parameter-only entries were precomputed at bind...
        let caches = server.cache_stats();
        assert_eq!(caches.iter().find(|s| s.name == "qid").unwrap().entries, 1);
        assert_eq!(
            caches
                .iter()
                .find(|s| s.name == "mask_base")
                .unwrap()
                .entries,
            1
        );
        // ...and the half-key at install time, so the first request hits.
        server.install_ibe(sem_key);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        assert!(client.ibe_token("alice", &c.u).is_ok());
        let caches = server.cache_stats();
        let half = caches.iter().find(|s| s.name == "half_key").unwrap();
        assert_eq!((half.hits, half.misses, half.entries), (1, 0, 1));
        // A warm daemon journals each hot identity once: the restart
        // run served alice again but did not append a duplicate.
        server.shutdown();
        let (_, replayed) = crate::store::Journal::open(&path).unwrap();
        assert_eq!(replayed.warm, vec!["alice".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Identity state is sharded: revoking a storm of identities that
    /// land on other shards never blocks or perturbs service for an
    /// identity on its own shard.
    #[test]
    fn revocation_on_other_shards_does_not_block_service() {
        let (pkg, server, mut rng) = setup_with(ServerConfig {
            workers: 2,
            shards: 8,
            ..ServerConfig::default()
        });
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        server.install_ibe(sem_key);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"x").unwrap();
        let alice_shard = crate::revocation::shard_of("alice", 8);
        let mut client = TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap();
        // A storm of revocations targeting every *other* shard.
        let mut stormed = 0;
        let mut n = 0u32;
        while stormed < 64 {
            let id = format!("victim-{n}");
            n += 1;
            if crate::revocation::shard_of(&id, 8) == alice_shard {
                continue;
            }
            server.revoke(&id);
            stormed += 1;
            client.ibe_token("alice", &c.u).unwrap();
        }
        assert_eq!(server.audit_stats("alice").served, 64);
        assert_eq!(server.audit_stats("alice").refused, 0);
        server.shutdown();
    }
}
