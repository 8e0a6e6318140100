//! Deterministic fault injection for the SEM TCP transport.
//!
//! A [`FaultProxy`] sits between a [`crate::tcp::TcpSemClient`] and a
//! [`crate::tcp::TcpSemServer`], forwarding the frame protocol while
//! injecting faults — delays, dropped frames, mid-frame truncations,
//! and byte corruption — either from an explicit per-frame script or
//! deterministically from a seed ([`FaultPlan`]). Same plan, same
//! traffic → same faults, so chaos tests are reproducible.
//!
//! The proxy is frame-aware: it parses the `u32 length ‖ payload`
//! framing of [`crate::proto`] so a fault hits an entire protocol
//! message, the unit the paper's §4/§5 bandwidth accounting is stated
//! in. Faults are scheduled per *direction* (client→server and
//! server→client have independent plans) with frame indices counted
//! globally across reconnects — a plan that drops frame 0 of the
//! server→client direction drops exactly one response, which is what
//! lets a test assert "the client retried through one lost reply".
//!
//! A proxy can also emulate a *link* ([`FaultProxy::spawn_linked`]):
//! every frame is delivered `one_way` after it arrived, with due times
//! tracked per frame so back-to-back frames ride the link concurrently
//! instead of queueing behind each other's delay. That is how real
//! propagation latency behaves — it bounds round trips, not
//! throughput — and it is what lets the serving benchmark show
//! pipelining hiding RTTs that a single-in-flight client must eat one
//! per request.
//!
//! Beyond per-frame faults, a proxy can *crash* wholesale via
//! [`CrashMode`]: `Refuse` closes the listening socket (connect fails
//! fast, as if the process died), `DropAfterAccept` completes the TCP
//! handshake and then hangs up (the half-crash that only surfaces
//! after connecting). Both modes also sever already-proxied
//! connections, and `Normal` revives the replica — which is how the
//! cluster chaos tests kill a specific SEM mid-workload and later
//! bring it back.

use crate::tcp::prepare_stream;
use crossbeam::channel;
use sempair_core::lockdep::{LockClass, TrackedMutex};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accept-loop poll interval (mirrors the server's non-blocking
/// acceptor).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// One fault applied to one forwarded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Forward the frame untouched.
    Forward,
    /// Hold the frame for the given duration, then forward it.
    Delay(Duration),
    /// Swallow the frame entirely; the connection stays up.
    Drop,
    /// Forward the length prefix and only the first `n` payload bytes,
    /// then close the connection — the receiver sees a mid-frame EOF.
    Truncate(usize),
    /// XOR the payload byte at `offset % len` with `xor` (a non-zero
    /// `xor` guarantees the byte changes). Framing stays intact, so
    /// the receiver gets a well-delimited but corrupt payload.
    Corrupt {
        /// Payload offset (taken modulo the payload length).
        offset: usize,
        /// XOR mask applied to the byte.
        xor: u8,
    },
}

/// How the proxy treats *inbound connections* — the knob chaos tests
/// turn to crash (and later revive) one SEM replica without touching
/// the replica process itself. Orthogonal to the per-frame
/// [`FaultPlan`]s, which only see connections that were accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Accept and pump connections normally.
    Normal,
    /// Close the listening socket: `connect()` fails fast with
    /// connection-refused, exactly as if the process were gone.
    Refuse,
    /// Complete the TCP handshake, then immediately close the socket —
    /// the "process up, service wedged" half-crash where clients only
    /// learn the replica is dead after connecting.
    DropAfterAccept,
}

impl CrashMode {
    fn from_u8(v: u8) -> CrashMode {
        match v {
            1 => CrashMode::Refuse,
            2 => CrashMode::DropAfterAccept,
            _ => CrashMode::Normal,
        }
    }
}

/// Per-mille fault rates for seeded plans; whatever remains is
/// forwarded clean.
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// ‰ of frames swallowed.
    pub drop_per_mille: u16,
    /// ‰ of frames corrupted (offset and mask drawn from the seed).
    pub corrupt_per_mille: u16,
    /// ‰ of frames truncated mid-payload.
    pub truncate_per_mille: u16,
    /// ‰ of frames delayed by [`FaultProfile::delay`].
    pub delay_per_mille: u16,
    /// Delay applied to delayed frames.
    pub delay: Duration,
}

impl FaultProfile {
    /// The flaky-mobile-link preset the chaos scenarios drive: ~2% of
    /// frames lost, ~1% corrupted, ~0.5% cut mid-frame, and ~3% held
    /// for a radio-scale 10 ms stall. Aggressive enough that a client
    /// without retries visibly fails, mild enough that a jittered
    /// retry budget of a few attempts recovers essentially everything.
    pub fn mobile() -> Self {
        FaultProfile {
            drop_per_mille: 20,
            corrupt_per_mille: 10,
            truncate_per_mille: 5,
            delay_per_mille: 30,
            delay: Duration::from_millis(10),
        }
    }
}

/// `xorshift64*`-style generator — deterministic, dependency-free, and
/// emphatically not cryptographic (it schedules test faults).
struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    fn new(seed: u64) -> Self {
        // Splitmix-style stir so seed 0 (a fixed point of xorshift)
        // still produces a usable stream.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift64 {
            state: z ^ (z >> 31),
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

enum PlanMode {
    /// Frame `i` gets `script[i]`; frames past the end are forwarded.
    Script(Vec<Fault>),
    /// Every frame draws its fault from the seeded generator.
    Seeded(Xorshift64, FaultProfile),
}

/// A deterministic schedule of faults for one direction of traffic.
pub struct FaultPlan {
    mode: PlanMode,
    next_frame: usize,
}

impl FaultPlan {
    /// Forwards everything untouched (the control arm).
    pub fn clean() -> Self {
        Self::script(Vec::new())
    }

    /// Applies `script[i]` to the `i`-th frame of this direction
    /// (counted across reconnects); later frames are forwarded.
    pub fn script(script: Vec<Fault>) -> Self {
        FaultPlan {
            mode: PlanMode::Script(script),
            next_frame: 0,
        }
    }

    /// Draws every frame's fault deterministically from `seed` at the
    /// profile's rates: same seed and traffic → same fault sequence.
    pub fn seeded(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan {
            mode: PlanMode::Seeded(Xorshift64::new(seed), profile),
            next_frame: 0,
        }
    }

    /// The fault for the next frame in this direction.
    fn next(&mut self) -> Fault {
        let index = self.next_frame;
        self.next_frame += 1;
        match &mut self.mode {
            PlanMode::Script(script) => script.get(index).cloned().unwrap_or(Fault::Forward),
            PlanMode::Seeded(rng, profile) => {
                let roll = (rng.next() % 1000) as u16;
                let aux = rng.next(); // always drawn → stream stays aligned
                let d = profile.drop_per_mille;
                let c = d + profile.corrupt_per_mille;
                let t = c + profile.truncate_per_mille;
                let y = t + profile.delay_per_mille;
                if roll < d {
                    Fault::Drop
                } else if roll < c {
                    Fault::Corrupt {
                        offset: (aux >> 8) as usize,
                        xor: (aux as u8) | 1,
                    }
                } else if roll < t {
                    Fault::Truncate((aux % 16) as usize)
                } else if roll < y {
                    Fault::Delay(profile.delay)
                } else {
                    Fault::Forward
                }
            }
        }
    }
}

/// Counters of what the proxy did (all directions combined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames forwarded untouched (including after a delay).
    pub forwarded: u64,
    /// Frames swallowed.
    pub dropped: u64,
    /// Frames forwarded with a corrupted byte.
    pub corrupted: u64,
    /// Frames cut mid-payload (connection closed).
    pub truncated: u64,
    /// Frames held back before forwarding.
    pub delayed: u64,
}

#[derive(Default)]
struct StatsInner {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    truncated: AtomicU64,
    delayed: AtomicU64,
}

/// A frame-aware TCP proxy injecting faults between a SEM client and
/// server (see module docs).
pub struct FaultProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    crash: Arc<AtomicU8>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<TrackedMutex<Vec<TcpStream>>>,
    pumps: Arc<TrackedMutex<Vec<JoinHandle<()>>>>,
    stats: Arc<StatsInner>,
}

impl FaultProxy {
    /// Binds a loopback port and forwards every connection to
    /// `upstream`, applying `c2s` to client→server frames and `s2c` to
    /// server→client frames.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the bind.
    pub fn spawn(upstream: SocketAddr, c2s: FaultPlan, s2c: FaultPlan) -> std::io::Result<Self> {
        Self::spawn_linked(upstream, c2s, s2c, Duration::ZERO)
    }

    /// Like [`FaultProxy::spawn`], but every forwarded frame is also
    /// delivered `one_way` after it arrived at the proxy, emulating a
    /// symmetric link's propagation delay. Due times are tracked per
    /// frame, so a burst of in-flight frames shares the link instead
    /// of queueing behind each other's sleep — latency bounds the
    /// round trip, not the throughput (contrast [`Fault::Delay`],
    /// which stalls its whole direction and models a stalled hop).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the bind.
    pub fn spawn_linked(
        upstream: SocketAddr,
        c2s: FaultPlan,
        s2c: FaultPlan,
        one_way: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let crash = Arc::new(AtomicU8::new(0));
        // lock:class(Faults)
        let conns = Arc::new(TrackedMutex::new(LockClass::Faults, Vec::new()));
        // lock:class(Faults)
        let pumps = Arc::new(TrackedMutex::new(LockClass::Faults, Vec::new()));
        let stats = Arc::new(StatsInner::default());
        // lock:class(Faults)
        let c2s = Arc::new(TrackedMutex::new(LockClass::Faults, c2s));
        // lock:class(Faults)
        let s2c = Arc::new(TrackedMutex::new(LockClass::Faults, s2c));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let crash = Arc::clone(&crash);
            let conns = Arc::clone(&conns);
            let pumps = Arc::clone(&pumps);
            let stats = Arc::clone(&stats);
            // The acceptor owns the listener so Refuse mode can drop it
            // (std's TcpListener binds with SO_REUSEADDR on Unix, so
            // the later rebind on the same port succeeds even with
            // lingering TIME_WAIT connections).
            let mut listener = Some(listener);
            std::thread::spawn(move || loop {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let mode = CrashMode::from_u8(crash.load(Ordering::SeqCst));
                if mode == CrashMode::Refuse {
                    // Dropping the socket makes connect() fail fast.
                    listener = None;
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                if listener.is_none() {
                    match TcpListener::bind(local_addr) {
                        Ok(l) if l.set_nonblocking(true).is_ok() => listener = Some(l),
                        _ => {
                            std::thread::sleep(ACCEPT_POLL);
                            continue;
                        }
                    }
                }
                let Some(bound) = listener.as_ref() else {
                    // Rebound just above; treat an impossible miss as a
                    // poll tick rather than crashing the proxy thread.
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                };
                match bound.accept() {
                    Ok((client, _)) => {
                        if mode == CrashMode::DropAfterAccept {
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        }
                        // Both legs are no-delay, so the only delay a
                        // frame sees is the one this proxy models.
                        if prepare_stream(&client).is_err() {
                            continue;
                        }
                        let Ok(server) = TcpStream::connect(upstream) else {
                            continue;
                        };
                        if prepare_stream(&server).is_err() {
                            continue;
                        }
                        let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone())
                        else {
                            continue;
                        };
                        {
                            // Registry clones, so shutdown() can
                            // force-close both halves.
                            let mut conns = conns.lock();
                            if let Ok(s) = client.try_clone() {
                                conns.push(s);
                            }
                            if let Ok(s) = server.try_clone() {
                                conns.push(s);
                            }
                        }
                        let mut pumps = pumps.lock();
                        pumps.push(spawn_pump(
                            client,
                            server,
                            Arc::clone(&c2s),
                            Arc::clone(&stats),
                            one_way,
                        ));
                        pumps.push(spawn_pump(
                            server2,
                            client2,
                            Arc::clone(&s2c),
                            Arc::clone(&stats),
                            one_way,
                        ));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            })
        };
        Ok(FaultProxy {
            local_addr,
            shutdown,
            crash,
            acceptor: Some(acceptor),
            conns,
            pumps,
            stats,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Switches how inbound connections are treated. Entering any
    /// non-[`CrashMode::Normal`] mode also force-closes every
    /// connection already proxied, so a replica "crashes" for its
    /// existing clients too, not just new ones. Takes effect within
    /// one accept-poll interval (~5 ms).
    pub fn set_crash_mode(&self, mode: CrashMode) {
        self.crash.store(
            match mode {
                CrashMode::Normal => 0,
                CrashMode::Refuse => 1,
                CrashMode::DropAfterAccept => 2,
            },
            Ordering::SeqCst,
        );
        if mode != CrashMode::Normal {
            for stream in self.conns.lock().drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// The currently configured crash mode.
    pub fn crash_mode(&self) -> CrashMode {
        CrashMode::from_u8(self.crash.load(Ordering::SeqCst))
    }

    /// What the proxy has done so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            forwarded: self.stats.forwarded.load(Ordering::SeqCst),
            dropped: self.stats.dropped.load(Ordering::SeqCst),
            corrupted: self.stats.corrupted.load(Ordering::SeqCst),
            truncated: self.stats.truncated.load(Ordering::SeqCst),
            delayed: self.stats.delayed.load(Ordering::SeqCst),
        }
    }

    /// Stops accepting, closes every proxied connection, and joins the
    /// pump threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for stream in self.conns.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = self.pumps.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What the pump should do with one frame after fault bookkeeping.
enum Action {
    /// Deliver the encoded frame after holding it `hold` beyond the
    /// link latency.
    Send { frame: Vec<u8>, hold: Duration },
    /// Swallow the frame; keep pumping.
    Skip,
    /// Deliver a partial frame, then close the connection.
    SendThenClose { frame: Vec<u8> },
}

fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Applies one fault's bookkeeping and says what to deliver.
fn plan_action(fault: &Fault, payload: &[u8], stats: &StatsInner) -> Action {
    match fault {
        Fault::Forward => {
            stats.forwarded.fetch_add(1, Ordering::SeqCst);
            Action::Send {
                frame: encode_frame(payload),
                hold: Duration::ZERO,
            }
        }
        Fault::Delay(duration) => {
            stats.delayed.fetch_add(1, Ordering::SeqCst);
            stats.forwarded.fetch_add(1, Ordering::SeqCst);
            Action::Send {
                frame: encode_frame(payload),
                hold: *duration,
            }
        }
        Fault::Drop => {
            stats.dropped.fetch_add(1, Ordering::SeqCst);
            Action::Skip
        }
        Fault::Truncate(keep) => {
            // Announce the full length, deliver only a prefix, then
            // hang up: the receiver is left mid-frame.
            let keep = (*keep).min(payload.len());
            let mut partial = Vec::with_capacity(4 + keep);
            partial.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            partial.extend_from_slice(&payload[..keep]);
            stats.truncated.fetch_add(1, Ordering::SeqCst);
            Action::SendThenClose { frame: partial }
        }
        Fault::Corrupt { offset, xor } => {
            let mut payload = payload.to_vec();
            if !payload.is_empty() {
                let at = offset % payload.len();
                payload[at] ^= xor;
            }
            stats.corrupted.fetch_add(1, Ordering::SeqCst);
            Action::Send {
                frame: encode_frame(&payload),
                hold: Duration::ZERO,
            }
        }
    }
}

/// Reads frames from `from` and forwards them to `to` per the plan.
/// Exits (closing both halves) on EOF, socket error, or a truncation
/// fault. With a non-zero `one_way` each frame is handed to a delivery
/// thread stamped with its due instant, so the reader keeps draining
/// the socket while earlier frames are still "on the wire".
fn spawn_pump(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: Arc<TrackedMutex<FaultPlan>>,
    stats: Arc<StatsInner>,
    one_way: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        if one_way.is_zero() {
            // Direct path: faults apply inline (a Delay stalls this
            // direction, which is exactly the stalled-hop it models).
            while let Ok(Some(payload)) = read_raw_frame(&mut from) {
                // Draw under the lock, apply outside it: a Delay must
                // not stall the opposite direction's plan.
                let fault = plan.lock().next();
                match plan_action(&fault, &payload, &stats) {
                    Action::Send { frame, hold } => {
                        if !hold.is_zero() {
                            std::thread::sleep(hold);
                        }
                        if to.write_all(&frame).is_err() {
                            break;
                        }
                    }
                    Action::Skip => {}
                    Action::SendThenClose { frame } => {
                        let _ = to.write_all(&frame);
                        break;
                    }
                }
            }
        } else if let Ok(mut out) = to.try_clone() {
            // Linked path: due times are monotone in arrival order, so
            // one delivery thread sleeping until each frame's due
            // instant preserves ordering while frames overlap in
            // flight. A per-frame Delay extends that frame's due time
            // without stalling the reader.
            let (tx, rx) = channel::unbounded::<(Instant, Vec<u8>)>();
            let delivery = std::thread::spawn(move || {
                while let Ok((due, frame)) = rx.recv() {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if out.write_all(&frame).is_err() {
                        // Keep draining so the reader never blocks on
                        // a full pipe to a dead peer.
                        while rx.recv().is_ok() {}
                        return;
                    }
                }
            });
            while let Ok(Some(payload)) = read_raw_frame(&mut from) {
                let fault = plan.lock().next();
                match plan_action(&fault, &payload, &stats) {
                    Action::Send { frame, hold } => {
                        if tx.send((Instant::now() + one_way + hold, frame)).is_err() {
                            break;
                        }
                    }
                    Action::Skip => {}
                    Action::SendThenClose { frame } => {
                        let _ = tx.send((Instant::now() + one_way, frame));
                        break;
                    }
                }
            }
            drop(tx);
            let _ = delivery.join();
        }
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    })
}

/// Reads one length-prefixed frame payload without interpreting it;
/// `Ok(None)` on clean EOF. Unlike the server, the proxy forwards
/// oversized frames untouched — it injects faults, it doesn't police.
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &mut FaultPlan, n: usize) -> Vec<Fault> {
        (0..n).map(|_| plan.next()).collect()
    }

    #[test]
    fn script_plan_applies_in_order_then_forwards() {
        let mut plan = FaultPlan::script(vec![
            Fault::Drop,
            Fault::Corrupt {
                offset: 0,
                xor: 0xff,
            },
            Fault::Truncate(3),
        ]);
        assert_eq!(
            drain(&mut plan, 5),
            vec![
                Fault::Drop,
                Fault::Corrupt {
                    offset: 0,
                    xor: 0xff
                },
                Fault::Truncate(3),
                Fault::Forward,
                Fault::Forward,
            ]
        );
        assert_eq!(drain(&mut FaultPlan::clean(), 3), vec![Fault::Forward; 3]);
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let profile = FaultProfile {
            drop_per_mille: 200,
            corrupt_per_mille: 200,
            truncate_per_mille: 100,
            delay_per_mille: 100,
            delay: Duration::from_millis(1),
        };
        let a = drain(&mut FaultPlan::seeded(42, profile), 64);
        let b = drain(&mut FaultPlan::seeded(42, profile), 64);
        assert_eq!(a, b);
        // A different seed produces a different schedule.
        let c = drain(&mut FaultPlan::seeded(43, profile), 64);
        assert_ne!(a, c);
        // At these rates, 64 draws hit several fault kinds.
        assert!(a.contains(&Fault::Drop));
        assert!(a.iter().any(|f| matches!(f, Fault::Corrupt { .. })));
        assert!(a.contains(&Fault::Forward));
    }

    #[test]
    fn seeded_corrupt_mask_never_zero() {
        let profile = FaultProfile {
            drop_per_mille: 0,
            corrupt_per_mille: 1000,
            truncate_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        };
        let mut plan = FaultPlan::seeded(7, profile);
        for fault in drain(&mut plan, 128) {
            let Fault::Corrupt { xor, .. } = fault else {
                panic!("profile corrupts every frame")
            };
            assert_ne!(xor, 0, "a zero mask would be a silent no-op");
        }
    }

    /// Both proxy legs are no-delay, so a frame is held only by the
    /// delay the proxy models, never by Nagle's algorithm.
    #[test]
    fn both_proxy_legs_are_nodelay() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut stream, _) = upstream.accept().unwrap();
            while let Ok(Some(payload)) = read_raw_frame(&mut stream) {
                if stream.write_all(&encode_frame(&payload)).is_err() {
                    break;
                }
            }
        });
        let proxy =
            FaultProxy::spawn(upstream_addr, FaultPlan::clean(), FaultPlan::clean()).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // One echoed frame: the proxy registers both legs before it
        // starts pumping.
        client.write_all(&encode_frame(b"ping")).unwrap();
        assert_eq!(read_raw_frame(&mut client).unwrap().unwrap(), b"ping");
        {
            let conns = proxy.conns.lock();
            assert_eq!(conns.len(), 2, "client leg and server leg");
            for stream in conns.iter() {
                assert!(stream.nodelay().unwrap());
            }
        }
        drop(client);
        proxy.shutdown();
        echo.join().unwrap();
    }

    #[test]
    fn proxy_forwards_and_drops_per_script() {
        // An echo "server": reads frames, echoes payloads back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut stream, _) = upstream.accept().unwrap();
            while let Ok(Some(payload)) = read_raw_frame(&mut stream) {
                let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(&payload);
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
        });
        // Drop the second response; everything else flows.
        let proxy = FaultProxy::spawn(
            upstream_addr,
            FaultPlan::clean(),
            FaultPlan::script(vec![Fault::Forward, Fault::Drop]),
        )
        .unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        // Generous deadline for reads that *should* succeed, so a
        // loaded test machine doesn't turn a slow hop into a failure.
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let send = |client: &mut TcpStream, payload: &[u8]| {
            let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(payload);
            client.write_all(&frame).unwrap();
        };
        // Frame 0 round-trips.
        send(&mut client, b"first");
        assert_eq!(read_raw_frame(&mut client).unwrap().unwrap(), b"first");
        // Frame 1's response is swallowed: a short read times out.
        client
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        send(&mut client, b"second");
        assert!(read_raw_frame(&mut client).is_err());
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Frame 2 flows again on the same connection.
        send(&mut client, b"third");
        assert_eq!(read_raw_frame(&mut client).unwrap().unwrap(), b"third");
        // The pump bumps its counters after forwarding, so give the
        // stats a moment to catch up with the bytes we observed.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while proxy.stats().forwarded < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = proxy.stats();
        assert_eq!(stats.dropped, 1);
        // 3 requests forwarded + 2 responses forwarded.
        assert_eq!(stats.forwarded, 5);
        drop(client);
        proxy.shutdown();
        let _ = echo.join();
    }

    /// Echo upstream used by the crash-mode tests: accepts any number
    /// of connections, echoing frames on each.
    fn spawn_echo() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = upstream.local_addr().unwrap();
        upstream.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            while !stop2.load(Ordering::SeqCst) {
                match upstream.accept() {
                    Ok((mut stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        workers.push(std::thread::spawn(move || {
                            while let Ok(Some(payload)) = read_raw_frame(&mut stream) {
                                let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
                                frame.extend_from_slice(&payload);
                                if stream.write_all(&frame).is_err() {
                                    break;
                                }
                            }
                        }));
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        (addr, stop, handle)
    }

    /// One frame echoed through a fresh connection to `addr`.
    fn echo_once(addr: SocketAddr) -> std::io::Result<Vec<u8>> {
        let mut client = TcpStream::connect(addr)?;
        client.set_read_timeout(Some(Duration::from_secs(5)))?;
        let payload = b"ping";
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        client.write_all(&frame)?;
        read_raw_frame(&mut client)?
            .ok_or_else(|| std::io::Error::new(ErrorKind::UnexpectedEof, "closed"))
    }

    #[test]
    fn linked_latency_delays_frames_without_serializing() {
        let (addr, stop, echo) = spawn_echo();
        let one_way = Duration::from_millis(40);
        let proxy = FaultProxy::spawn_linked(addr, FaultPlan::clean(), FaultPlan::clean(), one_way)
            .unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let send = |client: &mut TcpStream, payload: &[u8]| {
            let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(payload);
            client.write_all(&frame).unwrap();
        };
        // A lone ping-pong pays the full round trip: one_way each way.
        let start = Instant::now();
        send(&mut client, b"lone");
        assert_eq!(read_raw_frame(&mut client).unwrap().unwrap(), b"lone");
        assert!(
            start.elapsed() >= 2 * one_way,
            "round trip {:?} undercut the 2×{one_way:?} link",
            start.elapsed()
        );
        // A burst of 8 in-flight frames shares the link: total wall
        // time stays near one round trip, nowhere near the 16×one_way
        // a serializing (sleep-per-frame) link would cost.
        let start = Instant::now();
        for i in 0..8u8 {
            send(&mut client, &[i]);
        }
        for i in 0..8u8 {
            assert_eq!(read_raw_frame(&mut client).unwrap().unwrap(), &[i]);
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= 2 * one_way, "burst {elapsed:?} beat the link");
        assert!(
            elapsed < 8 * one_way,
            "burst took {elapsed:?}: latency is serializing frames instead of overlapping them"
        );
        drop(client);
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        let _ = echo.join();
    }

    #[test]
    fn crash_refuse_then_recover() {
        let (addr, stop, echo) = spawn_echo();
        let proxy = FaultProxy::spawn(addr, FaultPlan::clean(), FaultPlan::clean()).unwrap();
        assert_eq!(proxy.crash_mode(), CrashMode::Normal);
        assert_eq!(echo_once(proxy.local_addr()).unwrap(), b"ping");
        proxy.set_crash_mode(CrashMode::Refuse);
        // Within one poll interval the listener is gone: connects fail.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if echo_once(proxy.local_addr()).is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "refuse mode never took effect"
            );
            std::thread::sleep(ACCEPT_POLL);
        }
        // Reviving the replica rebinds the same port.
        proxy.set_crash_mode(CrashMode::Normal);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(reply) = echo_once(proxy.local_addr()) {
                assert_eq!(reply, b"ping");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "proxy never came back after refuse"
            );
            std::thread::sleep(ACCEPT_POLL);
        }
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        let _ = echo.join();
    }

    #[test]
    fn crash_drop_after_accept_severs_connections() {
        let (addr, stop, echo) = spawn_echo();
        let proxy = FaultProxy::spawn(addr, FaultPlan::clean(), FaultPlan::clean()).unwrap();
        proxy.set_crash_mode(CrashMode::DropAfterAccept);
        // Connects may still land (or race the mode flip), but no
        // request ever completes once the mode is active.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if echo_once(proxy.local_addr()).is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "drop-after-accept never took effect"
            );
            std::thread::sleep(ACCEPT_POLL);
        }
        proxy.set_crash_mode(CrashMode::Normal);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(reply) = echo_once(proxy.local_addr()) {
                assert_eq!(reply, b"ping");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "proxy never recovered from drop-after-accept"
            );
            std::thread::sleep(ACCEPT_POLL);
        }
        proxy.shutdown();
        stop.store(true, Ordering::SeqCst);
        let _ = echo.join();
    }

    #[test]
    fn proxy_truncation_closes_mid_frame() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut stream, _) = upstream.accept().unwrap();
            // The server side sees a mid-frame EOF: read_exact fails.
            let result = read_raw_frame(&mut stream);
            assert!(result.is_err() || result.unwrap().is_none());
        });
        let proxy = FaultProxy::spawn(
            upstream_addr,
            FaultPlan::script(vec![Fault::Truncate(2)]),
            FaultPlan::clean(),
        )
        .unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload = b"truncate me";
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        client.write_all(&frame).unwrap();
        sink.join().unwrap();
        assert_eq!(proxy.stats().truncated, 1);
        proxy.shutdown();
    }
}
