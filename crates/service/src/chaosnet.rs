//! A seeded in-process TCP fault-injection proxy for the evaluation
//! service.
//!
//! `chaosnet` sits between a client and the server and misbehaves on
//! purpose, the way real networks do: it splits frames into tiny
//! segments, coalesces and delays writes, stalls reads, resets
//! connections mid-response, and injects garbage bytes into the stream.
//! It extends PR 4's fail-point discipline (`cred-resilience`) to the
//! network boundary: every connection gets a [`NetChaosPlan`] sampled
//! from a seed with the same dependency-free splitmix64 idiom as
//! `ChaosPlan::sample`, so a failing run names a seed and a connection
//! index that reproduce it exactly.
//!
//! The proxy reuses the service's own [`Poller`] on a dedicated thread:
//! one nonblocking event loop, every proxied connection a pair of
//! sockets with a per-direction byte pipe and fault state. Fault timers
//! (write holds, read stalls) bound the poller wait the same way the
//! server's connection deadlines do: each turn waits until the earliest
//! one and then scans the pairs for those that have passed.
//!
//! # Why garbage bytes come from the control range
//!
//! Injected garbage is drawn from `0x01..=0x06` — bytes that RFC 8259
//! forbids both inside strings (raw control characters) and between
//! tokens. A corrupted frame therefore *provably* fails the strict
//! [`crate::json`] parser, so a well-behaved client can always detect
//! the corruption and retry; the chaos-loadgen oracle then verifies
//! that no corrupted bytes were ever silently accepted. Arbitrary-byte
//! corruption (e.g. a flipped digit) is indistinguishable from a valid
//! response without an end-to-end checksum, which the NDJSON protocol
//! does not carry — noted as future work in DESIGN.md.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poller::{Event, Interest, Poller};

/// Registration token of the proxy's listen socket (`u64::MAX` is the
/// poller's wake token). Connection pair `k` uses tokens `2k` (client
/// side) and `2k + 1` (upstream side).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Per-direction buffered-byte cap; beyond it the source side stops
/// being read until the sink drains (the proxy's own backpressure).
const PIPE_CAP: usize = 1 << 20;

/// Bytes read from one socket per readiness pass.
const READ_CHUNK: usize = 64 << 10;

/// The injected garbage alphabet: raw control bytes a strict JSON
/// parser must reject wherever they land (see the module docs).
const GARBAGE_BYTES: [u8; 6] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06];

/// One network fault applied to one direction of a proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Forward at most `max_chunk` bytes per write — frames arrive
    /// shredded into tiny segments.
    SplitWrites { max_chunk: usize },
    /// After every `every_bytes` forwarded bytes, hold writes for
    /// `delay_ms`. Bytes accumulate during the hold, so this also
    /// *coalesces* frames that were written separately.
    DelayWrites { every_bytes: u64, delay_ms: u64 },
    /// Hard-close both sockets once `bytes` have been forwarded in this
    /// direction — a mid-frame (often mid-response) connection reset.
    ResetAfter { bytes: u64 },
    /// Once `bytes` have been *received* from the source, stop reading
    /// it for `stall_ms` (one-shot).
    StallReads { after_bytes: u64, stall_ms: u64 },
    /// Once `bytes` have been received, splice `len` garbage bytes into
    /// the stream (one-shot).
    Garbage { after_bytes: u64, len: usize },
}

/// The seeded fault plan for one proxied connection: independent fault
/// lists per direction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetChaosPlan {
    pub client_to_server: Vec<NetFault>,
    pub server_to_client: Vec<NetFault>,
}

impl NetChaosPlan {
    /// A plan that forwards everything faithfully.
    pub fn passthrough() -> NetChaosPlan {
        NetChaosPlan::default()
    }

    /// True when the plan injects no fault at all.
    pub fn is_passthrough(&self) -> bool {
        self.client_to_server.is_empty() && self.server_to_client.is_empty()
    }

    /// Sample a plan from a seed: each fault kind arms independently
    /// with probability `trip_percent`% (resets at half that — they are
    /// the most disruptive), magnitudes drawn from the same stream.
    /// Deterministic, dependency-free, and shrinkable by seed — the
    /// same contract as `cred_resilience`'s `ChaosPlan::sample`.
    pub fn sample(seed: u64, trip_percent: u32) -> NetChaosPlan {
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64 — deterministic and dependency-free.
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let trip = u64::from(trip_percent);
        let direction = |next: &mut dyn FnMut() -> u64| -> Vec<NetFault> {
            let mut faults = Vec::new();
            if next() % 100 < trip {
                faults.push(NetFault::SplitWrites {
                    max_chunk: 1 + (next() % 7) as usize,
                });
            }
            if next() % 100 < trip {
                faults.push(NetFault::DelayWrites {
                    every_bytes: 64 + next() % 512,
                    delay_ms: 5 + next() % 60,
                });
            }
            if next() % 100 < trip / 2 {
                faults.push(NetFault::ResetAfter {
                    bytes: 16 + next() % 768,
                });
            }
            if next() % 100 < trip {
                faults.push(NetFault::StallReads {
                    after_bytes: next() % 512,
                    stall_ms: 20 + next() % 120,
                });
            }
            if next() % 100 < trip {
                faults.push(NetFault::Garbage {
                    after_bytes: next() % 256,
                    len: 1 + (next() % 12) as usize,
                });
            }
            faults
        };
        NetChaosPlan {
            client_to_server: direction(&mut next),
            server_to_client: direction(&mut next),
        }
    }

    /// The plan for connection `index` under base `seed` — how the
    /// proxy derives per-connection plans.
    pub fn for_connection(seed: u64, index: u64, trip_percent: u32) -> NetChaosPlan {
        NetChaosPlan::sample(
            seed.wrapping_add(index.wrapping_mul(0x9E3779B97F4A7C15)),
            trip_percent,
        )
    }
}

/// Configuration for [`ChaosProxy::spawn`].
#[derive(Debug, Clone)]
pub struct ChaosProxyConfig {
    /// Base seed; connection `k` gets
    /// [`NetChaosPlan::for_connection`]`(seed, k, trip_percent)`.
    pub seed: u64,
    /// Per-fault arming probability in percent (resets arm at half).
    pub trip_percent: u32,
    /// Override: apply this exact plan to every connection instead of
    /// sampling (used by tests to pin one fault kind).
    pub fixed_plan: Option<NetChaosPlan>,
}

impl Default for ChaosProxyConfig {
    fn default() -> Self {
        ChaosProxyConfig {
            seed: 0,
            trip_percent: 25,
            fixed_plan: None,
        }
    }
}

/// Injection counters, all relaxed (read after the run).
#[derive(Debug, Default)]
struct ProxyStats {
    connections: AtomicU64,
    faulted_connections: AtomicU64,
    resets_injected: AtomicU64,
    garbage_injected: AtomicU64,
    stalls_injected: AtomicU64,
    delays_injected: AtomicU64,
    bytes_client_to_server: AtomicU64,
    bytes_server_to_client: AtomicU64,
}

/// A frozen copy of the proxy's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStatsSnapshot {
    /// Connections accepted = fault plans sampled.
    pub connections: u64,
    /// Connections whose plan injected at least one fault.
    pub faulted_connections: u64,
    pub resets_injected: u64,
    pub garbage_injected: u64,
    pub stalls_injected: u64,
    pub delays_injected: u64,
    pub bytes_client_to_server: u64,
    pub bytes_server_to_client: u64,
}

impl ProxyStats {
    fn snapshot(&self) -> ProxyStatsSnapshot {
        ProxyStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            faulted_connections: self.faulted_connections.load(Ordering::Relaxed),
            resets_injected: self.resets_injected.load(Ordering::Relaxed),
            garbage_injected: self.garbage_injected.load(Ordering::Relaxed),
            stalls_injected: self.stalls_injected.load(Ordering::Relaxed),
            delays_injected: self.delays_injected.load(Ordering::Relaxed),
            bytes_client_to_server: self.bytes_client_to_server.load(Ordering::Relaxed),
            bytes_server_to_client: self.bytes_server_to_client.load(Ordering::Relaxed),
        }
    }
}

/// The fault-injection proxy. [`spawn`](ChaosProxy::spawn) binds a
/// local port, starts the event-loop thread, and returns a
/// [`ProxyHandle`].
pub struct ChaosProxy;

/// A running proxy: its address, counters, and shutdown control.
pub struct ProxyHandle {
    addr: SocketAddr,
    stats: Arc<ProxyStats>,
    stop: Arc<AtomicBool>,
    waker: crate::poller::Waker,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ProxyHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current injection counters.
    pub fn stats(&self) -> ProxyStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop the proxy thread, closing every proxied connection.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ProxyHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl ChaosProxy {
    /// Bind `127.0.0.1:0` and start proxying to `upstream` under
    /// `config`'s fault regime.
    pub fn spawn(upstream: SocketAddr, config: ChaosProxyConfig) -> std::io::Result<ProxyHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        let waker = poller.waker();
        let stats = Arc::new(ProxyStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut looper = ProxyLoop {
            poller,
            listener,
            upstream,
            config,
            pairs: HashMap::new(),
            next_pair: 0,
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
        };
        let join = std::thread::Builder::new()
            .name("cred-chaosnet".into())
            .spawn(move || looper.run())?;
        Ok(ProxyHandle {
            addr,
            stats,
            stop,
            waker,
            join: Some(join),
        })
    }
}

/// Compiled per-direction fault state.
#[derive(Debug, Default)]
struct DirFaults {
    split: Option<usize>,
    delay: Option<(u64, Duration)>,
    reset_after: Option<u64>,
    stall_read: Option<(u64, Duration)>,
    garbage: Option<(u64, usize)>,
}

impl DirFaults {
    fn compile(faults: &[NetFault]) -> DirFaults {
        let mut d = DirFaults::default();
        for f in faults {
            match *f {
                NetFault::SplitWrites { max_chunk } => d.split = Some(max_chunk.max(1)),
                NetFault::DelayWrites {
                    every_bytes,
                    delay_ms,
                } => {
                    d.delay = Some((every_bytes.max(1), Duration::from_millis(delay_ms)));
                }
                NetFault::ResetAfter { bytes } => d.reset_after = Some(bytes),
                NetFault::StallReads {
                    after_bytes,
                    stall_ms,
                } => d.stall_read = Some((after_bytes, Duration::from_millis(stall_ms))),
                NetFault::Garbage { after_bytes, len } => d.garbage = Some((after_bytes, len)),
            }
        }
        d
    }
}

/// One direction of a proxied connection: a byte pipe plus fault state.
struct Pipe {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes read from the source socket.
    received: u64,
    /// Bytes written to the sink socket.
    forwarded: u64,
    src_eof: bool,
    /// Half-close propagated to the sink after EOF + full flush.
    sink_shut: bool,
    faults: DirFaults,
    /// Write hold in effect (delay fault).
    hold_until: Option<Instant>,
    /// Next forwarded-byte mark that triggers a delay hold.
    next_delay_mark: u64,
    /// Read stall in effect.
    read_hold_until: Option<Instant>,
    stall_done: bool,
    garbage_done: bool,
}

impl Pipe {
    fn new(faults: DirFaults) -> Pipe {
        let next_delay_mark = faults.delay.map_or(u64::MAX, |(every, _)| every);
        Pipe {
            buf: Vec::new(),
            pos: 0,
            received: 0,
            forwarded: 0,
            src_eof: false,
            sink_shut: false,
            faults,
            hold_until: None,
            next_delay_mark,
            read_hold_until: None,
            stall_done: false,
            garbage_done: false,
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn read_stalled(&self, now: Instant) -> bool {
        self.read_hold_until.is_some_and(|t| now < t)
    }

    fn holding(&self, now: Instant) -> bool {
        self.hold_until.is_some_and(|t| now < t)
    }

    /// This direction is finished: source EOF seen and everything
    /// forwarded.
    fn finished(&self) -> bool {
        self.src_eof && self.pending() == 0
    }

    /// Earliest fault timer pending on this pipe.
    fn next_deadline(&self) -> Option<Instant> {
        match (self.hold_until, self.read_hold_until) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
}

/// A proxied connection: the client-facing socket, the upstream socket,
/// and one pipe per direction.
struct Pair {
    client: TcpStream,
    upstream: TcpStream,
    c2s: Pipe,
    s2c: Pipe,
}

struct ProxyLoop {
    poller: Poller,
    listener: TcpListener,
    upstream: SocketAddr,
    config: ChaosProxyConfig,
    pairs: HashMap<u64, Pair>,
    next_pair: u64,
    stats: Arc<ProxyStats>,
    stop: Arc<AtomicBool>,
}

/// What a pump pass decided about the connection.
enum PumpOutcome {
    Keep,
    /// Injected reset or transport error: drop both sockets now.
    Kill,
}

impl ProxyLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            let timeout = self
                .pairs
                .values()
                .filter_map(|p| match (p.c2s.next_deadline(), p.s2c.next_deadline()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, None) => a,
                    (None, b) => b,
                })
                .min()
                .map(|t| t.saturating_duration_since(now));
            if self.poller.wait(&mut events, timeout).is_err() {
                return;
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                if ev.token == LISTENER_TOKEN {
                    self.accept_all();
                } else {
                    let pair_id = ev.token / 2;
                    let client_side = ev.token % 2 == 0;
                    if ev.readable || ev.hangup {
                        self.read_side(pair_id, client_side);
                    }
                    self.service_pair(pair_id);
                }
            }
            events = batch;
            // Expired fault timers: clear holds and resume the affected
            // pairs (cheap scan — the proxy hosts test traffic).
            let now = Instant::now();
            let expired: Vec<u64> = self
                .pairs
                .iter_mut()
                .filter_map(|(&id, p)| {
                    let mut hit = false;
                    for pipe in [&mut p.c2s, &mut p.s2c] {
                        if pipe.hold_until.is_some_and(|t| t <= now) {
                            pipe.hold_until = None;
                            hit = true;
                        }
                        if pipe.read_hold_until.is_some_and(|t| t <= now) {
                            pipe.read_hold_until = None;
                            hit = true;
                        }
                    }
                    hit.then_some(id)
                })
                .collect();
            for id in expired {
                self.service_pair(id);
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((client, _)) => {
                    let Ok(upstream) = TcpStream::connect(self.upstream) else {
                        continue;
                    };
                    if client.set_nonblocking(true).is_err()
                        || upstream.set_nonblocking(true).is_err()
                    {
                        continue;
                    }
                    let _ = client.set_nodelay(true);
                    let _ = upstream.set_nodelay(true);
                    let index = self.next_pair;
                    self.next_pair += 1;
                    let plan = match &self.config.fixed_plan {
                        Some(p) => p.clone(),
                        None => NetChaosPlan::for_connection(
                            self.config.seed,
                            index,
                            self.config.trip_percent,
                        ),
                    };
                    self.stats.connections.fetch_add(1, Ordering::Relaxed);
                    if !plan.is_passthrough() {
                        self.stats
                            .faulted_connections
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.poller
                        .register(client.as_raw_fd(), index * 2, Interest::READ);
                    self.poller
                        .register(upstream.as_raw_fd(), index * 2 + 1, Interest::READ);
                    self.pairs.insert(
                        index,
                        Pair {
                            client,
                            upstream,
                            c2s: Pipe::new(DirFaults::compile(&plan.client_to_server)),
                            s2c: Pipe::new(DirFaults::compile(&plan.server_to_client)),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Read available bytes from one side into its pipe, applying the
    /// stall and garbage faults.
    fn read_side(&mut self, pair_id: u64, client_side: bool) {
        let now = Instant::now();
        let Some(pair) = self.pairs.get_mut(&pair_id) else {
            return;
        };
        let (src, pipe) = if client_side {
            (&mut pair.client, &mut pair.c2s)
        } else {
            (&mut pair.upstream, &mut pair.s2c)
        };
        if pipe.read_stalled(now) || pipe.src_eof || pipe.pending() >= PIPE_CAP {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut taken = 0usize;
        loop {
            if taken >= READ_CHUNK || pipe.pending() >= PIPE_CAP {
                break;
            }
            match src.read(&mut chunk[..]) {
                Ok(0) => {
                    pipe.src_eof = true;
                    break;
                }
                Ok(n) => {
                    pipe.buf.extend_from_slice(&chunk[..n]);
                    pipe.received += n as u64;
                    taken += n;
                    // One-shot garbage splice at the exact stream offset
                    // `after` — mid-frame whenever the offset falls
                    // inside one, which is what makes the fault bite.
                    if let Some((after, len)) = pipe.faults.garbage {
                        if !pipe.garbage_done && pipe.received >= after {
                            pipe.garbage_done = true;
                            let overshoot = (pipe.received - after) as usize;
                            let at = pipe.buf.len().saturating_sub(overshoot).max(pipe.pos);
                            pipe.buf.splice(
                                at..at,
                                (0..len).map(|i| GARBAGE_BYTES[i % GARBAGE_BYTES.len()]),
                            );
                            self.stats.garbage_injected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // One-shot read stall.
                    if let Some((after, stall)) = pipe.faults.stall_read {
                        if !pipe.stall_done && pipe.received >= after {
                            pipe.stall_done = true;
                            pipe.read_hold_until = Some(now + stall);
                            self.stats.stalls_injected.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Treat a read error like an EOF with nothing more
                    // coming; the pair dies once the other side drains.
                    pipe.src_eof = true;
                    pipe.buf.truncate(pipe.buf.len());
                    break;
                }
            }
        }
    }

    /// Pump both directions, propagate half-closes, recompute interest,
    /// and kill the pair on injected resets or transport errors.
    fn service_pair(&mut self, pair_id: u64) {
        let now = Instant::now();
        let outcome = {
            let Some(pair) = self.pairs.get_mut(&pair_id) else {
                return;
            };
            let stats = &self.stats;
            let a = pump(&mut pair.c2s, &mut pair.upstream, now, stats, true);
            let b = pump(&mut pair.s2c, &mut pair.client, now, stats, false);
            match (a, b) {
                (PumpOutcome::Keep, PumpOutcome::Keep) => {
                    // Propagate half-closes once a direction finishes.
                    if pair.c2s.finished() && !pair.c2s.sink_shut {
                        pair.c2s.sink_shut = true;
                        let _ = pair.upstream.shutdown(Shutdown::Write);
                    }
                    if pair.s2c.finished() && !pair.s2c.sink_shut {
                        pair.s2c.sink_shut = true;
                        let _ = pair.client.shutdown(Shutdown::Write);
                    }
                    if pair.c2s.finished() && pair.s2c.finished() {
                        PumpOutcome::Kill
                    } else {
                        PumpOutcome::Keep
                    }
                }
                _ => PumpOutcome::Kill,
            }
        };
        match outcome {
            PumpOutcome::Kill => self.kill_pair(pair_id),
            PumpOutcome::Keep => self.refresh_interest(pair_id),
        }
    }

    fn refresh_interest(&mut self, pair_id: u64) {
        let now = Instant::now();
        let Some(pair) = self.pairs.get_mut(&pair_id) else {
            return;
        };
        let client_want = Interest {
            readable: !pair.c2s.read_stalled(now)
                && !pair.c2s.src_eof
                && pair.c2s.pending() < PIPE_CAP,
            writable: pair.s2c.pending() > 0 && !pair.s2c.holding(now),
        };
        let upstream_want = Interest {
            readable: !pair.s2c.read_stalled(now)
                && !pair.s2c.src_eof
                && pair.s2c.pending() < PIPE_CAP,
            writable: pair.c2s.pending() > 0 && !pair.c2s.holding(now),
        };
        for (fd, token, want) in [
            (pair.client.as_raw_fd(), pair_id * 2, client_want),
            (pair.upstream.as_raw_fd(), pair_id * 2 + 1, upstream_want),
        ] {
            // A socket with nothing to read or write leaves the table:
            // poll(2) reports an error or hangup whatever the interest,
            // so a client that half-closed and then reset while its reply
            // is pending would wake the loop on every turn. Nothing is
            // lost: an upstream that hung up after its reply leaves the
            // bytes buffered for the client draining, and a socket that
            // gets bytes to write is watched again, where a failed write
            // ends the pair.
            if want.readable || want.writable {
                self.poller.register(fd, token, want);
            } else {
                self.poller.deregister(fd);
            }
        }
    }

    fn kill_pair(&mut self, pair_id: u64) {
        if let Some(pair) = self.pairs.remove(&pair_id) {
            self.poller.deregister(pair.client.as_raw_fd());
            self.poller.deregister(pair.upstream.as_raw_fd());
        }
    }
}

/// Write as much of the pipe as its faults allow into `sink`.
fn pump(
    pipe: &mut Pipe,
    sink: &mut TcpStream,
    now: Instant,
    stats: &ProxyStats,
    to_server: bool,
) -> PumpOutcome {
    loop {
        if pipe.pending() == 0 {
            break;
        }
        if pipe.holding(now) {
            break;
        }
        let mut chunk = pipe.pending();
        if let Some(max) = pipe.faults.split {
            chunk = chunk.min(max);
        }
        if let Some((_, delay)) = pipe.faults.delay {
            if pipe.forwarded >= pipe.next_delay_mark {
                pipe.hold_until = Some(now + delay);
                pipe.next_delay_mark = pipe.forwarded + pipe.faults.delay.unwrap().0;
                stats.delays_injected.fetch_add(1, Ordering::Relaxed);
                let _ = delay;
                continue;
            }
            chunk = chunk.min((pipe.next_delay_mark - pipe.forwarded) as usize);
        }
        if let Some(reset_at) = pipe.faults.reset_after {
            let left = reset_at.saturating_sub(pipe.forwarded);
            if left == 0 {
                stats.resets_injected.fetch_add(1, Ordering::Relaxed);
                return PumpOutcome::Kill;
            }
            chunk = chunk.min(left as usize);
        }
        match sink.write(&pipe.buf[pipe.pos..pipe.pos + chunk]) {
            Ok(0) => return PumpOutcome::Kill,
            Ok(n) => {
                pipe.pos += n;
                pipe.forwarded += n as u64;
                let counter = if to_server {
                    &stats.bytes_client_to_server
                } else {
                    &stats.bytes_server_to_client
                };
                counter.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return PumpOutcome::Kill,
        }
    }
    if pipe.pos > 0 && pipe.pos == pipe.buf.len() {
        pipe.buf.clear();
        pipe.pos = 0;
    } else if pipe.pos > (64 << 10) {
        pipe.buf.drain(..pipe.pos);
        pipe.pos = 0;
    }
    PumpOutcome::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(
                NetChaosPlan::sample(seed, 30),
                NetChaosPlan::sample(seed, 30)
            );
            assert_eq!(
                NetChaosPlan::for_connection(seed, 7, 30),
                NetChaosPlan::for_connection(seed, 7, 30)
            );
        }
        // Different seeds must not all collapse to the same plan.
        let distinct: std::collections::HashSet<String> = (0..64)
            .map(|s| format!("{:?}", NetChaosPlan::sample(s, 50)))
            .collect();
        assert!(distinct.len() > 8, "only {} distinct plans", distinct.len());
    }

    #[test]
    fn zero_trip_percent_is_always_passthrough() {
        for seed in 0..64 {
            assert!(NetChaosPlan::sample(seed, 0).is_passthrough());
        }
    }

    #[test]
    fn garbage_bytes_never_include_json_whitespace() {
        for b in GARBAGE_BYTES {
            assert!(
                !matches!(b, b' ' | b'\t' | b'\n' | b'\r'),
                "{b:#x} is JSON whitespace: the strict parser would accept it"
            );
            assert!(b < 0x09, "{b:#x} is not a raw control byte");
        }
    }

    /// A passthrough proxy in front of a line-echo server is invisible.
    #[test]
    fn passthrough_proxy_echoes_bit_identically() {
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = echo.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = echo.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                stream.write_all(line.as_bytes()).unwrap();
                line.clear();
            }
        });
        let proxy = ChaosProxy::spawn(
            upstream,
            ChaosProxyConfig {
                fixed_plan: Some(NetChaosPlan::passthrough()),
                ..ChaosProxyConfig::default()
            },
        )
        .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        for i in 0..32 {
            let msg = format!("{{\"seq\":{i},\"payload\":\"abcdefgh\"}}\n");
            client.write_all(msg.as_bytes()).unwrap();
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            assert_eq!(got, msg, "round {i}");
        }
        drop(client);
        drop(reader);
        server.join().unwrap();
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.faulted_connections, 0);
        assert_eq!(stats.resets_injected, 0);
        assert!(stats.bytes_client_to_server > 0);
        proxy.stop();
    }

    /// Split writes shred frames but deliver every byte in order.
    #[test]
    fn split_writes_preserve_content() {
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = echo.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = echo.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                stream.write_all(line.as_bytes()).unwrap();
                line.clear();
            }
        });
        let plan = NetChaosPlan {
            client_to_server: vec![NetFault::SplitWrites { max_chunk: 1 }],
            server_to_client: vec![NetFault::SplitWrites { max_chunk: 2 }],
        };
        let proxy = ChaosProxy::spawn(
            upstream,
            ChaosProxyConfig {
                fixed_plan: Some(plan),
                ..ChaosProxyConfig::default()
            },
        )
        .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let msg = "{\"k\":\"0123456789abcdef0123456789abcdef\"}\n";
        client.write_all(msg.as_bytes()).unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, msg);
        drop(client);
        drop(reader);
        server.join().unwrap();
        proxy.stop();
    }

    /// An injected reset cuts the stream after exactly N bytes.
    #[test]
    fn reset_after_kills_the_connection_mid_stream() {
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = echo.local_addr().unwrap();
        std::thread::spawn(move || {
            let Ok((stream, _)) = echo.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if stream.write_all(line.as_bytes()).is_err() {
                    return;
                }
                line.clear();
            }
        });
        let plan = NetChaosPlan {
            client_to_server: Vec::new(),
            server_to_client: vec![NetFault::ResetAfter { bytes: 10 }],
        };
        let proxy = ChaosProxy::spawn(
            upstream,
            ChaosProxyConfig {
                fixed_plan: Some(plan),
                ..ChaosProxyConfig::default()
            },
        )
        .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(b"{\"x\":\"0123456789abcdef\"}\n").unwrap();
        // The response is cut at 10 bytes: we read some prefix, then EOF
        // (or a reset error) — never the full line.
        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(_) => break,
            }
        }
        assert!(got.len() <= 10, "got {} bytes", got.len());
        assert_eq!(proxy.stats().resets_injected, 1);
        proxy.stop();
    }
}
