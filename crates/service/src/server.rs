//! The evaluation server: NDJSON over TCP on a nonblocking readiness
//! event loop, a compute-only worker pool, one shared cache, and
//! per-request admission control.
//!
//! # Protocol
//!
//! One JSON object per line, both directions. Requests carry a `"type"`
//! (`ping`, `stats`, `explore`, `shutdown`) and an optional `"id"`, which
//! is echoed verbatim into the response. Every response carries
//! `"ok"` and `"schema_version"`; failures carry
//! `"error": {"code", "message"}` with the stable codes of
//! [`CredError::code`].
//!
//! # Concurrency model
//!
//! One event-loop thread owns the listener and every connection,
//! multiplexed through a level-triggered `poll(2)` table ([`Poller`]) — a
//! connection costs a buffer pair and a table slot, not a thread, and
//! each wake of the loop costs O(connections). Each connection is a
//! small state machine: bytes are read nonblockingly into a line
//! buffer, complete lines are parsed on the loop, and cheap requests
//! (`ping`, `stats`, `shutdown`, protocol errors) are answered inline.
//! So is an `explore` whose every point the shared [`SweepCache`]
//! already holds: the loop decodes it, reads the memoized points under
//! one cache lock ([`ExploreRequest::run_memoized`]) and renders the
//! reply, counted as `loop_hits`. The loop never solves, sizes,
//! schedules or parses a kernel: every other `explore` — a miss, a
//! request with a `source` or a `machine`, or one carrying a debug hook
//! (`debug_delay_ms` must hold a flight open, and a `debug_pad_bytes`
//! reply of up to 16 MiB is bounded only by the in-flight limit) — is
//! handed to a fixed worker pool over a channel; workers never touch
//! sockets, and a loop hit renders at most [`MAX_MAX_F`] memoized
//! points, so neither side can stall the other. Both paths decode and
//! reply through the same functions. A finished worker pushes its
//! rendered response onto a completion queue and wakes the loop through
//! the poller's self-pipe [`Waker`].
//!
//! Responses are sequenced per connection: every request takes a ticket
//! when its line is parsed and responses are flushed strictly in ticket
//! order, so pipelined clients observe exactly the ordering a blocking
//! server would have produced. Writes are nonblocking with explicit
//! backpressure: a connection whose unflushed output exceeds a
//! high-water mark stops being read until the client drains it.
//!
//! Identical concurrent explore requests — same kernel fingerprint,
//! `max_f`, `n`, and mode — coalesce onto one computation
//! ([`crate::coalesce`]); everything the leader computes lands in the
//! process-wide [`SweepCache`] shared by every request thereafter. A
//! leader outcome that was shaped by the leader's own budget (a
//! budget-exhausted error, or exhaustion-caused degradations) is never
//! handed to a joiner, whose limits may differ: the joiner recomputes
//! under its own limits against the shared cache instead (counted as
//! `coalesce_recomputes`).
//!
//! # Admission control
//!
//! A request's deadline is anchored at *arrival* (the moment its line was
//! read), not at solver start: a request that has already overstayed when
//! a worker picks it up — or that finishes its coalesced computation too
//! late — is answered with a typed `budget-exhausted` error rather than a
//! dropped connection or a stale success. On top of the deadline, the
//! loop bounds the number of explore requests in flight in the pool
//! ([`ServiceConfig::max_in_flight`]): once the bound is reached, further
//! explores are *shed* immediately with a typed `overloaded` error
//! (counted as `shed_requests`) instead of queueing without bound —
//! under overload the server degrades into fast rejections, not growing
//! latency. Shedding comes before the decode and the cache probe, so a
//! shed costs the same whether or not the request would have hit; a hit
//! answered on the loop never occupies an in-flight slot.
//!
//! # Connection lifecycle
//!
//! Every connection carries deadlines that the loop reads off the
//! connections themselves: each turn waits no longer than the earliest
//! one, and once that instant has passed closes every connection whose
//! deadline is due. Deadlines and socket readiness thus share one
//! blocking point: an idle server never spins, and it wakes when the
//! nearest deadline falls due. Two clocks run per connection:
//!
//! * an **idle timeout** ([`ServiceConfig::idle_timeout`]) for
//!   connections with nothing pending — no partial line, no outstanding
//!   compute, no unflushed output — that simply go silent;
//! * a **progress deadline** ([`ServiceConfig::progress_timeout`])
//!   anchored at the start of any I/O obligation: a request line that
//!   began arriving must finish within it (slowloris defense), and a
//!   backpressure pause (or a half-open peer's pending output after its
//!   EOF) must drain within it (stalled-reader defense).
//!
//! Every close is typed with a reason and counted:
//! `closed_ok` (clean completion), `idle_closed`, `slow_closed`
//! (progress deadline or the write hard cap), `reset_by_peer`
//! (transport error, including a hangup on a connection that no longer
//! reads), and `drained` (closed by the shutdown drain). After a clean
//! shutdown the reasons sum to `conns_accepted`.
//!
//! # Shutdown
//!
//! A `shutdown` request starts a graceful drain: the listener is
//! deregistered (stop accepting), reading stops, but in-flight explores
//! keep computing and their responses are flushed before their
//! connections close with reason `drained`. Only when the drain deadline
//! ([`ServiceConfig::drain_timeout`]) expires does the master cancel
//! token stop the remaining solves cooperatively and force the last
//! connections closed. The loop itself is woken explicitly (it never
//! sits in a sleep-and-poll cycle), so shutdown with idle connections
//! open completes in milliseconds.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cred_codegen::DecMode;
use cred_exact::MachineModel;
use cred_explore::cache::SweepCache;
use cred_explore::suite::{load_kernels, SCHEMA_VERSION};
use cred_explore::{
    exact_json, point_json, CacheStats, CredError, ExploreRequest, ExploreResponse, MAX_MAX_F,
    MAX_N,
};
use cred_resilience::{CancelToken, DegradeCause, Exhausted};

use crate::coalesce::{Coalescer, Role};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::poller::{Event, Interest, Poller, Waker};

/// Hard cap on one request line. Sources are small; anything beyond this
/// is rejected as a protocol error and the connection closed.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest accepted `debug_delay_ms` (a test hook must not wedge a
/// worker for long).
const MAX_DEBUG_DELAY_MS: u64 = 5_000;

/// Largest accepted `debug_pad_bytes` (a test hook for inflating one
/// response past the write watermarks; must stay well under the hard
/// cap).
const MAX_DEBUG_PAD_BYTES: u64 = 16 << 20;

/// Registration token of the listen socket (`u64::MAX` is the poller's
/// own wake token; connection tokens count up from zero).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Default unflushed-output level above which a connection stops being
/// read (write backpressure engages).
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Default unflushed-output level below which a paused connection
/// resumes reading.
const WRITE_LOW_WATER: usize = 64 << 10;

/// Default absolute cap on unflushed output: a client that stops reading
/// entirely is disconnected rather than buffered forever (and before
/// that, the progress deadline usually closes it).
const WRITE_HARD_CAP: usize = 1 << 26;

/// Bytes read per connection per readiness event before yielding to
/// other connections (level-triggered readiness re-fires if more data
/// waits).
const READ_FAIR_SHARE: usize = 64 << 10;

/// Server configuration, normally built from `credc serve` flags.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads (the compute pool; connections are not tied to
    /// workers).
    pub workers: usize,
    /// Capacity of the process-wide [`SweepCache`].
    pub cache_capacity: usize,
    /// Default per-request deadline applied when a request names none.
    /// `None` means unlimited.
    pub default_deadline: Option<Duration>,
    /// Directory of `.loop` kernels served by name. `None` disables
    /// named-kernel requests (sources still work).
    pub kernels_dir: Option<PathBuf>,
    /// Where to write a final metrics snapshot on shutdown.
    pub metrics_dump: Option<PathBuf>,
    /// Most explore requests admitted concurrently; beyond this the
    /// server sheds with a typed `overloaded` error.
    pub max_in_flight: usize,
    /// Close a connection with nothing pending after this much silence
    /// (`idle_closed`). `None` disables the idle timeout.
    pub idle_timeout: Option<Duration>,
    /// Deadline on any I/O obligation: a request line must finish
    /// arriving, and a backpressure pause (or half-open peer's pending
    /// output) must drain, within this window (`slow_closed`). `None`
    /// disables the progress deadline.
    pub progress_timeout: Option<Duration>,
    /// How long the shutdown drain waits for in-flight responses before
    /// cancelling the remaining solves and force-closing.
    pub drain_timeout: Duration,
    /// Unflushed-output level above which a connection stops being read.
    pub write_high_water: usize,
    /// Unflushed-output level below which a paused connection resumes
    /// reading.
    pub write_low_water: usize,
    /// Absolute cap on unflushed output.
    pub write_hard_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            cache_capacity: 1024,
            default_deadline: None,
            kernels_dir: None,
            metrics_dump: None,
            max_in_flight: 512,
            idle_timeout: Some(Duration::from_secs(60)),
            progress_timeout: Some(Duration::from_secs(10)),
            drain_timeout: Duration::from_secs(2),
            write_high_water: WRITE_HIGH_WATER,
            write_low_water: WRITE_LOW_WATER,
            write_hard_cap: WRITE_HARD_CAP,
        }
    }
}

/// The deduplication key of an explore request
/// ([`ExploreRequest::coalesce_key`]).
type ExploreKey = (u64, usize, u64, u8, u64, u64);

/// What evaluating one explore request produced.
type Outcome = Result<ExploreResponse, CredError>;

/// The shared outcome of one coalesced explore computation: the leader
/// computes it once, every joiner clones the `Arc`.
type SharedOutcome = Arc<Outcome>;

/// Everything the workers and the event loop share.
struct Shared {
    cache: SweepCache,
    /// One request per named kernel, its graph fingerprinted once at
    /// start-up: decoding a named explore clones it.
    kernels: HashMap<String, ExploreRequest>,
    metrics: Metrics,
    coalescer: Coalescer<ExploreKey, SharedOutcome>,
    /// Cancelled on shutdown so in-flight solves stop cooperatively.
    master_cancel: CancelToken,
    default_deadline: Option<Duration>,
}

impl Shared {
    fn stats_snapshot(&self) -> crate::MetricsSnapshot {
        self.metrics.snapshot(
            CacheStats::of(&self.cache),
            self.coalescer.poison_recoveries(),
        )
    }
}

/// One explore request in flight to the worker pool.
struct Job {
    token: u64,
    seq: u64,
    req: Json,
    id: Option<String>,
    arrival: Instant,
}

/// A worker's finished response, routed back to its connection.
struct Completion {
    token: u64,
    seq: u64,
    line: String,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    config: ServiceConfig,
}

impl Server {
    /// Bind the listen socket and load the named-kernel table. The
    /// server does not accept connections until [`run`](Self::run).
    pub fn bind(config: ServiceConfig) -> Result<Server, CredError> {
        if config.workers < 1 {
            return Err(CredError::Protocol("workers must be at least 1".into()));
        }
        if config.cache_capacity < 1 {
            return Err(CredError::Protocol(
                "cache capacity must be at least 1".into(),
            ));
        }
        if config.max_in_flight < 1 {
            return Err(CredError::Protocol(
                "max in-flight bound must be at least 1".into(),
            ));
        }
        if config.write_low_water >= config.write_high_water
            || config.write_high_water > config.write_hard_cap
        {
            return Err(CredError::Protocol(
                "write watermarks must satisfy low < high <= hard cap".into(),
            ));
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| CredError::Io(format!("bind {}: {e}", config.addr)))?;
        let kernels = match &config.kernels_dir {
            Some(dir) => load_kernels(dir)
                .map_err(|e| CredError::Io(format!("loading kernels: {e}")))?
                .into_iter()
                .map(|(name, g)| (name, ExploreRequest::new(g)))
                .collect(),
            None => HashMap::new(),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache: SweepCache::with_capacity(config.cache_capacity),
                kernels,
                metrics: Metrics::default(),
                coalescer: Coalescer::new(),
                master_cancel: CancelToken::new(),
                default_deadline: config.default_deadline,
            }),
            config,
        })
    }

    /// The bound address (useful when the config asked for port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve until a `shutdown` request arrives. Returns after
    /// the graceful drain has flushed (or the drain deadline has cut off)
    /// in-flight work, every worker has joined, and the optional metrics
    /// dump has been written.
    pub fn run(self) -> Result<(), CredError> {
        self.listener.set_nonblocking(true)?;
        let mut poller = Poller::new().map_err(|e| CredError::Io(format!("poller: {e}")))?;
        poller.register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(self.config.workers);
        for i in 0..self.config.workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&self.shared);
            let completions = Arc::clone(&completions);
            let waker = poller.waker();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cred-service-worker-{i}"))
                    .spawn(move || worker_loop(rx, shared, completions, waker))
                    .map_err(|e| CredError::Io(format!("spawning worker: {e}")))?,
            );
        }
        let mut event_loop = EventLoop {
            poller,
            listener: self.listener,
            conns: HashMap::new(),
            next_token: 0,
            tx,
            completions,
            shared: Arc::clone(&self.shared),
            in_flight: 0,
            max_in_flight: self.config.max_in_flight,
            idle_timeout: self.config.idle_timeout,
            progress_timeout: self.config.progress_timeout,
            drain_timeout: self.config.drain_timeout,
            wm_high: self.config.write_high_water,
            wm_low: self.config.write_low_water,
            wm_hard: self.config.write_hard_cap,
            draining: false,
            drain_deadline: None,
        };
        let result = event_loop.run();
        // Teardown: the loop has already drained gracefully; cancel is
        // idempotent (the drain-deadline path may have fired it), then
        // close the channel and join the pool.
        self.shared.master_cancel.cancel();
        drop(event_loop);
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.config.metrics_dump {
            let snap = self.shared.stats_snapshot();
            std::fs::write(path, snap.to_json() + "\n")
                .map_err(|e| CredError::Io(format!("writing {}: {e}", path.display())))?;
        }
        result
    }
}

/// Why a connection was closed. Every accepted connection ends with
/// exactly one reason, counted in [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Clean completion: the client finished and the last response
    /// flushed.
    Ok,
    /// Idle timeout: nothing pending, silence past the deadline.
    Idle,
    /// Progress deadline: a request line that never finished arriving, a
    /// backpressure pause that never drained, or the write hard cap.
    Slow,
    /// Transport error (reset/EPIPE/read failure, or a hangup on a
    /// connection that no longer reads), including half-open peers whose
    /// pending writes finally failed after their EOF.
    Reset,
    /// Closed by the shutdown drain.
    Drained,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// Bytes read but not yet split into lines.
    rbuf: Vec<u8>,
    /// Rendered responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written.
    wpos: usize,
    /// Ticket handed to the next parsed request.
    next_seq: u64,
    /// Ticket whose response must be flushed next.
    next_flush: u64,
    /// Finished responses waiting for their flush turn.
    done: BTreeMap<u64, String>,
    /// Requests of this connection currently in the worker pool.
    outstanding: usize,
    /// Peer sent EOF (or the connection turned protocol-fatal): stop
    /// reading, finish outstanding work, flush, close.
    read_closed: bool,
    /// Reading paused by write backpressure.
    paused: bool,
    /// Fatal error: drop the connection at the next update.
    dead: bool,
    /// Why `dead` was set (transport errors vs the hard cap); `None`
    /// until then.
    death_reason: Option<CloseReason>,
    /// Last instant the connection was observed non-quiescent (the idle
    /// clock's anchor).
    last_activity: Instant,
    /// When the current partial request line started arriving (the
    /// slowloris clock's anchor); cleared on every completed line.
    partial_since: Option<Instant>,
    /// When the current write-side obligation began: a backpressure
    /// pause, or pending output after the peer's EOF (half-open).
    stalled_since: Option<Instant>,
    /// Marked by the shutdown drain: this connection closes with reason
    /// `Drained`, not `Ok`.
    drain_marked: bool,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The progress deadline, if an I/O obligation is pending.
    fn progress_deadline(&self, progress: Option<Duration>) -> Option<Instant> {
        let window = progress?;
        [self.partial_since, self.stalled_since]
            .iter()
            .flatten()
            .min()
            .map(|since| *since + window)
    }

    /// The idle deadline, if the connection is quiescent.
    fn idle_deadline(&self, idle: Option<Duration>) -> Option<Instant> {
        let window = idle?;
        let quiescent = self.rbuf.is_empty()
            && self.outstanding == 0
            && self.done.is_empty()
            && self.unflushed() == 0;
        quiescent.then(|| self.last_activity + window)
    }

    /// Earliest pending lifecycle deadline, if any.
    fn next_deadline(&self, idle: Option<Duration>, progress: Option<Duration>) -> Option<Instant> {
        self.progress_deadline(progress)
            .into_iter()
            .chain(self.idle_deadline(idle))
            .min()
    }
}

/// The readiness loop: owns the listener, every connection, and the
/// dispatch side of the worker pool.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    tx: mpsc::Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    shared: Arc<Shared>,
    /// Explore requests dispatched to workers and not yet completed.
    in_flight: usize,
    max_in_flight: usize,
    idle_timeout: Option<Duration>,
    progress_timeout: Option<Duration>,
    drain_timeout: Duration,
    /// Write watermarks (high engages backpressure, low releases it,
    /// hard disconnects).
    wm_high: usize,
    wm_low: usize,
    wm_hard: usize,
    /// A `shutdown` request was seen: the listener is closed and the
    /// loop is finishing in-flight responses.
    draining: bool,
    /// When the drain gives up waiting and force-closes.
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) -> Result<(), CredError> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.draining && self.conns.is_empty() && self.in_flight == 0 {
                return Ok(());
            }
            // The wait is bounded only by the earliest connection
            // deadline (and the drain deadline): with no deadlines pending
            // every wakeup is an explicit event — socket readiness, a
            // worker completion — and the loop never spins.
            let due = self.next_deadline();
            let timeout = due.map(|t| t.saturating_duration_since(Instant::now()));
            let woken = self
                .poller
                .wait(&mut events, timeout)
                .map_err(|e| CredError::Io(format!("poll wait: {e}")))?;
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                if ev.token == LISTENER_TOKEN {
                    if !self.draining {
                        self.accept_all();
                    }
                } else {
                    self.handle_conn_event(ev);
                }
            }
            events = batch;
            if woken {
                self.drain_completions();
            }
            let now = Instant::now();
            if due.is_some_and(|t| t <= now) {
                self.close_due(now);
            }
            if let Some(dd) = self.drain_deadline {
                if now >= dd {
                    self.force_drain();
                    return Ok(());
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.register(fd, token, Interest::READ);
                    Metrics::bump(&self.shared.metrics.conns_accepted);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            next_seq: 0,
                            next_flush: 0,
                            done: BTreeMap::new(),
                            outstanding: 0,
                            read_closed: false,
                            paused: false,
                            dead: false,
                            death_reason: None,
                            last_activity: Instant::now(),
                            partial_since: None,
                            stalled_since: None,
                            drain_marked: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the
                // peer already reset): try again on the next event.
                Err(_) => return,
            }
        }
    }

    fn handle_conn_event(&mut self, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };
        if ev.hangup && (conn.read_closed || conn.paused) {
            // No read will surface this socket's error (a peer that reset
            // after its EOF leaves EPIPE there), and the hangup stays
            // reported after the error is taken: close now, or every turn
            // until the next write fails would wake on it.
            conn.dead = true;
            conn.death_reason = Some(CloseReason::Reset);
        } else if ev.readable || ev.hangup {
            self.read_conn(ev.token);
        }
        self.update_conn(ev.token);
    }

    /// Pull bytes (up to a fairness share) and process every complete
    /// line they complete.
    fn read_conn(&mut self, token: u64) {
        let mut chunk = [0u8; 16 << 10];
        let mut taken = 0usize;
        loop {
            let arrival = Instant::now();
            let n = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.read_closed || conn.paused || conn.dead || taken >= READ_FAIR_SHARE {
                    return;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        // A trailing partial line (no newline) is
                        // discarded, as a blocking reader would have.
                        conn.rbuf.clear();
                        conn.partial_since = None;
                        return;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = arrival;
                        n
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        conn.death_reason = Some(CloseReason::Reset);
                        return;
                    }
                }
            };
            taken += n;
            // One arrival stamp per read, shared by every line drained
            // from it: a pipelined line must not have its deadline clock
            // start only after its predecessors were handled.
            self.process_lines(token, arrival);
        }
    }

    /// Split the read buffer into complete lines and handle each. Also
    /// keeps the slowloris anchor: a partial line left behind starts (or
    /// keeps) the progress clock; every completed line resets it.
    fn process_lines(&mut self, token: u64, arrival: Instant) {
        loop {
            let line: Vec<u8> = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                match conn.rbuf.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        // A line completed: the next partial (if any)
                        // gets a fresh progress anchor below.
                        conn.partial_since = None;
                        let line = conn.rbuf.drain(..=nl).collect();
                        line
                    }
                    None => {
                        if conn.rbuf.len() > MAX_LINE_BYTES {
                            // Protocol-fatal: answer with a typed error,
                            // then close once everything already queued
                            // has flushed.
                            let e = CredError::Protocol(format!(
                                "request line exceeds {MAX_LINE_BYTES} bytes"
                            ));
                            Metrics::bump(&self.shared.metrics.requests);
                            Metrics::bump(&self.shared.metrics.errors);
                            let seq = conn.next_seq;
                            conn.next_seq += 1;
                            conn.done.insert(seq, error_response(&None, &e));
                            conn.read_closed = true;
                            conn.rbuf = Vec::new();
                            conn.partial_since = None;
                        } else if !conn.rbuf.is_empty() && conn.partial_since.is_none() {
                            conn.partial_since = Some(arrival);
                        }
                        return;
                    }
                }
            };
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                self.handle_line(token, trimmed, arrival);
                if self.draining {
                    return;
                }
            }
        }
    }

    /// Handle one request line: cheap requests inline, explores to the
    /// pool (or shed). The response — when already known — is enqueued
    /// at this request's ticket so pipelined responses stay in order.
    fn handle_line(&mut self, token: u64, line: &str, arrival: Instant) {
        let shared = Arc::clone(&self.shared);
        Metrics::bump(&shared.metrics.requests);
        let seq = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            seq
        };
        let req = match json::parse(line) {
            Ok(v @ Json::Obj(_)) => v,
            Ok(_) => {
                Metrics::bump(&shared.metrics.errors);
                let e = CredError::Protocol("request must be a JSON object".into());
                self.finish(token, seq, error_response(&None, &e));
                return;
            }
            Err(msg) => {
                Metrics::bump(&shared.metrics.errors);
                let e = CredError::Protocol(format!("bad JSON: {msg}"));
                self.finish(token, seq, error_response(&None, &e));
                return;
            }
        };
        let id = req.get("id").map(Json::to_compact);
        match req.get("type").and_then(Json::as_str) {
            Some("ping") => {
                Metrics::bump(&shared.metrics.ok);
                self.finish(
                    token,
                    seq,
                    format!("{},\"type\":\"pong\"}}", head(true, &id)),
                );
            }
            Some("stats") => {
                Metrics::bump(&shared.metrics.ok);
                let snap = shared.stats_snapshot();
                self.finish(
                    token,
                    seq,
                    format!(
                        "{},\"type\":\"stats\",\"stats\":{}}}",
                        head(true, &id),
                        snap.to_json()
                    ),
                );
            }
            Some("shutdown") => {
                Metrics::bump(&shared.metrics.ok);
                self.finish(
                    token,
                    seq,
                    format!("{},\"type\":\"shutdown\"}}", head(true, &id)),
                );
                self.begin_drain();
            }
            Some("explore") => {
                if self.in_flight >= self.max_in_flight {
                    // Shed instead of queueing: the deadline clock is
                    // already running, and admitting more work than the
                    // pool can start only converts future capacity into
                    // queue latency.
                    Metrics::bump(&shared.metrics.errors);
                    Metrics::bump(&shared.metrics.shed_requests);
                    let e = CredError::Overloaded {
                        limit: self.max_in_flight,
                    };
                    self.finish(token, seq, error_response(&id, &e));
                    return;
                }
                if let Some(line) = serve_on_loop(&req, &id, arrival, &shared) {
                    self.finish(token, seq, line);
                    return;
                }
                self.in_flight += 1;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.outstanding += 1;
                }
                // Send can only fail once the pool is gone, which only
                // happens during teardown; the connection is going away
                // with it.
                let _ = self.tx.send(Job {
                    token,
                    seq,
                    req,
                    id,
                    arrival,
                });
            }
            Some(other) => {
                Metrics::bump(&shared.metrics.errors);
                let e = CredError::Protocol(format!("unknown request type {other:?}"));
                self.finish(token, seq, error_response(&id, &e));
            }
            None => {
                Metrics::bump(&shared.metrics.errors);
                let e = CredError::Protocol("missing request type".into());
                self.finish(token, seq, error_response(&id, &e));
            }
        }
    }

    /// Record a finished response at its ticket.
    fn finish(&mut self, token: u64, seq: u64, line: String) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.done.insert(seq, line);
        }
    }

    /// Route every queued worker completion to its connection and flush.
    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut q = self
                .completions
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::take(&mut *q)
        };
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for c in batch {
            self.in_flight -= 1;
            if let Some(conn) = self.conns.get_mut(&c.token) {
                conn.outstanding -= 1;
                conn.done.insert(c.seq, c.line);
                touched.push(c.token);
            }
        }
        touched.dedup();
        for token in touched {
            self.update_conn(token);
        }
    }

    /// Advance one connection's output state machine: move in-order
    /// responses to the write buffer, write greedily, adjust
    /// backpressure, lifecycle anchors, and poller interest, close when
    /// finished or dead.
    fn update_conn(&mut self, token: u64) {
        let verdict = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Output pending on entry: a write below may empty the
            // connection, and the idle clock then starts at this flush.
            let had_output = !conn.done.is_empty() || conn.unflushed() > 0;
            flush_ready(conn);
            if !conn.dead && try_write(conn).is_err() {
                conn.dead = true;
                conn.death_reason = Some(CloseReason::Reset);
            }
            let unflushed = conn.unflushed();
            if unflushed > self.wm_hard {
                // The reader fell so far behind that even the progress
                // deadline hasn't caught it yet: same taxonomy, slow.
                conn.dead = true;
                conn.death_reason.get_or_insert(CloseReason::Slow);
            }
            conn.paused = if conn.paused {
                unflushed >= self.wm_low
            } else {
                unflushed >= self.wm_high
            };
            // Lifecycle anchors. The idle clock refreshes while anything
            // is pending and when a reply was flushed, so a connection
            // goes quiet when its last reply leaves, not when the request
            // that asked for it arrived; the write-side progress clock
            // anchors when a backpressure pause (or a half-open peer's
            // pending output) begins and clears only when the obligation
            // does.
            let now = Instant::now();
            if had_output
                || !conn.rbuf.is_empty()
                || conn.outstanding > 0
                || unflushed > 0
                || !conn.done.is_empty()
            {
                conn.last_activity = now;
            }
            if conn.paused || (conn.read_closed && unflushed > 0) {
                conn.stalled_since.get_or_insert(now);
            } else {
                conn.stalled_since = None;
            }
            let finished =
                conn.read_closed && conn.outstanding == 0 && conn.done.is_empty() && unflushed == 0;
            if conn.dead {
                Some(conn.death_reason.unwrap_or(CloseReason::Reset))
            } else if finished {
                Some(if conn.drain_marked {
                    CloseReason::Drained
                } else {
                    CloseReason::Ok
                })
            } else {
                let want = Interest {
                    readable: !conn.read_closed && !conn.paused,
                    writable: unflushed > 0,
                };
                self.poller.register(conn.fd, token, want);
                None
            }
        };
        if let Some(reason) = verdict {
            self.remove_conn(token, reason);
        }
    }

    fn remove_conn(&mut self, token: u64, reason: CloseReason) {
        if let Some(conn) = self.conns.remove(&token) {
            // Deregister before the fd closes: the poll(2) table would
            // otherwise poll a dead (or reused) fd.
            self.poller.deregister(conn.fd);
            let m = &self.shared.metrics;
            Metrics::bump(match reason {
                CloseReason::Ok => &m.closed_ok,
                CloseReason::Idle => &m.idle_closed,
                CloseReason::Slow => &m.slow_closed,
                CloseReason::Reset => &m.reset_by_peer,
                CloseReason::Drained => &m.drained,
            });
        }
    }

    /// The instant the loop must wake at even if nothing is ready: the
    /// earliest connection deadline or the drain deadline.
    fn next_deadline(&self) -> Option<Instant> {
        self.conns
            .values()
            .filter_map(|conn| conn.next_deadline(self.idle_timeout, self.progress_timeout))
            .chain(self.drain_deadline)
            .min()
    }

    /// Close every connection whose deadline has passed. Which clock ran
    /// out decides the reason; pending output is dropped — the peer is
    /// gone or hostile.
    fn close_due(&mut self, now: Instant) {
        let due: Vec<(u64, CloseReason)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| {
                let is_due = |d: Option<Instant>| d.is_some_and(|d| d <= now);
                if is_due(conn.progress_deadline(self.progress_timeout)) {
                    Some((token, CloseReason::Slow))
                } else if is_due(conn.idle_deadline(self.idle_timeout)) {
                    Some((token, CloseReason::Idle))
                } else {
                    None
                }
            })
            .collect();
        for (token, reason) in due {
            self.remove_conn(token, reason);
        }
    }

    /// Enter the graceful drain: stop accepting, stop reading, finish
    /// and flush what is in flight. Connections still open close with
    /// reason `drained` once their work completes (or when the drain
    /// deadline force-closes them).
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.drain_timeout);
        self.poller.deregister(self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                if !conn.read_closed {
                    conn.drain_marked = true;
                    conn.read_closed = true;
                    conn.rbuf.clear();
                    conn.partial_since = None;
                }
            }
            self.update_conn(token);
        }
    }

    /// The drain deadline passed with work still pending: cancel the
    /// remaining solves cooperatively, give their completions a brief
    /// window to land, flush best-effort, and close everything.
    fn force_drain(&mut self) {
        self.shared.master_cancel.cancel();
        let cutoff = Instant::now() + Duration::from_millis(300);
        let mut events: Vec<Event> = Vec::new();
        while self.in_flight > 0 && Instant::now() < cutoff {
            match self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)))
            {
                Ok(true) => self.drain_completions(),
                Ok(false) => {}
                Err(_) => break,
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                flush_ready(conn);
                let _ = try_write(conn);
            }
            self.remove_conn(token, CloseReason::Drained);
        }
    }
}

/// Move every response whose turn has come into the write buffer.
fn flush_ready(conn: &mut Conn) {
    while let Some(line) = conn.done.remove(&conn.next_flush) {
        conn.wbuf.extend_from_slice(line.as_bytes());
        conn.wbuf.push(b'\n');
        conn.next_flush += 1;
    }
}

/// Write as much buffered output as the socket accepts right now.
fn try_write(conn: &mut Conn) -> std::io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > (64 << 10) {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    Ok(())
}

/// A compute worker: take explore jobs, evaluate, push the rendered
/// response line, wake the loop. Never touches a socket.
fn worker_loop(
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    shared: Arc<Shared>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
) {
    loop {
        // Take the next job; the channel closing means shutdown.
        let job = {
            let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.recv()
        };
        let Ok(job) = job else { return };
        // A panicking solve must still produce a completion: the loop's
        // in-flight accounting (and the client) both wait for it.
        let line = catch_unwind(AssertUnwindSafe(|| {
            explore_line(&job.req, &job.id, job.arrival, &shared)
        }))
        .unwrap_or_else(|_| internal_error(&job.id, &shared));
        completions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Completion {
                token: job.token,
                seq: job.seq,
                line,
            });
        waker.wake();
    }
}

/// The response to a request whose handling panicked: a typed `solve`
/// error, so the client gets an answer and the loop keeps serving.
fn internal_error(id: &Option<String>, shared: &Shared) -> String {
    Metrics::bump(&shared.metrics.errors);
    error_response(id, &CredError::Solve("internal error".into()))
}

/// Answer an explore on the event loop when the shared cache already
/// holds the memoized point of every factor it asks for; `None` sends it
/// to the pool. A request with a `source` (parsing is compute), a
/// `debug_delay_ms` (the hook must hold a flight open) or a
/// `debug_pad_bytes` (a reply of up to 16 MiB must count against
/// `max_in_flight`) is not decoded here, and one that fails to decode is
/// left for the pool to answer.
fn serve_on_loop(
    req: &Json,
    id: &Option<String>,
    arrival: Instant,
    shared: &Shared,
) -> Option<String> {
    if ["source", "debug_delay_ms", "debug_pad_bytes"]
        .iter()
        .any(|key| req.get(key).is_some())
    {
        return None;
    }
    catch_unwind(AssertUnwindSafe(|| {
        let params = ExploreParams::decode(req, shared).ok()?;
        let resp = params.request.run_memoized(&shared.cache)?;
        Metrics::bump(&shared.metrics.loop_hits);
        Some(reply(id, arrival, Ok((&params, &Ok(resp), false)), shared))
    }))
    .unwrap_or_else(|_| Some(internal_error(id, shared)))
}

/// The pool's side of one explore request: decode, evaluate, reply.
fn explore_line(req: &Json, id: &Option<String>, arrival: Instant, shared: &Shared) -> String {
    match ExploreParams::decode(req, shared) {
        Ok(params) => {
            let (outcome, coalesced) = evaluate(&params, arrival, shared);
            reply(id, arrival, Ok((&params, &outcome, coalesced)), shared)
        }
        Err(e) => reply(id, arrival, Err(e), shared),
    }
}

/// Admit and evaluate one decoded request on a worker, coalesced with
/// identical requests in flight. Returns the outcome and whether it was
/// shared from another request's flight.
fn evaluate(params: &ExploreParams, arrival: Instant, shared: &Shared) -> (SharedOutcome, bool) {
    // Admission: a request that overstayed its deadline in the queue is
    // rejected before any solver runs.
    if let Err(e) = check_deadline(arrival, params.deadline) {
        return (Arc::new(Err(e)), false);
    }
    let request = &params.request;
    let (result, role) = shared.coalescer.run(request.coalesce_key(), || {
        if let Some(ms) = params.debug_delay_ms {
            // Test hook: hold the flight open so concurrent identical
            // requests demonstrably join it.
            std::thread::sleep(Duration::from_millis(ms));
        }
        Arc::new(request.run_with(&shared.cache))
    });
    // A joiner must not inherit an outcome shaped by the *leader's*
    // resource limits: the key excludes deadline/work_limit, so a leader
    // whose budget truncated the sweep (or exhausted outright) would hand
    // a spuriously degraded result — or a spurious budget error — to a
    // joiner with a roomier budget. Such outcomes are recomputed under
    // this request's own limits; the leader's surviving work is in the
    // shared cache, so the recompute pays only for what was cut.
    if role == Role::Joined && budget_tainted(&result) {
        Metrics::bump(&shared.metrics.explore_computes);
        Metrics::bump(&shared.metrics.coalesce_recomputes);
        return (Arc::new(request.run_with(&shared.cache)), false);
    }
    match role {
        Role::Led => Metrics::bump(&shared.metrics.explore_computes),
        Role::Joined => Metrics::bump(&shared.metrics.coalesced_joins),
    }
    (result, role == Role::Joined)
}

/// Render the reply to one explore request, on the loop or in the pool,
/// keeping the ok/error counters. `evaluated` is the decoded request, its
/// outcome and whether that was coalesced, or the decode error.
fn reply(
    id: &Option<String>,
    arrival: Instant,
    evaluated: Result<(&ExploreParams, &Outcome, bool), CredError>,
    shared: &Shared,
) -> String {
    let rendered = evaluated.and_then(|(params, outcome, coalesced)| {
        // The deadline is anchored at arrival: a computation that finished
        // too late — queued, coalesced onto a slow flight, or just slow —
        // is an exhaustion, not a success.
        check_deadline(arrival, params.deadline)?;
        let resp = outcome.as_ref().map_err(Clone::clone)?;
        // Accumulate per-point fallout before the strict check, so strict
        // requests that observe degradation still show up in the counters
        // meant to track it.
        let degraded = resp.degradations().len();
        shared
            .metrics
            .degraded_points
            .fetch_add(degraded as u64, Ordering::Relaxed);
        shared
            .metrics
            .failed_points
            .fetch_add(resp.failures().len() as u64, Ordering::Relaxed);
        if params.strict && degraded > 0 {
            return Err(CredError::DegradedUnderStrict { degraded });
        }
        shared.metrics.explore_latency.record(arrival.elapsed());
        Ok(render_explore(
            id,
            resp,
            coalesced,
            params.debug_pad_bytes.unwrap_or(0) as usize,
            shared,
        ))
    });
    match rendered {
        Ok(line) => {
            Metrics::bump(&shared.metrics.ok);
            line
        }
        Err(e) => {
            Metrics::bump(&shared.metrics.errors);
            if matches!(e, CredError::BudgetExhausted(_)) {
                Metrics::bump(&shared.metrics.budget_exhaustions);
            }
            error_response(id, &e)
        }
    }
}

/// Whether a shared explore outcome depends on the resource limits of the
/// request that computed it — a budget-exhausted error, or a success
/// containing exhaustion-caused degradations. Equal coalesce keys only
/// guarantee bit-identical responses under budgets that never bind, so
/// these outcomes must not be served to a coalesce joiner.
fn budget_tainted(outcome: &Outcome) -> bool {
    match outcome {
        Err(e) => matches!(e, CredError::BudgetExhausted(_)),
        Ok(resp) => resp
            .degradations()
            .iter()
            .any(|ev| matches!(ev.cause, DegradeCause::Exhausted(_))),
    }
}

fn check_deadline(arrival: Instant, deadline: Option<Duration>) -> Result<(), CredError> {
    match deadline {
        Some(limit) if arrival.elapsed() >= limit => {
            Err(CredError::BudgetExhausted(Exhausted::Deadline { limit }))
        }
        _ => Ok(()),
    }
}

/// A decoded explore request: the library request, limits attached, plus
/// the wire parameters its reply and the pool need.
struct ExploreParams {
    request: ExploreRequest,
    /// The request's deadline, or the server's default.
    deadline: Option<Duration>,
    strict: bool,
    debug_delay_ms: Option<u64>,
    debug_pad_bytes: Option<u64>,
}

impl ExploreParams {
    fn decode(req: &Json, shared: &Shared) -> Result<ExploreParams, CredError> {
        let request = match (
            req.get("kernel").and_then(Json::as_str),
            req.get("source").and_then(Json::as_str),
        ) {
            (Some(_), Some(_)) => {
                return Err(CredError::Protocol(
                    "give either \"kernel\" or \"source\", not both".into(),
                ))
            }
            (Some(name), None) => match shared.kernels.get(name) {
                Some(request) => request.clone(),
                None => return Err(CredError::Protocol(format!("unknown kernel {name:?}"))),
            },
            (None, Some(src)) => ExploreRequest::from_source(src)?,
            (None, None) => {
                return Err(CredError::Protocol(
                    "explore needs a \"kernel\" name or a \"source\"".into(),
                ))
            }
        };
        let max_f = match req.get("max_f") {
            None => 4,
            Some(v) => match v.as_u64() {
                Some(f) if (1..=MAX_MAX_F as u64).contains(&f) => f as usize,
                _ => {
                    return Err(CredError::Protocol(format!(
                        "max_f must be an integer in 1..={MAX_MAX_F}"
                    )))
                }
            },
        };
        let n = match req.get("n") {
            None => 101,
            Some(v) => match v.as_u64() {
                Some(n) if (1..=MAX_N).contains(&n) => n,
                _ => {
                    return Err(CredError::Protocol(format!(
                        "n must be an integer in 1..={MAX_N}"
                    )))
                }
            },
        };
        let mode = match req.get("mode") {
            None => DecMode::Bulk,
            Some(v) => match v.as_str() {
                Some("bulk") => DecMode::Bulk,
                Some("per-copy") => DecMode::PerCopy,
                _ => {
                    return Err(CredError::Protocol(
                        "mode must be \"bulk\" or \"per-copy\"".into(),
                    ))
                }
            },
        };
        let machine = match req.get("machine") {
            None => None,
            Some(v) => match v.as_str().and_then(MachineModel::builtin) {
                Some(m) => Some(m),
                None => {
                    return Err(CredError::Protocol(format!(
                        "machine must be one of {:?}",
                        MachineModel::BUILTIN_NAMES
                    )))
                }
            },
        };
        let max_registers = match req.get("max_registers") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(cap) => Some(cap as usize),
                None => {
                    return Err(CredError::Protocol(
                        "max_registers must be a non-negative integer".into(),
                    ))
                }
            },
        };
        // The server speaks one schema; a client naming another is refused.
        if let Some(v) = req.get("schema_version") {
            if v.as_u64() != Some(SCHEMA_VERSION as u64) {
                return Err(CredError::Protocol(format!(
                    "schema_version must be {SCHEMA_VERSION}"
                )));
            }
        }
        let strict = match req.get("strict") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| CredError::Protocol("strict must be a boolean".into()))?,
        };
        let deadline = match req.get("deadline_ms") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(ms) if ms >= 1 => Some(Duration::from_millis(ms)),
                _ => {
                    return Err(CredError::Protocol(
                        "deadline_ms must be an integer >= 1".into(),
                    ))
                }
            },
        };
        let work_limit = match req.get("work_limit") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(w) => Some(w),
                None => {
                    return Err(CredError::Protocol(
                        "work_limit must be a non-negative integer".into(),
                    ))
                }
            },
        };
        let debug_delay_ms = match req.get("debug_delay_ms") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(ms) if ms <= MAX_DEBUG_DELAY_MS => Some(ms),
                _ => {
                    return Err(CredError::Protocol(format!(
                        "debug_delay_ms must be an integer <= {MAX_DEBUG_DELAY_MS}"
                    )))
                }
            },
        };
        // Test hook like debug_delay_ms: inflate the response with a
        // `pad` field of this many filler bytes, so lifecycle tests can
        // push one response past the write watermarks deterministically.
        let debug_pad_bytes = match req.get("debug_pad_bytes") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(b) if b <= MAX_DEBUG_PAD_BYTES => Some(b),
                _ => {
                    return Err(CredError::Protocol(format!(
                        "debug_pad_bytes must be an integer <= {MAX_DEBUG_PAD_BYTES}"
                    )))
                }
            },
        };
        let deadline = deadline.or(shared.default_deadline);
        let mut request = request
            .max_f(max_f)
            .trip_count(n)
            .mode(mode)
            .cancel(shared.master_cancel.clone());
        if let Some(m) = machine {
            request = request.machine(m);
        }
        if let Some(cap) = max_registers {
            request = request.max_registers(cap);
        }
        if let Some(d) = deadline {
            request = request.deadline(d);
        }
        if let Some(w) = work_limit {
            request = request.work_limit(w);
        }
        Ok(ExploreParams {
            request,
            deadline,
            strict,
            debug_delay_ms,
            debug_pad_bytes,
        })
    }
}

fn head(ok: bool, id: &Option<String>) -> String {
    let mut s = format!("{{\"ok\":{ok},\"schema_version\":{SCHEMA_VERSION}");
    if let Some(id) = id {
        s.push_str(",\"id\":");
        s.push_str(id);
    }
    s
}

fn error_response(id: &Option<String>, e: &CredError) -> String {
    format!(
        "{},\"error\":{{\"code\":{},\"message\":{}}}}}",
        head(false, id),
        json::escape(e.code()),
        json::escape(&e.to_string())
    )
}

fn render_explore(
    id: &Option<String>,
    resp: &ExploreResponse,
    coalesced: bool,
    pad_bytes: usize,
    shared: &Shared,
) -> String {
    let mut out = head(true, id);
    out.push_str(",\"type\":\"explore\"");
    out.push_str(&format!(",\"coalesced\":{coalesced}"));
    out.push_str(",\"points\":[");
    for (i, p) in resp.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&point_json(p));
    }
    out.push_str("],\"frontier\":[");
    for (i, p) in resp.frontier.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&point_json(p));
    }
    out.push_str("],\"degraded\":[");
    for (i, ev) in resp.degradations().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"site\":{},\"cause\":{}}}",
            json::escape(&ev.site),
            json::escape(&ev.cause.to_string())
        ));
    }
    out.push_str("],\"failed\":[");
    for (i, (f, msg)) in resp.failures().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"f\":{},\"message\":{}}}",
            f,
            json::escape(msg)
        ));
    }
    out.push(']');
    // The exact verdict appears only when the request named a machine, so
    // pre-machine clients never see the key.
    if let Some(exact) = &resp.exact {
        out.push_str(",\"exact\":");
        out.push_str(&exact_json(exact));
    }
    // Test hook (`debug_pad_bytes`): absent from every real response.
    if pad_bytes > 0 {
        out.push_str(",\"pad\":\"");
        out.extend(std::iter::repeat_n('x', pad_bytes));
        out.push('"');
    }
    // Cache counters are re-read at render time: for the shared cache the
    // response-embedded snapshot inside `resp` may be stale by now.
    let cache = CacheStats::of(&shared.cache);
    out.push_str(&format!(
        ",\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"poison_recoveries\":{}}}}}",
        cache.hits, cache.misses, cache.evictions, cache.poison_recoveries
    ));
    out
}
