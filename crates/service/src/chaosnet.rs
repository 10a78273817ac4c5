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
//! `ChaosPlan::sample`, so a connection's plan replays from the seed and
//! the connection's accept index.
//!
//! # Threads, and why the proxy cannot spin
//!
//! The proxy carries test traffic only, so it uses threads where the
//! server runs an event loop: one accept thread, and two pump threads per
//! proxied connection, one per direction, each on a small fixed stack. A
//! pump blocks in `read` on its source and in `write` on its sink, and
//! sleeps where a fault says to wait. No proxy thread polls, so none can
//! spin. With `c` connections open the proxy runs `1 + 2c` threads; under
//! closed-loop `loadgen --chaos` that is about `2 × --clients + 1`.
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

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes a pump reads from its source at once.
const READ_CHUNK: usize = 16 << 10;

/// Stack of every proxy thread: a pump keeps its read buffer on the heap
/// and calls nothing deeper than `read`, `write` and `sleep`.
const THREAD_STACK: usize = 64 << 10;

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
    /// Shut down both sockets once `bytes` have been forwarded in this
    /// direction and more wait — a mid-frame (often mid-response)
    /// connection reset.
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

/// A copy of the proxy's injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// The fault-injection proxy. [`spawn`](ChaosProxy::spawn) binds a
/// local port, starts the accept thread, and returns a [`ProxyHandle`].
pub struct ChaosProxy;

/// What the accept thread, the pumps and the handle share.
#[derive(Default)]
struct Shared {
    stats: Mutex<ProxyStatsSnapshot>,
    stop: AtomicBool,
    /// The proxied connections the handle may still have to close.
    open: Mutex<Vec<Open>>,
}

/// A proxied connection as the handle sees it: its sockets, alive while
/// a pump holds them, and its two pumps.
struct Open {
    sockets: Weak<Sockets>,
    pumps: [JoinHandle<()>; 2],
}

/// The client-facing and upstream sockets of one proxied connection.
struct Sockets {
    client: TcpStream,
    upstream: TcpStream,
}

impl Sockets {
    /// End the connection: blocked reads on either socket return EOF and
    /// blocked writes fail, so both pumps exit.
    fn shut_down(&self) {
        let _ = self.client.shutdown(Shutdown::Both);
        let _ = self.upstream.shutdown(Shutdown::Both);
    }
}

/// A running proxy: its address, counters, and shutdown control.
pub struct ProxyHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ProxyHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current injection counters.
    pub fn stats(&self) -> ProxyStatsSnapshot {
        *lock(&self.shared.stats)
    }

    /// Stop the proxy, closing every proxied connection. Dropping the
    /// handle does the same.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ProxyHandle {
    /// Wake the accept thread with a connection of our own, then shut
    /// down the sockets of every open connection and join its pumps. A
    /// pump asleep in a fault finishes its sleep first.
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let woken = TcpStream::connect(self.addr).is_ok();
        if let Some(accept) = self.accept.take().filter(|_| woken) {
            let _ = accept.join();
        }
        let open = std::mem::take(&mut *lock(&self.shared.open));
        for sockets in open.iter().filter_map(|conn| conn.sockets.upgrade()) {
            sockets.shut_down();
        }
        for pump in open.into_iter().flat_map(|conn| conn.pumps) {
            let _ = pump.join();
        }
    }
}

/// Every update under the proxy's locks is one step, so a lock that a
/// panicking thread poisoned still guards valid data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawn_thread(name: &str, body: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    let builder = std::thread::Builder::new().name(name.into());
    builder.stack_size(THREAD_STACK).spawn(body)
}

impl ChaosProxy {
    /// Bind `127.0.0.1:0` and start proxying to `upstream` under
    /// `config`'s fault regime.
    pub fn spawn(upstream: SocketAddr, config: ChaosProxyConfig) -> io::Result<ProxyHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let accepting = Arc::clone(&shared);
        let accept = Some(spawn_thread("cred-chaosnet", move || {
            serve(listener, upstream, config, accepting)
        })?);
        Ok(ProxyHandle {
            addr,
            shared,
            accept,
        })
    }
}

/// Accept clients until the handle stops the proxy. Each client is
/// paired with a fresh upstream connection, gets the plan of its accept
/// index, and is served by two pumps.
fn serve(listener: TcpListener, upstream: SocketAddr, cfg: ChaosProxyConfig, shared: Arc<Shared>) {
    for index in 0u64.. {
        let (client, upstream) = loop {
            let accepted = listener.accept();
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match accepted.map(|(client, _)| (client, TcpStream::connect(upstream))) {
                Ok((client, Ok(upstream))) => break (client, upstream),
                Ok(_) => {}
                // Out of descriptors, say: back off instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let _ = client.set_nodelay(true);
        let _ = upstream.set_nodelay(true);
        let plan = match &cfg.fixed_plan {
            Some(p) => p.clone(),
            None => NetChaosPlan::for_connection(cfg.seed, index, cfg.trip_percent),
        };
        let mut stats = lock(&shared.stats);
        stats.connections += 1;
        stats.faulted_connections += u64::from(!plan.is_passthrough());
        drop(stats);
        let sockets = Arc::new(Sockets { client, upstream });
        let start = |to_server, faults: Vec<NetFault>| {
            let (sockets, shared) = (Arc::clone(&sockets), Arc::clone(&shared));
            spawn_thread("cred-chaosnet-pump", move || {
                pump(&sockets, to_server, &faults, &shared)
            })
        };
        let to_server = start(true, plan.client_to_server);
        let to_client = start(false, plan.server_to_client);
        let mut open = lock(&shared.open);
        // Forget the connections whose pumps have both exited.
        open.retain(|conn| !conn.pumps.iter().all(JoinHandle::is_finished));
        match (to_server, to_client) {
            (Ok(to_server), Ok(to_client)) => open.push(Open {
                sockets: Arc::downgrade(&sockets),
                pumps: [to_server, to_client],
            }),
            // A pump that did start exits once the sockets are shut.
            _ => sockets.shut_down(),
        }
    }
}

/// Forward one direction of a proxied connection: client to server when
/// `to_server`, else back. At the source's EOF, or a read error, the
/// pump half-closes its sink; an injected reset or a failed write shuts
/// down both sockets.
fn pump(sockets: &Sockets, to_server: bool, faults: &[NetFault], shared: &Shared) {
    let (source, sink) = match to_server {
        true => (&sockets.client, &sockets.upstream),
        false => (&sockets.upstream, &sockets.client),
    };
    let mut pump = Pump {
        sink,
        stats: &shared.stats,
        to_server,
        split: usize::MAX,
        delay: (u64::MAX, Duration::ZERO),
        reset_after: u64::MAX,
        stall: None,
        garbage: None,
        forwarded: 0,
        next_delay: 0,
    };
    for fault in faults {
        match *fault {
            NetFault::SplitWrites { max_chunk } => pump.split = max_chunk.max(1),
            NetFault::DelayWrites {
                every_bytes,
                delay_ms,
            } => pump.delay = (every_bytes.max(1), Duration::from_millis(delay_ms)),
            NetFault::ResetAfter { bytes } => pump.reset_after = bytes,
            NetFault::StallReads {
                after_bytes,
                stall_ms,
            } => pump.stall = Some((after_bytes, stall_ms)),
            NetFault::Garbage { after_bytes, len } => pump.garbage = Some((after_bytes, len)),
        }
    }
    pump.next_delay = pump.delay.0;
    match pump.forward_from(source) {
        Ok(()) => {
            let _ = sink.shutdown(Shutdown::Write);
        }
        Err(Cut) => sockets.shut_down(),
    }
}

/// The connection must end: a write failed, or a reset was injected.
struct Cut;

/// One direction's sink, its faults, and how far its stream has got.
/// The fault fields hold their [`NetFault`]'s parameters. A write-side
/// fault that is not armed keeps its mark at the maximum, where it never
/// fires; the one-shot faults are taken when they fire.
struct Pump<'a> {
    sink: &'a TcpStream,
    stats: &'a Mutex<ProxyStatsSnapshot>,
    to_server: bool,
    split: usize,
    delay: (u64, Duration),
    reset_after: u64,
    stall: Option<(u64, u64)>,
    garbage: Option<(u64, usize)>,
    /// Bytes written to the sink, garbage included.
    forwarded: u64,
    /// The forwarded-byte mark of the next delay.
    next_delay: u64,
}

impl Pump<'_> {
    /// Read `source` to its end, apply the read-side faults, and forward
    /// what it sends.
    fn forward_from(&mut self, mut source: &TcpStream) -> Result<(), Cut> {
        let mut buf = vec![0u8; READ_CHUNK];
        let mut received = 0u64;
        loop {
            let n = match source.read(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Ok(()),
            };
            let start = received;
            received += n as u64;
            let mut chunk = &buf[..n];
            // A stall counts as its offset is crossed; it sleeps once the
            // chunk is forwarded.
            let stall = self.stall.take_if(|s| received >= s.0);
            if stall.is_some() {
                lock(self.stats).stalls_injected += 1;
            }
            // Garbage goes in at the exact stream offset `after`: mid-frame
            // whenever the offset falls inside one, which is what makes
            // the fault bite.
            if let Some((after, len)) = self.garbage.take_if(|g| received >= g.0) {
                lock(self.stats).garbage_injected += 1;
                let (head, tail) = chunk.split_at((after - start) as usize);
                let junk = GARBAGE_BYTES.iter().cycle().take(len).copied();
                self.write(head)?;
                self.write(&junk.collect::<Vec<u8>>())?;
                chunk = tail;
            }
            self.write(chunk)?;
            if let Some((_, stall_ms)) = stall {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
        }
    }

    /// Write all of `bytes` under the write-side faults: at most a split
    /// chunk per write, a sleep at each delay mark, and a cut at the
    /// reset mark. A mark fires only when bytes remain to write past it.
    fn write(&mut self, mut bytes: &[u8]) -> Result<(), Cut> {
        while !bytes.is_empty() {
            if self.forwarded >= self.next_delay {
                lock(self.stats).delays_injected += 1;
                std::thread::sleep(self.delay.1);
                self.next_delay = self.forwarded.saturating_add(self.delay.0);
            }
            if self.forwarded == self.reset_after {
                lock(self.stats).resets_injected += 1;
                return Err(Cut);
            }
            let to_mark = self.next_delay.min(self.reset_after) - self.forwarded;
            let to_mark = usize::try_from(to_mark).unwrap_or(usize::MAX);
            let len = bytes.len().min(self.split).min(to_mark);
            let n = match self.sink.write(&bytes[..len]) {
                Ok(0) => return Err(Cut),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Cut),
            };
            bytes = &bytes[n..];
            self.forwarded += n as u64;
            let mut stats = lock(self.stats);
            match self.to_server {
                true => stats.bytes_client_to_server += n as u64,
                false => stats.bytes_server_to_client += n as u64,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

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

    /// A proxy applying `client_to_server` faults in front of an upstream
    /// that hands its accepted socket to `serve` on a thread of its own.
    fn proxy_to<T: Send + 'static>(
        client_to_server: Vec<NetFault>,
        serve: impl FnOnce(TcpStream) -> T + Send + 'static,
    ) -> (ProxyHandle, std::thread::JoinHandle<T>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener.accept().unwrap().0));
        let plan = NetChaosPlan {
            client_to_server,
            server_to_client: Vec::new(),
        };
        let config = ChaosProxyConfig {
            fixed_plan: Some(plan),
            ..ChaosProxyConfig::default()
        };
        (ChaosProxy::spawn(upstream, config).unwrap(), server)
    }

    /// Everything the upstream receives until the proxy half-closes it.
    fn read_all(mut stream: TcpStream) -> Vec<u8> {
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        got
    }

    #[test]
    fn garbage_is_spliced_in_at_its_exact_offset() {
        let fault = NetFault::Garbage {
            after_bytes: 10,
            len: 3,
        };
        let (proxy, server) = proxy_to(vec![fault], read_all);
        let msg = b"{\"k\":\"0123456789abcdef\"}\n";
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(msg).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let want = [&msg[..10], &[1, 2, 3], &msg[10..]].concat();
        assert_eq!(server.join().unwrap(), want);
        assert_eq!(proxy.stats().garbage_injected, 1);
        proxy.stop();
    }

    #[test]
    fn delayed_writes_hold_the_stream_at_every_mark() {
        let fault = NetFault::DelayWrites {
            every_bytes: 8,
            delay_ms: 100,
        };
        let (proxy, server) = proxy_to(vec![fault], |mut stream| {
            let mut got = [0u8; 20];
            stream.read_exact(&mut got).unwrap();
            (got, Instant::now())
        });
        let msg = b"0123456789abcdefghij";
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let sent = Instant::now();
        client.write_all(msg).unwrap();
        let (got, arrived) = server.join().unwrap();
        assert_eq!(&got, msg);
        // Marks at 8 and 16 bytes, each with bytes still to forward.
        let held = arrived - sent;
        assert!(held >= Duration::from_millis(200), "held only {held:?}");
        assert_eq!(proxy.stats().delays_injected, 2);
        proxy.stop();
    }

    #[test]
    fn stalled_reads_delay_the_next_read() {
        let fault = NetFault::StallReads {
            after_bytes: 4,
            stall_ms: 200,
        };
        let (first_tx, first_rx) = std::sync::mpsc::channel();
        let (proxy, server) = proxy_to(vec![fault], move |mut stream| {
            let mut first = [0u8; 6];
            stream.read_exact(&mut first).unwrap();
            first_tx.send(first).unwrap();
            let mut second = [0u8; 6];
            stream.read_exact(&mut second).unwrap();
            (second, Instant::now())
        });
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let sent = Instant::now();
        client.write_all(b"hello\n").unwrap();
        // The first read crossed the stall offset and was forwarded; the
        // proxy reads nothing more until the stall is over.
        assert_eq!(&first_rx.recv().unwrap(), b"hello\n");
        client.write_all(b"world\n").unwrap();
        let (second, arrived) = server.join().unwrap();
        assert_eq!(&second, b"world\n");
        let stalled = arrived - sent;
        assert!(
            stalled >= Duration::from_millis(200),
            "stalled only {stalled:?}"
        );
        assert_eq!(proxy.stats().stalls_injected, 1);
        proxy.stop();
    }

    #[test]
    fn stop_closes_open_connections() {
        // The upstream takes one byte, then holds its socket open until
        // the test ends.
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (proxy, _server) = proxy_to(Vec::new(), move |mut stream| {
            let mut byte = [0u8; 1];
            stream.read_exact(&mut byte).unwrap();
            held_tx.send(stream).unwrap();
        });
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"x").unwrap();
        let _upstream = held_rx.recv().unwrap();
        let stopped = Instant::now();
        proxy.stop();
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            client.read(&mut buf).unwrap(),
            0,
            "the client must read EOF"
        );
        assert!(stopped.elapsed() < Duration::from_secs(1));
    }
}
