//! Readiness polling for the event-loop server: one level-triggered
//! `poll(2)` table, plus a cross-thread [`Waker`] on a nonblocking
//! self-pipe.
//!
//! The repo deliberately has no external dependencies, so instead of
//! `mio`/`tokio` this module declares the one libc symbol it needs
//! directly (`std` already links libc on every unix target — the
//! declaration adds no dependency, only a signature). The surface is the
//! minimum an NDJSON request/response server needs:
//!
//! * [`Poller::register`] / [`deregister`](Poller::deregister) —
//!   level-triggered read/write interest per file descriptor, each
//!   registration carrying a caller token; registering a watched
//!   descriptor again replaces its token and interest;
//! * [`Poller::wait`] — block until something is ready, translating the
//!   table's `revents` into [`Event`]s;
//! * [`Poller::waker`] — a clonable, `Send` handle that makes `wait`
//!   return from any thread (workers use it to deliver completions, the
//!   shutdown path uses it to interrupt an idle loop promptly).
//!
//! Level-triggered semantics keep the connection state machines simple:
//! an interest that was not fully serviced simply fires again on the
//! next wait. Every wait hands the whole table to the kernel, so it costs
//! O(registered descriptors); a descriptor with no interest reports only
//! errors and hangups, never a peer's half-close.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

mod ffi {
    use std::os::raw::{c_int, c_short};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    /// `struct pollfd`.
    #[derive(Clone, Copy, Debug)]
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

/// One readiness notification: the token given at registration plus what
/// the descriptor is ready for. `hangup` folds in error and hangup
/// conditions, which `poll(2)` reports whatever the interest and keeps
/// reporting after the socket's error has been read: a caller that no
/// longer reads or writes the descriptor must close or deregister it, or
/// every wait returns at once.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// The registration token reserved for the waker's descriptor. `wait`
/// filters it out (wakes are reported via its return value), so callers
/// never observe it.
const WAKE_TOKEN: u64 = u64::MAX;

/// The write end of the self-pipe: clonable and `Send`. Writing is
/// best-effort — a full pipe means a wake is already pending, which is
/// exactly what the writer wanted.
#[derive(Debug, Clone)]
pub struct Waker(Arc<UnixStream>);

impl Waker {
    /// Make the owning poller's `wait` return. Callable from any thread.
    pub fn wake(&self) {
        // WouldBlock means a wake is already pending; any other failure
        // is unrecoverable at this layer and harmless to ignore (the loop
        // also wakes on its own traffic).
        let _ = (&*self.0).write(&[1]);
    }
}

/// Desired readiness per registration (level-triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn poll_mask(self) -> i16 {
        let mut m = 0;
        if self.readable {
            m |= ffi::POLLIN;
        }
        if self.writable {
            m |= ffi::POLLOUT;
        }
        m
    }
}

/// A level-triggered readiness poller over raw fds. Not thread-safe —
/// it belongs to the event loop thread; other threads interact with it
/// only through its [`Waker`].
#[derive(Debug)]
pub struct Poller {
    /// The table handed to `poll(2)`; the kernel rewrites only `revents`.
    pollfds: Vec<ffi::PollFd>,
    /// Registration tokens, parallel to `pollfds`.
    tokens: Vec<u64>,
    /// Each registered descriptor's index in `pollfds`.
    slots: HashMap<RawFd, usize>,
    /// The self-pipe's read end, registered under [`WAKE_TOKEN`].
    wake_read: UnixStream,
    waker: Waker,
}

impl Poller {
    /// A poller whose table holds only its own wake channel.
    pub fn new() -> io::Result<Poller> {
        let (wake_read, wake_write) = UnixStream::pair()?;
        wake_read.set_nonblocking(true)?;
        wake_write.set_nonblocking(true)?;
        let mut poller = Poller {
            pollfds: Vec::new(),
            tokens: Vec::new(),
            slots: HashMap::new(),
            waker: Waker(Arc::new(wake_write)),
            wake_read,
        };
        poller.register(poller.wake_read.as_raw_fd(), WAKE_TOKEN, Interest::READ);
        Ok(poller)
    }

    /// A wake handle for other threads.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Watch `fd` with `interest`; events carry `token`. Registering a
    /// watched fd again replaces its token and interest.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        let events = interest.poll_mask();
        match self.slots.get(&fd) {
            Some(&i) => {
                self.pollfds[i].events = events;
                self.tokens[i] = token;
            }
            None => {
                self.slots.insert(fd, self.pollfds.len());
                self.pollfds.push(ffi::PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                self.tokens.push(token);
            }
        }
    }

    /// Stop watching `fd`. Must be called *before* the fd closes: the
    /// table would otherwise poll a dead (or reused) descriptor.
    pub fn deregister(&mut self, fd: RawFd) {
        let Some(i) = self.slots.remove(&fd) else {
            return;
        };
        self.pollfds.swap_remove(i);
        self.tokens.swap_remove(i);
        if let Some(moved) = self.pollfds.get(i) {
            self.slots.insert(moved.fd, i);
        }
    }

    /// Block until at least one registered fd is ready, a waker fires, or
    /// `timeout` passes. Ready fds are appended to `out` (cleared first);
    /// returns `true` when a wake was consumed.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        out.clear();
        let timeout_ms = timeout_millis(timeout);
        loop {
            // SAFETY: `pollfds` is an exclusively borrowed buffer of
            // `len()` initialized `pollfd`s, and `poll(2)` writes only
            // their `revents` fields.
            let n = unsafe {
                ffi::poll(
                    self.pollfds.as_mut_ptr(),
                    self.pollfds.len() as ffi::NfdsT,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        let mut woken = false;
        for (pfd, &token) in self.pollfds.iter().zip(&self.tokens) {
            if pfd.revents == 0 {
                continue;
            }
            if token == WAKE_TOKEN {
                woken = true;
                continue;
            }
            out.push(Event {
                token,
                readable: pfd.revents & ffi::POLLIN != 0,
                writable: pfd.revents & ffi::POLLOUT != 0,
                hangup: pfd.revents & (ffi::POLLERR | ffi::POLLHUP) != 0,
            });
        }
        if woken {
            // Drain the pipe so the level-triggered table stops reporting
            // it; WouldBlock means it is empty.
            let mut buf = [0u8; 64];
            while matches!((&self.wake_read).read(&mut buf), Ok(n) if n > 0) {}
        }
        Ok(woken)
    }
}

/// Convert a wait timeout to the millisecond argument `poll(2)` expects:
/// `-1` blocks forever, `0` polls and returns. Rounds *up* so a nonzero
/// duration never becomes a 0 ms busy-poll (a deadline 1 µs away would
/// otherwise spin the loop) and a deadline is never woken for early.
/// Saturates at `i32::MAX` ms (~24 days).
fn timeout_millis(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener, TcpStream};

    /// A connected `(client, accepted server side)` pair on loopback.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn waker_interrupts_an_idle_wait_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        // No timeout: only the wake can end this wait.
        let woken = poller.wait(&mut events, None).unwrap();
        assert!(woken, "wait must report the wake");
        assert!(events.is_empty(), "the wake token is filtered out");
        assert!(start.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
        // The wake was drained: the next wait times out quietly.
        let woken = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!woken && events.is_empty());
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = socket_pair();
        server.set_nonblocking(true).unwrap();
        poller.register(server.as_raw_fd(), 42, Interest::READ);
        client.write_all(b"hello\n").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "{events:?}"
        );
        // Registering again replaces the token.
        poller.register(server.as_raw_fd(), 43, Interest::READ);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.len() == 1 && events[0].token == 43 && events[0].readable,
            "{events:?}"
        );
        // Deregistered fds go quiet.
        poller.deregister(server.as_raw_fd());
        client.write_all(b"more\n").unwrap();
        let woken = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!woken && events.is_empty(), "{events:?}");
    }

    #[test]
    fn write_interest_fires_on_an_unblocked_socket() {
        let mut poller = Poller::new().unwrap();
        let (client, _server) = socket_pair();
        client.set_nonblocking(true).unwrap();
        let interest = Interest {
            readable: false,
            writable: true,
        };
        poller.register(client.as_raw_fd(), 7, interest);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.writable),
            "{events:?}"
        );
    }

    #[test]
    fn a_half_closed_peer_is_silent_without_interest() {
        // A connection that neither reads nor writes (its reply is still
        // computing) must not wake the loop when the peer half-closes: a
        // hangup reported on every wait would spin a core until the reply
        // is flushed.
        let mut poller = Poller::new().unwrap();
        let (client, server) = socket_pair();
        server.set_nonblocking(true).unwrap();
        let none = Interest {
            readable: false,
            writable: false,
        };
        poller.register(server.as_raw_fd(), 5, none);
        client.shutdown(Shutdown::Write).unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        let woken = poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        let elapsed = start.elapsed();
        assert!(!woken && events.is_empty(), "{events:?}");
        assert!(
            elapsed >= Duration::from_millis(90),
            "woke after {elapsed:?}"
        );
    }

    #[test]
    fn requested_timeout_bounds_an_idle_wait() {
        // The loop's deadlines depend on `wait(Some(d))` returning close
        // to `d` when nothing is ready: a timeout that blocked past its
        // bound would fire idle/progress deadlines late.
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        let woken = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        let elapsed = start.elapsed();
        assert!(!woken && events.is_empty());
        assert!(
            elapsed >= Duration::from_millis(45),
            "woke early: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "timeout did not bound the wait: {elapsed:?}"
        );
    }

    #[test]
    fn sub_millisecond_timeout_still_sleeps() {
        // A 1 µs timeout must round UP to 1 ms, not down to 0: a 0 ms
        // wait is a nonblocking poll, and a deadline loop built on it
        // would spin the CPU until the sub-ms deadline passes.
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        // If rounding handed the kernel 0 ms, these 20 waits would all
        // return instantly (well under 1 ms total).
        for _ in 0..20 {
            poller
                .wait(&mut events, Some(Duration::from_micros(1)))
                .unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(10),
            "20 one-µs waits finished in {elapsed:?} — rounding slept 0 ms"
        );
    }

    #[test]
    fn timeout_rounding_never_maps_nonzero_to_zero() {
        assert_eq!(timeout_millis(None), -1);
        // Zero means "poll and return": the caller explicitly asked for
        // an immediate pass (an overdue deadline), not a sleep.
        assert_eq!(timeout_millis(Some(Duration::ZERO)), 0);
        // Everything nonzero rounds up, never down to 0.
        assert_eq!(timeout_millis(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_micros(999))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_millis(1))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_micros(1500))), 2);
        assert_eq!(timeout_millis(Some(Duration::from_millis(250))), 250);
        // And saturates instead of overflowing the C int.
        assert_eq!(timeout_millis(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }
}
