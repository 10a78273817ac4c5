//! Connection-lifecycle tests: idle timeouts, the slowloris progress
//! deadline, stalled readers, peer resets, and graceful drain — each
//! verified through the typed close-reason counters.

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use common::{set_linger_zero, TestServer};
use cred_service::json::{self, Json};

/// Read the `"conns"` counter object out of a `stats` response.
fn conn_counters(stats_resp: &str) -> Vec<(String, u64)> {
    let v = json::parse(stats_resp).expect("stats response parses");
    let conns = v
        .get("stats")
        .and_then(|s| s.get("conns"))
        .expect("stats carries a conns object");
    match conns {
        Json::Obj(members) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().expect("counter is a u64")))
            .collect(),
        other => panic!("conns is not an object: {other}"),
    }
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no counter {name}"))
}

/// Poll `stats` on fresh connections until `pred` holds or the deadline
/// passes; returns the final counters.
fn await_counters(
    server: &TestServer,
    deadline: Duration,
    pred: impl Fn(&[(String, u64)]) -> bool,
) -> Vec<(String, u64)> {
    let end = Instant::now() + deadline;
    loop {
        let counters = conn_counters(&server.request("{\"type\":\"stats\"}"));
        if pred(&counters) || Instant::now() >= end {
            return counters;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn idle_connections_are_closed_with_the_idle_reason() {
    let server = TestServer::spawn(|c| {
        c.idle_timeout = Some(Duration::from_millis(100));
        c.progress_timeout = None;
    });
    let mut client = server.connect();
    let resp = client.request("{\"type\":\"ping\",\"id\":1}");
    assert!(resp.contains("\"pong\""), "{resp}");
    // Quiescent now: the server must close us, not hold the socket
    // forever. EOF is the close; it must arrive well before 5 s.
    let mut stream = client.into_stream();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    let start = Instant::now();
    match stream.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected idle close, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "idle close took {:?}",
        start.elapsed()
    );
    let counters = await_counters(&server, Duration::from_secs(2), |c| {
        counter(c, "idle_closed") >= 1
    });
    assert_eq!(counter(&counters, "idle_closed"), 1);
    assert_eq!(counter(&counters, "slow_closed"), 0);
    server.shutdown();
}

#[test]
fn the_idle_clock_starts_when_a_slow_reply_is_flushed() {
    // The reply takes four idle timeouts to compute. Once it is flushed
    // the client has a whole idle timeout for its next request on the
    // same connection, and the connection is closed as idle only after
    // it has then been quiet for one.
    let server = TestServer::spawn(|c| {
        c.idle_timeout = Some(Duration::from_millis(100));
        c.progress_timeout = None;
    });
    let mut client = server.connect();
    let slow = client.request(
        "{\"type\":\"explore\",\"id\":1,\"kernel\":\"figure3\",\"max_f\":1,\
         \"n\":10,\"debug_delay_ms\":400}",
    );
    assert!(slow.contains("\"points\""), "{slow}");
    // Well inside the timeout, but long after the request arrived.
    std::thread::sleep(Duration::from_millis(30));
    let resp = client.request("{\"type\":\"ping\",\"id\":2}");
    assert!(resp.contains("\"pong\""), "{resp}");
    let quiet_from = Instant::now();
    let counters = conn_counters(&server.request("{\"type\":\"stats\"}"));
    assert_eq!(counter(&counters, "idle_closed"), 0, "{counters:?}");
    let mut stream = client.into_stream();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected idle close, got {other:?}"),
    }
    let quiet = quiet_from.elapsed();
    assert!(
        quiet >= Duration::from_millis(50),
        "closed after {quiet:?} of quiet, well inside the 100-ms idle timeout"
    );
    let counters = await_counters(&server, Duration::from_secs(2), |c| {
        counter(c, "idle_closed") >= 1
    });
    assert_eq!(counter(&counters, "idle_closed"), 1, "{counters:?}");
    server.shutdown();
}

#[test]
fn slowloris_partial_lines_hit_the_progress_deadline() {
    let server = TestServer::spawn(|c| {
        c.idle_timeout = None;
        c.progress_timeout = Some(Duration::from_millis(150));
    });
    // A request line that never finishes: the progress clock starts
    // at the first partial byte and must close the connection.
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream.write_all(b"{\"type\":\"pi").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    let start = Instant::now();
    match stream.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected slow close, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "slow close took {:?}",
        start.elapsed()
    );
    let counters = await_counters(&server, Duration::from_secs(2), |c| {
        counter(c, "slow_closed") >= 1
    });
    assert_eq!(counter(&counters, "slow_closed"), 1);
    assert_eq!(counter(&counters, "idle_closed"), 0);
    server.shutdown();
}

#[test]
fn steady_pipelining_with_persistent_partials_is_not_slowloris() {
    // A client that always has the *next* request's prefix in the buffer
    // is making progress on every completed line; the progress deadline
    // must key off line completion, not buffer emptiness.
    let server = TestServer::spawn(|c| {
        c.idle_timeout = None;
        c.progress_timeout = Some(Duration::from_millis(150));
    });
    let mut client = server.connect();
    for i in 0..8 {
        // One write carries a complete ping plus the prefix of the next.
        client.send_raw(&format!(
            "{{\"type\":\"ping\",\"id\":{i}}}\n{{\"type\":\"pin"
        ));
        let resp = client.recv();
        assert!(resp.contains("\"pong\""), "round {i}: {resp}");
        // Sit inside the progress window with the partial outstanding,
        // then complete it. Cumulative partial time across rounds far
        // exceeds the window; per-line it never does.
        std::thread::sleep(Duration::from_millis(60));
        client.send_raw(&format!("g\",\"id\":{}}}\n", i + 100));
        let resp = client.recv();
        assert!(resp.contains("\"pong\""), "round {i} completion: {resp}");
    }
    let counters = conn_counters(&server.request("{\"type\":\"stats\"}"));
    assert_eq!(counter(&counters, "slow_closed"), 0);
    server.shutdown();
}

#[test]
fn stalled_readers_are_closed_without_buffering_to_the_hard_cap() {
    let server = TestServer::spawn(|c| {
        c.idle_timeout = None;
        c.progress_timeout = Some(Duration::from_millis(200));
        // Tiny watermarks so an inflated response trips the pause
        // immediately; the hard cap stays far away — the *deadline*
        // must do the closing, not the cap.
        c.write_high_water = 4 << 10;
        c.write_low_water = 1 << 10;
    });
    // Ask for a response padded far past every kernel socket buffer,
    // then never read a byte of it.
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .write_all(
            b"{\"type\":\"explore\",\"id\":\"stall\",\"kernel\":\"figure3\",\
              \"n\":10,\"debug_pad_bytes\":8388608}\n",
        )
        .unwrap();
    let counters = await_counters(&server, Duration::from_secs(10), |c| {
        counter(c, "slow_closed") >= 1
    });
    assert_eq!(counter(&counters, "slow_closed"), 1, "{counters:?}");
    drop(stream);
    server.shutdown();
}

#[test]
fn half_open_peers_with_undeliverable_output_are_closed() {
    // The peer half-closes (FIN) but never drains what we owe it: EOF
    // with pending writes starts the progress clock.
    let server = TestServer::spawn(|c| {
        c.idle_timeout = None;
        c.progress_timeout = Some(Duration::from_millis(200));
        c.write_high_water = 4 << 10;
        c.write_low_water = 1 << 10;
    });
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .write_all(
            b"{\"type\":\"explore\",\"id\":\"halfopen\",\"kernel\":\"figure3\",\
              \"n\":10,\"debug_pad_bytes\":8388608}\n",
        )
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let counters = await_counters(&server, Duration::from_secs(10), |c| {
        counter(c, "slow_closed") >= 1
    });
    assert_eq!(counter(&counters, "slow_closed"), 1, "{counters:?}");
    drop(stream);
    server.shutdown();
}

#[test]
fn peer_resets_mid_response_are_counted_as_resets() {
    let server = TestServer::spawn(|c| {
        c.idle_timeout = None;
        c.progress_timeout = None;
    });
    // Ask for a deliberately slow solve, then hard-reset the socket
    // while the response is still being computed: the server learns
    // about the reset from the socket, mid-request.
    let stream = TcpStream::connect(&server.addr).unwrap();
    let mut stream = stream;
    stream
        .write_all(
            b"{\"type\":\"explore\",\"id\":\"rst\",\"kernel\":\"figure3\",\
              \"n\":10,\"debug_delay_ms\":300}\n",
        )
        .unwrap();
    set_linger_zero(&stream);
    drop(stream); // RST, not FIN
    let counters = await_counters(&server, Duration::from_secs(10), |c| {
        counter(c, "reset_by_peer") >= 1
    });
    assert_eq!(counter(&counters, "reset_by_peer"), 1, "{counters:?}");
    server.shutdown();
}

#[test]
fn a_reset_after_eof_is_counted_while_the_reply_still_computes() {
    // The peer half-closes after its request, so the server stops reading
    // it, then resets while the reply is still computing. Nothing reads or
    // writes that socket until the reply is ready: the reset must be taken
    // from the hangup at once, not when the compute ends and the first
    // write fails (with the loop woken by the hangup on every turn until
    // then).
    let server = TestServer::spawn(|c| {
        c.idle_timeout = None;
        c.progress_timeout = None;
    });
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .write_all(
            b"{\"type\":\"explore\",\"id\":\"eof-rst\",\"kernel\":\"figure3\",\
              \"n\":10,\"debug_delay_ms\":3000}\n",
        )
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    // Let the server read the request and the EOF before the reset.
    std::thread::sleep(Duration::from_millis(200));
    set_linger_zero(&stream);
    let reset_at = Instant::now();
    drop(stream); // RST
    let counters = await_counters(&server, Duration::from_millis(1500), |c| {
        counter(c, "reset_by_peer") >= 1
    });
    assert_eq!(
        counter(&counters, "reset_by_peer"),
        1,
        "{:?} after the reset: {counters:?}",
        reset_at.elapsed()
    );
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_accounts_every_connection() {
    let dump =
        std::env::temp_dir().join(format!("cred-lifecycle-drain-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let server = {
        let dump = dump.clone();
        TestServer::spawn(move |c| {
            c.metrics_dump = Some(dump);
            c.idle_timeout = None;
            c.progress_timeout = None;
        })
    };
    // Two idle connections that will ride out the drain...
    let idle_a = server.connect();
    let mut idle_b = server.connect();
    let resp = idle_b.request("{\"type\":\"ping\",\"id\":\"b\"}");
    assert!(resp.contains("\"pong\""), "{resp}");
    // ...and one connection with a response still being computed when
    // the drain begins.
    let mut busy = server.connect();
    busy.send(
        "{\"type\":\"explore\",\"id\":\"busy\",\"kernel\":\"figure3\",\
         \"n\":10,\"debug_delay_ms\":400}",
    );
    std::thread::sleep(Duration::from_millis(50)); // let it be admitted
    server.shutdown();
    // The in-flight response was still delivered before the close.
    let resp = busy.recv();
    assert!(resp.contains("\"id\":\"busy\""), "{resp}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // And then the drain closed the connection.
    let mut stream = busy.into_stream();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset) => {}
        other => panic!("expected drain close, got {other:?}"),
    }
    drop(idle_a);
    drop(idle_b);
    // The final snapshot must account for every accepted connection:
    // accepted == closed_ok + idle + slow + reset + drained.
    let snapshot = std::fs::read_to_string(&dump).expect("metrics dump written");
    let v = json::parse(&snapshot).expect("dump parses");
    let conns = v.get("conns").expect("dump carries conns");
    let get = |k: &str| conns.get(k).and_then(Json::as_u64).expect("counter");
    let accepted = get("accepted");
    let sum = get("closed_ok")
        + get("idle_closed")
        + get("slow_closed")
        + get("reset_by_peer")
        + get("drained");
    assert!(accepted >= 4, "saw {accepted} connections");
    assert_eq!(
        accepted, sum,
        "every accepted connection ends in exactly one reason: {snapshot}"
    );
    assert!(get("drained") >= 2, "idle+busy conns drain: {snapshot}");
    let _ = std::fs::remove_file(&dump);
}
