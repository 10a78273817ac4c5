//! End-to-end tests of the evaluation server: protocol behavior, request
//! coalescing, deadline admission control, and clean shutdown.

mod common;

use std::path::Path;
use std::time::Duration;

use common::{kernels_dir, Client, TestServer};
use cred_explore::{point_json, ExploreRequest};

/// The cold-run `"points":[...]` fragment every server response for
/// `kernel` must contain bit-for-bit.
fn expected_points(kernel: &str, max_f: usize, n: u64) -> String {
    let src = std::fs::read_to_string(kernels_dir().join(format!("{kernel}.loop")))
        .expect("bundled kernel");
    let resp = ExploreRequest::from_source(&src)
        .expect("kernel parses")
        .max_f(max_f)
        .trip_count(n)
        .run()
        .expect("cold run");
    let points: Vec<String> = resp.points.iter().map(point_json).collect();
    format!("\"points\":[{}]", points.join(","))
}

#[test]
fn ping_echoes_the_id() {
    let server = TestServer::spawn(|_| {});
    let resp = server.request("{\"type\":\"ping\",\"id\":\"abc\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"schema_version\":3"), "{resp}");
    assert!(resp.contains("\"id\":\"abc\""), "{resp}");
    assert!(resp.contains("\"type\":\"pong\""), "{resp}");
    // Integer ids are echoed as integers.
    let resp = server.request("{\"type\":\"ping\",\"id\":7}");
    assert!(resp.contains("\"id\":7"), "{resp}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_protocol_errors_not_hangups() {
    let server = TestServer::spawn(|_| {});
    let mut client = server.connect();
    for (req, want) in [
        ("this is not json", "bad JSON"),
        ("[1,2,3]", "must be a JSON object"),
        ("{\"id\":1}", "missing request type"),
        ("{\"type\":\"frobnicate\"}", "unknown request type"),
        (
            "{\"type\":\"explore\"}",
            "needs a \\\"kernel\\\" name or a \\\"source\\\"",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"nope\"}",
            "unknown kernel",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"source\":\"x\"}",
            "not both",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":0}",
            "max_f must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":99}",
            "max_f must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"n\":0}",
            "n must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"mode\":\"sideways\"}",
            "mode must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"deadline_ms\":0}",
            "deadline_ms must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"schema_version\":1}",
            "schema_version must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"schema_version\":2}",
            "schema_version must be",
        ),
        (
            "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_registers\":\"lots\"}",
            "max_registers must be",
        ),
        (
            "{\"type\":\"explore\",\"source\":\"not a kernel\"}",
            "\"code\":\"parse\"",
        ),
    ] {
        let resp = client.request(req);
        assert!(resp.contains("\"ok\":false"), "{req} -> {resp}");
        assert!(resp.contains(want), "{req} -> {resp}");
    }
    // The connection survived all of that.
    let resp = client.request("{\"type\":\"ping\"}");
    assert!(resp.contains("\"pong\""), "{resp}");
    server.shutdown();
}

#[test]
fn explore_matches_the_cold_run_and_reuses_the_cache() {
    let server = TestServer::spawn(|_| {});
    let want = expected_points("figure3", 3, 100);
    let resp = server
        .request("{\"type\":\"explore\",\"id\":1,\"kernel\":\"figure3\",\"max_f\":3,\"n\":100}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(
        resp.contains(&want),
        "points must match the cold run:\n{resp}"
    );
    assert!(resp.contains("\"coalesced\":false"), "{resp}");
    assert!(resp.contains("\"frontier\":["), "{resp}");
    assert!(resp.contains("\"degraded\":[]"), "{resp}");
    assert!(resp.contains("\"failed\":[]"), "{resp}");
    // Same request again: answered from the shared cache, same bits.
    let again = server
        .request("{\"type\":\"explore\",\"id\":2,\"kernel\":\"figure3\",\"max_f\":3,\"n\":100}");
    assert!(again.contains(&want), "{again}");
    let stats = server.request("{\"type\":\"stats\"}");
    assert!(
        stats.contains("\"misses\":3"),
        "3 factors solved once: {stats}"
    );
    assert!(stats.contains("\"hits\":3"), "re-request all hits: {stats}");
    server.shutdown();
}

/// One counter of a `stats` reply, by its path from the `stats` object.
fn stat(server: &TestServer, path: &[&str]) -> u64 {
    let reply = server.request("{\"type\":\"stats\"}");
    let v = cred_service::json::parse(&reply).expect("stats reply parses");
    let mut at = v.get("stats").expect("stats object");
    for key in path {
        at = at.get(key).unwrap_or_else(|| panic!("no {key} in {reply}"));
    }
    at.as_u64().expect("a counter")
}

/// An explore reply without its cache counters, which are process-wide
/// and move with every request.
fn without_cache(reply: &str) -> &str {
    &reply[..reply.rfind(",\"cache\":").expect("cache counters present")]
}

#[test]
fn warm_repeats_are_answered_on_the_loop() {
    let server = TestServer::spawn(|_| {});
    let req = "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":3,\"n\":100}";
    let cold = server.request(req);
    let warm = [server.request(req), server.request(req)];
    for reply in &warm {
        assert_eq!(without_cache(reply), without_cache(&cold));
    }
    assert_eq!(
        stat(&server, &["explore_computes"]),
        1,
        "one pool evaluation"
    );
    assert_eq!(stat(&server, &["loop_hits"]), 2, "two loop hits");
    assert_eq!(
        stat(&server, &["cache", "hits"]),
        2 * 3,
        "max_f hits per loop hit"
    );
    assert_eq!(stat(&server, &["cache", "misses"]), 3);
    server.shutdown();
}

/// A warm request does not wait for the worker pool: with the only
/// worker held by a slow miss, it is answered from the loop at once.
#[test]
fn a_warm_request_is_answered_while_the_only_worker_is_held() {
    let server = TestServer::spawn(|c| {
        c.workers = 1;
    });
    let warm = "{\"type\":\"explore\",\"id\":\"k\",\"kernel\":\"figure3\",\"max_f\":3,\"n\":100}";
    let first = server.request(warm);
    assert!(first.contains("\"ok\":true"), "{first}");
    let mut held = server.connect();
    held.send(
        "{\"type\":\"explore\",\"id\":\"held\",\"kernel\":\"elliptic\",\"max_f\":2,\
         \"n\":60,\"debug_delay_ms\":1000}",
    );
    std::thread::sleep(Duration::from_millis(200));
    let start = std::time::Instant::now();
    let again = server.request(warm);
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_millis(400),
        "a warm request waited {waited:?} behind the held worker"
    );
    assert_eq!(without_cache(&again), without_cache(&first));
    let held_reply = held.recv();
    assert!(held_reply.contains("\"ok\":true"), "{held_reply}");
    assert!(held_reply.contains("\"id\":\"held\""), "{held_reply}");
    server.shutdown();
}

#[test]
fn loop_hits_and_a_held_miss_reply_in_request_order() {
    let server = TestServer::spawn(|_| {});
    let warm = |id: u32| {
        format!("{{\"type\":\"explore\",\"id\":{id},\"kernel\":\"figure3\",\"max_f\":3,\"n\":100}}")
    };
    let first = server.request(&warm(0));
    let mut client = server.connect();
    client.send(&format!(
        "{}\n{{\"type\":\"explore\",\"id\":2,\"kernel\":\"elliptic\",\"max_f\":2,\"n\":60,\
         \"debug_delay_ms\":300}}\n{}",
        warm(1),
        warm(3)
    ));
    let replies = [client.recv(), client.recv(), client.recv()];
    for (reply, id) in replies.iter().zip([1, 2, 3]) {
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(
            reply.contains(&format!("\"id\":{id},")),
            "want id {id}: {reply}"
        );
    }
    let body = |reply: &str| without_cache(reply)[reply.find(",\"type\"").unwrap()..].to_string();
    assert_eq!(body(&replies[0]), body(&first));
    assert_eq!(body(&replies[2]), body(&first));
    assert!(replies[1].contains(&expected_points("elliptic", 2, 60)));
    assert_eq!(stat(&server, &["loop_hits"]), 2);
    server.shutdown();
}

/// A warm request still goes to the pool when it carries a source (parsing
/// is compute), a machine (the exact pass runs per request), the delay
/// hook (which must hold a flight open) or the pad hook (whose reply must
/// count against the in-flight bound).
#[test]
fn warm_requests_with_source_machine_or_debug_hooks_go_to_the_pool() {
    let server = TestServer::spawn(|_| {});
    let src = std::fs::read_to_string(kernels_dir().join("figure3.loop")).unwrap();
    let named = "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31";
    server.request(&format!("{named}}}"));
    for req in [
        format!(
            "{{\"type\":\"explore\",\"source\":{},\"max_f\":2,\"n\":31}}",
            cred_service::json::escape(&src)
        ),
        format!("{named},\"machine\":\"scalar\"}}"),
        format!("{named},\"debug_delay_ms\":1}}"),
        format!("{named},\"debug_pad_bytes\":16}}"),
    ] {
        let computes = stat(&server, &["explore_computes"]);
        let loop_hits = stat(&server, &["loop_hits"]);
        let reply = server.request(&req);
        assert!(reply.contains("\"ok\":true"), "{req} -> {reply}");
        assert_eq!(stat(&server, &["explore_computes"]), computes + 1, "{req}");
        assert_eq!(stat(&server, &["loop_hits"]), loop_hits, "{req}");
    }
    server.shutdown();
}

#[test]
fn source_requests_match_named_kernel_requests() {
    let server = TestServer::spawn(|_| {});
    let src = std::fs::read_to_string(kernels_dir().join("figure3.loop")).unwrap();
    let named =
        server.request("{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31}");
    let by_source = server.request(&format!(
        "{{\"type\":\"explore\",\"source\":{},\"max_f\":2,\"n\":31}}",
        cred_service::json::escape(&src)
    ));
    let points_of = |resp: &str| {
        let start = resp.find("\"points\":").expect("points present");
        let end = resp.find("\"degraded\":").expect("degraded present");
        resp[start..end].to_string()
    };
    assert!(named.contains("\"ok\":true"), "{named}");
    assert!(by_source.contains("\"ok\":true"), "{by_source}");
    assert_eq!(points_of(&named), points_of(&by_source));
    server.shutdown();
}

/// The headline coalescing test: two clients fire the identical request
/// concurrently; exactly one computation runs, both responses carry
/// bit-identical points equal to a cold run.
#[test]
fn concurrent_identical_requests_coalesce_onto_one_compute() {
    let server = TestServer::spawn(|_| {});
    let want = expected_points("elliptic", 3, 60);
    // The leader's compute is held open 600 ms (the debug test hook) so
    // the second client reliably joins the in-flight request rather than
    // racing past it. The hook is excluded from the coalescing key.
    let req = "{\"type\":\"explore\",\"kernel\":\"elliptic\",\"max_f\":3,\"n\":60,\
               \"debug_delay_ms\":600}";
    let addr_a = server.addr.clone();
    let addr_b = server.addr.clone();
    let a = std::thread::spawn(move || Client::connect(&addr_a).request(req));
    // Stagger the second client into the first one's flight window.
    std::thread::sleep(Duration::from_millis(150));
    let b = std::thread::spawn(move || Client::connect(&addr_b).request(req));
    let resp_a = a.join().unwrap();
    let resp_b = b.join().unwrap();

    for resp in [&resp_a, &resp_b] {
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(
            resp.contains(&want),
            "coalesced response differs from cold run:\n{resp}"
        );
    }
    let joined = [&resp_a, &resp_b]
        .iter()
        .filter(|r| r.contains("\"coalesced\":true"))
        .count();
    assert_eq!(joined, 1, "exactly one client joined:\n{resp_a}\n{resp_b}");

    let stats = server.request("{\"type\":\"stats\"}");
    assert!(
        stats.contains("\"explore_computes\":1"),
        "one solve for two clients: {stats}"
    );
    assert!(stats.contains("\"coalesced_joins\":1"), "{stats}");
    server.shutdown();
}

/// A joiner must not inherit an outcome shaped by the leader's budget:
/// a starved leader degrades, but the unlimited joiner that coalesced
/// onto its flight recomputes and gets the clean cold-run answer.
#[test]
fn budget_shaped_outcomes_are_not_shared_with_joiners() {
    let server = TestServer::spawn(|_| {});
    let want = expected_points("elliptic", 2, 60);
    // Leader: a zero work budget pushes every factor down the
    // degradation ladder (exhaustion-caused events); the debug hook
    // holds the flight open so the second client overlaps it.
    let leader_req = "{\"type\":\"explore\",\"id\":\"starved\",\"kernel\":\"elliptic\",\
                      \"max_f\":2,\"n\":60,\"work_limit\":0,\"debug_delay_ms\":600}";
    // Joiner: identical coalesce key (limits are excluded from it), but
    // an unlimited budget.
    let joiner_req = "{\"type\":\"explore\",\"id\":\"roomy\",\"kernel\":\"elliptic\",\
                      \"max_f\":2,\"n\":60}";
    let addr_a = server.addr.clone();
    let addr_b = server.addr.clone();
    let a = std::thread::spawn(move || Client::connect(&addr_a).request(leader_req));
    std::thread::sleep(Duration::from_millis(150));
    let b = std::thread::spawn(move || Client::connect(&addr_b).request(joiner_req));
    let leader = a.join().unwrap();
    let joiner = b.join().unwrap();
    // The leader's own response reflects its starved budget...
    assert!(leader.contains("\"ok\":true"), "{leader}");
    assert!(!leader.contains("\"degraded\":[]"), "{leader}");
    // ...but the joiner sees none of it: a clean response, bit-identical
    // to a cold unlimited run, and not marked coalesced.
    assert!(joiner.contains("\"ok\":true"), "{joiner}");
    assert!(joiner.contains("\"degraded\":[]"), "{joiner}");
    assert!(
        joiner.contains(&want),
        "joiner must match the cold run:\n{joiner}"
    );
    assert!(joiner.contains("\"coalesced\":false"), "{joiner}");
    let stats = server.request("{\"type\":\"stats\"}");
    assert!(stats.contains("\"coalesce_recomputes\":1"), "{stats}");
    assert!(stats.contains("\"explore_computes\":2"), "{stats}");
    assert!(stats.contains("\"coalesced_joins\":0"), "{stats}");
    server.shutdown();
}

/// A request that exceeds its deadline is answered with a typed budget
/// error on a live connection — not a hangup.
#[test]
fn deadline_overrun_is_a_typed_budget_error() {
    let server = TestServer::spawn(|c| {
        c.default_deadline = Some(Duration::from_millis(150));
    });
    let mut client = server.connect();
    // The debug delay makes the compute overstay the per-request
    // deadline deterministically.
    let resp = client.request(
        "{\"type\":\"explore\",\"id\":\"late\",\"kernel\":\"figure3\",\"max_f\":2,\
         \"n\":31,\"deadline_ms\":100,\"debug_delay_ms\":400}",
    );
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"code\":\"budget-exhausted\""), "{resp}");
    assert!(resp.contains("\"id\":\"late\""), "{resp}");
    // The connection is still serviceable afterwards...
    let resp = client.request(
        "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31,\
         \"deadline_ms\":60000}",
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // ...and the server-wide default deadline applies when the request
    // names none.
    let resp = client.request(
        "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31,\
         \"debug_delay_ms\":400}",
    );
    assert!(resp.contains("\"code\":\"budget-exhausted\""), "{resp}");
    let stats = server.request("{\"type\":\"stats\"}");
    assert!(stats.contains("\"budget_exhaustions\":2"), "{stats}");
    server.shutdown();
}

#[test]
fn strict_requests_succeed_when_nothing_degrades() {
    let server = TestServer::spawn(|_| {});
    let resp = server.request(
        "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31,\"strict\":true}",
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    server.shutdown();
}

/// A strict request that observes degradation gets the typed error *and*
/// still lands in the degradation counters.
#[test]
fn strict_degradation_is_typed_and_still_counted() {
    let server = TestServer::spawn(|_| {});
    let resp = server.request(
        "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31,\
         \"work_limit\":0,\"strict\":true}",
    );
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(
        resp.contains("\"code\":\"degraded-under-strict\""),
        "{resp}"
    );
    let stats = server.request("{\"type\":\"stats\"}");
    assert!(
        stats.contains("\"degraded_points\":2"),
        "both starved factors must be counted: {stats}"
    );
    server.shutdown();
}

#[test]
fn pipelined_lines_in_one_write_are_all_answered() {
    let server = TestServer::spawn(|_| {});
    let mut client = server.connect();
    client.send("{\"type\":\"ping\",\"id\":1}\n{\"type\":\"ping\",\"id\":2}");
    let first = client.recv();
    let second = client.recv();
    assert!(first.contains("\"id\":1"), "{first}");
    assert!(second.contains("\"id\":2"), "{second}");
    server.shutdown();
}

#[test]
fn shutdown_dumps_metrics_when_asked() {
    let dir = std::env::temp_dir().join(format!("cred-service-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("metrics.json");
    let server = TestServer::spawn(|c| {
        c.metrics_dump = Some(dump.clone());
    });
    server.request("{\"type\":\"ping\"}");
    server.request("{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31}");
    server.shutdown();
    let dumped = std::fs::read_to_string(&dump).expect("metrics dump written");
    assert!(dumped.contains("\"explore_computes\":1"), "{dumped}");
    assert!(dumped.contains("\"cache\""), "{dumped}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_with_idle_connections_open_is_prompt() {
    let server = TestServer::spawn(|_| {});
    // Idle connections must not delay shutdown: the event loop is woken
    // explicitly, it never sits in a read-timeout poll cycle.
    let idle: Vec<Client> = (0..8).map(|_| server.connect()).collect();
    let start = std::time::Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "shutdown with idle connections took {elapsed:?}"
    );
    drop(idle);
}

#[test]
fn overload_sheds_with_a_typed_overloaded_error() {
    let server = TestServer::spawn(|c| {
        c.workers = 1;
        c.max_in_flight = 1;
    });
    let mut slow = server.connect();
    // Occupy the single admission slot with a deliberately held flight.
    slow.send("{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31,\"debug_delay_ms\":800,\"id\":\"slow\"}");
    std::thread::sleep(Duration::from_millis(200));
    // The next explore must be shed immediately, not queued behind it.
    let mut shed = server.connect();
    let start = std::time::Instant::now();
    let resp = shed.request(
        "{\"type\":\"explore\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":31,\"id\":\"shed\"}",
    );
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "shed response must not wait for the slow flight"
    );
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"code\":\"overloaded\""), "{resp}");
    assert!(resp.contains("\"id\":\"shed\""), "{resp}");
    // Non-explore requests are never shed: the loop answers them inline.
    let pong = shed.request("{\"type\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "{pong}");
    // The admitted request still completes normally.
    let slow_resp = slow.recv();
    assert!(slow_resp.contains("\"ok\":true"), "{slow_resp}");
    assert!(slow_resp.contains("\"id\":\"slow\""), "{slow_resp}");
    let stats = server.request("{\"type\":\"stats\"}");
    assert!(stats.contains("\"shed_requests\":1"), "{stats}");
    server.shutdown();
}

#[test]
fn missing_kernels_dir_fails_bind_with_io_error() {
    let err = cred_service::Server::bind(cred_service::ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        kernels_dir: Some(Path::new("/nonexistent/kernels").to_path_buf()),
        ..cred_service::ServiceConfig::default()
    })
    .err()
    .expect("bind must fail");
    assert_eq!(err.code(), "io");
}
