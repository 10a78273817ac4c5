//! End-to-end chaos: a real server behind the `chaosnet` fault-injection
//! proxy, driven by the resilient client. The oracle is the clean
//! response for the same request — every response the client *delivers*
//! must be bit-identical to it, whatever the proxy did to the wire.
//! Fixed single-fault plans pin the two headline scenarios
//! (reset-mid-response, stalled reads) deterministically.

mod common;

use std::time::Duration;

use common::TestServer;
use cred_service::chaosnet::NetFault;
use cred_service::{
    ChaosProxy, ChaosProxyConfig, ClientConfig, ClientError, NetChaosPlan, ResilientClient,
};

/// The oracle view of an explore response: everything but the trailing
/// `"cache":{...}` counters, which legitimately change as the shared
/// cache warms up (including across the retries chaos forces).
fn payload(resp: &str) -> &str {
    resp.split(",\"cache\":")
        .next()
        .expect("split always yields a first piece")
}

/// A client tuned for test time: short backoff, short breaker cooldown.
fn fast_client(addr: String, max_attempts: u32) -> ResilientClient {
    ResilientClient::new(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            max_attempts,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(40),
            breaker_cooldown: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
}

#[test]
fn seeded_chaos_run_delivers_every_request_bit_identical() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 4;
    let server = TestServer::spawn(|_| {});
    let proxy = ChaosProxy::spawn(
        server.addr.parse().expect("server addr"),
        ChaosProxyConfig {
            seed: 0,
            trip_percent: 25,
            ..ChaosProxyConfig::default()
        },
    )
    .expect("spawn proxy");

    // The oracle table: the clean response for every request line,
    // fetched directly from the server. A repeat fetch proves the
    // responses are deterministic before chaos gets the blame.
    let line = |c: usize, r: usize| {
        format!(
            "{{\"type\":\"explore\",\"id\":\"c{c}-r{r}\",\"kernel\":\"figure3\",\
             \"max_f\":{},\"n\":{}}}",
            1 + r % 3,
            40 + 10 * r
        )
    };
    let expected: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            (0..REQUESTS)
                .map(|r| payload(&server.request(&line(c, r))).to_string())
                .collect()
        })
        .collect();
    assert_eq!(
        expected[0][0],
        payload(&server.request(&line(0, 0))),
        "clean responses must be deterministic"
    );

    // Connection-per-request traffic through the proxy: every
    // request rides a fresh seeded fault plan.
    let mut total_retries = 0;
    for (c, oracle) in expected.iter().enumerate() {
        let mut client = fast_client(proxy.addr().to_string(), 24);
        for (r, want) in oracle.iter().enumerate() {
            let got = client
                .request(&line(c, r))
                .unwrap_or_else(|e| panic!("client {c} request {r}: {e}"));
            assert_eq!(
                payload(&got),
                want,
                "delivered response differs from the clean run"
            );
            client.disconnect();
        }
        total_retries += client.stats().retries;
    }

    let stats = proxy.stats();
    assert!(
        stats.connections >= (CLIENTS * REQUESTS) as u64,
        "{} connections for {} requests",
        stats.connections,
        CLIENTS * REQUESTS
    );
    assert!(
        stats.faulted_connections > 0,
        "seed 0 at trip 25 must fault some connections"
    );
    // Plans are seeded, so the faults (and the retries they force)
    // are reproducible; a run where nothing had to be retried means
    // the proxy stopped injecting.
    assert!(
        stats.resets_injected + stats.garbage_injected > 0,
        "no hard fault injected: {stats:?}"
    );
    assert!(
        total_retries > 0,
        "hard faults were injected but no request retried"
    );
    proxy.stop();
    server.shutdown();
}

#[test]
fn reset_mid_response_fails_typed_after_exhausting_retries() {
    let server = TestServer::spawn(|_| {});
    // Every connection resets 8 bytes into the response — shorter
    // than any response line, so no attempt can ever succeed.
    let proxy = ChaosProxy::spawn(
        server.addr.parse().expect("server addr"),
        ChaosProxyConfig {
            fixed_plan: Some(NetChaosPlan {
                client_to_server: Vec::new(),
                server_to_client: vec![NetFault::ResetAfter { bytes: 8 }],
            }),
            ..ChaosProxyConfig::default()
        },
    )
    .expect("spawn proxy");

    let mut client = fast_client(proxy.addr().to_string(), 3);
    let err = client
        .request("{\"type\":\"ping\",\"id\":\"doomed\"}")
        .expect_err("every attempt is reset mid-response");
    match err {
        ClientError::Exhausted { attempts, .. } => {
            assert_eq!(attempts, 3, "budget is 3 attempts")
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    let stats = client.stats();
    assert_eq!(stats.attempts, 3, "{stats:?}");
    assert_eq!(stats.retries, 2, "{stats:?}");
    assert_eq!(
        proxy.stats().resets_injected,
        3,
        "one injected reset per attempt"
    );
    proxy.stop();
    server.shutdown();
}

#[test]
fn stalled_and_shredded_responses_are_delivered_without_retries() {
    let server = TestServer::spawn(|_| {});
    // Shred the request into 3-byte segments, stall the response
    // stream mid-line, then shred it into 2-byte segments: slow and
    // ugly, but lossless — the client must deliver on the first
    // attempt with no retry.
    let proxy = ChaosProxy::spawn(
        server.addr.parse().expect("server addr"),
        ChaosProxyConfig {
            fixed_plan: Some(NetChaosPlan {
                client_to_server: vec![NetFault::SplitWrites { max_chunk: 3 }],
                server_to_client: vec![
                    NetFault::StallReads {
                        after_bytes: 10,
                        stall_ms: 100,
                    },
                    NetFault::SplitWrites { max_chunk: 2 },
                ],
            }),
            ..ChaosProxyConfig::default()
        },
    )
    .expect("spawn proxy");

    let line = "{\"type\":\"explore\",\"id\":\"slow\",\"kernel\":\"figure3\",\"max_f\":2,\"n\":60}";
    let want = payload(&server.request(line)).to_string();
    let mut client = fast_client(proxy.addr().to_string(), 24);
    let got = client.request(line).expect("lossless faults must deliver");
    assert_eq!(payload(&got), want, "shredded delivery must be exact");
    let stats = client.stats();
    assert_eq!(stats.retries, 0, "{stats:?}");
    assert_eq!(stats.corrupt_responses, 0, "{stats:?}");
    assert!(
        proxy.stats().stalls_injected >= 1,
        "the stall must have armed: {:?}",
        proxy.stats()
    );
    proxy.stop();
    server.shutdown();
}
