//! Wire-format compatibility: the committed response must keep replaying
//! byte-for-byte.
//!
//! The golden file pins the full explore response for a fixed request
//! (figure3, max_f 3, n 31, bulk, fresh server). If this test fails, the
//! wire format changed — either revert the change or bump
//! `SCHEMA_VERSION` and regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p cred-service --test golden_wire`.

mod common;

use std::path::Path;

use common::TestServer;

const REQUEST: &str =
    "{\"type\":\"explore\",\"id\":\"golden-1\",\"kernel\":\"figure3\",\"max_f\":3,\"n\":31}";

#[test]
fn explore_response_replays_byte_for_byte() {
    // A fresh server makes the embedded cache counters deterministic:
    // exactly the three per-factor plans of this request, all misses.
    let server = TestServer::spawn(|_| {});
    let resp = server.request(REQUEST);
    server.shutdown();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explore_v3.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, resp.clone() + "\n").expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 and commit it");
    assert_eq!(
        resp,
        golden.trim_end(),
        "the wire format drifted from the committed golden response"
    );
    assert!(golden.contains("\"schema_version\":3"));
    assert!(golden.contains("\"frontier\":["));
    assert!(golden.contains("\"objectives\""));
    assert!(golden.contains("\"maxlive\""));
}
