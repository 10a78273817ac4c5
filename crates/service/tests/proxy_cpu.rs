//! The chaos proxy sleeps while a proxied connection has nothing to do.
//!
//! A client half-closes after its request and then resets while the
//! upstream's reply is still pending. The proxy then has nothing to read
//! from the client (its source is at EOF) and nothing to write to it. An
//! event loop on poll(2) would be told of the reset socket's error on
//! every wait whatever its interest, and spin unless it stopped watching
//! the socket. The proxy has no such loop: each direction is a thread
//! blocked in `read` on its source, so the reset wakes nothing until the
//! reply's write to the client fails. This test owns its process, so the
//! process's CPU time is the proxy's.

// Only the socket helper is used here.
#[allow(dead_code)]
mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use common::set_linger_zero;
use cred_service::chaosnet::{ChaosProxy, ChaosProxyConfig, NetChaosPlan};

/// User plus system CPU time of this process, from `/proc/self/stat`.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 2..]
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15 of the file: the 12th and 13th
    // after the command name.
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    // Clock ticks are 1/100 s on Linux.
    Duration::from_millis(ticks * 10)
}

#[test]
fn a_reset_after_eof_does_not_spin_the_proxy() {
    // An upstream that reads the request to its end and replies 1.5 s
    // later.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let upstream = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = Vec::new();
        stream.read_to_end(&mut request).unwrap();
        std::thread::sleep(Duration::from_millis(1500));
        // The proxy may have dropped the pair by now; the write may fail.
        let _ = stream.write_all(b"{\"reply\":true}\n");
        request
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
    client.write_all(b"{\"request\":true}\n").unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    // Let the proxy forward the request and the half-close first.
    std::thread::sleep(Duration::from_millis(200));
    set_linger_zero(&client);
    drop(client); // RST
    let before = process_cpu();
    std::thread::sleep(Duration::from_secs(1));
    let spent = process_cpu() - before;
    assert!(
        spent < Duration::from_millis(100),
        "{spent:?} of CPU in 1 s while the proxied connection waited"
    );
    assert_eq!(server.join().unwrap(), b"{\"request\":true}\n");
    proxy.stop();
}
