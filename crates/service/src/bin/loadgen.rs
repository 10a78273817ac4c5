//! Load generator for `credc serve`: N concurrent clients against either
//! a running server (`--addr`) or an in-process server it spawns itself.
//!
//! Two arrival models:
//!
//! * **closed-loop** (default): each client sends, waits for the
//!   response, sends again — M requests per client. Latency is measured
//!   send-to-receive. Throughput is bounded by the clients themselves.
//! * **open-loop** (`--rate R`): requests are scheduled on a fixed
//!   global clock — R requests/second spread evenly over the clients —
//!   and each client *pipelines*: it writes on schedule whether or not
//!   earlier responses have arrived, and a separate reader thread drains
//!   responses in order. Latency is measured from the request's
//!   *scheduled* send time, so a server that stalls cannot hide queueing
//!   delay by slowing the arrival clock (no coordinated omission).
//!
//! Every successful response is checked bit-for-bit against a
//! precomputed cold in-process [`ExploreRequest`] table (one entry per
//! kernel, computed once, shared by every client — the oracle cost does
//! not grow with the client count). Typed `overloaded` sheds are counted
//! separately: under deliberate overload they are the server working as
//! designed, not a failure. Any other error is a failure.
//!
//! The sequential baseline is *sampled*: each kernel is cold-solved
//! `--baseline-reps` times and the mean per-kernel cost is extrapolated
//! over the whole request mix, so a million-request run does not pay a
//! million solver calls just to print a comparison.
//!
//! Results land in the JSON report named by `--out`, including a log2
//! latency histogram. The server-over-baseline `speedup` is reported for
//! closed-loop runs only; an open-loop or chaos run records it as `null`,
//! since its server rate is set by the arrival clock or the injected
//! faults. `--assert-p99-ms` turns the run into a pass/fail
//! check for CI. Exit status is nonzero on any failure, response
//! mismatch, or a busted p99 assertion.
//!
//! `--chaos` turns the run into a fault-injection gauntlet: the clients
//! talk to the server through an in-process [`ChaosProxy`] that splits,
//! delays, stalls, resets, and garbles traffic under a seeded plan per
//! connection (`--chaos-seed`), and every client runs
//! connection-per-request through the [`ResilientClient`] retry stack.
//! The oracle check is the point: every response the client *delivers*
//! must still be bit-identical to the cold in-process solve — a single
//! silent corruption fails the run — and after shutdown the server's
//! close-reason counters must account for every accepted connection.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cred_explore::suite::{load_kernels, SCHEMA_VERSION};
use cred_explore::{point_json, ExploreRequest};
use cred_service::json::{self, Json};
use cred_service::{
    ChaosProxy, ChaosProxyConfig, ClientConfig, ClientStats, ResilientClient, Server, ServiceConfig,
};

/// Stack size for client threads: an open-loop run at 1000+ clients
/// spawns two threads per client, so the default 8 MiB stacks would
/// reserve gigabytes for threads that only shuffle strings.
const CLIENT_STACK: usize = 128 << 10;

/// How long a client keeps retrying `connect` while a thundering herd
/// overflows the listener backlog.
const CONNECT_RETRY: Duration = Duration::from_secs(10);

struct Args {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    kernels: PathBuf,
    max_f: usize,
    n: u64,
    /// Open-loop global arrival rate (requests/second across all
    /// clients). `None` = closed-loop.
    rate: Option<f64>,
    /// Cold solves per kernel for the sampled sequential baseline.
    baseline_reps: usize,
    /// Fail the run if the measured p99 exceeds this bound.
    assert_p99_ms: Option<f64>,
    out: Option<PathBuf>,
    shutdown: bool,
    /// Route traffic through a fault-injecting proxy and fail on any
    /// silent corruption.
    chaos: bool,
    /// Base seed for the per-connection chaos plans.
    chaos_seed: u64,
    /// Per-fault arming probability (percent) for chaos plans.
    chaos_trip: u32,
    /// Where the spawned server writes its final metrics snapshot
    /// (chaos mode verifies close-reason accounting from it).
    metrics_dump: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        clients: 8,
        requests: 50,
        kernels: PathBuf::from("kernels"),
        max_f: 3,
        n: 100,
        rate: None,
        baseline_reps: 3,
        assert_p99_ms: None,
        out: None,
        shutdown: false,
        chaos: false,
        chaos_seed: 0,
        chaos_trip: 25,
        metrics_dump: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients must be a positive integer".to_string())?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests must be a positive integer".to_string())?
            }
            "--kernels" => args.kernels = PathBuf::from(value("--kernels")?),
            "--max-unfold" => {
                args.max_f = value("--max-unfold")?
                    .parse()
                    .map_err(|_| "--max-unfold must be a positive integer".to_string())?
            }
            "--n" => {
                args.n = value("--n")?
                    .parse()
                    .map_err(|_| "--n must be a positive integer".to_string())?
            }
            "--rate" => {
                let r: f64 = value("--rate")?
                    .parse()
                    .map_err(|_| "--rate must be a number (req/s)".to_string())?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rate must be positive".to_string());
                }
                args.rate = Some(r);
            }
            "--baseline-reps" => {
                args.baseline_reps = value("--baseline-reps")?
                    .parse()
                    .map_err(|_| "--baseline-reps must be a non-negative integer".to_string())?
            }
            "--assert-p99-ms" => {
                args.assert_p99_ms = Some(
                    value("--assert-p99-ms")?
                        .parse()
                        .map_err(|_| "--assert-p99-ms must be a number".to_string())?,
                )
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--shutdown" => args.shutdown = true,
            "--chaos" => args.chaos = true,
            "--chaos-seed" => {
                args.chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|_| "--chaos-seed must be an integer".to_string())?
            }
            "--chaos-trip" => {
                let trip: u32 = value("--chaos-trip")?
                    .parse()
                    .map_err(|_| "--chaos-trip must be an integer percent".to_string())?;
                if trip > 100 {
                    return Err("--chaos-trip must be 0..=100".to_string());
                }
                args.chaos_trip = trip;
            }
            "--metrics-dump" => args.metrics_dump = Some(PathBuf::from(value("--metrics-dump")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.clients < 1 || args.requests < 1 {
        return Err("--clients and --requests must be at least 1".to_string());
    }
    if args.chaos && args.rate.is_some() {
        return Err("--chaos is closed-loop only (drop --rate)".to_string());
    }
    if args.chaos && args.addr.is_some() {
        return Err("--chaos spawns its own server (drop --addr)".to_string());
    }
    Ok(args)
}

/// What one client observed.
#[derive(Default)]
struct ClientReport {
    /// Latency (µs) of each successful response.
    latencies: Vec<u64>,
    ok: u64,
    /// Typed `overloaded` rejections.
    shed: u64,
    failures: Vec<String>,
    /// Delivered responses whose bits differ from the cold solve — the
    /// one thing a chaos run must never see.
    corruptions: Vec<String>,
    /// Retry-stack counters aggregated across the client's requests.
    client_stats: ClientStats,
}

fn connect_with_retry(addr: &str) -> Result<TcpStream, String> {
    let deadline = Instant::now() + CONNECT_RETRY;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Validate one response line against the oracle. Returns `Ok(true)` for
/// a success, `Ok(false)` for a shed, `Err` for anything else.
fn check_response(
    resp: &str,
    id: &str,
    kernel: &str,
    expected: &HashMap<String, String>,
) -> Result<bool, String> {
    if !resp.contains(&format!("\"id\":\"{id}\"")) {
        return Err(format!("response out of order: expected id {id}: {resp}"));
    }
    if resp.contains("\"ok\":true") {
        let want = &expected[kernel];
        if !resp.contains(want.as_str()) {
            return Err(format!(
                "kernel {kernel}: response points differ from the cold run\n  want … {want}"
            ));
        }
        return Ok(true);
    }
    if resp.contains("\"code\":\"overloaded\"") {
        return Ok(false);
    }
    Err(format!("request {id} failed: {}", resp.trim()))
}

/// Closed-loop client on the resilient retry stack: send, wait, repeat.
/// In chaos mode each request rides a fresh connection (and therefore a
/// fresh fault plan); otherwise the connection is reused.
#[allow(clippy::too_many_arguments)]
fn client_closed_loop(
    addr: &str,
    client_id: usize,
    requests: usize,
    names: &[String],
    expected: &HashMap<String, String>,
    max_f: usize,
    n: u64,
    chaos_seed: Option<u64>,
) -> ClientReport {
    let mut report = ClientReport::default();
    let config = ClientConfig {
        jitter_seed: chaos_seed.unwrap_or(0) ^ (client_id as u64) << 32,
        ..ClientConfig::default()
    };
    let mut client = ResilientClient::new(addr, config);
    for i in 0..requests {
        let name = &names[(client_id * requests + i) % names.len()];
        let id = format!("c{client_id}-{i}");
        let line = format!(
            "{{\"type\":\"explore\",\"id\":\"{id}\",\"kernel\":\"{name}\",\
             \"max_f\":{max_f},\"n\":{n}}}"
        );
        let start = Instant::now();
        let resp = match client.request(&line) {
            Ok(resp) => resp,
            Err(e) => {
                report.failures.push(e.to_string());
                continue;
            }
        };
        let latency = start.elapsed();
        match check_response(&resp, &id, name, expected) {
            Ok(true) => {
                report.ok += 1;
                report.latencies.push(latency.as_micros() as u64);
            }
            Ok(false) => report.shed += 1,
            // The retry stack only delivers parsed, id-matched
            // responses: a delivered "ok" with different bits is a
            // silent corruption, the failure mode chaos runs exist to
            // rule out.
            Err(msg) if resp.contains("\"ok\":true") => report.corruptions.push(msg),
            Err(msg) => report.failures.push(msg),
        }
        if chaos_seed.is_some() {
            client.disconnect();
        }
    }
    report.client_stats = client.stats();
    report
}

/// Open-loop client: a writer (this thread) sends on the global
/// schedule, pipelining; a reader thread drains the in-order responses
/// and anchors each latency at its request's *scheduled* send time.
#[allow(clippy::too_many_arguments)]
fn client_open_loop(
    addr: &str,
    client_id: usize,
    requests: usize,
    names: &[String],
    expected: &HashMap<String, String>,
    max_f: usize,
    n: u64,
    start_at: Instant,
    interval: Duration,
    offset: Duration,
) -> ClientReport {
    let mut report = ClientReport::default();
    let stream = match connect_with_retry(addr) {
        Ok(s) => s,
        Err(e) => {
            report.failures.push(e);
            return report;
        }
    };
    let reader_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            report.failures.push(e.to_string());
            return report;
        }
    };
    // The writer tells the reader what it sent and when it was
    // *scheduled*; responses come back in request order per connection.
    let (meta_tx, meta_rx) = mpsc::channel::<(Instant, String, String)>();
    let expected = expected.clone();
    let reader = std::thread::Builder::new()
        .stack_size(CLIENT_STACK)
        .spawn(move || {
            let mut report = ClientReport::default();
            let mut reader = BufReader::new(reader_stream);
            for (scheduled, id, kernel) in meta_rx.iter() {
                let mut resp = String::new();
                match reader.read_line(&mut resp) {
                    Ok(0) => {
                        report.failures.push("server closed the connection".into());
                        return report;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        report.failures.push(format!("read: {e}"));
                        return report;
                    }
                }
                let latency = scheduled.elapsed();
                match check_response(&resp, &id, &kernel, &expected) {
                    Ok(true) => {
                        report.ok += 1;
                        report.latencies.push(latency.as_micros() as u64);
                    }
                    Ok(false) => report.shed += 1,
                    Err(msg) => report.failures.push(msg),
                }
            }
            report
        });
    let reader = match reader {
        Ok(handle) => handle,
        Err(e) => {
            report.failures.push(format!("spawning reader: {e}"));
            return report;
        }
    };
    let mut stream = stream;
    for i in 0..requests {
        let scheduled = start_at + offset + interval * (i as u32);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        // If we are *behind* schedule we send immediately but keep the
        // scheduled instant as the latency anchor: the delay is the
        // system's fault, not the arrival process's.
        let name = &names[(client_id * requests + i) % names.len()];
        let id = format!("c{client_id}-{i}");
        let line = format!(
            "{{\"type\":\"explore\",\"id\":\"{id}\",\"kernel\":\"{name}\",\
             \"max_f\":{max_f},\"n\":{n}}}\n"
        );
        if let Err(e) = stream.write_all(line.as_bytes()) {
            report.failures.push(format!("write: {e}"));
            break;
        }
        if meta_tx.send((scheduled, id, name.clone())).is_err() {
            break; // reader died; its report carries the reason
        }
    }
    drop(meta_tx);
    match reader.join() {
        Ok(mut r) => {
            report.latencies.append(&mut r.latencies);
            report.ok += r.ok;
            report.shed += r.shed;
            report.failures.append(&mut r.failures);
        }
        Err(_) => report.failures.push("reader thread panicked".into()),
    }
    report
}

/// One request on the retry stack (control-plane calls: stats,
/// shutdown). Few attempts — these run against a server that is either
/// healthy or going away.
fn one_request(addr: &str, line: &str) -> Result<String, String> {
    let mut client = ResilientClient::new(
        addr,
        ClientConfig {
            max_attempts: 3,
            ..ClientConfig::default()
        },
    );
    client.request(line).map_err(|e| e.to_string())
}

/// Parse the server's final metrics snapshot and check the lifecycle
/// invariant: every accepted connection ended in exactly one close
/// reason. Returns the `conns` object as JSON for the report.
fn verify_close_accounting(dump: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(dump)
        .map_err(|e| format!("reading metrics dump {}: {e}", dump.display()))?;
    let v = json::parse(&text).map_err(|e| format!("parsing metrics dump: {e}"))?;
    let conns = v
        .get("conns")
        .ok_or_else(|| "metrics dump has no conns object".to_string())?;
    let get = |k: &str| {
        conns
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics dump conns.{k} missing"))
    };
    let accepted = get("accepted")?;
    let sum = get("closed_ok")?
        + get("idle_closed")?
        + get("slow_closed")?
        + get("reset_by_peer")?
        + get("drained")?;
    if accepted != sum {
        return Err(format!(
            "close-reason accounting broken: {accepted} accepted but {sum} accounted: {}",
            conns.to_compact()
        ));
    }
    Ok(conns.to_compact())
}

/// The run mode whose server throughput measures the server: each client
/// issues its next request as soon as the last reply arrives.
const CLOSED_LOOP: &str = "closed-loop";

/// Server throughput over the sampled cold baseline, for a closed-loop run
/// only. An open-loop run's server rate is the arrival rate it was asked
/// for, and a chaos run's is paced by the injected faults and retries, so
/// in those modes the ratio says nothing about the server and there is
/// none.
fn speedup(mode: &str, server_rps: f64, baseline_rps: f64) -> Option<f64> {
    (mode == CLOSED_LOOP).then(|| server_rps / baseline_rps)
}

/// Exact percentile over sorted microsecond latencies.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Log2-bucketed histogram of the latencies (bucket b counts values in
/// `[2^b, 2^(b+1))` µs), trimmed to the last non-empty bucket.
fn log2_histogram(latencies: &[u64]) -> Vec<u64> {
    let mut buckets = vec![0u64; 64];
    let mut top = 0;
    for &us in latencies {
        let b = (63 - us.max(1).leading_zeros()) as usize;
        buckets[b] += 1;
        top = top.max(b);
    }
    buckets.truncate(top + 1);
    buckets
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let kernels = load_kernels(&args.kernels)
        .map_err(|e| format!("loading kernels from {}: {e}", args.kernels.display()))?;
    if kernels.is_empty() {
        return Err(format!("no .loop kernels in {}", args.kernels.display()));
    }
    let names: Vec<String> = kernels.iter().map(|(n, _)| n.clone()).collect();
    let total = args.clients * args.requests;

    // The oracle table: one cold in-process run per *kernel* (not per
    // request), shared read-only by every client thread. A 1000-client
    // run validates a million responses against these few strings.
    let mut expected = HashMap::new();
    let mut kernel_cost = HashMap::new();
    for (name, g) in &kernels {
        let start = Instant::now();
        let resp = ExploreRequest::new(g.clone())
            .max_f(args.max_f)
            .trip_count(args.n)
            .run()
            .map_err(|e| format!("cold run of {name}: {e}"))?;
        let mut cost = start.elapsed();
        let points: Vec<String> = resp.points.iter().map(point_json).collect();
        expected.insert(name.clone(), format!("\"points\":[{}]", points.join(",")));
        // Sampled baseline: a few more cold solves per kernel, averaged.
        for _ in 1..args.baseline_reps.max(1) {
            let start = Instant::now();
            ExploreRequest::new(g.clone())
                .max_f(args.max_f)
                .trip_count(args.n)
                .run()
                .map_err(|e| format!("baseline run of {name}: {e}"))?;
            cost += start.elapsed();
        }
        kernel_cost.insert(
            name.clone(),
            cost.as_secs_f64() / args.baseline_reps.max(1) as f64,
        );
    }

    // Extrapolated sequential baseline: what `total` cold evaluations in
    // a fresh process each would cost in solver time alone, following
    // the exact request mix (round-robin over kernels).
    let baseline_secs: f64 = (0..total)
        .map(|i| kernel_cost[&names[i % names.len()]])
        .sum();

    // Chaos mode checks close-reason accounting from the final metrics
    // snapshot, so the spawned server always dumps one.
    let dump_path = if args.chaos {
        Some(args.metrics_dump.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cred-loadgen-chaos-{}.json", std::process::id()))
        }))
    } else {
        args.metrics_dump.clone()
    };

    // Target server: the given address, or one spawned in-process.
    let (addr, server_thread) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::bind(ServiceConfig {
                addr: "127.0.0.1:0".to_string(),
                kernels_dir: Some(args.kernels.clone()),
                metrics_dump: dump_path.clone(),
                ..ServiceConfig::default()
            })
            .map_err(|e| format!("spawning server: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("local addr: {e}"))?
                .to_string();
            (addr, Some(std::thread::spawn(move || server.run())))
        }
    };

    // In chaos mode the clients talk through the fault-injecting proxy;
    // control-plane calls (stats, shutdown) go straight to the server.
    let proxy = if args.chaos {
        let upstream = addr
            .parse()
            .map_err(|e| format!("parsing server addr {addr}: {e}"))?;
        Some(
            ChaosProxy::spawn(
                upstream,
                ChaosProxyConfig {
                    seed: args.chaos_seed,
                    trip_percent: args.chaos_trip,
                    ..ChaosProxyConfig::default()
                },
            )
            .map_err(|e| format!("spawning chaos proxy: {e}"))?,
        )
    } else {
        None
    };
    let client_addr = proxy
        .as_ref()
        .map_or_else(|| addr.clone(), |p| p.addr().to_string());

    let expected = Arc::new(expected);
    let names = Arc::new(names);
    // Open-loop schedule: `rate` req/s globally, interleaved round-robin
    // over the clients, first arrivals staggered one global tick apart.
    let schedule = args.rate.map(|rate| {
        let interval = Duration::from_secs_f64(args.clients as f64 / rate);
        let tick = Duration::from_secs_f64(1.0 / rate);
        (interval, tick)
    });
    // Give every client time to connect before the clock starts.
    let start_at = Instant::now() + Duration::from_millis(200 + (args.clients / 10) as u64);
    let serve_start = Instant::now();
    let chaos_seed = args.chaos.then_some(args.chaos_seed);
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let addr = client_addr.clone();
            let names = Arc::clone(&names);
            let expected = Arc::clone(&expected);
            let (requests, max_f, n) = (args.requests, args.max_f, args.n);
            std::thread::Builder::new()
                .stack_size(CLIENT_STACK)
                .spawn(move || match schedule {
                    Some((interval, tick)) => client_open_loop(
                        &addr,
                        c,
                        requests,
                        &names,
                        &expected,
                        max_f,
                        n,
                        start_at,
                        interval,
                        tick * (c as u32),
                    ),
                    None => client_closed_loop(
                        &addr, c, requests, &names, &expected, max_f, n, chaos_seed,
                    ),
                })
                .expect("spawning client thread")
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut failures = Vec::new();
    let mut corruptions = Vec::new();
    let mut client_stats = ClientStats::default();
    for h in handles {
        match h.join() {
            Ok(mut r) => {
                latencies.append(&mut r.latencies);
                ok += r.ok;
                shed += r.shed;
                failures.append(&mut r.failures);
                corruptions.append(&mut r.corruptions);
                client_stats.attempts += r.client_stats.attempts;
                client_stats.retries += r.client_stats.retries;
                client_stats.reconnects += r.client_stats.reconnects;
                client_stats.corrupt_responses += r.client_stats.corrupt_responses;
                client_stats.overloaded_retries += r.client_stats.overloaded_retries;
                client_stats.breaker_opens += r.client_stats.breaker_opens;
            }
            Err(_) => failures.push("client thread panicked".to_string()),
        }
    }
    let served = serve_start.elapsed();

    let stats = one_request(&addr, "{\"type\":\"stats\",\"id\":\"loadgen\"}\n")?;
    let shutdown_spawned = server_thread.is_some();
    if args.shutdown || shutdown_spawned {
        one_request(&addr, "{\"type\":\"shutdown\"}\n")?;
    }
    if let Some(t) = server_thread {
        t.join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
    }

    // Chaos post-mortem: proxy injection counters, plus the server's
    // close-reason accounting from its final metrics snapshot.
    let chaos_json = match &proxy {
        Some(p) => {
            let ps = p.stats();
            let dump = dump_path.as_ref().expect("chaos mode always dumps");
            let accounting = verify_close_accounting(dump)?;
            format!(
                "{{ \"seed\": {}, \"trip_percent\": {}, \"plans_sampled\": {}, \
                 \"faulted_connections\": {}, \"resets_injected\": {}, \
                 \"garbage_injected\": {}, \"stalls_injected\": {}, \
                 \"delays_injected\": {}, \"corruptions\": {}, \
                 \"client\": {{ \"attempts\": {}, \"retries\": {}, \"reconnects\": {}, \
                 \"corrupt_responses\": {}, \"overloaded_retries\": {}, \
                 \"breaker_opens\": {} }}, \"close_accounting\": {accounting} }}",
                args.chaos_seed,
                args.chaos_trip,
                ps.connections,
                ps.faulted_connections,
                ps.resets_injected,
                ps.garbage_injected,
                ps.stalls_injected,
                ps.delays_injected,
                corruptions.len(),
                client_stats.attempts,
                client_stats.retries,
                client_stats.reconnects,
                client_stats.corrupt_responses,
                client_stats.overloaded_retries,
                client_stats.breaker_opens,
            )
        }
        None => "null".to_string(),
    };

    latencies.sort_unstable();
    let baseline_rps = total as f64 / baseline_secs;
    let server_rps = ok as f64 / served.as_secs_f64();
    let p50 = percentile(&latencies, 50.0);
    let p90 = percentile(&latencies, 90.0);
    let p99 = percentile(&latencies, 99.0);
    let max = latencies.last().copied().unwrap_or(0);
    let histogram = log2_histogram(&latencies);
    let histogram_json = histogram
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");

    let (mode, rate_json) = match args.rate {
        Some(r) => ("open-loop", format!("{r:.1}")),
        None if args.chaos => ("chaos", "null".to_string()),
        None => (CLOSED_LOOP, "null".to_string()),
    };
    let speedup = speedup(mode, server_rps, baseline_rps);
    let speedup_json = speedup.map_or_else(|| "null".to_string(), |s| format!("{s:.2}"));
    let report = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"mode\": \"{mode}\",\n  \
         \"rate_rps\": {rate_json},\n  \"clients\": {},\n  \
         \"requests_per_client\": {},\n  \"total_requests\": {total},\n  \
         \"ok\": {ok},\n  \"shed\": {shed},\n  \"failed\": {},\n  \
         \"max_f\": {},\n  \"n\": {},\n  \"kernel_count\": {},\n  \
         \"baseline\": {{ \"seconds\": {:.6}, \"rps\": {:.1}, \"reps_per_kernel\": {} }},\n  \
         \"server\": {{ \"seconds\": {:.6}, \"rps\": {:.1}, \"p50_us\": {p50}, \
         \"p90_us\": {p90}, \"p99_us\": {p99}, \"max_us\": {max} }},\n  \
         \"latency_log2_buckets_us\": [{histogram_json}],\n  \
         \"speedup\": {speedup_json},\n  \"chaos\": {chaos_json},\n  \"server_stats\": {}\n}}\n",
        args.clients,
        args.requests,
        failures.len(),
        args.max_f,
        args.n,
        names.len(),
        baseline_secs,
        baseline_rps,
        args.baseline_reps.max(1),
        served.as_secs_f64(),
        server_rps,
        // Peel the stats object out of the response envelope: the body
        // is everything after "stats": minus the envelope's final '}'.
        stats
            .split_once("\"stats\":")
            .and_then(|(_, tail)| tail.strip_suffix('}'))
            .map(str::to_string)
            .unwrap_or_else(|| "null".to_string()),
    );

    println!(
        "loadgen ({mode}): {total} requests, {ok} ok, {shed} shed, {} failed, {} corrupted",
        failures.len(),
        corruptions.len()
    );
    if let Some(p) = &proxy {
        let ps = p.stats();
        println!(
            "  chaos (seed {}, trip {}%): {} plans sampled ({} faulted), \
             {} resets, {} garbage, {} stalls, {} delays injected",
            args.chaos_seed,
            args.chaos_trip,
            ps.connections,
            ps.faulted_connections,
            ps.resets_injected,
            ps.garbage_injected,
            ps.stalls_injected,
            ps.delays_injected,
        );
        println!(
            "  client retry stack: {} attempts, {} retries, {} reconnects, \
             {} corrupt responses rejected, {} breaker opens",
            client_stats.attempts,
            client_stats.retries,
            client_stats.reconnects,
            client_stats.corrupt_responses,
            client_stats.breaker_opens,
        );
    }
    println!(
        "  baseline (sequential, cold cache, sampled): {:>8.1} req/s",
        baseline_rps
    );
    println!(
        "  server ({} clients):                        {:>8.1} req/s  \
         (p50 {p50} µs, p90 {p90} µs, p99 {p99} µs)",
        args.clients, server_rps,
    );
    if let Some(speedup) = speedup {
        println!("  speedup: {speedup:.2}x");
    }
    if let Some(out) = &args.out {
        std::fs::write(out, &report).map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("  wrote {}", out.display());
    }
    if !corruptions.is_empty() {
        return Err(format!(
            "{} SILENT CORRUPTION(S) — delivered responses differed from the cold solve; \
             first: {}",
            corruptions.len(),
            corruptions[0]
        ));
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} request(s) failed; first: {}",
            failures.len(),
            failures[0]
        ));
    }
    if let Some(bound_ms) = args.assert_p99_ms {
        let p99_ms = p99 as f64 / 1000.0;
        if p99_ms > bound_ms {
            return Err(format!(
                "p99 latency {p99_ms:.3} ms exceeds the asserted bound {bound_ms} ms"
            ));
        }
        println!("  p99 {p99_ms:.3} ms within bound {bound_ms} ms");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_only_for_closed_loop_runs() {
        assert_eq!(speedup(CLOSED_LOOP, 300.0, 100.0), Some(3.0));
        assert_eq!(speedup("open-loop", 500.0, 2000.0), None);
        assert_eq!(speedup("chaos", 500.0, 2000.0), None);
    }
}
