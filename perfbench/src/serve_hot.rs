//! `serve_hot`: the evaluation server on a warm plan cache.
//!
//! The server runs in this process at its default configuration with the
//! committed kernels directory. One connection drives it closed-loop,
//! waiting for each reply, with `TCP_NODELAY` set and every request frame
//! sent in one write (without nodelay, Nagle and delayed ACKs add about
//! 40 ms per request). Set-up binds the server, loads the kernel table and
//! sends every hot key once; each warm-up reply is decoded and checked
//! field by field against the expected file, and the request-dependent
//! part of the reply is kept. Every timed reply must match those bytes.
//!
//! The whole process (client, event loop, workers) is pinned to one CPU,
//! moving to the next CPU every [`BLOCK`] requests (see [`Rotation`]), so
//! every hand-over of a request happens on one CPU. On a 2-vCPU virtual
//! machine the alternatives measure the scheduler more than the server:
//! unpinned, each hand-over may wait for the other vCPU to be woken by the
//! host; with two connections on one CPU, a reply waits for the other
//! request's compute to use up its time slice (p99 about 1.1 ms against
//! about 0.5 ms for one connection). With one request in flight on one
//! CPU, everything the process does during a round trip is that request's
//! work, so round trips are timed on the process's CPU clock (see
//! [`clock`]).
//!
//! The server is a black box over TCP, so the traced replay re-runs each
//! request's steps in process on a warm cache of its own (decode,
//! `run_with`, the per-factor plan lookups, codegen and maxlive it
//! recomputes, the frontier, and the encoding) and derives the event-loop
//! share as client round trip minus decode, compute and encode.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use cred_codegen::cred::cred_retime_unfold;
use cred_codegen::unfolded::retime_unfold_program;
use cred_codegen::DecMode;
use cred_dfg::Dfg;
use cred_explore::cache::SweepCache;
use cred_explore::{frontier, point_json, CredError, ExploreRequest};
use cred_schedule::KernelSchedule;
use cred_service::json::{self, Json};
use cred_service::{Server, ServiceConfig};

use crate::affinity::Rotation;
use crate::clock;
use crate::expected::{mode_name, Expected, Pt, MODES};
use crate::ops::{self, Fnv, Kernel};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx, Measured, EXPECTED};

const HOT_MAX_F: usize = 4;
const HOT_N: u64 = 101;
/// Nominal closed-loop rate on one CPU of a 2-vCPU host: sizes the op
/// count per second.
const OPS_PER_SECOND: u64 = 7000;

#[derive(Debug, Clone, Copy)]
struct Key {
    kernel: usize,
    max_f: usize,
    mode: DecMode,
}

fn hot_keys(kernels: usize) -> Vec<Key> {
    let mut out = Vec::new();
    for kernel in 0..kernels {
        for max_f in 1..=HOT_MAX_F {
            for mode in MODES {
                out.push(Key {
                    kernel,
                    max_f,
                    mode,
                });
            }
        }
    }
    out
}

/// Everything of a request frame after its id.
fn frame_tail(k: &Kernel, key: &Key) -> String {
    format!(
        ",\"kernel\":\"{}\",\"max_f\":{},\"n\":{HOT_N},\"mode\":\"{}\"}}\n",
        k.name,
        key.max_f,
        mode_name(key.mode)
    )
}

/// Assemble the frame of op `id` into `buf`.
fn frame(buf: &mut Vec<u8>, id: usize, tail: &str) {
    buf.clear();
    write!(buf, "{{\"type\":\"explore\",\"id\":{id}{tail}").expect("writing to a Vec cannot fail");
}

fn key_hash(k: &Kernel, key: &Key) -> u64 {
    Fnv::default()
        .str(&k.name)
        .str(&k.source)
        .u64(key.max_f as u64)
        .str(mode_name(key.mode))
        .u64(HOT_N)
        .finish()
}

/// The part of an explore reply that depends only on the request: the
/// points, frontier, degradations and failures, without the id, the
/// coalescing flag and the shared cache counters.
fn body(reply: &str) -> Option<&str> {
    let start = reply.find(",\"points\":")?;
    let end = reply.rfind(",\"cache\":")?;
    reply.get(start..end)
}

/// A reply is correct when it is an ok reply echoing `id` whose body
/// equals the verified warm-up body of its key.
fn check_reply(reply: &str, id: usize, want_body: &str) -> Result<(), String> {
    let head = reply
        .find(",\"type\":")
        .and_then(|i| reply.get(..i))
        .unwrap_or(reply);
    if !head.starts_with("{\"ok\":true,") || !head.ends_with(&format!("\"id\":{id}")) {
        return Err(format!("reply to {id} is not an ok reply: {reply:.200}"));
    }
    if body(reply) != Some(want_body) {
        return Err(format!(
            "reply to {id} differs from the verified body: {reply:.200}"
        ));
    }
    Ok(())
}

fn int(j: &Json, key: &str) -> Result<i64, String> {
    match j.get(key) {
        Some(Json::Int(v)) => Ok(*v),
        _ => Err(format!("missing integer {key:?}")),
    }
}

fn pt(j: &Json) -> Result<Pt, String> {
    let o = j.get("objectives").ok_or("missing objectives")?;
    let period = o.get("period").ok_or("missing period")?;
    let size = |v: i64| usize::try_from(v).map_err(|_| format!("negative size {v}"));
    Ok(Pt {
        f: size(int(j, "f")?)?,
        m_r: int(j, "m_r")?,
        plain_size: size(int(j, "plain_size")?)?,
        cred_size: size(int(o, "cred_size")?)?,
        period_num: int(period, "num")?,
        period_den: int(period, "den")?,
        cond_registers: size(int(o, "cond_registers")?)?,
        maxlive: size(int(o, "maxlive")?)?,
    })
}

/// Decode a reply completely and compare it with the expected file.
fn verify_reply(reply: &str, k: &Kernel, key: &Key, expected: &Expected) -> Result<(), String> {
    let v = json::parse(reply).map_err(|e| format!("bad reply JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error reply: {reply:.200}"));
    }
    let list = |name: &str| -> Result<Vec<Pt>, String> {
        v.get(name)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing {name}"))?
            .iter()
            .map(pt)
            .collect()
    };
    for name in ["degraded", "failed"] {
        if v.get(name).and_then(Json::as_arr).map(<[Json]>::len) != Some(0) {
            return Err(format!("{name} is not empty: {reply:.200}"));
        }
    }
    expected.check(
        &k.name,
        HOT_N,
        key.mode,
        key.max_f,
        &list("points")?,
        &list("frontier")?,
    )
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(s.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer: s,
            reader,
            line: String::new(),
        })
    }

    /// Send one frame in a single write and wait for the reply line.
    fn call(&mut self, frame: &[u8]) -> Result<&str, String> {
        self.writer
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running server with its client connection and verified bodies.
struct Live {
    addr: SocketAddr,
    server: Option<JoinHandle<Result<(), CredError>>>,
    conn: Option<Conn>,
    bodies: Vec<String>,
}

impl Live {
    fn start(ctx: &Ctx, st: &State) -> Result<Live, String> {
        let config = ServiceConfig {
            addr: "127.0.0.1:0".into(),
            kernels_dir: Some(ctx.root.join("kernels")),
            ..ServiceConfig::default()
        };
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let handle = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the server: {e}"))?;
        // From here on an early return drops `live`, which stops the server.
        let mut live = Live {
            addr,
            server: Some(handle),
            conn: None,
            bodies: Vec::new(),
        };
        let conn = live.conn.insert(Conn::connect(addr)?);
        let mut buf = Vec::new();
        for (i, key) in st.keys.iter().enumerate() {
            let k = &st.kernels[key.kernel];
            frame(&mut buf, i, &st.tails[i]);
            let reply = conn.call(&buf)?;
            verify_reply(reply, k, key, &st.expected).map_err(|e| format!("warm-up: {e}"))?;
            let b = body(reply).ok_or("warm-up reply has no body")?.to_string();
            live.bodies.push(b);
        }
        Ok(live)
    }

    fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("connected while running")
    }

    fn stats(&mut self) -> Result<Json, String> {
        let reply = self.conn().call(b"{\"type\":\"stats\"}\n")?;
        json::parse(reply)
            .map_err(|e| format!("bad stats reply: {e}"))?
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("no stats in {reply:.200}"))
    }

    /// Shut the server down and wait for it.
    fn stop(mut self) -> Result<(), String> {
        let handle = self.server.take().expect("running until stopped");
        let reply = self.conn().call(b"{\"type\":\"shutdown\"}\n")?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("shutdown refused: {reply:.200}"));
        }
        self.conn = None;
        handle
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Live {
    /// Best-effort shutdown on an error path; [`Live::stop`] reports
    /// errors.
    fn drop(&mut self) {
        if let Some(handle) = self.server.take() {
            if let Ok(mut c) = Conn::connect(self.addr) {
                let _ = c.call(b"{\"type\":\"shutdown\"}\n");
            }
            self.conn = None;
            let _ = handle.join();
        }
    }
}

struct State {
    kernels: Vec<Kernel>,
    expected: Expected,
    keys: Vec<Key>,
    seq: Vec<usize>,
    /// Request frame tail of every key.
    tails: Vec<String>,
}

fn state(ctx: &Ctx) -> Result<State, String> {
    let kernels = ops::load_kernels(&ctx.root.join("kernels"))?;
    let keys = hot_keys(kernels.len());
    let passes = ops::passes_for(ctx.seconds, OPS_PER_SECOND, keys.len());
    let seq = ops::permuted_passes(keys.len(), passes, ctx.seed);
    let tails = keys
        .iter()
        .map(|key| frame_tail(&kernels[key.kernel], key))
        .collect();
    Ok(State {
        expected: Expected::parse(EXPECTED)?,
        kernels,
        keys,
        seq,
        tails,
    })
}

/// What a replay measured: every op's round trip in µs of the process's
/// CPU clock (see [`clock`]), the failed ops with their messages, and the
/// wall time from the first send to the last reply.
struct Replayed {
    us: Vec<f64>,
    errors: Vec<(usize, String)>,
    wall_s: f64,
}

/// Replay ops `ids` of `st.seq` closed-loop on the connection. `after`
/// runs after each checked reply, with the op's frame (the traced replay's
/// in-process steps).
fn replay(
    live: &mut Live,
    st: &State,
    ids: std::ops::Range<usize>,
    mut after: impl FnMut(usize, &str),
) -> Replayed {
    let mut out = Replayed {
        us: Vec::with_capacity(ids.len()),
        errors: Vec::new(),
        wall_s: 0.0,
    };
    let bodies = &live.bodies;
    let conn = live.conn.as_mut().expect("connected while running");
    let mut buf = Vec::with_capacity(128);
    let start = Instant::now();
    for id in ids {
        let key = st.seq[id];
        frame(&mut buf, id, &st.tails[key]);
        let t0 = clock::process_cpu_ns();
        let reply = conn.call(&buf);
        out.us.push((clock::process_cpu_ns() - t0) as f64 / 1e3);
        if let Err(e) = reply.and_then(|r| check_reply(r, id, &bodies[key])) {
            out.errors.push((id, e));
        }
        after(id, std::str::from_utf8(&buf).expect("ASCII frame"));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

fn counter(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for p in path {
        match v.get(p) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    match v {
        Json::Int(i) => *i as f64,
        _ => 0.0,
    }
}

/// One request's server-side steps, in process, one public call per span.
fn traced_request(
    t: &mut Tracer,
    frame: &str,
    graphs: &HashMap<String, Dfg>,
    cache: &SweepCache,
) -> Result<(), String> {
    let (g, max_f, mode) = t.span("service.decode", |_| {
        let req = json::parse(frame.trim_end()).map_err(|e| e.to_string())?;
        let name = req
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("no kernel")?;
        let g = graphs.get(name).ok_or("unknown kernel")?.clone();
        let max_f = req.get("max_f").and_then(Json::as_u64).ok_or("no max_f")? as usize;
        let mode = match req.get("mode").and_then(Json::as_str) {
            Some("per-copy") => DecMode::PerCopy,
            _ => DecMode::Bulk,
        };
        Ok::<_, String>((g, max_f, mode))
    })?;
    let resp = t
        .span("explore.compute", |_| {
            ExploreRequest::new(g.clone())
                .max_f(max_f)
                .trip_count(HOT_N)
                .mode(mode)
                .run_with(cache)
        })
        .map_err(|e| e.to_string())?;
    // What run_with does on a warm cache, call by call.
    let mut sizes = Vec::with_capacity(max_f);
    for f in 1..=max_f {
        let plan = t.span("explore.cache_lookup", |_| cache.plan(&g, f));
        let plain = t.span("codegen.plain", |_| {
            retime_unfold_program(&g, &plan.projected, f, HOT_N).code_size()
        });
        let cred = t.span("codegen.cred", |_| {
            cred_retime_unfold(&g, &plan.projected, f, HOT_N, mode).code_size()
        });
        let maxlive = t.span("schedule.maxlive", |_| {
            KernelSchedule::sequential(&g, &plan.projected, f)
                .maxlive()
                .maxlive
        });
        sizes.push((plain, cred, maxlive));
    }
    let front = t.span("explore.frontier", |_| frontier(&resp.points, None));
    let encoded = t.span("service.encode", |_| {
        let mut out = String::with_capacity(256 * (resp.points.len() + front.len()));
        for p in resp.points.iter().chain(&front) {
            out.push_str(&point_json(p));
            out.push(',');
        }
        out
    });
    let same = resp
        .points
        .iter()
        .zip(&sizes)
        .all(|(p, &(plain, cred, ml))| {
            p.plain_size == plain && p.objectives.cred_size == cred && p.objectives.maxlive == ml
        });
    if !same || front != resp.frontier || encoded.is_empty() {
        return Err("in-process replay disagrees with run_with".into());
    }
    Ok(())
}

/// Ops per block: the process moves to the next CPU between blocks (see
/// [`Rotation`]), and a traced run alternates plain and traced blocks.
const BLOCK: usize = 2000;

pub fn run(ctx: &Ctx, trace: bool) -> Result<Measured, String> {
    let st = state(ctx)?;
    let rotation = Rotation::new();
    let (mut live, setup_s) = timed_setups(
        |rep| {
            rotation.pin_process(rep);
            Live::start(ctx, &st)
        },
        Live::stop,
    )?;
    let mut m = Measured {
        setup_s,
        passes: st.seq.len() / st.keys.len(),
        pass_len: st.keys.len(),
        ..Measured::default()
    };
    let hashes: Vec<u64> = st
        .keys
        .iter()
        .map(|k| key_hash(&st.kernels[k.kernel], k))
        .collect();
    (m.input_fingerprint, m.pool_fingerprint) = ops::fingerprints(&hashes, &st.seq);

    let before = live.stats()?;
    let mut t = Tracer::new();
    let mut traced_rtt_us = 0.0;
    if trace {
        traced_rtt_us = traced_replay(ctx, &mut live, &st, &mut m, &mut t, &rotation)?;
    } else {
        let start = Instant::now();
        let stolen = rotation.stolen_s();
        for (b, first) in (0..st.seq.len()).step_by(BLOCK).enumerate() {
            rotation.pin_process(b);
            let r = replay(
                &mut live,
                &st,
                first..(first + BLOCK).min(st.seq.len()),
                |_, _| (),
            );
            m.attempted += r.us.len() as u64;
            m.op_us.extend(r.us);
            for (_, e) in r.errors {
                m.fail(e);
            }
        }
        m.wall_s = start.elapsed().as_secs_f64();
        m.stolen_s = rotation.stolen_s() - stolen;
    }
    let after = live.stats()?;
    live.stop()?;

    // Explore requests served between the two snapshots.
    let served = m.attempted as f64;
    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    let computes_ratio = delta(&["explore_computes"]) / served;
    let hit_ratio = hits / (hits + misses).max(1.0);
    m.record.extend([
        ("explore_computes_ratio", computes_ratio.to_string()),
        ("cache_hit_ratio", hit_ratio.to_string()),
        ("coalesced_joins", delta(&["coalesced_joins"]).to_string()),
        ("shed", delta(&["shed_requests"]).to_string()),
    ]);
    if trace {
        let ops = st.seq.len() as f64;
        let rtt = m.op_us.iter().sum::<f64>() / ops;
        m.layers_from(&t, st.seq.len());
        let layer = |name: &str| m.layers.get(name).copied().unwrap_or(0.0);
        let in_process =
            layer("service.decode_us") + layer("explore.compute_us") + layer("service.encode_us");
        m.layers.extend([
            ("service.loop_us", rtt - in_process),
            ("trace.span_coverage_ratio", in_process / rtt),
            ("trace.overhead_ratio", traced_rtt_us / ops / rtt - 1.0),
            ("service.explore_computes_ratio", computes_ratio),
            ("explore.cache_hit_ratio", hit_ratio),
            ("service.coalesced_joins", delta(&["coalesced_joins"])),
            ("service.shed", delta(&["shed_requests"])),
            (
                "service.server_p50_us",
                counter(&after, &["explore_latency", "p50_us"]),
            ),
        ]);
        m.spans = Some(t);
    }
    Ok(m)
}

/// The traced run: the sequence in blocks of [`BLOCK`] ops, each
/// block replayed twice over the same connection, once plain and once
/// with the in-process decomposition after every reply, alternating which
/// goes first so host-speed drift favours neither. The plain replies give
/// the round trip the decomposition is measured against. Returns the total
/// round trip of the traced replies, µs.
fn traced_replay(
    ctx: &Ctx,
    live: &mut Live,
    st: &State,
    m: &mut Measured,
    t: &mut Tracer,
    rotation: &Rotation,
) -> Result<f64, String> {
    // The in-process replay gets a warm cache of its own, like the
    // server's after set-up.
    let graphs: HashMap<String, Dfg> = cred_explore::suite::load_kernels(&ctx.root.join("kernels"))
        .map_err(|e| format!("loading kernels: {e}"))?
        .into_iter()
        .collect();
    let cache = SweepCache::new();
    for key in &st.keys {
        ExploreRequest::new(graphs[&st.kernels[key.kernel].name].clone())
            .max_f(key.max_f)
            .trip_count(HOT_N)
            .mode(key.mode)
            .run_with(&cache)
            .map_err(|e| format!("warming the replay cache: {e}"))?;
    }
    let mut traced_rtt_us = 0.0;
    for (b, first) in (0..st.seq.len()).step_by(BLOCK).enumerate() {
        let ids = first..(first + BLOCK).min(st.seq.len());
        rotation.pin_process(b);
        for traced in [b % 2 == 1, b % 2 == 0] {
            if !traced {
                let stolen = rotation.stolen_s();
                let r = replay(live, st, ids.clone(), |_, _| ());
                m.wall_s += r.wall_s;
                m.stolen_s += rotation.stolen_s() - stolen;
                m.attempted += r.us.len() as u64;
                m.op_us.extend(r.us);
                for (_, e) in r.errors {
                    m.fail(e);
                }
                continue;
            }
            let mut errs = Vec::new();
            let r = replay(live, st, ids.clone(), |id, frame| {
                let r = t.op(id as u32, "serve_hot.op", |t| {
                    traced_request(t, frame, &graphs, &cache)
                });
                if let Err(e) = r {
                    errs.push((id, format!("in-process replay: {e}")));
                }
            });
            traced_rtt_us += r.us.iter().sum::<f64>();
            m.attempted += r.us.len() as u64;
            // An op fails once, whether its reply or its replay failed.
            let mut failed: HashMap<usize, String> = r.errors.into_iter().collect();
            for (id, e) in errs {
                failed.entry(id).or_insert(e);
            }
            for (id, e) in failed {
                m.fail(format!("traced op {id}: {e}"));
            }
        }
    }
    Ok(traced_rtt_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_body_excludes_id_and_cache_counters() {
        let reply =
            "{\"ok\":true,\"schema_version\":3,\"id\":7,\"type\":\"explore\",\"coalesced\":false,\
                     \"points\":[1],\"frontier\":[1],\"degraded\":[],\"failed\":[],\
                     \"cache\":{\"hits\":3,\"misses\":1}}";
        let b = body(reply).unwrap();
        assert_eq!(
            b,
            ",\"points\":[1],\"frontier\":[1],\"degraded\":[],\"failed\":[]"
        );
        assert!(check_reply(reply, 7, b).is_ok());
        assert!(check_reply(reply, 8, b).is_err());
        assert!(check_reply(&reply.replace("[1],\"d", "[2],\"d"), 7, b).is_err());
        assert!(check_reply(&reply.replace("true", "false"), 7, b).is_err());
    }
}
