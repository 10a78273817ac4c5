//! `cred-service`: a long-running, multi-client evaluation server for
//! CRED design-space exploration.
//!
//! The library behind `credc serve`. Clients connect over TCP and speak
//! newline-delimited JSON; each `explore` request is one
//! [`ExploreRequest`](cred_explore::ExploreRequest) evaluated against a
//! process-wide shared [`SweepCache`](cred_explore::cache::SweepCache),
//! with identical in-flight requests coalesced onto a single computation
//! ([`coalesce`]). Admission control anchors every request's deadline at
//! arrival and answers overstayed requests with typed budget errors
//! instead of dropped connections ([`server`]). Counters and latency
//! histograms are exported through the `stats` request and the
//! `--metrics-dump` file ([`metrics`]).
//!
//! The network boundary is hardened and testable: the event loop waits
//! in one level-triggered `poll(2)` table ([`poller`]), the crate's only
//! event loop; connections carry idle/progress deadlines that the loop
//! reads off them on every turn, with typed close reasons in the
//! metrics; [`chaosnet`] is a seeded in-process fault-injection TCP
//! proxy (frame splitting, delays, resets, stalls, garbage) mirroring
//! `cred-resilience`'s deterministic `ChaosPlan` seeding, whose threads
//! block in `read`, `write` or `sleep` and never poll, so it cannot
//! spin; and [`client`] is the resilient caller —
//! connect/read timeouts, capped backoff with jitter, idempotent retry
//! keyed by request id, and a circuit breaker — that `loadgen` and
//! `credc` use.
//!
//! The `loadgen` binary in this crate drives a server with N concurrent
//! clients and records throughput and tail latency against a sequential
//! baseline in a JSON report (`--out`); its `--chaos` mode drives the
//! full client→proxy→server stack and fails on any silent corruption.

pub mod chaosnet;
pub mod client;
pub mod coalesce;
pub mod json;
pub mod metrics;
pub mod poller;
pub mod server;

pub use chaosnet::{ChaosProxy, ChaosProxyConfig, NetChaosPlan, ProxyStatsSnapshot};
pub use client::{ClientConfig, ClientError, ClientStats, ResilientClient};
pub use coalesce::{Coalescer, Role};
pub use metrics::{Metrics, MetricsSnapshot};
pub use server::{Server, ServiceConfig};
