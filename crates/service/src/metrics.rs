//! Service observability: lock-free counters and a latency histogram.
//!
//! Every counter is a relaxed [`AtomicU64`] — the hot path pays one
//! uncontended atomic add per event. Latencies go into a log-linear
//! microsecond histogram: values below 16 µs each have a bucket of their
//! own, and every octave above splits into 16 equal sub-buckets, so 976
//! buckets cover the whole `u64` range. A percentile is the upper bound
//! of the bucket holding its rank: exact below 16 µs and at most 1/16
//! above the true value anywhere, so a 5 µs event-loop reply reads 5,
//! not the 7 of a log2 bucket.
//!
//! A [`MetricsSnapshot`] freezes all counters at once and renders the
//! `stats` response body (and the `--metrics-dump` file).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cred_explore::CacheStats;

/// Sub-buckets per octave, as a power of two; values below `1 << SUB_BITS`
/// are kept exact.
const SUB_BITS: u32 = 4;

/// Buckets for every `u64`: the 16 exact values, then 16 per octave for
/// the 60 octaves from `[16, 32)` up.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Log-linear latency histogram over microseconds.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// The bucket of `micros`. Below 32 the bucket is the value itself;
    /// above, the value shifted right by `shift` keeps its top five bits
    /// (16..32), and `shift` picks the octave.
    fn bucket_of(micros: u64) -> usize {
        let shift = (63 - micros.max(1).leading_zeros()).saturating_sub(SUB_BITS);
        ((shift as usize) << SUB_BITS) + (micros >> shift) as usize
    }

    /// The largest value bucket `b` holds.
    fn upper_bound(b: usize) -> u64 {
        let shift = (b >> SUB_BITS).max(1) - 1;
        let top = (b - (shift << SUB_BITS)) as u128;
        (((top + 1) << shift) - 1) as u64
    }

    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// Percentile estimate over a frozen bucket array: the upper bound (in
/// µs) of the bucket holding the `p`-th observation.
pub fn percentile_micros(buckets: &[u64; BUCKETS], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the observation we want, 1-based, clamped into range.
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (b, count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Histogram::upper_bound(b);
        }
    }
    u64::MAX
}

/// The service's counters. One instance per server, shared by all
/// workers.
#[derive(Default)]
pub struct Metrics {
    /// Request lines received (any type, well-formed or not).
    pub requests: AtomicU64,
    /// Responses with `"ok": true`.
    pub ok: AtomicU64,
    /// Responses with `"ok": false`.
    pub errors: AtomicU64,
    /// Explore requests evaluated in the worker pool: coalesce leaders
    /// and recomputes. A request answered on the event loop is counted in
    /// `loop_hits` instead, and a pool evaluation whose points were all
    /// memoized solves nothing, so this counts evaluations, not solves.
    pub explore_computes: AtomicU64,
    /// Explore requests answered on the event loop from memoized points,
    /// without the worker pool.
    pub loop_hits: AtomicU64,
    /// Explore requests served by joining another request's flight.
    pub coalesced_joins: AtomicU64,
    /// Joins that could not share the leader's budget-shaped outcome and
    /// recomputed under their own limits (also counted in
    /// `explore_computes`).
    pub coalesce_recomputes: AtomicU64,
    /// Degraded points across all responses.
    pub degraded_points: AtomicU64,
    /// Failed points across all responses.
    pub failed_points: AtomicU64,
    /// Requests rejected or cut off with a budget-exhausted error.
    pub budget_exhaustions: AtomicU64,
    /// Explore requests shed at admission (typed `overloaded` response)
    /// because the in-flight bound was reached.
    pub shed_requests: AtomicU64,
    /// Connections accepted by the listener. Every accepted connection
    /// ends in exactly one of the close-reason counters below, so after a
    /// clean shutdown `conns_accepted == closed_ok + idle_closed +
    /// slow_closed + reset_by_peer + drained`.
    pub conns_accepted: AtomicU64,
    /// Connections that ran to normal completion (client finished and the
    /// last response flushed).
    pub closed_ok: AtomicU64,
    /// Connections closed by the idle timeout: no pending work, no bytes,
    /// just silence past the deadline.
    pub idle_closed: AtomicU64,
    /// Connections closed by the progress deadline: a request line that
    /// never finished arriving (slowloris), a reader that stopped
    /// draining its responses past the backpressure pause, or a write
    /// buffer that hit the hard cap.
    pub slow_closed: AtomicU64,
    /// Connections that died on a transport error (ECONNRESET / EPIPE /
    /// read failure) — including half-open peers detected when a write
    /// finally failed after their EOF.
    pub reset_by_peer: AtomicU64,
    /// Connections closed by the shutdown drain after their in-flight
    /// responses were flushed (or the drain deadline expired).
    pub drained: AtomicU64,
    /// Latency of explore requests, arrival to response rendered.
    pub explore_latency: Histogram,
}

impl Metrics {
    /// Bump `counter` by one (relaxed; counters are statistically read).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Freeze every counter, pairing it with the shared cache's stats and
    /// the coalescer's poison-recovery count (which lives on the
    /// coalescer itself, next to the lock it guards).
    pub fn snapshot(&self, cache: CacheStats, coalesce_poison_recoveries: u64) -> MetricsSnapshot {
        let latency = self.explore_latency.snapshot();
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            explore_computes: self.explore_computes.load(Ordering::Relaxed),
            loop_hits: self.loop_hits.load(Ordering::Relaxed),
            coalesced_joins: self.coalesced_joins.load(Ordering::Relaxed),
            coalesce_recomputes: self.coalesce_recomputes.load(Ordering::Relaxed),
            coalesce_poison_recoveries,
            degraded_points: self.degraded_points.load(Ordering::Relaxed),
            failed_points: self.failed_points.load(Ordering::Relaxed),
            budget_exhaustions: self.budget_exhaustions.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            closed_ok: self.closed_ok.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            slow_closed: self.slow_closed.load(Ordering::Relaxed),
            reset_by_peer: self.reset_by_peer.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            p50_micros: percentile_micros(&latency, 50.0),
            p99_micros: percentile_micros(&latency, 99.0),
            cache,
        }
    }
}

/// All counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::ok`].
    pub ok: u64,
    /// See [`Metrics::errors`].
    pub errors: u64,
    /// See [`Metrics::explore_computes`].
    pub explore_computes: u64,
    /// See [`Metrics::loop_hits`].
    pub loop_hits: u64,
    /// See [`Metrics::coalesced_joins`].
    pub coalesced_joins: u64,
    /// See [`Metrics::coalesce_recomputes`].
    pub coalesce_recomputes: u64,
    /// Poisoned coalescer locks recovered
    /// ([`crate::Coalescer::poison_recoveries`]).
    pub coalesce_poison_recoveries: u64,
    /// See [`Metrics::degraded_points`].
    pub degraded_points: u64,
    /// See [`Metrics::failed_points`].
    pub failed_points: u64,
    /// See [`Metrics::budget_exhaustions`].
    pub budget_exhaustions: u64,
    /// See [`Metrics::shed_requests`].
    pub shed_requests: u64,
    /// See [`Metrics::conns_accepted`].
    pub conns_accepted: u64,
    /// See [`Metrics::closed_ok`].
    pub closed_ok: u64,
    /// See [`Metrics::idle_closed`].
    pub idle_closed: u64,
    /// See [`Metrics::slow_closed`].
    pub slow_closed: u64,
    /// See [`Metrics::reset_by_peer`].
    pub reset_by_peer: u64,
    /// See [`Metrics::drained`].
    pub drained: u64,
    /// Estimated median explore latency (µs): exact below 16, otherwise
    /// the bucket upper bound, at most 1/16 above the true value.
    pub p50_micros: u64,
    /// Estimated 99th-percentile explore latency (µs).
    pub p99_micros: u64,
    /// Shared sweep-cache counters.
    pub cache: CacheStats,
}

impl MetricsSnapshot {
    /// Render as a compact JSON object (the body of a `stats` response).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"ok\":{},\"errors\":{},\"explore_computes\":{},\
             \"loop_hits\":{},\"coalesced_joins\":{},\"coalesce_recomputes\":{},\
             \"coalesce_poison_recoveries\":{},\"degraded_points\":{},\
             \"failed_points\":{},\
             \"budget_exhaustions\":{},\"shed_requests\":{},\
             \"conns\":{{\"accepted\":{},\"closed_ok\":{},\"idle_closed\":{},\
             \"slow_closed\":{},\"reset_by_peer\":{},\"drained\":{}}},\
             \"explore_latency\":{{\"p50_us\":{},\"p99_us\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"poison_recoveries\":{}}}}}",
            self.requests,
            self.ok,
            self.errors,
            self.explore_computes,
            self.loop_hits,
            self.coalesced_joins,
            self.coalesce_recomputes,
            self.coalesce_poison_recoveries,
            self.degraded_points,
            self.failed_points,
            self.budget_exhaustions,
            self.shed_requests,
            self.conns_accepted,
            self.closed_ok,
            self.idle_closed,
            self.slow_closed,
            self.reset_by_peer,
            self.drained,
            self.p50_micros,
            self.p99_micros,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.poison_recoveries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_16_then_16_per_octave() {
        // Every value below 32 has a bucket of its own.
        for v in 0..32 {
            assert_eq!(Histogram::bucket_of(v), v as usize);
            assert_eq!(Histogram::upper_bound(v as usize), v);
        }
        // Above, each octave [2^k, 2^(k+1)) splits into 16 buckets of
        // width 2^(k-4).
        assert_eq!(Histogram::bucket_of(32), 32);
        assert_eq!(Histogram::bucket_of(33), 32);
        assert_eq!(Histogram::bucket_of(34), 33);
        assert_eq!(Histogram::bucket_of(63), 47);
        assert_eq!(Histogram::bucket_of(64), 48);
        assert_eq!(Histogram::bucket_of(1024), 16 * 7);
        assert_eq!(Histogram::bucket_of(1024 + 63), 16 * 7);
        assert_eq!(Histogram::bucket_of(1024 + 64), 16 * 7 + 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::upper_bound(BUCKETS - 1), u64::MAX);
        // The buckets tile the range: each starts one past the end of
        // the one before, and both ends map back to their bucket.
        for b in 1..BUCKETS {
            let low = Histogram::upper_bound(b - 1) + 1;
            let high = Histogram::upper_bound(b);
            assert!(low <= high, "bucket {b}");
            assert_eq!(Histogram::bucket_of(low), b);
            assert_eq!(Histogram::bucket_of(high), b);
        }
    }

    #[test]
    fn reported_bound_is_within_a_sixteenth_of_the_value() {
        // Values spread over 1 µs to 2^40 µs: every octave's ends and a
        // pseudo-random value in each.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut values = Vec::new();
        for k in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let low = 1u64 << k;
            values.extend([low, low + 1, 2 * low - 1, low + x % low]);
        }
        values.push(1 << 40);
        for v in values {
            let h = Histogram::default();
            h.record(Duration::from_micros(v));
            let u = percentile_micros(&h.snapshot(), 50.0);
            assert!(v <= u && u <= v + v / 16, "value {v} reported as {u}");
        }
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let h = Histogram::default();
        // 99 fast observations (~100 µs) and one slow outlier (~1 s).
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_secs(1));
        let snap = h.snapshot();
        let p50 = percentile_micros(&snap, 50.0);
        let p99 = percentile_micros(&snap, 99.0);
        let p100 = percentile_micros(&snap, 100.0);
        assert!((100..=255).contains(&p50), "p50 = {p50}");
        assert!((100..=255).contains(&p99), "p99 = {p99}, rank 99 of 100");
        assert!(p100 >= 1_000_000, "p100 must see the outlier, got {p100}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(percentile_micros(&h.snapshot(), 99.0), 0);
    }

    #[test]
    fn snapshot_renders_parseable_json() {
        let m = Metrics::default();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.ok);
        m.explore_latency.record(Duration::from_micros(250));
        Metrics::bump(&m.shed_requests);
        let snap = m.snapshot(CacheStats::default(), 3);
        let j = snap.to_json();
        let v = crate::json::parse(&j).expect("stats JSON parses");
        assert_eq!(v.get("requests").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("ok").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("shed_requests").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(
            v.get("coalesce_poison_recoveries").and_then(|x| x.as_u64()),
            Some(3)
        );
        assert!(v.get("explore_latency").is_some());
        assert!(v.get("cache").is_some());
    }

    #[test]
    fn close_reasons_render_under_the_conns_object() {
        let m = Metrics::default();
        Metrics::bump(&m.conns_accepted);
        Metrics::bump(&m.conns_accepted);
        Metrics::bump(&m.closed_ok);
        Metrics::bump(&m.idle_closed);
        Metrics::bump(&m.slow_closed);
        Metrics::bump(&m.reset_by_peer);
        Metrics::bump(&m.drained);
        let j = m.snapshot(CacheStats::default(), 0).to_json();
        let v = crate::json::parse(&j).expect("stats JSON parses");
        let conns = v.get("conns").expect("conns object");
        for key in [
            "closed_ok",
            "idle_closed",
            "slow_closed",
            "reset_by_peer",
            "drained",
        ] {
            assert_eq!(conns.get(key).and_then(|x| x.as_u64()), Some(1), "{key}");
        }
        assert_eq!(conns.get("accepted").and_then(|x| x.as_u64()), Some(2));
    }
}
