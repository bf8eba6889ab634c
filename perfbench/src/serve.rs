//! The served load: two open-loop rates and a saturation phase against one
//! `TdServer`, driven by a single generator thread.
//!
//! An open-loop request is timed from when it was *due*, not from when the
//! generator got round to sending it, so a stalled generator or server
//! charges its wait to every request behind it. Replies are observed by
//! non-blocking `try_reply` polling on the generator thread, which leaves
//! the second core to the server's dispatcher (`workers: 1`).

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::StdRng;
use td_api::{BoundedAnswer, RoutingIndex};
use td_gen::Query;
use td_server::{RequestHandle, ServeResult, ServerConfig, TdServer};

use crate::stats::{highest, median, quantile, ratio};
use crate::trace::{Tracer, NO_REQ};
use crate::{Checks, WorkloadKind};

/// Requests per second of the low open-loop rate: batches are small, so
/// latency is mostly the coalesce window plus one query.
pub const LOW_RATE: f64 = 2_000.0;
/// Requests per second of the high open-loop rate, where requests
/// coalesce into batches: 30,000/s for the TD-tree workloads, and 10,000/s
/// for TD-A\*-CH, whose queries cost about five times as much, so that both
/// stay well below the single worker's capacity.
pub fn high_rate(workload: WorkloadKind) -> f64 {
    match workload {
        WorkloadKind::SearchCh => 10_000.0,
        WorkloadKind::PaperIndex | WorkloadKind::ServeOpen => 30_000.0,
    }
}

/// Client deadline of every request.
pub const DEADLINE: Duration = Duration::from_millis(250);
/// Requests kept in flight in the saturation phase; below the overload
/// controller's degrade watermark (half of the 1024-slot queue).
pub const SAT_WINDOW: usize = 128;

/// The server configuration every workload uses: one executor worker, so
/// the generator and the dispatcher fit in two cores.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Phase lengths in seconds.
pub struct ServePlan {
    pub warmup: f64,
    pub low: f64,
    pub high: f64,
    pub sat: f64,
}

/// Checks served replies: each must be exact and bit-identical to the
/// session answer on the index the server serves.
pub struct Judge<'a> {
    pub now: &'a [Option<f64>],
    pub checks: &'a mut Checks,
}

impl Judge<'_> {
    fn reply(&mut self, res: &ServeResult, q: &Query, qi: usize) {
        let now = self.now[qi];
        let ok = matches!(res, Ok(BoundedAnswer::Exact(c)) if c.map(f64::to_bits) == now.map(f64::to_bits));
        self.checks.check(ok, || {
            format!(
                "served {}->{} @{}: {res:?}, session answered {now:?}",
                q.source, q.destination, q.depart
            )
        });
    }

    fn refused(&mut self, e: &dyn std::fmt::Display) {
        self.checks.check(false, || format!("request refused: {e}"));
    }
}

/// Brings a live server's dispatcher onto the current epoch before the
/// replies are judged strictly. The dispatcher looks for a new epoch only
/// after finishing a batch, so the first batch after an update is answered
/// from the epoch it last served. This sends one request alone, preferring
/// a query whose answer the update changed, and waits for it: that batch
/// may answer from `prev` (the session answers on the previous epoch) or
/// from `now`. Every later reply must answer from `now`. Returns whether
/// the reply was stale.
pub fn probe<I: RoutingIndex + 'static>(
    server: &TdServer<I>,
    queries: &[Query],
    now: &[Option<f64>],
    prev: &[Option<f64>],
    checks: &mut Checks,
) -> bool {
    let bits = |c: Option<f64>| c.map(f64::to_bits);
    let qi = (0..queries.len())
        .find(|&i| bits(now[i]) != bits(prev[i]))
        .unwrap_or(0);
    let q = &queries[qi];
    let res = server
        .submit(q.source, q.destination, q.depart, None)
        .map(|h| h.wait());
    let got = match &res {
        Ok(Ok(BoundedAnswer::Exact(c))) => Some(bits(*c)),
        _ => None,
    };
    let stale = got == Some(bits(prev[qi])) && got != Some(bits(now[qi]));
    checks.check(stale || got == Some(bits(now[qi])), || {
        format!(
            "probe {}->{} @{}: {res:?}, session answered {:?} now and {:?} before",
            q.source, q.destination, q.depart, now[qi], prev[qi]
        )
    });
    stale
}

struct Pending {
    q: usize,
    due: Instant,
    handle: RequestHandle,
}

struct OpenLoop {
    latency_us: Vec<f64>,
    submit_ns: Vec<f64>,
    late_max_us: f64,
    depth: Vec<f64>,
}

/// Interval between queue-depth samples in the high-rate phase.
const DEPTH_EVERY: Duration = Duration::from_micros(50);

/// Sends requests for `secs` as a Poisson process of `rate` per second (as
/// independent users would), starting at query `offset`. A fixed interval
/// would beat against the server's coalesce window: at 2,000/s it equals
/// the window. The server replies in admission order, so the generator
/// watches only the oldest outstanding request.
#[allow(clippy::too_many_arguments)]
fn open_loop<I: RoutingIndex + 'static>(
    server: &TdServer<I>,
    queries: &[Query],
    offset: usize,
    rate: f64,
    secs: f64,
    sample_depth: bool,
    rng: &mut StdRng,
    tr: &mut Tracer,
    judge: &mut Judge,
) -> OpenLoop {
    let mut arrivals = Vec::new();
    let mut at = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate;
        if at >= secs {
            break;
        }
        arrivals.push(Duration::from_secs_f64(at));
    }
    let total = arrivals.len();
    let mut out = OpenLoop {
        latency_us: Vec::with_capacity(total),
        submit_ns: Vec::with_capacity(total),
        late_max_us: 0.0,
        depth: Vec::new(),
    };
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(1024);
    let start = Instant::now();
    let mut next_depth = start;
    let mut next = 0usize;
    while next < total || !pending.is_empty() {
        let now = Instant::now();
        while next < total {
            let due = start + arrivals[next];
            if due > now {
                break;
            }
            let qi = (offset + next) % queries.len();
            let q = &queries[qi];
            let sp = tr.begin("server.submit", next as u64);
            let t0 = Instant::now();
            let r = server.submit(q.source, q.destination, q.depart, Some(due + DEADLINE));
            let t1 = Instant::now();
            tr.end(sp);
            out.submit_ns.push((t1 - t0).as_nanos() as f64);
            out.late_max_us = out
                .late_max_us
                .max(t0.saturating_duration_since(due).as_secs_f64() * 1e6);
            match r {
                Ok(handle) => pending.push_back(Pending { q: qi, due, handle }),
                Err(e) => judge.refused(&e),
            }
            next += 1;
        }
        while let Some(res) = pending.front().and_then(|p| p.handle.try_reply()) {
            let seen = Instant::now();
            let p = pending.pop_front().expect("front exists");
            out.latency_us
                .push(seen.saturating_duration_since(p.due).as_secs_f64() * 1e6);
            tr.record("server.request", tr.at(p.due), tr.at(seen), p.q as u64);
            judge.reply(&res, &queries[p.q], p.q);
        }
        if sample_depth && now >= next_depth {
            out.depth.push(server.queue_depth() as f64);
            next_depth = now + DEPTH_EVERY;
        }
        std::thread::yield_now();
    }
    out
}

/// Keeps [`SAT_WINDOW`] requests in flight for `secs`; returns the replies
/// per second.
fn saturate<I: RoutingIndex + 'static>(
    server: &TdServer<I>,
    queries: &[Query],
    offset: usize,
    secs: f64,
    judge: &mut Judge,
) -> f64 {
    let mut pending: VecDeque<(usize, RequestHandle)> = VecDeque::with_capacity(SAT_WINDOW);
    let mut next = offset;
    let mut submit = |pending: &mut VecDeque<(usize, RequestHandle)>, judge: &mut Judge| {
        let qi = next % queries.len();
        next += 1;
        let q = &queries[qi];
        let deadline = Instant::now() + DEADLINE;
        match server.submit(q.source, q.destination, q.depart, Some(deadline)) {
            Ok(h) => pending.push_back((qi, h)),
            Err(e) => judge.refused(&e),
        }
    };
    for _ in 0..SAT_WINDOW {
        submit(&mut pending, judge);
    }
    let window = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut replied = 0u64;
    while start.elapsed() < window {
        while let Some(res) = pending.front().and_then(|p| p.1.try_reply()) {
            let (qi, _) = pending.pop_front().expect("front exists");
            judge.reply(&res, &queries[qi], qi);
            replied += 1;
            submit(&mut pending, judge);
        }
        std::thread::yield_now();
    }
    let rate = replied as f64 / start.elapsed().as_secs_f64();
    for (qi, h) in pending {
        judge.reply(&h.wait(), &queries[qi], qi);
    }
    rate
}

/// The served load's samples, accumulated over the run's cycles. Latency
/// percentiles are taken per slice and reported as their median over the
/// slices, so one slice hit by a stall on the shared machine does not
/// decide the run's figure.
#[derive(Default)]
pub struct Served {
    /// Per-slice latency percentiles.
    low_p50: Vec<f64>,
    low_p90: Vec<f64>,
    high_p50: Vec<f64>,
    high_p90: Vec<f64>,
    high_p99: Vec<f64>,
    submit_ns: Vec<f64>,
    depth: Vec<f64>,
    sat_qps: Vec<f64>,
    late_max_us: f64,
    high_replied: u64,
    high_batches: u64,
    offered: u64,
    refused: u64,
    replied: u64,
    approximate: u64,
}

impl Served {
    /// One slice of warm-up, low rate, high rate (`high_rate` requests per
    /// second) and saturation against `server`.
    #[allow(clippy::too_many_arguments)]
    pub fn slice<I: RoutingIndex + 'static>(
        &mut self,
        server: &TdServer<I>,
        queries: &[Query],
        high_rate: f64,
        plan: &ServePlan,
        rng: &mut StdRng,
        tr: &mut Tracer,
        judge: &mut Judge,
    ) {
        let offset = rng.gen_range(0..queries.len());
        let start = server.stats();
        let sp = tr.begin("bench.serve_warmup", NO_REQ);
        open_loop(
            server,
            queries,
            offset,
            LOW_RATE,
            plan.warmup,
            false,
            rng,
            tr,
            judge,
        );
        tr.end(sp);

        let sp = tr.begin("bench.serve_low", NO_REQ);
        let low = open_loop(
            server, queries, offset, LOW_RATE, plan.low, false, rng, tr, judge,
        );
        tr.end(sp);

        let before = server.stats();
        let sp = tr.begin("bench.serve_high", NO_REQ);
        let high = open_loop(
            server, queries, offset, high_rate, plan.high, true, rng, tr, judge,
        );
        tr.end(sp);
        let after = server.stats();

        let sp = tr.begin("bench.serve_saturation", NO_REQ);
        self.sat_qps
            .push(saturate(server, queries, offset, plan.sat, judge));
        tr.end(sp);
        let end = server.stats();

        self.low_p50.push(quantile(&low.latency_us, 0.5));
        self.low_p90.push(quantile(&low.latency_us, 0.9));
        self.high_p50.push(quantile(&high.latency_us, 0.5));
        self.high_p90.push(quantile(&high.latency_us, 0.9));
        self.high_p99.push(quantile(&high.latency_us, 0.99));
        self.submit_ns
            .extend(low.submit_ns.iter().chain(&high.submit_ns));
        self.depth.extend(high.depth);
        self.late_max_us = self.late_max_us.max(low.late_max_us).max(high.late_max_us);
        self.high_replied += after.replied - before.replied;
        self.high_batches += after.batches - before.batches;
        self.offered += (end.admitted + end.rejected) - (start.admitted + start.rejected);
        self.refused += (end.rejected + end.shed_expired) - (start.rejected + start.shed_expired);
        self.replied += end.replied - start.replied;
        self.approximate += end.approximate - start.approximate;
    }

    pub fn finish(&self, m: &mut BTreeMap<&'static str, f64>) {
        m.insert("serve_low_p50_us", median(&self.low_p50));
        m.insert("server.low_p90_us", median(&self.low_p90));
        m.insert("server.high_p50_us", median(&self.high_p50));
        m.insert("server.high_p90_us", median(&self.high_p90));
        // Work from other tenants of a shared machine only ever takes
        // throughput away, so the run reports its best slice.
        m.insert("serve_sat_qps", highest(&self.sat_qps));
        m.insert("server.submit_ns_p50", quantile(&self.submit_ns, 0.5));
        m.insert(
            "server.batch_mean",
            ratio(self.high_replied as f64, self.high_batches as f64),
        );
        m.insert("server.queue_depth_p90", quantile(&self.depth, 0.9));
        m.insert(
            "server.refused_frac",
            ratio(self.refused as f64, self.offered as f64),
        );
        m.insert(
            "server.approx_frac",
            ratio(self.approximate as f64, self.replied as f64),
        );
        m.insert("server.gen_late_max_us", self.late_max_us);
        m.insert("server.p99_us", median(&self.high_p99));
    }
}

/// Sends the queries at `picks` one at a time and waits for each reply; for
/// checks outside the timed phases.
pub fn serve_each<I: RoutingIndex + 'static>(
    server: &TdServer<I>,
    queries: &[Query],
    picks: &[usize],
    judge: &mut Judge,
) {
    for &qi in picks {
        let q = &queries[qi];
        match server.submit(q.source, q.destination, q.depart, None) {
            Ok(h) => judge.reply(&h.wait(), q, qi),
            Err(e) => judge.refused(&e),
        }
    }
}
