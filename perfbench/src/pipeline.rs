//! One run: inputs, set-up, closed-loop queries, served load, live updates
//! and the answer checks, in that order.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::StdRng;
use td_api::conformance::COST_EPS;
use td_api::{
    load_tree_index, save_index, AStarChIndex, DijkstraOracle, IncrementalIndex, LiveIndex,
    QuerySession, RoutingIndex,
};
use td_core::{IndexOptions, SelectionStrategy, TdTreeIndex};
use td_gen::{Dataset, Query, Workload, WorkloadConfig};
use td_graph::{Path, TdGraph, VertexId};
use td_plf::{Plf, Pt};
use td_server::TdServer;

use crate::serve::{high_rate, probe, serve_each, server_config, Judge, ServePlan, Served};
use crate::stats::{lowest, median, quantile};
use crate::trace::{Tracer, NO_REQ};
use crate::{layers, Checks, Config, Report, WorkloadKind};

/// Departure times asked per pair (paper §5: 10 intervals).
pub const TIMES_PER_PAIR: usize = 10;
/// Cycles of a run.
pub const CYCLES: usize = 5;
/// Shares of a closed-loop round spent on cost passes, path passes and
/// profile queries.
const COST_SHARE: f64 = 0.3;
const PATH_SHARE: f64 = 0.2;
const PROFILE_SHARE: f64 = 0.5;
/// Times each timed pair is profiled at least over the run.
pub const MIN_PROFILE_PASSES: usize = 2;
/// Time spent on cost and path passes interleaved with the profile
/// queries, as a share of the time the profile queries take.
const INTERLEAVE: f64 = 0.25;
/// Cost answers compared with the Dijkstra oracle (plus query 0).
pub const ORACLE_SAMPLE: usize = 200;
/// Profiled pairs whose values are compared with the oracle.
pub const ORACLE_PROFILES: usize = 10;
/// Queries checked against the oracle after the update phase.
pub const POST_UPDATE_SAMPLE: usize = 100;
/// Edges an incident jams, spread along one route.
pub const INCIDENT_EDGES: usize = 4;
/// Incidents in the run's ring of update batches.
pub const INCIDENTS: usize = 3;
/// Rush-hour multiplier of a jammed edge at its 08:00 peak.
pub const RUSH: f64 = 3.0;

/// A batch of absolute edge-weight changes.
pub type Batch = Vec<(VertexId, VertexId, Plf)>;

/// The run's generated inputs.
pub struct Inputs {
    pub graph: TdGraph,
    pub queries: Vec<Query>,
}

impl Inputs {
    pub fn generate(cfg: &Config) -> Inputs {
        let graph = Dataset::Cal.build(3, cfg.scale, crate::NETWORK_SEED);
        let queries = Workload::generate(
            graph.num_vertices(),
            &WorkloadConfig {
                pairs: cfg.pairs,
                times_per_pair: TIMES_PER_PAIR,
                seed: cfg.seed,
            },
        )
        .queries;
        Inputs { graph, queries }
    }

    pub fn budget(&self, cfg: &Config) -> u64 {
        Dataset::Cal.spec().budget_at(cfg.scale) as u64
    }
}

/// How long each phase of one cycle runs, as shares of the run's seconds,
/// and how many pairs have their profiles timed.
pub struct Plan {
    pub closed_loop: f64,
    pub updates: f64,
    pub serve: ServePlan,
    /// The first this many pairs of the query set are profiled. TD-tree
    /// profiles take about a millisecond, so every pair is; TD-A\*-CH
    /// profiles take about 80 ms, so 100 pairs are, which leaves 10 samples
    /// beyond the reported p90.
    pub profile_pairs: usize,
}

impl Plan {
    pub fn new(cfg: &Config) -> Plan {
        let per_cycle = cfg.seconds / CYCLES as f64;
        Plan {
            closed_loop: 0.30 * per_cycle,
            updates: 0.35 * per_cycle,
            serve: ServePlan {
                warmup: 0.05 * per_cycle,
                low: 0.12 * per_cycle,
                high: 0.08 * per_cycle,
                sat: 0.10 * per_cycle,
            },
            profile_pairs: match cfg.workload {
                WorkloadKind::SearchCh => 100,
                WorkloadKind::PaperIndex | WorkloadKind::ServeOpen => 1000,
            }
            .min(cfg.pairs),
        }
    }
}

/// Answers of the closed-loop phase, kept for the checks, the incidents and
/// the served-reply comparison.
pub struct Answers {
    pub costs: Vec<Option<f64>>,
    pub paths: Vec<Option<(f64, Path)>>,
    /// `(pair, profile)` for each profiled pair.
    pub profiles: Vec<(usize, Option<Plf>)>,
}

/// TD-appro as the paper builds it: Algo. 5 under the dataset's scaled
/// budget, one construction thread, support lists for live updates.
pub fn build_appro(graph: &TdGraph, budget: u64, tr: &mut Tracer) -> TdTreeIndex {
    let sp = tr.begin("core.TdTreeIndex::build", NO_REQ);
    let index = TdTreeIndex::build(
        graph.clone(),
        IndexOptions {
            strategy: SelectionStrategy::Greedy { budget },
            threads: 1,
            track_supports: true,
        },
    );
    tr.end(sp);
    index
}

/// Runs `cfg.workload` on its standard index.
pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        WorkloadKind::PaperIndex => run_with(cfg, |g, budget, tr, _| build_appro(g, budget, tr)),
        WorkloadKind::SearchCh => run_with(cfg, |g, _, tr, _| {
            let sp = tr.begin("api.AStarChIndex::new", NO_REQ);
            let index = AStarChIndex::new(g.clone());
            tr.end(sp);
            index
        }),
        WorkloadKind::ServeOpen => run_with(cfg, |g, budget, tr, dir| {
            let index = build_appro(g, budget, tr);
            let path = dir.join(format!("serve-open-{}.tdx", std::process::id()));
            let sp = tr.begin("store.save_index", NO_REQ);
            save_index(&index, &path).expect("snapshot save");
            tr.end(sp);
            drop(index);
            let sp = tr.begin("store.load_tree_index", NO_REQ);
            let loaded = load_tree_index(&path).expect("snapshot load");
            tr.end(sp);
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(path.with_extension("tdx.prev"));
            loaded
        }),
    }
}

/// Where a workload's updates go and what its server serves.
enum Writer<I: IncrementalIndex + Clone + 'static> {
    /// paper-index: `LiveIndex::try_apply`; a fixed-index server per cycle.
    Live(LiveIndex<I>),
    /// search-ch: `IncrementalIndex::update_edges` in place; a fixed-index
    /// server per cycle on a copy.
    Direct(I),
    /// serve-open: one `TdServer::serve_live` for the whole run; updates go
    /// through its update lane and count as done when the served epoch
    /// moves.
    Lane(Arc<LiveIndex<I>>, TdServer<I>),
}

impl<I: IncrementalIndex + Clone + 'static> Writer<I> {
    fn reader(&self) -> Arc<I> {
        match self {
            Writer::Live(live) => live.snapshot(),
            Writer::Direct(index) => Arc::new(index.clone()),
            Writer::Lane(live, _) => live.snapshot(),
        }
    }

    /// Runs `f` against a server whose index answers like `snap`.
    fn with_server(&self, snap: &Arc<I>, f: impl FnOnce(&TdServer<I>)) {
        match self {
            Writer::Lane(_, server) => f(server),
            _ => {
                let server = TdServer::serve(Arc::clone(snap), server_config());
                f(&server);
                server.shutdown();
            }
        }
    }

    /// Applies one batch; returns how long it took to take effect.
    fn apply(&mut self, batch: &Batch) -> Result<Duration, String> {
        let start = Instant::now();
        match self {
            Writer::Live(live) => {
                live.try_apply(batch).map_err(|e| e.to_string())?;
                Ok(start.elapsed())
            }
            Writer::Direct(index) => {
                index.update_edges(batch);
                Ok(start.elapsed())
            }
            Writer::Lane(live, server) => {
                let (epoch, applied) = (live.epoch(), server.stats().updates_applied);
                server
                    .submit_update(batch.clone())
                    .map_err(|e| e.to_string())?;
                let give_up = start + Duration::from_secs(60);
                while live.epoch() == epoch {
                    if Instant::now() > give_up {
                        return Err("update not visible after 60 s".to_string());
                    }
                    std::thread::yield_now();
                }
                let visible = start.elapsed();
                // The lane levels the retired copy after publishing; let it
                // finish so it does not run into the next measurements.
                while server.stats().updates_applied == applied {
                    if Instant::now() > give_up {
                        return Err("update lane still busy after 60 s".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(visible)
            }
        }
    }
}

/// Runs `cfg.workload` on the index `setup` produces from the network, its
/// budget and a scratch directory. The self-test passes a wrapped index.
///
/// After set-up the run goes through [`CYCLES`] cycles. Each cycle runs a
/// closed-loop round, a served slice and an update slice on the index as
/// the previous cycles left it, so every metric samples the whole run and a
/// slow spell on the shared machine does not fall on one metric alone.
pub fn run_with<I, F>(cfg: &Config, setup: F) -> Report
where
    I: IncrementalIndex + Clone + 'static,
    F: Fn(&TdGraph, u64, &mut Tracer, &FsPath) -> I,
{
    std::fs::create_dir_all(&cfg.out_dir).expect("create the output directory");
    let mut tr = Tracer::new(cfg.trace);
    let mut checks = Checks::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let inputs = Inputs::generate(cfg);
    // The graph as the applied batches left it, kept here rather than read
    // from the index, so that an index that drops an update disagrees with
    // the oracle instead of agreeing with it.
    let mut expected = inputs.graph.clone();
    let budget = inputs.budget(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_bec4_0000_0001);
    let plan = Plan::new(cfg);

    // Set-up: from generated graph to a servable index. Untraced runs set
    // up again at the start of every later cycle and drop the copy, so that
    // the median samples the whole run, as the other metrics do.
    let reps = match cfg.workload {
        WorkloadKind::SearchCh => 3,
        WorkloadKind::PaperIndex | WorkloadKind::ServeOpen => 1,
    };
    let mut setup_s = Vec::new();
    let mut set_up = |tr: &mut Tracer| {
        let mut built = None;
        for _ in 0..reps {
            drop(built.take());
            let sp = tr.begin("bench.setup", NO_REQ);
            let t = Instant::now();
            built = Some(setup(&inputs.graph, budget, tr, &cfg.out_dir));
            setup_s.push(t.elapsed().as_secs_f64());
            tr.end(sp);
        }
        built.expect("at least one set-up")
    };
    let index = set_up(&mut tr);
    m.insert("index_mb", index.memory_bytes() as f64 / 1e6);

    let mut writer = match cfg.workload {
        WorkloadKind::PaperIndex => Writer::Live(LiveIndex::new(index)),
        WorkloadKind::SearchCh => Writer::Direct(index),
        WorkloadKind::ServeOpen => {
            let live = Arc::new(LiveIndex::new(index));
            let server = TdServer::serve_live(Arc::clone(&live), server_config());
            Writer::Lane(live, server)
        }
    };
    let mut rounds = Rounds::default();
    let mut served = Served::default();
    let mut first: Option<Answers> = None;
    let mut batches: Vec<Batch> = Vec::new();
    // Fastest time of each batch of the ring so far.
    let mut update_ms = Vec::new();
    let mut applied = 0;
    let mut last_applied: Option<usize> = None;
    let mut prev_costs: Option<Vec<Option<f64>>> = None;
    let mut stale = 0;
    for cycle in 0..CYCLES {
        if !cfg.trace && cycle > 0 {
            drop(set_up(&mut tr));
        }
        let snap = writer.reader();
        if let Some(b) = last_applied {
            check_weights(snap.graph(), &batches[b], &mut checks);
        }
        let oracle = DijkstraOracle::new(expected.clone());
        let ans = rounds.run(&inputs, &*snap, &plan, &mut tr);
        check_answers(&inputs, &expected, &ans, &oracle, &mut checks);

        if let Writer::Lane(_, server) = &writer {
            let prev = prev_costs.as_deref().unwrap_or(&ans.costs);
            stale += u64::from(probe(
                server,
                &inputs.queries,
                &ans.costs,
                prev,
                &mut checks,
            ));
        }
        let mut judge = Judge {
            now: &ans.costs,
            checks: &mut checks,
        };
        writer.with_server(&snap, |server| {
            served.slice(
                server,
                &inputs.queries,
                high_rate(cfg.workload),
                &plan.serve,
                &mut rng,
                &mut tr,
                &mut judge,
            )
        });
        drop(snap);
        prev_costs = Some(ans.costs.clone());
        if first.is_none() {
            batches = incidents(&inputs, &ans, &mut rng);
            update_ms = vec![f64::INFINITY; batches.len()];
            first = Some(ans);
        }

        // The double buffer levels its retired copy in place only when no
        // reader holds it, so no snapshot is alive here.
        let sp = tr.begin("bench.updates", NO_REQ);
        let start = Instant::now();
        let first_here = applied;
        while applied == first_here || start.elapsed().as_secs_f64() < plan.updates {
            let b = applied % batches.len();
            let s = tr.begin("api.update", b as u64);
            let r = writer.apply(&batches[b]);
            tr.end(s);
            // The run's first batch has no earlier incident to clear, so it
            // is applied but not timed.
            if let (Ok(took), true) = (&r, applied > 0) {
                update_ms[b] = update_ms[b].min(took.as_secs_f64() * 1e3);
            }
            if r.is_ok() {
                for (u, v, w) in &batches[b] {
                    let e = expected.find_edge(*u, *v).expect("incident edge");
                    expected.set_weight(e, w.clone()).expect("valid weight");
                }
                last_applied = Some(b);
            }
            checks.check(r.is_ok(), || format!("update batch {b}: {r:?}"));
            applied += 1;
        }
        tr.end(sp);
    }
    m.insert("setup_s", median(&setup_s));
    rounds.finish(&mut m);
    served.finish(&mut m);
    // Every batch of the ring does the same work each time it is applied,
    // so, as with profiles, each counts at its fastest.
    m.insert("update_p50_ms", median(&update_ms));

    let after = writer.reader();
    if let Some(b) = last_applied {
        check_weights(after.graph(), &batches[b], &mut checks);
    }
    check_after_updates(&inputs, &expected, &*after, &mut rng, &mut checks);
    if let Writer::Lane(_, server) = &writer {
        // Replies after the last updates must come from the updated index.
        let mut session = QuerySession::new(&*after);
        let now: Vec<Option<f64>> = inputs
            .queries
            .iter()
            .map(|q| session.query_cost(q.source, q.destination, q.depart))
            .collect();
        let prev = prev_costs.as_ref().expect("one cycle ran");
        stale += u64::from(probe(server, &inputs.queries, &now, prev, &mut checks));
        let picks: Vec<usize> = (0..POST_UPDATE_SAMPLE)
            .map(|_| rng.gen_range(0..inputs.queries.len()))
            .collect();
        let mut judge = Judge {
            now: &now,
            checks: &mut checks,
        };
        serve_each(server, &inputs.queries, &picks, &mut judge);
    }
    m.insert("server.stale_replies", stale as f64);
    if cfg.trace {
        let first = first.expect("one cycle ran");
        layers::measure(cfg, &inputs, &*after, &first, &batches, &mut tr, &mut m);
    }
    drop(after);
    if let Writer::Lane(_, server) = writer {
        server.shutdown();
    }

    let trace_file = cfg.trace.then(|| {
        let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
        tr.write_jsonl(&path).expect("write the span file");
        path
    });
    if cfg.trace {
        m.insert("trace.spans", tr.spans().len() as f64);
        let by_layer = tr.self_time_by_layer();
        for (layer, metric) in [
            ("bench", "self.bench_ms"),
            ("api", "self.api_ms"),
            ("core", "self.core_ms"),
            ("plf", "self.plf_ms"),
            ("treedec", "self.treedec_ms"),
            ("store", "self.store_ms"),
            ("server", "self.server_ms"),
            ("obs", "self.obs_ms"),
        ] {
            m.insert(
                metric,
                by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            );
        }
    }
    Report {
        checks,
        all: m,
        trace: cfg.trace,
        trace_file,
    }
}

/// Per-pass statistics of the closed loop across cycles.
#[derive(Default)]
struct Rounds {
    /// p50 of each untraced cost pass and of each traced one (the first of
    /// each traced round), for the tracing overhead.
    plain_p50: Vec<f64>,
    traced_p50: Vec<f64>,
    /// Fastest untraced time of each query so far, in microseconds.
    cost_us: Vec<f64>,
    path_us: Vec<f64>,
    /// Fastest profile time of each timed pair so far.
    profile_ms: Vec<f64>,
    rounds: usize,
    /// Profile queries asked so far; the next one asks pair
    /// `profiled % profile_ms.len()`.
    profiled: usize,
}

impl Rounds {
    /// One closed-loop round on one session: passes of cost queries and then
    /// of path queries over the whole query set, each until its share of the
    /// round is spent, and profile queries that go round the plan's
    /// profiled pairs until theirs is (and each pair is asked at least
    /// [`MIN_PROFILE_PASSES`] times over the run). Between the profile
    /// queries further cost and path passes are timed, taking
    /// [`INTERLEAVE`] of the profile time, so that the cost and path samples
    /// cover the whole round even where profiles take most of it. Cost and
    /// path answers come from the first pass.
    fn run<I: RoutingIndex + ?Sized>(
        &mut self,
        inputs: &Inputs,
        index: &I,
        plan: &Plan,
        tr: &mut Tracer,
    ) -> Answers {
        let qs = &inputs.queries;
        let round = self.rounds;
        self.rounds += 1;
        let mut session = QuerySession::new(index);
        for q in qs.iter().take(100) {
            black_box(session.query_cost(q.source, q.destination, q.depart));
        }
        let traced = tr.on();
        let mut costs = vec![None; qs.len()];
        let sp = tr.begin("bench.cost", NO_REQ);
        let start = Instant::now();
        // A traced round makes at least one untraced pass to compare with.
        let min_passes = 1 + usize::from(traced);
        for pass in 0.. {
            if pass >= min_passes && start.elapsed().as_secs_f64() > COST_SHARE * plan.closed_loop {
                break;
            }
            // Spans cover the first pass; repeats only add timing samples.
            tr.set_on(traced && pass == 0);
            self.cost_pass(&mut session, qs, tr, (pass == 0).then_some(&mut costs));
        }
        tr.set_on(traced);
        tr.end(sp);

        let mut paths = Vec::with_capacity(qs.len());
        let sp = tr.begin("bench.path", NO_REQ);
        let start = Instant::now();
        for pass in 0.. {
            if pass > 0 && start.elapsed().as_secs_f64() > PATH_SHARE * plan.closed_loop {
                break;
            }
            tr.set_on(traced && pass == 0);
            self.path_pass(&mut session, qs, tr, (pass == 0).then_some(&mut paths));
        }
        tr.set_on(traced);
        tr.end(sp);

        if self.profile_ms.is_empty() {
            self.profile_ms = vec![f64::INFINITY; plan.profile_pairs];
        }
        let timed = self.profile_ms.len();
        let mut profiles = Vec::new();
        let sp = tr.begin("bench.profile", NO_REQ);
        let start = Instant::now();
        let (mut profile_time, mut pass_time) = (Duration::ZERO, Duration::ZERO);
        let quota = (MIN_PROFILE_PASSES * timed).div_ceil(CYCLES) * (round + 1);
        while self.profiled < quota
            || start.elapsed().as_secs_f64() < PROFILE_SHARE * plan.closed_loop
        {
            let p = self.profiled % timed;
            let q = &qs[p * TIMES_PER_PAIR];
            let s = tr.begin("api.QuerySession::query_profile", p as u64);
            let t = Instant::now();
            let f = black_box(session.query_profile(q.source, q.destination));
            let dt = t.elapsed();
            tr.end(s);
            self.profile_ms[p] = self.profile_ms[p].min(dt.as_secs_f64() * 1e3);
            profiles.push((p, f));
            self.profiled += 1;
            profile_time += dt;
            if pass_time.as_secs_f64() < INTERLEAVE * profile_time.as_secs_f64() {
                let t = Instant::now();
                tr.set_on(false);
                self.cost_pass(&mut session, qs, tr, None);
                self.path_pass(&mut session, qs, tr, None);
                tr.set_on(traced);
                pass_time += t.elapsed();
            }
        }
        tr.end(sp);
        Answers {
            costs,
            paths,
            profiles,
        }
    }

    /// Times one `query_cost` of every query; keeps the answers in `keep`.
    fn cost_pass<I: RoutingIndex + ?Sized>(
        &mut self,
        session: &mut QuerySession<'_, I>,
        qs: &[Query],
        tr: &mut Tracer,
        mut keep: Option<&mut Vec<Option<f64>>>,
    ) {
        let mut lat = Vec::with_capacity(qs.len());
        if self.cost_us.is_empty() {
            self.cost_us = vec![f64::INFINITY; qs.len()];
        }
        for (i, q) in qs.iter().enumerate() {
            let s = tr.begin("api.QuerySession::query_cost", i as u64);
            let t = Instant::now();
            let c = black_box(session.query_cost(q.source, q.destination, q.depart));
            let dt = t.elapsed();
            tr.end(s);
            lat.push(dt.as_nanos() as f64 / 1e3);
            if let Some(keep) = keep.as_deref_mut() {
                keep[i] = c;
            }
        }
        if tr.on() {
            self.traced_p50.push(quantile(&lat, 0.5));
        } else {
            self.plain_p50.push(quantile(&lat, 0.5));
            for (best, &t) in self.cost_us.iter_mut().zip(&lat) {
                *best = best.min(t);
            }
        }
    }

    /// Times one `query_path` of every query; keeps the answers in `keep`.
    fn path_pass<I: RoutingIndex + ?Sized>(
        &mut self,
        session: &mut QuerySession<'_, I>,
        qs: &[Query],
        tr: &mut Tracer,
        mut keep: Option<&mut Vec<Option<(f64, Path)>>>,
    ) {
        if self.path_us.is_empty() {
            self.path_us = vec![f64::INFINITY; qs.len()];
        }
        for (i, q) in qs.iter().enumerate() {
            let s = tr.begin("api.QuerySession::query_path", i as u64);
            let t = Instant::now();
            let p = black_box(session.query_path(q.source, q.destination, q.depart));
            let dt = t.elapsed();
            tr.end(s);
            if !tr.on() {
                let best = &mut self.path_us[i];
                *best = best.min(dt.as_nanos() as f64 / 1e3);
            }
            if let Some(keep) = keep.as_deref_mut() {
                keep.push(p);
            }
        }
    }

    /// Work from other tenants of a shared machine only ever adds time, and
    /// it comes in spells, from milliseconds to minutes, that slow every
    /// query alike. So cost, path and profile percentiles are taken over
    /// each query's fastest time in the run.
    fn finish(&self, m: &mut BTreeMap<&'static str, f64>) {
        m.insert("cost_p50_us", quantile(&self.cost_us, 0.5));
        m.insert("cost_p99_us", quantile(&self.cost_us, 0.99));
        m.insert("path_p50_us", quantile(&self.path_us, 0.5));
        if !self.traced_p50.is_empty() {
            // Tracing overhead: the traced passes against the untraced ones
            // of the same rounds, each side at its fastest.
            let plain = lowest(&self.plain_p50);
            m.insert(
                "trace.overhead_pct",
                (lowest(&self.traced_p50) - plain) / plain * 100.0,
            );
        }
        m.insert("profile_p50_ms", quantile(&self.profile_ms, 0.5));
        m.insert("profile_p90_ms", quantile(&self.profile_ms, 0.9));
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < COST_EPS
}

/// Every cost answer exists; every path is a path of the graph from `s` to
/// `d` whose re-evaluated cost equals both its reported cost and the cost
/// answer; every profile evaluated at its pair's departures equals the cost
/// answers; and a seeded sample of costs and profiles equals the oracle's.
fn check_answers(
    inputs: &Inputs,
    g: &TdGraph,
    ans: &Answers,
    oracle: &DijkstraOracle,
    checks: &mut Checks,
) {
    let qs = &inputs.queries;
    for (i, q) in qs.iter().enumerate() {
        let what = || format!("query {i}: {}->{} @{}", q.source, q.destination, q.depart);
        checks.check(ans.costs[i].is_some(), || format!("{}: no cost", what()));
        let ok = match (&ans.paths[i], ans.costs[i]) {
            (Some((c, p)), Some(cost)) => {
                p.source() == q.source
                    && p.destination() == q.destination
                    && p.cost(g, q.depart).is_some_and(|e| close(e, *c))
                    && close(*c, cost)
            }
            _ => false,
        };
        checks.check(ok, || {
            format!(
                "{}: path {:?} vs cost {:?}",
                what(),
                ans.paths[i],
                ans.costs[i]
            )
        });
    }
    for (k, (p, f)) in ans.profiles.iter().enumerate() {
        let ok = f.as_ref().is_some_and(|f| {
            (0..TIMES_PER_PAIR).all(|j| {
                let i = p * TIMES_PER_PAIR + j;
                let v = f.eval(qs[i].depart);
                ans.costs[i].is_some_and(|c| close(v, c))
                    && (k >= ORACLE_PROFILES
                        || oracle
                            .query_cost(qs[i].source, qs[i].destination, qs[i].depart)
                            .is_some_and(|o| close(v, o)))
            })
        });
        checks.check(ok, || {
            format!("profile of pair {p} disagrees with the cost answers")
        });
    }
    let mut rng = StdRng::seed_from_u64(qs.len() as u64 ^ qs[0].depart.to_bits());
    let sample = std::iter::once(0).chain((0..ORACLE_SAMPLE).map(|_| rng.gen_range(0..qs.len())));
    for i in sample {
        let q = &qs[i];
        let o = oracle.query_cost(q.source, q.destination, q.depart);
        let ok = matches!((o, ans.costs[i]), (Some(o), Some(c)) if close(o, c));
        checks.check(ok, || {
            format!("query {i}: oracle {o:?}, index {:?}", ans.costs[i])
        });
    }
}

/// The jammed version of `w`: its own breakpoints plus the rush window's,
/// scaled by a multiplier that rises from 1 at 06:54 to [`RUSH`] at 08:00
/// and falls back to 1 at 11:00.
pub fn jam(w: &Plf) -> Plf {
    let knots = [
        (6.9 * 3600.0, 1.0),
        (8.0 * 3600.0, RUSH),
        (11.0 * 3600.0, 1.0),
    ];
    let mult = |t: f64| {
        if t <= knots[0].0 || t >= knots[2].0 {
            1.0
        } else if t <= knots[1].0 {
            1.0 + (RUSH - 1.0) * (t - knots[0].0) / (knots[1].0 - knots[0].0)
        } else {
            RUSH - (RUSH - 1.0) * (t - knots[1].0) / (knots[2].0 - knots[1].0)
        }
    };
    let (lo, hi) = (w.first().t, w.last().t);
    let mut ts: Vec<f64> = w.points().iter().map(|p| p.t).collect();
    ts.extend(knots.iter().map(|k| k.0).filter(|&t| t > lo && t < hi));
    ts.sort_by(f64::total_cmp);
    ts.dedup();
    Plf::new(
        ts.iter()
            .map(|&t| Pt::new(t, w.eval(t) * mult(t)))
            .collect(),
    )
    .expect("a jammed FIFO profile stays valid")
}

/// A seeded ring of [`INCIDENTS`] update batches. Each incident jams up to
/// [`INCIDENT_EDGES`] edges spread along the route of a random query; batch
/// `j` jams incident `j` and clears incident `j - 1` (the last, for batch
/// 0). Applied round and round, the network carries one incident at a time,
/// and each batch meets the same network each time it comes round (after
/// the first round), so it does the same work every time.
pub fn incidents(inputs: &Inputs, ans: &Answers, rng: &mut StdRng) -> Vec<Batch> {
    let g = &inputs.graph;
    let mut jams: Vec<Vec<(VertexId, VertexId)>> = Vec::new();
    let mut tries = 0;
    while jams.len() < INCIDENTS && tries < 100_000 {
        tries += 1;
        let i = rng.gen_range(0..ans.paths.len());
        let Some((_, path)) = &ans.paths[i] else {
            continue;
        };
        let hops = path.num_edges();
        if hops == 0 {
            continue;
        }
        let mut edges: Vec<(VertexId, VertexId)> = (1..=INCIDENT_EDGES)
            .map(|k| hops * k / (INCIDENT_EDGES + 1))
            .map(|h| (path.vertices[h], path.vertices[h + 1]))
            .collect();
        edges.dedup();
        if !jams.contains(&edges) {
            jams.push(edges);
        }
    }
    assert_eq!(jams.len(), INCIDENTS, "no routes to put incidents on");
    let weight = |u, v| g.weight(g.find_edge(u, v).expect("route edge")).clone();
    (0..INCIDENTS)
        .map(|j| {
            let (prev, edges) = (&jams[(j + INCIDENTS - 1) % INCIDENTS], &jams[j]);
            let mut batch: Batch = prev
                .iter()
                .filter(|e| !edges.contains(e))
                .map(|&(u, v)| (u, v, weight(u, v)))
                .collect();
            batch.extend(edges.iter().map(|&(u, v)| (u, v, jam(&weight(u, v)))));
            batch
        })
        .collect()
}

/// The index's stored graph must hold the weights `batch` set.
fn check_weights(g: &TdGraph, batch: &Batch, checks: &mut Checks) {
    for (u, v, w) in batch {
        let ok = g
            .find_edge(*u, *v)
            .is_some_and(|e| g.weight(e).approx_eq(w, 1e-9));
        checks.check(ok, || {
            format!("edge {u}->{v} does not hold the weight its last update set")
        });
    }
}

/// A seeded sample of cost queries on the updated index must equal the
/// oracle on the `expected` graph.
fn check_after_updates<I: RoutingIndex + ?Sized>(
    inputs: &Inputs,
    expected: &TdGraph,
    index: &I,
    rng: &mut StdRng,
    checks: &mut Checks,
) {
    let oracle = DijkstraOracle::new(expected.clone());
    let mut session = QuerySession::new(index);
    for _ in 0..POST_UPDATE_SAMPLE {
        let q = &inputs.queries[rng.gen_range(0..inputs.queries.len())];
        let c = session.query_cost(q.source, q.destination, q.depart);
        let o = oracle.query_cost(q.source, q.destination, q.depart);
        let ok = matches!((c, o), (Some(c), Some(o)) if close(c, o));
        checks.check(ok, || {
            format!(
                "after updates {}->{} @{}: index {c:?}, oracle {o:?}",
                q.source, q.destination, q.depart
            )
        });
    }
}
