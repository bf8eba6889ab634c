//! The traced run's per-layer measurements, each taken through the layer's
//! public functions on this run's own inputs: its network, query set,
//! route chains and incident batches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;
use td_api::{
    build_index, load_index, save_index, Backend, IndexConfig, LiveIndex, ParallelExecutor,
    QuerySession, RoutingIndex,
};
use td_core::select::{select_dp, select_greedy};
use td_core::shortcut::{build_selected, weigh_candidates};
use td_graph::{TdGraph, VertexId};
use td_plf::{eval_times_into, Plf, PlfArena, DAY};
use td_treedec::TreeDecomposition;

use crate::pipeline::{build_appro, Answers, Batch, Inputs, TIMES_PER_PAIR};
use crate::stats::{median, quantile, ratio};
use crate::trace::{Tracer, NO_REQ};
use crate::Config;

type Metrics = BTreeMap<&'static str, f64>;

/// Repetitions of the set-up-sized layer calls (decomposition, snapshot
/// save and load); the metric is their median.
const REPS: usize = 3;
/// Incident batches replayed on a standalone TD-appro copy.
const CORE_UPDATES: usize = 3;

/// Measures every per-layer metric except the server's, which the served
/// phases record, and adds the trace-derived ones.
pub fn measure<I: RoutingIndex>(
    cfg: &Config,
    inputs: &Inputs,
    index: &I,
    ans: &Answers,
    batches: &[Batch],
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let sp = tr.begin("bench.layers", NO_REQ);
    plf(inputs, ans, cfg.seed, tr, m);
    tree_and_core(cfg, inputs, batches, tr, m);
    search(inputs, index, ans, tr, m);
    api(index, inputs, tr, m);
    store(cfg, index, tr, m);
    tr.end(sp);
    m.insert(
        "server.wait_us",
        m["serve_low_p50_us"] - m["api.session_cost_p50_us"],
    );
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The edge functions along a route, composed left to right.
fn chain(g: &TdGraph, route: &[VertexId]) -> Vec<Plf> {
    route
        .windows(2)
        .map(|w| {
            g.weight(g.find_edge(w[0], w[1]).expect("route edge"))
                .clone()
        })
        .collect()
}

fn plf(inputs: &Inputs, ans: &Answers, seed: u64, tr: &mut Tracer, m: &mut Metrics) {
    let g = &inputs.graph;
    let fs: Vec<&Plf> = g.edges().iter().map(|e| &e.weight).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x91f);
    let times: Vec<f64> = (0..1024).map(|_| rng.gen_range(0.0..DAY)).collect();

    let evals = 200_000;
    let sp = tr.begin("plf.Plf::eval", NO_REQ);
    let t = Instant::now();
    let mut acc = 0.0;
    for k in 0..evals {
        acc += fs[k % fs.len()].eval(times[k % times.len()]);
    }
    black_box(acc);
    m.insert("plf.eval_ns", secs(t) * 1e9 / evals as f64);
    tr.end(sp);

    let mut arena = PlfArena::new();
    let ids: Vec<_> = fs.iter().map(|f| arena.push(f)).collect();
    let mut sorted: Vec<f64> = times[..64].to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = vec![0.0; sorted.len()];
    let rounds = (evals / (ids.len() * sorted.len())).max(1);
    let sp = tr.begin("plf.eval_times_into", NO_REQ);
    let t = Instant::now();
    for _ in 0..rounds {
        for &id in &ids {
            eval_times_into(arena.slice(id), &sorted, &mut out);
            black_box(&out);
        }
    }
    m.insert(
        "plf.eval_batch_ns",
        secs(t) * 1e9 / (rounds * ids.len() * sorted.len()) as f64,
    );
    tr.end(sp);

    // Route chains: up to 200 routes of the path phase (at most 4 distinct
    // per pair), compounded hop by hop; routes of one pair at different departures are then minimised.
    let mut by_pair: BTreeMap<usize, Vec<Vec<VertexId>>> = BTreeMap::new();
    for (i, p) in ans.paths.iter().enumerate() {
        if let Some((_, p)) = p {
            let routes = by_pair.entry(i / TIMES_PER_PAIR).or_default();
            if p.num_edges() >= 2 && !routes.contains(&p.vertices) && routes.len() < 4 {
                routes.push(p.vertices.clone());
            }
        }
        if by_pair.values().map(Vec::len).sum::<usize>() >= 200 {
            break;
        }
    }
    let (mut c_time, mut c_ops, mut c_pts) = (0.0, 0usize, 0usize);
    let mut composed: Vec<Vec<Plf>> = Vec::new();
    let sp = tr.begin("plf.Plf::compound", NO_REQ);
    for routes in by_pair.values() {
        let mut mine = Vec::new();
        for r in routes {
            let legs = chain(g, r);
            let mut f = legs[0].clone();
            for (k, leg) in legs.iter().enumerate().skip(1) {
                let t = Instant::now();
                f = black_box(f.compound(leg, r[k]));
                c_time += secs(t);
                c_ops += 1;
                c_pts += f.len();
            }
            mine.push(f);
        }
        composed.push(mine);
    }
    tr.end(sp);
    m.insert("plf.compound_us", c_time * 1e6 / c_ops.max(1) as f64);
    m.insert("plf.compound_out_points", ratio(c_pts as f64, c_ops as f64));

    // Minimum over the composed routes of each pair; with too few
    // alternative routes (tiny networks), over consecutive edge functions.
    let mut pairs: Vec<(&Plf, &Plf)> = composed
        .iter()
        .flat_map(|fs| fs.windows(2).map(|w| (&w[0], &w[1])))
        .collect();
    if pairs.len() < 10 {
        pairs.extend(fs.windows(2).take(1000).map(|w| (w[0], w[1])));
    }
    let (mut n_time, mut n_pts) = (0.0, 0usize);
    let sp = tr.begin("plf.Plf::minimum", NO_REQ);
    for (a, b) in &pairs {
        let t = Instant::now();
        let f = black_box(a.minimum(b));
        n_time += secs(t);
        n_pts += f.len();
    }
    tr.end(sp);
    m.insert("plf.minimum_us", n_time * 1e6 / pairs.len().max(1) as f64);
    m.insert(
        "plf.minimum_out_points",
        ratio(n_pts as f64, pairs.len() as f64),
    );
}

fn tree_and_core(
    cfg: &Config,
    inputs: &Inputs,
    batches: &[Batch],
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let g = &inputs.graph;
    let budget = inputs.budget(cfg);
    let mut times = Vec::new();
    let mut td = None;
    for _ in 0..REPS {
        let sp = tr.begin("treedec.TreeDecomposition::build_opts", NO_REQ);
        let t = Instant::now();
        td = Some(TreeDecomposition::build_opts(g, true));
        times.push(secs(t));
        tr.end(sp);
    }
    let td = td.expect("decomposed");
    let st = td.stats();
    m.insert("treedec.decompose_s", median(&times));
    m.insert("treedec.height", st.height as f64);
    m.insert("treedec.width", st.width as f64);

    let sp = tr.begin("core.weigh_candidates", NO_REQ);
    let t = Instant::now();
    let cands = weigh_candidates(&td, st.width, 1);
    m.insert("core.weigh_s", secs(t));
    tr.end(sp);

    let mut times = Vec::new();
    let mut greedy = None;
    for _ in 0..5 {
        let sp = tr.begin("core.select_greedy", NO_REQ);
        let t = Instant::now();
        greedy = Some(select_greedy(&cands, budget));
        times.push(secs(t) * 1e3);
        tr.end(sp);
    }
    let greedy = greedy.expect("selected");
    m.insert("core.select_greedy_ms", median(&times));

    let scale = IndexConfig {
        budget,
        ..IndexConfig::default()
    }
    .dp_weight_scale();
    let sp = tr.begin("core.select_dp", NO_REQ);
    let t = Instant::now();
    let dp = select_dp(&cands, budget, scale);
    m.insert("core.select_dp_ms", secs(t) * 1e3);
    tr.end(sp);
    m.insert("core.greedy_dp_utility", ratio(greedy.utility, dp.utility));
    m.insert("core.budget_used", greedy.weight as f64 / budget as f64);
    m.insert("core.selected_pairs", greedy.chosen.len() as f64);

    let mut per_node: Vec<Vec<VertexId>> = vec![Vec::new(); td.len()];
    for &i in &greedy.chosen {
        per_node[cands[i].node as usize].push(cands[i].ancestor);
    }
    let sp = tr.begin("core.build_selected", NO_REQ);
    let t = Instant::now();
    black_box(build_selected(&td, &per_node, 1, None));
    m.insert("core.shortcut_build_s", secs(t));
    tr.end(sp);
    drop(td);

    // The same cost queries on TD-basic (Algo. 3) and on TD-appro.
    let basic = build_index(
        g.clone(),
        Backend::TdBasic,
        &IndexConfig {
            threads: 1,
            ..IndexConfig::default()
        },
    );
    let basic_lat = cost_pass(basic.as_ref(), inputs, "core.basic.query_cost", tr);
    drop(basic);
    let appro = build_appro(g, budget, tr);
    let appro_lat = cost_pass(&appro, inputs, "core.appro.query_cost", tr);
    m.insert("core.basic_cost_p50_us", quantile(&basic_lat, 0.5));
    m.insert("core.basic_cost_p99_us", quantile(&basic_lat, 0.99));
    m.insert(
        "core.shortcut_gain",
        quantile(&basic_lat, 0.99) / quantile(&appro_lat, 0.99),
    );

    // Raw repairs on a standalone copy, then the same batches through the
    // double buffer; the difference is what levelling the copies costs.
    let mut copy = appro.clone();
    let (mut raw, mut changed, mut rebuilt) = (Vec::new(), Vec::new(), Vec::new());
    for (b, batch) in batches.iter().take(CORE_UPDATES).enumerate() {
        let sp = tr.begin("core.TdTreeIndex::update_edges", b as u64);
        let t = Instant::now();
        let stats = copy.update_edges(batch);
        raw.push(secs(t) * 1e3);
        tr.end(sp);
        changed.push(stats.changed_nodes as f64);
        rebuilt.push(stats.rebuilt_subtree_nodes as f64);
    }
    drop(copy);
    let live = LiveIndex::new(appro);
    let mut applied = Vec::new();
    for (b, batch) in batches.iter().take(CORE_UPDATES).enumerate() {
        let sp = tr.begin("api.LiveIndex::try_apply", b as u64);
        let t = Instant::now();
        live.try_apply(batch).expect("incident batch applies");
        applied.push(secs(t) * 1e3);
        tr.end(sp);
    }
    m.insert("core.update_ms", median(&raw));
    m.insert("core.update_changed_nodes", median(&changed));
    m.insert("core.update_rebuilt_nodes", median(&rebuilt));
    m.insert("api.level_ms", median(&applied) - median(&raw));
}

/// One timed session pass over the whole query set (after a short warm-up);
/// returns per-query microseconds.
fn cost_pass<I: RoutingIndex + ?Sized>(
    index: &I,
    inputs: &Inputs,
    name: &'static str,
    tr: &mut Tracer,
) -> Vec<f64> {
    let mut session = QuerySession::new(index);
    for q in inputs.queries.iter().take(100) {
        black_box(session.query_cost(q.source, q.destination, q.depart));
    }
    let sp = tr.begin(name, NO_REQ);
    let lat = inputs
        .queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            black_box(session.query_cost(q.source, q.destination, q.depart));
            secs(t) * 1e6
        })
        .collect();
    tr.end(sp);
    lat
}

/// Search counters of the workload's backend. Backends that run no graph
/// search (the TD-tree family) export none, and their counts read 0.
fn search<I: RoutingIndex>(
    inputs: &Inputs,
    index: &I,
    ans: &Answers,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let mut session = QuerySession::new(index);
    let (mut n, mut st) = (0.0, td_obs::SearchStats::default());
    let mut lat = Vec::new();
    let sp = tr.begin("obs.QuerySession::query_cost_traced", NO_REQ);
    for q in &inputs.queries {
        let t = Instant::now();
        let (c, trace) = session.query_cost_traced(q.source, q.destination, q.depart);
        lat.push(secs(t) * 1e6);
        black_box(c);
        n += 1.0;
        st.merge(&trace.stats);
    }
    tr.end(sp);
    m.insert("obs.traced_cost_p50_us", quantile(&lat, 0.5));
    m.insert("dijkstra.settled_per_query", st.settled as f64 / n);
    m.insert("dijkstra.relaxed_per_query", st.relaxed as f64 / n);
    m.insert("dijkstra.heap_pushes_per_query", st.heap_pushes as f64 / n);
    m.insert(
        "dijkstra.plf_evals_per_query",
        (st.plf_evals_scalar + st.plf_evals_batched) as f64 / n,
    );
    m.insert(
        "dijkstra.prune_frac",
        ratio(st.minbound_prunes as f64, st.relaxed as f64),
    );

    let mut scratch = index.new_scratch();
    let (mut settled, mut kills, mut profiled) = (0u64, 0u64, 0usize);
    let sp = tr.begin("api.RoutingIndex::query_profile_in", NO_REQ);
    for (p, _) in ans.profiles.iter().take(5) {
        let q = &inputs.queries[p * TIMES_PER_PAIR];
        black_box(index.query_profile_in(&mut scratch, q.source, q.destination));
        if let Some(s) = index.take_search_stats(&mut scratch) {
            settled += s.settled;
            kills += s.corridor_kills;
        }
        profiled += 1;
    }
    tr.end(sp);
    m.insert(
        "dijkstra.profile_settled_per_query",
        ratio(settled as f64, profiled as f64),
    );
    m.insert("dijkstra.corridor_kills", kills as f64);
}

fn api<I: RoutingIndex>(index: &I, inputs: &Inputs, tr: &mut Tracer, m: &mut Metrics) {
    let lat = cost_pass(index, inputs, "api.QuerySession::query_cost", tr);
    m.insert("api.session_cost_p50_us", quantile(&lat, 0.5));

    let queries: Vec<_> = inputs
        .queries
        .iter()
        .map(|q| (q.source, q.destination, q.depart))
        .collect();
    let mut exec = ParallelExecutor::new(index, 0);
    let mut out = Vec::new();
    let mut fixed = Vec::new();
    let sp = tr.begin("api.ParallelExecutor::query_batch(2)", NO_REQ);
    for k in 0..500 {
        let i = (2 * k) % (queries.len() - 1);
        let t = Instant::now();
        exec.query_batch_into(&queries[i..i + 2], &mut out);
        fixed.push(secs(t) * 1e6);
    }
    tr.end(sp);
    m.insert("api.batch_fixed_us", median(&fixed));

    let mut qps = Vec::new();
    for _ in 0..REPS {
        let sp = tr.begin("api.ParallelExecutor::query_batch", NO_REQ);
        let t = Instant::now();
        exec.query_batch_into(&queries, &mut out);
        qps.push(queries.len() as f64 / secs(t));
        tr.end(sp);
    }
    m.insert("api.batch_qps", median(&qps));
}

fn store<I: RoutingIndex>(cfg: &Config, index: &I, tr: &mut Tracer, m: &mut Metrics) {
    let path = cfg
        .out_dir
        .join(format!("layers-{}.tdx", std::process::id()));
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let sp = tr.begin("store.save_index", NO_REQ);
        let t = Instant::now();
        save_index(index, &path).expect("snapshot save");
        save.push(secs(t));
        tr.end(sp);
        let sp = tr.begin("store.load_index", NO_REQ);
        let t = Instant::now();
        black_box(load_index(&path).expect("snapshot load"));
        load.push(secs(t));
        tr.end(sp);
    }
    let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tdx.prev"));
    m.insert("store.save_s", median(&save));
    m.insert("store.load_s", median(&load));
    m.insert("store.snapshot_mb", bytes as f64 / 1e6);
}
