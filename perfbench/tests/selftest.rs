//! Self-test of the benchmark: tiny-scale runs of every workload must report
//! exactly the metrics `BENCHMARK.json` names, answer everything correctly,
//! and count a failure as soon as one answer is wrong.

use std::path::PathBuf;

use td_api::{
    BoundedAnswer, IncrementalIndex, IndexStats, QueryBudget, QueryError, RoutingIndex,
    SessionScratch,
};
use td_core::UpdateStats;
use td_graph::{Path, TdGraph, VertexId};
use td_perfbench::pipeline::{build_appro, Inputs};
use td_perfbench::{run, run_with, Config, Report, WorkloadKind, END_TO_END, PER_LAYER};
use td_plf::Plf;

fn tiny(workload: WorkloadKind, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.5, trace);
    cfg.scale = 0.02;
    cfg.pairs = 20;
    cfg.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{}", u8::from(trace)));
    cfg
}

fn read(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of each metric object in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = read("../BENCHMARK.json");
    let after = text
        .split(&format!("\"{section}\""))
        .nth(1)
        .expect("section present");
    let body = &after[..after.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let rest = obj.split(&format!("\"{key}\": \"")).nth(1).expect("field");
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    assert_eq!(declared("end_to_end"), listed(END_TO_END));
    assert_eq!(declared("per_layer"), listed(PER_LAYER));
    let names: Vec<String> = WorkloadKind::ALL.iter().map(|w| w.to_string()).collect();
    let text = read("../BENCHMARK.json");
    for w in &names {
        assert!(
            text.contains(&format!("\"name\": \"{w}\"")),
            "{w} not declared"
        );
    }
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let map = read("layers.json");
    for (name, _) in PER_LAYER {
        assert!(
            map.contains(&format!("\"{name}\"")),
            "{name} missing from layers.json"
        );
    }
    // Every target it names is an end-to-end metric on a real workload.
    for target in map.split("\"moves\": [").skip(1) {
        let target = &target[..target.find(']').expect("list")];
        for pair in target.split('"').skip(1).step_by(2) {
            let (metric, workload) = pair.split_once('@').expect("metric@workload");
            assert!(
                END_TO_END.iter().any(|(n, _)| *n == metric),
                "unknown end-to-end metric {metric}"
            );
            assert!(
                workload.parse::<WorkloadKind>().is_ok(),
                "unknown workload {workload}"
            );
        }
    }
}

fn assert_complete(report: &Report, what: &str) {
    assert_eq!(
        report.checks.failed, 0,
        "{what}: {:?}",
        report.checks.first_failures
    );
    assert!(report.checks.attempted > 0, "{what}: nothing checked");
    let json = report.to_json().expect("every metric finite");
    assert!(json.starts_with("{\"correct\": true, "), "{what}: {json}");
    for (name, value, _) in report.reported() {
        assert!(value.is_finite(), "{what}: {name} = {value}");
        if !report.trace {
            assert!(value > 0.0, "{what}: {name} = {value}");
        }
    }
}

#[test]
fn every_workload_reports_every_metric_at_tiny_scale() {
    for workload in WorkloadKind::ALL {
        for trace in [false, true] {
            let report = run(&tiny(workload, trace));
            assert_complete(&report, &format!("{workload} trace={trace}"));
            if trace {
                let spans = std::fs::read_to_string(report.trace_file.as_ref().expect("span file"))
                    .expect("span file readable");
                assert!(spans.lines().count() > 100, "{workload}: too few spans");
            }
        }
    }
}

/// What a [`Faulty`] index gets wrong.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Adds a second to every cost answer for one pair.
    Skew,
    /// Adds a second to the bounded cost answers (those the server runs)
    /// for one pair.
    SkewServed,
    /// Answers bounded queries from a copy taken before its last update,
    /// so a server on it always lags one epoch behind.
    LagServed,
    /// Ignores every update: neither the stored graph nor the index changes.
    DropUpdates,
}

/// Delegates to `inner`, except for its `fault`.
#[derive(Clone)]
struct Faulty<I> {
    inner: I,
    victim: (VertexId, VertexId),
    fault: Fault,
    before_update: Option<Box<I>>,
}

impl<I> Faulty<I> {
    fn new(inner: I, victim: (VertexId, VertexId), fault: Fault) -> Faulty<I> {
        Faulty {
            inner,
            victim,
            fault,
            before_update: None,
        }
    }

    fn skew(&self, fault: Fault, s: VertexId, d: VertexId, c: Option<f64>) -> Option<f64> {
        if self.fault == fault && (s, d) == self.victim {
            c.map(|c| c + 1.0)
        } else {
            c
        }
    }
}

impl<I: RoutingIndex> RoutingIndex for Faulty<I> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn graph(&self) -> &TdGraph {
        self.inner.graph()
    }
    fn query_cost(&self, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        self.skew(Fault::Skew, s, d, self.inner.query_cost(s, d, t))
    }
    fn query_profile(&self, s: VertexId, d: VertexId) -> Option<Plf> {
        self.inner.query_profile(s, d)
    }
    fn query_path(&self, s: VertexId, d: VertexId, t: f64) -> Option<(f64, Path)> {
        self.inner.query_path(s, d, t)
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn build_stats(&self) -> IndexStats {
        self.inner.build_stats()
    }
    fn new_scratch(&self) -> SessionScratch {
        self.inner.new_scratch()
    }
    fn query_cost_in(
        &self,
        sc: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        self.skew(Fault::Skew, s, d, self.inner.query_cost_in(sc, s, d, t))
    }
    fn query_profile_in(&self, sc: &mut SessionScratch, s: VertexId, d: VertexId) -> Option<Plf> {
        self.inner.query_profile_in(sc, s, d)
    }
    fn query_path_in(
        &self,
        sc: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<(f64, Path)> {
        self.inner.query_path_in(sc, s, d, t)
    }
    fn query_cost_bounded_in(
        &self,
        sc: &mut SessionScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
        budget: &QueryBudget,
    ) -> Result<BoundedAnswer, QueryError> {
        let index = match (self.fault, &self.before_update) {
            (Fault::LagServed, Some(before)) => &**before,
            _ => &self.inner,
        };
        Ok(match index.query_cost_bounded_in(sc, s, d, t, budget)? {
            BoundedAnswer::Exact(c) => BoundedAnswer::Exact(self.skew(Fault::SkewServed, s, d, c)),
            other => other,
        })
    }
    fn take_search_stats(&self, sc: &mut SessionScratch) -> Option<td_obs::SearchStats> {
        self.inner.take_search_stats(sc)
    }
    fn write_snapshot(&self, w: &mut dyn std::io::Write) -> Result<(), td_api::StoreError> {
        self.inner.write_snapshot(w)
    }
}

impl<I: IncrementalIndex + Clone> IncrementalIndex for Faulty<I> {
    fn update_edges(&mut self, changes: &[(VertexId, VertexId, Plf)]) -> UpdateStats {
        match self.fault {
            Fault::DropUpdates => UpdateStats::default(),
            Fault::LagServed => {
                self.before_update = Some(Box::new(self.inner.clone()));
                self.inner.update_edges(changes)
            }
            Fault::Skew | Fault::SkewServed => self.inner.update_edges(changes),
        }
    }
}

/// Runs `workload` at tiny scale on TD-appro with `fault`, on the pair of
/// the first query.
fn run_faulty(workload: WorkloadKind, fault: Fault) -> Report {
    let cfg = tiny(workload, false);
    let q = Inputs::generate(&cfg).queries[0];
    run_with(&cfg, |g, budget, tr, _| {
        Faulty::new(build_appro(g, budget, tr), (q.source, q.destination), fault)
    })
}

fn assert_caught(report: &Report, what: &str) {
    assert!(report.checks.failed > 0, "{what} went unnoticed");
    let json = report.to_json().expect("every metric finite");
    assert!(json.starts_with("{\"correct\": false, "), "{json}");
}

#[test]
fn one_wrong_answer_is_a_failure() {
    let report = run_faulty(WorkloadKind::PaperIndex, Fault::Skew);
    assert_caught(&report, "a skewed cost answer");
}

#[test]
fn a_served_reply_that_differs_from_the_session_is_a_failure() {
    // The high-rate phase alone sends more requests than the tiny query set
    // holds, so every pair is served at least once.
    let report = run_faulty(WorkloadKind::ServeOpen, Fault::SkewServed);
    assert_caught(&report, "a skewed served reply");
}

#[test]
fn a_server_that_lags_one_epoch_is_a_failure() {
    let report = run_faulty(WorkloadKind::ServeOpen, Fault::LagServed);
    assert_caught(&report, "a server one epoch behind");
}

#[test]
fn an_index_that_drops_updates_is_a_failure() {
    for workload in [WorkloadKind::PaperIndex, WorkloadKind::ServeOpen] {
        let report = run_faulty(workload, Fault::DropUpdates);
        assert_caught(&report, &format!("{workload}: a dropped update"));
    }
}
