//! The repository benchmark.
//!
//! One run generates a seeded CAL-like network and the paper's §5 query set
//! with `td-gen`, sets up one index through the crates' public entry points,
//! drives it through a closed-loop query session, a live-update stream and
//! an open-loop served load, checks every answer, and reports end-to-end
//! metrics. A traced run (`trace: true`) also wraps each call into a layer in
//! a span (see [`trace`]) and measures the per-layer metrics. `README.md`
//! beside this crate explains the workloads and how to read the output.

pub mod layers;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

pub use pipeline::{run, run_with};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's index (TD-appro, support-tracked) under a closed-loop
    /// session and `LiveIndex::try_apply` incidents.
    PaperIndex,
    /// TD-A\*-CH: search, contraction and re-customization.
    SearchCh,
    /// TD-appro loaded from a snapshot and served by `TdServer::serve_live`.
    ServeOpen,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::PaperIndex,
        WorkloadKind::SearchCh,
        WorkloadKind::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PaperIndex => "paper-index",
            WorkloadKind::SearchCh => "search-ch",
            WorkloadKind::ServeOpen => "serve-open",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<WorkloadKind, String> {
        WorkloadKind::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// Network scale of every workload: CAL at scale 0.25 has 1296 vertices.
pub const SCALE: f64 = 0.25;

/// Seed of the network itself. The network plays the part of the paper's
/// fixed road map, so it does not change with the run's seed; the query set,
/// the incidents and the check samples do.
pub const NETWORK_SEED: u64 = 1;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: WorkloadKind,
    pub seed: u64,
    /// Length of the measured phases; set-up and checks come on top.
    pub seconds: f64,
    pub trace: bool,
    /// Network scale ([`SCALE`] except in the self-test).
    pub scale: f64,
    /// Random query pairs, each asked at 10 departure times (paper: 1000).
    pub pairs: usize,
    /// Where snapshots and the span file go.
    pub out_dir: PathBuf,
}

impl Config {
    pub fn new(workload: WorkloadKind, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: SCALE,
            pairs: 1000,
            out_dir: PathBuf::from(".bench_build/perfbench"),
        }
    }
}

/// End-to-end metrics `(name, unit)`, reported by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cost_p50_us", "us"),
    ("cost_p99_us", "us"),
    ("path_p50_us", "us"),
    ("profile_p50_ms", "ms"),
    ("profile_p90_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("index_mb", "MB"),
    ("serve_low_p50_us", "us"),
    ("serve_sat_qps", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plf.eval_ns", "ns"),
    ("plf.eval_batch_ns", "ns"),
    ("plf.compound_us", "us"),
    ("plf.compound_out_points", "count"),
    ("plf.minimum_us", "us"),
    ("plf.minimum_out_points", "count"),
    ("treedec.decompose_s", "s"),
    ("treedec.height", "count"),
    ("treedec.width", "count"),
    ("core.weigh_s", "s"),
    ("core.select_greedy_ms", "ms"),
    ("core.select_dp_ms", "ms"),
    ("core.shortcut_build_s", "s"),
    ("core.greedy_dp_utility", "ratio"),
    ("core.budget_used", "ratio"),
    ("core.selected_pairs", "count"),
    ("core.basic_cost_p50_us", "us"),
    ("core.basic_cost_p99_us", "us"),
    ("core.shortcut_gain", "ratio"),
    ("core.update_ms", "ms"),
    ("core.update_changed_nodes", "count"),
    ("core.update_rebuilt_nodes", "count"),
    ("dijkstra.settled_per_query", "count"),
    ("dijkstra.relaxed_per_query", "count"),
    ("dijkstra.heap_pushes_per_query", "count"),
    ("dijkstra.plf_evals_per_query", "count"),
    ("dijkstra.prune_frac", "ratio"),
    ("dijkstra.profile_settled_per_query", "count"),
    ("dijkstra.corridor_kills", "count"),
    ("obs.traced_cost_p50_us", "us"),
    ("api.session_cost_p50_us", "us"),
    ("api.batch_fixed_us", "us"),
    ("api.batch_qps", "1/s"),
    ("api.level_ms", "ms"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.snapshot_mb", "MB"),
    ("server.wait_us", "us"),
    ("server.submit_ns_p50", "ns"),
    ("server.batch_mean", "count"),
    ("server.queue_depth_p90", "count"),
    ("server.refused_frac", "ratio"),
    ("server.approx_frac", "ratio"),
    ("server.stale_replies", "count"),
    ("server.gen_late_max_us", "us"),
    ("server.low_p90_us", "us"),
    ("server.high_p50_us", "us"),
    ("server.high_p90_us", "us"),
    ("server.p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("self.bench_ms", "ms"),
    ("self.api_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.plf_ms", "ms"),
    ("self.treedec_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.server_ms", "ms"),
    ("self.obs_ms", "ms"),
];

/// Counts checked answers and failures, keeping the first few failure
/// descriptions for the log.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 10 {
                self.first_failures.push(what());
            }
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub checks: Checks,
    /// Every metric the run measured, by name.
    pub all: BTreeMap<&'static str, f64>,
    pub trace: bool,
    /// Where the span file was written (traced runs).
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// The metrics this run reports: [`END_TO_END`] untraced, [`PER_LAYER`]
    /// traced. Panics if the run failed to measure one of them.
    pub fn reported(&self) -> Vec<(&'static str, f64, &'static str)> {
        let list = if self.trace { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let v = *self
                    .all
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, v, unit)
            })
            .collect()
    }

    /// The result line: one JSON object, each value with all its digits.
    /// A metric measured as NaN or infinite is an error: the run measured
    /// nothing there, and no stand-in value would read as a broken run.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, v, unit) in self.reported() {
            if !v.is_finite() {
                return Err(format!("metric {name} measured as {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        ))
    }
}
