//! The experiment registry and the setup the experiments share.
//!
//! Every entry of [`EXPERIMENTS`] regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index) and prints it to stdout;
//! `proteus-bench <name>` runs one entry, and `results/<name>.txt` holds its
//! committed output. This library also centralizes the contender line-up,
//! the standard workloads and configs, and result-table helpers so that all
//! experiments agree on their setup.

#![forbid(unsafe_code)]

use proteus_core::batching::{AimdBatching, BatchPolicy, NexusBatching, ProteusBatching};
use proteus_core::schedulers::{
    Allocator, ClipperAllocator, ClipperMode, InfaasAccuracyAllocator, ProteusAllocator,
    SommelierAllocator,
};
use proteus_core::system::{RunOutcome, ServingSystem, SystemConfig};
use proteus_core::FamilyMap;
use proteus_metrics::RunSummary;
use proteus_profiler::ModelFamily;
use proteus_workloads::{
    ArrivalKind, ArrivalProcess, DemandTrace, DiurnalTrace, QueryArrival, TraceBuilder,
};

/// One registered experiment.
pub struct Experiment {
    /// The name `proteus-bench` runs it by: its module under
    /// `src/experiments/` and the basename of its committed output in
    /// `results/`.
    pub name: &'static str,
    /// Runs the experiment and prints its tables to stdout.
    pub run: fn(),
}

/// Declares each experiment module and registers its `run` under the
/// module's name, so the two cannot drift apart.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        mod experiments {
            $(pub mod $name;)*
        }

        /// Every experiment, in the order `proteus-bench`'s usage lists
        /// them. This is the one list the binary, its usage text, the tests
        /// and CI read.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            run: experiments::$name::run,
        }),*];
    };
}

experiments![
    fig1_motivation,
    fig4_end_to_end,
    fig5_bursty,
    fig6_batching,
    fig7_ablation,
    fig8_slo_sensitivity,
    fig9_family_breakdown,
    fig10_milp_scaling,
    sim_vs_cluster,
    ext_fairness,
    ext_tandem,
    ext_varsize,
    calibration_peaks,
    calibration_batching,
    calibration_headroom,
];

/// One contender: a display name plus factory functions for its allocator
/// and batching policy (fresh state per run).
pub struct Contender {
    /// Name as shown in result tables (matches the paper's legend).
    pub name: &'static str,
    /// Builds the allocator.
    pub allocator: fn() -> Box<dyn Allocator>,
    /// Builds the batching policy prototype.
    pub batching: fn() -> Box<dyn BatchPolicy>,
}

/// The five systems of the end-to-end comparison (§6.1.1), with the
/// batching each uses in the paper: Clipper runs its own AIMD, Sommelier is
/// extended with Proteus batching, INFaaS' batching is tied to its
/// allocation (approximated by the work-conserving early-drop policy), and
/// Proteus runs its own adaptive batching.
pub fn paper_contenders() -> Vec<Contender> {
    vec![
        Contender {
            name: "Clipper-HA",
            allocator: || Box::new(ClipperAllocator::new(ClipperMode::HighAccuracy)),
            batching: || Box::new(AimdBatching::default()),
        },
        Contender {
            name: "Clipper-HT",
            allocator: || Box::new(ClipperAllocator::new(ClipperMode::HighThroughput)),
            batching: || Box::new(AimdBatching::default()),
        },
        Contender {
            name: "Sommelier",
            allocator: || Box::new(SommelierAllocator::default()),
            batching: || Box::new(ProteusBatching),
        },
        Contender {
            name: "INFaaS-Accuracy",
            allocator: || Box::new(InfaasAccuracyAllocator::default()),
            batching: || Box::new(NexusBatching),
        },
        Contender {
            name: "Proteus",
            allocator: || Box::new(ProteusAllocator::default()),
            batching: || Box::new(ProteusBatching),
        },
    ]
}

/// The standard 24-minute Twitter-like workload of the end-to-end
/// experiments: diurnal with two peaks, base 200 → peak 1000 QPS, Zipf
/// split across the nine applications (§6.1.3).
pub fn paper_trace(seed: u64) -> (DiurnalTrace, Vec<QueryArrival>) {
    let trace = DiurnalTrace::paper_like(24 * 60, 200.0, 1000.0, seed);
    let arrivals = paper_arrivals(&trace, seed);
    (trace, arrivals)
}

/// Arrivals following `trace`'s demand, split across the paper's nine
/// applications.
pub(crate) fn paper_arrivals(trace: &dyn DemandTrace, seed: u64) -> Vec<QueryArrival> {
    TraceBuilder::new(TraceBuilder::paper_families())
        .seed(seed)
        .build(trace)
}

/// The paper testbed with its allocation frozen: provisioned once for `qps`
/// of `family` alone and never re-allocated (no periodic or burst replan),
/// so the batching policy is the only variable.
pub(crate) fn frozen_config(family: ModelFamily, qps: f64) -> SystemConfig {
    let mut config = SystemConfig::paper_testbed();
    config.realloc_period_secs = 1e9;
    config.burst_threshold = f64::INFINITY;
    let mut provision = FamilyMap::default();
    provision[family] = qps;
    config.provision_demand = Some(provision);
    config
}

/// Fig. 6's offered load and provisioned capacity, in EfficientNet QPS.
pub(crate) const FIG6_QPS: f64 = 600.0;
/// Fig. 6's run length per arrival law, in seconds.
pub(crate) const FIG6_SECS: f64 = 120.0;

/// One run of Fig. 6's batching isolation: `batching` on the Proteus
/// allocator, frozen for [`FIG6_QPS`] of EfficientNet with the paper's
/// tight 1.05 capacity margin (so batching efficiency is what separates
/// the policies), serving [`FIG6_SECS`] of EfficientNet arrivals at `qps`
/// whose gaps follow `kind`.
pub(crate) fn fig6_run(batching: Box<dyn BatchPolicy>, kind: ArrivalKind, qps: f64) -> RunOutcome {
    let mut config = frozen_config(ModelFamily::EfficientNet, FIG6_QPS);
    config.demand_headroom = 1.05;
    let arrivals: Vec<QueryArrival> = ArrivalProcess::new(kind, qps, 77)
        .take_for_secs(FIG6_SECS)
        .into_iter()
        .map(|at| QueryArrival::new(at, ModelFamily::EfficientNet))
        .collect();
    run_proteus(config, batching, &arrivals)
}

/// Runs one contender on a trace with the given config.
pub fn run_contender(
    contender: &Contender,
    config: SystemConfig,
    arrivals: &[QueryArrival],
) -> RunOutcome {
    ServingSystem::new(config, (contender.allocator)(), (contender.batching)()).run(arrivals)
}

/// Runs the Proteus allocator with `batching` on a trace.
pub(crate) fn run_proteus(
    config: SystemConfig,
    batching: Box<dyn BatchPolicy>,
    arrivals: &[QueryArrival],
) -> RunOutcome {
    ServingSystem::new(config, Box::new(ProteusAllocator::default()), batching).run(arrivals)
}

/// Formats the standard per-system summary row used by several figures:
/// `[name, avg throughput, effective accuracy %, max drop %, violation ratio]`.
pub fn summary_row(name: &str, summary: &RunSummary) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", summary.avg_throughput_qps),
        format!("{:.2}", summary.effective_accuracy_pct()),
        format!("{:.2}", summary.max_accuracy_drop_pct()),
        format!("{:.4}", summary.slo_violation_ratio),
    ]
}

/// Standard headers matching [`summary_row`].
pub fn summary_headers() -> Vec<&'static str> {
    vec![
        "system",
        "avg throughput (QPS)",
        "effective acc (%)",
        "max acc drop (%)",
        "SLO violation ratio",
    ]
}

/// Per-minute aggregation of a 1-second bucket series (for compact
/// timeseries tables).
pub fn per_minute(series: &[f64]) -> Vec<f64> {
    series
        .chunks(60)
        .map(|c| c.iter().sum::<f64>() / c.len().max(1) as f64)
        .collect()
}

/// Prints the demand curve of a trace per minute (the "Demand" series every
/// timeseries figure carries).
pub fn demand_per_minute(trace: &dyn DemandTrace) -> Vec<f64> {
    let series: Vec<f64> = (0..trace.duration_secs())
        .map(|s| trace.qps_at(s))
        .collect();
    per_minute(&series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_workloads::FlatTrace;

    #[test]
    fn contender_lineup_matches_paper() {
        let names: Vec<&str> = paper_contenders().iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "Clipper-HA",
                "Clipper-HT",
                "Sommelier",
                "INFaaS-Accuracy",
                "Proteus"
            ]
        );
    }

    #[test]
    fn contenders_produce_fresh_instances() {
        let c = &paper_contenders()[4];
        assert_eq!((c.allocator)().name(), "proteus");
        assert_eq!((c.batching)().name(), "proteus");
    }

    #[test]
    fn per_minute_averages() {
        let series: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let mins = per_minute(&series);
        assert_eq!(mins.len(), 2);
        assert!((mins[0] - 29.5).abs() < 1e-9);
        assert!((mins[1] - 89.5).abs() < 1e-9);
    }

    #[test]
    fn run_contender_smoke() {
        let arrivals = paper_arrivals(&FlatTrace { qps: 30.0, secs: 5 }, 1);
        let outcome = run_contender(&paper_contenders()[4], SystemConfig::small(), &arrivals);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
    }
}
