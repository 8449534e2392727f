//! §6.2 (fidelity) — simulator vs. "cluster" comparison.
//!
//! The paper validates its simulator against the physical cluster and
//! reports average differences of 0.12 % (effective accuracy), 0.82 %
//! (throughput) and 0.5 % (SLO violation ratio), attributing the gap to
//! latency variance, container startup delays and background effects. This
//! experiment reproduces that comparison: the same trace is served twice,
//! once with deterministic profiled latencies (the simulator) and once with
//! execution noise enabled (the cluster stand-in).

use crate::{paper_contenders, paper_trace, run_contender};
use proteus_core::system::SystemConfig;
use proteus_metrics::report::{fmt_f, TextTable};

pub fn run() {
    let (_, arrivals) = paper_trace(42);
    println!(
        "Sim vs cluster: same trace ({} queries), deterministic vs noisy execution\n",
        arrivals.len()
    );

    let mut table = TextTable::new(vec![
        "system",
        "Δ throughput (%)",
        "Δ effective acc (pp)",
        "Δ violation ratio (pp)",
    ]);
    for contender in paper_contenders() {
        let sim = run_contender(&contender, SystemConfig::paper_testbed(), &arrivals)
            .metrics
            .summary();
        // "Cluster": 6 % latency jitter plus up to 2 s container startup.
        let cluster_cfg = SystemConfig::paper_testbed().with_cluster_noise(0.06, 2.0);
        let cluster = run_contender(&contender, cluster_cfg, &arrivals)
            .metrics
            .summary();
        table.row(vec![
            contender.name.to_string(),
            fmt_f(
                (sim.avg_throughput_qps - cluster.avg_throughput_qps).abs()
                    / cluster.avg_throughput_qps.max(1e-9)
                    * 100.0,
                2,
            ),
            fmt_f(
                (sim.effective_accuracy - cluster.effective_accuracy).abs() * 100.0,
                2,
            ),
            fmt_f(
                (sim.slo_violation_ratio - cluster.slo_violation_ratio).abs() * 100.0,
                2,
            ),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nExpected shape (paper): sub-percent accuracy difference, ~1%\n\
         throughput difference, ~0.5pp violation-ratio difference — the\n\
         simulator faithfully predicts cluster behaviour."
    );
}
