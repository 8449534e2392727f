//! Fig. 9 — per-model-family breakdown of Proteus on the diurnal trace.
//!
//! The trace Zipf-splits demand across the nine applications, so each
//! family sees a different request rate; this experiment shows throughput,
//! effective accuracy (and its variation over time) and SLO violations per
//! family.

use crate::{paper_contenders, paper_trace, per_minute, run_contender};
use proteus_core::system::SystemConfig;
use proteus_metrics::report::{fmt_f, sparkline, TextTable};

pub fn run() {
    let (_, arrivals) = paper_trace(42);
    println!(
        "Fig. 9: Proteus per-family breakdown on the diurnal trace ({} queries)\n",
        arrivals.len()
    );

    let proteus = paper_contenders().pop().expect("Proteus is last");
    let outcome = run_contender(&proteus, SystemConfig::paper_testbed(), &arrivals);

    let mut table = TextTable::new(vec![
        "family",
        "share (%)",
        "throughput (QPS)",
        "effective acc (%)",
        "acc range over time (%)",
        "SLO violation ratio",
        "p50 lat (ms)",
        "p99 lat (ms)",
    ]);
    let total_arrived = outcome.metrics.summary().total_arrived as f64;
    for fam in outcome.metrics.family_summaries() {
        let ts = outcome.metrics.family_timeseries(fam.family);
        let accs: Vec<f64> = ts
            .iter()
            .filter(|b| b.served() >= 5)
            .filter_map(|b| b.effective_accuracy())
            .map(|a| a * 100.0)
            .collect();
        let (lo, hi) = accs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &a| {
                (l.min(a), h.max(a))
            });
        let range = if accs.is_empty() {
            "-".to_string()
        } else {
            format!("{:.1}-{:.1}", lo, hi)
        };
        let (p50, p99) = outcome
            .metrics
            .family_latency(fam.family)
            .map(|s| {
                let ms = |q| s.quantile(q).map_or(0.0, |secs| secs * 1e3);
                (ms(0.5), ms(0.99))
            })
            .unwrap_or((0.0, 0.0));
        table.row(vec![
            fam.family.label().to_string(),
            fmt_f(fam.summary.total_arrived as f64 / total_arrived * 100.0, 1),
            fmt_f(fam.summary.avg_throughput_qps, 1),
            fmt_f(fam.summary.effective_accuracy_pct(), 2),
            range,
            fmt_f(fam.summary.slo_violation_ratio, 4),
            fmt_f(p50, 1),
            fmt_f(p99, 1),
        ]);
    }
    print!("{}", table.render());

    println!("\nPer-family served throughput over time (per minute):");
    for fam in outcome.metrics.family_summaries() {
        let ts = outcome.metrics.family_timeseries(fam.family);
        let served: Vec<f64> = ts.iter().map(|b| b.served() as f64).collect();
        println!(
            "{:<14} {}",
            fam.family.label(),
            sparkline(&per_minute(&served))
        );
    }
    println!(
        "\nExpected shape (paper §6.7): throughput follows the Zipf split;\n\
         low-rate families (T5) show the widest accuracy variation because\n\
         they carry little weight in the system-level objective; GPT-2 is\n\
         pinned to the largest-memory accelerator; violations stay uniform\n\
         across families since batching works per device."
    );
}
