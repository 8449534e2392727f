//! Calibration sweep of the planning headroom beta, with per-family and
//! per-window violation breakdowns at beta = 1.25. Not part of the paper
//! reproduction itself, but kept so the chosen operating points stay
//! reproducible.

use crate::{paper_arrivals, run_proteus};
use proteus_core::batching::ProteusBatching;
use proteus_core::system::SystemConfig;
use proteus_workloads::DiurnalTrace;

pub fn run() {
    let trace = DiurnalTrace::paper_like(8 * 60, 260.0, 1300.0, 42);
    let arrivals = paper_arrivals(&trace, 42);
    for (label, headroom, load_scale) in [
        ("beta=1.05", 1.05, 1.0),
        ("beta=1.15", 1.15, 1.0),
        ("beta=1.25", 1.25, 1.0),
        ("beta=1.15 fast-load", 1.15, 0.1),
        ("beta=1.05 fast-load", 1.05, 0.1),
    ] {
        let mut config = SystemConfig::paper_testbed();
        config.demand_headroom = headroom;
        config.load_base_secs *= load_scale;
        config.load_secs_per_gib *= load_scale;
        let o = run_proteus(config, Box::new(ProteusBatching), &arrivals);
        let s = o.metrics.summary();
        println!(
            "{label}: viol={:.4} drop={:.2}% acc={:.2}% reallocs={} shrunk={}",
            s.slo_violation_ratio,
            s.max_accuracy_drop_pct(),
            s.effective_accuracy_pct(),
            o.reallocations,
            o.shrunk_plans
        );
        if label.starts_with("beta=1.25") {
            for f in o.metrics.family_summaries() {
                println!(
                    "   {:<14} viol={:.4} arrived={}",
                    f.family.label(),
                    f.summary.slo_violation_ratio,
                    f.summary.total_arrived
                );
            }
            let per_min: Vec<f64> = o
                .metrics
                .timeseries()
                .chunks(30)
                .map(|c| c.iter().map(|b| b.violations() as f64).sum::<f64>() / 30.0)
                .collect();
            println!("   viol/s per 30s window: {per_min:.1?}");
        }
    }
}
