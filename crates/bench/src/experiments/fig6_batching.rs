//! Fig. 6 — adaptive batching isolated from resource allocation.
//!
//! Identical single-family load (same QPS) under uniform, Poisson and
//! Gamma(0.05) inter-arrival distributions; the allocation is frozen so the
//! batching policy is the only variable. Compares Proteus batching with
//! Nexus early-drop and Clipper AIMD, all mounted on the Proteus allocator
//! exactly as §6.4 does.

use crate::{fig6_run, FIG6_QPS as QPS, FIG6_SECS as SECS};
use proteus_core::batching::{AimdBatching, BatchPolicy, NexusBatching, ProteusBatching};
use proteus_metrics::report::{fmt_f, TextTable};
use proteus_workloads::ArrivalKind;

pub fn run() {
    println!("Fig. 6: batching policies at a fixed {QPS:.0} QPS for {SECS:.0} s per arrival law\n");

    let kinds: [(&str, ArrivalKind); 3] = [
        ("uniform", ArrivalKind::Uniform),
        ("poisson", ArrivalKind::Poisson),
        ("gamma(0.05)", ArrivalKind::Gamma { shape: 0.05 }),
    ];
    let policies: Vec<(&str, Box<dyn BatchPolicy>)> = vec![
        ("Proteus", Box::new(ProteusBatching)),
        ("Proteus w/ Nexus batching", Box::new(NexusBatching)),
        (
            "Proteus w/ Clipper batching",
            Box::new(AimdBatching::default()),
        ),
    ];

    let mut table = TextTable::new(vec!["batching", "uniform", "poisson", "gamma(0.05)"]);
    let mut batch_table = table.clone();
    let mut ratios: Vec<(String, Vec<f64>)> = Vec::new();
    for (name, policy) in &policies {
        let mut row = vec![name.to_string()];
        let mut batch_row = row.clone();
        let mut rs = Vec::new();
        for (_, kind) in kinds {
            let outcome = fig6_run(policy.clone(), kind, QPS);
            let s = outcome.metrics.summary();
            row.push(fmt_f(s.slo_violation_ratio, 4));
            rs.push(s.slo_violation_ratio);
            let (q, b): (u64, u64) = outcome
                .device_stats
                .iter()
                .fold((0, 0), |(q, b), d| (q + d.queries, b + d.batches));
            batch_row.push(fmt_f(q as f64 / b.max(1) as f64, 1));
        }
        table.row(row);
        batch_table.row(batch_row);
        ratios.push((name.to_string(), rs));
    }
    println!("SLO violation ratio:\n");
    print!("{}", table.render());
    println!("\nMean batch size (the mechanism behind the ratios):\n");
    print!("{}", batch_table.render());

    let ratio_vs_proteus = |col: usize, name: &str| -> f64 {
        let p = ratios[0].1[col].max(1e-4);
        ratios
            .iter()
            .find(|(n, _)| n.contains(name))
            .map_or(0.0, |(_, r)| r[col] / p)
    };
    println!(
        "\nShape check (paper: Nexus 2-3x, Clipper ~4x worse on bursty traces):\n\
         poisson:      nexus/proteus = {:.1}x, aimd/proteus = {:.1}x\n\
         gamma(0.05):  nexus/proteus = {:.1}x, aimd/proteus = {:.1}x",
        ratio_vs_proteus(1, "Nexus"),
        ratio_vs_proteus(1, "Clipper"),
        ratio_vs_proteus(2, "Nexus"),
        ratio_vs_proteus(2, "Clipper"),
    );
}
