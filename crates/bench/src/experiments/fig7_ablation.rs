//! Fig. 7 — ablation study: Proteus minus one component at a time.
//!
//! * w/o MS (model selection): only the most accurate variants (no
//!   accuracy scaling), placement/assignment still MILP-optimal.
//! * w/o MP (model placement): the Sommelier configuration — placement
//!   frozen after start-up, variants swap in place.
//! * w/o QA (query assignment): uniform routing over hosting devices.
//! * w/o AB (adaptive batching): static batch size 1.

use crate::{paper_contenders, paper_trace, run_contender, summary_headers, summary_row, Contender};
use proteus_core::system::SystemConfig;
use proteus_metrics::report::TextTable;
use proteus_metrics::RunSummary;

fn ablations() -> Vec<Contender> {
    use proteus_core::batching::{ProteusBatching, StaticBatching};
    use proteus_core::schedulers::{ProteusAllocator, SommelierAllocator};
    vec![
        paper_contenders().pop().expect("Proteus is last"),
        Contender {
            name: "Proteus w/o MS",
            allocator: || Box::new(ProteusAllocator::without_model_selection()),
            batching: || Box::new(ProteusBatching),
        },
        Contender {
            name: "Proteus w/o MP",
            allocator: || Box::new(SommelierAllocator::default()),
            batching: || Box::new(ProteusBatching),
        },
        Contender {
            name: "Proteus w/o QA",
            allocator: || Box::new(ProteusAllocator::without_query_assignment()),
            batching: || Box::new(ProteusBatching),
        },
        Contender {
            name: "Proteus w/o AB",
            allocator: || Box::new(ProteusAllocator::default()),
            batching: || Box::new(StaticBatching::new(1)),
        },
    ]
}

pub fn run() {
    let (_, arrivals) = paper_trace(42);
    println!(
        "Fig. 7: ablation on the diurnal trace ({} queries)\n",
        arrivals.len()
    );

    let mut table = TextTable::new(summary_headers());
    let mut rows = Vec::new();
    for contender in ablations() {
        let outcome = run_contender(&contender, SystemConfig::paper_testbed(), &arrivals);
        let s = outcome.metrics.summary();
        table.row(summary_row(contender.name, &s));
        rows.push((contender.name, s));
    }
    print!("{}", table.render());

    let find = |n: &str| {
        rows.iter()
            .find(|(name, _)| *name == n)
            .map(|(_, s)| s)
            .unwrap()
    };
    let full = find("Proteus");
    println!("\nShape checks (paper §6.5):");
    println!(
        "- w/o MS keeps 100% effective accuracy ({:.2}%)",
        find("Proteus w/o MS").effective_accuracy_pct()
    );
    worst_claim(&rows, "Proteus w/o MS", "SLO violation ratio", 4, |s| {
        s.slo_violation_ratio
    });
    worst_claim(&rows, "Proteus w/o MP", "max accuracy drop (%)", 2, |s| {
        s.max_accuracy_drop_pct()
    });
    println!(
        "- w/o AB and w/o QA raise violations ({:.4} / {:.4} vs {:.4})",
        find("Proteus w/o AB").slo_violation_ratio,
        find("Proteus w/o QA").slo_violation_ratio,
        full.slo_violation_ratio
    );
}

/// Checks the claim that `claimed` has the highest `metric` of all rows
/// (Proteus and every ablation), and prints whether it holds and which row
/// is actually worst.
fn worst_claim(
    rows: &[(&str, RunSummary)],
    claimed: &str,
    what: &str,
    digits: usize,
    metric: fn(&RunSummary) -> f64,
) {
    let claimed_value = rows
        .iter()
        .find(|(n, _)| *n == claimed)
        .map(|(_, s)| metric(s))
        .unwrap();
    let (worst, worst_value) = rows
        .iter()
        .map(|(n, s)| (*n, metric(s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let verdict = if claimed_value >= worst_value {
        format!("holds ({claimed_value:.digits$})")
    } else {
        format!(
            "does not hold ({claimed_value:.digits$}; worst is {worst} at {worst_value:.digits$})"
        )
    };
    println!("- {claimed} has the highest {what}: {verdict}");
}
