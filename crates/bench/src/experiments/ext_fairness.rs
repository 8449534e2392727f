//! §7 extension — the fairness objective.
//!
//! The paper's discussion notes that system-level accuracy optimization can
//! treat families unequally and sketches max-min fairness as future work.
//! This experiment implements it: Proteus with `fairness = true` maximizes
//! the *minimum* per-family planned accuracy and is compared against the
//! default demand-weighted objective.

use crate::{paper_trace, run_contender, Contender};
use proteus_core::batching::ProteusBatching;
use proteus_core::schedulers::ProteusAllocator;
use proteus_core::system::SystemConfig;
use proteus_metrics::report::{fmt_f, TextTable};

pub fn run() {
    let (_, arrivals) = paper_trace(42);
    println!(
        "§7 extension: fairness objective on the diurnal trace ({} queries)\n",
        arrivals.len()
    );

    let contenders = vec![
        Contender {
            name: "Proteus (system accuracy)",
            allocator: || Box::new(ProteusAllocator::default()),
            batching: || Box::new(ProteusBatching),
        },
        Contender {
            name: "Proteus (max-min fairness)",
            allocator: || Box::new(ProteusAllocator::fair()),
            batching: || Box::new(ProteusBatching),
        },
    ];

    let mut table = TextTable::new(vec![
        "objective",
        "system effective acc (%)",
        "worst family acc (%)",
        "acc spread across families (pp)",
        "SLO violation ratio",
    ]);
    for contender in contenders {
        let outcome = run_contender(&contender, SystemConfig::paper_testbed(), &arrivals);
        let s = outcome.metrics.summary();
        let fams = outcome.metrics.family_summaries();
        let accs: Vec<f64> = fams
            .iter()
            .map(|f| f.summary.effective_accuracy_pct())
            .collect();
        let worst = accs.iter().copied().fold(f64::INFINITY, f64::min);
        let best = accs.iter().copied().fold(0.0, f64::max);
        table.row(vec![
            contender.name.to_string(),
            fmt_f(s.effective_accuracy_pct(), 2),
            fmt_f(worst, 2),
            fmt_f(best - worst, 2),
            fmt_f(s.slo_violation_ratio, 4),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nExpected trade-off (§7): fairness lifts the worst family's accuracy\n\
         and narrows the spread, at some cost in system-level effective\n\
         accuracy — the tension the paper identifies."
    );
}
