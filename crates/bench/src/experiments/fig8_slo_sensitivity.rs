//! Fig. 8 — sensitivity to the latency SLO.
//!
//! Sweeps the SLO multiplier from 1x to 3.5x the profiled latency of each
//! family's fastest CPU variant (§6.6) and reports average throughput,
//! maximum accuracy drop and SLO violation ratio for every system.

use crate::{paper_arrivals, paper_contenders, run_contender};
use proteus_core::system::SystemConfig;
use proteus_metrics::report::{fmt_f, TextTable};
use proteus_profiler::SloPolicy;
use proteus_workloads::DiurnalTrace;

pub fn run() {
    let multipliers = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
    let trace = DiurnalTrace::paper_like(10 * 60, 200.0, 1000.0, 42);
    let arrivals = paper_arrivals(&trace, 42);
    println!(
        "Fig. 8: SLO multiplier sweep on a 10-minute diurnal trace ({} queries)\n",
        arrivals.len()
    );

    let mut throughput = TextTable::new(vec!["system", "1x", "1.5x", "2x", "2.5x", "3x", "3.5x"]);
    let mut drop = throughput.clone();
    let mut violations = throughput.clone();

    for contender in paper_contenders() {
        let mut t_row = vec![contender.name.to_string()];
        let mut d_row = t_row.clone();
        let mut v_row = t_row.clone();
        for &m in &multipliers {
            let mut config = SystemConfig::paper_testbed();
            config.slo = SloPolicy::with_multiplier(m);
            let s = run_contender(&contender, config, &arrivals)
                .metrics
                .summary();
            t_row.push(fmt_f(s.avg_throughput_qps, 0));
            d_row.push(fmt_f(s.max_accuracy_drop_pct(), 1));
            v_row.push(fmt_f(s.slo_violation_ratio, 3));
        }
        throughput.row(t_row);
        drop.row(d_row);
        violations.row(v_row);
    }

    println!("Average throughput (QPS):\n{}", throughput.render());
    println!("Max accuracy drop (%):\n{}", drop.render());
    println!("SLO violation ratio:\n{}", violations.render());
    println!(
        "Expected shape (paper): violations fall and throughput rises with the\n\
         SLO for every system; the scaling systems' max accuracy drop shrinks\n\
         as looser SLOs admit more accurate (slower) variants; Proteus keeps\n\
         the lowest drop and violation ratio across the sweep."
    );
}
