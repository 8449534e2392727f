//! Calibration sweep of the diurnal peak demand across all five systems,
//! used to pick the Fig. 4 scale. Not part of the paper reproduction
//! itself, but kept so the chosen operating points stay reproducible.

use crate::{paper_arrivals, paper_contenders, run_contender};
use proteus_core::system::SystemConfig;
use proteus_metrics::report::{fmt_f, TextTable};
use proteus_workloads::DiurnalTrace;

pub fn run() {
    for peak in [1000.0, 1300.0, 1600.0] {
        let trace = DiurnalTrace::paper_like(8 * 60, peak / 5.0, peak, 42);
        let arrivals = paper_arrivals(&trace, 42);
        println!("== peak {peak} QPS ({} queries) ==", arrivals.len());
        let mut t = TextTable::new(vec!["system", "thr", "acc%", "drop%", "viol"]);
        for c in paper_contenders() {
            let s = run_contender(&c, SystemConfig::paper_testbed(), &arrivals)
                .metrics
                .summary();
            t.row(vec![
                c.name.into(),
                fmt_f(s.avg_throughput_qps, 0),
                fmt_f(s.effective_accuracy_pct(), 1),
                fmt_f(s.max_accuracy_drop_pct(), 1),
                fmt_f(s.slo_violation_ratio, 4),
            ]);
        }
        print!("{}", t.render());
    }
}
