//! Calibration sweep of the offered load of the batching isolation
//! experiment (Fig. 6). Not part of the paper reproduction itself, but kept
//! so the chosen operating points stay reproducible: every run is Fig. 6's
//! (same frozen allocation, capacity margin and run length) on its Gamma(0.05)
//! arrivals, with only the offered load swept, so the 600 QPS row is
//! Fig. 6's gamma column.

use crate::fig6_run;
use proteus_core::batching::{BatchPolicy, NexusBatching, ProteusBatching};
use proteus_workloads::ArrivalKind;

pub fn run() {
    let policies: Vec<(&str, Box<dyn BatchPolicy>)> = vec![
        ("proteus", Box::new(ProteusBatching)),
        ("nexus", Box::new(NexusBatching)),
    ];
    for qps in [350.0, 450.0, 550.0, 600.0, 650.0] {
        print!("qps {qps}: ");
        for (name, p) in &policies {
            let kind = ArrivalKind::Gamma { shape: 0.05 };
            let s = fig6_run(p.clone(), kind, qps).metrics.summary();
            print!("{name}={:.4} ", s.slo_violation_ratio);
        }
        println!();
    }
}
