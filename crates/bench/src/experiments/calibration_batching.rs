//! Calibration sweep of the offered load of the batching isolation
//! experiment (Fig. 6). Not part of the paper reproduction itself, but kept
//! so the chosen operating points stay reproducible.

use crate::{family_stream, frozen_config, run_proteus};
use proteus_core::batching::{BatchPolicy, NexusBatching, ProteusBatching};
use proteus_profiler::ModelFamily;
use proteus_workloads::ArrivalKind;

pub fn run() {
    let policies: Vec<(&str, Box<dyn BatchPolicy>)> = vec![
        ("proteus", Box::new(ProteusBatching)),
        ("nexus", Box::new(NexusBatching)),
    ];
    for qps in [350.0, 450.0, 550.0, 600.0, 650.0] {
        print!("qps {qps}: ");
        for (name, p) in &policies {
            let config = frozen_config(ModelFamily::EfficientNet, 600.0);
            let kind = ArrivalKind::Gamma { shape: 0.05 };
            let stream = family_stream(ModelFamily::EfficientNet, kind, qps, 90.0, 77);
            let s = run_proteus(config, p.clone(), &stream).metrics.summary();
            print!("{name}={:.4} ", s.slo_violation_ratio);
        }
        println!();
    }
}
