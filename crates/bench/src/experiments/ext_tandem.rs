//! §7 extension — accuracy scaling in tandem with hardware scaling.
//!
//! The paper's discussion: hardware scaling is slow (server provisioning
//! takes time), so accuracy scaling should absorb sudden bursts while new
//! servers spin up. This experiment runs a sustained burst against (a) a
//! fixed cluster (accuracy scaling only), and (b) an elastic cluster that
//! orders extra V100s when even minimum accuracy cannot cover demand.

use crate::{paper_arrivals, run_proteus};
use proteus_core::batching::ProteusBatching;
use proteus_core::system::{ElasticScaling, SystemConfig};
use proteus_metrics::report::{fmt_f, sparkline, TextTable};
use proteus_profiler::Cluster;
use proteus_workloads::BurstyTrace;

pub fn run() {
    // A deliberately under-sized cluster so the burst saturates it even at
    // minimum accuracy.
    let base = Cluster::with_counts(6, 3, 3);
    let trace = BurstyTrace {
        low_qps: 150.0,
        high_qps: 1500.0,
        burst_start: 120,
        burst_end: 480,
        secs: 600,
    };
    let arrivals = paper_arrivals(&trace, 17);
    println!(
        "§7 tandem: {} queries; burst {:.0} -> {:.0} QPS for 6 minutes on a 12-device cluster\n",
        arrivals.len(),
        trace.low_qps,
        trace.high_qps
    );

    let mut table = TextTable::new(vec![
        "cluster",
        "devices added",
        "avg throughput (QPS)",
        "effective acc (%)",
        "max acc drop (%)",
        "SLO violation ratio",
    ]);
    for (label, elastic) in [
        ("fixed (accuracy scaling only)", None),
        (
            "elastic (tandem, 60 s provisioning)",
            Some(ElasticScaling {
                provision_delay_secs: 60.0,
                max_extra_devices: 8,
                shrink_trigger: 1.02,
            }),
        ),
    ] {
        let mut config = SystemConfig::paper_testbed();
        config.cluster = base.clone();
        config.realloc_period_secs = 15.0;
        config.elastic = elastic;
        let outcome = run_proteus(config, Box::new(ProteusBatching), &arrivals);
        let s = outcome.metrics.summary();
        table.row(vec![
            label.to_string(),
            outcome.provisioned_devices.to_string(),
            fmt_f(s.avg_throughput_qps, 1),
            fmt_f(s.effective_accuracy_pct(), 2),
            fmt_f(s.max_accuracy_drop_pct(), 2),
            fmt_f(s.slo_violation_ratio, 4),
        ]);
        let ts = outcome.metrics.timeseries();
        let acc: Vec<f64> = ts
            .iter()
            .map(|b| b.effective_accuracy().unwrap_or(1.0))
            .collect();
        let served: Vec<f64> = ts.iter().map(|b| b.served() as f64).collect();
        let minute = |s: &[f64]| -> Vec<f64> {
            s.chunks(30)
                .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                .collect()
        };
        println!("{label}:");
        println!("  throughput {}", sparkline(&minute(&served)));
        println!("  accuracy   {}", sparkline(&minute(&acc)));
    }
    println!();
    print!("{}", table.render());
    println!(
        "\nExpected shape (§7): both clusters dive to low accuracy at the burst\n\
         onset; the elastic one recovers throughput and accuracy as ordered\n\
         V100s arrive, while the fixed one stays scaled down for the whole\n\
         burst — accuracy scaling covers exactly the provisioning gap."
    );
}
