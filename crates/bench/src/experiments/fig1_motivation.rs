//! Fig. 1 — the motivation for accuracy scaling.
//!
//! (a) Accuracy vs. batch-1 throughput of every EfficientNet variant on the
//!     three device types.
//! (b) System accuracy vs. system throughput capacity for all 5^5 = 3125
//!     placements of 5 EfficientNet variants onto a 5-device cluster, plus
//!     the Pareto frontier.

use proteus_metrics::report::{fmt_f, TextTable};
use proteus_profiler::{DeviceType, LatencyModel, ModelFamily, ModelZoo, ProfileStore, SloPolicy};

pub fn run() {
    let zoo = ModelZoo::paper_table3();
    let store = ProfileStore::build(&zoo, SloPolicy::default());
    let model = LatencyModel::default();

    // ------------------------------------------------------------- Fig. 1a
    println!("Fig. 1a: EfficientNet accuracy vs batch-1 throughput per device\n");
    let mut table = TextTable::new(vec![
        "variant",
        "accuracy (%)",
        "CPU QPS",
        "1080Ti QPS",
        "V100 QPS",
    ]);
    for v in zoo.variants_of(ModelFamily::EfficientNet) {
        let qps = |d: DeviceType| 1000.0 / model.latency_ms(v, d, 1);
        table.row(vec![
            v.name().to_string(),
            fmt_f(v.accuracy() * 100.0, 1),
            fmt_f(qps(DeviceType::Cpu), 1),
            fmt_f(qps(DeviceType::Gtx1080Ti), 1),
            fmt_f(qps(DeviceType::V100), 1),
        ]);
    }
    print!("{}", table.render());
    println!("\nShape check: on every device, lower accuracy => higher throughput;");
    println!("for a fixed variant, V100 > 1080Ti > CPU.\n");

    // ------------------------------------------------------------- Fig. 1b
    // 5 variants (b0, b2, b4, b6, b7 for spread) on 5 devices
    // (2 CPU, 2 1080Ti, 1 V100). Every device serves its SLO-safe peak.
    let variants: Vec<_> = zoo
        .variants_of(ModelFamily::EfficientNet)
        .filter(|v| matches!(v.id().index, 0 | 2 | 4 | 6 | 7))
        .collect();
    let devices = [
        DeviceType::Cpu,
        DeviceType::Cpu,
        DeviceType::Gtx1080Ti,
        DeviceType::Gtx1080Ti,
        DeviceType::V100,
    ];
    let n = variants.len();
    let mut configs: Vec<(f64, f64)> = Vec::with_capacity(n.pow(5));
    for code in 0..n.pow(5) {
        let mut c = code;
        let mut throughput = 0.0;
        let mut acc_weighted = 0.0;
        for &d in &devices {
            let v = variants[c % n];
            c /= n;
            let peak = store.peak_qps(v.id(), d);
            throughput += peak;
            acc_weighted += peak * v.accuracy();
        }
        let accuracy = if throughput > 0.0 {
            acc_weighted / throughput * 100.0
        } else {
            0.0
        };
        configs.push((throughput, accuracy));
    }
    println!(
        "Fig. 1b: {} configurations of 5 variants x 5 devices",
        configs.len()
    );

    // Pareto frontier: no other config has both >= throughput and >= accuracy.
    let mut frontier: Vec<(f64, f64)> = Vec::new();
    let mut sorted = configs.clone();
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)));
    let mut best_acc = f64::NEG_INFINITY;
    for &(t, a) in &sorted {
        if a > best_acc + 1e-9 {
            frontier.push((t, a));
            best_acc = a;
        }
    }
    frontier.sort_by(|a, b| a.0.total_cmp(&b.0));
    println!("Pareto frontier ({} points):\n", frontier.len());
    let mut table = TextTable::new(vec!["capacity (QPS)", "system accuracy (%)"]);
    for &(t, a) in &frontier {
        table.row(vec![fmt_f(t, 1), fmt_f(a, 2)]);
    }
    print!("{}", table.render());
    let (min_t, max_t) = (
        configs.iter().map(|c| c.0).fold(f64::INFINITY, f64::min),
        configs.iter().map(|c| c.0).fold(0.0, f64::max),
    );
    println!(
        "\nCapacity spans {:.0}-{:.0} QPS across configurations; the frontier",
        min_t, max_t
    );
    println!("trades accuracy monotonically for capacity — the decision space the MILP searches.");
}
