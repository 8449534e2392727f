//! Cross-crate integration tests: full serving runs through the public
//! facade, comparing schedulers and batching policies end to end.

use proteus::core::batching::{
    AimdBatching, BatchPolicy, NexusBatching, ProteusBatching, StaticBatching,
};
use proteus::core::schedulers::{
    Allocator, ClipperAllocator, ClipperMode, InfaasAccuracyAllocator, ProteusAllocator,
    SommelierAllocator,
};
use proteus::core::system::{mean_demand, RunOutcome, ServingSystem, SystemConfig};
use proteus::core::FamilyMap;
use proteus::metrics::RunSummary;
use proteus::profiler::ModelFamily;
use proteus::workloads::{
    ArrivalKind, ArrivalProcess, BurstyTrace, DiurnalTrace, FlatTrace, QueryArrival, TraceBuilder,
};

fn arrivals_flat(qps: f64, secs: u32, seed: u64) -> Vec<QueryArrival> {
    TraceBuilder::new(TraceBuilder::paper_families())
        .seed(seed)
        .build(&FlatTrace { qps, secs })
}

fn run(
    config: SystemConfig,
    allocator: Box<dyn Allocator>,
    batching: Box<dyn BatchPolicy>,
    arrivals: &[QueryArrival],
) -> RunOutcome {
    let mut system = ServingSystem::new(config, allocator, batching);
    system.run(arrivals)
}

fn summary_of(outcome: &RunOutcome) -> RunSummary {
    outcome.metrics.summary()
}

#[test]
fn every_scheduler_serves_a_moderate_workload() {
    let arrivals = arrivals_flat(60.0, 15, 1);
    let allocators: Vec<Box<dyn Allocator>> = vec![
        Box::new(ProteusAllocator::default()),
        Box::new(ClipperAllocator::new(ClipperMode::HighThroughput)),
        Box::new(ClipperAllocator::new(ClipperMode::HighAccuracy)),
        Box::new(SommelierAllocator::default()),
        Box::new(InfaasAccuracyAllocator::default()),
    ];
    for allocator in allocators {
        let name = allocator.name();
        let outcome = run(
            SystemConfig::small(),
            allocator,
            Box::new(ProteusBatching),
            &arrivals,
        );
        let s = summary_of(&outcome);
        assert_eq!(
            s.total_arrived,
            s.total_served + s.total_dropped,
            "{name}: accounting must conserve queries"
        );
        assert!(
            s.total_served as f64 > 0.5 * s.total_arrived as f64,
            "{name}: must serve most of a moderate load, served {}/{}",
            s.total_served,
            s.total_arrived
        );
    }
}

#[test]
fn clipper_ht_floors_accuracy_clipper_ha_maxes_it() {
    let arrivals = arrivals_flat(40.0, 12, 2);
    let ht = summary_of(&run(
        SystemConfig::small(),
        Box::new(ClipperAllocator::new(ClipperMode::HighThroughput)),
        Box::new(ProteusBatching),
        &arrivals,
    ));
    let ha = summary_of(&run(
        SystemConfig::small(),
        Box::new(ClipperAllocator::new(ClipperMode::HighAccuracy)),
        Box::new(ProteusBatching),
        &arrivals,
    ));
    assert!(
        ht.effective_accuracy < ha.effective_accuracy,
        "HT {} must be below HA {}",
        ht.effective_accuracy,
        ha.effective_accuracy
    );
    // HA never scales accuracy: whatever it serves is served at 1.0.
    assert!(ha.effective_accuracy > 0.999, "{}", ha.effective_accuracy);
    // HT's accuracy sits near the normalized floor (~0.8–0.87).
    assert!(ht.effective_accuracy < 0.9, "{}", ht.effective_accuracy);
}

#[test]
fn proteus_beats_clipper_ha_on_violations_under_pressure() {
    // At pressure beyond HA capacity, accuracy scaling buys throughput.
    let arrivals = arrivals_flat(600.0, 20, 3);
    let proteus = summary_of(&run(
        SystemConfig::small(),
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
        &arrivals,
    ));
    let ha = summary_of(&run(
        SystemConfig::small(),
        Box::new(ClipperAllocator::new(ClipperMode::HighAccuracy)),
        Box::new(ProteusBatching),
        &arrivals,
    ));
    assert!(
        proteus.slo_violation_ratio < ha.slo_violation_ratio,
        "proteus {} !< clipper-ha {}",
        proteus.slo_violation_ratio,
        ha.slo_violation_ratio
    );
    assert!(
        proteus.avg_throughput_qps > ha.avg_throughput_qps,
        "proteus {} !> clipper-ha {}",
        proteus.avg_throughput_qps,
        ha.avg_throughput_qps
    );
}

#[test]
fn proteus_batching_beats_aimd_on_gamma_bursts() {
    // Single-family micro-bursty stream with a frozen allocation: the
    // Fig. 6 isolation experiment.
    let stream: Vec<QueryArrival> =
        ArrivalProcess::new(ArrivalKind::Gamma { shape: 0.05 }, 250.0, 17)
            .take_for_secs(40.0)
            .into_iter()
            .map(|at| QueryArrival::new(at, ModelFamily::EfficientNet))
            .collect();
    let mut config = SystemConfig::small();
    config.realloc_period_secs = 1e9;
    let mut provision = FamilyMap::default();
    provision[ModelFamily::EfficientNet] = 260.0;
    config.provision_demand = Some(provision);

    let policies: Vec<Box<dyn BatchPolicy>> = vec![
        Box::new(ProteusBatching),
        Box::new(NexusBatching),
        Box::new(AimdBatching::default()),
    ];
    let mut ratios = Vec::new();
    for p in policies {
        let name = p.name();
        let s = summary_of(&run(
            config.clone(),
            Box::new(ProteusAllocator::default()),
            p,
            &stream,
        ));
        ratios.push((name, s.slo_violation_ratio));
    }
    let get = |n: &str| ratios.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(
        get("proteus") <= get("aimd"),
        "proteus must not violate more than AIMD on bursty arrivals: {ratios:?}"
    );
    assert!(
        get("proteus") <= get("nexus") + 0.01,
        "proteus must be at least as good as nexus on bursty arrivals: {ratios:?}"
    );
}

#[test]
fn bursty_trace_triggers_burst_reallocations() {
    let trace = BurstyTrace {
        low_qps: 40.0,
        high_qps: 500.0,
        burst_start: 20,
        burst_end: 50,
        secs: 70,
    };
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(5)
        .build(&trace);
    let mut config = SystemConfig::small();
    // Long periodic interval so any fast reaction must come from the burst
    // detector.
    config.realloc_period_secs = 1e9;
    config.provision_demand = Some(mean_demand(&arrivals).scaled(0.5));
    let outcome = run(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
        &arrivals,
    );
    assert!(
        outcome.burst_reallocations >= 1,
        "the monitoring daemon must trigger at least one burst re-allocation"
    );
}

#[test]
fn diurnal_run_on_paper_testbed_is_sane() {
    let trace = DiurnalTrace::paper_like(120, 80.0, 400.0, 21);
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(21)
        .build(&trace);
    let outcome = run(
        SystemConfig::paper_testbed(),
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
        &arrivals,
    );
    let s = summary_of(&outcome);
    assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
    assert!(s.slo_violation_ratio < 0.2, "{}", s.slo_violation_ratio);
    assert!(s.effective_accuracy > 0.85, "{}", s.effective_accuracy);
    // The final plan must be structurally valid.
    let store = proteus::profiler::ProfileStore::build(
        &proteus::profiler::ModelZoo::paper_table3(),
        proteus::profiler::SloPolicy::default(),
    );
    let cluster = proteus::profiler::Cluster::paper_testbed();
    let zoo = proteus::profiler::ModelZoo::paper_table3();
    let ctx = proteus::core::schedulers::AllocContext {
        cluster: &cluster,
        zoo: &zoo,
        store: &store,
        down: &[],
    };
    let report = proteus::core::allocation::audit::audit_plan(
        &ctx,
        &FamilyMap::default(),
        &outcome.final_plan,
    );
    assert!(report.is_clean(), "{report}");
}

#[test]
fn family_breakdown_covers_active_families() {
    let arrivals = arrivals_flat(100.0, 10, 8);
    let outcome = run(
        SystemConfig::small(),
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
        &arrivals,
    );
    let fams = outcome.metrics.family_summaries();
    // All nine families appear in a Zipf-split trace of 1000 queries.
    assert!(fams.len() >= 8, "got {} families", fams.len());
    let total: u64 = fams.iter().map(|f| f.summary.total_arrived).sum();
    assert_eq!(total, outcome.metrics.summary().total_arrived);
}

#[test]
fn identical_seeds_identical_outcomes_across_systems() {
    let arrivals = arrivals_flat(150.0, 10, 13);
    let run_once = || {
        summary_of(&run(
            SystemConfig::small(),
            Box::new(InfaasAccuracyAllocator::default()),
            Box::new(NexusBatching),
            &arrivals,
        ))
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn static_batch_sizes_above_one_also_work() {
    let arrivals = arrivals_flat(200.0, 10, 4);
    for size in [1, 4, 16] {
        let s = summary_of(&run(
            SystemConfig::small(),
            Box::new(ProteusAllocator::default()),
            Box::new(StaticBatching::new(size)),
            &arrivals,
        ));
        assert_eq!(
            s.total_arrived,
            s.total_served + s.total_dropped,
            "batch size {size}"
        );
    }
}
