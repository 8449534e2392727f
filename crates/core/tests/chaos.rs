//! Chaos property tests: under *any* fault schedule — random crashes,
//! recoveries, straggler windows and load failures — the serving loop must
//! conserve queries (`arrived == served + dropped`), keep every audited
//! plan clean, and stay bit-for-bit deterministic.
//!
//! This is the repo's substitute for a proptest shrinker: schedules are a
//! pure function of the seed, so a failing seed printed by the harness *is*
//! the reproducer.

use proteus_core::batching::ProteusBatching;
use proteus_core::schedulers::ProteusAllocator;
use proteus_core::system::{RunOutcome, ServingSystem, SolveLatency, SystemConfig};
use proteus_sim::{FaultSchedule, SimTime};
use proteus_workloads::{FlatTrace, QueryArrival, TraceBuilder};

const HORIZON_SECS: u32 = 12;
const NUM_DEVICES: u32 = 9; // SystemConfig::small(): 5 CPU + 2 GTX + 2 V100

fn arrivals() -> Vec<QueryArrival> {
    TraceBuilder::new(TraceBuilder::paper_families())
        .seed(13)
        .build(&FlatTrace {
            qps: 60.0,
            secs: HORIZON_SECS,
        })
}

fn run_schedule(schedule: FaultSchedule, arrivals: &[QueryArrival]) -> RunOutcome {
    let mut config = SystemConfig::small();
    config.audit = true;
    config.faults = schedule;
    let mut system = ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    );
    system.run(arrivals)
}

/// Like [`run_schedule`] but with a nonzero control-plane solve window
/// and a short planning period, so windows are open for much of the run
/// and scripted faults routinely land *inside* them.
fn run_schedule_with_latency(
    schedule: FaultSchedule,
    arrivals: &[QueryArrival],
    solve_latency: SolveLatency,
) -> RunOutcome {
    let mut config = SystemConfig::small();
    config.audit = true;
    config.faults = schedule;
    config.solve_latency = solve_latency;
    config.realloc_period_secs = 5.0;
    let mut system = ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    );
    system.run(arrivals)
}

#[test]
fn conservation_holds_under_100_random_fault_schedules() {
    let arrivals = arrivals();
    let horizon = SimTime::from_secs(u64::from(HORIZON_SECS));
    let mut schedules_with_faults = 0u32;
    for seed in 0..100u64 {
        let schedule = FaultSchedule::seeded_random(seed, horizon, NUM_DEVICES);
        schedule
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed} generated an invalid schedule: {e}"));
        if !schedule.is_empty() {
            schedules_with_faults += 1;
        }
        let outcome = run_schedule(schedule, &arrivals);
        let s = outcome.metrics.summary();
        assert_eq!(
            s.total_arrived,
            s.total_served + s.total_dropped,
            "seed {seed}: conservation violated \
             ({} arrived, {} served, {} dropped)",
            s.total_arrived,
            s.total_served,
            s.total_dropped
        );
        assert_eq!(s.total_arrived, arrivals.len() as u64, "seed {seed}");
        assert_eq!(
            outcome.audit_violations, 0,
            "seed {seed}: plan audit or DES invariant violated"
        );
        assert_eq!(outcome.hot_stats.time_regressions, 0, "seed {seed}");
        // Online accounting never exceeds the run span.
        let span = horizon + SimTime::from_secs_f64(5.0);
        for (d, stats) in outcome.device_stats.iter().enumerate() {
            assert!(
                stats.online <= span,
                "seed {seed}: device {d} online {} > span {span}",
                stats.online
            );
        }
    }
    // The generator's rates make a fault-free draw rare; if most schedules
    // are empty this test is vacuously green, which is worth failing over.
    assert!(
        schedules_with_faults >= 80,
        "only {schedules_with_faults}/100 schedules contained faults"
    );
}

/// Scripted crashes aimed at the inside of solve windows. With
/// `realloc_period = 5` and a 4 s fixed window, periodic solves run over
/// [5, 9), [10, 14)…; crashes at 6.5 and 11.2 land mid-window, and the
/// recovery at 8 lands inside the failure replan's own window.
fn mid_window_crashes() -> FaultSchedule {
    "crash@6.5:7; recover@8:7; crash@11.2:8".parse().unwrap()
}

#[test]
fn mid_solve_crashes_conserve_queries_and_discard_stale_plans() {
    let arrivals = arrivals();
    for latency in [SolveLatency::Fixed(4.0), SolveLatency::Model] {
        let outcome = run_schedule_with_latency(mid_window_crashes(), &arrivals, latency);
        let s = outcome.metrics.summary();
        assert_eq!(
            s.total_arrived,
            s.total_served + s.total_dropped,
            "{latency:?}: conservation violated"
        );
        assert_eq!(s.total_arrived, arrivals.len() as u64, "{latency:?}");
        // Every *applied* plan passed the independent auditor, which
        // includes the liveness check: no plan referencing a down device
        // was ever committed.
        assert_eq!(outcome.audit_violations, 0, "{latency:?}");
        assert_eq!(outcome.hot_stats.time_regressions, 0, "{latency:?}");
        assert!(
            outcome.plans_discarded >= 1,
            "{latency:?}: crashes inside solve windows must invalidate \
             the in-flight plan, discarded = {}",
            outcome.plans_discarded
        );
    }
}

#[test]
fn mid_solve_crash_runs_are_deterministic() {
    let arrivals = arrivals();
    for latency in [SolveLatency::Fixed(4.0), SolveLatency::Model] {
        let a = run_schedule_with_latency(mid_window_crashes(), &arrivals, latency);
        let b = run_schedule_with_latency(mid_window_crashes(), &arrivals, latency);
        assert_eq!(a.metrics.summary(), b.metrics.summary(), "{latency:?}");
        assert_eq!(a.device_stats, b.device_stats, "{latency:?}");
        assert_eq!(a.plans_discarded, b.plans_discarded, "{latency:?}");
        assert_eq!(a.replans_coalesced, b.replans_coalesced, "{latency:?}");
        // The full simulated replan timeline — trigger instant, commit
        // instant, cause, plan delta — must be identical; only measured
        // solver wall time may differ.
        let sim_view = |o: &RunOutcome| {
            o.replan_log
                .iter()
                .map(|r| (r.at, r.committed_at, r.cause, r.changed, r.shrink))
                .collect::<Vec<_>>()
        };
        assert_eq!(sim_view(&a), sim_view(&b), "{latency:?}");
    }
}

#[test]
fn random_fault_schedules_stay_clean_under_solve_latency() {
    // The randomized sweep from the zero-latency suite, re-run with the
    // cost model on: conservation and audit cleanliness must survive
    // faults landing at arbitrary offsets relative to solve windows.
    let arrivals = arrivals();
    let horizon = SimTime::from_secs(u64::from(HORIZON_SECS));
    for seed in 0..25u64 {
        let schedule = FaultSchedule::seeded_random(seed, horizon, NUM_DEVICES);
        let outcome = run_schedule_with_latency(schedule, &arrivals, SolveLatency::Model);
        let s = outcome.metrics.summary();
        assert_eq!(
            s.total_arrived,
            s.total_served + s.total_dropped,
            "seed {seed}: conservation violated"
        );
        assert_eq!(outcome.audit_violations, 0, "seed {seed}");
        assert_eq!(outcome.hot_stats.time_regressions, 0, "seed {seed}");
    }
}

#[test]
fn fault_injected_runs_are_deterministic() {
    let arrivals = arrivals();
    let horizon = SimTime::from_secs(u64::from(HORIZON_SECS));
    for seed in [3u64, 17, 42] {
        let a = run_schedule(
            FaultSchedule::seeded_random(seed, horizon, NUM_DEVICES),
            &arrivals,
        );
        let b = run_schedule(
            FaultSchedule::seeded_random(seed, horizon, NUM_DEVICES),
            &arrivals,
        );
        assert_eq!(a.metrics.summary(), b.metrics.summary(), "seed {seed}");
        assert_eq!(a.device_stats, b.device_stats, "seed {seed}");
        // Compare replans modulo wall_secs: solver wall time is real
        // (measured) time and legitimately varies between runs.
        let sim_view = |o: &RunOutcome| {
            o.replan_log
                .iter()
                .map(|r| (r.at, r.cause, r.changed, r.shrink))
                .collect::<Vec<_>>()
        };
        assert_eq!(sim_view(&a), sim_view(&b), "seed {seed}");
        assert_eq!(a.reallocations, b.reallocations, "seed {seed}");
    }
}
