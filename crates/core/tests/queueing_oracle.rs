//! The serving engine against queueing theory.
//!
//! The fingerprints, the golden trace and the smoke baselines all come
//! from the engine itself; a closed-form queue does not. One V100 hosts
//! EfficientNet-b0 under a fixed plan, batches of exactly one query and an
//! SLO so loose nothing expires: with Poisson arrivals that is an M/D/1
//! queue with service time D, whose mean sojourn is
//! `D + ρD / (2(1 − ρ))` and whose probability of not waiting is `1 − ρ`
//! (PASTA, exact for any M/G/1).
//!
//! Each statistic is estimated from batch means: every seed's run is cut
//! into equal-length batches of arrivals after a warm-up, and the
//! theoretical value must lie inside the confidence interval of the mean
//! over all batches of all seeds. Seeds, run length, warm-up, batch count
//! and the interval's quantile are fixed constants.

use proteus_core::batching::StaticBatching;
use proteus_core::schedulers::{AllocContext, Allocator};
use proteus_core::system::{ServingSystem, SystemConfig};
use proteus_core::{AllocationPlan, FamilyMap};
use proteus_profiler::{
    Cluster, DeviceId, DeviceType, ModelFamily, ModelZoo, ProfileStore, SloPolicy, VariantId,
};
use proteus_sim::SimTime;
use proteus_trace::{EventKind, TraceEvent, TraceSink};
use proteus_workloads::{ArrivalKind, ArrivalProcess, QueryArrival};

/// Arrival seeds; every load level runs each of them.
const SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Arrival span of one run, seconds.
const RUN_SECS: f64 = 300.0;
/// Arrivals before this are dropped from the estimates: the queue starts
/// empty, which biases early sojourns low.
const WARM_UP_SECS: f64 = 10.0;
/// Batches per run, each `(RUN_SECS − WARM_UP_SECS) / BATCHES` long —
/// long against the queue's relaxation time even at ρ = 0.9 (~1.5 s).
const BATCHES: usize = 10;
/// Two-sided 99.9 % Student-t quantile for the 39 degrees of freedom of
/// `SEEDS.len() × BATCHES` batch means (3.56), rounded up.
const T_QUANTILE: f64 = 3.6;

const EFFICIENTNET_B0: VariantId = VariantId {
    family: ModelFamily::EfficientNet,
    index: 0,
};

/// Serves the same fixed plan forever: EfficientNet-b0 on device 0.
#[derive(Debug)]
struct FixedPlan;

impl Allocator for FixedPlan {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn allocate(
        &mut self,
        _ctx: &AllocContext<'_>,
        _demand: &FamilyMap<f64>,
        _current: Option<&AllocationPlan>,
        _now: SimTime,
    ) -> AllocationPlan {
        let mut plan = AllocationPlan::empty(1);
        plan.assign(DeviceId(0), Some(EFFICIENTNET_B0));
        plan.set_routing(ModelFamily::EfficientNet, vec![(DeviceId(0), 1.0)]);
        plan.set_capacity(ModelFamily::EfficientNet, 1000.0);
        plan
    }

    fn is_static(&self) -> bool {
        true
    }
}

/// Keeps each served query's sojourn time, indexed by query id.
struct Sojourns(Vec<Option<SimTime>>);

impl TraceSink for Sojourns {
    fn record(&mut self, event: &TraceEvent) {
        if let EventKind::ServedOnTime { query, latency, .. }
        | EventKind::ServedLate { query, latency, .. } = event.kind
        {
            self.0[query as usize] = Some(latency);
        }
    }
}

fn config() -> SystemConfig {
    let mut config = SystemConfig::paper_testbed();
    config.cluster = Cluster::with_counts(0, 0, 1);
    config.slo = SloPolicy::with_multiplier(1000.0);
    config
}

/// The service time D: b0's batch-of-one latency on a V100.
fn service_time() -> SimTime {
    let config = config();
    let store = ProfileStore::build(&ModelZoo::paper_table3(), config.slo);
    let profile = store
        .profile(EFFICIENTNET_B0, DeviceType::V100)
        .expect("b0 is profiled on the V100");
    SimTime::from_millis_f64(profile.latency_for_cost(1.0))
}

/// Per-batch (mean sojourn in ms, fraction that did not wait) of one run.
fn batch_means(rho: f64, seed: u64, d: SimTime) -> Vec<(f64, f64)> {
    let rate = rho / d.as_secs_f64();
    let arrivals: Vec<QueryArrival> = ArrivalProcess::new(ArrivalKind::Poisson, rate, seed)
        .take_for_secs(RUN_SECS)
        .into_iter()
        .map(|at| QueryArrival::new(at, ModelFamily::EfficientNet))
        .collect();
    let mut system = ServingSystem::new(
        config(),
        Box::new(FixedPlan),
        Box::new(StaticBatching::new(1)),
    );
    let mut sink = Sojourns(vec![None; arrivals.len()]);
    system.run_traced(&arrivals, &mut sink);
    let batch_secs = (RUN_SECS - WARM_UP_SECS) / BATCHES as f64;
    let mut sums = vec![(0.0, 0.0, 0usize); BATCHES];
    for (arrival, sojourn) in arrivals.iter().zip(&sink.0) {
        let since = arrival.at.as_secs_f64() - WARM_UP_SECS;
        if since < 0.0 {
            continue;
        }
        let sojourn = sojourn.expect("every query is served: nothing expires or overflows");
        let batch = &mut sums[((since / batch_secs) as usize).min(BATCHES - 1)];
        batch.0 += sojourn.as_secs_f64() * 1e3;
        batch.1 += f64::from(u8::from(sojourn == d));
        batch.2 += 1;
    }
    sums.into_iter()
        .map(|(sojourn, no_wait, n)| (sojourn / n as f64, no_wait / n as f64))
        .collect()
}

/// Mean and confidence half-width of `samples`.
fn interval(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, T_QUANTILE * (var / n).sqrt())
}

#[test]
fn single_server_matches_m_d_1() {
    let d = service_time();
    let d_ms = d.as_secs_f64() * 1e3;
    let mut failures = Vec::new();
    for rho in [0.3, 0.5, 0.7, 0.8, 0.9] {
        let batches: Vec<(f64, f64)> = SEEDS
            .iter()
            .flat_map(|&seed| batch_means(rho, seed, d))
            .collect();
        let sojourns: Vec<f64> = batches.iter().map(|b| b.0).collect();
        let no_waits: Vec<f64> = batches.iter().map(|b| b.1).collect();
        let (sojourn, sojourn_hw) = interval(&sojourns);
        let (no_wait, no_wait_hw) = interval(&no_waits);
        let want_sojourn = d_ms + rho * d_ms / (2.0 * (1.0 - rho));
        let want_no_wait = 1.0 - rho;
        eprintln!(
            "rho {rho}: sojourn {sojourn:.3} ± {sojourn_hw:.3} ms (M/D/1 {want_sojourn:.3}), \
             no wait {no_wait:.4} ± {no_wait_hw:.4} (1 − ρ = {want_no_wait:.4})"
        );
        if (sojourn - want_sojourn).abs() > sojourn_hw {
            failures.push(format!(
                "rho {rho}: mean sojourn {sojourn} ms ≠ {want_sojourn}"
            ));
        }
        if (no_wait - want_no_wait).abs() > no_wait_hw {
            failures.push(format!("rho {rho}: P(no wait) {no_wait} ≠ {want_no_wait}"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
