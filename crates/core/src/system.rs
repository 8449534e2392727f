//! The serving system: load balancers, workers, controller and metrics
//! wired together on the discrete-event engine (§3).
//!
//! [`ServingSystem::run`] replays a query-arrival trace against a cluster:
//!
//! * **Data path** — each arrival is routed by its family's
//!   [`Router`] to a worker, queued, and batched by
//!   the worker's [`BatchPolicy`]; completions and drops feed the
//!   [`MetricsCollector`].
//! * **Control path** — a [`DemandEstimator`] (the monitoring daemon) rolls
//!   per-second statistics; the Resource Manager re-invokes the
//!   [`Allocator`] periodically, or immediately when a demand burst
//!   overshoots planned capacity (with a cooldown), or — for critical-path
//!   allocators like INFaaS — on every monitoring tick. Plan changes incur
//!   model-load delays during which the affected device cannot serve.
//!
//! The optional execution noise (latency jitter + container startup delay)
//! models the difference between the paper's simulator and its physical
//! cluster (§6.2 reports <1 % divergence; the `sim_vs_cluster` experiment
//! reproduces that comparison).

use std::collections::BTreeMap;

use proteus_metrics::MetricsCollector;
use proteus_profiler::{
    Cluster, DeviceId, DeviceSpec, ModelZoo, Profile, ProfileStore, SloPolicy, VariantId,
};
use proteus_sim::{Actor, EventKey, FaultKind, FaultSchedule, SimTime, Simulation};
use proteus_solver::SolveStats;
use proteus_telemetry::registry::DeviceSample;
use proteus_telemetry::{Phase, TelemetryRuntime};
// Re-exported so downstream code can configure the telemetry plane and
// read its summary without depending on proteus-telemetry directly.
pub use proteus_telemetry::{TelemetryConfig, TelemetrySummary};
use proteus_trace::{DropReason, EventKind, NullSink, TraceEvent, TraceSink};
// Re-exported so downstream code can name replan causes without depending
// on proteus-trace directly.
pub use proteus_trace::ReplanCause;
use proteus_workloads::dist::standard_normal;
use proteus_workloads::QueryArrival;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::allocation::{AllocContext, AllocationPlan};
use crate::batching::{BatchDecision, BatchPolicy};
use crate::router::Router;
use crate::schedulers::Allocator;
use crate::worker::{Worker, WorkerState};
use crate::{DemandEstimator, FamilyMap, Query, QueryId};

/// Configuration of a serving run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The heterogeneous cluster.
    pub cluster: Cluster,
    /// Registered model variants.
    pub zoo: ModelZoo,
    /// SLO assignment policy (§6.1.2; multiplier sweep in Fig. 8).
    pub slo: SloPolicy,
    /// Resource Manager invocation period in seconds (paper: 30 s).
    pub realloc_period_secs: f64,
    /// Monitoring daemon tick in seconds.
    pub monitor_period_secs: f64,
    /// Burst trigger: instantaneous demand above this multiple of the
    /// demand the current plan was built for forces an immediate
    /// re-allocation (the monitoring daemon's "burst of requests" call to
    /// the controller, §3).
    pub burst_threshold: f64,
    /// Minimum spacing between burst-triggered re-allocations, seconds.
    pub burst_cooldown_secs: f64,
    /// Headroom β applied to observed demand before planning (artifact
    /// default 1.05).
    pub demand_headroom: f64,
    /// Per-worker queue capacity.
    pub queue_cap: usize,
    /// Fixed component of the model-swap delay, seconds.
    pub load_base_secs: f64,
    /// Swap delay per GiB of model weights, seconds.
    pub load_secs_per_gib: f64,
    /// Coefficient of variation of batch-latency jitter (0 = deterministic
    /// profiled latencies, like the paper's simulator).
    pub latency_noise_cv: f64,
    /// Extra uniform random container-startup delay added to model swaps,
    /// seconds (cluster realism; 0 in pure simulation).
    pub startup_noise_secs: f64,
    /// RNG seed for all execution noise.
    pub seed: u64,
    /// Run the independent plan auditor after every solver-backed replan
    /// and check DES invariants at end of run, even in release builds
    /// (debug builds always audit). Violations are counted in
    /// [`RunOutcome::audit_violations`] and reported to the trace stream.
    pub audit: bool,
    /// Demand used for the initial (t = 0) allocation; defaults to the
    /// trace's mean per-family rate.
    pub provision_demand: Option<FamilyMap<f64>>,
    /// Seconds of drain time after the last arrival before metrics close.
    pub drain_secs: f64,
    /// §7 extension: hardware scaling working *in tandem* with accuracy
    /// scaling — extra devices can be provisioned (slowly) while accuracy
    /// scaling absorbs the burst. `None` = fixed-size cluster (the paper's
    /// main setting).
    pub elastic: Option<ElasticScaling>,
    /// Deterministic fault-injection schedule (device crashes, recoveries,
    /// straggler windows, load-failure probability). Empty by default: the
    /// fault-free event stream is bit-identical to a build without this
    /// field.
    pub faults: FaultSchedule,
    /// Live telemetry plane (windowed metrics, Prometheus exposition,
    /// burn-rate alerts, `--live` dashboard). `None` (the default) keeps
    /// it entirely off: every hook site reduces to one untaken branch and
    /// the event stream is byte-identical to a build without this field.
    pub telemetry: Option<TelemetryConfig>,
    /// How long the control plane takes to produce a plan, in *sim* time
    /// (§6.8 reports ~4.2 s MILP solves against a 30 s planning period).
    /// [`SolveLatency::Zero`] (the default) commits plans at the trigger
    /// instant, preserving historical event streams byte-for-byte.
    pub solve_latency: SolveLatency,
}

/// Simulated control-plane latency: the time between a replan trigger and
/// the new plan taking effect, during which the system keeps serving under
/// the old (stale) plan.
///
/// The delay is always derived from *deterministic* inputs — fixed
/// configuration or the solver's own search counters — never from measured
/// wall time, so runs stay byte-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolveLatency {
    /// Plans are solved and applied in the same sim instant (the historical
    /// behaviour; keeps existing fingerprints and golden traces).
    #[default]
    Zero,
    /// Every solve takes exactly this many seconds.
    Fixed(f64),
    /// Cost model calibrated from [`SolveStats`] search counters
    /// (branch-and-bound nodes, simplex pivots): lands near the paper's
    /// ~4.2 s at the fig4 operating point and scales with instance
    /// hardness. Allocators that expose no solver statistics (the
    /// heuristic baselines) are charged the base cost only.
    Model,
}

/// Base seconds of every modeled solve: problem build + solver startup.
/// Calibrated with the per-node/per-pivot rates so the fig4 operating
/// point (~8.6 nodes, ~325 pivots per solve) lands near the paper's
/// reported ~4.2 s MILP solve time (§6.8).
const SOLVE_MODEL_BASE_SECS: f64 = 3.0;
/// Modeled seconds per branch-and-bound node explored.
const SOLVE_MODEL_SECS_PER_NODE: f64 = 0.15;
/// Modeled seconds per simplex pivot.
const SOLVE_MODEL_SECS_PER_PIVOT: f64 = 1.0e-3;
/// Ceiling on a modeled solve, seconds (a solve longer than the planning
/// period would starve the control loop entirely).
const SOLVE_MODEL_MAX_SECS: f64 = 20.0;

impl SolveLatency {
    /// The simulated solve duration, or `None` for the zero-latency
    /// (synchronous-commit) mode. `stats` is the just-finished solve's
    /// search counters, when the allocator is solver-backed.
    fn delay(self, stats: Option<&SolveStats>) -> Option<SimTime> {
        match self {
            SolveLatency::Zero => None,
            SolveLatency::Fixed(secs) => Some(SimTime::from_secs_f64(secs.max(1e-9))),
            SolveLatency::Model => {
                let secs = match stats {
                    Some(s) => (SOLVE_MODEL_BASE_SECS
                        + SOLVE_MODEL_SECS_PER_NODE * s.nodes as f64
                        + SOLVE_MODEL_SECS_PER_PIVOT * s.simplex_iterations as f64)
                        .min(SOLVE_MODEL_MAX_SECS),
                    None => SOLVE_MODEL_BASE_SECS,
                };
                Some(SimTime::from_secs_f64(secs))
            }
        }
    }
}

impl std::str::FromStr for SolveLatency {
    type Err = String;

    /// Parses `zero`, `model`, or `fixed:<secs>`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "zero" => Ok(SolveLatency::Zero),
            "model" => Ok(SolveLatency::Model),
            _ => match s.strip_prefix("fixed:") {
                Some(secs) => {
                    let secs: f64 = secs
                        .parse()
                        .map_err(|_| format!("bad fixed solve latency: {s:?}"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(format!("fixed solve latency must be positive, got {secs}"));
                    }
                    if SimTime::checked_from_secs_f64(secs).is_none() {
                        return Err(format!(
                            "fixed solve latency {secs} s is beyond the simulated time range"
                        ));
                    }
                    Ok(SolveLatency::Fixed(secs))
                }
                None => Err(format!(
                    "unknown solve latency {s:?} (expected zero, model, or fixed:<secs>)"
                )),
            },
        }
    }
}

impl std::fmt::Display for SolveLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveLatency::Zero => write!(f, "zero"),
            SolveLatency::Fixed(secs) => write!(f, "fixed:{secs}"),
            SolveLatency::Model => write!(f, "model"),
        }
    }
}

/// Configuration of the §7 hardware-scaling tandem extension.
///
/// When a re-allocation has to shrink demand (the cluster is saturated even
/// at minimum accuracy) the controller orders additional V100 workers;
/// they come online after `provision_delay_secs` (server start-up is slow —
/// which is exactly why the paper argues accuracy scaling is the right tool
/// for the transient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticScaling {
    /// Time from ordering a device to it serving, in seconds.
    pub provision_delay_secs: f64,
    /// Upper bound on extra devices that may be added over the run.
    pub max_extra_devices: u32,
    /// Order more hardware when the plan's demand shrink factor exceeds
    /// this threshold (1.0 = any shrink triggers provisioning).
    pub shrink_trigger: f64,
}

impl Default for ElasticScaling {
    fn default() -> Self {
        Self {
            provision_delay_secs: 60.0,
            max_extra_devices: 8,
            shrink_trigger: 1.02,
        }
    }
}

impl SystemConfig {
    /// The paper's evaluation setup: 20 CPU + 10 GTX 1080 Ti + 10 V100
    /// workers, the full Table 3 zoo, 2× SLOs, 30 s re-allocation.
    pub fn paper_testbed() -> Self {
        Self {
            cluster: Cluster::paper_testbed(),
            zoo: ModelZoo::paper_table3(),
            slo: SloPolicy::default(),
            realloc_period_secs: 30.0,
            monitor_period_secs: 1.0,
            burst_threshold: 1.15,
            burst_cooldown_secs: 3.0,
            demand_headroom: 1.15,
            queue_cap: 256,
            load_base_secs: 0.5,
            load_secs_per_gib: 0.5,
            latency_noise_cv: 0.0,
            startup_noise_secs: 0.0,
            seed: 0,
            audit: false,
            provision_demand: None,
            drain_secs: 5.0,
            elastic: None,
            faults: FaultSchedule::default(),
            telemetry: None,
            solve_latency: SolveLatency::Zero,
        }
    }

    /// A small 9-device setup for fast tests — just enough devices that
    /// every one of the nine applications can keep a host.
    pub fn small() -> Self {
        Self {
            cluster: Cluster::with_counts(5, 2, 2),
            ..Self::paper_testbed()
        }
    }

    /// Adds cluster-like execution noise (latency jitter and container
    /// startup delays), as used by the `sim_vs_cluster` comparison.
    pub fn with_cluster_noise(mut self, cv: f64, startup_secs: f64) -> Self {
        self.latency_noise_cv = cv;
        self.startup_noise_secs = startup_secs;
        self
    }
}

/// The result of one serving run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-query metrics, bucketed at one second.
    pub metrics: MetricsCollector,
    /// How many times the Resource Manager produced a new plan (including
    /// the initial allocation). Under nonzero [`SolveLatency`] this counts
    /// *committed* plans only; discarded in-flight solves are in
    /// [`RunOutcome::plans_discarded`].
    pub reallocations: u32,
    /// How many of those were burst-triggered rather than periodic.
    pub burst_reallocations: u32,
    /// In-flight plans discarded before commit (a device failed or
    /// recovered mid-solve, invalidating the liveness set the solve ran
    /// against). Always 0 under [`SolveLatency::Zero`].
    pub plans_discarded: u32,
    /// Replan triggers folded into an already-running solve (or into a
    /// same-instant earlier trigger) instead of starting their own.
    pub replans_coalesced: u32,
    /// Wall-clock seconds spent inside the allocator (§6.8 overhead).
    pub allocator_wall_secs: f64,
    /// MILP solver statistics accumulated over every re-allocation (nodes,
    /// pivots, warm-start hits, wall time). Zero when the allocator is not
    /// solver-backed (the heuristic baselines).
    pub solver_stats: SolveStats,
    /// Re-allocations where demand had to be shrunk for feasibility.
    pub shrunk_plans: u32,
    /// Devices added by the §7 hardware-scaling tandem extension.
    pub provisioned_devices: u32,
    /// Per-device execution statistics (indexed by device id).
    pub device_stats: Vec<DeviceStats>,
    /// One record per Resource Manager invocation, in time order.
    pub replan_log: Vec<ReplanRecord>,
    /// The plan in force when the run ended.
    pub final_plan: AllocationPlan,
    /// Times the independent plan auditor ran (0 when auditing was off:
    /// release build without [`SystemConfig::audit`]).
    pub plan_audits: u32,
    /// Total constraint violations across plan audits and end-of-run DES
    /// invariant checks. Always 0 for a correct solver and simulator.
    pub audit_violations: u32,
    /// Hot-path execution counters (event volume, queue high-water mark,
    /// allocation reuse). Purely observational: none of these feed back
    /// into serving decisions.
    pub hot_stats: HotPathStats,
    /// End-of-run telemetry summary (windows emitted, alert lifetimes,
    /// peak burn rate). `None` when [`SystemConfig::telemetry`] was off.
    pub telemetry: Option<TelemetrySummary>,
}

/// Observational counters from the serving loop's hot path, reported in
/// `proteus-benchmark`'s per-layer ledger and pinned for the fig4 runs by
/// the `proteus-cli` `fingerprints` test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Events the DES kernel delivered over the run.
    pub events_delivered: u64,
    /// High-water mark of pending (live) events in the kernel queue.
    pub peak_event_queue: u64,
    /// Events the kernel delivered earlier than its clock. Always 0 for a
    /// correct event queue; counted in every build, unlike the audit,
    /// which folds it into [`RunOutcome::audit_violations`] only when
    /// auditing is on.
    pub time_regressions: u64,
    /// Batch buffers taken from the reuse pool instead of allocated.
    pub batch_buffers_reused: u64,
    /// Batch buffers that had to be freshly allocated.
    pub batch_buffers_allocated: u64,
}

/// One Resource Manager invocation: what triggered it and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanRecord {
    /// When the controller was invoked (the demand snapshot instant).
    pub at: SimTime,
    /// When the plan took effect. Equal to [`at`](Self::at) under
    /// [`SolveLatency::Zero`]; later by the modeled solve window otherwise.
    pub committed_at: SimTime,
    /// What prompted the invocation.
    pub cause: ReplanCause,
    /// Wall-clock seconds inside the allocator (stats only — never feeds
    /// back into sim behaviour).
    pub wall_secs: f64,
    /// Modeled control-plane latency in *sim* seconds (0 under
    /// [`SolveLatency::Zero`]).
    pub solve_secs: f64,
    /// Devices whose variant assignment changed under the new plan.
    pub changed: u32,
    /// Demand shrink factor the plan applied for feasibility (1.0 = none).
    pub shrink: f64,
    /// The raw observed per-family demand at the trigger instant (the
    /// burst detector's baseline).
    pub observed: FamilyMap<f64>,
    /// The headroom-scaled demand the allocator actually solved for —
    /// what the plan auditor checks the plan against.
    pub target: FamilyMap<f64>,
}

/// Execution statistics of one worker device over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    /// Total time spent executing batches.
    pub busy: SimTime,
    /// Number of batches executed.
    pub batches: u64,
    /// Number of queries served (in any batch).
    pub queries: u64,
    /// Total time the device was online (alive). Elastic devices that join
    /// mid-run and crashed devices accrue less than the full run span.
    pub online: SimTime,
}

impl DeviceStats {
    /// Mean batch size, or 0.0 if the device never executed.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }

    /// Fraction of the device's *online* time spent executing.
    ///
    /// `span` is the fallback denominator for stats built outside a run
    /// (where [`DeviceStats::online`] was never accumulated); whenever
    /// online time is recorded it is the denominator, so devices that
    /// joined mid-run or spent time down are not under-reported.
    pub fn utilization(&self, span: SimTime) -> f64 {
        let denom = if self.online > SimTime::ZERO {
            self.online
        } else {
            span
        };
        if denom == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / denom.as_secs_f64()
        }
    }
}

/// The Proteus serving system (or a baseline, depending on the injected
/// allocator and batching policy).
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug)]
pub struct ServingSystem {
    config: SystemConfig,
    store: ProfileStore,
    allocator: Box<dyn Allocator>,
    batching: Box<dyn BatchPolicy>,
}

#[derive(Debug)]
enum Event {
    NextArrival(usize),
    WorkerTimer(u32),
    /// A batch finished executing. The batch's queries are not carried in
    /// the event: the per-device [`InFlight`] shadow owns them, so the
    /// event stays small (cheap heap traffic) and forming a batch costs no
    /// clone.
    BatchDone {
        device: u32,
        batch: u64,
        accuracy: f64,
    },
    LoadDone {
        device: u32,
        generation: u64,
    },
    MonitorTick,
    Reallocate,
    /// The control plane finished a solve that began `δ` ago (nonzero
    /// [`SolveLatency`] only). The id rejects completions of solves that
    /// were discarded mid-window.
    SolveComplete {
        id: u64,
    },
    /// A staged (background) variant load finished: the worker kept
    /// serving its old variant for the whole window and switches now.
    /// Generation-tagged like [`Event::LoadDone`] so a crash or a newer
    /// plan invalidates it.
    StagedLoadDone {
        device: u32,
        generation: u64,
    },
    /// §7 tandem extension: an ordered device comes online.
    ProvisionReady(proteus_profiler::DeviceType),
    /// One-shot re-allocation after a provisioning batch lands (scheduled
    /// behind the last same-instant [`Event::ProvisionReady`]).
    ProvisionedRealloc,
    /// An injected fault from the configured [`FaultSchedule`].
    Fault(FaultKind),
}

impl ServingSystem {
    /// Creates a system with the given allocator and per-worker batching
    /// policy prototype.
    pub fn new(
        config: SystemConfig,
        allocator: Box<dyn Allocator>,
        batching: Box<dyn BatchPolicy>,
    ) -> Self {
        let store = ProfileStore::build(&config.zoo, config.slo);
        Self {
            config,
            store,
            allocator,
            batching,
        }
    }

    /// The profile store the system operates on.
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// The allocator's report name.
    pub fn allocator_name(&self) -> &'static str {
        self.allocator.name()
    }

    /// Replays `arrivals` (sorted by time) through the system.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by arrival time.
    pub fn run(&mut self, arrivals: &[QueryArrival]) -> RunOutcome {
        self.run_traced(arrivals, &mut NullSink)
    }

    /// Like [`run`](Self::run), but records a structured flight-recorder
    /// event stream into `trace` as the run progresses.
    ///
    /// With a disabled sink every instrumentation site reduces to one
    /// untaken branch, so `run` (which passes [`NullSink`]) pays nothing.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by arrival time.
    pub fn run_traced(
        &mut self,
        arrivals: &[QueryArrival],
        trace: &mut dyn TraceSink,
    ) -> RunOutcome {
        assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrivals must be sorted by time"
        );
        let last_at = arrivals.last().map_or(SimTime::ZERO, |a| a.at);
        let horizon = last_at + SimTime::from_secs_f64(self.config.drain_secs);

        let provision = self
            .config
            .provision_demand
            .unwrap_or_else(|| mean_demand(arrivals));

        let n = self.config.cluster.len();
        let mut engine = Engine {
            config: &self.config,
            store: &self.store,
            allocator: self.allocator.as_mut(),
            arrivals,
            horizon,
            cluster: self.config.cluster.clone(),
            devices: Vec::with_capacity(n),
            slo_by_family: FamilyMap::from_fn(|f| SimTime::from_millis_f64(self.store.slo_ms(f))),
            routers: Router::from_plan(&AllocationPlan::empty(n)),
            plan: AllocationPlan::empty(n),
            estimator: DemandEstimator::new(
                SimTime::from_secs_f64(self.config.monitor_period_secs),
                0.4,
            ),
            rng: StdRng::seed_from_u64(self.config.seed),
            // Dedicated stream: fault draws must not perturb the execution
            // noise sequence, so a fault-free schedule replays identically.
            fault_rng: StdRng::seed_from_u64(self.config.seed ^ 0x00c0_ffee_fa17_0000),
            last_realloc: SimTime::ZERO,
            planned_for: FamilyMap::default(),
            reallocations: 0,
            burst_reallocations: 0,
            allocator_wall_secs: 0.0,
            solver_stats: SolveStats::default(),
            shrunk_plans: 0,
            batching_proto: self.batching.clone_box(),
            extra_ordered: 0,
            provisioned: 0,
            provision_realloc_at: None,
            retries: BTreeMap::new(),
            down: Vec::new(),
            next_batch: 0,
            batch_pool: Vec::new(),
            scratch: Vec::new(),
            pool_reused: 0,
            pool_alloc: 0,
            replan_log: Vec::new(),
            pending_solve: None,
            queued_cause: None,
            next_solve_id: 0,
            last_solve_key: None,
            liveness_epoch: 0,
            plans_discarded: 0,
            replans_coalesced: 0,
            plan_audits: 0,
            audit_violations: 0,
            obs: Observers {
                metrics: MetricsCollector::new(SimTime::from_secs(1)),
                trace_on: trace.enabled(),
                trace,
                telemetry: self
                    .config
                    .telemetry
                    .clone()
                    .map(|cfg| Box::new(TelemetryRuntime::new(cfg))),
                phase_sample_ctr: [0; Phase::COUNT],
            },
        };
        for &spec in self.config.cluster.iter() {
            engine.add_device(spec, SimTime::ZERO);
        }

        let mut sim: Simulation<Event> = Simulation::new();
        // Initial allocation: models are pre-loaded before the trace starts.
        let initial = engine.run_allocator(SimTime::ZERO, ReplanCause::Initial, provision);
        engine.commit_plan(initial, SimTime::ZERO, &mut sim);
        // Injected faults drive ordinary sim events; anything scheduled
        // past the horizon can no longer affect metrics and is skipped.
        for fault in &self.config.faults.events {
            if fault.at <= horizon {
                sim.schedule(fault.at, Event::Fault(fault.kind));
            }
        }
        if !arrivals.is_empty() {
            sim.schedule(arrivals[0].at, Event::NextArrival(0));
        }
        let monitor = SimTime::from_secs_f64(self.config.monitor_period_secs);
        if monitor <= horizon {
            sim.schedule(monitor, Event::MonitorTick);
        }
        if !engine.allocator.is_static() && !engine.allocator.on_critical_path() {
            let period = SimTime::from_secs_f64(self.config.realloc_period_secs);
            if period <= horizon {
                sim.schedule(period, Event::Reallocate);
            }
        }
        sim.run(&mut engine);

        // Account anything still queued (nothing should be, since every
        // policy eventually executes or drops, but stay safe), and close
        // every still-open online window.
        for d in 0..engine.devices.len() {
            engine.drop_queue(d, horizon, DropReason::Drained);
            engine.devices[d].close_online(horizon);
        }

        // End-of-run DES invariants (checked whenever auditing is on):
        // 1. event-time monotonicity — the kernel counts any regression;
        // 2. query conservation — every arrival reached exactly one
        //    terminal outcome (served or dropped; nothing in flight after
        //    the drain).
        if cfg!(debug_assertions) || self.config.audit {
            if sim.time_regressions() > 0 {
                engine.audit_violations += sim.time_regressions() as u32;
            }
            let summary = engine.obs.metrics.summary();
            let accounted = summary.total_served + summary.total_dropped;
            if summary.total_arrived != arrivals.len() as u64 || accounted != summary.total_arrived
            {
                engine.audit_violations += 1;
                debug_assert!(
                    false,
                    "query conservation violated: {} arrivals, {} recorded, \
                     {} served + {} dropped",
                    arrivals.len(),
                    summary.total_arrived,
                    summary.total_served,
                    summary.total_dropped
                );
            }
        }

        let telemetry = engine.obs.finish(horizon, &engine.devices);
        engine.obs.trace.flush();
        RunOutcome {
            metrics: engine.obs.metrics,
            reallocations: engine.reallocations,
            burst_reallocations: engine.burst_reallocations,
            plans_discarded: engine.plans_discarded,
            replans_coalesced: engine.replans_coalesced,
            allocator_wall_secs: engine.allocator_wall_secs,
            solver_stats: engine.solver_stats,
            shrunk_plans: engine.shrunk_plans,
            provisioned_devices: engine.provisioned,
            device_stats: engine.devices.iter().map(|d| d.stats).collect(),
            replan_log: engine.replan_log,
            final_plan: engine.plan,
            plan_audits: engine.plan_audits,
            audit_violations: engine.audit_violations,
            hot_stats: HotPathStats {
                events_delivered: sim.delivered(),
                peak_event_queue: sim.peak_pending() as u64,
                time_regressions: sim.time_regressions(),
                batch_buffers_reused: engine.pool_reused,
                batch_buffers_allocated: engine.pool_alloc,
            },
            telemetry,
        }
    }
}

/// Retry budget per query after a device failure: a query that loses its
/// host this many times is dropped as [`DropReason::DeviceFailed`] instead
/// of bouncing through the cluster forever.
const MAX_QUERY_RETRIES: u32 = 2;

/// Attempts per model load before the controller gives up on the placement
/// (the device then serves nothing until the next replan retargets it).
const MAX_LOAD_ATTEMPTS: u32 = 3;

/// Cap on the load-retry backoff exponent (delay × 2^attempt, at most 2^3).
const LOAD_BACKOFF_CAP: u32 = 3;

/// A solved-but-not-yet-committed plan: the control plane is inside its
/// modeled solve window and the system is still serving under the old plan.
#[derive(Debug)]
struct PendingSolve {
    /// Matches [`Event::SolveComplete`]; a discarded solve's completion
    /// event finds a different (or no) pending id and is ignored.
    id: u64,
    /// The trigger instant (when demand was snapshotted).
    started: SimTime,
    cause: ReplanCause,
    plan: AllocationPlan,
    /// Headroom-scaled demand the allocator solved for.
    demand: FamilyMap<f64>,
    /// Raw observed demand at the trigger (pre-headroom).
    observed: FamilyMap<f64>,
    /// Real allocator wall time (stats only).
    wall_secs: f64,
}

/// Shadow copy of an executing batch, kept so a device crash can salvage
/// the in-flight queries (the DES kernel cancels by key and does not hand
/// the payload back).
#[derive(Debug)]
struct InFlight {
    key: EventKey,
    batch: u64,
    started: SimTime,
    done_at: SimTime,
    queries: Vec<Query>,
}

/// Mean per-family arrival rate of a trace, in QPS.
pub fn mean_demand(arrivals: &[QueryArrival]) -> FamilyMap<f64> {
    let mut counts = FamilyMap::<f64>::default();
    for a in arrivals {
        counts[a.family] += 1.0;
    }
    let secs = arrivals.last().map_or(1.0, |a| a.at.as_secs_f64()).max(1.0);
    counts.scaled(1.0 / secs)
}

/// One worker device and everything the engine tracks about it. The
/// engine keeps one record per device, indexed by device id; the §7
/// tandem extension appends a record for every provisioned device.
struct Device<'a> {
    worker: Worker,
    /// Profile of the loaded variant, refreshed whenever the variant
    /// changes — the batching path reads this instead of hashing
    /// `(variant, device type)` into the store on every decision.
    profile: Option<&'a Profile>,
    /// Precomputed latency table for integral batch costs, rebuilt
    /// alongside [`profile`](Self::profile) — see
    /// [`BatchContext::lat_table`](crate::batching::BatchContext::lat_table).
    lat_table: Vec<SimTime>,
    /// Execution statistics, reported as [`RunOutcome::device_stats`].
    stats: DeviceStats,
    /// Shadow of the executing batch (crash salvage).
    inflight: Option<InFlight>,
    /// Straggler latency multiplier (1.0 = nominal).
    slowdown: f64,
    /// When the device last came online; `None` while it is down.
    /// Accumulated into [`DeviceStats::online`] on crash and at end of run.
    online_since: Option<SimTime>,
    /// Consecutive failed load attempts.
    load_attempts: u32,
    /// Staged variant: the worker keeps serving its current variant while
    /// this one "loads in the background"; swapped in by
    /// [`Event::StagedLoadDone`].
    staged_target: Option<VariantId>,
}

impl<'a> Device<'a> {
    /// Retargets the worker and refreshes its cached profile — the only
    /// place a worker's variant may change, so the cache can never go
    /// stale.
    fn set_variant(&mut self, variant: Option<VariantId>, store: &'a ProfileStore) {
        self.worker.set_variant(variant);
        self.profile = variant.and_then(|v| store.profile(v, self.worker.spec().device_type));
        // Tabulate batch latencies at every integral cost the policy can
        // ask about: sums up to max_batch queries plus one estimated next
        // arrival. Entry k is bit-identical to the arithmetic path's answer
        // for a unit-cost batch totalling k.
        self.lat_table = match self.profile {
            Some(p) => (0..=p.max_batch() as usize + 1)
                .map(|k| SimTime::from_millis_f64(p.latency_for_cost((k as f64).max(1e-9))))
                .collect(),
            None => Vec::new(),
        };
    }

    /// Closes the open online window, if any, at `now`.
    fn close_online(&mut self, now: SimTime) {
        if let Some(since) = self.online_since.take() {
            self.stats.online += now.saturating_sub(since);
        }
    }

    /// Snapshot for the telemetry registry (cumulative busy/batch/query
    /// counters; the registry differences them per window).
    fn sample(&self) -> DeviceSample {
        DeviceSample {
            queue_depth: self.worker.queue_len() as u32,
            up: self.worker.is_up(),
            busy: self.stats.busy,
            batches: self.stats.batches,
            queries: self.stats.queries,
        }
    }
}

/// The engine's one observation fan-out: every arrival, serve and drop is
/// reported here once and forwarded to the metrics collector, the
/// telemetry plane and the trace sink.
struct Observers<'a> {
    metrics: MetricsCollector,
    /// Flight-recorder sink; [`NullSink`] when tracing is off.
    trace: &'a mut dyn TraceSink,
    /// Cached `trace.enabled()`: [`emit`](Self::emit) builds no event when
    /// it is off, so a disabled sink costs one untaken branch per site.
    trace_on: bool,
    /// The live telemetry plane; `None` (the default) costs one untaken
    /// branch per hook, like a disabled trace sink. Boxed so the engine
    /// does not carry the registry's footprint inline.
    telemetry: Option<Box<TelemetryRuntime>>,
    /// Per-phase invocation counters driving sampled self-profiling
    /// (see [`phase_start`](Self::phase_start)). Untouched when
    /// telemetry is off.
    phase_sample_ctr: [u32; Phase::COUNT],
}

impl Observers<'_> {
    /// Records the trace event `kind` builds; `kind` runs only when
    /// tracing is on.
    #[inline]
    fn emit(&mut self, at: SimTime, kind: impl FnOnce() -> EventKind) {
        if self.trace_on {
            self.trace.record(&TraceEvent { at, kind: kind() });
        }
    }

    /// Records an arrival.
    fn arrived(&mut self, now: SimTime, q: &Query) {
        self.metrics.record_arrival(now, q.family);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_arrival(q.family);
        }
        self.emit(now, || EventKind::Arrived {
            query: q.id.0,
            family: q.family,
        });
    }

    /// Records a served query under plan `epoch`; returns whether it met
    /// its deadline.
    fn served(&mut self, now: SimTime, q: &Query, accuracy: f64, epoch: u64) -> bool {
        let on_time = now <= q.deadline;
        let latency = now.saturating_sub(q.arrived);
        self.metrics
            .record_served_latency(now, q.family, accuracy, on_time, latency);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_served(q.id.0, q.family, accuracy, on_time, latency);
        }
        self.emit(now, || {
            let query = q.id.0;
            if on_time {
                EventKind::ServedOnTime {
                    query,
                    latency,
                    epoch,
                }
            } else {
                EventKind::ServedLate {
                    query,
                    latency,
                    epoch,
                }
            }
        });
        on_time
    }

    /// Records a dropped query.
    fn dropped(&mut self, now: SimTime, q: &Query, reason: DropReason) {
        self.metrics.record_dropped(now, q.family);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_dropped(q.family);
        }
        self.emit(now, || EventKind::Dropped {
            query: q.id.0,
            reason,
        });
    }

    /// Starts a control-plane self-profiling timer — `None` (free) when
    /// the telemetry plane is off.
    ///
    /// The invocation is always counted; the clock is only read for one
    /// in `2^sample_log2()` invocations of the hot phases (route, batch
    /// decide), since a per-query `Instant::now` pair would cost more
    /// than the phases it measures. [`phase_end`](Self::phase_end) scales
    /// the sampled duration back up.
    #[inline]
    fn phase_start(&mut self, phase: Phase) -> Option<std::time::Instant> {
        let t = self.telemetry.as_deref_mut()?;
        t.on_phase_call(phase);
        let ctr = &mut self.phase_sample_ctr[phase.index()];
        *ctr = ctr.wrapping_add(1);
        if *ctr & ((1u32 << phase.sample_log2()) - 1) == 0 {
            // lint:allow(wall-clock) — control-plane self-profiling for the
            // telemetry plane; durations are reported, never fed back into
            // sim logic, and only measured when telemetry is on.
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Closes a [`phase_start`](Self::phase_start) timer into the registry.
    #[inline]
    fn phase_end(&mut self, phase: Phase, t0: Option<std::time::Instant>) {
        if let (Some(t), Some(t0)) = (self.telemetry.as_deref_mut(), t0) {
            t.on_phase_nanos(
                phase,
                (t0.elapsed().as_nanos() as u64) << phase.sample_log2(),
            );
        }
    }

    /// Drives the telemetry plane on the monitoring cadence: the registry
    /// seals a step, the burn engine scans it, and any alert transitions
    /// become first-class trace events.
    fn tick(&mut self, now: SimTime, devices: &[Device<'_>]) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let samples: Vec<_> = devices.iter().map(Device::sample).collect();
        for tr in t.tick(now, &samples) {
            self.emit(tr.at, || {
                if tr.fired {
                    EventKind::AlertFired {
                        scope: tr.scope,
                        severity: tr.severity,
                        burn: tr.burn,
                        long_secs: tr.long_secs,
                        short_secs: tr.short_secs,
                    }
                } else {
                    EventKind::AlertResolved {
                        scope: tr.scope,
                        severity: tr.severity,
                        burn: tr.burn,
                        long_secs: tr.long_secs,
                        short_secs: tr.short_secs,
                    }
                }
            });
        }
    }

    /// Closes the telemetry plane: seals the tail, emits the last window,
    /// flushes the exposition file, and returns the summary.
    fn finish(&mut self, now: SimTime, devices: &[Device<'_>]) -> Option<TelemetrySummary> {
        let mut t = self.telemetry.take()?;
        let samples: Vec<_> = devices.iter().map(Device::sample).collect();
        Some(t.finish(now, &samples))
    }
}

/// Where a query being placed on a worker comes from.
#[derive(Clone, Copy)]
enum Placement {
    /// A fresh arrival; only these routes are self-profiled as
    /// [`Phase::Route`].
    Arrival,
    /// Displaced by a plan that changed its device's family.
    Displaced,
    /// Salvaged from crashed device `from`, on retry `attempt`.
    Retry { from: DeviceId, attempt: u32 },
}

struct Engine<'a> {
    config: &'a SystemConfig,
    store: &'a ProfileStore,
    allocator: &'a mut dyn Allocator,
    arrivals: &'a [QueryArrival],
    horizon: SimTime,
    /// The (possibly growing, with the §7 tandem extension) cluster.
    cluster: Cluster,
    /// One record per device, indexed by device id.
    devices: Vec<Device<'a>>,
    /// Per-family SLO spans, precomputed once so the arrival path does no
    /// store lookup or float conversion per query.
    slo_by_family: FamilyMap<SimTime>,
    routers: Vec<Router>,
    plan: AllocationPlan,
    estimator: DemandEstimator,
    rng: StdRng,
    last_realloc: SimTime,
    /// The (pre-headroom) demand the current plan was built for, per
    /// family — the burst detector's baseline.
    planned_for: FamilyMap<f64>,
    reallocations: u32,
    burst_reallocations: u32,
    allocator_wall_secs: f64,
    solver_stats: SolveStats,
    shrunk_plans: u32,
    batching_proto: Box<dyn BatchPolicy>,
    extra_ordered: u32,
    provisioned: u32,
    provision_realloc_at: Option<SimTime>,
    /// Per-query failure-retry counts (keyed by query id).
    retries: BTreeMap<u64, u32>,
    /// Devices currently down, sorted — the allocation context's mask.
    down: Vec<DeviceId>,
    /// RNG for fault draws (load failures), independent of execution noise.
    fault_rng: StdRng,
    /// Run-unique batch id counter.
    next_batch: u64,
    /// Reuse pool of batch buffers: a completed batch's `Vec<Query>` is
    /// cleared and parked here instead of freed, and the next batch takes
    /// one back instead of allocating.
    batch_pool: Vec<Vec<Query>>,
    /// Scratch buffer for expired-query drops (reused across events).
    scratch: Vec<Query>,
    /// Batch buffers served from the pool / freshly allocated.
    pool_reused: u64,
    pool_alloc: u64,
    replan_log: Vec<ReplanRecord>,
    /// The solve currently in flight, if any (nonzero [`SolveLatency`]).
    pending_solve: Option<PendingSolve>,
    /// Freshest trigger that arrived while a solve was in flight; the
    /// commit path starts one re-solve with refreshed demand for it.
    queued_cause: Option<ReplanCause>,
    /// Monotone id source for [`Event::SolveComplete`] matching.
    next_solve_id: u64,
    /// `(instant, liveness epoch)` of the most recent solve start: a
    /// second trigger at the identical timestamp under the identical
    /// liveness set coalesces instead of double-solving.
    last_solve_key: Option<(SimTime, u64)>,
    /// Bumped whenever the set of usable devices changes (crash, recovery,
    /// provisioned device coming online), so same-instant coalescing never
    /// suppresses a replan that sees a different cluster.
    liveness_epoch: u64,
    /// In-flight plans discarded before commit.
    plans_discarded: u32,
    /// Triggers folded into an already-pending solve or a same-instant
    /// earlier one.
    replans_coalesced: u32,
    /// Times the independent plan auditor ran.
    plan_audits: u32,
    /// Violations found by plan audits (accumulated into the outcome).
    audit_violations: u32,
    /// Metrics, trace and telemetry.
    obs: Observers<'a>,
}

impl Engine<'_> {
    /// Brings a device online with an empty worker: the initial cluster and
    /// every provisioned device are built here.
    fn add_device(&mut self, spec: DeviceSpec, now: SimTime) {
        let policy = self.batching_proto.clone_box();
        self.devices.push(Device {
            worker: Worker::new(spec, policy, self.config.queue_cap),
            profile: None,
            lat_table: Vec::new(),
            stats: DeviceStats::default(),
            inflight: None,
            slowdown: 1.0,
            online_since: Some(now),
            load_attempts: 0,
            staged_target: None,
        });
        self.obs.emit(now, || EventKind::WorkerOnline {
            device: spec.id,
            device_type: spec.device_type,
        });
    }

    /// Drains `device`'s queue, dropping every query for `reason`.
    fn drop_queue(&mut self, device: usize, now: SimTime, reason: DropReason) {
        for q in self.devices[device].worker.drain_queue() {
            self.obs.dropped(now, &q, reason);
        }
    }

    /// Runs the independent plan auditor against the plan just applied.
    ///
    /// Only solver-backed allocators are audited: the auditor re-derives
    /// the MILP's constraint system (Eqs. 1–7), whose capacity and
    /// coverage conventions the heuristic baselines do not follow.
    /// `demand` is the demand handed to the allocator (pre-floor).
    fn audit_applied_plan(&mut self, now: SimTime, demand: &FamilyMap<f64>) {
        if !(cfg!(debug_assertions) || self.config.audit) {
            return;
        }
        if self.allocator.last_solve_stats().is_none() {
            return;
        }
        let ctx = AllocContext {
            cluster: &self.cluster,
            zoo: &self.config.zoo,
            store: self.store,
            down: &self.down,
        };
        let report = crate::allocation::audit::audit_plan(&ctx, demand, &self.plan);
        self.plan_audits += 1;
        self.audit_violations += report.violations.len() as u32;
        self.obs.emit(now, || EventKind::AuditReport {
            violations: report.violations.len() as u32,
            devices_checked: report.devices_checked as u32,
            families_checked: report.families_checked as u32,
        });
        debug_assert!(report.is_clean(), "plan audit failed at {now}: {report}");
    }

    /// Whether `device` can hold both variants' weights at once — the
    /// precondition for a staged (serve-old-while-loading-new) swap.
    fn staged_swap_fits(&self, device: usize, old: VariantId, new: VariantId) -> bool {
        let mem = |v| {
            self.config
                .zoo
                .variant(v)
                .map_or(f64::INFINITY, |s| s.memory_mib())
        };
        mem(old) + mem(new) <= self.devices[device].worker.spec().device_type.memory_mib()
    }

    fn load_delay(&mut self, variant: Option<VariantId>) -> SimTime {
        let Some(v) = variant else {
            return SimTime::ZERO;
        };
        let gib = self
            .config
            .zoo
            .variant(v)
            .map_or(0.0, |s| s.memory_mib() / 1024.0);
        let mut secs = self.config.load_base_secs + self.config.load_secs_per_gib * gib;
        if self.config.startup_noise_secs > 0.0 {
            // lint:allow(wall-clock) — `self.rng` is the run's seed-derived
            // PCG stream, not OS randomness; draws here are reproducible.
            secs += self.config.startup_noise_secs * rand::Rng::random::<f64>(&mut self.rng);
        }
        SimTime::from_secs_f64(secs)
    }

    fn noisy_latency(&mut self, ms: f64) -> SimTime {
        let ms = if self.config.latency_noise_cv > 0.0 {
            let factor =
                (1.0 + self.config.latency_noise_cv * standard_normal(&mut self.rng)).max(0.3);
            ms * factor
        } else {
            ms
        };
        SimTime::from_millis_f64(ms)
    }

    fn cancel_timer(&mut self, device: usize, sim: &mut Simulation<Event>) {
        if let Some(key) = self.devices[device].worker.timer.take() {
            sim.cancel(key);
        }
    }

    /// Takes a batch buffer from the reuse pool (or allocates one).
    fn take_buffer(&mut self) -> Vec<Query> {
        match self.batch_pool.pop() {
            Some(buf) => {
                self.pool_reused += 1;
                buf
            }
            None => {
                self.pool_alloc += 1;
                Vec::new()
            }
        }
    }

    /// Re-evaluates batching on an idle worker.
    fn poke(&mut self, device: usize, now: SimTime, sim: &mut Simulation<Event>) {
        loop {
            let dev = &self.devices[device];
            // A down device executes nothing; its queue was salvaged at
            // crash time and stays empty until recovery.
            if !dev.worker.is_up() || !dev.worker.is_idle() {
                return;
            }
            if dev.worker.queue_len() == 0 {
                self.cancel_timer(device, sim);
                return;
            }
            // The profile cache is refreshed at every retarget and
            // ProfileStore::build profiles every (variant, device type)
            // pair, so only a device hosting no model misses here; a miss
            // with a hosted variant would be a construction bug and takes
            // the same typed drop path instead of panicking.
            let (Some(variant), Some(profile)) = (dev.worker.variant(), dev.profile) else {
                // No model hosted: nothing can serve these queries here.
                self.cancel_timer(device, sim);
                self.drop_queue(device, now, DropReason::NoHost);
                return;
            };
            let decide_t0 = self.obs.phase_start(Phase::BatchDecide);
            let dev = &mut self.devices[device];
            let decision = dev.worker.decide(now, profile, &dev.lat_table);
            self.obs.phase_end(Phase::BatchDecide, decide_t0);
            match decision {
                BatchDecision::Idle => {
                    self.cancel_timer(device, sim);
                    return;
                }
                BatchDecision::DropExpired(n) => {
                    // Reuse one scratch buffer for the whole run instead of
                    // allocating a fresh Vec per expiry sweep.
                    let mut scratch = std::mem::take(&mut self.scratch);
                    self.devices[device].worker.take_front_into(n, &mut scratch);
                    for q in scratch.drain(..) {
                        self.obs.dropped(now, &q, DropReason::Expired);
                    }
                    self.scratch = scratch;
                }
                BatchDecision::Execute(k) => {
                    let mut batch = self.take_buffer();
                    let dev = &mut self.devices[device];
                    let k = k.max(1).min(dev.worker.queue_len() as u32);
                    dev.worker.take_front_into(k as usize, &mut batch);
                    let total_cost: f64 = batch.iter().map(|q| q.cost).sum();
                    // A straggler window stretches execution latency.
                    let nominal = profile.latency_for_cost(total_cost) * dev.slowdown;
                    let until = now + self.noisy_latency(nominal);
                    let stats = &mut self.devices[device].stats;
                    stats.busy += until - now;
                    stats.batches += 1;
                    stats.queries += batch.len() as u64;
                    let batch_id = self.next_batch;
                    self.next_batch += 1;
                    let device_id = DeviceId(device as u32);
                    self.obs.emit(now, || EventKind::BatchFormed {
                        device: device_id,
                        batch: batch_id,
                        queries: batch.iter().map(|q| q.id.0).collect(),
                    });
                    self.obs.emit(now, || EventKind::ExecStarted {
                        device: device_id,
                        batch: batch_id,
                        variant,
                        size: batch.len() as u32,
                        until,
                    });
                    self.devices[device]
                        .worker
                        .set_state(WorkerState::Busy(until));
                    self.cancel_timer(device, sim);
                    let key = sim.schedule(
                        until,
                        Event::BatchDone {
                            device: device as u32,
                            batch: batch_id,
                            accuracy: profile.accuracy(),
                        },
                    );
                    // Shadow the batch so a crash can salvage it.
                    self.devices[device].inflight = Some(InFlight {
                        key,
                        batch: batch_id,
                        started: now,
                        done_at: until,
                        queries: batch,
                    });
                    return;
                }
                BatchDecision::WaitUntil(t) => {
                    // Guard against a policy returning a non-future time.
                    let t = t.max(now + SimTime::from_nanos(1));
                    self.cancel_timer(device, sim);
                    self.devices[device].worker.timer =
                        Some(sim.schedule(t, Event::WorkerTimer(device as u32)));
                    return;
                }
            }
        }
    }

    /// Pokes every device in `devices` once, in id order.
    fn poke_all(&mut self, mut devices: Vec<usize>, now: SimTime, sim: &mut Simulation<Event>) {
        devices.sort_unstable();
        devices.dedup();
        for d in devices {
            self.poke(d, now, sim);
        }
    }

    fn start_load(&mut self, device: usize, now: SimTime, sim: &mut Simulation<Event>) {
        let variant = self.devices[device].worker.variant();
        let delay = self.load_delay(variant);
        self.start_load_with_delay(device, now, delay, sim);
    }

    /// Starts a model-load window of an explicit duration (the duration is
    /// pre-computed when a plan retargets a busy worker, and stretched by
    /// backoff when a load attempt fails).
    fn start_load_with_delay(
        &mut self,
        device: usize,
        now: SimTime,
        delay: SimTime,
        sim: &mut Simulation<Event>,
    ) {
        if !self.devices[device].worker.is_up() {
            return;
        }
        self.cancel_timer(device, sim);
        let worker = &mut self.devices[device].worker;
        if delay == SimTime::ZERO {
            worker.set_state(WorkerState::Idle);
            self.poke(device, now, sim);
            return;
        }
        let variant = worker.variant();
        worker.load_generation += 1;
        let generation = worker.load_generation;
        worker.set_state(WorkerState::Loading(now + delay));
        self.obs.emit(now, || EventKind::ModelLoadStarted {
            device: DeviceId(device as u32),
            variant,
            until: now + delay,
        });
        sim.schedule(
            now + delay,
            Event::LoadDone {
                device: device as u32,
                generation,
            },
        );
    }

    /// Puts a new plan in force, returning how many devices changed
    /// variant assignment.
    fn apply_plan(
        &mut self,
        plan: AllocationPlan,
        now: SimTime,
        sim: &mut Simulation<Event>,
    ) -> u32 {
        let mut displaced: Vec<Query> = Vec::new();
        let mut to_load: Vec<usize> = Vec::new();
        let mut changed = 0u32;
        // A plan computed just before an elastic device came online may be
        // narrower than the worker set; extra workers keep their assignment
        // until the next re-allocation covers them.
        for i in 0..self.devices.len().min(plan.num_devices()) {
            let dev = &mut self.devices[i];
            // Down devices are outside the plan's reach (the solver's device
            // mask placed nothing on them); whatever a scripted allocator
            // says, a dead worker can neither load nor serve.
            if !dev.worker.is_up() {
                continue;
            }
            let new = plan.assignment(DeviceId(i as u32));
            let old = dev.worker.variant();
            // A still-pending staged swap from an older plan: the new plan
            // either confirms it (the background load just continues) or
            // overrides it (cancel; the device keeps serving `old` and the
            // retarget logic below decides what happens next).
            if let Some(staged) = dev.staged_target {
                if new == Some(staged) {
                    continue;
                }
                dev.staged_target = None;
                dev.worker.load_generation += 1;
            }
            if new == old {
                continue;
            }
            changed += 1;
            // Queries of a different family than the new variant cannot stay.
            let family_changed = match (old, new) {
                (Some(o), Some(n)) => o.family != n.family,
                (None, Some(_)) => false,
                (_, None) => true,
            };
            // Staged transition (nonzero solve latency only): a same-family
            // swap where both variants fit in device memory loads the new
            // weights *alongside* the old — the worker keeps serving the
            // old variant for the whole load window, so capacity never
            // dips below both plans' minimum during the swap.
            if self.config.solve_latency != SolveLatency::Zero {
                if let (Some(o), Some(n)) = (old, new) {
                    if o.family == n.family
                        && !matches!(dev.worker.state(), WorkerState::Loading(_))
                        && self.staged_swap_fits(i, o, n)
                    {
                        let delay = self.load_delay(new);
                        let dev = &mut self.devices[i];
                        dev.worker.pending_load = None;
                        dev.worker.load_generation += 1;
                        let generation = dev.worker.load_generation;
                        dev.staged_target = Some(n);
                        dev.load_attempts = 0;
                        sim.schedule(
                            now + delay,
                            Event::StagedLoadDone {
                                device: i as u32,
                                generation,
                            },
                        );
                        continue;
                    }
                }
            }
            let dev = &mut self.devices[i];
            if family_changed {
                displaced.extend(dev.worker.drain_queue());
            }
            dev.set_variant(new, self.store);
            dev.load_attempts = 0;
            if let WorkerState::Busy(_) = dev.worker.state() {
                // Swap after the in-flight batch completes; the real
                // weight-transfer delay for the *new* variant is
                // computed now and charged at batch completion (a
                // zero-marker here would make the swap free).
                let delay = self.load_delay(new);
                self.devices[i].worker.pending_load = Some(delay);
            } else {
                to_load.push(i);
            }
        }
        self.routers = Router::from_plan(&plan);
        self.plan = plan;
        for i in to_load {
            self.start_load(i, now, sim);
        }
        // Re-route displaced queries through the new routers.
        let touched = displaced
            .into_iter()
            .filter_map(|q| self.place(now, q, Placement::Displaced))
            .collect();
        self.poke_all(touched, now, sim);
        changed
    }

    fn route(&mut self, family: proteus_profiler::ModelFamily) -> Option<usize> {
        self.routers[family.index()].route().map(|d| d.0 as usize)
    }

    /// Routes `q` to a worker of its family and enqueues it there,
    /// returning the device on success; a query that cannot be placed is
    /// dropped. A [`Placement::Retry`] is reported as retried right before
    /// its new placement, and dies with its device if no live host exists.
    fn place(&mut self, now: SimTime, q: Query, from: Placement) -> Option<usize> {
        let routed = if let Placement::Arrival = from {
            let route_t0 = self.obs.phase_start(Phase::Route);
            let routed = self.route(q.family);
            self.obs.phase_end(Phase::Route, route_t0);
            routed
        } else {
            self.route(q.family)
        };
        let Some(d) = routed else {
            let reason = match from {
                Placement::Retry { .. } => DropReason::DeviceFailed,
                _ => DropReason::NoHost,
            };
            self.obs.dropped(now, &q, reason);
            return None;
        };
        // Scripted allocators may keep a dead device in their routing
        // tables; the solver path never does.
        if !self.devices[d].worker.is_up() {
            self.obs.dropped(now, &q, DropReason::DeviceFailed);
            return None;
        }
        let query = q.id.0;
        if let Err(q) = self.devices[d].worker.enqueue(q) {
            self.obs.dropped(now, &q, DropReason::QueueFull);
            return None;
        }
        if let Placement::Retry { from, attempt } = from {
            self.obs.emit(now, || EventKind::QueryRetried {
                query,
                from,
                attempt,
            });
        }
        let device = DeviceId(d as u32);
        let dev = &self.devices[d];
        self.obs.emit(now, || EventKind::Routed { query, device });
        self.obs.emit(now, || EventKind::Enqueued {
            query,
            device,
            depth: dev.worker.queue_len() as u32,
            behind: dev.inflight.as_ref().map(|f| f.batch),
        });
        Some(d)
    }

    /// A replan trigger. Coalesces with a same-instant earlier trigger or
    /// an in-flight solve; otherwise starts a solve.
    fn reallocate(&mut self, now: SimTime, cause: ReplanCause, sim: &mut Simulation<Event>) {
        // Same-instant re-entrancy: a DeviceFailure replan fired from the
        // fault handler plus a Periodic tick at the identical timestamp
        // (and identical liveness set) must not double-solve.
        if self.last_solve_key == Some((now, self.liveness_epoch)) {
            self.replans_coalesced += 1;
            return;
        }
        // Mid-solve trigger: fold into one pending re-solve. The commit
        // path starts it with demand refreshed at commit time.
        if self.pending_solve.is_some() {
            self.obs.emit(now, || EventKind::ReplanTriggered { cause });
            self.queued_cause = Some(cause);
            self.replans_coalesced += 1;
            return;
        }
        self.begin_solve(now, cause, sim);
    }

    /// Snapshots demand, runs the allocator, and either commits the plan
    /// in place ([`SolveLatency::Zero`]) or holds it as a [`PendingSolve`]
    /// until the modeled solve window elapses — the system keeps serving
    /// under the old plan for the whole window.
    ///
    /// This function is a determinism-taint sink for proteus-lint: the
    /// `SolveComplete` event scheduled here is sim-visible, so no
    /// nondeterministic value may flow into it.
    fn begin_solve(&mut self, now: SimTime, cause: ReplanCause, sim: &mut Simulation<Event>) {
        // Critical-path allocators (INFaaS) react to the raw last-second
        // rate — they decide per query, with no monitoring-daemon smoothing;
        // the decoupled controller plans on smoothed statistics.
        let observed = if self.allocator.on_critical_path() {
            self.estimator.instantaneous()
        } else {
            self.estimator.for_planning()
        };
        let pending = self.run_allocator(now, cause, observed);
        let stats = self.allocator.last_solve_stats();
        match self.config.solve_latency.delay(stats.as_ref()) {
            None => self.commit_plan(pending, now, sim),
            Some(delta) => {
                self.next_solve_id += 1;
                let until = now.saturating_add(delta);
                self.obs
                    .emit(now, || EventKind::SolveStarted { cause, until });
                if let Some(t) = self.obs.telemetry.as_deref_mut() {
                    t.on_solve_started(now);
                }
                // A window that saturates the clock outlasts the run: its
                // plan never commits.
                if until < SimTime::MAX {
                    sim.schedule(
                        until,
                        Event::SolveComplete {
                            id: self.next_solve_id,
                        },
                    );
                }
                self.pending_solve = Some(pending);
            }
        }
    }

    /// Runs the allocator for `observed` demand plus headroom and books the
    /// solve (trace events, solver statistics, wall time), returning the
    /// plan uncommitted. The [`ReplanCause::Initial`] solve starts from no
    /// previous plan and is not a telemetry reallocation.
    fn run_allocator(
        &mut self,
        now: SimTime,
        cause: ReplanCause,
        observed: FamilyMap<f64>,
    ) -> PendingSolve {
        self.last_solve_key = Some((now, self.liveness_epoch));
        // The burst cooldown anchors at the trigger: while the control
        // plane is (or was just) working on a plan, a burst must not pile
        // a second solve on top.
        self.last_realloc = now;
        let demand = observed.scaled(self.config.demand_headroom);
        self.obs.emit(now, || EventKind::ReplanTriggered { cause });
        let initial = cause == ReplanCause::Initial;
        let ctx = AllocContext {
            cluster: &self.cluster,
            zoo: &self.config.zoo,
            store: self.store,
            down: &self.down,
        };
        let previous = (!initial).then_some(&self.plan);
        // lint:allow(wall-clock) — measures real solver wall time for
        // SolveStats reporting; the result never feeds sim logic (the
        // modeled solve window is built from search counters).
        let start = std::time::Instant::now();
        let plan = self.allocator.allocate(&ctx, &demand, previous, now);
        let wall_secs = start.elapsed().as_secs_f64();
        self.allocator_wall_secs += wall_secs;
        if let Some(t) = self.obs.telemetry.as_deref_mut().filter(|_| !initial) {
            t.on_phase(Phase::Solve, (wall_secs * 1e9) as u64);
            t.on_reallocation();
        }
        if let Some(stats) = self.allocator.last_solve_stats() {
            self.solver_stats += stats;
            self.obs.emit(now, || EventKind::SolveStats {
                nodes: stats.nodes,
                pivots: stats.simplex_iterations,
                warm_starts: stats.warm_starts,
                wall_nanos: stats.wall.as_nanos() as u64,
            });
        }
        PendingSolve {
            id: self.next_solve_id + 1,
            started: now,
            cause,
            plan,
            demand,
            observed,
            wall_secs,
        }
    }

    /// Puts a solved plan in force at `now` and books every counter that
    /// describes a *committed* plan (discarded solves book nothing here).
    fn commit_plan(&mut self, pending: PendingSolve, now: SimTime, sim: &mut Simulation<Event>) {
        let PendingSolve {
            started,
            cause,
            plan,
            demand,
            observed,
            wall_secs,
            ..
        } = pending;
        self.reallocations += 1;
        if cause == ReplanCause::Burst {
            self.burst_reallocations += 1;
        }
        let shrink = plan.shrink();
        if shrink > 1.0 {
            self.shrunk_plans += 1;
        }
        // The burst detector's baseline: what this plan was built for.
        self.planned_for = observed;
        let changed = if cause == ReplanCause::Initial {
            self.preload_plan(plan)
        } else {
            self.order_hardware(&plan, &demand, now, sim);
            let apply_t0 = self.obs.phase_start(Phase::ReplanApply);
            let changed = self.apply_plan(plan, now, sim);
            self.obs.phase_end(Phase::ReplanApply, apply_t0);
            changed
        };
        self.replan_log.push(ReplanRecord {
            at: started,
            committed_at: now,
            cause,
            wall_secs,
            solve_secs: now.saturating_sub(started).as_secs_f64(),
            changed,
            shrink,
            observed,
            target: demand,
        });
        self.obs
            .emit(now, || EventKind::PlanApplied { changed, shrink });
        self.audit_applied_plan(now, &demand);
    }

    /// Puts the initial plan in force. Its models are pre-loaded before
    /// the trace starts, so variants are placed without load delays;
    /// returns how many devices host one.
    fn preload_plan(&mut self, plan: AllocationPlan) -> u32 {
        let mut changed = 0u32;
        for (i, dev) in self.devices.iter_mut().enumerate() {
            let assignment = plan.assignment(DeviceId(i as u32));
            changed += u32::from(assignment.is_some());
            dev.set_variant(assignment, self.store);
            dev.worker.set_state(WorkerState::Idle);
        }
        self.routers = Router::from_plan(&plan);
        self.plan = plan;
        changed
    }

    /// §7 tandem: when even minimum accuracy cannot absorb the demand
    /// (the plan had to shrink), order enough hardware to cover the
    /// deficit; accuracy scaling carries the load until it arrives.
    fn order_hardware(
        &mut self,
        plan: &AllocationPlan,
        demand: &FamilyMap<f64>,
        now: SimTime,
        sim: &mut Simulation<Event>,
    ) {
        let Some(elastic) = self.config.elastic else {
            return;
        };
        if plan.shrink() > elastic.shrink_trigger && self.extra_ordered < elastic.max_extra_devices
        {
            let deficit_qps = demand.total() * (1.0 - 1.0 / plan.shrink());
            let per_device_qps =
                (plan.total_capacity() / self.cluster.len().max(1) as f64).max(1.0);
            let wanted = (deficit_qps / per_device_qps).ceil().max(1.0) as u32;
            let order = wanted.min(elastic.max_extra_devices - self.extra_ordered);
            let ready = now + SimTime::from_secs_f64(elastic.provision_delay_secs);
            // Orders that cannot arrive inside the horizon are never
            // placed, so they must not consume the device budget and
            // block later, deliverable orders.
            if ready <= self.horizon {
                self.extra_ordered += order;
                for _ in 0..order {
                    sim.schedule(
                        ready,
                        Event::ProvisionReady(proteus_profiler::DeviceType::V100),
                    );
                }
            }
        }
    }

    /// Books a solve whose plan will never be applied: it was built
    /// against a device liveness set that no longer exists.
    fn discard(&mut self, now: SimTime, cause: ReplanCause) {
        self.plans_discarded += 1;
        self.obs.emit(now, || EventKind::PlanDiscarded {
            cause,
            reason: proteus_trace::DiscardReason::Liveness,
        });
        if let Some(t) = self.obs.telemetry.as_deref_mut() {
            t.on_solve_resolved(now);
        }
    }

    /// Discards the in-flight solve (if any) because the device liveness
    /// set changed mid-window.
    fn discard_pending_solve(&mut self, now: SimTime) {
        if let Some(p) = self.pending_solve.take() {
            // The liveness-change replan that follows sees the new device
            // set; an older queued cause would only duplicate it.
            self.queued_cause = None;
            self.discard(now, p.cause);
        }
    }

    /// Applies one injected fault from the schedule.
    ///
    /// Out-of-range device indices and redundant transitions (crashing a
    /// dead device, recovering a live one) are no-ops: a random schedule
    /// must never be able to wedge the engine.
    fn handle_fault(&mut self, now: SimTime, kind: FaultKind, sim: &mut Simulation<Event>) {
        let d = kind.device() as usize;
        if d >= self.devices.len() {
            return;
        }
        let id = DeviceId(kind.device());
        match kind {
            FaultKind::DeviceCrash { .. } => {
                if !self.devices[d].worker.is_up() {
                    return;
                }
                self.devices[d].worker.set_up(false);
                self.obs
                    .emit(now, || EventKind::WorkerCrashed { device: id });
                // The liveness set changed: an in-flight plan was built
                // against a cluster that no longer exists. Discard it; the
                // DeviceFailure replan below solves against the new set.
                self.liveness_epoch += 1;
                self.discard_pending_solve(now);
                // Mask the device out of future plans and stop routing to
                // it right now — not at the next replan.
                if let Err(pos) = self.down.binary_search(&id) {
                    self.down.insert(pos, id);
                }
                for router in &mut self.routers {
                    router.remove_target(id);
                }
                self.devices[d].close_online(now);
                self.cancel_timer(d, sim);
                // Any pending or staged load completion is now meaningless.
                let dev = &mut self.devices[d];
                dev.worker.load_generation += 1;
                dev.worker.pending_load = None;
                dev.staged_target = None;
                // Salvage the executing batch (its completion is cancelled
                // and its stats rolled back — it never finished) plus
                // everything still queued.
                let mut salvage: Vec<Query> = Vec::new();
                if let Some(inflight) = dev.inflight.take() {
                    sim.cancel(inflight.key);
                    let stats = &mut dev.stats;
                    stats.busy = stats
                        .busy
                        .saturating_sub(inflight.done_at.saturating_sub(inflight.started));
                    stats.batches = stats.batches.saturating_sub(1);
                    stats.queries = stats.queries.saturating_sub(inflight.queries.len() as u64);
                    salvage.extend(inflight.queries);
                }
                salvage.extend(dev.worker.drain_queue());
                dev.set_variant(None, self.store);
                dev.worker.set_state(WorkerState::Idle);
                self.redispatch(now, id, salvage, sim);
                // The controller replans immediately around the failure.
                if !self.allocator.is_static() {
                    self.reallocate(now, ReplanCause::DeviceFailure, sim);
                }
            }
            FaultKind::DeviceRecover { .. } => {
                if self.devices[d].worker.is_up() {
                    return;
                }
                self.devices[d].worker.set_up(true);
                // A recovery changes the usable device set just like a
                // crash: a plan solved without this device is stale (and a
                // coalesced same-instant trigger would see a different
                // cluster), so the in-flight solve is discarded too.
                self.liveness_epoch += 1;
                self.discard_pending_solve(now);
                // Back empty: no model survives a crash.
                let dev = &mut self.devices[d];
                dev.set_variant(None, self.store);
                dev.worker.set_state(WorkerState::Idle);
                dev.load_attempts = 0;
                dev.online_since = Some(now);
                if let Ok(pos) = self.down.binary_search(&id) {
                    self.down.remove(pos);
                }
                self.obs
                    .emit(now, || EventKind::WorkerRecovered { device: id });
                // Fold the recovered capacity back into service.
                if !self.allocator.is_static() {
                    self.reallocate(now, ReplanCause::DeviceFailure, sim);
                }
            }
            FaultKind::StragglerStart { slowdown, .. } => {
                // Clamp defensively: a sub-1.0 factor would be a speedup.
                let slowdown = slowdown.max(1.0);
                self.devices[d].slowdown = slowdown;
                self.obs.emit(now, || EventKind::StragglerStarted {
                    device: id,
                    slowdown,
                });
            }
            FaultKind::StragglerEnd { .. } => {
                self.devices[d].slowdown = 1.0;
                self.obs
                    .emit(now, || EventKind::StragglerEnded { device: id });
            }
        }
    }

    /// Re-routes queries salvaged from a crashed device.
    ///
    /// Each query carries a retry budget across failures; once it is spent
    /// the query is dropped as [`DropReason::DeviceFailed`] rather than
    /// bouncing around a failing cluster forever.
    fn redispatch(
        &mut self,
        now: SimTime,
        from: DeviceId,
        salvage: Vec<Query>,
        sim: &mut Simulation<Event>,
    ) {
        let mut touched = Vec::new();
        for q in salvage {
            let attempts = self.retries.entry(q.id.0).or_insert(0);
            *attempts += 1;
            let attempt = *attempts;
            if attempt > MAX_QUERY_RETRIES {
                self.obs.dropped(now, &q, DropReason::DeviceFailed);
                continue;
            }
            // The salvaged query's new placement is recorded so offline
            // analysis anchors its wait window on the device that actually
            // serves it, not the crashed one.
            touched.extend(self.place(now, q, Placement::Retry { from, attempt }));
        }
        self.poke_all(touched, now, sim);
    }
}

impl Actor for Engine<'_> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sim: &mut Simulation<Event>) {
        match event {
            Event::NextArrival(i) => {
                let arrival = self.arrivals[i];
                let slo = self.slo_by_family[arrival.family];
                let query =
                    Query::new(QueryId(i as u64), arrival.family, now, slo).with_cost(arrival.cost);
                self.obs.arrived(now, &query);
                self.estimator.record(arrival.family);
                if let Some(d) = self.place(now, query, Placement::Arrival) {
                    self.poke(d, now, sim);
                }
                if let Some(next) = self.arrivals.get(i + 1) {
                    sim.schedule(next.at, Event::NextArrival(i + 1));
                }
            }
            Event::WorkerTimer(d) => {
                let d = d as usize;
                self.devices[d].worker.timer = None;
                self.poke(d, now, sim);
            }
            Event::BatchDone {
                device,
                batch,
                accuracy,
            } => {
                let d = device as usize;
                // A crash cancels the completion event and rolls the batch
                // back; if the cancel raced with an already-popped event,
                // the shadow's id mismatch rejects the stale completion. The
                // shadow owns the batch's queries — the event itself carries
                // none, so scheduling a batch allocates nothing.
                let fl = match self.devices[d].inflight.take() {
                    Some(f) if f.batch == batch => f,
                    other => {
                        self.devices[d].inflight = other;
                        return;
                    }
                };
                self.obs.emit(now, || EventKind::ExecCompleted {
                    device: DeviceId(device),
                    batch,
                });
                let epoch = u64::from(self.reallocations);
                let mut any_late = false;
                for q in &fl.queries {
                    any_late |= !self.obs.served(now, q, accuracy, epoch);
                }
                // Recycle the batch buffer for the next Execute decision.
                let mut queries = fl.queries;
                queries.clear();
                self.batch_pool.push(queries);
                let worker = &mut self.devices[d].worker;
                worker.policy_mut().on_batch_complete(any_late);
                worker.set_state(WorkerState::Idle);
                if let Some(delay) = worker.pending_load.take() {
                    // The swap deferred by `apply_plan`; its delay was
                    // computed there, for the new variant.
                    self.start_load_with_delay(d, now, delay, sim);
                } else {
                    self.poke(d, now, sim);
                }
            }
            Event::LoadDone { device, generation } => {
                let d = device as usize;
                let worker = &self.devices[d].worker;
                // Superseded by a newer plan, or no longer loading.
                if worker.load_generation != generation
                    || !matches!(worker.state(), WorkerState::Loading(_))
                {
                    return;
                }
                // Injected load failure: the weight transfer did not take.
                // Retry with exponential backoff; after the attempt budget
                // the placement is abandoned until the next replan.
                let p = self.config.faults.load_failure_p.clamp(0.0, 1.0);
                if p > 0.0 && rand::Rng::random::<f64>(&mut self.fault_rng) < p {
                    let dev = &mut self.devices[d];
                    dev.load_attempts += 1;
                    let attempt = dev.load_attempts;
                    let variant = dev.worker.variant();
                    self.obs.emit(now, || EventKind::LoadFailed {
                        device: DeviceId(device),
                        variant,
                        attempt,
                    });
                    if attempt >= MAX_LOAD_ATTEMPTS {
                        // Give up: the device hosts nothing; queries that
                        // piled up behind the load have no host here.
                        let dev = &mut self.devices[d];
                        dev.set_variant(None, self.store);
                        dev.worker.set_state(WorkerState::Idle);
                        self.drop_queue(d, now, DropReason::NoHost);
                        for router in &mut self.routers {
                            router.remove_target(DeviceId(device));
                        }
                        return;
                    }
                    let base = self.load_delay(variant);
                    let factor = (1u64 << attempt.min(LOAD_BACKOFF_CAP)) as f64;
                    let delay = SimTime::from_secs_f64(base.as_secs_f64() * factor);
                    self.start_load_with_delay(d, now, delay, sim);
                    return;
                }
                let dev = &mut self.devices[d];
                dev.load_attempts = 0;
                dev.worker.set_state(WorkerState::Idle);
                self.obs.emit(now, || EventKind::ModelLoadFinished {
                    device: DeviceId(device),
                });
                self.poke(d, now, sim);
            }
            Event::MonitorTick => {
                self.estimator.roll(now);
                if !self.allocator.is_static() {
                    if self.allocator.on_critical_path() {
                        // INFaaS-style: cheap heuristic runs every tick.
                        self.reallocate(now, ReplanCause::CriticalPath, sim);
                    } else {
                        // Burst detection (monitoring daemon → controller):
                        // demand outgrowing what the plan was built for.
                        let inst = self.estimator.instantaneous();
                        let cooldown = SimTime::from_secs_f64(self.config.burst_cooldown_secs);
                        let calm = now.saturating_sub(self.last_realloc) >= cooldown;
                        let bursty = inst.iter().any(|(f, &rate)| {
                            let planned = self.planned_for[f].max(1.0);
                            // Relative growth plus a 3-sigma Poisson guard
                            // band, so counting noise on low-rate families
                            // does not masquerade as a burst.
                            let trigger =
                                self.config.burst_threshold * planned + 3.0 * planned.sqrt();
                            rate > 5.0 && rate > trigger
                        });
                        if calm && bursty {
                            self.reallocate(now, ReplanCause::Burst, sim);
                        }
                    }
                }
                self.obs.tick(now, &self.devices);
                let next = now + SimTime::from_secs_f64(self.config.monitor_period_secs);
                if next <= self.horizon {
                    sim.schedule(next, Event::MonitorTick);
                }
            }
            Event::Reallocate => {
                self.reallocate(now, ReplanCause::Periodic, sim);
                let next = now + SimTime::from_secs_f64(self.config.realloc_period_secs);
                if next <= self.horizon {
                    sim.schedule(next, Event::Reallocate);
                }
            }
            Event::SolveComplete { id } => {
                // A discarded solve's completion still arrives; the id
                // mismatch (or empty pending slot) rejects it.
                let Some(p) = self.pending_solve.take() else {
                    return;
                };
                if p.id != id {
                    self.pending_solve = Some(p);
                    return;
                }
                // Belt and braces: the discard path fires on every liveness
                // change, so a pending plan can never reference a down
                // device here — but a plan that does must not be applied
                // under any circumstances.
                if self.down.iter().any(|&d| p.plan.assignment(d).is_some()) {
                    self.discard(now, p.cause);
                    let cause = self.queued_cause.take().unwrap_or(p.cause);
                    self.begin_solve(now, cause, sim);
                    return;
                }
                self.obs
                    .emit(now, || EventKind::SolveComplete { cause: p.cause });
                if let Some(t) = self.obs.telemetry.as_deref_mut() {
                    t.on_solve_resolved(now);
                }
                self.commit_plan(p, now, sim);
                // Triggers that coalesced mid-window get their re-solve
                // now, against demand observed at this instant.
                if let Some(cause) = self.queued_cause.take() {
                    self.begin_solve(now, cause, sim);
                }
            }
            Event::StagedLoadDone { device, generation } => {
                let d = device as usize;
                let dev = &mut self.devices[d];
                if dev.worker.load_generation != generation {
                    return; // superseded by a newer plan or a crash
                }
                let Some(v) = dev.staged_target.take() else {
                    return;
                };
                if !dev.worker.is_up() {
                    return;
                }
                // The background load finished: swap the serving variant.
                // The worker served its old variant for the whole window
                // (an executing batch keeps its captured profile).
                dev.set_variant(Some(v), self.store);
                self.poke(d, now, sim);
            }
            Event::ProvisionReady(device_type) => {
                let id = self.cluster.add(device_type);
                // Cluster::add returned this id on the previous line, so the
                // lookup cannot miss; if it ever does, skip the provision
                // instead of panicking mid-run.
                let Some(&spec) = self.cluster.device(id) else {
                    return;
                };
                self.provisioned += 1;
                // The usable device set grew: a same-instant replan (the
                // ProvisionedRealloc below) must not be coalesced against a
                // pre-provision solve key.
                self.liveness_epoch += 1;
                self.add_device(spec, now);
                // Fold new devices into service with one re-allocation per
                // provisioning batch, after every same-instant arrival has
                // registered (FIFO ordering guarantees this event fires
                // last).
                if self.provision_realloc_at != Some(now) {
                    self.provision_realloc_at = Some(now);
                    sim.schedule(now, Event::ProvisionedRealloc);
                }
            }
            Event::ProvisionedRealloc => {
                self.reallocate(now, ReplanCause::Provisioned, sim);
            }
            Event::Fault(kind) => self.handle_fault(now, kind, sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::{ProteusBatching, StaticBatching};
    use crate::schedulers::{ClipperAllocator, ClipperMode, ProteusAllocator};
    use proteus_profiler::ModelFamily;
    use proteus_workloads::{FlatTrace, TraceBuilder};

    fn flat_arrivals(qps: f64, secs: u32, seed: u64) -> Vec<QueryArrival> {
        TraceBuilder::new(TraceBuilder::paper_families())
            .seed(seed)
            .build(&FlatTrace { qps, secs })
    }

    fn run_proteus(qps: f64, secs: u32) -> RunOutcome {
        let mut system = ServingSystem::new(
            SystemConfig::small(),
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        system.run(&flat_arrivals(qps, secs, 7))
    }

    #[test]
    fn light_load_serves_everything_on_time() {
        let outcome = run_proteus(20.0, 15);
        let s = outcome.metrics.summary();
        assert!(s.total_arrived > 200);
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert!(
            s.slo_violation_ratio < 0.02,
            "light load must be nearly violation-free, got {}",
            s.slo_violation_ratio
        );
        assert!(s.effective_accuracy > 0.9, "got {}", s.effective_accuracy);
    }

    #[test]
    fn accounting_is_conserved_under_overload() {
        // Far beyond the 4-device capacity: drops must appear, and
        // arrived == served + dropped must still hold after draining.
        let outcome = run_proteus(3000.0, 6);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert!(s.total_dropped > 0, "overload must drop queries");
    }

    #[test]
    fn overload_scales_accuracy_down() {
        let light = run_proteus(10.0, 20).metrics.summary();
        let heavy = run_proteus(800.0, 20).metrics.summary();
        assert!(
            heavy.effective_accuracy < light.effective_accuracy,
            "{} !< {}",
            heavy.effective_accuracy,
            light.effective_accuracy
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_proteus(100.0, 10).metrics.summary();
        let b = run_proteus(100.0, 10).metrics.summary();
        assert_eq!(a, b);
    }

    #[test]
    fn static_allocator_never_reallocates() {
        let mut system = ServingSystem::new(
            SystemConfig::small(),
            Box::new(ClipperAllocator::new(ClipperMode::HighThroughput)),
            Box::new(ProteusBatching),
        );
        let outcome = system.run(&flat_arrivals(50.0, 15, 3));
        assert_eq!(outcome.reallocations, 1, "only the initial allocation");
        let s = outcome.metrics.summary();
        assert!(s.total_served > 0);
        // HT hosts only least accurate variants.
        assert!(
            s.effective_accuracy < 0.9,
            "Clipper-HT accuracy must be near the floor, got {}",
            s.effective_accuracy
        );
    }

    #[test]
    fn proteus_reallocates_periodically() {
        let mut config = SystemConfig::small();
        config.realloc_period_secs = 5.0;
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let outcome = system.run(&flat_arrivals(50.0, 21, 3));
        // Initial + at least 3 periodic re-allocations over 21 s.
        assert!(outcome.reallocations >= 4, "got {}", outcome.reallocations);
        assert!(outcome.allocator_wall_secs > 0.0);
    }

    #[test]
    fn static_batch_one_hurts_at_load() {
        let arrivals = flat_arrivals(500.0, 12, 11);
        let mut adaptive = ServingSystem::new(
            SystemConfig::small(),
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut fixed = ServingSystem::new(
            SystemConfig::small(),
            Box::new(ProteusAllocator::default()),
            Box::new(StaticBatching::new(1)),
        );
        let a = adaptive.run(&arrivals).metrics.summary();
        let f = fixed.run(&arrivals).metrics.summary();
        assert!(
            f.slo_violation_ratio > a.slo_violation_ratio,
            "batch=1 must violate more at 500 QPS: {} vs {}",
            f.slo_violation_ratio,
            a.slo_violation_ratio
        );
    }

    #[test]
    fn mean_demand_matches_trace() {
        let arrivals = flat_arrivals(200.0, 30, 5);
        let d = mean_demand(&arrivals);
        assert!((d.total() - 200.0).abs() < 15.0, "total {}", d.total());
        // Zipf rank 1 (EfficientNet) dominates.
        assert!(d[ModelFamily::EfficientNet] > d[ModelFamily::Gpt2]);
    }

    #[test]
    fn noise_changes_results_but_preserves_accounting() {
        let arrivals = flat_arrivals(150.0, 10, 9);
        let mut noisy = ServingSystem::new(
            SystemConfig::small().with_cluster_noise(0.1, 1.0),
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let s = noisy.run(&arrivals).metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
    }

    #[test]
    fn ramps_trigger_repeated_reallocation() {
        // A steep ramp must keep firing the burst detector (demand outgrows
        // the plan's baseline), far more often than the periodic cadence.
        let trace = proteus_workloads::DiurnalTrace::new(60, 30.0, 600.0, 1, 0.0, 0.0, 1.0, 2);
        let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(2)
            .build(&trace);
        let mut config = SystemConfig::small();
        config.realloc_period_secs = 1e9; // periodic cadence off
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let outcome = system.run(&arrivals);
        assert!(
            outcome.burst_reallocations >= 3,
            "a 20x ramp must fire the burst detector repeatedly, got {}",
            outcome.burst_reallocations
        );
    }

    #[test]
    fn flat_load_does_not_thrash_the_controller() {
        let arrivals = flat_arrivals(120.0, 30, 6);
        let mut config = SystemConfig::small();
        config.realloc_period_secs = 10.0;
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let outcome = system.run(&arrivals);
        // Initial + ~3 periodic; Poisson noise on a flat trace must not
        // masquerade as bursts.
        assert!(
            outcome.burst_reallocations <= 2,
            "flat load fired {} burst re-allocations",
            outcome.burst_reallocations
        );
    }

    #[test]
    fn device_stats_account_execution() {
        let outcome = run_proteus(100.0, 10);
        let s = outcome.metrics.summary();
        let total_queries: u64 = outcome.device_stats.iter().map(|d| d.queries).sum();
        assert_eq!(
            total_queries, s.total_served,
            "every served query ran in some batch"
        );
        let busiest = outcome
            .device_stats
            .iter()
            .map(|d| d.utilization(SimTime::from_secs(10)))
            .fold(0.0, f64::max);
        assert!(busiest > 0.0 && busiest <= 1.05, "utilization {busiest}");
        let active = outcome.device_stats.iter().filter(|d| d.batches > 0);
        for d in active {
            assert!(d.mean_batch() >= 1.0);
        }
    }

    #[test]
    fn latency_sketch_is_populated() {
        let outcome = run_proteus(80.0, 10);
        let latency = outcome.metrics.latency();
        assert_eq!(latency.count(), outcome.metrics.summary().total_served);
        assert!(latency.quantile(0.99).unwrap() > 0.0);
        // Served-on-time queries sit within their family SLOs; the overall
        // p50 must be well under the largest SLO in the zoo (~1 s).
        assert!(latency.quantile(0.5).unwrap() < 1.0);
    }

    #[test]
    fn elastic_scaling_orders_hardware_under_saturation() {
        use super::ElasticScaling;
        // Sustained heavy overload on a tiny cluster: the plan must shrink,
        // which (with the §7 tandem extension on) orders extra V100s.
        let arrivals = flat_arrivals(2500.0, 25, 21);
        let mut fixed_cfg = SystemConfig::small();
        fixed_cfg.realloc_period_secs = 5.0;
        let mut elastic_cfg = fixed_cfg.clone();
        elastic_cfg.elastic = Some(ElasticScaling {
            provision_delay_secs: 6.0,
            max_extra_devices: 6,
            shrink_trigger: 1.02,
        });
        let mut fixed = ServingSystem::new(
            fixed_cfg,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut elastic = ServingSystem::new(
            elastic_cfg,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let f = fixed.run(&arrivals);
        let e = elastic.run(&arrivals);
        assert_eq!(f.provisioned_devices, 0);
        assert!(
            e.provisioned_devices >= 1,
            "saturation must trigger provisioning"
        );
        let fs = f.metrics.summary();
        let es = e.metrics.summary();
        assert_eq!(es.total_arrived, es.total_served + es.total_dropped);
        assert!(
            es.avg_throughput_qps > fs.avg_throughput_qps,
            "extra hardware must raise served throughput: {} vs {}",
            es.avg_throughput_qps,
            fs.avg_throughput_qps
        );
    }

    fn run_with_faults(spec: &str, qps: f64, secs: u32) -> RunOutcome {
        let mut config = SystemConfig::small();
        config.audit = true;
        config.faults = spec.parse().unwrap();
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        system.run(&flat_arrivals(qps, secs, 7))
    }

    #[test]
    fn device_crash_loses_no_queries_and_replans_around_it() {
        let dead = proteus_profiler::DeviceId(7); // a V100, surely loaded
        let outcome = run_with_faults("crash@5:7", 100.0, 15);
        let s = outcome.metrics.summary();
        // Zero lost queries: everything that arrived reached a terminal
        // outcome even though a loaded worker died mid-run.
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert_eq!(outcome.audit_violations, 0, "audited replans stay clean");
        // The failure triggered an immediate replan...
        assert!(
            outcome
                .replan_log
                .iter()
                .any(|r| r.cause == ReplanCause::DeviceFailure),
            "no DeviceFailure replan in {:?}",
            outcome.replan_log
        );
        // ...whose plan placed nothing on the corpse.
        assert!(outcome.final_plan.assignment(dead).is_none());
        // Online accounting stops at the crash (5 s into a ~20 s span).
        let online = outcome.device_stats[7].online;
        assert!(
            online >= SimTime::from_secs(5) && online < SimTime::from_secs(6),
            "online {online}"
        );
        // Fault schedules stay deterministic.
        let again = run_with_faults("crash@5:7", 100.0, 15);
        assert_eq!(again.metrics.summary(), s);
    }

    #[test]
    fn recovered_device_rejoins_service() {
        let outcome = run_with_faults("crash@3:7; recover@8:7", 100.0, 15);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert_eq!(outcome.audit_violations, 0);
        // Crash and recovery each force a replan.
        let failure_replans = outcome
            .replan_log
            .iter()
            .filter(|r| r.cause == ReplanCause::DeviceFailure)
            .count();
        assert!(failure_replans >= 2, "got {failure_replans}");
        // Online time: [0, 3) plus [8, horizon≈20] — down for exactly 5 s.
        let online = outcome.device_stats[7].online;
        assert!(
            online >= SimTime::from_secs(13) && online <= SimTime::from_secs(17),
            "online {online}"
        );
        // The recovered V100 is too valuable to leave idle at 100 QPS.
        assert!(outcome
            .final_plan
            .assignment(proteus_profiler::DeviceId(7))
            .is_some());
    }

    #[test]
    fn straggler_window_stretches_execution() {
        let clean = run_proteus(100.0, 15).metrics.summary();
        let slow = run_with_faults("slow@2-14:7x6.0; slow@2-14:8x6.0", 100.0, 15);
        let ss = slow.metrics.summary();
        assert_eq!(ss.total_arrived, ss.total_served + ss.total_dropped);
        assert_eq!(slow.audit_violations, 0);
        // 6x-slower V100s must leave a visible mark on the run.
        assert_ne!(ss, clean, "stragglers changed nothing");
    }

    #[test]
    fn load_failures_back_off_then_give_up() {
        let mut config = SystemConfig::small();
        config.audit = true;
        // Every load fails: after a crash forces re-placement, the affected
        // devices burn their attempt budgets and give up.
        config.faults = "crash@3:7; loadfail@1.0".parse().unwrap();
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut sink = proteus_trace::MemorySink::new();
        let outcome = system.run_traced(&flat_arrivals(100.0, 15, 7), &mut sink);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert_eq!(outcome.audit_violations, 0);
        let failed_loads = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LoadFailed { .. }))
            .count();
        assert!(failed_loads > 0, "p = 1.0 must fail every attempted load");
        // Attempts are bounded: no device logs more than the budget per
        // load, and the run still terminates.
        let max_attempt = sink
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LoadFailed { attempt, .. } => Some(attempt),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_attempt <= 3, "attempt {max_attempt} exceeds budget");
    }

    #[test]
    fn fault_free_schedule_matches_default_run() {
        // An empty schedule is the identity: bit-identical outcomes.
        let base = run_proteus(100.0, 10).metrics.summary();
        let faultless = run_with_faults("", 100.0, 10);
        assert_eq!(faultless.metrics.summary(), base);
    }

    #[test]
    fn solve_latency_parses_and_displays() {
        for (text, want) in [
            ("zero", SolveLatency::Zero),
            ("model", SolveLatency::Model),
            ("fixed:4.2", SolveLatency::Fixed(4.2)),
        ] {
            let parsed: SolveLatency = text.parse().unwrap();
            assert_eq!(parsed, want, "{text}");
            assert_eq!(parsed.to_string(), text);
        }
        assert!("warp".parse::<SolveLatency>().is_err());
        assert!("fixed:0".parse::<SolveLatency>().is_err());
        assert!("fixed:nope".parse::<SolveLatency>().is_err());
        // Finite but past SimTime's ~584-year range.
        let err = "fixed:1e300".parse::<SolveLatency>().unwrap_err();
        assert!(err.contains("range"), "{err}");
    }

    /// Fragments the solve-latency grammar branches on.
    const SOLVE_LATENCY_TOKENS: &[&str] = &[
        "zero", "model", "fixed:", "fixed", ":", "0", "1", "4.2", "-1", "1e300", "2e10", "inf",
        "NaN", ".", "e",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Any input parses to a latency whose delay is representable, or
        /// is rejected; it never panics, and what parses prints back to
        /// itself.
        #[test]
        fn solve_latency_parse_never_panics(
            pieces in proptest::collection::vec((0u8..2, 0u16..256, 0..SOLVE_LATENCY_TOKENS.len()), 0..8),
        ) {
            let bytes: Vec<u8> = pieces
                .iter()
                .flat_map(|&(pick, any, token)| {
                    if pick == 0 {
                        vec![any.to_le_bytes()[0]]
                    } else {
                        SOLVE_LATENCY_TOKENS[token].as_bytes().to_vec()
                    }
                })
                .collect();
            let text = String::from_utf8_lossy(&bytes);
            for text in [text.to_string(), format!("fixed:{text}")] {
                if let Ok(latency) = text.parse::<SolveLatency>() {
                    let _ = latency.delay(None);
                    proptest::prop_assert_eq!(
                        latency.to_string().parse::<SolveLatency>(),
                        Ok(latency)
                    );
                }
            }
        }
    }

    #[test]
    fn solve_cost_model_is_monotone_and_capped() {
        use proteus_solver::SolveStats;
        assert_eq!(SolveLatency::Zero.delay(None), None);
        // Heuristic allocators (no solver stats) pay the base cost only.
        let base = SolveLatency::Model.delay(None).unwrap();
        assert_eq!(base, SimTime::from_secs_f64(SOLVE_MODEL_BASE_SECS));
        let small = SolveStats {
            nodes: 5,
            simplex_iterations: 100,
            ..SolveStats::default()
        };
        let big = SolveStats {
            nodes: 50,
            simplex_iterations: 10_000,
            ..SolveStats::default()
        };
        let d_small = SolveLatency::Model.delay(Some(&small)).unwrap();
        let d_big = SolveLatency::Model.delay(Some(&big)).unwrap();
        assert!(base < d_small && d_small < d_big);
        // A pathological solve cannot starve the control loop forever.
        let huge = SolveStats {
            nodes: u64::from(u32::MAX),
            simplex_iterations: u64::from(u32::MAX),
            ..SolveStats::default()
        };
        assert_eq!(
            SolveLatency::Model.delay(Some(&huge)).unwrap(),
            SimTime::from_secs_f64(SOLVE_MODEL_MAX_SECS)
        );
        // Wall time never feeds the model: two stats differing only in
        // wall produce the same delay.
        let mut rewalled = small;
        rewalled.wall = std::time::Duration::from_secs(1234);
        assert_eq!(SolveLatency::Model.delay(Some(&rewalled)), Some(d_small));
    }

    #[test]
    fn same_instant_failure_and_periodic_replans_coalesce() {
        // Satellite 3 regression: a DeviceFailure replan from the fault
        // handler and the Periodic tick land on the identical sim instant
        // (crash at t=30, period 30 s). The event-ordering contract is
        // that the fault fires first, its solve claims (t, liveness
        // epoch), and the periodic trigger coalesces instead of
        // double-solving.
        let mut config = SystemConfig::small();
        config.audit = true;
        config.realloc_period_secs = 30.0;
        config.faults = "crash@30:7".parse().unwrap();
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let outcome = system.run(&flat_arrivals(80.0, 35, 7));
        let at_30: Vec<_> = outcome
            .replan_log
            .iter()
            .filter(|r| r.at == SimTime::from_secs(30))
            .collect();
        assert_eq!(at_30.len(), 1, "double-solve at t=30: {at_30:?}");
        assert_eq!(at_30[0].cause, ReplanCause::DeviceFailure);
        assert!(
            outcome.replans_coalesced >= 1,
            "periodic tick not coalesced"
        );
        assert_eq!(outcome.audit_violations, 0);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
    }

    #[test]
    fn zero_latency_commits_in_the_same_instant() {
        let mut config = SystemConfig::small();
        config.realloc_period_secs = 5.0;
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut sink = proteus_trace::MemorySink::new();
        let outcome = system.run_traced(&flat_arrivals(50.0, 21, 3), &mut sink);
        assert!(outcome.reallocations >= 4);
        assert_eq!(outcome.plans_discarded, 0);
        for r in &outcome.replan_log {
            assert_eq!(r.committed_at, r.at, "zero mode must commit instantly");
            assert_eq!(r.solve_secs, 0.0);
        }
        // No solve-window events leak into legacy traces.
        assert!(!sink.events().iter().any(|e| matches!(
            e.kind,
            EventKind::SolveStarted { .. }
                | EventKind::SolveComplete { .. }
                | EventKind::PlanDiscarded { .. }
        )));
    }

    #[test]
    fn fixed_solve_latency_opens_a_window_before_commit() {
        let mut config = SystemConfig::small();
        config.audit = true;
        config.realloc_period_secs = 5.0;
        config.solve_latency = SolveLatency::Fixed(2.0);
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut sink = proteus_trace::MemorySink::new();
        let outcome = system.run_traced(&flat_arrivals(50.0, 21, 3), &mut sink);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert_eq!(outcome.audit_violations, 0);
        // The initial plan is synchronous (there is nothing to serve under
        // yet); every later plan commits exactly one window after its
        // trigger.
        let delayed: Vec<_> = outcome
            .replan_log
            .iter()
            .filter(|r| r.cause != ReplanCause::Initial)
            .collect();
        assert!(!delayed.is_empty());
        for r in delayed {
            assert_eq!(
                r.committed_at,
                r.at + SimTime::from_secs(2),
                "cause {:?}",
                r.cause
            );
            assert!((r.solve_secs - 2.0).abs() < 1e-9);
        }
        let solve_starts = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SolveStarted { .. }))
            .count();
        let solve_completes = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SolveComplete { .. }))
            .count();
        assert!(solve_starts >= 3);
        // Fault-free run: every opened window commits.
        assert_eq!(solve_starts, solve_completes);
        // Determinism: the sim-time behaviour must not depend on real
        // solver wall time.
        let mut config2 = SystemConfig::small();
        config2.audit = true;
        config2.realloc_period_secs = 5.0;
        config2.solve_latency = SolveLatency::Fixed(2.0);
        let mut again = ServingSystem::new(
            config2,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        assert_eq!(again.run(&flat_arrivals(50.0, 21, 3)).metrics.summary(), s);
    }

    #[test]
    fn solve_outlasting_the_clock_never_commits() {
        // Just below `SimTime::MAX` (~584 years): `now + delay` is past
        // the clock for every trigger after the first 10 ms.
        let mut config = SystemConfig::small();
        config.realloc_period_secs = 5.0;
        config.solve_latency = "fixed:1.84467440737e10".parse().unwrap();
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let outcome = system.run(&flat_arrivals(50.0, 12, 3));
        let s = outcome.metrics.summary();
        assert!(s.total_arrived > 0);
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert!(outcome
            .replan_log
            .iter()
            .all(|r| r.cause == ReplanCause::Initial));
    }

    #[test]
    fn crash_mid_solve_discards_the_inflight_plan() {
        // Periodic trigger at t=5 opens a [5, 9) window; device 7 dies at
        // t=7, inside it. The in-flight plan was solved against a liveness
        // set that no longer exists: it must be discarded (never applied)
        // and the failure replan must produce a plan avoiding the corpse.
        let mut config = SystemConfig::small();
        config.audit = true;
        config.realloc_period_secs = 5.0;
        config.solve_latency = SolveLatency::Fixed(4.0);
        config.faults = "crash@7:7".parse().unwrap();
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut sink = proteus_trace::MemorySink::new();
        let outcome = system.run_traced(&flat_arrivals(80.0, 15, 7), &mut sink);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert_eq!(outcome.audit_violations, 0);
        assert!(outcome.plans_discarded >= 1, "mid-solve crash must discard");
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::PlanDiscarded { .. })));
        assert!(outcome
            .final_plan
            .assignment(proteus_profiler::DeviceId(7))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_rejected() {
        let mut arrivals = flat_arrivals(10.0, 5, 1);
        arrivals.reverse();
        let mut system = ServingSystem::new(
            SystemConfig::small(),
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        system.run(&arrivals);
    }
}
