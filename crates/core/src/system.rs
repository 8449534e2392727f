//! The serving system: load balancers, workers, controller and metrics
//! wired together on the discrete-event engine (§3).
//!
//! [`ServingSystem::run`] replays a query-arrival trace against a cluster:
//!
//! * **Data path** — each arrival is routed by its family's
//!   [`Router`] to a worker, queued, and batched by
//!   the worker's [`BatchPolicy`]; completions and drops feed the
//!   [`MetricsCollector`].
//! * **Control path** — the crate-private control plane: a
//!   [`DemandEstimator`](crate::DemandEstimator) (the monitoring daemon)
//!   rolls per-second statistics; the Resource Manager re-invokes the
//!   [`Allocator`] periodically, or immediately when a demand burst
//!   overshoots planned capacity (with a cooldown), or — for critical-path
//!   allocators like INFaaS — on every monitoring tick. The engine applies
//!   each plan it commits; plan changes incur model-load delays during
//!   which the affected device cannot serve.
//!
//! The optional execution noise (latency jitter + container startup delay)
//! models the difference between the paper's simulator and its physical
//! cluster (§6.2 reports <1 % divergence; the `sim_vs_cluster` experiment
//! reproduces that comparison).

use std::collections::{BTreeMap, VecDeque};

use proteus_metrics::MetricsCollector;
use proteus_profiler::{
    Cluster, DeviceId, DeviceSpec, DeviceType, ModelZoo, Profile, ProfileStore, SloPolicy,
    VariantId,
};
use proteus_sim::{Actor, EventKey, FaultKind, FaultSchedule, SimTime, Simulation};
use proteus_solver::SolveStats;
use proteus_telemetry::registry::DeviceSample;
use proteus_telemetry::{ControlSample, Phase, Registry, TelemetryRuntime};
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

use crate::allocation::milp::SwapCost;
use crate::allocation::AllocationPlan;
use crate::batching::{BatchContext, BatchDecision, BatchPolicy};
use crate::control::{ControlPlane, PendingSolve, Step, MONITOR_PERIOD};
// Re-exported so the solve-latency mode stays configurable from here.
pub use crate::control::SolveLatency;
use crate::router::Router;
use crate::schedulers::Allocator;
use crate::{FamilyMap, Query, QueryId};

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
    /// Burst trigger: instantaneous demand above this multiple of the
    /// demand the current plan was built for forces an immediate
    /// re-allocation (the monitoring daemon's "burst of requests" call to
    /// the controller, §3).
    pub burst_threshold: f64,
    /// Headroom β applied to observed demand before planning (artifact
    /// default 1.05).
    pub demand_headroom: f64,
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
    /// The plane's step is rounded up to whole monitoring ticks (1 s).
    pub telemetry: Option<TelemetryConfig>,
    /// How long the control plane takes to produce a plan, in *sim* time
    /// (§6.8 reports ~4.2 s MILP solves against a 30 s planning period).
    /// [`SolveLatency::Zero`] (the default) commits plans at the trigger
    /// instant, preserving historical event streams byte-for-byte.
    pub solve_latency: SolveLatency,
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
    /// workers, the full Table 3 zoo, 2× SLOs, and the load delays and 30 s
    /// re-allocation of [`SwapCost::PAPER_TESTBED`].
    pub fn paper_testbed() -> Self {
        Self {
            cluster: Cluster::paper_testbed(),
            zoo: ModelZoo::paper_table3(),
            slo: SloPolicy::default(),
            realloc_period_secs: SwapCost::PAPER_TESTBED.period_secs,
            burst_threshold: 1.15,
            demand_headroom: 1.15,
            load_base_secs: SwapCost::PAPER_TESTBED.load_base_secs,
            load_secs_per_gib: SwapCost::PAPER_TESTBED.load_secs_per_gib,
            latency_noise_cv: 0.0,
            startup_noise_secs: 0.0,
            seed: 0,
            audit: false,
            provision_demand: None,
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
    ProvisionReady(DeviceType),
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
        let horizon = last_at + DRAIN;

        let provision = self
            .config
            .provision_demand
            .unwrap_or_else(|| mean_demand(arrivals));

        let mut engine = Engine {
            config: &self.config,
            store: &self.store,
            arrivals,
            devices: Vec::with_capacity(self.config.cluster.len()),
            slo_by_family: FamilyMap::from_fn(|f| SimTime::from_millis_f64(self.store.slo_ms(f))),
            routers: Router::from_plan(&AllocationPlan::empty(self.config.cluster.len())),
            rng: StdRng::seed_from_u64(self.config.seed),
            // Dedicated stream: fault draws must not perturb the execution
            // noise sequence, so a fault-free schedule replays identically.
            fault_rng: StdRng::seed_from_u64(self.config.seed ^ 0x00c0_ffee_fa17_0000),
            batching_proto: self.batching.clone_box(),
            retries: BTreeMap::new(),
            next_batch: 0,
            batch_pool: Vec::new(),
            scratch: Vec::new(),
            pool_reused: 0,
            control: ControlPlane::new(&self.config, &self.store, self.allocator.as_mut(), horizon),
            obs: Observers {
                metrics: MetricsCollector::new(SimTime::from_secs(1)),
                trace_on: trace.enabled(),
                trace,
                telemetry: self.config.telemetry.clone().map(|mut cfg| {
                    // Steps are sealed on monitoring ticks, so a step is a
                    // whole number of ticks.
                    let tick = MONITOR_PERIOD.as_nanos();
                    cfg.step =
                        SimTime::from_nanos(cfg.step.as_nanos().div_ceil(tick).max(1) * tick);
                    Box::new(TelemetryRuntime::new(cfg))
                }),
                phase_sample_ctr: [0; Phase::COUNT],
            },
        };
        for &spec in self.config.cluster.iter() {
            engine.add_device(spec, SimTime::ZERO);
        }

        let mut sim: Simulation<Event> = Simulation::new();
        // Initial allocation: models are pre-loaded before the trace starts.
        let initial = engine.control.run_allocator(
            SimTime::ZERO,
            ReplanCause::Initial,
            provision,
            &mut engine.obs,
        );
        engine.commit(initial, SimTime::ZERO, &mut sim);
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
        if MONITOR_PERIOD <= horizon {
            sim.schedule(MONITOR_PERIOD, Event::MonitorTick);
        }
        if let Some(period) = engine.control.period().filter(|&p| p <= horizon) {
            sim.schedule(period, Event::Reallocate);
        }
        sim.run(&mut engine);

        // Account anything still queued (nothing should be, since every
        // policy eventually executes or drops, but stay safe).
        for d in 0..engine.devices.len() {
            engine.drop_queue(d, horizon, DropReason::Drained);
        }

        // End-of-run DES invariants (checked whenever auditing is on):
        // 1. event-time monotonicity — the kernel counts any regression;
        // 2. query conservation — every arrival reached exactly one
        //    terminal outcome (served or dropped; nothing in flight after
        //    the drain).
        if cfg!(debug_assertions) || self.config.audit {
            let s = engine.obs.metrics.summary();
            let conserved = s.total_arrived == arrivals.len() as u64
                && s.total_served + s.total_dropped == s.total_arrived;
            engine.control.audit_violations +=
                sim.time_regressions() as u32 + u32::from(!conserved);
            let n = arrivals.len();
            debug_assert!(conserved, "conservation violated: {n} arrivals, {s:?}");
        }

        let telemetry = engine
            .obs
            .finish(horizon, &engine.devices, engine.control.sample());
        // Close the still-open online windows only after the telemetry
        // plane's last page, which must read those devices as up.
        for dev in &mut engine.devices {
            dev.close_online(horizon);
        }
        engine.obs.trace.flush();
        let control = engine.control;
        // The log holds one record per committed plan, the initial one
        // included, so the plan counters are counts over it.
        let log = &control.replan_log;
        let count = |keep: fn(&ReplanRecord) -> bool| log.iter().filter(|r| keep(r)).count() as u32;
        RunOutcome {
            metrics: engine.obs.metrics,
            reallocations: log.len() as u32,
            burst_reallocations: count(|r| r.cause == ReplanCause::Burst),
            plans_discarded: control.plans_discarded,
            replans_coalesced: control.replans_coalesced,
            allocator_wall_secs: control.allocator_wall_secs,
            solver_stats: control.solver_stats,
            shrunk_plans: count(|r| r.shrink > 1.0),
            provisioned_devices: (control.cluster.len() - self.config.cluster.len()) as u32,
            device_stats: engine.devices.iter().map(|d| d.stats).collect(),
            final_plan: control.plan,
            replan_log: control.replan_log,
            plan_audits: control.plan_audits,
            audit_violations: control.audit_violations,
            hot_stats: HotPathStats {
                events_delivered: sim.delivered(),
                peak_event_queue: sim.peak_pending() as u64,
                time_regressions: sim.time_regressions(),
                batch_buffers_reused: engine.pool_reused,
                // Every batch takes one buffer: from the pool or fresh.
                batch_buffers_allocated: engine.next_batch - engine.pool_reused,
            },
            telemetry,
        }
    }
}

/// Drain time after the last arrival before metrics close.
const DRAIN: SimTime = SimTime::from_secs(5);

/// Per-worker queue capacity.
const QUEUE_CAP: usize = 256;

/// Retry budget per query after a device failure: a query that loses its
/// host this many times is dropped as [`DropReason::DeviceFailed`] instead
/// of bouncing through the cluster forever.
const MAX_QUERY_RETRIES: u32 = 2;

/// Attempts per model load before the controller gives up on the placement
/// (the device then serves nothing until the next replan retargets it).
const MAX_LOAD_ATTEMPTS: u32 = 3;

/// Cap on the load-retry backoff exponent (delay × 2^attempt, at most 2^3).
const LOAD_BACKOFF_CAP: u32 = 3;

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

/// Executor state of a device; liveness is orthogonal to it (see
/// [`Device::online_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Free to start a batch.
    Idle,
    /// Executing a batch.
    Busy,
    /// Swapping models (container start + weight load).
    Loading,
}

/// One worker device and everything the engine tracks about it (§3: a
/// device with a FIFO queue and a batching policy, driven by the
/// controller's plans). The engine keeps one record per device, indexed
/// by device id; the §7 tandem extension appends a record for every
/// provisioned device.
struct Device<'a> {
    device_type: DeviceType,
    /// The targeted variant (may still be loading); changed only by
    /// [`set_variant`](Self::set_variant).
    variant: Option<VariantId>,
    /// Profile of the loaded variant, refreshed whenever the variant
    /// changes — the batching path reads this instead of hashing
    /// `(variant, device type)` into the store on every decision.
    profile: Option<&'a Profile>,
    /// Precomputed latency table for integral batch costs, rebuilt
    /// alongside [`profile`](Self::profile) — see
    /// [`BatchContext::lat_table`](crate::batching::BatchContext::lat_table).
    lat_table: Vec<SimTime>,
    /// FIFO query queue, bounded by [`QUEUE_CAP`]: a full queue rejects
    /// new queries, which the engine records as drops.
    queue: VecDeque<Query>,
    state: WorkerState,
    policy: Box<dyn BatchPolicy>,
    /// Pending batching timer, if any.
    timer: Option<EventKey>,
    /// Model-load delay to apply once the in-flight batch finishes.
    pending_load: Option<SimTime>,
    /// Generation counter for load-completion events: a completion whose
    /// generation is not current was superseded by a newer plan or a crash.
    load_generation: u64,
    /// Execution statistics, reported as [`RunOutcome::device_stats`].
    stats: DeviceStats,
    /// Shadow of the executing batch (crash salvage).
    inflight: Option<InFlight>,
    /// Straggler latency multiplier (1.0 = nominal).
    slowdown: f64,
    /// When the device last came online; `None` while it is down. This is
    /// the device's liveness: a down device accepts no queries, executes
    /// nothing and is masked out of planning until it recovers. Accumulated
    /// into [`DeviceStats::online`] on crash and at end of run.
    online_since: Option<SimTime>,
    /// Consecutive failed load attempts.
    load_attempts: u32,
    /// Staged variant: the device keeps serving its current variant while
    /// this one "loads in the background"; swapped in by
    /// [`Event::StagedLoadDone`].
    staged_target: Option<VariantId>,
}

impl<'a> Device<'a> {
    /// An idle device, online since `now`, hosting no model.
    fn new(device_type: DeviceType, policy: Box<dyn BatchPolicy>, now: SimTime) -> Self {
        Self {
            device_type,
            variant: None,
            profile: None,
            lat_table: Vec::new(),
            queue: VecDeque::new(),
            state: WorkerState::Idle,
            policy,
            timer: None,
            pending_load: None,
            load_generation: 0,
            stats: DeviceStats::default(),
            inflight: None,
            slowdown: 1.0,
            online_since: Some(now),
            load_attempts: 0,
            staged_target: None,
        }
    }

    /// Whether the device is alive.
    fn is_online(&self) -> bool {
        self.online_since.is_some()
    }

    /// Retargets the device and refreshes its cached profile — the only
    /// place a device's variant may change, so the cache can never go
    /// stale.
    fn set_variant(&mut self, variant: Option<VariantId>, store: &'a ProfileStore) {
        self.variant = variant;
        self.profile = variant.and_then(|v| store.profile(v, self.device_type));
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

    /// Enqueues a query; a full queue hands it back so the caller can
    /// account the drop.
    fn enqueue(&mut self, query: Query) -> Result<(), Query> {
        if self.queue.len() >= QUEUE_CAP {
            return Err(query);
        }
        self.queue.push_back(query);
        Ok(())
    }

    /// Moves the first `n` queued queries into `out` (cleared first),
    /// reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` queries are queued.
    fn take_front_into(&mut self, n: usize, out: &mut Vec<Query>) {
        assert!(
            n <= self.queue.len(),
            "cannot take {n} of {}",
            self.queue.len()
        );
        out.clear();
        out.extend(self.queue.drain(..n));
    }

    /// Closes the open online window, if any, at `now`: the device is down
    /// from here on.
    fn close_online(&mut self, now: SimTime) {
        if let Some(since) = self.online_since.take() {
            self.stats.online += now.saturating_sub(since);
        }
    }

    /// Snapshot for the telemetry registry (cumulative busy/batch/query
    /// counters; the registry differences them per window).
    fn sample(&self) -> DeviceSample {
        DeviceSample {
            queue_depth: self.queue.len() as u32,
            up: self.is_online(),
            busy: self.stats.busy,
            batches: self.stats.batches,
            queries: self.stats.queries,
        }
    }
}

/// The engine's one observation fan-out: every arrival, serve and drop is
/// reported here once and recorded once, in the metrics collector (and
/// the trace sink). The telemetry plane reads the collector and the
/// engine's device and control-plane samples on monitoring ticks, and
/// takes only self-profiling and solve-resolution hooks of its own.
pub(crate) struct Observers<'a> {
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
    pub(crate) fn emit(&mut self, at: SimTime, kind: impl FnOnce() -> EventKind) {
        if self.trace_on {
            self.trace.record(&TraceEvent { at, kind: kind() });
        }
    }

    /// Records an arrival.
    fn arrived(&mut self, now: SimTime, q: &Query) {
        self.metrics.record_arrival(now, q.family);
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
            .record_served_query(now, q.id.0, q.family, accuracy, on_time, latency);
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
        self.emit(now, || EventKind::Dropped {
            query: q.id.0,
            reason,
        });
    }

    /// The telemetry registry, when the plane is on.
    fn registry(&mut self) -> Option<&mut Registry> {
        self.telemetry
            .as_deref_mut()
            .map(TelemetryRuntime::registry_mut)
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
        self.registry()?.on_phase_call(phase);
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
        if let (Some(r), Some(t0)) = (self.registry(), t0) {
            r.on_phase_nanos(
                phase,
                (t0.elapsed().as_nanos() as u64) << phase.sample_log2(),
            );
        }
    }

    /// Books a replan's solve wall time.
    pub(crate) fn replanned(&mut self, wall_secs: f64) {
        if let Some(r) = self.registry() {
            r.on_phase(Phase::Solve, (wall_secs * 1e9) as u64);
        }
    }

    /// The solve in flight since `started` committed or was discarded at
    /// `now`.
    pub(crate) fn solve_resolved(&mut self, started: SimTime, now: SimTime) {
        if let Some(r) = self.registry() {
            r.on_solve_resolved(started, now);
        }
    }

    /// Drives the telemetry plane on the monitoring cadence: the registry
    /// seals a step of what the collector recorded with the device and
    /// control-plane samples, the burn engine scans it, and any alert
    /// transitions become first-class trace events.
    fn tick(&mut self, now: SimTime, devices: &[Device<'_>], control: ControlSample) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let samples: Vec<_> = devices.iter().map(Device::sample).collect();
        for tr in t.tick(now, &samples, control, &self.metrics) {
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
    fn finish(
        &mut self,
        now: SimTime,
        devices: &[Device<'_>],
        control: ControlSample,
    ) -> Option<TelemetrySummary> {
        let mut t = self.telemetry.take()?;
        let samples: Vec<_> = devices.iter().map(Device::sample).collect();
        Some(t.finish(now, &samples, control, &self.metrics))
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

/// The data plane: workers, routers, plan application and faults on
/// workers, driven by the [`ControlPlane`] it hosts.
struct Engine<'a> {
    config: &'a SystemConfig,
    store: &'a ProfileStore,
    arrivals: &'a [QueryArrival],
    /// One record per device, indexed by device id.
    devices: Vec<Device<'a>>,
    /// Per-family SLO spans, precomputed once so the arrival path does no
    /// store lookup or float conversion per query.
    slo_by_family: FamilyMap<SimTime>,
    routers: Vec<Router>,
    rng: StdRng,
    batching_proto: Box<dyn BatchPolicy>,
    /// Per-query failure-retry counts (keyed by query id).
    retries: BTreeMap<u64, u32>,
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
    /// Batch buffers served from the pool; every other batch's buffer was
    /// freshly allocated.
    pool_reused: u64,
    /// The Resource Manager and monitoring daemon.
    control: ControlPlane<'a>,
    /// Metrics, trace and telemetry.
    obs: Observers<'a>,
}

impl Engine<'_> {
    /// Brings a device online with an empty worker: the initial cluster and
    /// every provisioned device are built here.
    fn add_device(&mut self, spec: DeviceSpec, now: SimTime) {
        let policy = self.batching_proto.clone_box();
        self.devices
            .push(Device::new(spec.device_type, policy, now));
        self.obs.emit(now, || EventKind::WorkerOnline {
            device: spec.id,
            device_type: spec.device_type,
        });
    }

    /// Drains `device`'s queue, dropping every query for `reason`.
    fn drop_queue(&mut self, device: usize, now: SimTime, reason: DropReason) {
        for q in self.devices[device].queue.drain(..) {
            self.obs.dropped(now, &q, reason);
        }
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
        mem(old) + mem(new) <= self.devices[device].device_type.memory_mib()
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
        if let Some(key) = self.devices[device].timer.take() {
            sim.cancel(key);
        }
    }

    /// Takes a batch buffer from the reuse pool (or allocates one).
    fn take_buffer(&mut self) -> Vec<Query> {
        let buf = self.batch_pool.pop();
        self.pool_reused += u64::from(buf.is_some());
        buf.unwrap_or_default()
    }

    /// Re-evaluates batching on an idle worker.
    fn poke(&mut self, device: usize, now: SimTime, sim: &mut Simulation<Event>) {
        loop {
            let dev = &self.devices[device];
            // A down device executes nothing; its queue was salvaged at
            // crash time and stays empty until recovery.
            if !dev.is_online() || dev.state != WorkerState::Idle {
                return;
            }
            if dev.queue.is_empty() {
                self.cancel_timer(device, sim);
                return;
            }
            // The profile cache is refreshed at every retarget and
            // ProfileStore::build profiles every (variant, device type)
            // pair, so only a device hosting no model misses here; a miss
            // with a hosted variant would be a construction bug and takes
            // the same typed drop path instead of panicking.
            let (Some(variant), Some(profile)) = (dev.variant, dev.profile) else {
                // No model hosted: nothing can serve these queries here.
                self.cancel_timer(device, sim);
                self.drop_queue(device, now, DropReason::NoHost);
                return;
            };
            let decide_t0 = self.obs.phase_start(Phase::BatchDecide);
            let dev = &mut self.devices[device];
            let ctx = BatchContext {
                now,
                queue: dev.queue.make_contiguous(),
                profile,
                lat_table: &dev.lat_table,
            };
            let decision = dev.policy.decide(&ctx);
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
                    self.devices[device].take_front_into(n, &mut scratch);
                    for q in scratch.drain(..) {
                        self.obs.dropped(now, &q, DropReason::Expired);
                    }
                    self.scratch = scratch;
                }
                BatchDecision::Execute(k) => {
                    let mut batch = self.take_buffer();
                    let dev = &mut self.devices[device];
                    let k = k.max(1).min(dev.queue.len() as u32);
                    dev.take_front_into(k as usize, &mut batch);
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
                    self.devices[device].state = WorkerState::Busy;
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
                    self.devices[device].timer =
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
        if !self.devices[device].is_online() {
            return;
        }
        self.cancel_timer(device, sim);
        let dev = &mut self.devices[device];
        if delay == SimTime::ZERO {
            dev.state = WorkerState::Idle;
            self.poke(device, now, sim);
            return;
        }
        let variant = dev.variant;
        dev.load_generation += 1;
        let generation = dev.load_generation;
        dev.state = WorkerState::Loading;
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
    /// variant assignment. The initial plan is `preload`ed: its models are
    /// in place before the trace starts, so variants are placed without
    /// load delays.
    fn apply_plan(
        &mut self,
        plan: &AllocationPlan,
        preload: bool,
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
            if !dev.is_online() {
                continue;
            }
            let new = plan.assignment(DeviceId(i as u32));
            let old = dev.variant;
            // A still-pending staged swap from an older plan: the new plan
            // either confirms it (the background load just continues) or
            // overrides it (cancel; the device keeps serving `old` and the
            // retarget logic below decides what happens next).
            if let Some(staged) = dev.staged_target {
                if new == Some(staged) {
                    continue;
                }
                dev.staged_target = None;
                dev.load_generation += 1;
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
                        && dev.state != WorkerState::Loading
                        && self.staged_swap_fits(i, o, n)
                    {
                        let delay = self.load_delay(new);
                        let dev = &mut self.devices[i];
                        dev.pending_load = None;
                        dev.load_generation += 1;
                        let generation = dev.load_generation;
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
                displaced.extend(dev.queue.drain(..));
            }
            dev.set_variant(new, self.store);
            dev.load_attempts = 0;
            if preload {
                continue;
            }
            if dev.state == WorkerState::Busy {
                // Swap after the in-flight batch completes; the real
                // weight-transfer delay for the *new* variant is
                // computed now and charged at batch completion (a
                // zero-marker here would make the swap free).
                let delay = self.load_delay(new);
                self.devices[i].pending_load = Some(delay);
            } else {
                to_load.push(i);
            }
        }
        self.routers = Router::from_plan(plan);
        for i in to_load {
            let delay = self.load_delay(self.devices[i].variant);
            self.start_load_with_delay(i, now, delay, sim);
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
        if !self.devices[d].is_online() {
            self.obs.dropped(now, &q, DropReason::DeviceFailed);
            return None;
        }
        let query = q.id.0;
        if let Err(q) = self.devices[d].enqueue(q) {
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
            depth: dev.queue.len() as u32,
            behind: dev.inflight.as_ref().map(|f| f.batch),
        });
        Some(d)
    }

    /// A replan trigger, handed to the control plane.
    fn reallocate(&mut self, now: SimTime, cause: ReplanCause, sim: &mut Simulation<Event>) {
        let step = self.control.trigger(now, cause, &mut self.obs);
        self.follow(step, now, sim);
    }

    /// Carries out what the control plane asked for: open a solve window
    /// or put a plan in force.
    fn follow(&mut self, step: Step, now: SimTime, sim: &mut Simulation<Event>) {
        match step {
            Step::Idle => {}
            Step::Window { id, at } => {
                sim.schedule(at, Event::SolveComplete { id });
            }
            Step::Commit(solve) => self.commit(*solve, now, sim),
        }
    }

    /// Puts a solved plan in force at `now` and hands it back to the
    /// control plane with the number of devices it changed.
    fn commit(&mut self, solve: PendingSolve, now: SimTime, sim: &mut Simulation<Event>) {
        let preload = solve.record.cause == ReplanCause::Initial;
        let mut apply_t0 = None;
        if !preload {
            if let Some((count, ready)) = self.control.order_hardware(&solve, now) {
                for _ in 0..count {
                    sim.schedule(ready, Event::ProvisionReady(DeviceType::V100));
                }
            }
            apply_t0 = self.obs.phase_start(Phase::ReplanApply);
        }
        let changed = self.apply_plan(&solve.plan, preload, now, sim);
        self.obs.phase_end(Phase::ReplanApply, apply_t0);
        let step = self.control.committed(solve, changed, now, &mut self.obs);
        self.follow(step, now, sim);
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
                if !self.devices[d].is_online() {
                    return;
                }
                self.devices[d].close_online(now);
                self.obs
                    .emit(now, || EventKind::WorkerCrashed { device: id });
                // The liveness set changed: the control plane discards an
                // in-flight plan built against a cluster that no longer
                // exists and masks the device out of future plans; the
                // DeviceFailure replan below solves against the new set.
                self.control.liveness_changed(now, id, false, &mut self.obs);
                // Stop routing to it right now — not at the next replan.
                for router in &mut self.routers {
                    router.remove_target(id);
                }
                self.cancel_timer(d, sim);
                // Any pending or staged load completion is now meaningless.
                let dev = &mut self.devices[d];
                dev.load_generation += 1;
                dev.pending_load = None;
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
                salvage.extend(dev.queue.drain(..));
                dev.set_variant(None, self.store);
                dev.state = WorkerState::Idle;
                self.redispatch(now, id, salvage, sim);
                // The controller replans immediately around the failure.
                self.reallocate(now, ReplanCause::DeviceFailure, sim);
            }
            FaultKind::DeviceRecover { .. } => {
                if self.devices[d].is_online() {
                    return;
                }
                self.devices[d].online_since = Some(now);
                // A recovery changes the usable device set just like a
                // crash: a plan solved without this device is stale (and a
                // coalesced same-instant trigger would see a different
                // cluster), so the in-flight solve is discarded too.
                self.control.liveness_changed(now, id, true, &mut self.obs);
                // Back empty: no model survives a crash.
                let dev = &mut self.devices[d];
                dev.set_variant(None, self.store);
                dev.state = WorkerState::Idle;
                dev.load_attempts = 0;
                self.obs
                    .emit(now, || EventKind::WorkerRecovered { device: id });
                // Fold the recovered capacity back into service.
                self.reallocate(now, ReplanCause::DeviceFailure, sim);
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
                self.control.record(arrival.family);
                if let Some(d) = self.place(now, query, Placement::Arrival) {
                    self.poke(d, now, sim);
                }
                if let Some(next) = self.arrivals.get(i + 1) {
                    sim.schedule(next.at, Event::NextArrival(i + 1));
                }
            }
            Event::WorkerTimer(d) => {
                let d = d as usize;
                self.devices[d].timer = None;
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
                // The served-query epoch: plans committed so far.
                let epoch = self.control.replan_log.len() as u64;
                let mut any_late = false;
                for q in &fl.queries {
                    any_late |= !self.obs.served(now, q, accuracy, epoch);
                }
                // Recycle the batch buffer for the next Execute decision.
                let mut queries = fl.queries;
                queries.clear();
                self.batch_pool.push(queries);
                let dev = &mut self.devices[d];
                dev.policy.on_batch_complete(any_late);
                dev.state = WorkerState::Idle;
                if let Some(delay) = dev.pending_load.take() {
                    // The swap deferred by `apply_plan`; its delay was
                    // computed there, for the new variant.
                    self.start_load_with_delay(d, now, delay, sim);
                } else {
                    self.poke(d, now, sim);
                }
            }
            Event::LoadDone { device, generation } => {
                let d = device as usize;
                let dev = &self.devices[d];
                // Superseded by a newer plan, or no longer loading.
                if dev.load_generation != generation || dev.state != WorkerState::Loading {
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
                    let variant = dev.variant;
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
                        dev.state = WorkerState::Idle;
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
                dev.state = WorkerState::Idle;
                self.obs.emit(now, || EventKind::ModelLoadFinished {
                    device: DeviceId(device),
                });
                self.poke(d, now, sim);
            }
            Event::MonitorTick => {
                if let Some(cause) = self.control.tick(now) {
                    self.reallocate(now, cause, sim);
                }
                self.obs.tick(now, &self.devices, self.control.sample());
                let next = now + MONITOR_PERIOD;
                if next <= self.control.horizon {
                    sim.schedule(next, Event::MonitorTick);
                }
            }
            Event::Reallocate => {
                self.reallocate(now, ReplanCause::Periodic, sim);
                let next = now + SimTime::from_secs_f64(self.config.realloc_period_secs);
                if next <= self.control.horizon {
                    sim.schedule(next, Event::Reallocate);
                }
            }
            Event::SolveComplete { id } => {
                // A discarded solve's completion still arrives; the control
                // plane rejects it.
                let step = self.control.solve_complete(id, now, &mut self.obs);
                self.follow(step, now, sim);
            }
            Event::StagedLoadDone { device, generation } => {
                let d = device as usize;
                let dev = &mut self.devices[d];
                if dev.load_generation != generation {
                    return; // superseded by a newer plan or a crash
                }
                let Some(v) = dev.staged_target.take() else {
                    return;
                };
                if !dev.is_online() {
                    return;
                }
                // The background load finished: swap the serving variant.
                // The worker served its old variant for the whole window
                // (an executing batch keeps its captured profile).
                dev.set_variant(Some(v), self.store);
                self.poke(d, now, sim);
            }
            Event::ProvisionReady(device_type) => {
                let (spec, first) = self.control.provision(device_type, now);
                self.add_device(spec, now);
                // Fold new devices into service with one re-allocation per
                // provisioning batch, after every same-instant arrival has
                // registered (FIFO ordering guarantees this event fires
                // last).
                if first {
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
    fn provision_mid_window_keeps_the_pending_plan_and_its_own_replan() {
        // Triggers every 5 s open [t, t + 2) windows; a saturated cluster
        // orders V100s at each commit, and they land 3 s later — at the
        // instant of the next periodic trigger, right after it opened its
        // window. That window's plan was solved without the new devices:
        // it must still commit (a provision never discards), audit clean
        // against the cluster its solve saw, and the provisioning
        // re-allocation must not coalesce against the same-instant
        // periodic solve: it gets its own re-solve when the window closes.
        let mut config = SystemConfig::small();
        config.audit = true;
        config.realloc_period_secs = 5.0;
        config.solve_latency = SolveLatency::Fixed(2.0);
        config.elastic = Some(ElasticScaling {
            provision_delay_secs: 3.0,
            max_extra_devices: 6,
            shrink_trigger: 1.02,
        });
        let mut system = ServingSystem::new(
            config,
            Box::new(ProteusAllocator::default()),
            Box::new(ProteusBatching),
        );
        let mut sink = proteus_trace::MemorySink::new();
        let outcome = system.run_traced(&flat_arrivals(2500.0, 25, 21), &mut sink);
        let s = outcome.metrics.summary();
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert!(outcome.provisioned_devices >= 1, "no device provisioned");
        assert_eq!(outcome.plans_discarded, 0);
        assert!(outcome.plan_audits >= 1);
        assert_eq!(outcome.audit_violations, 0);
        let initial = SystemConfig::small().cluster.len() as u32;
        let landings: Vec<SimTime> = sink
            .events()
            .iter()
            .filter(
                |e| matches!(e.kind, EventKind::WorkerOnline { device, .. } if device.0 >= initial),
            )
            .map(|e| e.at)
            .collect();
        let mut instants = landings;
        instants.dedup();
        let log = &outcome.replan_log;
        // The same-instant case: a landing right after a periodic solve
        // opened its window at that instant. That plan commits when the
        // window closes, and the provisioning re-solve starts then.
        let same_instant: Vec<_> = log
            .iter()
            .filter(|r| r.cause == ReplanCause::Periodic && instants.contains(&r.at))
            .collect();
        assert!(!same_instant.is_empty(), "scenario missed: {instants:?}");
        for window in same_instant {
            assert_eq!(window.committed_at, window.at + SimTime::from_secs(2));
            assert!(
                log.iter()
                    .any(|r| r.cause == ReplanCause::Provisioned && r.at == window.committed_at),
                "provision at {} got no re-solve of its own: {log:?}",
                window.at
            );
        }
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

    fn device() -> Device<'static> {
        Device::new(DeviceType::V100, Box::new(ProteusBatching), SimTime::ZERO)
    }

    fn query(i: u64) -> Query {
        Query::new(
            QueryId(i),
            ModelFamily::ResNet,
            SimTime::from_millis(i),
            SimTime::from_millis(100),
        )
    }

    #[test]
    fn device_queue_holds_at_most_queue_cap() {
        let mut dev = device();
        for i in 0..QUEUE_CAP as u64 {
            assert!(dev.enqueue(query(i)).is_ok());
        }
        let rejected = dev.enqueue(query(QUEUE_CAP as u64)).unwrap_err();
        assert_eq!(rejected.id, QueryId(QUEUE_CAP as u64));
        assert_eq!(dev.queue.len(), QUEUE_CAP);
    }

    #[test]
    fn device_takes_batches_in_fifo_order() {
        let mut dev = device();
        for i in 0..5 {
            dev.enqueue(query(i)).unwrap();
        }
        let mut batch = vec![query(99)];
        dev.take_front_into(3, &mut batch);
        assert_eq!(
            batch.iter().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(dev.queue.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn taking_more_than_queued_panics() {
        let mut dev = device();
        dev.enqueue(query(0)).unwrap();
        dev.take_front_into(2, &mut Vec::new());
    }
}
