//! The control plane: the Resource Manager and the monitoring daemon (§3).
//!
//! [`ControlPlane`] owns everything the controller decides — the
//! allocator, the [`DemandEstimator`], the plan in force, the cluster as
//! planned with its down mask, the burst detector's baseline, the
//! modeled solve window and the books every replan is recorded in. The
//! serving engine (the data plane: routers, workers, faults on workers)
//! talks to it through a narrow interface: arrivals are recorded into the
//! estimator, a monitoring tick may yield a trigger, a trigger yields a
//! [`Step`] (a plan to commit now, or a window to schedule), a
//! `SolveComplete` yields the plan or nothing, and a liveness change either
//! discards the pending solve or only forgets the coalescing key. The
//! engine applies each commit and hands back how many devices changed.

use proteus_profiler::{Cluster, DeviceId, DeviceSpec, DeviceType, ModelFamily, ProfileStore};
use proteus_sim::SimTime;
use proteus_solver::SolveStats;
use proteus_telemetry::ControlSample;
use proteus_trace::{DiscardReason, EventKind, ReplanCause};

use crate::allocation::audit::audit_plan;
use crate::allocation::{AllocContext, AllocationPlan};
use crate::schedulers::Allocator;
use crate::system::{Observers, ReplanRecord, SystemConfig};
use crate::{DemandEstimator, FamilyMap};

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
        let secs = match s {
            "zero" => return Ok(SolveLatency::Zero),
            "model" => return Ok(SolveLatency::Model),
            _ => s.strip_prefix("fixed:").ok_or_else(|| {
                format!("unknown solve latency {s:?} (expected zero, model, or fixed:<secs>)")
            })?,
        };
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

/// Monitoring daemon tick: the demand estimator rolls, bursts are
/// detected and the telemetry plane seals on it.
pub(crate) const MONITOR_PERIOD: SimTime = SimTime::from_secs(1);

/// Minimum spacing between burst-triggered re-allocations.
const BURST_COOLDOWN: SimTime = SimTime::from_secs(3);

/// A solved plan that is not in force yet: handed to the data plane to
/// apply at once, or held while the modeled solve window runs and the
/// system keeps serving under the old plan.
#[derive(Debug)]
pub(crate) struct PendingSolve {
    /// Matches `Event::SolveComplete`; a discarded solve's completion
    /// event finds a different (or no) pending id and is ignored.
    id: u64,
    /// The replan's record, completed at commit.
    pub(crate) record: ReplanRecord,
    pub(crate) plan: AllocationPlan,
    /// The cluster the solve was given. The audit checks the plan against
    /// it: devices provisioned mid-window are the next plan's to cover.
    cluster: Cluster,
}

/// What a replan trigger or a solve completion asks of the data plane.
#[derive(Debug)]
pub(crate) enum Step {
    /// Nothing: the trigger coalesced, or its window outlasts the clock.
    Idle,
    /// Schedule `SolveComplete { id }` at `at`.
    Window { id: u64, at: SimTime },
    /// Put this plan in force now, then hand the result to
    /// [`ControlPlane::committed`].
    Commit(Box<PendingSolve>),
}

/// The controller and monitoring daemon of one serving run.
pub(crate) struct ControlPlane<'a> {
    config: &'a SystemConfig,
    store: &'a ProfileStore,
    allocator: &'a mut dyn Allocator,
    /// When the run's metrics close (last arrival plus drain).
    pub(crate) horizon: SimTime,
    /// The (possibly growing, with the §7 tandem extension) cluster.
    pub(crate) cluster: Cluster,
    /// Devices currently down, sorted — the allocation context's mask.
    down: Vec<DeviceId>,
    estimator: DemandEstimator,
    /// The plan in force.
    pub(crate) plan: AllocationPlan,
    /// The last solve start; anchors the burst cooldown.
    last_realloc: SimTime,
    /// The solve currently in flight, if any (nonzero [`SolveLatency`]).
    pending: Option<PendingSolve>,
    /// Freshest trigger that arrived while a solve was in flight; the
    /// commit path starts one re-solve with refreshed demand for it.
    queued_cause: Option<ReplanCause>,
    /// Instant of the most recent solve start, forgotten on every liveness
    /// change: a second trigger at the identical timestamp under the same
    /// liveness set coalesces instead of double-solving.
    last_solve_at: Option<SimTime>,
    /// Devices ordered so far by the §7 tandem extension.
    extra_ordered: u32,
    /// Instant of the last provisioning batch's re-allocation.
    provision_realloc_at: Option<SimTime>,
    /// One record per committed plan, the initial one included.
    pub(crate) replan_log: Vec<ReplanRecord>,
    pub(crate) solver_stats: SolveStats,
    pub(crate) allocator_wall_secs: f64,
    /// In-flight plans discarded before commit.
    pub(crate) plans_discarded: u32,
    /// Triggers folded into an already-pending solve or a same-instant
    /// earlier one.
    pub(crate) replans_coalesced: u32,
    /// Times the independent plan auditor ran.
    pub(crate) plan_audits: u32,
    /// Violations found by plan audits and end-of-run DES checks.
    pub(crate) audit_violations: u32,
}

impl<'a> ControlPlane<'a> {
    pub(crate) fn new(
        config: &'a SystemConfig,
        store: &'a ProfileStore,
        allocator: &'a mut dyn Allocator,
        horizon: SimTime,
    ) -> Self {
        Self {
            config,
            store,
            allocator,
            horizon,
            cluster: config.cluster.clone(),
            down: Vec::new(),
            estimator: DemandEstimator::new(MONITOR_PERIOD, 0.4),
            plan: AllocationPlan::empty(config.cluster.len()),
            last_realloc: SimTime::ZERO,
            pending: None,
            queued_cause: None,
            last_solve_at: None,
            extra_ordered: 0,
            provision_realloc_at: None,
            replan_log: Vec::new(),
            solver_stats: SolveStats::default(),
            allocator_wall_secs: 0.0,
            plans_discarded: 0,
            replans_coalesced: 0,
            plan_audits: 0,
            audit_violations: 0,
        }
    }

    /// The periodic re-allocation interval, or `None` when the allocator
    /// never replans on a timer (static, or on the critical path).
    pub(crate) fn period(&self) -> Option<SimTime> {
        (!self.allocator.is_static() && !self.allocator.on_critical_path())
            .then(|| SimTime::from_secs_f64(self.config.realloc_period_secs))
    }

    /// Records one arrival into the monitoring daemon's estimator.
    pub(crate) fn record(&mut self, family: ModelFamily) {
        self.estimator.record(family);
    }

    /// Monitoring tick: rolls the estimator and returns the trigger it
    /// yields, if any — every tick for critical-path allocators, a burst
    /// (demand outgrowing what the plan was built for) for the decoupled
    /// controller.
    pub(crate) fn tick(&mut self, now: SimTime) -> Option<ReplanCause> {
        self.estimator.roll(now);
        if self.allocator.is_static() {
            return None;
        }
        if self.allocator.on_critical_path() {
            // INFaaS-style: cheap heuristic runs every tick.
            return Some(ReplanCause::CriticalPath);
        }
        let calm = now.saturating_sub(self.last_realloc) >= BURST_COOLDOWN;
        // The baseline: the (pre-headroom) demand the plan in force was
        // built for.
        let planned_for = self.replan_log.last().map(|r| r.observed);
        let bursty = self.estimator.instantaneous().iter().any(|(f, &rate)| {
            let planned = planned_for.map_or(0.0, |p| p[f]).max(1.0);
            // Relative growth plus a 3-sigma Poisson guard band, so
            // counting noise on low-rate families does not masquerade as
            // a burst.
            let trigger = self.config.burst_threshold * planned + 3.0 * planned.sqrt();
            rate > 5.0 && rate > trigger
        });
        (calm && bursty).then_some(ReplanCause::Burst)
    }

    /// A replan trigger. Coalesces with a same-instant earlier trigger or
    /// an in-flight solve; otherwise starts a solve. Static allocators
    /// never replan.
    pub(crate) fn trigger(
        &mut self,
        now: SimTime,
        cause: ReplanCause,
        obs: &mut Observers<'_>,
    ) -> Step {
        if self.allocator.is_static() {
            return Step::Idle;
        }
        // Same-instant re-entrancy: a DeviceFailure replan fired from the
        // fault handler plus a Periodic tick at the identical timestamp
        // (and identical liveness set) must not double-solve.
        if self.last_solve_at == Some(now) {
            self.replans_coalesced += 1;
            return Step::Idle;
        }
        // Mid-solve trigger: fold into one pending re-solve. The commit
        // path starts it with demand refreshed at commit time.
        if self.pending.is_some() {
            obs.emit(now, || EventKind::ReplanTriggered { cause });
            self.queued_cause = Some(cause);
            self.replans_coalesced += 1;
            return Step::Idle;
        }
        self.begin_solve(now, cause, obs)
    }

    /// Snapshots demand, runs the allocator, and either returns the plan
    /// to commit in place ([`SolveLatency::Zero`]) or holds it as the
    /// pending solve until the modeled solve window elapses — the system
    /// keeps serving under the old plan for the whole window.
    ///
    /// This function is a determinism-taint sink for proteus-lint: the
    /// `SolveComplete` time computed here is sim-visible, so no
    /// nondeterministic value may flow into it.
    fn begin_solve(&mut self, now: SimTime, cause: ReplanCause, obs: &mut Observers<'_>) -> Step {
        // Critical-path allocators (INFaaS) react to the raw last-second
        // rate — they decide per query, with no monitoring-daemon smoothing;
        // the decoupled controller plans on smoothed statistics.
        let observed = if self.allocator.on_critical_path() {
            self.estimator.instantaneous()
        } else {
            self.estimator.for_planning()
        };
        let solve = self.run_allocator(now, cause, observed, obs);
        let stats = self.allocator.last_solve_stats();
        let Some(delta) = self.config.solve_latency.delay(stats.as_ref()) else {
            return Step::Commit(Box::new(solve));
        };
        let id = solve.id;
        let until = now.saturating_add(delta);
        obs.emit(now, || EventKind::SolveStarted { cause, until });
        self.pending = Some(solve);
        // A window that saturates the clock outlasts the run: its plan
        // never commits.
        if until < SimTime::MAX {
            Step::Window { id, at: until }
        } else {
            Step::Idle
        }
    }

    /// Runs the allocator for `observed` demand plus headroom and books the
    /// solve (trace events, solver statistics, wall time), returning the
    /// plan uncommitted. The [`ReplanCause::Initial`] solve starts from no
    /// previous plan and is not a telemetry reallocation.
    pub(crate) fn run_allocator(
        &mut self,
        now: SimTime,
        cause: ReplanCause,
        observed: FamilyMap<f64>,
        obs: &mut Observers<'_>,
    ) -> PendingSolve {
        self.last_solve_at = Some(now);
        // The burst cooldown anchors at the trigger: while the control
        // plane is (or was just) working on a plan, a burst must not pile
        // a second solve on top.
        self.last_realloc = now;
        let demand = observed.scaled(self.config.demand_headroom);
        obs.emit(now, || EventKind::ReplanTriggered { cause });
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
        if !initial {
            obs.replanned(wall_secs);
        }
        if let Some(stats) = self.allocator.last_solve_stats() {
            self.solver_stats += stats;
            obs.emit(now, || EventKind::SolveStats {
                nodes: stats.nodes,
                pivots: stats.simplex_iterations,
                warm_starts: stats.warm_starts,
                wall_nanos: stats.wall.as_nanos() as u64,
            });
        }
        PendingSolve {
            // Every solve resolves (commits or is discarded) before the
            // next window opens, so counting resolved solves numbers the
            // windows uniquely.
            id: (self.replan_log.len() + self.plans_discarded as usize) as u64 + 1,
            record: ReplanRecord {
                at: now,
                committed_at: now,
                cause,
                wall_secs,
                solve_secs: 0.0,
                changed: 0,
                shrink: plan.shrink(),
                observed,
                target: demand,
            },
            plan,
            cluster: self.cluster.clone(),
        }
    }

    /// The modeled solve window `id` closed: returns its plan to commit,
    /// or nothing when that solve was discarded mid-window.
    pub(crate) fn solve_complete(
        &mut self,
        id: u64,
        now: SimTime,
        obs: &mut Observers<'_>,
    ) -> Step {
        let Some(p) = self.pending.take_if(|p| p.id == id) else {
            return Step::Idle;
        };
        // Belt and braces: the discard path fires on every liveness
        // change, so a pending plan can never reference a down device
        // here — but a plan that does must not be applied under any
        // circumstances.
        if self.down.iter().any(|&d| p.plan.assignment(d).is_some()) {
            self.discard(now, &p.record, obs);
            let cause = self.queued_cause.take().unwrap_or(p.record.cause);
            return self.begin_solve(now, cause, obs);
        }
        let cause = p.record.cause;
        obs.emit(now, || EventKind::SolveComplete { cause });
        obs.solve_resolved(p.record.at, now);
        Step::Commit(Box::new(p))
    }

    /// §7 tandem: when even minimum accuracy cannot absorb the demand
    /// (the plan had to shrink), order enough hardware to cover the
    /// deficit; accuracy scaling carries the load until it arrives.
    /// Returns how many V100s to bring online, and when.
    pub(crate) fn order_hardware(
        &mut self,
        solve: &PendingSolve,
        now: SimTime,
    ) -> Option<(u32, SimTime)> {
        let elastic = self.config.elastic?;
        let shrink = solve.plan.shrink();
        let ready = now + SimTime::from_secs_f64(elastic.provision_delay_secs);
        // Orders that cannot arrive inside the horizon are never placed,
        // so they must not consume the device budget and block later,
        // deliverable orders.
        if shrink <= elastic.shrink_trigger
            || self.extra_ordered >= elastic.max_extra_devices
            || ready > self.horizon
        {
            return None;
        }
        let deficit_qps = solve.record.target.total() * (1.0 - 1.0 / shrink);
        let per_device_qps =
            (solve.plan.total_capacity() / self.cluster.len().max(1) as f64).max(1.0);
        let wanted = (deficit_qps / per_device_qps).ceil().max(1.0) as u32;
        let order = wanted.min(elastic.max_extra_devices - self.extra_ordered);
        self.extra_ordered += order;
        Some((order, ready))
    }

    /// Books a plan the data plane just put in force (`changed` devices
    /// changed variant) and audits it; returns the re-solve that triggers
    /// coalesced mid-window are owed, against demand observed now.
    ///
    /// The independent plan auditor checks the plan against the cluster
    /// its solve was given, and only for solver-backed allocators: it
    /// re-derives the MILP's constraint system (Eqs. 1–7), whose capacity
    /// and coverage conventions the heuristic baselines do not follow.
    pub(crate) fn committed(
        &mut self,
        solve: PendingSolve,
        changed: u32,
        now: SimTime,
        obs: &mut Observers<'_>,
    ) -> Step {
        let mut record = solve.record;
        record.committed_at = now;
        record.solve_secs = now.saturating_sub(record.at).as_secs_f64();
        record.changed = changed;
        self.replan_log.push(record);
        self.plan = solve.plan;
        let shrink = record.shrink;
        obs.emit(now, || EventKind::PlanApplied { changed, shrink });
        if (cfg!(debug_assertions) || self.config.audit)
            && self.allocator.last_solve_stats().is_some()
        {
            let ctx = AllocContext {
                cluster: &solve.cluster,
                zoo: &self.config.zoo,
                store: self.store,
                down: &self.down,
            };
            let report = audit_plan(&ctx, &record.target, &self.plan);
            self.plan_audits += 1;
            self.audit_violations += report.violations.len() as u32;
            obs.emit(now, || EventKind::AuditReport {
                violations: report.violations.len() as u32,
                devices_checked: report.devices_checked as u32,
                families_checked: report.families_checked as u32,
            });
            debug_assert!(report.is_clean(), "plan audit failed at {now}: {report}");
        }
        match self.queued_cause.take() {
            Some(cause) => self.begin_solve(now, cause, obs),
            None => Step::Idle,
        }
    }

    /// `device` crashed (`up` false) or recovered: the in-flight plan was
    /// solved against a liveness set that no longer exists, so it is
    /// discarded (a plan ignoring a usable device is stale too, merely
    /// wasteful), and the same-instant coalescing key is forgotten so the
    /// failure replan that follows solves against the new mask.
    pub(crate) fn liveness_changed(
        &mut self,
        now: SimTime,
        device: DeviceId,
        up: bool,
        obs: &mut Observers<'_>,
    ) {
        self.last_solve_at = None;
        if let Some(p) = self.pending.take() {
            // The liveness-change replan that follows sees the new device
            // set; an older queued cause would only duplicate it.
            self.queued_cause = None;
            self.discard(now, &p.record, obs);
        }
        self.down.retain(|&d| d != device);
        if !up {
            self.down.push(device);
            self.down.sort_unstable();
        }
    }

    /// §7 tandem: an ordered device comes online. The pending solve is
    /// kept — it commits on the cluster it saw and the new device keeps
    /// nothing until the next plan covers it — but the coalescing key is
    /// forgotten, so the provisioning re-allocation is never folded into a
    /// same-instant pre-provision solve. Returns the new device and
    /// whether it opens a provisioning batch at `now` (which owes one
    /// [`ReplanCause::Provisioned`] re-allocation).
    pub(crate) fn provision(
        &mut self,
        device_type: DeviceType,
        now: SimTime,
    ) -> (DeviceSpec, bool) {
        let id = self.cluster.add(device_type);
        self.last_solve_at = None;
        let first = self.provision_realloc_at.replace(now) != Some(now);
        (DeviceSpec { id, device_type }, first)
    }

    /// Books a solve whose plan will never be applied: it was built
    /// against a device liveness set that no longer exists.
    fn discard(&mut self, now: SimTime, record: &ReplanRecord, obs: &mut Observers<'_>) {
        self.plans_discarded += 1;
        let cause = record.cause;
        obs.emit(now, || EventKind::PlanDiscarded {
            cause,
            reason: DiscardReason::Liveness,
        });
        obs.solve_resolved(record.at, now);
    }

    /// What the telemetry plane reports of the control plane: when the
    /// solve in flight started, and the plans committed after the initial
    /// one.
    pub(crate) fn sample(&self) -> ControlSample {
        ControlSample {
            solve_started: self.pending.as_ref().map(|p| p.record.at),
            reallocations: self.replan_log.len().saturating_sub(1) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
