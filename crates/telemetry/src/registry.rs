//! The windowed metrics registry: typed counters, gauges and sketches
//! driven entirely by *simulated* time.
//!
//! The serving loop pushes per-query deltas (`on_arrival` / `on_served` /
//! `on_dropped`) into the current step cell; once per step the engine's
//! monitoring tick seals the cell into a ring of the last `window/step`
//! steps and samples instantaneous device state. Sliding-window rates are
//! sums over the ring, so a window advances every step without rescanning
//! history. Cumulative counters (never reset) back the Prometheus
//! counters; the ring backs the gauges and the dashboard.

use std::collections::VecDeque;

use proteus_metrics::{Bucket, QuantileSketch};
use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;

/// A control-plane phase whose wall time the plane self-profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Allocator solve (ILP / greedy) during a replan.
    Solve,
    /// Applying a new plan to the worker fleet.
    ReplanApply,
    /// Routing one arrival to a worker queue.
    Route,
    /// One batching-policy decision on a worker queue.
    BatchDecide,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 4] = [
        Phase::Solve,
        Phase::ReplanApply,
        Phase::Route,
        Phase::BatchDecide,
    ];

    /// Number of phases.
    pub const COUNT: usize = 4;

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            Phase::Solve => 0,
            Phase::ReplanApply => 1,
            Phase::Route => 2,
            Phase::BatchDecide => 3,
        }
    }

    /// Stable label used in exposition.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Solve => "solve",
            Phase::ReplanApply => "replan_apply",
            Phase::Route => "route",
            Phase::BatchDecide => "batch_decide",
        }
    }

    /// log2 of the recommended self-profiling sampling period.
    ///
    /// Routing and batch decisions run per query / per poke — millions of
    /// times in a long run — so timing every invocation would cost more
    /// than the phases themselves. Callers time one in `2^sample_log2()`
    /// invocations and scale the measured duration back up (invocation
    /// counts stay exact; see [`Registry::on_phase_call`]). Solve and
    /// replan-apply are rare and timed exactly.
    pub fn sample_log2(self) -> u32 {
        match self {
            Phase::Solve | Phase::ReplanApply => 0,
            Phase::Route | Phase::BatchDecide => 6,
        }
    }
}

/// Instantaneous per-device state sampled at a monitoring tick. The
/// `busy` / `batches` / `queries` fields are cumulative since run start;
/// the registry differences consecutive samples to get window rates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceSample {
    /// Queue depth right now.
    pub queue_depth: u32,
    /// Whether the device is serviceable (not crashed).
    pub up: bool,
    /// Cumulative busy time executing batches.
    pub busy: SimTime,
    /// Cumulative executed batches.
    pub batches: u64,
    /// Cumulative queries across executed batches.
    pub queries: u64,
}

/// One sealed step: flow cells plus the device snapshot at seal time.
#[derive(Debug, Clone)]
struct Step {
    end: SimTime,
    flows: [Bucket; ModelFamily::COUNT],
    devices: Vec<DeviceSample>,
}

/// Aggregated view of one device over the current window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceWindow {
    /// Queue depth at the window's closing tick.
    pub queue_depth: u32,
    /// Liveness at the window's closing tick.
    pub up: bool,
    /// Fraction of the window spent executing batches.
    pub utilization: f64,
    /// Mean queries per executed batch in the window (0 if none ran).
    pub occupancy: f64,
}

/// Aggregated view of the last full window, consumed by the exposition
/// writer, the dashboard and the end-of-run summary.
#[derive(Debug, Clone)]
pub struct WindowView {
    /// The window's closing time.
    pub end: SimTime,
    /// Actual time covered (shorter than the configured window early on).
    pub span: SimTime,
    /// Per-family flows over the window.
    pub families: [Bucket; ModelFamily::COUNT],
    /// Per-device aggregates over the window.
    pub devices: Vec<DeviceWindow>,
}

impl WindowView {
    /// All families summed.
    pub fn total(&self) -> Bucket {
        let mut out = Bucket::default();
        for f in &self.families {
            out.merge(f);
        }
        out
    }

    /// Window span in seconds (never zero; clamped for rate division).
    pub fn span_secs(&self) -> f64 {
        self.span.as_secs_f64().max(1e-9)
    }
}

/// The sim-time-driven metrics registry.
#[derive(Debug, Clone)]
pub struct Registry {
    step: SimTime,
    window_steps: usize,
    /// Current (unsealed) step accumulation.
    cur: [Bucket; ModelFamily::COUNT],
    /// Sealed steps, oldest in front; capacity `window_steps`.
    ring: VecDeque<Step>,
    /// Device snapshot just *before* the oldest ring step (the delta
    /// baseline for cumulative per-device counters).
    baseline: Vec<DeviceSample>,
    /// Cumulative per-family flows since run start.
    totals: [Bucket; ModelFamily::COUNT],
    /// Cumulative wall nanoseconds per control-plane phase.
    phase_nanos: [u64; Phase::COUNT],
    /// Cumulative invocations per control-plane phase.
    phase_calls: [u64; Phase::COUNT],
    /// Cumulative replans applied.
    reallocations: u64,
    /// Response-latency sketch (seconds), cumulative since run start.
    latency: QuantileSketch,
    /// When the control plane's in-flight solve started; `None` while no
    /// solve is running (the `proteus_solve_in_progress` gauge).
    solve_started_at: Option<SimTime>,
    /// Stale-plan age sketch (seconds): while a solve is in flight the
    /// serving plan is known-stale; its age (now − solve start) is sampled
    /// at every sealed step and at solve resolution.
    stale_age: QuantileSketch,
    last_seal: SimTime,
}

impl Registry {
    /// Creates a registry aggregating `window` of history advanced every
    /// `step` (both clamped to at least 1 ns; `window >= step`).
    pub fn new(window: SimTime, step: SimTime, sketch_alpha: f64) -> Self {
        let step = step.max(SimTime::from_nanos(1));
        let window = window.max(step);
        let window_steps = (window.as_nanos() / step.as_nanos()).max(1) as usize;
        Registry {
            step,
            window_steps,
            cur: [Bucket::default(); ModelFamily::COUNT],
            ring: VecDeque::with_capacity(window_steps),
            baseline: Vec::new(),
            totals: [Bucket::default(); ModelFamily::COUNT],
            phase_nanos: [0; Phase::COUNT],
            phase_calls: [0; Phase::COUNT],
            reallocations: 0,
            latency: QuantileSketch::new(sketch_alpha, 2048).with_exemplars(),
            solve_started_at: None,
            stale_age: QuantileSketch::new(sketch_alpha, 2048),
            last_seal: SimTime::ZERO,
        }
    }

    /// The configured step width.
    pub fn step(&self) -> SimTime {
        self.step
    }

    /// Records a query arrival.
    #[inline]
    pub fn on_arrival(&mut self, family: ModelFamily) {
        self.cur[family.index()].arrived += 1;
        self.totals[family.index()].arrived += 1;
    }

    /// Records a served query with its end-to-end latency. The query ID
    /// feeds the latency sketch's exemplar store, linking exported
    /// quantiles back to concrete traces.
    #[inline]
    pub fn on_served(
        &mut self,
        query: u64,
        family: ModelFamily,
        accuracy: f64,
        on_time: bool,
        latency: SimTime,
    ) {
        let i = family.index();
        if on_time {
            self.cur[i].served_on_time += 1;
            self.totals[i].served_on_time += 1;
        } else {
            self.cur[i].served_late += 1;
            self.totals[i].served_late += 1;
        }
        self.cur[i].accuracy_sum += accuracy;
        self.totals[i].accuracy_sum += accuracy;
        self.latency.record_exemplar(latency.as_secs_f64(), query);
    }

    /// Records a dropped query.
    #[inline]
    pub fn on_dropped(&mut self, family: ModelFamily) {
        self.cur[family.index()].dropped += 1;
        self.totals[family.index()].dropped += 1;
    }

    /// Records one self-profiled control-plane phase execution.
    #[inline]
    pub fn on_phase(&mut self, phase: Phase, wall_nanos: u64) {
        self.phase_nanos[phase.index()] += wall_nanos;
        self.phase_calls[phase.index()] += 1;
    }

    /// Counts one phase invocation without a duration — the counting half
    /// of sampled self-profiling (see [`Phase::sample_log2`]).
    #[inline]
    pub fn on_phase_call(&mut self, phase: Phase) {
        self.phase_calls[phase.index()] += 1;
    }

    /// Adds phase wall time without counting an invocation — the timing
    /// half of sampled self-profiling. Callers pass the sampled duration
    /// already scaled by the sampling period.
    #[inline]
    pub fn on_phase_nanos(&mut self, phase: Phase, wall_nanos: u64) {
        self.phase_nanos[phase.index()] += wall_nanos;
    }

    /// Records a plan application.
    #[inline]
    pub fn on_reallocation(&mut self) {
        self.reallocations += 1;
    }

    /// The control plane entered a solve window at `now`: until
    /// [`on_solve_resolved`](Self::on_solve_resolved) the serving plan is
    /// known-stale and its age is sampled at every sealed step.
    #[inline]
    pub fn on_solve_started(&mut self, now: SimTime) {
        self.solve_started_at = Some(now);
    }

    /// The in-flight solve ended (committed or discarded) at `now`; the
    /// final stale-plan age is recorded and the gauge clears.
    #[inline]
    pub fn on_solve_resolved(&mut self, now: SimTime) {
        if let Some(started) = self.solve_started_at.take() {
            self.stale_age
                .record(now.saturating_sub(started).as_secs_f64());
        }
    }

    /// Whether a control-plane solve is currently in flight.
    pub fn solve_in_progress(&self) -> bool {
        self.solve_started_at.is_some()
    }

    /// The cumulative stale-plan-age sketch (seconds).
    pub fn stale_age(&self) -> &QuantileSketch {
        &self.stale_age
    }

    /// Seals the current step at `now` with the given device snapshot and
    /// returns the step's per-family flows (the burn engine's input).
    pub fn seal_step(
        &mut self,
        now: SimTime,
        devices: &[DeviceSample],
    ) -> [Bucket; ModelFamily::COUNT] {
        let flows = std::mem::take(&mut self.cur);
        if self.ring.len() == self.window_steps {
            if let Some(old) = self.ring.pop_front() {
                self.baseline = old.devices;
            }
        }
        self.ring.push_back(Step {
            end: now,
            flows,
            devices: devices.to_vec(),
        });
        // While a solve is in flight, every sealed step samples how long
        // the system has been serving under the known-stale plan.
        if let Some(started) = self.solve_started_at {
            self.stale_age
                .record(now.saturating_sub(started).as_secs_f64());
        }
        self.last_seal = now;
        flows
    }

    /// The sliding-window aggregate ending at the most recent seal.
    /// `None` until at least one step has been sealed.
    pub fn window(&self) -> Option<WindowView> {
        let newest = self.ring.back()?;
        let oldest = self.ring.front()?;
        let span = newest
            .end
            .saturating_sub(oldest.end.saturating_sub(self.step));
        let mut families = [Bucket::default(); ModelFamily::COUNT];
        for step in &self.ring {
            for (acc, cell) in families.iter_mut().zip(step.flows.iter()) {
                acc.merge(cell);
            }
        }
        let span_secs = span.as_secs_f64().max(1e-9);
        let devices = newest
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let base = self.baseline.get(i).copied().unwrap_or_default();
                let busy = d.busy.saturating_sub(base.busy).as_secs_f64();
                let batches = d.batches.saturating_sub(base.batches);
                let queries = d.queries.saturating_sub(base.queries);
                DeviceWindow {
                    queue_depth: d.queue_depth,
                    up: d.up,
                    utilization: (busy / span_secs).min(1.0),
                    occupancy: if batches > 0 {
                        queries as f64 / batches as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        Some(WindowView {
            end: newest.end,
            span,
            families,
            devices,
        })
    }

    /// Cumulative per-family flows since run start.
    pub fn totals(&self) -> &[Bucket; ModelFamily::COUNT] {
        &self.totals
    }

    /// Cumulative wall nanoseconds for one phase.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Cumulative invocations for one phase.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phase_calls[phase.index()]
    }

    /// Cumulative plan applications.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// The cumulative response-latency sketch (seconds).
    pub fn latency(&self) -> &QuantileSketch {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn dev(busy_ms: u64, batches: u64, queries: u64) -> DeviceSample {
        DeviceSample {
            queue_depth: 3,
            up: true,
            busy: SimTime::from_millis(busy_ms),
            batches,
            queries,
        }
    }

    #[test]
    fn window_slides_over_sealed_steps() {
        let mut r = Registry::new(t(3), t(1), 0.01);
        for step in 0..5u64 {
            for _ in 0..=step {
                r.on_arrival(ModelFamily::ResNet);
            }
            r.seal_step(t(step + 1), &[]);
        }
        // Ring holds steps with 3, 4, 5 arrivals.
        let w = r.window().unwrap();
        assert_eq!(w.families[ModelFamily::ResNet.index()].arrived, 12);
        assert_eq!(w.span, t(3));
        // Cumulative totals are unaffected by the slide.
        assert_eq!(r.totals()[ModelFamily::ResNet.index()].arrived, 15);
    }

    #[test]
    fn device_window_differences_cumulative_counters() {
        let mut r = Registry::new(t(2), t(1), 0.01);
        r.seal_step(t(1), &[dev(200, 2, 8)]);
        r.seal_step(t(2), &[dev(700, 4, 16)]);
        r.seal_step(t(3), &[dev(1200, 10, 40)]);
        // Window covers (1s, 3s]: baseline is the t=1s snapshot.
        let w = r.window().unwrap();
        let d = w.devices[0];
        assert!((d.utilization - 0.5).abs() < 1e-9, "{}", d.utilization);
        assert!((d.occupancy - 4.0).abs() < 1e-9);
        assert_eq!(d.queue_depth, 3);
    }

    #[test]
    fn phases_and_reallocations_accumulate() {
        let mut r = Registry::new(t(10), t(1), 0.01);
        r.on_phase(Phase::Solve, 1_000);
        r.on_phase(Phase::Solve, 500);
        r.on_reallocation();
        assert_eq!(r.phase_nanos(Phase::Solve), 1_500);
        assert_eq!(r.phase_calls(Phase::Solve), 2);
        assert_eq!(r.phase_calls(Phase::Route), 0);
        assert_eq!(r.reallocations(), 1);
    }

    #[test]
    fn solve_window_samples_stale_age() {
        let mut r = Registry::new(t(10), t(1), 0.01);
        assert!(!r.solve_in_progress());
        r.on_solve_started(t(1));
        assert!(r.solve_in_progress());
        r.seal_step(t(2), &[]); // age 1 s
        r.seal_step(t(3), &[]); // age 2 s
        r.on_solve_resolved(t(4)); // final age 3 s
        assert!(!r.solve_in_progress());
        assert_eq!(r.stale_age().count(), 3);
        assert!(
            (r.stale_age().sum() - 6.0).abs() < 0.2,
            "{}",
            r.stale_age().sum()
        );
        // Sealing with no solve in flight samples nothing.
        r.seal_step(t(5), &[]);
        assert_eq!(r.stale_age().count(), 3);
    }

    #[test]
    fn served_feeds_accuracy_and_latency() {
        let mut r = Registry::new(t(10), t(1), 0.01);
        r.on_served(1, ModelFamily::Bert, 0.9, true, SimTime::from_millis(50));
        r.on_served(2, ModelFamily::Bert, 0.7, false, SimTime::from_millis(250));
        r.on_dropped(ModelFamily::Bert);
        r.seal_step(t(1), &[]);
        let w = r.window().unwrap();
        let cell = w.families[ModelFamily::Bert.index()];
        assert_eq!(cell.served(), 2);
        assert_eq!(cell.violations(), 2);
        assert!((cell.accuracy_sum - 1.6).abs() < 1e-12);
        assert_eq!(r.latency().count(), 2);
        // The slow query is the p99 exemplar.
        assert_eq!(r.latency().exemplar_for(0.99).unwrap().query, 2);
    }
}
