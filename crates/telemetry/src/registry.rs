//! The windowed metrics registry: a sliding-window view over the run's
//! [`MetricsCollector`], driven entirely by *simulated* time.
//!
//! The registry records no queries of its own: every arrival, serve and
//! drop is recorded once, in the collector. Once per step the engine's
//! monitoring tick seals a step: its per-family flows are everything the
//! collector recorded since the previous seal, read from the few
//! collector rows the step touched. The sealed step joins the plane's one
//! step history, a ring long enough for both the page window and the
//! longest burn-rate window, together with the device and control-plane
//! state the engine handed over at that tick. Window rates and burn rates
//! are sums over the ring's tail. The registry itself keeps only what no
//! other part of the run holds: control-plane phase timings and the
//! stale-plan age.

use std::collections::VecDeque;

use proteus_metrics::{Bucket, MetricsCollector, QuantileSketch, LATENCY_ALPHA, LATENCY_BUCKETS};
use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;

use crate::burn::WINDOWS;

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

/// Control-plane state sampled at a monitoring tick. The control plane
/// owns it; the registry only reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControlSample {
    /// When the solve in flight started; `None` while no solve is running
    /// (the `proteus_solve_in_progress` gauge).
    pub solve_started: Option<SimTime>,
    /// Plans applied since run start, the initial one excluded (the
    /// `proteus_reallocations_total` counter).
    pub reallocations: u64,
}

/// One sealed step: flow cells plus the device and control-plane
/// snapshots at seal time.
#[derive(Debug, Clone)]
struct Step {
    end: SimTime,
    flows: [Bucket; ModelFamily::COUNT],
    devices: Vec<DeviceSample>,
    control: ControlSample,
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
    /// The control-plane state at the window's closing tick.
    pub control: ControlSample,
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
    /// Sealed steps, oldest in front: the window, the step before it (the
    /// device counters' delta baseline) and as many more as the longest
    /// burn-rate window reads.
    ring: VecDeque<Step>,
    cap: usize,
    /// The collector row holding the previous seal's instant.
    sealed_row: u64,
    /// That row's per-family cells as they stood at the previous seal:
    /// the part of the row an earlier step already counted.
    sealed_cells: [Bucket; ModelFamily::COUNT],
    /// Cumulative wall nanoseconds per control-plane phase.
    phase_nanos: [u64; Phase::COUNT],
    /// Cumulative invocations per control-plane phase.
    phase_calls: [u64; Phase::COUNT],
    /// Stale-plan age sketch (seconds): while a solve is in flight the
    /// serving plan is known-stale; its age (now − solve start) is sampled
    /// at every sealed step and at solve resolution.
    stale_age: QuantileSketch,
}

impl Registry {
    /// Creates a registry aggregating `window` of history, rounded up to
    /// whole steps, advanced every `step` (clamped to at least 1 ns).
    pub fn new(window: SimTime, step: SimTime) -> Self {
        let step = step.max(SimTime::from_nanos(1));
        let window_steps = window.as_nanos().div_ceil(step.as_nanos()).max(1) as usize;
        let cap = WINDOWS
            .iter()
            .map(|&w| steps_in(w, step))
            .fold(window_steps + 1, usize::max);
        Registry {
            step,
            window_steps,
            ring: VecDeque::with_capacity(cap),
            cap,
            sealed_row: 0,
            sealed_cells: [Bucket::default(); ModelFamily::COUNT],
            phase_nanos: [0; Phase::COUNT],
            phase_calls: [0; Phase::COUNT],
            stale_age: QuantileSketch::new(LATENCY_ALPHA, LATENCY_BUCKETS),
        }
    }

    /// The configured step width.
    pub fn step(&self) -> SimTime {
        self.step
    }

    /// Steps in one window.
    pub fn window_steps(&self) -> usize {
        self.window_steps
    }

    /// Whole steps in `window` (at least one).
    pub fn steps_in(&self, window: SimTime) -> usize {
        steps_in(window, self.step)
    }

    /// The per-family flows of the last `steps` sealed steps (all of them
    /// while fewer were sealed), oldest first.
    pub fn recent(&self, steps: usize) -> impl Iterator<Item = &[Bucket; ModelFamily::COUNT]> {
        let skip = self.ring.len().saturating_sub(steps);
        self.ring.range(skip..).map(|s| &s.flows)
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

    /// The solve in flight since `started` ended (committed or discarded)
    /// at `now`: records the final stale-plan age.
    #[inline]
    pub fn on_solve_resolved(&mut self, started: SimTime, now: SimTime) {
        self.stale_age
            .record(now.saturating_sub(started).as_secs_f64());
    }

    /// The cumulative stale-plan-age sketch (seconds).
    pub fn stale_age(&self) -> &QuantileSketch {
        &self.stale_age
    }

    /// Seals the step ending at `now` with the given device and
    /// control-plane snapshots. Its per-family flows are everything
    /// `collector` recorded since the previous seal, in processing order,
    /// so a record at exactly `now` made after this seal joins the next
    /// step: the rows from the previous seal's row through `now`'s, minus
    /// what the first held at the previous seal.
    pub fn seal_step(
        &mut self,
        now: SimTime,
        devices: &[DeviceSample],
        control: ControlSample,
        collector: &MetricsCollector,
    ) {
        let row = now.as_nanos() / collector.interval().as_nanos();
        let flows = std::array::from_fn(|i| {
            let family = ModelFamily::from_index(i);
            let first = collector.family_bucket(self.sealed_row, family);
            let seen = self.sealed_cells[i];
            let mut flow = Bucket {
                arrived: first.arrived.saturating_sub(seen.arrived),
                served_on_time: first.served_on_time.saturating_sub(seen.served_on_time),
                served_late: first.served_late.saturating_sub(seen.served_late),
                dropped: first.dropped.saturating_sub(seen.dropped),
                accuracy_sum: first.accuracy_sum - seen.accuracy_sum,
            };
            for r in self.sealed_row + 1..=row {
                flow.merge(&collector.family_bucket(r, family));
            }
            self.sealed_cells[i] = collector.family_bucket(row, family);
            flow
        });
        self.sealed_row = row;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(Step {
            end: now,
            flows,
            devices: devices.to_vec(),
            control,
        });
        // While a solve is in flight, every sealed step samples how long
        // the system has been serving under the known-stale plan.
        if let Some(started) = control.solve_started {
            self.stale_age
                .record(now.saturating_sub(started).as_secs_f64());
        }
    }

    /// The sliding-window aggregate over the last `window_steps` sealed
    /// steps. `None` until at least one step has been sealed.
    pub fn window(&self) -> Option<WindowView> {
        let newest = self.ring.back()?;
        let first = self.ring.len().saturating_sub(self.window_steps);
        let span = newest
            .end
            .saturating_sub(self.ring[first].end.saturating_sub(self.step));
        let mut families = [Bucket::default(); ModelFamily::COUNT];
        for flows in self.recent(self.window_steps) {
            for (acc, cell) in families.iter_mut().zip(flows) {
                acc.merge(cell);
            }
        }
        // The device counters' baseline is the step just before the
        // window; zero while the window reaches back to the run's start.
        let baseline = first
            .checked_sub(1)
            .map_or(&[][..], |i| &self.ring[i].devices);
        let span_secs = span.as_secs_f64().max(1e-9);
        let devices = newest
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let base = baseline.get(i).copied().unwrap_or_default();
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
            control: newest.control,
        })
    }

    /// Cumulative wall nanoseconds for one phase.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Cumulative invocations for one phase.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phase_calls[phase.index()]
    }
}

/// Whole `step`s in `window` (at least one).
fn steps_in(window: SimTime, step: SimTime) -> usize {
    (window.as_nanos() / step.as_nanos()).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    fn collector() -> MetricsCollector {
        MetricsCollector::new(t(1))
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

    /// Seals with no devices and no solve in flight.
    fn seal(r: &mut Registry, now: SimTime, m: &MetricsCollector) {
        r.seal_step(now, &[], ControlSample::default(), m);
    }

    /// The flows of the step sealed last.
    fn last(r: &Registry) -> [Bucket; ModelFamily::COUNT] {
        *r.recent(1).next().expect("a sealed step")
    }

    #[test]
    fn window_slides_over_sealed_steps() {
        let mut r = Registry::new(t(3), t(1));
        let mut m = collector();
        for step in 0..5u64 {
            for i in 0..=step {
                m.record_arrival(ms(step * 1000 + 100 * i), ModelFamily::ResNet);
            }
            seal(&mut r, t(step + 1), &m);
        }
        // The window holds the steps with 3, 4, 5 arrivals.
        let w = r.window().unwrap();
        assert_eq!(w.families[ModelFamily::ResNet.index()].arrived, 12);
        assert_eq!(w.span, t(3));
    }

    #[test]
    fn recent_sums_equal_a_manual_trailing_sum() {
        // Windows shorter and longer than the page window, and longer than
        // the run so far, against a straightforward recomputation. The
        // ring holds the longest burn-rate window: 300 one-second steps.
        let mut r = Registry::new(t(10), t(1));
        let mut m = collector();
        let mut history: Vec<u64> = Vec::new();
        for s in 1..=320u64 {
            let arrived = 5 + (s * 17) % 23;
            for i in 0..arrived {
                m.record_arrival(ms((s - 1) * 1000 + i), ModelFamily::Bert);
            }
            seal(&mut r, t(s), &m);
            history.push(arrived);
            for steps in [1usize, 3, 10, 60, 300, 400] {
                let want: u64 = history[history.len().saturating_sub(steps.min(300))..]
                    .iter()
                    .sum();
                let got: u64 = r
                    .recent(steps)
                    .map(|flows| flows[ModelFamily::Bert.index()].arrived)
                    .sum();
                assert_eq!(got, want, "step {s}, window {steps}");
            }
        }
        assert_eq!(r.steps_in(t(60)), 60);
        assert_eq!(r.steps_in(ms(500)), 1);
    }

    #[test]
    fn records_at_the_seal_instant_go_by_processing_order() {
        // A fault drop at exactly t = 1 s is recorded before the monitor
        // tick's seal at 1 s; a serve at the same instant comes after it.
        let mut r = Registry::new(t(10), t(1));
        let mut m = collector();
        let family = ModelFamily::Bert;
        m.record_arrival(ms(400), family);
        m.record_dropped(t(1), family);
        seal(&mut r, t(1), &m);
        let first = last(&r);
        m.record_served(t(1), family, 0.75, true);
        m.record_arrival(ms(1500), family);
        seal(&mut r, t(2), &m);
        let second = last(&r);
        seal(&mut r, t(3), &m);
        let third = last(&r);
        let f = family.index();
        assert_eq!(
            (first[f].arrived, first[f].dropped, first[f].served()),
            (1, 1, 0)
        );
        assert_eq!(
            (second[f].arrived, second[f].dropped, second[f].served()),
            (1, 0, 1)
        );
        assert_eq!(second[f].accuracy_sum, 0.75);
        assert_eq!(third[f], Bucket::default());
        // The steps partition the collector's totals.
        let mut steps = Bucket::default();
        for flows in [first, second, third] {
            steps.merge(&flows[f]);
        }
        let mut totals = Bucket::default();
        for row in 0..m.num_buckets() {
            totals.merge(&m.family_bucket(row, family));
        }
        assert_eq!(steps, totals);
    }

    #[test]
    fn a_step_spanning_rows_sums_them() {
        let mut r = Registry::new(t(10), t(3));
        let mut m = collector();
        let family = ModelFamily::T5;
        for millis in [500, 1500, 2500] {
            m.record_arrival(ms(millis), family);
        }
        seal(&mut r, t(3), &m);
        let first = last(&r);
        // A second seal inside the same row reads only what is new.
        m.record_arrival(ms(3100), family);
        seal(&mut r, ms(3200), &m);
        let tail = last(&r);
        for millis in [3500, 4500, 5500] {
            m.record_arrival(ms(millis), family);
        }
        seal(&mut r, t(6), &m);
        let rest = last(&r);
        let f = family.index();
        assert_eq!(first[f].arrived, 3);
        assert_eq!(tail[f].arrived, 1);
        assert_eq!(rest[f].arrived, 3);
    }

    #[test]
    fn device_window_differences_cumulative_counters() {
        let mut r = Registry::new(t(2), t(1));
        let m = collector();
        let idle = ControlSample::default();
        r.seal_step(t(1), &[dev(200, 2, 8)], idle, &m);
        r.seal_step(t(2), &[dev(700, 4, 16)], idle, &m);
        r.seal_step(t(3), &[dev(1200, 10, 40)], idle, &m);
        // Window covers (1s, 3s]: baseline is the t=1s snapshot.
        let w = r.window().unwrap();
        let d = w.devices[0];
        assert!((d.utilization - 0.5).abs() < 1e-9, "{}", d.utilization);
        assert!((d.occupancy - 4.0).abs() < 1e-9);
        assert_eq!(d.queue_depth, 3);
    }

    #[test]
    fn phases_accumulate() {
        let mut r = Registry::new(t(10), t(1));
        r.on_phase(Phase::Solve, 1_000);
        r.on_phase(Phase::Solve, 500);
        assert_eq!(r.phase_nanos(Phase::Solve), 1_500);
        assert_eq!(r.phase_calls(Phase::Solve), 2);
        assert_eq!(r.phase_calls(Phase::Route), 0);
    }

    #[test]
    fn solve_window_samples_stale_age() {
        let mut r = Registry::new(t(10), t(1));
        let m = collector();
        let solving = ControlSample {
            solve_started: Some(t(1)),
            reallocations: 1,
        };
        r.seal_step(t(2), &[], solving, &m); // age 1 s
        r.seal_step(t(3), &[], solving, &m); // age 2 s
        assert_eq!(r.window().unwrap().control, solving);
        r.on_solve_resolved(t(1), t(4)); // final age 3 s
        assert_eq!(r.stale_age().count(), 3);
        assert!(
            (r.stale_age().sum() - 6.0).abs() < 0.2,
            "{}",
            r.stale_age().sum()
        );
        // Sealing with no solve in flight samples nothing.
        seal(&mut r, t(5), &m);
        assert_eq!(r.stale_age().count(), 3);
        assert_eq!(r.window().unwrap().control, ControlSample::default());
    }

    #[test]
    fn window_reads_accuracy_and_violations_from_the_collector() {
        let mut r = Registry::new(t(10), t(1));
        let mut m = collector();
        m.record_served_query(ms(100), 1, ModelFamily::Bert, 0.9, true, ms(50));
        m.record_served_query(ms(200), 2, ModelFamily::Bert, 0.7, false, ms(250));
        m.record_dropped(ms(300), ModelFamily::Bert);
        seal(&mut r, t(1), &m);
        let w = r.window().unwrap();
        let cell = w.families[ModelFamily::Bert.index()];
        assert_eq!(cell.served(), 2);
        assert_eq!(cell.violations(), 2);
        assert!((cell.accuracy_sum - 1.6).abs() < 1e-12);
    }
}
