//! Offline trace analysis: per-query lifecycle reconstruction and
//! SLO-violation blame attribution.
//!
//! Both analyses operate on a recorded event stream (from a [`MemorySink`]
//! or a parsed JSONL file) and power the `trace-query` binary.
//!
//! [`MemorySink`]: crate::MemorySink

use proteus_profiler::DeviceId;
use proteus_sim::SimTime;

use crate::event::{DropReason, EventKind, TraceEvent};
use crate::span::{build_tree, harvest, window, Lane, Outcome, Scratch, Segment, SpanTree};

/// Returns every event relevant to one query, in stream order: the events
/// directly about it (`Arrived`, `Routed`, `Enqueued`, terminals) plus the
/// batch events (`BatchFormed`, `ExecStarted`, `ExecCompleted`) of every
/// batch it was a member of.
pub fn query_lifecycle(events: &[TraceEvent], query: u64) -> Vec<TraceEvent> {
    let mut batches: Vec<(DeviceId, u64)> = Vec::new();
    for e in events {
        if let EventKind::BatchFormed {
            device,
            batch,
            queries,
        } = &e.kind
        {
            if queries.contains(&query) {
                batches.push((*device, *batch));
            }
        }
    }
    events
        .iter()
        .filter(|e| match &e.kind {
            EventKind::BatchFormed { device, batch, .. }
            | EventKind::ExecStarted { device, batch, .. }
            | EventKind::ExecCompleted { device, batch } => batches.contains(&(*device, *batch)),
            kind => kind.query() == Some(query),
        })
        .cloned()
        .collect()
}

/// Aggregate lifecycle counts over a whole trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// `Arrived` events.
    pub arrived: u64,
    /// `ServedOnTime` terminals.
    pub served_on_time: u64,
    /// `ServedLate` terminals.
    pub served_late: u64,
    /// `Dropped` terminals.
    pub dropped: u64,
}

impl LifecycleStats {
    /// Counts lifecycle events in a trace.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = Self::default();
        for e in events {
            match e.kind {
                EventKind::Arrived { .. } => s.arrived += 1,
                EventKind::ServedOnTime { .. } => s.served_on_time += 1,
                EventKind::ServedLate { .. } => s.served_late += 1,
                EventKind::Dropped { .. } => s.dropped += 1,
                _ => {}
            }
        }
        s
    }

    /// Total terminal events.
    pub fn terminals(&self) -> u64 {
        self.served_on_time + self.served_late + self.dropped
    }

    /// SLO violations: late responses plus drops.
    pub fn violations(&self) -> u64 {
        self.served_late + self.dropped
    }
}

/// The dominant cause of one SLO violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlameCause {
    /// The worker was busy executing other batches while the query waited.
    Queueing,
    /// The worker was swapping model variants while the query waited.
    ModelLoad,
    /// The worker sat idle (or the batching policy held the query back)
    /// while the query waited — or execution time alone blew the deadline.
    BatchWait,
    /// The system rejected the query outright (full queue, no host, or the
    /// end-of-run drain).
    Shed,
    /// The query's device crashed and the salvage path could not place it
    /// anywhere else within the retry budget.
    DeviceFailure,
}

impl BlameCause {
    /// Every cause, in reporting order.
    pub const ALL: [BlameCause; 5] = [
        BlameCause::Queueing,
        BlameCause::ModelLoad,
        BlameCause::BatchWait,
        BlameCause::Shed,
        BlameCause::DeviceFailure,
    ];

    /// Stable label used in reports and tests.
    pub fn label(self) -> &'static str {
        match self {
            BlameCause::Queueing => "queueing",
            BlameCause::ModelLoad => "model_load",
            BlameCause::BatchWait => "batch_wait",
            BlameCause::Shed => "shed",
            BlameCause::DeviceFailure => "device_failure",
        }
    }
}

/// One classified SLO violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlameVerdict {
    /// The violating query.
    pub query: u64,
    /// When its terminal event occurred.
    pub at: SimTime,
    /// The dominant cause.
    pub cause: BlameCause,
    /// Portion of the wait window the worker spent executing other batches.
    pub queueing: SimTime,
    /// Portion of the wait window the worker spent loading a model.
    pub model_load: SimTime,
    /// Remainder of the wait window (idle worker / batching hold-back).
    pub batch_wait: SimTime,
    /// Overlap of the wait window with control-plane solve windows
    /// (`SolveStarted..until`): time the query waited while the system was
    /// still serving under a stale plan. Informational overlay — it does not
    /// participate in `cause` selection, since a solve window and (say) a
    /// busy worker can cover the same nanoseconds.
    pub stale_plan: SimTime,
}

/// Blame attribution over a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlameReport {
    /// One verdict per SLO violation, in terminal-event order.
    pub verdicts: Vec<BlameVerdict>,
}

impl BlameReport {
    /// Number of violations blamed on `cause`.
    pub fn count(&self, cause: BlameCause) -> usize {
        self.verdicts.iter().filter(|v| v.cause == cause).count()
    }

    /// Total classified violations.
    pub fn total(&self) -> usize {
        self.verdicts.len()
    }

    /// Violations whose wait window overlapped a control-plane solve window
    /// (any nonzero `stale_plan` component).
    pub fn stale_affected(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.stale_plan > SimTime::ZERO)
            .count()
    }
}

/// Classifies every SLO violation in the trace into exactly one
/// [`BlameCause`].
///
/// Violations are `ServedLate` and `Dropped` terminals. Drops caused by a
/// crashed device (`device_failed`) are blamed on the failure itself; the
/// remaining shed drops (`queue_full`, `no_host`, `drained`) are blamed on
/// admission directly.
/// For the rest, the verdict is read off the query's span tree (see
/// [`crate::span`]), whose sweep partitions the query's *wait window* —
/// from its final placement to the start of the batch that served it (late
/// responses) or to the drop instant (expiries) — against the worker's
/// recorded timeline:
///
/// * `load` spans → **model-load stall**;
/// * `queue` spans (other batches executing) → **queueing delay**;
/// * `batch_wait` and `stale_plan` spans together → **batch-wait** (the
///   worker was idle but the batching policy held the query back).
///
/// Independently of cause selection, each decomposed verdict also records
/// how much of its wait window overlapped a control-plane solve window
/// (`SolveStarted..until`, ended early when the next solve starts) as
/// [`BlameVerdict::stale_plan`] — time spent waiting while the system was
/// still serving under a stale plan.
///
/// The largest component wins; ties break queueing → model-load →
/// batch-wait. A zero-length window means waiting was not the problem:
/// late responses are blamed on batch-wait (execution time alone blew the
/// deadline) and expiries on queueing. Every violation therefore lands in
/// exactly one category by construction.
pub fn blame(events: &[TraceEvent]) -> BlameReport {
    let t = harvest(events);
    let mut scratch = Scratch::default();
    let mut verdicts = Vec::new();
    for &i in &t.terminals {
        let e = &events[i];
        if !matches!(
            e.kind,
            EventKind::ServedLate { .. } | EventKind::Dropped { .. }
        ) {
            continue;
        }
        if let Some(tree) = build_tree(&t, e, &mut scratch) {
            verdicts.push(BlameVerdict::of(&tree, &t.solves));
            scratch.recycle(tree);
        }
    }
    BlameReport { verdicts }
}

impl BlameVerdict {
    /// Blames the violation `tree` ends in. `solves` is the harvest's solve
    /// lane, for the stale-plan overlay.
    fn of(tree: &SpanTree, solves: &Lane<()>) -> Self {
        let totals = tree.totals();
        let (cause, [queueing, model_load, batch_wait]) =
            classify(tree.outcome, tree.device.is_some(), &totals);
        // The wait window follows the retry span and holds the wait
        // segments; the solve lane's windows never overlap each other, so
        // a plain sum is the true overlap.
        let s = tree.start + SimTime::from_nanos(totals[Segment::Retry as usize]);
        let e = s + SimTime::from_nanos(queueing + model_load + batch_wait);
        let stale_plan: u64 = window(Some(solves), s, e)
            .iter()
            .map(|&(a, b, ())| b.min(e).saturating_sub(a.max(s)).as_nanos())
            .sum();
        BlameVerdict {
            query: tree.query,
            at: tree.end,
            cause,
            queueing: SimTime::from_nanos(queueing),
            model_load: SimTime::from_nanos(model_load),
            batch_wait: SimTime::from_nanos(batch_wait),
            stale_plan: SimTime::from_nanos(stale_plan),
        }
    }
}

/// The cause of a violation ending in `outcome`, and its wait components
/// `[queueing, model_load, batch_wait]` in nanoseconds, from its span
/// tree's per-segment `totals`. `placed` is whether the query was ever
/// enqueued: an unplaced query has no wait window. Sheds and device
/// failures are not decomposed.
pub(crate) fn classify(
    outcome: Outcome,
    placed: bool,
    totals: &[u64; Segment::ALL.len()],
) -> (BlameCause, [u64; 3]) {
    let expired = match outcome {
        Outcome::Dropped(DropReason::DeviceFailed) => return (BlameCause::DeviceFailure, [0; 3]),
        Outcome::Dropped(reason) if reason.is_shed() => return (BlameCause::Shed, [0; 3]),
        Outcome::Dropped(_) => true,
        Outcome::Late | Outcome::OnTime => false,
    };
    let wait = if placed {
        let total = |segment: Segment| totals[segment as usize];
        [
            total(Segment::Queue),
            total(Segment::Load),
            total(Segment::BatchWait) + total(Segment::StalePlan),
        ]
    } else {
        [0; 3]
    };
    let [busy, load, idle] = wait;
    let cause = if busy + load + idle == 0 {
        if expired {
            BlameCause::Queueing
        } else {
            BlameCause::BatchWait
        }
    } else if busy >= load && busy >= idle {
        BlameCause::Queueing
    } else if load >= idle {
        BlameCause::ModelLoad
    } else {
        BlameCause::BatchWait
    };
    (cause, wait)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DiscardReason, ReplanCause};
    use proteus_profiler::{ModelFamily, VariantId};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ev(ms: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: t(ms), kind }
    }

    fn variant() -> VariantId {
        VariantId {
            family: ModelFamily::ResNet,
            index: 0,
        }
    }

    /// d0 serves q1 in batch 1 (0–100 ms), then q2 late in batch 2.
    fn busy_device_trace() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                0,
                EventKind::Arrived {
                    query: 2,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 2,
                    device: DeviceId(0),
                    depth: 2,
                    behind: None,
                },
            ),
            ev(
                0,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                0,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(100),
                },
            ),
            ev(
                100,
                EventKind::ExecCompleted {
                    device: DeviceId(0),
                    batch: 1,
                },
            ),
            ev(
                100,
                EventKind::ServedOnTime {
                    query: 1,
                    latency: t(100),
                    epoch: 0,
                },
            ),
            ev(
                100,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 2,
                    queries: vec![2],
                },
            ),
            ev(
                100,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 2,
                    variant: variant(),
                    size: 1,
                    until: t(200),
                },
            ),
            ev(
                200,
                EventKind::ExecCompleted {
                    device: DeviceId(0),
                    batch: 2,
                },
            ),
            ev(
                200,
                EventKind::ServedLate {
                    query: 2,
                    latency: t(200),
                    epoch: 0,
                },
            ),
        ]
    }

    #[test]
    fn lifecycle_includes_batch_events() {
        let events = busy_device_trace();
        let life = query_lifecycle(&events, 2);
        let names: Vec<&str> = life.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "arrived",
                "enqueued",
                "batch_formed",
                "exec_started",
                "exec_completed",
                "served_late"
            ]
        );
        // q1's lifecycle must not include q2's batch.
        let life1 = query_lifecycle(&events, 1);
        assert!(life1
            .iter()
            .all(|e| !matches!(e.kind, EventKind::ExecStarted { batch: 2, .. })));
    }

    #[test]
    fn stats_count_terminals() {
        let s = LifecycleStats::from_events(&busy_device_trace());
        assert_eq!(s.arrived, 2);
        assert_eq!(s.terminals(), 2);
        assert_eq!(s.violations(), 1);
    }

    #[test]
    fn late_behind_busy_worker_is_queueing() {
        let report = blame(&busy_device_trace());
        assert_eq!(report.total(), 1);
        let v = &report.verdicts[0];
        assert_eq!(v.query, 2);
        assert_eq!(v.cause, BlameCause::Queueing);
        assert_eq!(v.queueing, t(100));
        assert_eq!(v.model_load, SimTime::ZERO);
    }

    #[test]
    fn late_behind_model_load_is_blamed_on_load() {
        let events = vec![
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                0,
                EventKind::ModelLoadStarted {
                    device: DeviceId(0),
                    variant: Some(variant()),
                    until: t(900),
                },
            ),
            ev(
                900,
                EventKind::ModelLoadFinished {
                    device: DeviceId(0),
                },
            ),
            ev(
                900,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                900,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(950),
                },
            ),
            ev(
                950,
                EventKind::ServedLate {
                    query: 1,
                    latency: t(950),
                    epoch: 0,
                },
            ),
        ];
        let report = blame(&events);
        assert_eq!(report.verdicts[0].cause, BlameCause::ModelLoad);
        assert_eq!(report.verdicts[0].model_load, t(900));
    }

    #[test]
    fn idle_worker_wait_is_batch_wait() {
        // Worker does nothing for 500 ms while the query sits queued: the
        // batching policy held it back.
        let events = vec![
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                500,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                500,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(600),
                },
            ),
            ev(
                600,
                EventKind::ServedLate {
                    query: 1,
                    latency: t(600),
                    epoch: 0,
                },
            ),
        ];
        let report = blame(&events);
        assert_eq!(report.verdicts[0].cause, BlameCause::BatchWait);
        assert_eq!(report.verdicts[0].batch_wait, t(500));
    }

    #[test]
    fn shed_drops_are_shed_and_expiry_decomposes() {
        let events = vec![
            ev(
                0,
                EventKind::Dropped {
                    query: 1,
                    reason: DropReason::QueueFull,
                },
            ),
            ev(
                0,
                EventKind::Dropped {
                    query: 2,
                    reason: DropReason::NoHost,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 3,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            // d0 busy the whole time q3 waited → its expiry is queueing.
            ev(
                0,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(400),
                },
            ),
            ev(
                300,
                EventKind::Dropped {
                    query: 3,
                    reason: DropReason::Expired,
                },
            ),
            ev(
                900,
                EventKind::Dropped {
                    query: 4,
                    reason: DropReason::Drained,
                },
            ),
            ev(
                950,
                EventKind::Dropped {
                    query: 5,
                    reason: DropReason::DeviceFailed,
                },
            ),
        ];
        let report = blame(&events);
        assert_eq!(report.total(), 5);
        assert_eq!(report.count(BlameCause::Shed), 3);
        assert_eq!(report.count(BlameCause::Queueing), 1);
        assert_eq!(report.count(BlameCause::DeviceFailure), 1);
        let q3 = report.verdicts.iter().find(|v| v.query == 3).unwrap();
        assert_eq!(q3.queueing, t(300));
    }

    #[test]
    fn every_violation_gets_exactly_one_cause() {
        let mut events = busy_device_trace();
        events.push(ev(
            900,
            EventKind::Dropped {
                query: 9,
                reason: DropReason::Drained,
            },
        ));
        let stats = LifecycleStats::from_events(&events);
        let report = blame(&events);
        assert_eq!(report.total() as u64, stats.violations());
        let by_cause: usize = BlameCause::ALL.iter().map(|&c| report.count(c)).sum();
        assert_eq!(by_cause, report.total());
    }

    #[test]
    fn stale_plan_overlap_is_recorded_without_changing_cause() {
        // Same busy-device trace, but a solve window covers 50–180 ms: q2's
        // wait window (0–100 ms) overlaps it for 50 ms. The verdict stays
        // Queueing; the stale overlap is reported alongside.
        let mut events = busy_device_trace();
        events.insert(
            0,
            ev(
                50,
                EventKind::SolveStarted {
                    cause: ReplanCause::Periodic,
                    until: t(180),
                },
            ),
        );
        let report = blame(&events);
        assert_eq!(report.total(), 1);
        let v = &report.verdicts[0];
        assert_eq!(v.cause, BlameCause::Queueing);
        assert_eq!(v.stale_plan, t(50));
        assert_eq!(report.stale_affected(), 1);

        // Without the solve window nothing is stale-affected.
        let clean = blame(&busy_device_trace());
        assert_eq!(clean.stale_affected(), 0);
        assert_eq!(clean.verdicts[0].stale_plan, SimTime::ZERO);
    }

    #[test]
    fn discarded_solve_and_its_replacement_count_once() {
        // A solve opens at 10 planned until 80 and is superseded at 30 by
        // one until 90. q2 waits 0–100: it overlaps the union of the two
        // windows, 10–90, not the 70 + 60 ms they planned.
        let mut events = busy_device_trace();
        let solve = |ms, until| {
            ev(
                ms,
                EventKind::SolveStarted {
                    cause: ReplanCause::Periodic,
                    until: t(until),
                },
            )
        };
        events.splice(
            6..6,
            [
                solve(10, 80),
                solve(30, 90),
                ev(
                    30,
                    EventKind::PlanDiscarded {
                        cause: ReplanCause::Periodic,
                        reason: DiscardReason::Superseded,
                    },
                ),
                ev(
                    90,
                    EventKind::SolveComplete {
                        cause: ReplanCause::Periodic,
                    },
                ),
            ],
        );
        events.sort_by_key(|e| e.at);
        let report = blame(&events);
        assert_eq!(report.total(), 1);
        let v = &report.verdicts[0];
        assert_eq!(v.query, 2);
        assert_eq!(v.cause, BlameCause::Queueing);
        assert_eq!(v.stale_plan, t(80));
    }

    #[test]
    fn zero_window_late_response_is_batch_wait() {
        // Enqueued and executed at the same instant; the response was late
        // purely because execution itself was slow.
        let events = vec![
            ev(
                0,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                0,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                0,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(700),
                },
            ),
            ev(
                700,
                EventKind::ServedLate {
                    query: 1,
                    latency: t(700),
                    epoch: 0,
                },
            ),
        ];
        let report = blame(&events);
        assert_eq!(report.verdicts[0].cause, BlameCause::BatchWait);
    }
}
