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
use crate::span::{harvest, window, Outcome, Timelines};

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
/// For the rest, the query's *wait window* — from its (last) `Enqueued` to
/// the start of the batch that served it (late responses) or to the drop
/// instant (expiries) — is decomposed against the worker's recorded
/// timeline:
///
/// * overlap with `ModelLoadStarted..until` intervals → **model-load stall**;
/// * overlap with *other* batches' `ExecStarted..until` intervals →
///   **queueing delay**;
/// * the remainder → **batch-wait** (the worker was idle but the batching
///   policy held the query back).
///
/// Independently of cause selection, each decomposed verdict also records
/// how much of its wait window overlapped a control-plane solve window
/// (`SolveStarted..until`) as [`BlameVerdict::stale_plan`] — time spent
/// waiting while the system was still serving under a stale plan.
///
/// The largest component wins; ties break queueing → model-load →
/// batch-wait. A zero-length window means waiting was not the problem:
/// late responses are blamed on batch-wait (execution time alone blew the
/// deadline) and expiries on queueing. Every violation therefore lands in
/// exactly one category by construction.
pub fn blame(events: &[TraceEvent]) -> BlameReport {
    let t = harvest(events);
    let verdicts = t
        .terminals
        .iter()
        .filter_map(|&i| {
            let e = &events[i];
            let (query, outcome) = match e.kind {
                EventKind::ServedLate { query, .. } => (query, Outcome::Late),
                EventKind::Dropped { query, reason } => (query, Outcome::Dropped(reason)),
                _ => return None,
            };
            Some(verdict(&t, query, e.at, outcome))
        })
        .collect();
    BlameReport { verdicts }
}

/// Blames the violation `query` ended in at `at`: a late response or a
/// drop (`outcome` is never `OnTime`). Each overlap sum runs over the
/// lane's windowed slice only: intervals outside it overlap the wait
/// window by zero.
pub(crate) fn verdict(t: &Timelines, query: u64, at: SimTime, outcome: Outcome) -> BlameVerdict {
    let overlap = |a0: SimTime, a1: SimTime, b0: SimTime, b1: SimTime| -> u64 {
        let lo = a0.max(b0).as_nanos();
        let hi = a1.min(b1).as_nanos();
        hi.saturating_sub(lo)
    };
    let undecomposed = |cause| BlameVerdict {
        query,
        at,
        cause,
        queueing: SimTime::ZERO,
        model_load: SimTime::ZERO,
        batch_wait: SimTime::ZERO,
        stale_plan: SimTime::ZERO,
    };
    let record = t.query(query);
    let own_batch = record.serving;
    let (window_end, expired) = match outcome {
        Outcome::Dropped(DropReason::DeviceFailed) => {
            return undecomposed(BlameCause::DeviceFailure)
        }
        Outcome::Dropped(reason) if reason.is_shed() => return undecomposed(BlameCause::Shed),
        Outcome::Dropped(_) => (Some(at), true),
        Outcome::Late | Outcome::OnTime => (own_batch.and_then(|slot| t.batch_start(slot)), false),
    };

    let (start, device) = match record.placement {
        Some((enq_at, d, _)) => (enq_at, d.0),
        // Never enqueued (shouldn't happen for non-shed terminals):
        // treat as a zero-length window.
        None => (at, u32::MAX),
    };
    let end = window_end.unwrap_or(start);
    let lanes = t.devices.get(&device);

    let load_ns: u64 = window(lanes.map(|l| &l.loads), start, end)
        .iter()
        .map(|&(a, b, _)| overlap(start, end, a, b))
        .sum();
    let busy_ns: u64 = window(lanes.map(|l| &l.execs), start, end)
        .iter()
        .filter(|&&(_, _, slot)| own_batch != Some(slot))
        .map(|&(a, b, _)| overlap(start, end, a, b))
        .sum();
    let window_ns = end.saturating_sub(start).as_nanos();
    let wait_ns = window_ns.saturating_sub(load_ns + busy_ns);
    // Solve windows never overlap each other (at most one solve is in
    // flight), so a plain sum is the true overlap.
    let stale_ns: u64 = window(Some(&t.solves), start, end)
        .iter()
        .map(|&(a, b, ())| overlap(start, end, a, b))
        .sum();

    let cause = if window_ns == 0 {
        if expired {
            BlameCause::Queueing
        } else {
            BlameCause::BatchWait
        }
    } else if busy_ns >= load_ns && busy_ns >= wait_ns {
        BlameCause::Queueing
    } else if load_ns >= wait_ns {
        BlameCause::ModelLoad
    } else {
        BlameCause::BatchWait
    };

    BlameVerdict {
        query,
        at,
        cause,
        queueing: SimTime::from_nanos(busy_ns),
        model_load: SimTime::from_nanos(load_ns),
        batch_wait: SimTime::from_nanos(wait_ns),
        stale_plan: SimTime::from_nanos(stale_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplanCause;
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
