//! Run-to-run trace diffing: align two recorded runs by query ID and
//! report what changed — per-segment latency deltas, blame-cause
//! migrations, and new or vanished SLO violations.
//!
//! Because the simulator is deterministic, two runs of the same build and
//! config produce identical traces; any delta this module reports is a
//! real behavioral change. That makes the diff a precise regression-triage
//! tool: record a baseline trace once, and `trace-query diff --check`
//! fails CI the moment a change shifts latency composition or violation
//! structure.

use std::collections::BTreeMap;

use proteus_sim::SimTime;

use crate::analysis::{classify, BlameCause};
use crate::event::TraceEvent;
use crate::span::{harvest, map_trees, Outcome, Segment, SpanTree};

/// Per-segment latency movement across the aligned queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDelta {
    /// The segment.
    pub segment: Segment,
    /// Total nanoseconds in this segment across run A's aligned queries.
    pub a_nanos: u64,
    /// Total nanoseconds in this segment across run B's aligned queries.
    pub b_nanos: u64,
}

impl SegmentDelta {
    /// Signed movement (B − A) in nanoseconds.
    pub fn delta_nanos(&self) -> i128 {
        i128::from(self.b_nanos) - i128::from(self.a_nanos)
    }
}

/// One blame-cause migration: violations present in both runs whose
/// dominant cause moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CauseMigration {
    /// Cause in run A.
    pub from: BlameCause,
    /// Cause in run B.
    pub to: BlameCause,
    /// Number of queries that migrated.
    pub count: usize,
}

/// The full comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Queries with a terminal event in both runs.
    pub aligned: usize,
    /// Terminal queries only in run A.
    pub only_a: usize,
    /// Terminal queries only in run B.
    pub only_b: usize,
    /// Per-segment totals over the aligned queries, in waterfall order.
    pub segments: Vec<SegmentDelta>,
    /// Total end-to-end nanoseconds over aligned queries, run A.
    pub total_a_nanos: u64,
    /// Total end-to-end nanoseconds over aligned queries, run B.
    pub total_b_nanos: u64,
    /// Aligned queries violating in B but not in A.
    pub new_violations: Vec<u64>,
    /// Aligned queries violating in A but not in B.
    pub vanished_violations: Vec<u64>,
    /// Blame-cause migrations among queries violating in both runs,
    /// sorted by (from, to) label for deterministic output.
    pub migrations: Vec<CauseMigration>,
}

impl DiffReport {
    /// Mean end-to-end latency over aligned queries, per run.
    pub fn mean_latency(&self) -> (SimTime, SimTime) {
        let n = self.aligned.max(1) as u64;
        (
            SimTime::from_nanos(self.total_a_nanos / n),
            SimTime::from_nanos(self.total_b_nanos / n),
        )
    }

    /// Relative end-to-end latency movement (B − A) / A, in percent.
    /// Zero when run A recorded no latency at all.
    pub fn regress_pct(&self) -> f64 {
        if self.total_a_nanos == 0 {
            return 0.0;
        }
        (self.total_b_nanos as f64 - self.total_a_nanos as f64) / self.total_a_nanos as f64 * 100.0
    }

    /// CI gate: true when run B regressed past the thresholds — more than
    /// `allow_new` new violations, or end-to-end latency up by more than
    /// `allow_regress_pct` percent.
    pub fn regressed(&self, allow_new: usize, allow_regress_pct: f64) -> bool {
        self.new_violations.len() > allow_new || self.regress_pct() > allow_regress_pct
    }
}

/// What the diff reads of one terminal's span tree.
struct Summary {
    query: u64,
    outcome: Outcome,
    /// Whether the query was ever enqueued.
    placed: bool,
    /// End-to-end latency, nanoseconds.
    observed: u64,
    /// Nanoseconds per segment, in [`Segment::ALL`] order.
    segments: [u64; Segment::ALL.len()],
}

impl Summary {
    fn of(tree: &SpanTree) -> Self {
        Self {
            query: tree.query,
            outcome: tree.outcome,
            placed: tree.device.is_some(),
            observed: tree.observed().as_nanos(),
            segments: tree.totals(),
        }
    }

    /// The blame cause of a violating terminal.
    fn cause(&self) -> BlameCause {
        classify(self.outcome, self.placed, &self.segments).0
    }
}

/// Index of one run: the summary of each terminal's span tree, with
/// `(query, position)` for the last terminal of each query id, sorted by
/// query id.
struct RunIndex {
    summaries: Vec<Summary>,
    last: Vec<(u64, usize)>,
}

fn index(events: &[TraceEvent]) -> RunIndex {
    let summaries = map_trees(&harvest(events), events, Summary::of);
    let mut last: Vec<(u64, usize)> = summaries.iter().map(|s| s.query).zip(0..).collect();
    last.sort_unstable();
    // Of equal ids keep the last position: the last terminal wins.
    last.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
    RunIndex { summaries, last }
}

/// Aligns two traces by query ID and computes the [`DiffReport`].
pub fn diff_traces(a: &[TraceEvent], b: &[TraceEvent]) -> DiffReport {
    let ia = index(a);
    let ib = index(b);

    let mut seg_a = [0u64; Segment::ALL.len()];
    let mut seg_b = [0u64; Segment::ALL.len()];
    let mut total_a = 0u64;
    let mut total_b = 0u64;
    let mut aligned = 0;
    let mut new_violations = Vec::new();
    let mut vanished_violations = Vec::new();
    let mut migration_counts: BTreeMap<
        (&'static str, &'static str),
        (BlameCause, BlameCause, usize),
    > = BTreeMap::new();

    // Merge the two id-sorted lists: shared ids come out in ascending order.
    let (mut i, mut j) = (0, 0);
    while let (Some(&(qa, pa)), Some(&(qb, pb))) = (ia.last.get(i), ib.last.get(j)) {
        if qa != qb {
            if qa < qb {
                i += 1;
            } else {
                j += 1;
            }
            continue;
        }
        i += 1;
        j += 1;
        aligned += 1;
        let (ta, tb) = (&ia.summaries[pa], &ib.summaries[pb]);
        total_a += ta.observed;
        total_b += tb.observed;
        for (sum, ns) in seg_a.iter_mut().zip(ta.segments) {
            *sum += ns;
        }
        for (sum, ns) in seg_b.iter_mut().zip(tb.segments) {
            *sum += ns;
        }
        match (ta.outcome.is_violation(), tb.outcome.is_violation()) {
            (false, true) => new_violations.push(qa),
            (true, false) => vanished_violations.push(qa),
            (true, true) => {
                let (ca, cb) = (ta.cause(), tb.cause());
                if ca != cb {
                    migration_counts
                        .entry((ca.label(), cb.label()))
                        .or_insert((ca, cb, 0))
                        .2 += 1;
                }
            }
            (false, false) => {}
        }
    }

    DiffReport {
        aligned,
        only_a: ia.last.len() - aligned,
        only_b: ib.last.len() - aligned,
        segments: Segment::ALL
            .into_iter()
            .map(|s| SegmentDelta {
                segment: s,
                a_nanos: seg_a[s as usize],
                b_nanos: seg_b[s as usize],
            })
            .collect(),
        total_a_nanos: total_a,
        total_b_nanos: total_b,
        new_violations,
        vanished_violations,
        migrations: migration_counts
            .into_values()
            .map(|(from, to, count)| CauseMigration { from, to, count })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, EventKind};
    use proteus_profiler::{DeviceId, ModelFamily, VariantId};

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

    /// One served query with `wait` ms of idle wait and 100 ms exec; late
    /// when `late` is set.
    fn run(query: u64, wait: u64, late: bool) -> Vec<TraceEvent> {
        let mut events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                wait,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 1,
                    queries: vec![query],
                },
            ),
            ev(
                wait,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 1,
                    variant: variant(),
                    size: 1,
                    until: t(wait + 100),
                },
            ),
        ];
        let done = wait + 100;
        events.push(ev(
            done,
            if late {
                EventKind::ServedLate {
                    query,
                    latency: t(done),
                    epoch: 1,
                }
            } else {
                EventKind::ServedOnTime {
                    query,
                    latency: t(done),
                    epoch: 1,
                }
            },
        ));
        events
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = run(1, 50, false);
        let d = diff_traces(&a, &a);
        assert_eq!(d.aligned, 1);
        assert_eq!(d.only_a, 0);
        assert_eq!(d.only_b, 0);
        assert!(d.new_violations.is_empty());
        assert!(d.vanished_violations.is_empty());
        assert!(d.migrations.is_empty());
        assert_eq!(d.regress_pct(), 0.0);
        assert!(!d.regressed(0, 0.0));
        for s in &d.segments {
            assert_eq!(s.delta_nanos(), 0);
        }
    }

    #[test]
    fn latency_regression_moves_segments_and_trips_the_gate() {
        let a = run(1, 50, false);
        let b = run(1, 250, true);
        let d = diff_traces(&a, &b);
        assert_eq!(d.aligned, 1);
        assert_eq!(d.new_violations, vec![1]);
        let bw = d
            .segments
            .iter()
            .find(|s| s.segment == Segment::BatchWait)
            .unwrap();
        assert_eq!(bw.delta_nanos(), i128::from(t(200).as_nanos()));
        assert!(d.regress_pct() > 100.0);
        assert!(d.regressed(0, 10.0));
        // The reverse diff reports the violation as vanished.
        let r = diff_traces(&b, &a);
        assert_eq!(r.vanished_violations, vec![1]);
        assert!(!r.regressed(0, 10.0));
    }

    #[test]
    fn cause_migrations_are_counted() {
        // A: late behind an idle worker (batch_wait). B: same query late
        // behind a busy worker (queueing).
        let a = run(1, 500, true);
        let mut b = run(1, 500, true);
        // Insert another batch occupying d0 for the whole wait.
        b.insert(
            2,
            ev(
                0,
                EventKind::ExecStarted {
                    device: DeviceId(0),
                    batch: 99,
                    variant: variant(),
                    size: 1,
                    until: t(500),
                },
            ),
        );
        let d = diff_traces(&a, &b);
        assert_eq!(d.migrations.len(), 1);
        let m = &d.migrations[0];
        assert_eq!(m.from, BlameCause::BatchWait);
        assert_eq!(m.to, BlameCause::Queueing);
        assert_eq!(m.count, 1);
    }

    #[test]
    fn unaligned_queries_are_counted_not_compared() {
        let a = run(1, 50, false);
        let mut b = run(2, 50, false);
        b.extend(vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Dropped {
                    query: 1,
                    reason: DropReason::QueueFull,
                },
            ),
        ]);
        let d = diff_traces(&a, &b);
        // q1 is terminal in both (served vs dropped): aligned, new violation.
        assert_eq!(d.aligned, 1);
        assert_eq!(d.only_b, 1);
        assert_eq!(d.new_violations, vec![1]);
    }

    #[test]
    fn duplicate_terminals_keep_the_last_and_count_distinct_ids() {
        let drop = |ms: u64, query: u64| {
            ev(
                ms,
                EventKind::Dropped {
                    query,
                    reason: DropReason::QueueFull,
                },
            )
        };
        // A: q1 served late, then shed; q3 (only in A) terminal twice.
        let mut a = run(1, 500, true);
        a.extend([drop(700, 1), drop(1, 3), drop(2, 3)]);
        // B: q1 served late behind an idle worker.
        let b = run(1, 500, true);
        let d = diff_traces(&a, &b);
        assert_eq!((d.aligned, d.only_a, d.only_b), (1, 1, 0));
        // A's last q1 terminal (the shed at 700 ms) is the one compared.
        assert_eq!(d.total_a_nanos, t(700).as_nanos());
        assert_eq!(d.migrations.len(), 1);
        assert_eq!(d.migrations[0].from, BlameCause::Shed);
        assert_eq!(d.migrations[0].to, BlameCause::BatchWait);
        // The reverse direction: a late run-A terminal followed by an
        // on-time one aligns as on time.
        let mut c = run(1, 500, true);
        c.extend(run(1, 50, false).into_iter().skip(4));
        let r = diff_traces(&b, &c);
        assert_eq!(r.vanished_violations, vec![1]);
        assert!(r.migrations.is_empty());
    }
}
