//! Causal span layer: folds the flat event stream into one span tree per
//! query, with typed causal edges and an additive critical-path
//! decomposition of end-to-end latency.
//!
//! The flat recorder answers "what happened"; this module answers *why a
//! query took as long as it did*. For every terminal query it reconstructs
//! a timeline from arrival to terminal event and partitions every
//! nanosecond of it into exactly one [`Segment`]:
//!
//! * **retry** — time before the query's final placement (crash salvage,
//!   plan-displacement re-enqueues);
//! * **queue** — the target worker was executing *other* batches;
//! * **load** — the target worker was swapping model variants;
//! * **stale-plan** — the worker sat idle while a control-plane solve
//!   window was open (the system was serving under a stale plan);
//! * **batch-wait** — the worker was idle with no excuse (the batching
//!   policy held the query back);
//! * **exec** — the query's own batch was executing.
//!
//! The partition is computed by a boundary sweep over the worker's
//! recorded intervals, so the segments are disjoint and tile the whole
//! timeline: **they sum to the observed end-to-end latency exactly**, by
//! construction ([`SpanTree::invariant_gap`] is zero on every query of
//! every trace — the property tests in `proteus-core` drive this over
//! chaos schedules).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::event::{DropReason, EventKind, TraceEvent};

/// One additive critical-path segment class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Pre-placement time: crash salvage and displacement re-enqueues.
    Retry,
    /// The worker was busy executing other batches.
    Queue,
    /// The worker was loading a model variant.
    Load,
    /// The worker was idle inside an open solve window (stale plan).
    StalePlan,
    /// The worker was idle with no open solve window.
    BatchWait,
    /// The query's own batch was executing.
    Exec,
}

impl Segment {
    /// Every segment, in waterfall order.
    pub const ALL: [Segment; 6] = [
        Segment::Retry,
        Segment::Queue,
        Segment::Load,
        Segment::StalePlan,
        Segment::BatchWait,
        Segment::Exec,
    ];

    /// Stable label used in reports, flame stacks and diffs.
    pub fn label(self) -> &'static str {
        match self {
            Segment::Retry => "retry",
            Segment::Queue => "queue",
            Segment::Load => "load",
            Segment::StalePlan => "stale_plan",
            Segment::BatchWait => "batch_wait",
            Segment::Exec => "exec",
        }
    }

    /// Parses a label back into a segment.
    pub fn parse(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// How the query's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Served within its SLO.
    OnTime,
    /// Served after the deadline.
    Late,
    /// Never served.
    Dropped(DropReason),
}

impl Outcome {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::OnTime => "on_time",
            Outcome::Late => "late",
            Outcome::Dropped(_) => "dropped",
        }
    }

    /// Whether this outcome violates the SLO.
    pub fn is_violation(self) -> bool {
        !matches!(self, Outcome::OnTime)
    }
}

/// A typed causal edge explaining part of a query's latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CausalEdge {
    /// The query entered a queue while `batch` was executing: it could not
    /// start before that batch drained.
    QueuedBehind {
        /// The batch executing on the worker at enqueue time.
        batch: u64,
    },
    /// The query waited while its worker loaded a variant.
    WaitedOnLoad {
        /// The loading worker.
        device: DeviceId,
        /// The variant being loaded (`None` = unload).
        variant: Option<VariantId>,
        /// Wait-window time spent under the load.
        stall: SimTime,
    },
    /// The query waited idle under an open solve window and was served
    /// under the plan that eventually committed.
    ServedUnderStalePlan {
        /// Plan epoch (count of applied plans) in force at serve time.
        epoch: u64,
        /// Idle wait-window time inside open solve windows.
        overlap: SimTime,
    },
    /// The query was salvaged from a crashed device and re-placed.
    RetriedAfterCrash {
        /// The device it was salvaged from.
        device: DeviceId,
        /// 1-based retry attempt.
        attempt: u32,
    },
}

/// One contiguous, single-segment interval of a query's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The segment class covering this interval.
    pub segment: Segment,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

impl Span {
    /// Interval length.
    pub fn dur(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// The reconstructed span tree of one terminal query: its timeline tiled
/// by [`Span`]s, the per-segment totals, and the causal edges explaining
/// the expensive parts.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The query.
    pub query: u64,
    /// Arrival instant (timeline start).
    pub start: SimTime,
    /// Terminal instant (timeline end).
    pub end: SimTime,
    /// How the lifecycle ended.
    pub outcome: Outcome,
    /// The query's model family, when the trace recorded its arrival.
    pub family: Option<ModelFamily>,
    /// The worker of its final placement, if it was ever enqueued.
    pub device: Option<DeviceId>,
    /// Plan epoch it was served under (0 for drops and pre-epoch traces).
    pub epoch: u64,
    /// Disjoint spans tiling `start..end`, in time order.
    pub spans: Vec<Span>,
    /// Typed causal edges, in discovery order.
    pub edges: Vec<CausalEdge>,
}

impl SpanTree {
    /// End-to-end observed latency (terminal − arrival).
    pub fn observed(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Total time attributed to one segment class.
    pub fn segment_total(&self, segment: Segment) -> SimTime {
        SimTime::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.segment == segment)
                .map(|s| s.dur().as_nanos())
                .sum(),
        )
    }

    /// Nanoseconds by which the segment sum misses the observed latency.
    /// Zero on every query by construction; the property tests assert it.
    pub fn invariant_gap(&self) -> u64 {
        let sum: u64 = self.spans.iter().map(|s| s.dur().as_nanos()).sum();
        sum.abs_diff(self.observed().as_nanos())
    }

    /// The segment holding the single largest share of the latency
    /// (ties break in waterfall order).
    pub fn dominant(&self) -> Segment {
        let mut best = Segment::Retry;
        let mut best_ns = 0u64;
        for s in Segment::ALL {
            let ns = self.segment_total(s).as_nanos();
            if ns > best_ns {
                best = s;
                best_ns = ns;
            }
        }
        best
    }
}

/// One interval lane (a device's executions or loads, or the solve
/// windows), indexed so that the intervals able to overlap a query's wait
/// window form one contiguous slice.
///
/// Intervals are sorted by start; `reach[i]` is the largest end among
/// `intervals[..=i]`. Ends alone are not monotone — a batch salvaged from a
/// crash can end after the next batch on the same device starts — but
/// `reach` is, so both edges of a window are searches over sorted values.
pub(crate) struct Lane<T> {
    /// `(start, until, payload)`, sorted by start.
    intervals: Vec<(SimTime, SimTime, T)>,
    /// Prefix maximum of the ends.
    reach: Vec<SimTime>,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Self {
            intervals: Vec::new(),
            reach: Vec::new(),
        }
    }
}

impl<T> Lane<T> {
    fn push(&mut self, start: SimTime, until: SimTime, payload: T) {
        self.intervals.push((start, until, payload));
    }

    /// Sorts by start (stable: a time-ordered trace is already sorted, so
    /// this keeps trace order) and builds the prefix-max of the ends.
    fn seal(&mut self) {
        self.intervals.sort_by_key(|&(start, _, _)| start);
        let mut reach = SimTime::ZERO;
        self.reach = self
            .intervals
            .iter()
            .map(|&(_, until, _)| {
                reach = reach.max(until);
                reach
            })
            .collect();
    }
}

/// The intervals of `lane` that can overlap `[s, e)`, in lane order: from
/// the first whose `reach` passes `s` up to the first that starts at or
/// after `e`. Every interval left out has no overlap with `[s, e)`. A
/// device with no lane has no intervals.
pub(crate) fn window<T>(
    lane: Option<&Lane<T>>,
    s: SimTime,
    e: SimTime,
) -> &[(SimTime, SimTime, T)] {
    let Some(lane) = lane else {
        return &[];
    };
    let hi = lane.intervals.partition_point(|&(start, _, _)| start < e);
    // The window's first interval is usually a few before `hi`: search
    // back from there in doubling steps, then bisect the last step.
    let reach = &lane.reach[..hi];
    let mut back = 1;
    while back <= hi && reach[hi - back] > s {
        back *= 2;
    }
    let from = hi.saturating_sub(back);
    let lo = from + reach[from..].partition_point(|&r| r <= s);
    &lane.intervals[lo..hi]
}

/// One device's interval lanes.
#[derive(Default)]
pub(crate) struct DeviceLanes {
    /// Execution intervals, payload = batch slot (see [`Timelines::batch`]).
    pub(crate) execs: Lane<u32>,
    /// Load intervals, payload = variant (`None` = unload).
    pub(crate) loads: Lane<Option<VariantId>>,
}

/// What the trace says about one query.
#[derive(Default)]
pub(crate) struct QueryRecord {
    /// Arrival `(at, family)`: the first `Arrived`.
    arrived: Option<(SimTime, ModelFamily)>,
    /// Final placement `(at, device, behind)`: the last `Enqueued`, the
    /// queue the query is actually served (or dies) in.
    pub(crate) placement: Option<(SimTime, DeviceId, Option<u64>)>,
    /// Slot of the last batch it joined: the one that served it.
    pub(crate) serving: Option<u32>,
    /// What only crashes leave behind; most queries have none.
    salvage: Option<Box<Salvage>>,
}

/// The crash history of one query.
#[derive(Default)]
struct Salvage {
    /// Slots of the earlier batches it joined, which crashes rolled back.
    rolled_back: Vec<u32>,
    /// Crash-salvage retries `(from, attempt)`.
    retries: Vec<(DeviceId, u32)>,
}

impl QueryRecord {
    fn salvage(&mut self) -> &mut Salvage {
        self.salvage.get_or_insert_with(Box::default)
    }
}

/// The record of a query the trace never mentions outside its terminal.
const UNSEEN: QueryRecord = QueryRecord {
    arrived: None,
    placement: None,
    serving: None,
    salvage: None,
};

/// Per-device interval timelines and per-query records harvested in one
/// pass over the trace. Shared by the span layer and
/// [`blame`](crate::analysis::blame).
#[derive(Default)]
pub(crate) struct Timelines {
    /// Device → its exec and load lanes.
    pub(crate) devices: IdMap<u32, DeviceLanes>,
    /// Open solve windows (never overlapping: at most one solve is in
    /// flight).
    pub(crate) solves: Lane<()>,
    /// Query id → slot in `queries`.
    ids: QueryIds,
    queries: Vec<QueryRecord>,
    /// `(device, batch)` → slot in `batch_starts`.
    batch_ids: Slots<(u32, u64)>,
    /// Each batch's exec start (the last `ExecStarted`), if it started.
    batch_starts: Vec<Option<SimTime>>,
    /// Positions of the terminal events in the trace, in trace order.
    pub(crate) terminals: Vec<usize>,
}

/// The hasher of the analysis pass's id maps: one multiply-rotate step per
/// word (FxHash-style) instead of SipHash. Its keys are small integers the
/// trace names, and SipHash cost more than the lookups around it. A trace
/// crafted to collide can slow the lookups down, never change a result;
/// `trace-query` reads the user's own files.
#[derive(Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// The map picks the bucket from the low bits, but a product's low
    /// bits see only the key's low bits (every multiple of 2³² would share
    /// one bucket), so the well-mixed high bits are rotated down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Dense `u32` slots for batch ids, handed out in first-mention order,
/// with the last lookup remembered: the events about one batch (forming,
/// start) usually come back to back.
#[derive(Default)]
struct Slots<K> {
    map: IdMap<K, u32>,
    last: Option<(K, u32)>,
}

impl<K: Copy + Eq + std::hash::Hash> Slots<K> {
    /// The slot of `key`, and whether this is its first mention.
    fn slot(&mut self, key: K) -> (u32, bool) {
        if let Some((last, slot)) = self.last {
            if last == key {
                return (slot, false);
            }
        }
        // `u32` keeps records small. A trace reaching 2³² ids would hold
        // hundreds of gigabytes of parsed events first.
        let next = u32::try_from(self.map.len()).unwrap_or(u32::MAX);
        let slot = *self.map.entry(key).or_insert(next);
        self.last = Some((key, slot));
        (slot, slot == next)
    }
}

/// Query id → dense `u32` slot, handed out in first-mention order.
///
/// The engine numbers its queries 0, 1, 2, …, so an id below twice the
/// number of queries seen plus [`DENSE_SLACK`] indexes `dense` directly.
/// The passes that look queries up go in roughly id order (the harvest's
/// arrivals and batches, the trees' terminals), so they walk the index in
/// order instead of hashing into it at random, and the index costs at most
/// a few bytes per query. Any other id goes to `sparse`.
#[derive(Default)]
struct QueryIds {
    /// Slot by id; [`ABSENT`] where the id is not (yet) in this range.
    dense: Vec<u32>,
    /// Slot by id, for the ids outside the dense range when first seen.
    sparse: IdMap<u64, u32>,
    /// Slots handed out.
    len: u32,
}

/// How far the dense range reaches past twice the query count.
const DENSE_SLACK: u64 = 4096;

/// A `dense` entry with no query.
const ABSENT: u32 = u32::MAX;

impl QueryIds {
    fn get(&self, id: u64) -> Option<u32> {
        match usize::try_from(id).ok().and_then(|i| self.dense.get(i)) {
            Some(&slot) if slot != ABSENT => Some(slot),
            // An id can sit in `sparse` and later fall inside the grown
            // dense range.
            _ => self.sparse.get(&id).copied(),
        }
    }

    /// The slot of `id`, and whether this is its first mention.
    fn slot(&mut self, id: u64) -> (u32, bool) {
        if let Some(slot) = self.get(id) {
            return (slot, false);
        }
        // `u32` keeps records small. A trace reaching 2³² ids would hold
        // hundreds of gigabytes of parsed events first.
        let slot = self.len;
        self.len = self.len.saturating_add(1);
        let bound = 2 * u64::from(self.len) + DENSE_SLACK;
        match usize::try_from(id).ok().filter(|_| id < bound) {
            Some(i) => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, ABSENT);
                }
                self.dense[i] = slot;
            }
            None => {
                self.sparse.insert(id, slot);
            }
        }
        (slot, true)
    }
}

impl Timelines {
    /// The record of `query`, created empty on first mention.
    fn query_mut(&mut self, query: u64) -> &mut QueryRecord {
        let (slot, new) = self.ids.slot(query);
        if new {
            self.queries.push(QueryRecord::default());
        }
        &mut self.queries[slot as usize]
    }

    /// The record of `query`; empty when the trace never mentioned it.
    pub(crate) fn query(&self, query: u64) -> &QueryRecord {
        self.ids
            .get(query)
            .map_or(&UNSEEN, |slot| &self.queries[slot as usize])
    }

    /// The slot of batch `batch` on `device`, created on first mention.
    fn batch(&mut self, device: DeviceId, batch: u64) -> u32 {
        let (slot, new) = self.batch_ids.slot((device.0, batch));
        if new {
            self.batch_starts.push(None);
        }
        slot
    }

    /// The exec start of the batch in `slot`, if it started.
    pub(crate) fn batch_start(&self, slot: u32) -> Option<SimTime> {
        self.batch_starts[slot as usize]
    }
}

/// Harvests the lanes and records of a trace in one pass. The indexes grow
/// as they fill: sizing them first took a second pass over the events that
/// cost more than the rehashing it saved.
pub(crate) fn harvest(events: &[TraceEvent]) -> Timelines {
    let mut t = Timelines::default();
    for (i, e) in events.iter().enumerate() {
        match &e.kind {
            EventKind::Arrived { query, family } => {
                t.query_mut(*query).arrived.get_or_insert((e.at, *family));
            }
            EventKind::Enqueued {
                query,
                device,
                behind,
                ..
            } => {
                t.query_mut(*query).placement = Some((e.at, *device, *behind));
            }
            EventKind::BatchFormed {
                device,
                batch,
                queries,
            } => {
                let slot = t.batch(*device, *batch);
                for q in queries {
                    let record = t.query_mut(*q);
                    if let Some(earlier) = record.serving.replace(slot) {
                        record.salvage().rolled_back.push(earlier);
                    }
                }
            }
            EventKind::ExecStarted {
                device,
                batch,
                until,
                ..
            } => {
                let slot = t.batch(*device, *batch);
                t.batch_starts[slot as usize] = Some(e.at);
                t.devices
                    .entry(device.0)
                    .or_default()
                    .execs
                    .push(e.at, *until, slot);
            }
            EventKind::ModelLoadStarted {
                device,
                variant,
                until,
            } => {
                t.devices
                    .entry(device.0)
                    .or_default()
                    .loads
                    .push(e.at, *until, *variant);
            }
            EventKind::SolveStarted { until, .. } => {
                t.solves.push(e.at, *until, ());
            }
            EventKind::QueryRetried {
                query,
                from,
                attempt,
            } => {
                t.query_mut(*query)
                    .salvage()
                    .retries
                    .push((*from, *attempt));
            }
            EventKind::ServedOnTime { .. }
            | EventKind::ServedLate { .. }
            | EventKind::Dropped { .. } => t.terminals.push(i),
            _ => {}
        }
    }
    for lanes in t.devices.values_mut() {
        lanes.execs.seal();
        lanes.loads.seal();
    }
    t.solves.seal();
    t
}

/// Wait-window coverage classes, in precedence order (highest first).
/// An elementary sub-interval covered by several classes is charged to the
/// highest one, which keeps the partition disjoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    OwnExec,
    OtherExec,
    Load,
    Solve,
}

impl Class {
    fn segment(self) -> Segment {
        match self {
            Class::OwnExec => Segment::Exec,
            Class::OtherExec => Segment::Queue,
            Class::Load => Segment::Load,
            Class::Solve => Segment::StalePlan,
        }
    }
}

/// Partitions `[start, end)` against classed intervals by a boundary
/// sweep, appending one span per elementary sub-interval (uncovered time
/// becomes `BatchWait`). Adjacent spans of the same segment are merged.
/// `cuts` is scratch space.
fn sweep(
    start: SimTime,
    end: SimTime,
    intervals: &[(SimTime, SimTime, Class)],
    cuts: &mut Vec<u64>,
    out: &mut Vec<Span>,
) {
    if end <= start {
        return;
    }
    let (s, e) = (start.as_nanos(), end.as_nanos());
    cuts.clear();
    cuts.extend([s, e]);
    for &(a, b, _) in intervals {
        let (a, b) = (a.as_nanos(), b.as_nanos());
        if b > s && a < e {
            cuts.push(a.clamp(s, e));
            cuts.push(b.clamp(s, e));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let class = intervals
            .iter()
            .filter(|&&(a, b, _)| a.as_nanos() <= lo && b.as_nanos() >= hi)
            .map(|&(_, _, c)| c)
            .min();
        let segment = class.map_or(Segment::BatchWait, Class::segment);
        push_span(out, segment, lo, hi);
    }
}

/// Appends a span, merging with the previous one when contiguous and of
/// the same segment.
fn push_span(out: &mut Vec<Span>, segment: Segment, lo: u64, hi: u64) {
    if hi <= lo {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.segment == segment && last.end.as_nanos() == lo {
            last.end = SimTime::from_nanos(hi);
            return;
        }
    }
    out.push(Span {
        segment,
        start: SimTime::from_nanos(lo),
        end: SimTime::from_nanos(hi),
    });
}

/// Buffers one tree leaves behind for the next: the sweep's, and the span
/// and edge lists of a tree handed back by [`Scratch::recycle`].
#[derive(Default)]
struct Scratch {
    intervals: Vec<(SimTime, SimTime, Class)>,
    cuts: Vec<u64>,
    spans: Vec<Span>,
    edges: Vec<CausalEdge>,
}

impl Scratch {
    /// Keeps the lists of a tree that is no longer needed for the next.
    fn recycle(&mut self, tree: SpanTree) {
        (self.spans, self.edges) = (tree.spans, tree.edges);
        self.spans.clear();
        self.edges.clear();
    }
}

/// Builds the span tree of one terminal event. `terminal` is the
/// `Served*`/`Dropped` event; returns `None` for non-terminal kinds.
fn build_tree(t: &Timelines, terminal: &TraceEvent, scratch: &mut Scratch) -> Option<SpanTree> {
    let (query, outcome, epoch) = match &terminal.kind {
        EventKind::ServedOnTime { query, epoch, .. } => (*query, Outcome::OnTime, *epoch),
        EventKind::ServedLate { query, epoch, .. } => (*query, Outcome::Late, *epoch),
        EventKind::Dropped { query, reason } => (*query, Outcome::Dropped(*reason), 0),
        _ => return None,
    };
    let end = terminal.at;
    let record = t.query(query);
    let (start, family) = record.arrived.map_or((end, None), |(at, f)| (at, Some(f)));
    let device = record.placement.map(|(_, d, _)| d);
    let (rolled_back, retries) = record
        .salvage
        .as_deref()
        .map_or((&[][..], &[][..]), |s| (&s.rolled_back[..], &s.retries[..]));
    let own = |slot| record.serving == Some(slot) || rolled_back.contains(&slot);
    let mut spans = std::mem::take(&mut scratch.spans);
    let mut edges = std::mem::take(&mut scratch.edges);

    for &(from, attempt) in retries {
        edges.push(CausalEdge::RetriedAfterCrash {
            device: from,
            attempt,
        });
    }

    if let Some((enq_at, dev, behind)) = record.placement {
        let enq_at = enq_at.clamp(start, end);
        // Everything before the final placement is retry/displacement.
        push_span(
            &mut spans,
            Segment::Retry,
            start.as_nanos(),
            enq_at.as_nanos(),
        );
        if let Some(batch) = behind {
            edges.push(CausalEdge::QueuedBehind { batch });
        }
        // The wait window closes at the serving batch's exec start (served
        // queries) or at the terminal instant (drops).
        let exec_start = record
            .serving
            .and_then(|slot| t.batch_start(slot))
            .filter(|&at| at >= enq_at && at <= end);
        let window_end = exec_start.unwrap_or(end);

        // Only the lanes' windowed slices can overlap the wait window;
        // everything else would add no cut and cover no sub-interval.
        let lanes = t.devices.get(&dev.0);
        let loads = window(lanes.map(|l| &l.loads), enq_at, window_end);
        let intervals = &mut scratch.intervals;
        intervals.clear();
        for &(a, b, slot) in window(lanes.map(|l| &l.execs), enq_at, window_end) {
            let class = if own(slot) {
                Class::OwnExec
            } else {
                Class::OtherExec
            };
            intervals.push((a, b, class));
        }
        for &(a, b, _) in loads {
            intervals.push((a, b, Class::Load));
        }
        for &(a, b, ()) in window(Some(&t.solves), enq_at, window_end) {
            intervals.push((a, b, Class::Solve));
        }
        sweep(enq_at, window_end, intervals, &mut scratch.cuts, &mut spans);
        // The query's own execution: exec start → terminal.
        push_span(
            &mut spans,
            Segment::Exec,
            window_end.as_nanos(),
            end.as_nanos(),
        );

        // Edges for the expensive wait classes.
        let load_total: u64 = spans
            .iter()
            .filter(|s| s.segment == Segment::Load)
            .map(|s| s.dur().as_nanos())
            .sum();
        if load_total > 0 {
            // Blame the load with the largest clipped overlap (the last of
            // equal maxima). Every load with nonzero overlap is in the
            // window, in lane order.
            let best = loads
                .iter()
                .map(|&(a, b, v)| {
                    let lo = a.max(enq_at).as_nanos();
                    let hi = b.min(window_end).as_nanos();
                    (hi.saturating_sub(lo), v)
                })
                .max_by_key(|&(overlap, _)| overlap)
                .and_then(|(_, v)| v);
            edges.push(CausalEdge::WaitedOnLoad {
                device: dev,
                variant: best,
                stall: SimTime::from_nanos(load_total),
            });
        }
        let stale_total: u64 = spans
            .iter()
            .filter(|s| s.segment == Segment::StalePlan)
            .map(|s| s.dur().as_nanos())
            .sum();
        if stale_total > 0 {
            edges.push(CausalEdge::ServedUnderStalePlan {
                epoch,
                overlap: SimTime::from_nanos(stale_total),
            });
        }
    } else {
        // Never enqueued (sheds at admission): the whole — usually empty —
        // timeline is retry-free batch-wait.
        push_span(
            &mut spans,
            Segment::BatchWait,
            start.as_nanos(),
            end.as_nanos(),
        );
    }

    let tree = SpanTree {
        query,
        start,
        end,
        outcome,
        family,
        device,
        epoch,
        spans,
        edges,
    };
    debug_assert_eq!(tree.invariant_gap(), 0, "query {query} segments must tile");
    Some(tree)
}

/// Folds a trace into one span tree per terminal query, in terminal-event
/// order.
pub fn span_trees(events: &[TraceEvent]) -> Vec<SpanTree> {
    map_trees(&harvest(events), events, SpanTree::clone)
}

/// Builds the span tree of every terminal in `t`, in terminal-event order,
/// and hands each to `f`: [`span_trees`] keeps a copy of each tree, the
/// diff folds each into a fixed-size summary. One tree's span and edge
/// lists are reused for the next.
pub(crate) fn map_trees<T>(
    t: &Timelines,
    events: &[TraceEvent],
    mut f: impl FnMut(&SpanTree) -> T,
) -> Vec<T> {
    let mut scratch = Scratch::default();
    let mut out = Vec::with_capacity(t.terminals.len());
    for &i in &t.terminals {
        if let Some(tree) = build_tree(t, &events[i], &mut scratch) {
            out.push(f(&tree));
            scratch.recycle(tree);
        }
    }
    out
}

/// The span tree of one query, if it reached a terminal event.
pub fn span_tree(events: &[TraceEvent], query: u64) -> Option<SpanTree> {
    let t = harvest(events);
    events
        .iter()
        .filter(|e| e.kind.query() == Some(query) && e.kind.is_terminal())
        .find_map(|e| build_tree(&t, e, &mut Scratch::default()))
}

/// Renders collapsed-stack (inferno/speedscope-compatible) lines from span
/// trees: one `family;device;segment <microseconds>` frame stack per
/// aggregate, sorted for deterministic output. Feed the result to any
/// flamegraph renderer to see where the cluster's latency went.
///
/// Trees are aggregated on their typed `(family, device)` key, one total
/// per segment; each line is formatted once, after aggregation.
pub fn collapse_flame(trees: &[SpanTree]) -> String {
    let mut agg: IdMap<(Option<ModelFamily>, Option<DeviceId>), [u64; Segment::ALL.len()]> =
        IdMap::default();
    for tree in trees {
        let totals = agg.entry((tree.family, tree.device)).or_default();
        for s in &tree.spans {
            totals[s.segment as usize] += s.dur().as_nanos();
        }
    }
    let mut lines = Vec::new();
    for ((family, device), totals) in agg {
        let family = family.map_or("unknown", ModelFamily::label);
        let device = device.map_or_else(|| "none".to_string(), |d| d.to_string());
        for segment in Segment::ALL {
            let nanos = totals[segment as usize];
            if nanos >= 1_000 {
                lines.push(format!(
                    "{family};{device};{} {}",
                    segment.label(),
                    nanos / 1_000
                ));
            }
        }
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplanCause;

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

    /// q2 arrives at 0, waits behind batch 1 (0–100), is served late by
    /// batch 2 (100–200). A solve window 40–60 opens while d0 is busy.
    fn queued_trace() -> Vec<TraceEvent> {
        vec![
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
                    behind: Some(1),
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
                40,
                EventKind::SolveStarted {
                    cause: ReplanCause::Periodic,
                    until: t(60),
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
                EventKind::ServedLate {
                    query: 2,
                    latency: t(200),
                    epoch: 3,
                },
            ),
        ]
    }

    #[test]
    fn queue_then_exec_decomposes_additively() {
        let tree = span_tree(&queued_trace(), 2).unwrap();
        assert_eq!(tree.observed(), t(200));
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Queue), t(100));
        assert_eq!(tree.segment_total(Segment::Exec), t(100));
        assert_eq!(tree.segment_total(Segment::StalePlan), SimTime::ZERO);
        assert_eq!(tree.dominant(), Segment::Queue);
        assert_eq!(tree.outcome, Outcome::Late);
        assert_eq!(tree.epoch, 3);
        assert!(tree
            .edges
            .iter()
            .any(|e| matches!(e, CausalEdge::QueuedBehind { batch: 1 })));
        // The solve window is fully covered by the busy worker, so no
        // stale-plan edge appears.
        assert!(!tree
            .edges
            .iter()
            .any(|e| matches!(e, CausalEdge::ServedUnderStalePlan { .. })));
    }

    #[test]
    fn idle_solve_window_becomes_stale_plan() {
        // Worker idle 0–500 while a solve runs 100–400: the idle wait
        // splits batch_wait / stale_plan / batch_wait.
        let events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::Gpt2,
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
                100,
                EventKind::SolveStarted {
                    cause: ReplanCause::Burst,
                    until: t(400),
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
                    epoch: 5,
                },
            ),
        ];
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::StalePlan), t(300));
        assert_eq!(tree.segment_total(Segment::BatchWait), t(200));
        assert_eq!(tree.segment_total(Segment::Exec), t(100));
        assert!(matches!(
            tree.edges
                .iter()
                .find(|e| matches!(e, CausalEdge::ServedUnderStalePlan { .. })),
            Some(CausalEdge::ServedUnderStalePlan { epoch: 5, overlap }) if *overlap == t(300)
        ));
        // Waterfall spans tile the timeline in order.
        assert_eq!(tree.spans.first().unwrap().start, t(0));
        assert_eq!(tree.spans.last().unwrap().end, t(600));
        for w in tree.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn load_stall_gets_an_edge() {
        let events = vec![
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
                    device: DeviceId(3),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                0,
                EventKind::ModelLoadStarted {
                    device: DeviceId(3),
                    variant: Some(variant()),
                    until: t(900),
                },
            ),
            ev(
                900,
                EventKind::BatchFormed {
                    device: DeviceId(3),
                    batch: 1,
                    queries: vec![1],
                },
            ),
            ev(
                900,
                EventKind::ExecStarted {
                    device: DeviceId(3),
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
                    epoch: 1,
                },
            ),
        ];
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Load), t(900));
        assert!(matches!(
            tree.edges
                .iter()
                .find(|e| matches!(e, CausalEdge::WaitedOnLoad { .. })),
            Some(CausalEdge::WaitedOnLoad { device, variant: Some(v), stall })
                if device.0 == 3 && v.index == 0 && *stall == t(900)
        ));
    }

    #[test]
    fn crash_salvage_charges_retry() {
        // q1 enqueued on d0 at 0; d0 crashes at 50; salvaged to d1 and
        // served at 150. Time before the final placement is retry.
        let events = vec![
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
                50,
                EventKind::WorkerCrashed {
                    device: DeviceId(0),
                },
            ),
            ev(
                50,
                EventKind::QueryRetried {
                    query: 1,
                    from: DeviceId(0),
                    attempt: 1,
                },
            ),
            ev(
                50,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(1),
                    depth: 1,
                    behind: None,
                },
            ),
            ev(
                60,
                EventKind::BatchFormed {
                    device: DeviceId(1),
                    batch: 7,
                    queries: vec![1],
                },
            ),
            ev(
                60,
                EventKind::ExecStarted {
                    device: DeviceId(1),
                    batch: 7,
                    variant: variant(),
                    size: 1,
                    until: t(150),
                },
            ),
            ev(
                150,
                EventKind::ServedOnTime {
                    query: 1,
                    latency: t(150),
                    epoch: 2,
                },
            ),
        ];
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Retry), t(50));
        assert_eq!(tree.segment_total(Segment::BatchWait), t(10));
        assert_eq!(tree.segment_total(Segment::Exec), t(90));
        assert_eq!(tree.device, Some(DeviceId(1)));
        assert!(matches!(
            tree.edges.first(),
            Some(CausalEdge::RetriedAfterCrash { device, attempt: 1 }) if device.0 == 0
        ));
    }

    #[test]
    fn rolled_back_batch_on_the_final_device_counts_as_own_exec() {
        // q1 joins batch 1 on d0 (0–300 planned); d0 crashes at 50 and
        // recovers at 60; q1 is re-enqueued on d0 at 70 and served late by
        // batch 2 (310–400). Batch 1's recorded interval still covers
        // 70–300: the span layer charges it to q1's own execution, while
        // blame counts it as another batch keeping the worker busy.
        let batch = |ms, batch, until| {
            [
                ev(
                    ms,
                    EventKind::BatchFormed {
                        device: DeviceId(0),
                        batch,
                        queries: vec![1],
                    },
                ),
                ev(
                    ms,
                    EventKind::ExecStarted {
                        device: DeviceId(0),
                        batch,
                        variant: variant(),
                        size: 1,
                        until: t(until),
                    },
                ),
            ]
        };
        let enqueue = |ms| {
            ev(
                ms,
                EventKind::Enqueued {
                    query: 1,
                    device: DeviceId(0),
                    depth: 1,
                    behind: None,
                },
            )
        };
        let mut events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 1,
                    family: ModelFamily::ResNet,
                },
            ),
            enqueue(0),
        ];
        events.extend(batch(0, 1, 300));
        events.extend([
            ev(
                50,
                EventKind::WorkerCrashed {
                    device: DeviceId(0),
                },
            ),
            ev(
                50,
                EventKind::QueryRetried {
                    query: 1,
                    from: DeviceId(0),
                    attempt: 1,
                },
            ),
            ev(
                60,
                EventKind::WorkerRecovered {
                    device: DeviceId(0),
                },
            ),
            enqueue(70),
        ]);
        events.extend(batch(310, 2, 400));
        events.push(ev(
            400,
            EventKind::ServedLate {
                query: 1,
                latency: t(400),
                epoch: 1,
            },
        ));
        let tree = span_tree(&events, 1).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Retry), t(70));
        assert_eq!(tree.segment_total(Segment::Exec), t(230 + 90));
        assert_eq!(tree.segment_total(Segment::BatchWait), t(10));
        assert_eq!(tree.segment_total(Segment::Queue), SimTime::ZERO);

        let report = crate::analysis::blame(&events);
        let v = &report.verdicts[0];
        assert_eq!(v.cause, crate::analysis::BlameCause::Queueing);
        assert_eq!((v.queueing, v.batch_wait), (t(230), t(10)));
    }

    #[test]
    fn shed_drop_is_a_zero_tree() {
        let events = vec![
            ev(
                5,
                EventKind::Arrived {
                    query: 9,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                5,
                EventKind::Dropped {
                    query: 9,
                    reason: DropReason::QueueFull,
                },
            ),
        ];
        let tree = span_tree(&events, 9).unwrap();
        assert_eq!(tree.observed(), SimTime::ZERO);
        assert_eq!(tree.invariant_gap(), 0);
        assert!(tree.outcome.is_violation());
        assert!(tree.spans.is_empty());
    }

    #[test]
    fn expiry_drop_decomposes_without_exec() {
        let events = vec![
            ev(
                0,
                EventKind::Arrived {
                    query: 3,
                    family: ModelFamily::ResNet,
                },
            ),
            ev(
                0,
                EventKind::Enqueued {
                    query: 3,
                    device: DeviceId(0),
                    depth: 1,
                    behind: Some(1),
                },
            ),
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
        ];
        let tree = span_tree(&events, 3).unwrap();
        assert_eq!(tree.invariant_gap(), 0);
        assert_eq!(tree.segment_total(Segment::Queue), t(300));
        assert_eq!(tree.segment_total(Segment::Exec), SimTime::ZERO);
    }

    #[test]
    fn every_terminal_gets_a_tree_and_the_invariant_holds() {
        let trees = span_trees(&queued_trace());
        assert_eq!(trees.len(), 1);
        for tree in &trees {
            assert_eq!(tree.invariant_gap(), 0, "query {}", tree.query);
        }
        assert!(span_tree(&queued_trace(), 999).is_none());
    }

    #[test]
    fn flame_lines_are_deterministic_and_aggregated() {
        let flame = collapse_flame(&span_trees(&queued_trace()));
        assert_eq!(flame, "ResNet;d0;exec 100000\nResNet;d0;queue 100000\n");
        assert_eq!(collapse_flame(&[]), "");

        // A tree with `nanos` of exec and, when `wait` is set, as much
        // batch-wait before it.
        let tree = |family, device, nanos: u64, wait: bool| {
            let span = |segment, start: u64| Span {
                segment,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + nanos),
            };
            let mut spans = vec![span(Segment::Exec, nanos)];
            if wait {
                spans.insert(0, span(Segment::BatchWait, 0));
            }
            SpanTree {
                query: 0,
                start: SimTime::ZERO,
                end: SimTime::from_nanos(2 * nanos),
                outcome: Outcome::OnTime,
                family,
                device,
                epoch: 0,
                spans,
                edges: Vec::new(),
            }
        };
        let resnet = Some(ModelFamily::ResNet);
        // No family renders as `unknown`, no device as `none`.
        assert_eq!(
            collapse_flame(&[tree(None, Some(DeviceId(3)), 5_000, false)]),
            "unknown;d3;exec 5\n"
        );
        assert_eq!(
            collapse_flame(&[tree(resnet, None, 5_000, false)]),
            "ResNet;none;exec 5\n"
        );
        // Trees with the same key merge into one line per segment.
        assert_eq!(
            collapse_flame(&[
                tree(resnet, Some(DeviceId(1)), 2_000, true),
                tree(resnet, Some(DeviceId(1)), 3_000, false),
            ]),
            "ResNet;d1;batch_wait 2\nResNet;d1;exec 5\n"
        );
        // An aggregate under 1 µs is dropped; two that add up to 1 µs or
        // more are not.
        assert_eq!(
            collapse_flame(&[tree(resnet, Some(DeviceId(1)), 999, false)]),
            ""
        );
        assert_eq!(
            collapse_flame(&[
                tree(resnet, Some(DeviceId(1)), 600, false),
                tree(resnet, Some(DeviceId(1)), 600, false),
            ]),
            "ResNet;d1;exec 1\n"
        );
    }

    #[test]
    fn query_ids_keep_every_slot_across_the_dense_and_sparse_ranges() {
        // Sequential ids, ids past the dense range that it later grows
        // over, ids at and near the top of the range, and repeats.
        let mut ids: Vec<u64> = vec![10_000, u64::MAX, 1 << 32, 0];
        ids.extend(1..8_000);
        ids.extend([10_000, 9_999, u64::MAX - 1, 3, 1 << 32, 12_000]);
        let mut index = QueryIds::default();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for id in ids {
            let next = reference.len() as u32;
            let want = *reference.entry(id).or_insert(next);
            assert_eq!(index.slot(id), (want, want == next), "id {id}");
        }
        for (&id, &slot) in &reference {
            assert_eq!(index.get(id), Some(slot), "id {id}");
        }
        assert_eq!(index.get(11_000), None);
        assert_eq!(index.get(12_001), None);
        assert_eq!(index.get(u64::MAX - 2), None);
    }

    /// xorshift64*: a dependency-free generator for the property test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    #[test]
    fn windowed_sweep_equals_full_sweep() {
        let classes = [Class::OwnExec, Class::OtherExec, Class::Load, Class::Solve];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..200 {
            let mut lane = Lane::default();
            for _ in 0..rng.below(40) {
                let start = rng.below(1_000);
                // One interval in five is zero-length; the rest overlap
                // freely, so ends are not monotone in start order.
                let len = if rng.below(5) == 0 { 0 } else { rng.below(300) };
                let class = classes[rng.below(4) as usize];
                lane.push(t(start), t(start + len), class);
            }
            lane.seal();
            for _ in 0..10 {
                let s = rng.below(1_200);
                let e = s + rng.below(400);
                let (s, e) = (t(s), t(e));
                let slice = window(Some(&lane), s, e);
                let overlaps = |iv: &&(SimTime, SimTime, Class)| iv.0 < e && iv.1 > s;
                assert_eq!(
                    slice.iter().filter(overlaps).count(),
                    lane.intervals.iter().filter(overlaps).count(),
                    "case {case}: the window dropped an overlapping interval"
                );
                let (mut full, mut windowed, mut cuts) = (Vec::new(), Vec::new(), Vec::new());
                sweep(s, e, &lane.intervals, &mut cuts, &mut full);
                sweep(s, e, slice, &mut cuts, &mut windowed);
                assert_eq!(windowed, full, "case {case}, window {s:?}..{e:?}");
            }
        }
    }

    #[test]
    fn salvaged_batch_ending_past_the_next_batch_still_counts() {
        // d0 starts batch 1 (q1) at 0 planned until 300 and crashes at 50;
        // q1 is salvaged to d1. After recovery d0 runs batch 2 (q2,
        // 120-180) and batch 3 (q3, 250-320). Batch 1's recorded end (300)
        // passes batch 2's start, so d0's exec ends are not monotone.
        let arrive = |ms, query| {
            ev(
                ms,
                EventKind::Arrived {
                    query,
                    family: ModelFamily::ResNet,
                },
            )
        };
        let enqueue = |ms, query, device| {
            ev(
                ms,
                EventKind::Enqueued {
                    query,
                    device: DeviceId(device),
                    depth: 1,
                    behind: None,
                },
            )
        };
        let run = |ms, device, batch, query, until| {
            [
                ev(
                    ms,
                    EventKind::BatchFormed {
                        device: DeviceId(device),
                        batch,
                        queries: vec![query],
                    },
                ),
                ev(
                    ms,
                    EventKind::ExecStarted {
                        device: DeviceId(device),
                        batch,
                        variant: variant(),
                        size: 1,
                        until: t(until),
                    },
                ),
            ]
        };
        let served = |ms, query, late: bool| {
            let (latency, epoch) = (t(ms), 1);
            ev(
                ms,
                if late {
                    EventKind::ServedLate {
                        query,
                        latency,
                        epoch,
                    }
                } else {
                    EventKind::ServedOnTime {
                        query,
                        latency,
                        epoch,
                    }
                },
            )
        };
        let mut events = vec![arrive(0, 1), enqueue(0, 1, 0)];
        events.extend(run(0, 0, 1, 1, 300));
        events.extend([
            ev(
                50,
                EventKind::WorkerCrashed {
                    device: DeviceId(0),
                },
            ),
            ev(
                50,
                EventKind::QueryRetried {
                    query: 1,
                    from: DeviceId(0),
                    attempt: 1,
                },
            ),
            enqueue(50, 1, 1),
        ]);
        events.extend(run(60, 1, 7, 1, 150));
        events.extend([
            ev(
                100,
                EventKind::WorkerRecovered {
                    device: DeviceId(0),
                },
            ),
            arrive(110, 2),
            enqueue(110, 2, 0),
        ]);
        events.extend(run(120, 0, 2, 2, 180));
        events.extend([
            served(150, 1, false),
            served(180, 2, false),
            arrive(190, 3),
            enqueue(190, 3, 0),
        ]);
        events.extend(run(250, 0, 3, 3, 320));
        events.push(served(320, 3, true));

        // q3 waits 190-250 with only batch 1's stale interval covering it:
        // the index must still reach back to it.
        let q3 = span_tree(&events, 3).unwrap();
        assert_eq!(q3.invariant_gap(), 0);
        assert_eq!(q3.segment_total(Segment::Queue), t(60));
        assert_eq!(q3.segment_total(Segment::Exec), t(70));
        let q2 = span_tree(&events, 2).unwrap();
        assert_eq!(q2.segment_total(Segment::Queue), t(10));
        assert_eq!(q2.segment_total(Segment::Exec), t(60));
        let q1 = span_tree(&events, 1).unwrap();
        assert_eq!(q1.segment_total(Segment::Retry), t(50));
        assert_eq!(q1.segment_total(Segment::BatchWait), t(10));
        assert_eq!(q1.segment_total(Segment::Exec), t(90));

        let report = crate::analysis::blame(&events);
        assert_eq!(report.total(), 1);
        let v = &report.verdicts[0];
        assert_eq!(v.query, 3);
        assert_eq!(v.cause, crate::analysis::BlameCause::Queueing);
        assert_eq!(v.queueing, t(60));
        assert_eq!(v.batch_wait, SimTime::ZERO);
    }

    #[test]
    fn segment_labels_round_trip() {
        for s in Segment::ALL {
            assert_eq!(Segment::parse(s.label()), Some(s));
        }
        assert_eq!(Segment::parse("nope"), None);
    }
}
