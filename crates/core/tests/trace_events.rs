//! Flight-recorder integration tests: a golden JSONL trace of a tiny
//! deterministic run, stream invariants, blame attribution on a bursty
//! overload, staged-swap and stale-plan blame coverage, and the causal
//! span layer's critical-path additivity invariant under chaos schedules,
//! whose analysis outputs are pinned by digest.

use std::path::{Path, PathBuf};

use proteus_core::batching::ProteusBatching;
use proteus_core::schedulers::{AllocContext, Allocator, ProteusAllocator};
use proteus_core::system::{ServingSystem, SolveLatency, SystemConfig};
use proteus_core::{AllocationPlan, FamilyMap};
use proteus_profiler::{Cluster, DeviceId, ModelFamily, VariantId};
use proteus_sim::{FaultSchedule, SimTime};
use proteus_trace::{
    blame, collapse_flame, diff_traces, parse_jsonl, span_trees, to_jsonl, BlameCause, CausalEdge,
    EventKind, JsonlSink, LifecycleStats, MemorySink, Segment, SpanTree, TraceEvent, TraceSink,
};
use proteus_workloads::{
    ArrivalKind, ArrivalProcess, BurstyTrace, FlatTrace, QueryArrival, TraceBuilder,
};

/// The committed golden trace (regenerate with `PROTEUS_REGEN_GOLDEN=1`).
const GOLDEN: &str = include_str!("golden/tiny_trace.jsonl");

/// The committed smoke-run trace, and what `trace-query` printed for it
/// before the span layer's interval index existed: `flame`,
/// `blame --json`, and `critpath` of an on-time query (3), an expired
/// drop (149) and a shed drop (9). The smoke run has no late responses.
const SMOKE: &str = include_str!("../../../baselines/smoke_trace.jsonl");
const SMOKE_FLAME: &str = include_str!("../../../baselines/smoke_flame.txt");
const SMOKE_BLAME: &str = include_str!("../../../baselines/smoke_blame.json");
const SMOKE_CRITPATHS: [(u64, &str); 3] = [
    (3, include_str!("../../../baselines/smoke_critpath_q3.txt")),
    (
        149,
        include_str!("../../../baselines/smoke_critpath_q149.txt"),
    ),
    (9, include_str!("../../../baselines/smoke_critpath_q9.txt")),
];

/// Always hands out the same plan: one EfficientNet variant on the V100.
/// No solver runs, so the recorded stream is free of wall-clock times and
/// is bit-for-bit reproducible.
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
        let mut p = AllocationPlan::empty(2);
        p.assign(
            DeviceId(1),
            Some(VariantId {
                family: ModelFamily::EfficientNet,
                index: 0,
            }),
        );
        p.set_routing(ModelFamily::EfficientNet, vec![(DeviceId(1), 1.0)]);
        p.set_capacity(ModelFamily::EfficientNet, 1000.0);
        p
    }
}

/// Records the tiny deterministic run: 1 CPU + 1 V100, a fixed plan, and a
/// uniform 5 QPS EfficientNet stream for 3 s.
fn record_tiny_run() -> (Vec<TraceEvent>, proteus_core::system::RunOutcome) {
    let mut config = SystemConfig::paper_testbed();
    config.cluster = Cluster::with_counts(1, 0, 1);
    config.realloc_period_secs = 60.0; // no periodic replans inside 3 s
    config.burst_threshold = f64::INFINITY;
    let arrivals: Vec<QueryArrival> = ArrivalProcess::new(ArrivalKind::Uniform, 5.0, 0)
        .take_for_secs(3.0)
        .into_iter()
        .map(|at| QueryArrival::new(at, ModelFamily::EfficientNet))
        .collect();
    let mut system = ServingSystem::new(config, Box::new(FixedPlan), Box::new(ProteusBatching));
    let mut sink = MemorySink::new();
    let outcome = system.run_traced(&arrivals, &mut sink);
    (sink.into_events(), outcome)
}

fn to_document(events: &[TraceEvent]) -> String {
    let mut doc = String::new();
    for e in events {
        doc.push_str(&to_jsonl(e));
        doc.push('\n');
    }
    doc
}

/// Where the golden file lives, for regeneration: prefer the cargo manifest
/// dir, else walk up from the current directory to the repo root.
fn golden_path() -> PathBuf {
    let rel = Path::new("tests/golden/tiny_trace.jsonl");
    if let Some(dir) = option_env!("CARGO_MANIFEST_DIR") {
        return Path::new(dir).join(rel);
    }
    let rel = Path::new("crates/core").join(rel);
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let candidate = dir.join(&rel);
        if candidate.exists() {
            return candidate;
        }
        assert!(dir.pop(), "golden file not found walking up from the cwd");
    }
}

#[test]
fn tiny_run_matches_golden_trace() {
    let (events, _) = record_tiny_run();
    let doc = to_document(&events);
    if std::env::var_os("PROTEUS_REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path(), &doc).expect("write golden");
        return;
    }
    assert!(!events.is_empty(), "the tiny run must record events");
    for (i, (got, want)) in doc.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "first divergence at golden line {}", i + 1);
    }
    assert_eq!(
        doc.lines().count(),
        GOLDEN.lines().count(),
        "event count drifted from the golden trace \
         (PROTEUS_REGEN_GOLDEN=1 regenerates after intentional changes)"
    );
}

#[test]
fn golden_trace_round_trips_through_the_parser() {
    let events = parse_jsonl(GOLDEN).expect("golden parses");
    assert_eq!(to_document(&events), GOLDEN);
    // And it is the same stream the run produces today.
    let (recorded, _) = record_tiny_run();
    assert_eq!(events, recorded);
}

/// `trace-query blame --json` with no `--deny` flags: the documented
/// machine-readable blame format.
fn blame_json(events: &[TraceEvent]) -> String {
    let report = blame(events);
    let counts: Vec<String> = BlameCause::ALL
        .iter()
        .map(|&c| format!("\"{}\":{}", c.label(), report.count(c)))
        .collect();
    let verdicts: Vec<String> = report
        .verdicts
        .iter()
        .map(|v| {
            format!(
                "{{\"query\":{},\"at\":{},\"cause\":\"{}\",\"queueing\":{},\"model_load\":{},\
                 \"batch_wait\":{},\"stale_plan\":{}}}",
                v.query,
                v.at.as_nanos(),
                v.cause.label(),
                v.queueing.as_nanos(),
                v.model_load.as_nanos(),
                v.batch_wait.as_nanos(),
                v.stale_plan.as_nanos()
            )
        })
        .collect();
    format!(
        "{{\"arrived\":{},\"violations\":{},\"stale_affected\":{},\"counts\":{{{}}},\
         \"deny\":[],\"verdicts\":[{}]}}\n",
        LifecycleStats::from_events(events).arrived,
        report.total(),
        report.stale_affected(),
        counts.join(","),
        verdicts.join(",")
    )
}

/// The `(segment, offset ms, duration ms)` rows of a `critpath`
/// waterfall, as printed.
fn critpath_rows(critpath: &str) -> Vec<(Segment, String, String)> {
    critpath
        .lines()
        .filter_map(|line| {
            let mut cols = line.strip_prefix("    ")?.split_whitespace();
            let segment = Segment::parse(cols.next()?)?;
            let offset = cols.next()?.to_string();
            let dur = cols.nth(1)?.to_string();
            Some((segment, offset, dur))
        })
        .collect()
}

/// The same rows computed from a span tree.
fn tree_rows(tree: &SpanTree) -> Vec<(Segment, String, String)> {
    let ms = |t: SimTime| format!("{:.3}", t.as_millis_f64());
    tree.spans
        .iter()
        .map(|s| {
            (
                s.segment,
                ms(s.start.saturating_sub(tree.start)),
                ms(s.dur()),
            )
        })
        .collect()
}

#[test]
fn smoke_trace_analysis_matches_pinned_outputs() {
    let events = parse_jsonl(SMOKE).expect("smoke trace parses");
    let trees = span_trees(&events);
    assert_eq!(collapse_flame(&trees), SMOKE_FLAME, "flame drifted");
    assert_eq!(blame_json(&events), SMOKE_BLAME, "blame --json drifted");
    for (query, critpath) in SMOKE_CRITPATHS {
        let tree = trees
            .iter()
            .find(|t| t.query == query)
            .expect("pinned query has a span tree");
        let header = format!("{:.3} ms end-to-end", tree.observed().as_millis_f64());
        assert!(critpath.contains(&header), "query {query}: {header}");
        assert_eq!(tree_rows(tree), critpath_rows(critpath), "query {query}");
        if !tree.spans.is_empty() {
            let dominant = format!("dominated by {}\n", tree.dominant().label());
            assert!(critpath.contains(&dominant), "query {query}: {dominant}");
        }
    }
}

/// Re-recording the parsed smoke trace through the streaming sink must
/// reproduce the committed file byte for byte: every kind the smoke run
/// emits, the sink's line assembly and its newline framing.
#[test]
fn smoke_trace_re_records_byte_for_byte_through_the_jsonl_sink() {
    let events = parse_jsonl(SMOKE).expect("smoke trace parses");
    let mut sink = JsonlSink::new(Vec::new());
    for e in &events {
        sink.record(e);
    }
    assert_eq!(sink.events_written(), events.len() as u64);
    let bytes = sink.finish().expect("an in-memory sink cannot fail");
    let text = String::from_utf8(bytes).expect("the encoder writes UTF-8");
    for (i, (got, want)) in text.lines().zip(SMOKE.lines()).enumerate() {
        assert_eq!(got, want, "first divergence at smoke line {}", i + 1);
    }
    assert!(text == SMOKE, "line count or framing drifted");
}

#[test]
fn every_arrival_has_exactly_one_terminal_event() {
    let (events, outcome) = record_tiny_run();
    check_terminal_invariant(&events);
    let s = outcome.metrics.summary();
    let stats = LifecycleStats::from_events(&events);
    assert_eq!(stats.arrived, s.total_arrived);
    assert_eq!(stats.served_on_time + stats.served_late, s.total_served);
    assert_eq!(stats.dropped, s.total_dropped);
}

/// Asserts the lifecycle invariant: each `Arrived` query id gets exactly
/// one terminal event, and no terminal appears for an unknown id.
fn check_terminal_invariant(events: &[TraceEvent]) {
    use std::collections::HashMap;
    let mut terminals: HashMap<u64, u32> = HashMap::new();
    let mut arrived: Vec<u64> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::Arrived { query, .. } => arrived.push(*query),
            kind if kind.is_terminal() => {
                *terminals
                    .entry(kind.query().expect("terminals name a query"))
                    .or_default() += 1;
            }
            _ => {}
        }
    }
    assert!(!arrived.is_empty());
    for q in &arrived {
        assert_eq!(
            terminals.get(q).copied().unwrap_or(0),
            1,
            "query {q} must have exactly one terminal event"
        );
    }
    assert_eq!(
        terminals.len(),
        arrived.len(),
        "no terminal may belong to a query that never arrived"
    );
}

#[test]
fn bursty_overload_blame_classifies_every_violation() {
    // A small cluster under the paper's bursty trace: the burst overloads
    // it, producing drops and late responses of several flavors.
    let mut config = SystemConfig::paper_testbed();
    config.cluster = Cluster::with_counts(4, 2, 2);
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(7)
        .build(&BurstyTrace {
            low_qps: 30.0,
            high_qps: 400.0,
            burst_start: 6,
            burst_end: 14,
            secs: 20,
        });
    let mut system = ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    );
    let mut sink = MemorySink::new();
    let outcome = system.run_traced(&arrivals, &mut sink);
    let events = sink.into_events();
    check_terminal_invariant(&events);

    let s = outcome.metrics.summary();
    let stats = LifecycleStats::from_events(&events);
    assert!(
        stats.violations() > 0,
        "the burst must overload the cluster"
    );
    assert_eq!(stats.violations(), s.total_violations);

    // Blame lands every violation in exactly one category.
    let report = blame(&events);
    assert_eq!(report.total() as u64, stats.violations());
    let by_cause: usize = BlameCause::ALL.iter().map(|&c| report.count(c)).sum();
    assert_eq!(by_cause, report.total(), "categories are exhaustive");
    for v in &report.verdicts {
        assert!(
            BlameCause::ALL.contains(&v.cause),
            "query {} got an unknown cause",
            v.query
        );
    }

    // The control plane left its footprint too: one PlanApplied per replan
    // record, causes matching.
    let applied = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PlanApplied { .. }))
        .count();
    assert_eq!(applied, outcome.replan_log.len());
    let triggered = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ReplanTriggered { .. }))
        .count();
    assert_eq!(triggered, outcome.replan_log.len());
}

/// Asserts the span layer's additivity invariant on every query: the
/// critical-path segments tile `[arrival, terminal]` exactly, so their
/// durations sum to the observed end-to-end latency.
fn check_critical_path_invariant(events: &[TraceEvent], context: &str) {
    let trees = span_trees(events);
    assert!(!trees.is_empty(), "{context}: no span trees reconstructed");
    for tree in &trees {
        assert_eq!(
            tree.invariant_gap(),
            0,
            "{context}: query {} segments do not sum to its {} ns latency",
            tree.query,
            tree.observed().as_nanos()
        );
    }
}

/// Alternates a single V100 between two same-family ResNet variants on
/// every replan — with nonzero solve latency and both variants fitting
/// in device memory, each retarget takes the staged
/// (serve-old-while-loading-new) path.
#[derive(Debug)]
struct AlternatingVariant {
    calls: u32,
}

impl Allocator for AlternatingVariant {
    fn name(&self) -> &'static str {
        "alternating"
    }

    fn allocate(
        &mut self,
        _ctx: &AllocContext<'_>,
        _demand: &FamilyMap<f64>,
        _current: Option<&AllocationPlan>,
        _now: SimTime,
    ) -> AllocationPlan {
        let index = if self.calls.is_multiple_of(2) { 0 } else { 4 };
        self.calls += 1;
        let mut p = AllocationPlan::empty(2);
        p.assign(
            DeviceId(1),
            Some(VariantId {
                family: ModelFamily::ResNet,
                index,
            }),
        );
        p.set_routing(ModelFamily::ResNet, vec![(DeviceId(1), 1.0)]);
        p.set_capacity(ModelFamily::ResNet, 1000.0);
        p
    }
}

#[test]
fn staged_variant_swaps_keep_blame_and_critical_path_consistent() {
    // Nonzero solve latency plus a short replan period: every periodic
    // replan swaps ResNet-18 <-> ResNet-152 on the same V100. Both fit in
    // device memory together, so the swaps are staged — the worker keeps
    // serving the old variant through each load window.
    let mut config = SystemConfig::paper_testbed();
    config.cluster = Cluster::with_counts(1, 0, 1);
    config.realloc_period_secs = 2.0;
    config.burst_threshold = f64::INFINITY;
    config.solve_latency = SolveLatency::Fixed(0.2);
    config.audit = true;
    let arrivals: Vec<QueryArrival> = ArrivalProcess::new(ArrivalKind::Uniform, 20.0, 0)
        .take_for_secs(6.0)
        .into_iter()
        .map(|at| QueryArrival::new(at, ModelFamily::ResNet))
        .collect();
    let mut system = ServingSystem::new(
        config,
        Box::new(AlternatingVariant { calls: 0 }),
        Box::new(ProteusBatching),
    );
    let mut sink = MemorySink::new();
    let outcome = system.run_traced(&arrivals, &mut sink);
    let events = sink.into_events();
    check_terminal_invariant(&events);
    check_critical_path_invariant(&events, "staged swap");

    // Both variants actually executed on the V100…
    let mut exec_variants: Vec<u8> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ExecStarted { variant, .. } => Some(variant.index),
            _ => None,
        })
        .collect();
    exec_variants.sort_unstable();
    exec_variants.dedup();
    assert_eq!(
        exec_variants,
        vec![0, 4],
        "both swap endpoints must serve batches"
    );
    // …yet the worker never went through a blocking load: the initial
    // plan applies pre-loaded, and every later same-family swap is staged
    // (background load), so no ModelLoadStarted ever appears.
    let blocking_loads = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ModelLoadStarted { .. }))
        .count();
    assert_eq!(
        blocking_loads, 0,
        "staged swaps must not stall the worker in a foreground load"
    );
    assert!(
        outcome.reallocations >= 3,
        "the run must replan enough to swap back and forth"
    );

    // Blame still lands every violation in exactly one category, and no
    // violation is misattributed to ModelLoad: the staged window never
    // stalls the queue behind a weight transfer.
    let stats = LifecycleStats::from_events(&events);
    let report = blame(&events);
    assert_eq!(report.total() as u64, stats.violations());
    let by_cause: usize = BlameCause::ALL.iter().map(|&c| report.count(c)).sum();
    assert_eq!(by_cause, report.total());
    assert_eq!(
        report.count(BlameCause::ModelLoad),
        0,
        "staged swaps must not charge violations to model loading"
    );
}

#[test]
fn stale_plan_overlap_windows_are_visible_to_blame_and_spans() {
    // A bursty overload with slow solves: windows stay open for a second
    // at a time while the burst drives violations, so violating queries
    // overlap known-stale plans.
    let mut config = SystemConfig::paper_testbed();
    config.cluster = Cluster::with_counts(4, 2, 2);
    config.solve_latency = SolveLatency::Fixed(1.0);
    config.audit = true;
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(7)
        .build(&BurstyTrace {
            low_qps: 30.0,
            high_qps: 400.0,
            burst_start: 6,
            burst_end: 14,
            secs: 20,
        });
    let mut system = ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    );
    let mut sink = MemorySink::new();
    let _ = system.run_traced(&arrivals, &mut sink);
    let events = sink.into_events();
    check_terminal_invariant(&events);
    check_critical_path_invariant(&events, "stale overlap");

    let stats = LifecycleStats::from_events(&events);
    assert!(
        stats.violations() > 0,
        "the burst must overload the cluster"
    );
    let report = blame(&events);
    assert_eq!(report.total() as u64, stats.violations());
    assert!(
        report.stale_affected() > 0,
        "some violations must overlap an open solve window"
    );
    // The span layer sees the same overlaps: stale-plan segments appear
    // on queries whose wait crossed a solve window.
    let trees = span_trees(&events);
    let stale_total: u64 = trees
        .iter()
        .map(|t| t.segment_total(Segment::StalePlan).as_nanos())
        .sum();
    assert!(
        stale_total > 0,
        "no query accumulated stale-plan critical-path time"
    );
    let edge_count = trees
        .iter()
        .flat_map(|t| &t.edges)
        .filter(|e| matches!(e, proteus_trace::CausalEdge::ServedUnderStalePlan { .. }))
        .count();
    assert!(edge_count > 0, "no ServedUnderStalePlan edges recorded");
}

/// SystemConfig::small(): 5 CPU + 2 GTX + 2 V100.
const CHAOS_DEVICES: u32 = 9;

/// Records the 10 s, 60 QPS chaos run of fault-schedule `seed`: crashes,
/// recoveries, stragglers and load failures under modeled solve latency.
fn record_chaos_run(seed: u64) -> (Vec<TraceEvent>, proteus_core::system::RunOutcome) {
    let horizon_secs = 10u32;
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(13)
        .build(&FlatTrace {
            qps: 60.0,
            secs: horizon_secs,
        });
    let horizon = SimTime::from_secs(u64::from(horizon_secs));
    let schedule = FaultSchedule::seeded_random(seed, horizon, CHAOS_DEVICES);
    let mut config = SystemConfig::small();
    config.audit = true;
    config.faults = schedule;
    config.solve_latency = SolveLatency::Model;
    config.realloc_period_secs = 5.0;
    let mut system = ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    );
    let mut sink = MemorySink::new();
    let outcome = system.run_traced(&arrivals, &mut sink);
    (sink.into_events(), outcome)
}

#[test]
fn critical_path_invariant_holds_under_chaos_schedules() {
    // Property test: for any seeded fault schedule — crashes, recoveries,
    // stragglers, load failures — every reconstructed span tree's
    // segments sum exactly to the query's observed latency.
    for seed in 0..20u64 {
        let (events, outcome) = record_chaos_run(seed);
        check_terminal_invariant(&events);
        check_critical_path_invariant(&events, &format!("chaos seed {seed}"));
        // Span trees cover exactly the arrived population.
        let s = outcome.metrics.summary();
        assert_eq!(
            span_trees(&events).len() as u64,
            s.total_arrived,
            "seed {seed}: every arrival reconstructs to one span tree"
        );
    }
}

/// FNV-1a over a rendered analysis output.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests of what the analysis layer makes of each chaos seed's trace:
/// `collapse_flame`, the `blame` verdict list, every `span_trees` tree
/// (segments and edges), and `diff_traces` of the seed against the next
/// one (seed 19 against seed 0). Recorded with the analysis code that
/// predates the typed JSONL reader and the per-query index.
const CHAOS_DIGESTS: [[u64; 4]; 20] = [
    [
        0xcdbc15cb4575dd3f,
        0x77606d22b5df60d8,
        0xd1b2c66ab03ef49f,
        0xc0384831018f5e9e,
    ],
    [
        0x584bd106ce97c306,
        0x9bd1bd9b5efb6e48,
        0xbb26c55827044aff,
        0xb3c87b4b6f95cb76,
    ],
    [
        0xf8f686fa42a632d7,
        0x12e998f06494b311,
        0xb57b7cbbc23f93ef,
        0x25aa1db7fd725d24,
    ],
    [
        0x638daa6ade1ca876,
        0xf8178eedc41023eb,
        0x5f0d5a5ace4343da,
        0x3427014b3ce78b5b,
    ],
    [
        0xa3bf383d3f6437dd,
        0xb8c4145c7d942470,
        0xe7325fb72d044b76,
        0x70d669dedac2e5c0,
    ],
    [
        0x2b13d362c279f9c2,
        0x13b9db32d18959cc,
        0x77d28986ef8a5211,
        0x50d463fbb3a7df19,
    ],
    [
        0x8032ee18c7474f51,
        0xa6168e20f14e8635,
        0x8d5e29e7e494c7ea,
        0x947853e23d13f53a,
    ],
    [
        0x8f430e7e9fa94ed4,
        0xec93841a7d3d7dda,
        0x8ebbc9fba9979415,
        0x1cdb3c624f5f66ac,
    ],
    [
        0xc61381554572139b,
        0x5b66f075a0d10351,
        0xc99c8f2c59497da8,
        0x9e57c06c7a1275d7,
    ],
    [
        0xc096b38c6f616974,
        0xafca723ecac2c5e9,
        0x3fb83bd6f9d356b5,
        0x1e3b0af7d0d675b1,
    ],
    [
        0x0946500f9e57b996,
        0x16d233020199d906,
        0x0b1da9a0900efb39,
        0x26129da5b0df6b13,
    ],
    [
        0x99711664f69d1f49,
        0xacf9e41c057c5235,
        0x9266e9994007e644,
        0x4de86ac621cb9181,
    ],
    [
        0xec9312293c9d7a51,
        0x1c822e2411c9dbfb,
        0xc2e7824225ad9e2b,
        0x695e1f762a6e88be,
    ],
    [
        0x763d2e35bac381ec,
        0x3bbedf86313f4281,
        0xeb8fa688a9e9d474,
        0x154f6ecb92783891,
    ],
    [
        0x2a3d33fbefbe2d46,
        0xefd1ee6945eea3de,
        0xbd2e9db2522d0a1e,
        0xca9ac269d06947e0,
    ],
    [
        0x92e30438989d7fe1,
        0xf4669917dc5d48f6,
        0x82114c07bdf8c34d,
        0xd54fd2ad1db50bd5,
    ],
    [
        0x1cf9fd54d8387e59,
        0x528e35e2d84a896b,
        0xee21136c06f76706,
        0x9e177773aa2b0f40,
    ],
    [
        0x586f3472f1471245,
        0x35ea7a51204884b8,
        0xa7cbe794b819b102,
        0x3bf4654fed22db1e,
    ],
    [
        0x197f6fddfb5a4c22,
        0x786c4a28b88189ec,
        0x07cdb5a1ef1f522f,
        0xea25cff59b7b54fb,
    ],
    [
        0x88e1866da0909338,
        0x0c2df1656c8afeb3,
        0xcbac121d472e9e96,
        0x4b78106165c0e34f,
    ],
];

#[test]
fn chaos_analysis_matches_pinned_digests() {
    let traces: Vec<Vec<TraceEvent>> = (0..20u64).map(|seed| record_chaos_run(seed).0).collect();
    let digests: Vec<[u64; 4]> = traces
        .iter()
        .enumerate()
        .map(|(seed, events)| {
            let trees = span_trees(events);
            let next = &traces[(seed + 1) % traces.len()];
            [
                fnv1a(&collapse_flame(&trees)),
                fnv1a(&format!("{:?}", blame(events).verdicts)),
                fnv1a(&format!("{trees:?}")),
                fnv1a(&format!("{:?}", diff_traces(events, next))),
            ]
        })
        .collect();
    let table: String = digests
        .iter()
        .map(|[a, b, c, d]| format!("    [{a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}],\n"))
        .collect();
    assert_eq!(
        digests, CHAOS_DIGESTS,
        "analysis of the chaos traces drifted; now:\n{table}"
    );
}

/// An injective remap of the ids below 2²⁰: every fourth id keeps its
/// value, the others go to multiples of 2³², to values past 2⁵⁶ and to
/// values next to `u64::MAX`. The four ranges do not overlap.
fn remap(id: u64) -> u64 {
    assert!(id < 1 << 20, "id {id} is outside the remapped range");
    match id % 4 {
        0 => (id + 1) << 32,
        1 => u64::MAX - id,
        2 => (1 << 56) + id * 0x9e37_79b9,
        _ => id,
    }
}

/// `event` with every query id and batch id passed through [`remap`].
fn remap_event(event: &TraceEvent) -> TraceEvent {
    let mut kind = event.kind.clone();
    match &mut kind {
        EventKind::Arrived { query, .. }
        | EventKind::Routed { query, .. }
        | EventKind::ServedOnTime { query, .. }
        | EventKind::ServedLate { query, .. }
        | EventKind::Dropped { query, .. }
        | EventKind::QueryRetried { query, .. } => *query = remap(*query),
        EventKind::Enqueued { query, behind, .. } => {
            *query = remap(*query);
            *behind = behind.map(remap);
        }
        EventKind::BatchFormed { batch, queries, .. } => {
            *batch = remap(*batch);
            for q in queries {
                *q = remap(*q);
            }
        }
        EventKind::ExecStarted { batch, .. } | EventKind::ExecCompleted { batch, .. } => {
            *batch = remap(*batch)
        }
        _ => {}
    }
    TraceEvent { at: event.at, kind }
}

#[test]
fn analysis_is_invariant_under_id_remapping() {
    // The analysis indexes query and batch ids (a dense range for small
    // query ids, hashed maps for the rest): which ids a trace uses may
    // change how fast it is analysed, never what comes out.
    let traces: Vec<Vec<TraceEvent>> = (0..20u64).map(|seed| record_chaos_run(seed).0).collect();
    let remapped: Vec<Vec<TraceEvent>> = traces
        .iter()
        .map(|events| events.iter().map(remap_event).collect())
        .collect();
    for (seed, (events, mapped)) in traces.iter().zip(&remapped).enumerate() {
        let trees = span_trees(events);
        let want: Vec<SpanTree> = trees
            .iter()
            .map(|tree| {
                let mut tree = tree.clone();
                tree.query = remap(tree.query);
                for edge in &mut tree.edges {
                    if let CausalEdge::QueuedBehind { batch } = edge {
                        *batch = remap(*batch);
                    }
                }
                tree
            })
            .collect();
        assert_eq!(span_trees(mapped), want, "seed {seed}: span trees");

        let mut verdicts = blame(events).verdicts;
        for v in &mut verdicts {
            v.query = remap(v.query);
        }
        assert_eq!(blame(mapped).verdicts, verdicts, "seed {seed}: blame");

        assert_eq!(
            collapse_flame(&span_trees(mapped)),
            collapse_flame(&trees),
            "seed {seed}: flame"
        );

        let next = (seed + 1) % traces.len();
        let mut want = diff_traces(events, &traces[next]);
        for ids in [&mut want.new_violations, &mut want.vanished_violations] {
            for id in ids.iter_mut() {
                *id = remap(*id);
            }
            // The diff lists ids in ascending order.
            ids.sort_unstable();
        }
        assert_eq!(
            diff_traces(mapped, &remapped[next]),
            want,
            "seed {seed}: diff"
        );
    }
}
