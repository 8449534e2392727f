//! The serving loop records every query once, in the
//! [`MetricsCollector`] behind `RunOutcome::metrics`; the telemetry plane's
//! Prometheus exposition renders that collector.
//!
//! One fault-scripted run is recorded with telemetry writing an exposition
//! file and with a [`MemorySink`]. The last exposition page must render the
//! collector exactly: every per-family flow counter, the latency count, and
//! the latency quantiles the run summary reports. Those quantiles must sit
//! within the sketch's relative error α of the exact percentiles of the
//! traced serve latencies. Its device gauges must follow the scripted
//! crash and recovery. The same run with telemetry off must yield the
//! same summaries, replan log, hot-path counters, device statistics and
//! solver counters: observing a run never changes it.
//!
//! [`MetricsCollector`]: proteus_metrics::MetricsCollector

use std::collections::BTreeMap;

use proteus_core::batching::ProteusBatching;
use proteus_core::schedulers::ProteusAllocator;
use proteus_core::system::{
    ReplanRecord, RunOutcome, ServingSystem, SolveLatency, SystemConfig, TelemetryConfig,
};
use proteus_metrics::LATENCY_ALPHA;
use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;
use proteus_trace::{EventKind, MemorySink};
use proteus_workloads::{BurstyTrace, QueryArrival, TraceBuilder};

/// The samples of the last page of a Prometheus exposition file, keyed by
/// the sample's name plus label set exactly as written (`name{labels}`).
fn last_page(text: &str) -> BTreeMap<String, f64> {
    let start = text.rfind("# page").expect("at least one exposition page");
    text[start..]
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            // Drop an OpenMetrics exemplar suffix, then split name / value.
            let sample = l.split(" # ").next().unwrap_or(l);
            let (key, value) = sample.rsplit_once(' ').expect("`name value` sample");
            (
                key.to_string(),
                value.parse().expect("numeric sample value"),
            )
        })
        .collect()
}

/// Exact `q`-quantile of sorted `xs`, with the sketch's rank convention:
/// the `ceil(q·n)`-th smallest value.
fn exact_quantile(xs: &[f64], q: f64) -> f64 {
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Runs the fault-scripted bursty workload with `telemetry` into `sink`.
fn run(
    arrivals: &[QueryArrival],
    telemetry: Option<TelemetryConfig>,
    sink: &mut MemorySink,
) -> RunOutcome {
    let mut config = SystemConfig::small();
    config.solve_latency = SolveLatency::Model;
    config.realloc_period_secs = 5.0;
    config.faults = "crash@8:7; recover@18:7; slow@12-20:3x3.0; loadfail@0.1"
        .parse()
        .expect("fault script parses");
    config.telemetry = telemetry;
    ServingSystem::new(
        config,
        Box::new(ProteusAllocator::default()),
        Box::new(ProteusBatching),
    )
    .run_traced(arrivals, sink)
}

/// A replan record without its allocator wall time, which differs
/// between any two runs.
fn simulated(r: &ReplanRecord) -> ReplanRecord {
    ReplanRecord {
        wall_secs: 0.0,
        ..*r
    }
}

#[test]
fn exposition_and_collector_agree_on_a_fault_scripted_run() {
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(5)
        .build(&BurstyTrace {
            low_qps: 150.0,
            high_qps: 700.0,
            burst_start: 10,
            burst_end: 20,
            secs: 30,
        });
    let expo = std::env::temp_dir().join(format!(
        "proteus-metric-pipelines-{}.prom",
        std::process::id()
    ));
    let telemetry = TelemetryConfig {
        expo_path: Some(expo.clone()),
        ..TelemetryConfig::default()
    };
    let mut sink = MemorySink::new();
    let outcome = run(&arrivals, Some(telemetry), &mut sink);
    let text = std::fs::read_to_string(&expo).expect("exposition file written");
    let _ = std::fs::remove_file(&expo);
    let page = last_page(&text);
    let sample = |key: String| -> u64 {
        let v = *page
            .get(&key)
            .unwrap_or_else(|| panic!("missing sample {key}"));
        v as u64
    };

    // Flow counters: exact per-family agreement.
    let summary = outcome.metrics.summary();
    assert!(
        summary.total_dropped > 0,
        "the fault script must cost drops"
    );
    assert!(
        summary.total_violations > summary.total_dropped,
        "the run must serve some queries late"
    );
    let families = outcome.metrics.family_summaries();
    for f in ModelFamily::ALL {
        // A family with no arrivals has no summary and all-zero counters.
        let (arrived, served, dropped, violations) = families
            .iter()
            .find(|s| s.family == f)
            .map_or((0, 0, 0, 0), |s| {
                let s = &s.summary;
                (
                    s.total_arrived,
                    s.total_served,
                    s.total_dropped,
                    s.total_violations,
                )
            });
        let late = violations - dropped;
        let label = f.label();
        assert_eq!(
            sample(format!(
                "proteus_queries_arrived_total{{family=\"{label}\"}}"
            )),
            arrived,
            "{label}: arrivals"
        );
        assert_eq!(
            sample(format!(
                "proteus_queries_served_total{{family=\"{label}\",outcome=\"on_time\"}}"
            )),
            served - late,
            "{label}: on-time serves"
        );
        assert_eq!(
            sample(format!(
                "proteus_queries_served_total{{family=\"{label}\",outcome=\"late\"}}"
            )),
            late,
            "{label}: late serves"
        );
        assert_eq!(
            sample(format!(
                "proteus_queries_dropped_total{{family=\"{label}\"}}"
            )),
            dropped,
            "{label}: drops"
        );
    }

    // Liveness: device 7 is down from 8 s to 18 s. The first page (10 s)
    // reads it as down, and the last reads every device as up.
    let first_end = text[1..].find("# page").map_or(text.len(), |i| i + 1);
    assert!(
        text[..first_end].contains("proteus_device_up{device=\"7\"} 0\n"),
        "device 7 is down on the first page"
    );
    for d in 0..outcome.device_stats.len() {
        assert_eq!(
            sample(format!("proteus_device_up{{device=\"{d}\"}}")),
            1,
            "device {d} is up at end of run"
        );
    }

    // Latency: the collector's sketch behind both the page and the
    // summary, against the exact traced distribution.
    let mut latencies: Vec<f64> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ServedOnTime { latency, .. } | EventKind::ServedLate { latency, .. } => {
                Some(latency.as_secs_f64())
            }
            _ => None,
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    assert_eq!(latencies.len() as u64, summary.total_served);
    assert_eq!(
        sample("proteus_latency_seconds_count".into()),
        summary.total_served
    );
    for (q, label, summarized) in [
        (0.5, "0.5", summary.latency_p50),
        (0.99, "0.99", summary.latency_p99),
    ] {
        let exact = exact_quantile(&latencies, q);
        let exposed = page[&format!("proteus_latency_seconds{{quantile=\"{label}\"}}")];
        // The page prints the sketch's `f64`; the summary keeps it as
        // whole nanoseconds.
        assert_eq!(
            summarized,
            Some(SimTime::from_secs_f64(exposed)),
            "p{label}: summary vs exposition"
        );
        let summarized = summarized.map_or(f64::NAN, SimTime::as_secs_f64);
        assert!(
            (summarized - exact).abs() <= LATENCY_ALPHA * exact + 1e-9,
            "p{label}: summary {summarized} vs exact {exact}"
        );
    }

    // The same run unobserved: telemetry changes nothing it reports on.
    let plain = run(&arrivals, None, &mut MemorySink::new());
    assert!(plain.telemetry.is_none());
    assert_eq!(plain.metrics.summary(), summary);
    assert_eq!(plain.metrics.family_summaries(), families);
    assert_eq!(
        plain.replan_log.iter().map(simulated).collect::<Vec<_>>(),
        outcome.replan_log.iter().map(simulated).collect::<Vec<_>>()
    );
    assert_eq!(plain.hot_stats, outcome.hot_stats);
    assert_eq!(plain.device_stats, outcome.device_stats);
    let counts = |o: &RunOutcome| {
        let s = o.solver_stats;
        (
            s.nodes,
            s.pruned,
            s.simplex_iterations,
            s.warm_starts,
            s.cold_solves,
        )
    };
    assert_eq!(counts(&plain), counts(&outcome));
}
