//! Pins what the telemetry plane reports for two fault-scripted runs.
//!
//! Each run writes its Prometheus pages to a file and its trace to JSONL.
//! Three FNV-1a digests are pinned per run:
//!
//! - the exposition pages, without the `proteus_phase_wall_seconds_total`
//!   lines (real wall time, different on every run);
//! - the trace's `alert_fired` / `alert_resolved` lines;
//! - the end-of-run `TelemetrySummary` (its `Debug` form, with the
//!   exposition path cleared).
//!
//! Run (a) has zero solve latency and a crash plus recovery that fire and
//! resolve page alerts. Run (b) has a fixed 4 s solve window and a crash
//! inside an open window, so pages show a solve in progress, the
//! stale-plan-age summary fills and plans are discarded. Its pages are
//! digested without the `proteus_reallocations_total` lines: with solve
//! windows, that counter depends on whether discarded and in-flight solves
//! count as plans, which these pins leave to the runner's own tests.
//!
//! The counts asserted next to each digest keep the pins from passing
//! vacuously. Regenerate a digest only after an intentional change to what
//! the plane reports, by pasting the `left` value the failing assertion
//! prints.

use std::path::Path;

use proteus_cli::config::ExperimentConfig;
use proteus_cli::{run_experiment_traced, ExperimentOutput};
use proteus_core::system::TelemetrySummary;
use proteus_trace::JsonlSink;

/// A 60 s bursty run on a 4/2/2 cluster, replanning every 10 s.
const BASE: &str = "trace = bursty
trace_secs = 60
base_qps = 100
peak_qps = 400
seed = 7
model_allocation = ilp
batching = accscale
slo_multiplier = 2.0
cluster = 4, 2, 2
realloc_period = 10
beta = 1.05
output = summary
";

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One run's pages and JSONL trace, as text, plus its outcome.
struct Run {
    out: ExperimentOutput,
    pages: String,
    trace: String,
}

fn run(name: &str, solve_latency: &str, faults: &str) -> Run {
    let mut config: ExperimentConfig = BASE.parse().expect("the config parses");
    config.solve_latency = solve_latency.parse().expect("solve latency parses");
    config.faults = faults.parse().expect("fault script parses");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("telemetry_pin_{name}.prom"));
    config.telemetry_out = Some(path.to_string_lossy().into_owned());
    let mut sink = JsonlSink::new(Vec::new());
    let out = run_experiment_traced(&config, &mut sink);
    let trace = String::from_utf8(sink.finish().expect("in-memory trace")).expect("UTF-8 trace");
    let pages = std::fs::read_to_string(&path).expect("the exposition file exists");
    let _ = std::fs::remove_file(&path);
    Run { out, pages, trace }
}

/// The pages without any line naming one of `dropped`.
fn pages_without(pages: &str, dropped: &[&str]) -> String {
    pages
        .lines()
        .filter(|l| !dropped.iter().any(|name| l.contains(name)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The trace's alert lines, in order.
fn alert_lines(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.contains("\"ev\":\"alert_fired\"") || l.contains("\"ev\":\"alert_resolved\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn summary(run: &Run) -> &TelemetrySummary {
    run.out.outcome.telemetry.as_ref().expect("telemetry ran")
}

/// The digests of the pages, the alert lines and the summary (its
/// `Debug` form, with the exposition path cleared).
fn digests(pages: &str, alerts: &str, summary: &TelemetrySummary) -> [u64; 3] {
    let cleared = TelemetrySummary {
        expo_path: None,
        ..summary.clone()
    };
    [
        fnv1a(pages.as_bytes()),
        fnv1a(alerts.as_bytes()),
        fnv1a(format!("{cleared:?}").as_bytes()),
    ]
}

/// Lines of `text` equal to `line`.
fn count(text: &str, line: &str) -> usize {
    text.lines().filter(|l| *l == line).count()
}

/// The value of the last sample named exactly `name` (no labels).
fn last_sample(pages: &str, name: &str) -> f64 {
    pages
        .lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .next_back()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} sample"))
}

#[test]
fn zero_latency_crash_run_pins_pages_alerts_and_summary() {
    let r = run("a", "zero", "crash@22:5; recover@41:5");
    let alerts = alert_lines(&r.trace);
    let page_fired = alerts
        .lines()
        .filter(|l| l.contains("alert_fired") && l.contains("\"severity\":\"page\""))
        .count();
    let page_resolved = alerts
        .lines()
        .filter(|l| l.contains("alert_resolved") && l.contains("\"severity\":\"page\""))
        .count();
    assert!(page_fired >= 1 && page_resolved >= 1, "{alerts}");
    let s = summary(&r);
    assert_eq!(s.alerts_fired as usize, s.alerts.len());
    assert_eq!(
        alerts.lines().count() as u64,
        s.alerts_fired + s.alerts_resolved
    );
    assert_eq!(
        s.windows as usize,
        count(&r.pages, "# TYPE proteus_sim_time_seconds gauge")
    );

    let pages = pages_without(&r.pages, &["proteus_phase_wall_seconds_total"]);
    assert_eq!(
        digests(&pages, &alerts, s),
        [
            11860804255987773559,
            15435685929553907445,
            15244315403329844100
        ],
        "[pages, alert lines, summary] digests drifted"
    );
}

#[test]
fn fixed_latency_crash_in_solve_window_pins_pages_alerts_and_summary() {
    let r = run("b", "fixed:4", "crash@21:5; recover@41:5");
    let outcome = &r.out.outcome;
    assert!(outcome.plans_discarded >= 1, "the crash discards a solve");
    assert!(
        count(&r.pages, "proteus_solve_in_progress 1") >= 1,
        "a page lands inside a solve window"
    );
    assert!(last_sample(&r.pages, "proteus_stale_plan_age_seconds_count") > 0.0);
    let alerts = alert_lines(&r.trace);
    let s = summary(&r);
    assert!(s.alerts_fired >= 1 && s.alerts_resolved >= 1, "{alerts}");

    let pages = pages_without(
        &r.pages,
        &[
            "proteus_phase_wall_seconds_total",
            "proteus_reallocations_total",
        ],
    );
    assert_eq!(
        digests(&pages, &alerts, s),
        [
            9011168205735178586,
            8505383244997993897,
            2240149092948878492
        ],
        "[pages, alert lines, summary] digests drifted"
    );
}
