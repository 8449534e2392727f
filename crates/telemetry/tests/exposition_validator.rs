//! A dependency-free mini promtool exercised end-to-end — pages generated
//! by `expose::render_page` across several windows of a fed
//! `MetricsCollector` must validate, and deliberately broken input must be
//! rejected with a pointed message.

use proteus_metrics::MetricsCollector;
use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;
use proteus_telemetry::expose::render_page;
use proteus_telemetry::{validate, BurnEngine, ControlSample, Registry};

/// Drives a collector, registry and burn engine through `windows` full
/// windows of synthetic traffic (with a violation burst in the middle so
/// alerts fire) and returns the concatenated multi-page exposition.
fn generate_pages(windows: u64) -> String {
    let step = SimTime::from_secs(1);
    let mut metrics = MetricsCollector::new(step);
    let mut reg = Registry::new(SimTime::from_secs(10), step);
    let mut burn = BurnEngine::new(0.95);
    let mut out = String::new();
    let mut page_no = 0u64;
    let total_steps = windows * 10;
    for s in 1..=total_steps {
        for i in 0..20u64 {
            let family = ModelFamily::from_index((i % 9) as usize);
            let at = SimTime::from_millis((s - 1) * 1000 + 40 * i);
            metrics.record_arrival(at, family);
            // Middle third of the run: drop hard so burn alerts fire.
            let bursting = s > total_steps / 3 && s <= 2 * total_steps / 3;
            if bursting && i % 2 == 0 {
                metrics.record_dropped(at, family);
            } else {
                let latency = SimTime::from_millis(25 + i);
                metrics.record_served_query(at + latency, s * 20 + i, family, 0.93, true, latency);
            }
        }
        reg.on_phase(proteus_telemetry::Phase::Route, 3_000 + s % 5_000);
        let now = SimTime::from_secs(s);
        reg.seal_step(now, &[], ControlSample::default(), &metrics);
        burn.push_step(now, &reg);
        if s % 10 == 0 {
            page_no += 1;
            let view = reg.window().expect("full window");
            out.push_str(&render_page(page_no, &reg, &metrics, &burn, &view));
        }
    }
    out
}

#[test]
fn generated_multi_window_exposition_validates() {
    let text = generate_pages(6);
    let stats = validate(&text).unwrap_or_else(|violations| {
        for v in &violations {
            eprintln!("{v}");
        }
        panic!("generated exposition failed validation");
    });
    assert_eq!(stats.pages, 6);
    assert!(stats.samples > 100, "expected a rich page, got {stats:?}");
    // Every page's latency quantiles carry trace exemplars.
    assert!(
        stats.exemplars >= 6,
        "expected latency exemplars on every page, got {stats:?}"
    );
}

#[test]
fn counters_are_monotone_across_generated_pages() {
    // validate() itself enforces cross-page counter monotonicity, but be
    // explicit: corrupt one counter series backwards and watch it fail.
    let text = generate_pages(3);
    assert!(validate(&text).is_ok());

    // Find the *last* page's arrivals_total for ResNet and shrink it.
    let needle = "proteus_queries_arrived_total{family=\"ResNet\"}";
    let last = text.rfind(needle).expect("series present");
    let line_end = text[last..].find('\n').map(|i| last + i).expect("newline");
    let mut corrupted = String::new();
    corrupted.push_str(&text[..last]);
    corrupted.push_str(needle);
    corrupted.push_str(" 1");
    corrupted.push_str(&text[line_end..]);
    let violations = validate(&corrupted).expect_err("decreasing counter must fail");
    assert!(
        violations.iter().any(|v| v.message.contains("decreased")),
        "expected a monotonicity violation, got: {violations:?}"
    );
}

#[test]
fn rejects_structurally_broken_pages() {
    let text = generate_pages(2);

    // Strip every TYPE line: samples become untyped.
    let untyped: String = text
        .lines()
        .filter(|l| !l.starts_with("# TYPE"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(validate(&untyped).is_err(), "untyped samples must fail");

    // Mangle a metric name with an illegal character (everywhere, so
    // HELP/TYPE/sample stay consistent and only the charset is wrong).
    let bad_name = text.replace(
        "proteus_queries_arrived_total",
        "proteus-queries_arrived_total",
    );
    assert!(validate(&bad_name).is_err(), "bad name charset must fail");

    // Break a label escape: trailing lone backslash inside a value.
    let bad_escape = text.replacen("family=\"ResNet\"", "family=\"Res\\Net\"", 1);
    assert!(validate(&bad_escape).is_err(), "bad escape must fail");
}
