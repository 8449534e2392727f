//! Prometheus text-format 0.0.4 exposition.
//!
//! One *page* is rendered per full window and appended to the output
//! file (and served as the latest page by the optional HTTP listener).
//! Pages are separated by a `# page` marker comment — plain comments are
//! ignored by Prometheus parsers, so a single page is also a valid
//! scrape body. Counters are cumulative since run start (never reset),
//! gauges describe the window that just closed. The query counters and
//! the latency summary are read from the run's [`MetricsCollector`] when
//! the page is rendered.

use std::fmt::Write as _;

use proteus_metrics::{Bucket, MetricsCollector};
use proteus_profiler::ModelFamily;

use crate::burn::{BurnEngine, WINDOWS};
use crate::registry::{Phase, Registry, WindowView};

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float sample value. Prometheus accepts Go `%v` style;
/// Rust's shortest-round-trip `Display` is a compatible subset.
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else {
        format!("{v}")
    }
}

struct Page {
    out: String,
}

impl Page {
    fn help_type(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes a series name and its label set.
    fn series(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.series(name, labels);
        let _ = writeln!(self.out, " {}", num(value));
    }

    /// Like [`sample`](Self::sample) but appends an OpenMetrics-style
    /// exemplar: ` # {query_id="…"} <value>`. Prometheus text-format
    /// parsers treat everything after ` # ` as a comment, so the line
    /// stays valid 0.0.4 while OpenMetrics-aware scrapers pick up the
    /// trace link.
    fn sample_exemplar(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
        query: u64,
        observed: f64,
    ) {
        self.series(name, labels);
        let _ = writeln!(
            self.out,
            " {} # {{query_id=\"{query}\"}} {}",
            num(value),
            num(observed)
        );
    }
}

/// Per-family flows `collector` recorded since run start.
fn totals(collector: &MetricsCollector) -> [Bucket; ModelFamily::COUNT] {
    let mut out = [Bucket::default(); ModelFamily::COUNT];
    for row in 0..collector.num_buckets() {
        for f in ModelFamily::ALL {
            out[f.index()].merge(&collector.family_bucket(row, f));
        }
    }
    out
}

/// Renders one exposition page for the window that just closed.
pub fn render_page(
    page_no: u64,
    registry: &Registry,
    collector: &MetricsCollector,
    burn: &BurnEngine,
    view: &WindowView,
) -> String {
    let mut p = Page {
        out: String::with_capacity(8 * 1024),
    };
    let _ = writeln!(
        p.out,
        "# page {page_no} sim_seconds {}",
        num(view.end.as_secs_f64())
    );

    p.help_type(
        "proteus_sim_time_seconds",
        "gauge",
        "Simulated time at the end of this window.",
    );
    p.sample("proteus_sim_time_seconds", &[], view.end.as_secs_f64());
    p.help_type(
        "proteus_window_seconds",
        "gauge",
        "Sim-time span the window gauges aggregate over.",
    );
    p.sample("proteus_window_seconds", &[], view.span_secs());

    // Cumulative per-family counters.
    let totals = totals(collector);
    p.help_type(
        "proteus_queries_arrived_total",
        "counter",
        "Queries arrived since run start.",
    );
    for f in ModelFamily::ALL {
        let c = totals[f.index()];
        p.sample(
            "proteus_queries_arrived_total",
            &[("family", f.label())],
            c.arrived as f64,
        );
    }
    p.help_type(
        "proteus_queries_served_total",
        "counter",
        "Queries served since run start, by SLO outcome.",
    );
    for f in ModelFamily::ALL {
        let c = totals[f.index()];
        p.sample(
            "proteus_queries_served_total",
            &[("family", f.label()), ("outcome", "on_time")],
            c.served_on_time as f64,
        );
        p.sample(
            "proteus_queries_served_total",
            &[("family", f.label()), ("outcome", "late")],
            c.served_late as f64,
        );
    }
    p.help_type(
        "proteus_queries_dropped_total",
        "counter",
        "Queries dropped since run start.",
    );
    for f in ModelFamily::ALL {
        let c = totals[f.index()];
        p.sample(
            "proteus_queries_dropped_total",
            &[("family", f.label())],
            c.dropped as f64,
        );
    }

    // Window rate gauges.
    let span = view.span_secs();
    p.help_type(
        "proteus_arrival_rate_qps",
        "gauge",
        "Arrival rate over the window.",
    );
    for f in ModelFamily::ALL {
        let c = view.families[f.index()];
        p.sample(
            "proteus_arrival_rate_qps",
            &[("family", f.label())],
            c.arrived as f64 / span,
        );
    }
    p.help_type(
        "proteus_served_rate_qps",
        "gauge",
        "Served-response rate over the window.",
    );
    for f in ModelFamily::ALL {
        let c = view.families[f.index()];
        p.sample(
            "proteus_served_rate_qps",
            &[("family", f.label())],
            c.served() as f64 / span,
        );
    }
    p.help_type(
        "proteus_drop_rate_qps",
        "gauge",
        "Drop rate over the window.",
    );
    for f in ModelFamily::ALL {
        let c = view.families[f.index()];
        p.sample(
            "proteus_drop_rate_qps",
            &[("family", f.label())],
            c.dropped as f64 / span,
        );
    }
    p.help_type(
        "proteus_effective_accuracy",
        "gauge",
        "Mean normalized accuracy of responses in the window (families that served).",
    );
    for f in ModelFamily::ALL {
        let c = view.families[f.index()];
        if c.served() > 0 {
            p.sample(
                "proteus_effective_accuracy",
                &[("family", f.label())],
                c.accuracy_sum / c.served() as f64,
            );
        }
    }
    p.help_type(
        "proteus_violation_ratio",
        "gauge",
        "Violations (drops + late) over arrivals in the window (families with arrivals).",
    );
    for f in ModelFamily::ALL {
        let c = view.families[f.index()];
        if c.arrived > 0 {
            p.sample(
                "proteus_violation_ratio",
                &[("family", f.label())],
                c.violations() as f64 / c.arrived as f64,
            );
        }
    }

    // Device gauges.
    p.help_type(
        "proteus_queue_depth",
        "gauge",
        "Worker queue depth at window close.",
    );
    let mut dev_label = String::new();
    for (i, d) in view.devices.iter().enumerate() {
        dev_label.clear();
        let _ = write!(dev_label, "{i}");
        p.sample(
            "proteus_queue_depth",
            &[("device", &dev_label)],
            d.queue_depth as f64,
        );
    }
    p.help_type(
        "proteus_device_up",
        "gauge",
        "Worker liveness (1 = serviceable).",
    );
    for (i, d) in view.devices.iter().enumerate() {
        dev_label.clear();
        let _ = write!(dev_label, "{i}");
        p.sample(
            "proteus_device_up",
            &[("device", &dev_label)],
            if d.up { 1.0 } else { 0.0 },
        );
    }
    p.help_type(
        "proteus_device_utilization",
        "gauge",
        "Fraction of the window the worker spent executing batches.",
    );
    for (i, d) in view.devices.iter().enumerate() {
        dev_label.clear();
        let _ = write!(dev_label, "{i}");
        p.sample(
            "proteus_device_utilization",
            &[("device", &dev_label)],
            d.utilization,
        );
    }
    p.help_type(
        "proteus_batch_occupancy",
        "gauge",
        "Mean queries per executed batch over the window.",
    );
    for (i, d) in view.devices.iter().enumerate() {
        dev_label.clear();
        let _ = write!(dev_label, "{i}");
        p.sample(
            "proteus_batch_occupancy",
            &[("device", &dev_label)],
            d.occupancy,
        );
    }

    // Latency summary from the quantile sketch.
    let lat = collector.latency();
    p.help_type(
        "proteus_latency_seconds",
        "summary",
        "End-to-end response latency (DDSketch-style estimate).",
    );
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = lat.quantile(q) {
            let label = format!("{q}");
            // Exemplar: the concrete query behind the quantile's bucket,
            // so a p99 point links straight to `trace-query critpath`.
            match lat.exemplar_for(q) {
                Some(e) => p.sample_exemplar(
                    "proteus_latency_seconds",
                    &[("quantile", &label)],
                    v,
                    e.query,
                    e.value,
                ),
                None => p.sample("proteus_latency_seconds", &[("quantile", &label)], v),
            }
        }
    }
    p.sample("proteus_latency_seconds_sum", &[], lat.sum());
    p.sample("proteus_latency_seconds_count", &[], lat.count() as f64);

    // Control-plane self-profiling.
    p.help_type(
        "proteus_phase_wall_seconds_total",
        "counter",
        "Real wall time spent in each control-plane phase since run start.",
    );
    for ph in Phase::ALL {
        p.sample(
            "proteus_phase_wall_seconds_total",
            &[("phase", ph.label())],
            registry.phase_nanos(ph) as f64 / 1e9,
        );
    }
    p.help_type(
        "proteus_phase_invocations_total",
        "counter",
        "Invocations of each control-plane phase since run start.",
    );
    for ph in Phase::ALL {
        p.sample(
            "proteus_phase_invocations_total",
            &[("phase", ph.label())],
            registry.phase_calls(ph) as f64,
        );
    }
    p.help_type(
        "proteus_reallocations_total",
        "counter",
        "Plans applied since run start.",
    );
    p.sample(
        "proteus_reallocations_total",
        &[],
        view.control.reallocations as f64,
    );
    p.help_type(
        "proteus_solve_in_progress",
        "gauge",
        "1 while an allocation solve window is open (old plan still serving).",
    );
    let solving = view.control.solve_started.is_some();
    p.sample(
        "proteus_solve_in_progress",
        &[],
        if solving { 1.0 } else { 0.0 },
    );
    let stale = registry.stale_age();
    p.help_type(
        "proteus_stale_plan_age_seconds",
        "summary",
        "Age of the in-flight solve (time served under a stale plan), sampled per step.",
    );
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = stale.quantile(q) {
            let label = format!("{q}");
            p.sample("proteus_stale_plan_age_seconds", &[("quantile", &label)], v);
        }
    }
    p.sample("proteus_stale_plan_age_seconds_sum", &[], stale.sum());
    p.sample(
        "proteus_stale_plan_age_seconds_count",
        &[],
        stale.count() as f64,
    );

    // Burn-rate gauges and alert state.
    p.help_type(
        "proteus_slo_burn_rate",
        "gauge",
        "Error-budget burn rate over each rule window (cluster-wide scope=all).",
    );
    for w in WINDOWS {
        let wl = format!("{}s", num(w.as_secs_f64()));
        p.sample(
            "proteus_slo_burn_rate",
            &[("scope", "all"), ("window", &wl)],
            burn.burn_rate(registry, w, None),
        );
        for f in ModelFamily::ALL {
            p.sample(
                "proteus_slo_burn_rate",
                &[("scope", f.label()), ("window", &wl)],
                burn.burn_rate(registry, w, Some(f)),
            );
        }
    }
    p.help_type(
        "proteus_alert_active",
        "gauge",
        "1 while a burn-rate alert is firing for (scope, severity).",
    );
    for (severity, scope) in burn.active_alerts() {
        let scope_label = scope.map_or("all", |f| f.label());
        p.sample(
            "proteus_alert_active",
            &[("scope", scope_label), ("severity", severity.label())],
            1.0,
        );
    }
    p.help_type(
        "proteus_alerts_fired_total",
        "counter",
        "Burn-rate alerts fired since run start.",
    );
    p.help_type(
        "proteus_alerts_resolved_total",
        "counter",
        "Burn-rate alerts resolved since run start.",
    );
    for s in proteus_trace::AlertSeverity::ALL {
        p.sample(
            "proteus_alerts_fired_total",
            &[("severity", s.label())],
            burn.fired_total(s) as f64,
        );
        p.sample(
            "proteus_alerts_resolved_total",
            &[("severity", s.label())],
            burn.resolved_total(s) as f64,
        );
    }
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_sim::SimTime;

    #[test]
    fn label_escaping_covers_the_format() {
        assert_eq!(escape_label(r"a\b"), r"a\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("two\nlines"), "two\\nlines");
        assert_eq!(escape_label("plain"), "plain");
    }

    #[test]
    fn page_renders_help_type_and_samples() {
        let mut reg = Registry::new(SimTime::from_secs(10), SimTime::from_secs(1));
        let mut metrics = MetricsCollector::new(SimTime::from_secs(1));
        let mut burn = BurnEngine::new(0.95);
        metrics.record_arrival(SimTime::from_millis(100), ModelFamily::ResNet);
        metrics.record_served_query(
            SimTime::from_millis(140),
            42,
            ModelFamily::ResNet,
            0.95,
            true,
            SimTime::from_millis(40),
        );
        reg.seal_step(
            SimTime::from_secs(1),
            &[crate::registry::DeviceSample::default()],
            Default::default(),
            &metrics,
        );
        burn.push_step(SimTime::from_secs(1), &reg);
        let view = reg.window().unwrap();
        let page = render_page(1, &reg, &metrics, &burn, &view);
        assert!(page.starts_with("# page 1 sim_seconds 1"));
        assert!(page.contains("# TYPE proteus_queries_arrived_total counter"));
        assert!(page.contains("proteus_queries_arrived_total{family=\"ResNet\"} 1"));
        assert!(page.contains("proteus_latency_seconds_count 1"));
        // Latency quantiles carry the exemplar of the query behind them:
        // the exact observed value (0.04 s) attributed to query 42.
        assert!(
            page.contains("# {query_id=\"42\"} 0.04"),
            "missing exemplar: {page}"
        );
        assert!(page.contains("proteus_slo_burn_rate{scope=\"all\",window=\"60s\"}"));
        // Every sample's metric has a HELP and TYPE line in the page.
        for line in page
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                page.contains(&format!("# TYPE {base} ")),
                "no TYPE for {name}"
            );
        }
    }
}
