//! The `--live` terminal dashboard: plain ANSI, one frame per window.
//!
//! Each frame is a self-contained string (clear-screen prefix included)
//! so the runtime can write it to stderr in one call. Sparklines reuse
//! `proteus_metrics::report::sparkline` — the same eight block glyphs
//! the end-of-run report uses.

use std::collections::VecDeque;

use proteus_metrics::report::sparkline;
use proteus_metrics::MetricsCollector;
use proteus_profiler::ModelFamily;
use proteus_trace::AlertSeverity;

use crate::burn::{BurnEngine, RULES, WINDOWS};
use crate::registry::{Registry, WindowView};

/// How many windows of history the strips keep.
const HISTORY: usize = 48;

/// Rolling per-window history feeding the sparkline strips.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    arrival_qps: VecDeque<f64>,
    served_qps: VecDeque<f64>,
    accuracy: VecDeque<f64>,
    violation: VecDeque<f64>,
}

fn push(ring: &mut VecDeque<f64>, v: f64) {
    if ring.len() == HISTORY {
        ring.pop_front();
    }
    ring.push_back(v);
}

fn strip(ring: &VecDeque<f64>) -> String {
    let series: Vec<f64> = ring.iter().copied().collect();
    sparkline(&series)
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(secs) => format!("{:.0}", secs * 1e3),
        None => "-".into(),
    }
}

impl Dashboard {
    /// Creates an empty dashboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the window that just closed and renders the next frame;
    /// the latency percentiles are `collector`'s, since run start, and the
    /// burn rates are over `registry`'s steps.
    pub fn render(
        &mut self,
        registry: &Registry,
        collector: &MetricsCollector,
        burn: &BurnEngine,
        view: &WindowView,
    ) -> String {
        let total = view.total();
        let span = view.span_secs();
        let arrival = total.arrived as f64 / span;
        let served = total.served() as f64 / span;
        let accuracy = if total.served() > 0 {
            total.accuracy_sum / total.served() as f64
        } else {
            0.0
        };
        let violation = if total.arrived > 0 {
            total.violations() as f64 / total.arrived as f64
        } else {
            0.0
        };
        push(&mut self.arrival_qps, arrival);
        push(&mut self.served_qps, served);
        push(&mut self.accuracy, accuracy);
        push(&mut self.violation, violation);

        let up = view.devices.iter().filter(|d| d.up).count();
        let util = if view.devices.is_empty() {
            0.0
        } else {
            view.devices.iter().map(|d| d.utilization).sum::<f64>() / view.devices.len() as f64
        };
        let queue: u64 = view.devices.iter().map(|d| u64::from(d.queue_depth)).sum();
        let occupied: Vec<f64> = view
            .devices
            .iter()
            .filter(|d| d.occupancy > 0.0)
            .map(|d| d.occupancy)
            .collect();
        let occupancy = if occupied.is_empty() {
            0.0
        } else {
            occupied.iter().sum::<f64>() / occupied.len() as f64
        };

        let lat = collector.latency();
        let shortest = WINDOWS[0];

        let mut out = String::with_capacity(2 * 1024);
        // Clear screen, home cursor.
        out.push_str("\x1b[2J\x1b[H");
        out.push_str(&format!(
            "\x1b[1mPROTEUS LIVE\x1b[0m  t={:>7.0}s  window {:.0}s  alerts: {} page / {} ticket ({} fired, {} resolved)\n",
            view.end.as_secs_f64(),
            span,
            burn.fired_total(AlertSeverity::Page) - burn.resolved_total(AlertSeverity::Page),
            burn.fired_total(AlertSeverity::Ticket) - burn.resolved_total(AlertSeverity::Ticket),
            burn.fired_total(AlertSeverity::Page) + burn.fired_total(AlertSeverity::Ticket),
            burn.resolved_total(AlertSeverity::Page) + burn.resolved_total(AlertSeverity::Ticket),
        ));
        out.push_str(&format!(
            " arrivals {:>7.1} q/s  {}\n",
            arrival,
            strip(&self.arrival_qps)
        ));
        out.push_str(&format!(
            " served   {:>7.1} q/s  {}\n",
            served,
            strip(&self.served_qps)
        ));
        out.push_str(&format!(
            " accuracy {:>7.4}      {}\n",
            accuracy,
            strip(&self.accuracy)
        ));
        out.push_str(&format!(
            " viol     {:>6.2} %     {}\n",
            violation * 100.0,
            strip(&self.violation)
        ));
        out.push_str(&format!(
            " p50/p90/p99 {}/{}/{} ms   devices {up}/{} up  util {:>4.1} %  occupancy {:>4.1}  queued {queue}\n",
            fmt_ms(lat.quantile(0.5)),
            fmt_ms(lat.quantile(0.9)),
            fmt_ms(lat.quantile(0.99)),
            view.devices.len(),
            util * 100.0,
            occupancy,
        ));

        // Top families by short-window burn rate; arrival volume breaks
        // ties so a healthy run shows the busiest families, not family 0.
        let mut ranked: Vec<(ModelFamily, f64)> = ModelFamily::ALL
            .into_iter()
            .map(|f| (f, burn.burn_rate(registry, shortest, Some(f))))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    view.families[b.0.index()]
                        .arrived
                        .cmp(&view.families[a.0.index()].arrived)
                })
        });
        out.push_str(&format!(
            " top families by burn ({:.0}s window):\n",
            shortest.as_secs_f64()
        ));
        for (family, rate) in ranked.iter().take(5) {
            let cell = view.families[family.index()];
            let alert = RULES
                .iter()
                .map(|r| r.severity)
                .find(|&s| burn.is_active(s, Some(*family)));
            let marker = match alert {
                Some(AlertSeverity::Page) => " \x1b[31mALERT page\x1b[0m",
                Some(AlertSeverity::Ticket) => " \x1b[33malert ticket\x1b[0m",
                None => "",
            };
            out.push_str(&format!(
                "   {:<13} burn {:>6.2}  {:>7.1} q/s  viol {:>5.1} %{}\n",
                family.label(),
                rate,
                cell.arrived as f64 / span,
                if cell.arrived > 0 {
                    cell.violations() as f64 * 100.0 / cell.arrived as f64
                } else {
                    0.0
                },
                marker,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use proteus_sim::SimTime;

    #[test]
    fn frame_contains_header_strips_and_families() {
        let mut reg = Registry::new(SimTime::from_secs(10), SimTime::from_secs(1));
        let mut metrics = MetricsCollector::new(SimTime::from_secs(1));
        let mut burn = BurnEngine::new(0.95);
        let mut dash = Dashboard::new();
        for s in 1..=3u64 {
            for i in 0..10 {
                let at = SimTime::from_millis((s - 1) * 1000 + 50 * i);
                let latency = SimTime::from_millis(30);
                metrics.record_arrival(at, ModelFamily::YoloV5);
                metrics.record_served_query(
                    at + latency,
                    i,
                    ModelFamily::YoloV5,
                    0.91,
                    true,
                    latency,
                );
            }
            reg.seal_step(SimTime::from_secs(s), &[], Default::default(), &metrics);
            burn.push_step(SimTime::from_secs(s), &reg);
        }
        let view = reg.window().unwrap();
        let frame = dash.render(&reg, &metrics, &burn, &view);
        assert!(frame.contains("p50/p90/p99 30/30/30 ms"), "{frame}");
        assert!(frame.contains("PROTEUS LIVE"));
        assert!(frame.contains("YOLOv5"));
        assert!(frame.contains("arrivals"));
        assert!(frame.starts_with("\x1b[2J\x1b[H"));
        // One render -> one history point per strip.
        assert_eq!(dash.arrival_qps.len(), 1);
    }
}
