//! The runtime facade the serving engine drives: configuration, the
//! per-tick pipeline (seal step → burn engine → window emission), file
//! and HTTP output, and the end-of-run summary. Per-query flows, counters
//! and latencies are read from the run's [`MetricsCollector`], and the
//! device and control-plane state from the samples the engine passes to
//! every tick.

use std::io::Write as _;
use std::path::PathBuf;

use proteus_metrics::MetricsCollector;
use proteus_sim::SimTime;

use crate::burn::{AlertRecord, AlertTransition, BurnEngine};
use crate::dashboard::Dashboard;
use crate::expose::render_page;
use crate::http::HttpHandle;
use crate::registry::{ControlSample, DeviceSample, Registry};

/// Configuration of the telemetry plane. `None` in
/// `SystemConfig::telemetry` (the default) keeps the plane entirely off —
/// the engine then pays one untaken branch per hook site, mirroring the
/// `NullSink` tracing pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Sliding-window span for rates and gauges, rounded up to whole
    /// steps. A window closes, and a page is emitted, every that many
    /// sealed steps.
    pub window: SimTime,
    /// Step the window advances by. Steps are sealed on the engine's
    /// monitoring ticks, so the engine rounds it up to whole ticks.
    pub step: SimTime,
    /// On-time SLO objective in `(0, 1)`: the fraction of arrivals that
    /// must not be violated. The error budget is `1 - objective`; the
    /// burn-rate rules are the fixed [`RULES`](crate::burn::RULES).
    pub objective: f64,
    /// Append one Prometheus text-format page per window to this file.
    pub expo_path: Option<PathBuf>,
    /// Redraw the ANSI dashboard on stderr every window.
    pub live: bool,
    /// Serve the latest page over HTTP on `127.0.0.1:port`.
    pub http_port: Option<u16>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: SimTime::from_secs(10),
            step: SimTime::from_secs(1),
            objective: 0.95,
            expo_path: None,
            live: false,
            http_port: None,
        }
    }
}

/// End-of-run telemetry summary, attached to `RunOutcome`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Full windows closed (each rendered as a page when an exposition
    /// file or HTTP listener is attached).
    pub windows: u64,
    /// Alerts fired across all rules and scopes.
    pub alerts_fired: u64,
    /// Alerts resolved.
    pub alerts_resolved: u64,
    /// Highest short-window burn rate observed anywhere.
    pub peak_burn: f64,
    /// Every alert's lifetime, in firing order.
    pub alerts: Vec<AlertRecord>,
    /// Whether writing the exposition file failed (sticky).
    pub io_error: bool,
    /// Where the exposition pages went, if anywhere.
    pub expo_path: Option<PathBuf>,
}

/// The live telemetry plane threaded through `ServingSystem`.
#[derive(Debug)]
pub struct TelemetryRuntime {
    cfg: TelemetryConfig,
    registry: Registry,
    burn: BurnEngine,
    dashboard: Dashboard,
    expo: Option<std::io::BufWriter<std::fs::File>>,
    http: Option<HttpHandle>,
    io_error: bool,
    next_step_end: SimTime,
    /// Steps sealed so far.
    sealed: u64,
    windows: u64,
}

impl TelemetryRuntime {
    /// Builds the runtime: opens the exposition file and binds the HTTP
    /// listener if configured, printing its address on stderr. I/O
    /// failures are sticky-recorded, never fatal — telemetry must not take
    /// down a run.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let registry = Registry::new(cfg.window, cfg.step);
        let burn = BurnEngine::new(cfg.objective);
        let mut io_error = false;
        let expo = cfg
            .expo_path
            .as_ref()
            .and_then(|path| match std::fs::File::create(path) {
                Ok(f) => Some(std::io::BufWriter::new(f)),
                Err(_) => {
                    io_error = true;
                    None
                }
            });
        let http = cfg
            .http_port
            .and_then(|port| match HttpHandle::spawn(port) {
                Ok(h) => {
                    // Port 0 binds an ephemeral port: say which one.
                    eprintln!("telemetry: serving http://{}/metrics", h.addr());
                    Some(h)
                }
                Err(_) => {
                    io_error = true;
                    None
                }
            });
        let step = registry.step();
        TelemetryRuntime {
            cfg,
            registry,
            burn,
            dashboard: Dashboard::new(),
            expo,
            http,
            io_error,
            next_step_end: step,
            sealed: 0,
            windows: 0,
        }
    }

    /// The bound scrape address, when the HTTP listener is up.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(|h| h.addr())
    }

    /// The registry, for the control plane's hooks: phase timings and
    /// solve resolutions.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The monitoring-tick driver: seals a step of what `metrics`
    /// recorded, with the engine's device and control-plane samples, when
    /// one is due, runs the burn engine, and emits a window (page +
    /// dashboard frame) when one closes. Returns the alert transitions
    /// this tick caused — the engine turns them into trace events.
    pub fn tick(
        &mut self,
        now: SimTime,
        devices: &[DeviceSample],
        control: ControlSample,
        metrics: &MetricsCollector,
    ) -> Vec<AlertTransition> {
        if now < self.next_step_end {
            return Vec::new();
        }
        self.registry.seal_step(now, devices, control, metrics);
        self.next_step_end = now + self.registry.step();
        self.sealed += 1;
        let transitions = self.burn.push_step(now, &self.registry);
        let window_steps = self.registry.window_steps() as u64;
        if self.sealed.is_multiple_of(window_steps) {
            self.emit_window(metrics);
        }
        transitions
    }

    fn emit_window(&mut self, metrics: &MetricsCollector) {
        let Some(view) = self.registry.window() else {
            return;
        };
        self.windows += 1;
        // A page is rendered only when the exposition file or the HTTP
        // listener will read it.
        if self.expo.is_some() || self.http.is_some() {
            let page = render_page(self.windows, &self.registry, metrics, &self.burn, &view);
            if let Some(writer) = self.expo.as_mut() {
                if writer.write_all(page.as_bytes()).is_err() {
                    self.io_error = true;
                    self.expo = None;
                }
            }
            if let Some(http) = self.http.as_ref() {
                http.publish(&page);
            }
        }
        if self.cfg.live {
            let frame = self
                .dashboard
                .render(&self.registry, metrics, &self.burn, &view);
            let mut err = std::io::stderr();
            let _ = err.write_all(frame.as_bytes());
            let _ = err.flush();
        }
    }

    /// Finalizes the run: seals the tail, emits a last window, flushes
    /// the exposition file and returns the summary.
    pub fn finish(
        &mut self,
        now: SimTime,
        devices: &[DeviceSample],
        control: ControlSample,
        metrics: &MetricsCollector,
    ) -> TelemetrySummary {
        self.registry.seal_step(now, devices, control, metrics);
        self.burn.push_step(now, &self.registry);
        self.emit_window(metrics);
        if let Some(writer) = self.expo.as_mut() {
            if writer.flush().is_err() {
                self.io_error = true;
            }
        }
        let alerts = self.burn.alerts().to_vec();
        TelemetrySummary {
            windows: self.windows,
            alerts_fired: alerts.len() as u64,
            alerts_resolved: alerts.iter().filter(|a| a.resolved_at.is_some()).count() as u64,
            peak_burn: self.burn.peak_burn(),
            alerts,
            io_error: self.io_error,
            expo_path: self.cfg.expo_path.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_profiler::ModelFamily;

    fn devs() -> Vec<DeviceSample> {
        vec![DeviceSample {
            queue_depth: 1,
            up: true,
            busy: SimTime::from_millis(100),
            batches: 1,
            queries: 4,
        }]
    }

    fn idle() -> ControlSample {
        ControlSample::default()
    }

    /// One second of traffic for `family` just before `end_secs`: an
    /// arrival and its served response.
    fn second_served(m: &mut MetricsCollector, end_secs: u64, family: ModelFamily) {
        let at = SimTime::from_millis(end_secs * 1000 - 500);
        m.record_arrival(at, family);
        let latency = SimTime::from_millis(35);
        m.record_served_query(at + latency, end_secs, family, 0.95, true, latency);
    }

    #[test]
    fn port_zero_binds_an_ephemeral_port() {
        let rt = TelemetryRuntime::new(TelemetryConfig {
            http_port: Some(0),
            ..TelemetryConfig::default()
        });
        let addr = rt.http_addr().expect("the listener binds");
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn off_cadence_ticks_do_not_seal() {
        let mut rt = TelemetryRuntime::new(TelemetryConfig::default());
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        assert!(rt
            .tick(SimTime::from_millis(500), &devs(), idle(), &m)
            .is_empty());
        assert!(rt.registry.window().is_none());
        m.record_arrival(SimTime::from_millis(700), ModelFamily::ResNet);
        // The first due tick seals everything recorded so far.
        rt.tick(SimTime::from_secs(1), &devs(), idle(), &m);
        let w = rt.registry.window().unwrap();
        assert_eq!(w.families[ModelFamily::ResNet.index()].arrived, 1);
    }

    #[test]
    fn windows_and_alerts_reach_the_summary() {
        let cfg = TelemetryConfig {
            window: SimTime::from_secs(2),
            ..Default::default()
        };
        let mut rt = TelemetryRuntime::new(cfg);
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        let mut fired = 0;
        // Two all-dropped seconds early on burn 6.7x-10x of the 5 % budget
        // over every window: page and ticket both fire, then resolve.
        for s in 1..=30u64 {
            for i in 0..10u64 {
                let at = SimTime::from_millis((s - 1) * 1000 + 10 * i);
                m.record_arrival(at, ModelFamily::Bert);
                if s == 3 || s == 4 {
                    m.record_dropped(at, ModelFamily::Bert);
                } else {
                    let latency = SimTime::from_millis(20);
                    m.record_served_query(at + latency, 1, ModelFamily::Bert, 0.9, true, latency);
                }
            }
            fired += rt
                .tick(SimTime::from_secs(s), &devs(), idle(), &m)
                .iter()
                .filter(|t| t.fired)
                .count();
        }
        let summary = rt.finish(SimTime::from_secs(31), &devs(), idle(), &m);
        assert!(fired >= 1, "outage should fire");
        assert_eq!(summary.alerts_fired as usize, summary.alerts.len());
        assert!(summary.alerts_resolved >= 1, "recovery should resolve");
        assert!(summary.peak_burn >= 3.0);
        assert!(summary.windows >= 2);
        assert!(!summary.io_error);
        assert!(summary
            .alerts
            .iter()
            .any(|a| a.resolved_at.is_some() && a.scope == Some(ModelFamily::Bert)));
    }

    #[test]
    fn exposition_file_is_written_and_valid() {
        let dir = std::env::temp_dir();
        let path = dir.join("proteus_telemetry_runtime_test.prom");
        let _ = std::fs::remove_file(&path);
        let cfg = TelemetryConfig {
            window: SimTime::from_secs(2),
            expo_path: Some(path.clone()),
            ..Default::default()
        };
        let mut rt = TelemetryRuntime::new(cfg);
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        for s in 1..=5u64 {
            second_served(&mut m, s, ModelFamily::ResNet);
            rt.tick(SimTime::from_secs(s), &devs(), idle(), &m);
        }
        let summary = rt.finish(SimTime::from_secs(6), &devs(), idle(), &m);
        assert!(summary.windows >= 2);
        assert!(!summary.io_error);
        let text = std::fs::read_to_string(&path).expect("exposition file");
        let stats = crate::validate::validate(&text).expect("valid exposition");
        assert_eq!(stats.pages as u64, summary.windows);
        // The last page's counters are the collector's totals.
        let last = text.rsplit("# page").next().unwrap();
        assert!(last.contains("proteus_queries_arrived_total{family=\"ResNet\"} 5"));
        assert!(last.contains("proteus_latency_seconds_count 5"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn windows_close_without_a_page_consumer() {
        let run = |expo_path: Option<std::path::PathBuf>| {
            let mut rt = TelemetryRuntime::new(TelemetryConfig {
                window: SimTime::from_secs(2),
                expo_path,
                ..Default::default()
            });
            let mut m = MetricsCollector::new(SimTime::from_secs(1));
            for s in 1..=5u64 {
                second_served(&mut m, s, ModelFamily::ResNet);
                rt.tick(SimTime::from_secs(s), &devs(), idle(), &m);
            }
            rt.finish(SimTime::from_secs(6), &devs(), idle(), &m)
        };
        let path = std::env::temp_dir().join("proteus_telemetry_no_consumer_test.prom");
        let _ = std::fs::remove_file(&path);
        let with_file = run(Some(path.clone()));
        let without = run(None);
        assert!(without.windows >= 2);
        assert_eq!(without.windows, with_file.windows);
        assert_eq!(without.alerts_fired, with_file.alerts_fired);
        let text = std::fs::read_to_string(&path).expect("exposition file");
        let stats = crate::validate::validate(&text).expect("valid exposition");
        assert_eq!(stats.pages as u64, with_file.windows);
        let _ = std::fs::remove_file(&path);
    }
}
