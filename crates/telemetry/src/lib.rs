//! Live telemetry plane for the Proteus serving loop.
//!
//! The post-hoc layers (`proteus-metrics` buckets, the `proteus-trace`
//! flight recorder) explain a run after it finishes; this crate watches
//! it *while it unfolds*. It is dependency-free and driven entirely by
//! simulated time — the only real-time code is the optional HTTP scrape
//! listener.
//!
//! The plane records no queries of its own. The serving loop records each
//! query once, in the run's [`proteus_metrics::MetricsCollector`]; every
//! monitoring tick hands the collector to the plane, which reads the
//! per-family flows, cumulative counters and latency sketch from it.
//!
//! The pieces, bottom-up:
//!
//! * [`Registry`] — sliding-window aggregation (configurable
//!   window/step) over the collector's per-family arrival, served and
//!   dropped flows and effective accuracy, plus what the collector does
//!   not hold: queue depths, per-device utilization and batch occupancy,
//!   per-phase control-plane self-profiling and the stale-plan age;
//! * [`BurnEngine`] — multi-window, multi-rate SLO burn-rate alerts in
//!   the Google SRE style, surfaced as first-class trace events;
//! * [`expose`] — Prometheus text-format 0.0.4 pages, one per window,
//!   with [`validate()`] as the matching mini-promtool;
//! * [`Dashboard`] — the `--live` ANSI terminal view;
//! * [`TelemetryRuntime`] — the facade `ServingSystem` drives, off by
//!   default behind `Option<TelemetryConfig>` (the `NullSink` pattern:
//!   one untaken branch per hook site when disabled).

#![warn(missing_docs)]

pub mod burn;
pub mod dashboard;
pub mod expose;
pub mod http;
pub mod registry;
pub mod runtime;
pub mod validate;

pub use burn::{AlertTransition, BurnEngine, BurnRule};
pub use dashboard::Dashboard;
pub use proteus_metrics::Bucket;
pub use registry::{DeviceSample, Phase, Registry, WindowView};
pub use runtime::{AlertRecord, TelemetryConfig, TelemetryRuntime, TelemetrySummary};
pub use validate::{validate, Stats, Violation};
