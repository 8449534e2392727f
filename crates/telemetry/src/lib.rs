//! Live telemetry plane for the Proteus serving loop.
//!
//! The post-hoc layers (`proteus-metrics` buckets, the `proteus-trace`
//! flight recorder) explain a run after it finishes; this crate watches
//! it *while it unfolds*. It is dependency-free and driven entirely by
//! simulated time — the only real-time code is the optional HTTP scrape
//! listener.
//!
//! The pieces, bottom-up:
//!
//! * [`Registry`] — typed counters, gauges and latency sketches
//!   ([`proteus_metrics::QuantileSketch`]) with sliding-window
//!   aggregation (configurable window/step) over the serving loop's
//!   signals: per-family arrival/served/dropped rates, effective
//!   accuracy, queue depths, per-device utilization and batch occupancy,
//!   and per-phase control-plane self-profiling;
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
