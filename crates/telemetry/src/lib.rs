//! Live telemetry plane for the Proteus serving loop.
//!
//! The post-hoc layers (`proteus-metrics` buckets, the `proteus-trace`
//! flight recorder) explain a run after it finishes; this crate watches
//! it *while it unfolds*. It is dependency-free and driven entirely by
//! simulated time — the only real-time code is the optional HTTP scrape
//! listener.
//!
//! The plane records no queries of its own and mirrors no engine state.
//! The serving loop records each query once, in the run's
//! [`proteus_metrics::MetricsCollector`]; every monitoring tick hands the
//! plane that collector, which it reads the per-family flows, cumulative
//! counters and latency sketch from, plus samples of the devices and of
//! the control plane ([`DeviceSample`], [`ControlSample`]).
//!
//! The pieces, bottom-up:
//!
//! * [`Registry`] — the plane's one step history: sliding-window
//!   aggregation (configurable window/step) over the collector's
//!   per-family arrival, served and dropped flows and effective accuracy,
//!   with each step's device and control-plane samples (queue depths,
//!   per-device utilization and batch occupancy, the solve in flight),
//!   plus per-phase control-plane self-profiling and the stale-plan age;
//! * [`BurnEngine`] — multi-window, multi-rate SLO burn-rate alerts in
//!   the Google SRE style under the fixed [`RULES`], summed over the
//!   registry's steps; its alert log is the only alert state, and its
//!   transitions surface as first-class trace events;
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

pub use burn::{AlertRecord, AlertTransition, BurnEngine, BurnRule, RULES};
pub use dashboard::Dashboard;
pub use proteus_metrics::Bucket;
pub use registry::{ControlSample, DeviceSample, Phase, Registry, WindowView};
pub use runtime::{TelemetryConfig, TelemetryRuntime, TelemetrySummary};
pub use validate::{validate, Stats, Violation};
