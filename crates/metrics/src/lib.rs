//! Measurement: per-interval timeseries, run summaries and report rendering.
//!
//! The paper evaluates every system with four metrics (§6.1.4):
//!
//! 1. **Throughput** — queries served per second;
//! 2. **Effective accuracy** — mean normalized accuracy over *served*
//!    queries;
//! 3. **Maximum accuracy drop** — the largest dip of effective accuracy
//!    below 100 % anywhere in the trace;
//! 4. **SLO violation ratio** — (dropped + late) / total queries.
//!
//! [`MetricsCollector`] ingests per-query events from the serving system and
//! buckets them into fixed intervals, with served latencies (and the query
//! ids of the slowest, as exemplars) in one [`QuantileSketch`] per family;
//! [`RunSummary`] condenses a run into the four headline metrics (plus
//! latency percentiles and per-family breakdowns for Fig. 9); the
//! [`report`] module renders plain-text tables and CSV for the experiment
//! binaries. The collector is the run's only per-query record: the
//! telemetry plane's windows, counters and latency exposition are read
//! from it, so the summary's percentiles equal the live exposition's.
//!
//! # Examples
//!
//! ```
//! use proteus_metrics::MetricsCollector;
//! use proteus_profiler::ModelFamily;
//! use proteus_sim::SimTime;
//!
//! let mut m = MetricsCollector::new(SimTime::from_secs(1));
//! let t = SimTime::from_millis(300);
//! m.record_arrival(t, ModelFamily::ResNet);
//! m.record_served(t + SimTime::from_millis(40), ModelFamily::ResNet, 0.95, true);
//! let summary = m.summary();
//! assert_eq!(summary.total_arrived, 1);
//! assert!((summary.effective_accuracy - 0.95).abs() < 1e-12);
//! assert_eq!(summary.slo_violation_ratio, 0.0);
//! ```

#![forbid(unsafe_code)]

mod collector;
pub mod report;
mod sketch;
mod summary;

pub use collector::{Bucket, MetricsCollector, LATENCY_ALPHA, LATENCY_BUCKETS};
pub use sketch::{Exemplar, QuantileSketch, SketchMismatch};
pub use summary::{FamilySummary, RunSummary};
