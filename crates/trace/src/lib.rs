//! Flight recorder for the Proteus reproduction: structured event tracing
//! across the data and control paths.
//!
//! The serving engine emits typed [`TraceEvent`]s at every interesting
//! point — query lifecycle, worker state transitions, control-plane
//! decisions — into a [`TraceSink`]. Tracing is zero-cost when disabled:
//! with the default [`NullSink`], every instrumentation site reduces to a
//! single untaken branch and no event is ever constructed.
//!
//! Three sinks cover the use cases:
//!
//! * [`NullSink`] — tracing off (the default);
//! * [`MemorySink`] — in-memory capture for tests and post-run export;
//! * [`JsonlSink`] — streams JSON Lines to a file or any writer as the run
//!   progresses, encoding events into one reused 64 KiB chunk and writing
//!   whole chunks (the tail on flush, `finish` or drop).
//!
//! On top of the recorded stream sit the offline consumers: a
//! [Chrome-trace exporter](chrome::export_chrome) (open the result in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)), the
//! [`analysis`] module (per-query lifecycle reconstruction and
//! SLO-violation [blame attribution](analysis::blame)), the [`span`]
//! module (causal span trees with an additive critical-path
//! decomposition, plus collapsed-stack flame export), and the [`diff`]
//! module (run-to-run trace comparison for regression triage) — all
//! powering the `trace-query` binary in the CLI crate.
//!
//! # Examples
//!
//! ```
//! use proteus_trace::{EventKind, MemorySink, TraceEvent, TraceSink};
//! use proteus_profiler::ModelFamily;
//! use proteus_sim::SimTime;
//!
//! let mut sink = MemorySink::new();
//! if sink.enabled() {
//!     sink.record(&TraceEvent {
//!         at: SimTime::from_millis(5),
//!         kind: EventKind::Arrived { query: 1, family: ModelFamily::ResNet },
//!     });
//! }
//! assert_eq!(sink.events().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod chrome;
pub mod diff;
pub mod event;
pub mod json;
pub mod sink;
pub mod span;

pub use analysis::{blame, query_lifecycle, BlameCause, BlameReport, BlameVerdict, LifecycleStats};
pub use chrome::export_chrome;
pub use diff::{diff_traces, CauseMigration, DiffReport, SegmentDelta};
pub use event::{AlertSeverity, DiscardReason, DropReason, EventKind, ReplanCause, TraceEvent};
pub use json::{parse_jsonl, parse_line, to_jsonl, write_jsonl, ParseEventError};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};
pub use span::{collapse_flame, span_tree, span_trees, CausalEdge, Outcome, Segment, SpanTree};
