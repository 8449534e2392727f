//! Trace import/export.
//!
//! The paper's artifact publishes its workload traces alongside the
//! simulator; this module provides the equivalent interchange format so
//! users can replay recorded production traces (or the actual Twitter
//! trace, if they have it) instead of the synthetic generators:
//!
//! * **Arrival streams** — CSV with `time_secs,family` rows, one query per
//!   line ([`arrivals_to_csv`] / [`arrivals_from_csv`]).
//! * **Demand curves** — CSV with `second,qps` rows, one bucket per line
//!   ([`RecordedTrace`]), implementing [`DemandTrace`] so a recorded curve
//!   plugs straight into [`TraceBuilder`](crate::TraceBuilder).

use std::fmt;

use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;

use crate::{DemandTrace, QueryArrival};

/// A failure while parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes an arrival stream as `time_secs,family,cost` CSV (with
/// header).
///
/// # Examples
///
/// ```
/// use proteus_profiler::ModelFamily;
/// use proteus_sim::SimTime;
/// use proteus_workloads::io::{arrivals_from_csv, arrivals_to_csv};
/// use proteus_workloads::QueryArrival;
///
/// let arrivals = vec![QueryArrival::new(SimTime::from_millis(1500), ModelFamily::Bert)];
/// let csv = arrivals_to_csv(&arrivals);
/// assert_eq!(arrivals_from_csv(&csv).unwrap(), arrivals);
/// ```
pub fn arrivals_to_csv(arrivals: &[QueryArrival]) -> String {
    let mut out = String::from("time_secs,family,cost\n");
    for a in arrivals {
        out.push_str(&format!(
            "{:.9},{},{:.6}\n",
            a.at.as_secs_f64(),
            a.family.label(),
            a.cost
        ));
    }
    out
}

/// Parses an arrival stream written by [`arrivals_to_csv`] (or by any other
/// tool emitting the same columns; the `cost` column is optional and
/// defaults to 1.0). Arrivals are sorted by time on the way in, so
/// unordered logs are accepted.
///
/// # Errors
///
/// Returns the first malformed line (wrong column count, negative,
/// non-numeric or unrepresentable time, unknown family, non-positive cost).
pub fn arrivals_from_csv(text: &str) -> Result<Vec<QueryArrival>, ParseTraceError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.trim();
        if content.is_empty() || (line == 1 && content.starts_with("time_secs")) {
            continue;
        }
        let bad = |reason: String| ParseTraceError { line, reason };
        let mut cols = content.split(',');
        let (Some(t), Some(fam), cost_col, None) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            return Err(bad("expected `time_secs,family[,cost]`".into()));
        };
        let secs: f64 = t
            .trim()
            .parse()
            .map_err(|_| bad(format!("`{t}` is not a number")))?;
        let Some(at) = SimTime::checked_from_secs_f64(secs) else {
            return Err(bad(format!(
                "time {secs} must be finite, non-negative and within the simulated range"
            )));
        };
        let family: ModelFamily = fam.trim().parse().map_err(|e| bad(format!("{e}")))?;
        let cost = match cost_col {
            None => 1.0,
            Some(c) => {
                let cost: f64 = c
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("`{c}` is not a cost")))?;
                if !cost.is_finite() || cost <= 0.0 {
                    return Err(bad(format!("cost {cost} must be positive and finite")));
                }
                cost
            }
        };
        out.push(QueryArrival { at, family, cost });
    }
    out.sort_by_key(|a| a.at);
    Ok(out)
}

/// A per-second demand curve recorded from production (or exported from a
/// generator), usable anywhere a [`DemandTrace`] is.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    per_second: Vec<f64>,
}

impl RecordedTrace {
    /// Wraps an in-memory per-second series.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    pub fn from_series(per_second: Vec<f64>) -> Self {
        for (i, &q) in per_second.iter().enumerate() {
            assert!(
                q.is_finite() && q >= 0.0,
                "second {i}: rate {q} must be finite and non-negative"
            );
        }
        Self { per_second }
    }

    /// Captures another trace's curve (e.g. to export a generated diurnal
    /// trace for later replay).
    pub fn capture(trace: &dyn DemandTrace) -> Self {
        Self {
            per_second: (0..trace.duration_secs())
                .map(|s| trace.qps_at(s))
                .collect(),
        }
    }

    /// Compresses the trace in time by an integer factor, as §6.1.3 does to
    /// the month-long Twitter trace: `factor` original seconds collapse
    /// into one, so instantaneous rates scale by `factor` while the demand
    /// *shape* is preserved. Used to overload a system with a trace that
    /// was recorded against much larger capacity.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn sped_up(&self, factor: u32) -> Self {
        assert!(factor > 0, "speed-up factor must be at least 1");
        let per_second = self
            .per_second
            .chunks(factor as usize)
            .map(|w| w.iter().sum())
            .collect();
        Self { per_second }
    }

    /// Serializes as `second,qps` CSV with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("second,qps\n");
        for (s, q) in self.per_second.iter().enumerate() {
            out.push_str(&format!("{s},{q:.6}\n"));
        }
        out
    }

    /// Parses `second,qps` CSV. Seconds must be dense and ascending from 0.
    ///
    /// # Errors
    ///
    /// Returns the first malformed or out-of-order line.
    pub fn from_csv(text: &str) -> Result<Self, ParseTraceError> {
        let mut per_second = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.trim();
            if content.is_empty() || (line == 1 && content.starts_with("second")) {
                continue;
            }
            let bad = |reason: String| ParseTraceError { line, reason };
            let mut cols = content.split(',');
            let (Some(s), Some(q), None) = (cols.next(), cols.next(), cols.next()) else {
                return Err(bad("expected exactly `second,qps`".into()));
            };
            let second: usize = s
                .trim()
                .parse()
                .map_err(|_| bad(format!("`{s}` is not a second index")))?;
            if second != per_second.len() {
                return Err(bad(format!(
                    "seconds must be dense and ascending: expected {}, got {second}",
                    per_second.len()
                )));
            }
            let qps: f64 = q
                .trim()
                .parse()
                .map_err(|_| bad(format!("`{q}` is not a rate")))?;
            if !qps.is_finite() || qps < 0.0 {
                return Err(bad(format!("rate {qps} must be finite and non-negative")));
            }
            per_second.push(qps);
        }
        Ok(Self { per_second })
    }
}

impl DemandTrace for RecordedTrace {
    fn qps_at(&self, second: u32) -> f64 {
        self.per_second.get(second as usize).copied().unwrap_or(0.0)
    }

    fn duration_secs(&self) -> u32 {
        self.per_second.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiurnalTrace, TraceBuilder};

    #[test]
    fn arrivals_round_trip() {
        let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(3)
            .build(&crate::FlatTrace { qps: 50.0, secs: 4 });
        let csv = arrivals_to_csv(&arrivals);
        let parsed = arrivals_from_csv(&csv).unwrap();
        assert_eq!(parsed, arrivals);
    }

    #[test]
    fn arrivals_accept_unordered_and_legacy_two_column_input() {
        let csv = "time_secs,family\n2.0,BERT\n1.0,ResNet\n";
        let parsed = arrivals_from_csv(csv).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed[0].at < parsed[1].at);
        assert_eq!(parsed[0].family, ModelFamily::ResNet);
        assert_eq!(parsed[0].cost, 1.0, "missing cost column defaults to 1");
        // Explicit cost column round-trips too.
        let parsed = arrivals_from_csv("0.5,BERT,2.25\n").unwrap();
        assert_eq!(parsed[0].cost, 2.25);
    }

    #[test]
    fn arrivals_report_bad_lines() {
        let err = arrivals_from_csv("time_secs,family\nabc,BERT\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("not a number"));
        let err = arrivals_from_csv("1.0,SqueezeNet\n").unwrap_err();
        assert!(err.reason.contains("SqueezeNet"));
        let err = arrivals_from_csv("1.0\n").unwrap_err();
        assert!(err.reason.contains("time_secs,family"));
        let err = arrivals_from_csv("-1.0,BERT\n").unwrap_err();
        assert!(err.reason.contains("non-negative"));
        // Finite but past SimTime's ~584-year range.
        let err = arrivals_from_csv("time_secs,family\n2e10,BERT\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("simulated range"), "{}", err.reason);
        let err = arrivals_from_csv("1.0,BERT,0.0\n").unwrap_err();
        assert!(err.reason.contains("positive"));
        let err = arrivals_from_csv("1.0,BERT,1.0,extra\n").unwrap_err();
        assert!(err.reason.contains("time_secs,family"));
    }

    #[test]
    fn recorded_trace_round_trips() {
        let original = DiurnalTrace::paper_like(120, 50.0, 300.0, 9);
        let recorded = RecordedTrace::capture(&original);
        let csv = recorded.to_csv();
        let parsed = RecordedTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed.duration_secs(), 120);
        for s in 0..120 {
            assert!((parsed.qps_at(s) - original.qps_at(s)).abs() < 1e-5);
        }
    }

    #[test]
    fn recorded_trace_feeds_the_builder() {
        let recorded = RecordedTrace::from_series(vec![100.0; 10]);
        let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(1)
            .build(&recorded);
        let rate = arrivals.len() as f64 / 10.0;
        assert!((rate - 100.0).abs() < 25.0);
    }

    #[test]
    fn recorded_trace_rejects_sparse_seconds() {
        let err = RecordedTrace::from_csv("second,qps\n0,10\n2,10\n").unwrap_err();
        assert!(err.reason.contains("dense"));
        let err = RecordedTrace::from_csv("0,-3\n").unwrap_err();
        assert!(err.reason.contains("non-negative"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_series_rejects_negative() {
        RecordedTrace::from_series(vec![5.0, -1.0]);
    }
}
