//! JSON Lines serialization of trace events, without a JSON dependency.
//!
//! Each event is one flat JSON object per line. The writer and the parser
//! are developed together against round-trip tests, so the on-disk format
//! is exactly the dialect the parser accepts: objects with string, integer,
//! float, null, and integer-array values.

use std::borrow::Cow;
use std::fmt::Write as _;

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::event::{AlertSeverity, DiscardReason, DropReason, EventKind, ReplanCause, TraceEvent};

/// Serializes one event as a single JSON line (no trailing newline).
pub fn to_jsonl(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"t\":{},\"ev\":\"{}\"",
        event.at.as_nanos(),
        event.kind.name()
    );
    match &event.kind {
        EventKind::WorkerOnline {
            device,
            device_type,
        } => {
            let _ = write!(
                s,
                ",\"d\":{},\"type\":\"{}\"",
                device.0,
                device_type.label()
            );
        }
        EventKind::Arrived { query, family } => {
            let _ = write!(s, ",\"q\":{query},\"family\":\"{}\"", family.label());
        }
        EventKind::Routed { query, device } => {
            let _ = write!(s, ",\"q\":{query},\"d\":{}", device.0);
        }
        EventKind::Enqueued {
            query,
            device,
            depth,
            behind,
        } => {
            let _ = write!(s, ",\"q\":{query},\"d\":{},\"depth\":{depth}", device.0);
            if let Some(b) = behind {
                let _ = write!(s, ",\"behind\":{b}");
            }
        }
        EventKind::BatchFormed {
            device,
            batch,
            queries,
        } => {
            let _ = write!(s, ",\"d\":{},\"batch\":{batch},\"queries\":[", device.0);
            for (i, q) in queries.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{q}");
            }
            s.push(']');
        }
        EventKind::ExecStarted {
            device,
            batch,
            variant,
            size,
            until,
        } => {
            let _ = write!(
                s,
                ",\"d\":{},\"batch\":{batch},\"variant\":\"{variant}\",\"size\":{size},\"until\":{}",
                device.0,
                until.as_nanos()
            );
        }
        EventKind::ExecCompleted { device, batch } => {
            let _ = write!(s, ",\"d\":{},\"batch\":{batch}", device.0);
        }
        EventKind::ServedOnTime {
            query,
            latency,
            epoch,
        }
        | EventKind::ServedLate {
            query,
            latency,
            epoch,
        } => {
            let _ = write!(
                s,
                ",\"q\":{query},\"latency\":{},\"epoch\":{epoch}",
                latency.as_nanos()
            );
        }
        EventKind::Dropped { query, reason } => {
            let _ = write!(s, ",\"q\":{query},\"reason\":\"{}\"", reason.label());
        }
        EventKind::ModelLoadStarted {
            device,
            variant,
            until,
        } => {
            let _ = write!(s, ",\"d\":{},\"variant\":", device.0);
            match variant {
                Some(v) => {
                    let _ = write!(s, "\"{v}\"");
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"until\":{}", until.as_nanos());
        }
        EventKind::ModelLoadFinished { device } => {
            let _ = write!(s, ",\"d\":{}", device.0);
        }
        EventKind::ReplanTriggered { cause } => {
            let _ = write!(s, ",\"cause\":\"{}\"", cause.label());
        }
        EventKind::PlanApplied { changed, shrink } => {
            let _ = write!(s, ",\"changed\":{changed},\"shrink\":{shrink}");
        }
        EventKind::SolveStats {
            nodes,
            pivots,
            warm_starts,
            wall_nanos,
        } => {
            let _ = write!(
                s,
                ",\"nodes\":{nodes},\"pivots\":{pivots},\"warm\":{warm_starts},\"wall\":{wall_nanos}"
            );
        }
        EventKind::AuditReport {
            violations,
            devices_checked,
            families_checked,
        } => {
            let _ = write!(
                s,
                ",\"violations\":{violations},\"devices\":{devices_checked},\"families\":{families_checked}"
            );
        }
        EventKind::WorkerCrashed { device } | EventKind::WorkerRecovered { device } => {
            let _ = write!(s, ",\"d\":{}", device.0);
        }
        EventKind::QueryRetried {
            query,
            from,
            attempt,
        } => {
            let _ = write!(
                s,
                ",\"q\":{query},\"from\":{},\"attempt\":{attempt}",
                from.0
            );
        }
        EventKind::LoadFailed {
            device,
            variant,
            attempt,
        } => {
            let _ = write!(s, ",\"d\":{},\"variant\":", device.0);
            match variant {
                Some(v) => {
                    let _ = write!(s, "\"{v}\"");
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"attempt\":{attempt}");
        }
        EventKind::StragglerStarted { device, slowdown } => {
            let _ = write!(s, ",\"d\":{},\"slowdown\":{slowdown}", device.0);
        }
        EventKind::StragglerEnded { device } => {
            let _ = write!(s, ",\"d\":{}", device.0);
        }
        EventKind::AlertFired {
            scope,
            severity,
            burn,
            long_secs,
            short_secs,
        }
        | EventKind::AlertResolved {
            scope,
            severity,
            burn,
            long_secs,
            short_secs,
        } => {
            let _ = write!(s, ",\"scope\":");
            match scope {
                Some(f) => {
                    let _ = write!(s, "\"{}\"", f.label());
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ",\"severity\":\"{}\",\"burn\":{burn},\"long_s\":{long_secs},\"short_s\":{short_secs}",
                severity.label()
            );
        }
        EventKind::SolveStarted { cause, until } => {
            let _ = write!(
                s,
                ",\"cause\":\"{}\",\"until\":{}",
                cause.label(),
                until.as_nanos()
            );
        }
        EventKind::SolveComplete { cause } => {
            let _ = write!(s, ",\"cause\":\"{}\"", cause.label());
        }
        EventKind::PlanDiscarded { cause, reason } => {
            let _ = write!(
                s,
                ",\"cause\":\"{}\",\"reason\":\"{}\"",
                cause.label(),
                reason.label()
            );
        }
    }
    s.push('}');
    s
}

/// A failure parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventError {
    /// 1-based line number (0 when parsing a single line out of context).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseEventError {}

/// A parsed JSON value of the subset the trace format uses. Strings borrow
/// from the line unless they contain an escape.
#[derive(Debug, Clone, PartialEq)]
enum Val<'a> {
    Int(u64),
    Float(f64),
    Str(Cow<'a, str>),
    Arr(Vec<u64>),
    Null,
}

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`ParseEventError`] (with `line` 0) on malformed input.
pub fn parse_line(text: &str) -> Result<TraceEvent, ParseEventError> {
    let err = |reason: String| ParseEventError { line: 0, reason };
    let fields = parse_object(text).map_err(err)?;
    let get = |key: &str| -> Result<&Val, ParseEventError> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseEventError {
                line: 0,
                reason: format!("missing field `{key}`"),
            })
    };
    let int = |key: &str| -> Result<u64, ParseEventError> {
        match get(key)? {
            Val::Int(n) => Ok(*n),
            other => Err(ParseEventError {
                line: 0,
                reason: format!("field `{key}` is not an integer: {other:?}"),
            }),
        }
    };
    // Optional integer: absent keys yield `None` so traces written before a
    // field existed still parse (needed by `trace-query diff` across builds).
    let opt_int = |key: &str| -> Result<Option<u64>, ParseEventError> {
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None | Some(Val::Null) => Ok(None),
            Some(Val::Int(n)) => Ok(Some(*n)),
            Some(other) => Err(ParseEventError {
                line: 0,
                reason: format!("field `{key}` is not an integer: {other:?}"),
            }),
        }
    };
    let float = |key: &str| -> Result<f64, ParseEventError> {
        match get(key)? {
            Val::Float(x) => Ok(*x),
            Val::Int(n) => Ok(*n as f64),
            other => Err(ParseEventError {
                line: 0,
                reason: format!("field `{key}` is not a number: {other:?}"),
            }),
        }
    };
    let str_ = |key: &str| -> Result<&str, ParseEventError> {
        match get(key)? {
            Val::Str(s) => Ok(s),
            other => Err(ParseEventError {
                line: 0,
                reason: format!("field `{key}` is not a string: {other:?}"),
            }),
        }
    };
    let time =
        |key: &str| -> Result<SimTime, ParseEventError> { Ok(SimTime::from_nanos(int(key)?)) };
    let device = || -> Result<DeviceId, ParseEventError> { Ok(DeviceId(int("d")? as u32)) };
    let family = |key: &str| -> Result<ModelFamily, ParseEventError> {
        str_(key)?.parse().map_err(|e| ParseEventError {
            line: 0,
            reason: format!("{e}"),
        })
    };
    let variant = |key: &str| -> Result<VariantId, ParseEventError> {
        parse_variant(str_(key)?).ok_or_else(|| ParseEventError {
            line: 0,
            reason: format!("bad variant `{}`", str_(key).unwrap_or("?")),
        })
    };

    let at = time("t")?;
    let ev = str_("ev")?;
    let kind = match ev {
        "worker_online" => EventKind::WorkerOnline {
            device: device()?,
            device_type: parse_device_type(str_("type")?).ok_or_else(|| ParseEventError {
                line: 0,
                reason: format!("unknown device type `{}`", str_("type").unwrap_or("?")),
            })?,
        },
        "arrived" => EventKind::Arrived {
            query: int("q")?,
            family: family("family")?,
        },
        "routed" => EventKind::Routed {
            query: int("q")?,
            device: device()?,
        },
        "enqueued" => EventKind::Enqueued {
            query: int("q")?,
            device: device()?,
            depth: int("depth")? as u32,
            behind: opt_int("behind")?,
        },
        "batch_formed" => EventKind::BatchFormed {
            device: device()?,
            batch: int("batch")?,
            queries: match get("queries")? {
                Val::Arr(v) => v.clone(),
                other => {
                    return Err(ParseEventError {
                        line: 0,
                        reason: format!("`queries` is not an array: {other:?}"),
                    })
                }
            },
        },
        "exec_started" => EventKind::ExecStarted {
            device: device()?,
            batch: int("batch")?,
            variant: variant("variant")?,
            size: int("size")? as u32,
            until: time("until")?,
        },
        "exec_completed" => EventKind::ExecCompleted {
            device: device()?,
            batch: int("batch")?,
        },
        "served_on_time" => EventKind::ServedOnTime {
            query: int("q")?,
            latency: time("latency")?,
            epoch: opt_int("epoch")?.unwrap_or(0),
        },
        "served_late" => EventKind::ServedLate {
            query: int("q")?,
            latency: time("latency")?,
            epoch: opt_int("epoch")?.unwrap_or(0),
        },
        "dropped" => EventKind::Dropped {
            query: int("q")?,
            reason: DropReason::parse(str_("reason")?).ok_or_else(|| ParseEventError {
                line: 0,
                reason: format!("unknown drop reason `{}`", str_("reason").unwrap_or("?")),
            })?,
        },
        "model_load_started" => EventKind::ModelLoadStarted {
            device: device()?,
            variant: match get("variant")? {
                Val::Null => None,
                Val::Str(_) => Some(variant("variant")?),
                other => {
                    return Err(ParseEventError {
                        line: 0,
                        reason: format!("`variant` is not a string or null: {other:?}"),
                    })
                }
            },
            until: time("until")?,
        },
        "model_load_finished" => EventKind::ModelLoadFinished { device: device()? },
        "replan_triggered" => EventKind::ReplanTriggered {
            cause: ReplanCause::parse(str_("cause")?).ok_or_else(|| ParseEventError {
                line: 0,
                reason: format!("unknown replan cause `{}`", str_("cause").unwrap_or("?")),
            })?,
        },
        "plan_applied" => EventKind::PlanApplied {
            changed: int("changed")? as u32,
            shrink: float("shrink")?,
        },
        "solve_stats" => EventKind::SolveStats {
            nodes: int("nodes")?,
            pivots: int("pivots")?,
            warm_starts: int("warm")?,
            wall_nanos: int("wall")?,
        },
        "audit_report" => EventKind::AuditReport {
            violations: int("violations")? as u32,
            devices_checked: int("devices")? as u32,
            families_checked: int("families")? as u32,
        },
        "worker_crashed" => EventKind::WorkerCrashed { device: device()? },
        "worker_recovered" => EventKind::WorkerRecovered { device: device()? },
        "query_retried" => EventKind::QueryRetried {
            query: int("q")?,
            from: DeviceId(int("from")? as u32),
            attempt: int("attempt")? as u32,
        },
        "load_failed" => EventKind::LoadFailed {
            device: device()?,
            variant: match get("variant")? {
                Val::Null => None,
                Val::Str(_) => Some(variant("variant")?),
                other => {
                    return Err(ParseEventError {
                        line: 0,
                        reason: format!("`variant` is not a string or null: {other:?}"),
                    })
                }
            },
            attempt: int("attempt")? as u32,
        },
        "straggler_started" => EventKind::StragglerStarted {
            device: device()?,
            slowdown: float("slowdown")?,
        },
        "straggler_ended" => EventKind::StragglerEnded { device: device()? },
        "alert_fired" | "alert_resolved" => {
            let scope = match get("scope")? {
                Val::Null => None,
                Val::Str(_) => Some(family("scope")?),
                other => {
                    return Err(ParseEventError {
                        line: 0,
                        reason: format!("`scope` is not a string or null: {other:?}"),
                    })
                }
            };
            let severity =
                AlertSeverity::parse(str_("severity")?).ok_or_else(|| ParseEventError {
                    line: 0,
                    reason: format!(
                        "unknown alert severity `{}`",
                        str_("severity").unwrap_or("?")
                    ),
                })?;
            let burn = float("burn")?;
            let long_secs = float("long_s")?;
            let short_secs = float("short_s")?;
            if ev == "alert_fired" {
                EventKind::AlertFired {
                    scope,
                    severity,
                    burn,
                    long_secs,
                    short_secs,
                }
            } else {
                EventKind::AlertResolved {
                    scope,
                    severity,
                    burn,
                    long_secs,
                    short_secs,
                }
            }
        }
        "solve_started" | "solve_complete" | "plan_discarded" => {
            let cause = ReplanCause::parse(str_("cause")?).ok_or_else(|| ParseEventError {
                line: 0,
                reason: format!("unknown replan cause `{}`", str_("cause").unwrap_or("?")),
            })?;
            match ev {
                "solve_started" => EventKind::SolveStarted {
                    cause,
                    until: time("until")?,
                },
                "solve_complete" => EventKind::SolveComplete { cause },
                _ => EventKind::PlanDiscarded {
                    cause,
                    reason: DiscardReason::parse(str_("reason")?).ok_or_else(|| {
                        ParseEventError {
                            line: 0,
                            reason: format!(
                                "unknown discard reason `{}`",
                                str_("reason").unwrap_or("?")
                            ),
                        }
                    })?,
                },
            }
        }
        other => {
            return Err(ParseEventError {
                line: 0,
                reason: format!("unknown event type `{other}`"),
            })
        }
    };
    Ok(TraceEvent { at, kind })
}

/// Parses a whole JSONL document (blank lines skipped).
///
/// # Errors
///
/// Returns the first malformed line with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseEventError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_line(line).map_err(|mut e| {
            e.line = idx + 1;
            e
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Parses `Family#index` (the `Display` form of [`VariantId`]).
fn parse_variant(s: &str) -> Option<VariantId> {
    let (family, index) = s.rsplit_once('#')?;
    Some(VariantId {
        family: family.parse().ok()?,
        index: index.parse().ok()?,
    })
}

/// Parses a device-type label (the `Display` form of `DeviceType`).
fn parse_device_type(s: &str) -> Option<proteus_profiler::DeviceType> {
    proteus_profiler::DeviceType::ALL
        .into_iter()
        .find(|t| t.label() == s)
}

/// Parses a flat JSON object into `(key, value)` pairs borrowing from
/// `text`.
fn parse_object(text: &str) -> Result<Vec<(Cow<'_, str>, Val<'_>)>, String> {
    let mut p = Parser { src: text, pos: 0 };
    p.skip_ws();
    p.expect_byte(b'{')?;
    // Trace lines carry at most seven fields: one allocation per line.
    let mut fields = Vec::with_capacity(8);
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect_byte(b':')?;
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    /// The line being parsed; `pos` is a byte offset into it.
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {other:?}", want as char)),
        }
    }

    /// Parses a string literal. Without escapes it is the slice between the
    /// quotes; after a backslash the unescaped runs are copied whole.
    /// Quotes and backslashes are ASCII, so every cut lands on a UTF-8
    /// character boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_byte(b'"')?;
        let src = self.src;
        let mut owned: Option<String> = None;
        loop {
            let run_start = self.pos;
            let Some(len) = src.as_bytes()[run_start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".into());
            };
            self.pos += len + 1;
            let run = &src[run_start..run_start + len];
            if src.as_bytes()[run_start + len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            out.push(match self.next() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                other => return Err(format!("unsupported escape {other:?}")),
            });
        }
    }

    fn number(&mut self) -> Result<Val<'a>, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so the cut is on a boundary.
        let text = &self.src[start..self.pos];
        if text.is_empty() {
            return Err("expected a number".into());
        }
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse::<u64>()
                .map(Val::Int)
                .map_err(|_| format!("bad integer `{text}`"))
        } else {
            text.parse::<f64>()
                .map(Val::Float)
                .map_err(|_| format!("bad number `{text}`"))
        }
    }

    fn value(&mut self) -> Result<Val<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'n') => {
                if self.src.as_bytes()[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Val::Null)
                } else {
                    Err("expected `null`".into())
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    self.skip_ws();
                    match self.number()? {
                        Val::Int(n) => items.push(n),
                        other => return Err(format!("array item is not an integer: {other:?}")),
                    }
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Val::Arr(items)),
                        other => return Err(format!("expected `,` or `]`, got {other:?}")),
                    }
                }
            }
            _ => self.number(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_profiler::DeviceType;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn all_kinds() -> Vec<TraceEvent> {
        let v = VariantId {
            family: ModelFamily::ResNet,
            index: 2,
        };
        let kinds = vec![
            EventKind::WorkerOnline {
                device: DeviceId(3),
                device_type: DeviceType::V100,
            },
            EventKind::Arrived {
                query: 17,
                family: ModelFamily::Gpt2,
            },
            EventKind::Routed {
                query: 17,
                device: DeviceId(3),
            },
            EventKind::Enqueued {
                query: 17,
                device: DeviceId(3),
                depth: 4,
                behind: None,
            },
            EventKind::Enqueued {
                query: 18,
                device: DeviceId(3),
                depth: 5,
                behind: Some(8),
            },
            EventKind::BatchFormed {
                device: DeviceId(3),
                batch: 9,
                queries: vec![15, 16, 17],
            },
            EventKind::BatchFormed {
                device: DeviceId(3),
                batch: 10,
                queries: vec![],
            },
            EventKind::ExecStarted {
                device: DeviceId(3),
                batch: 9,
                variant: v,
                size: 3,
                until: t(120),
            },
            EventKind::ExecCompleted {
                device: DeviceId(3),
                batch: 9,
            },
            EventKind::ServedOnTime {
                query: 17,
                latency: t(45),
                epoch: 2,
            },
            EventKind::ServedLate {
                query: 16,
                latency: t(450),
                epoch: 0,
            },
            EventKind::Dropped {
                query: 15,
                reason: DropReason::Expired,
            },
            EventKind::ModelLoadStarted {
                device: DeviceId(3),
                variant: Some(v),
                until: t(2000),
            },
            EventKind::ModelLoadStarted {
                device: DeviceId(3),
                variant: None,
                until: t(2000),
            },
            EventKind::ModelLoadFinished {
                device: DeviceId(3),
            },
            EventKind::ReplanTriggered {
                cause: ReplanCause::Burst,
            },
            EventKind::PlanApplied {
                changed: 5,
                shrink: 1.25,
            },
            EventKind::SolveStats {
                nodes: 12,
                pivots: 340,
                warm_starts: 11,
                wall_nanos: 1_500_000,
            },
            EventKind::AuditReport {
                violations: 0,
                devices_checked: 9,
                families_checked: 9,
            },
            EventKind::WorkerCrashed {
                device: DeviceId(3),
            },
            EventKind::WorkerRecovered {
                device: DeviceId(3),
            },
            EventKind::QueryRetried {
                query: 17,
                from: DeviceId(3),
                attempt: 2,
            },
            EventKind::LoadFailed {
                device: DeviceId(3),
                variant: Some(v),
                attempt: 1,
            },
            EventKind::LoadFailed {
                device: DeviceId(3),
                variant: None,
                attempt: 3,
            },
            EventKind::StragglerStarted {
                device: DeviceId(3),
                slowdown: 2.5,
            },
            EventKind::StragglerEnded {
                device: DeviceId(3),
            },
            EventKind::Dropped {
                query: 14,
                reason: DropReason::DeviceFailed,
            },
            EventKind::AlertFired {
                scope: Some(ModelFamily::ResNet),
                severity: AlertSeverity::Page,
                burn: 14.62,
                long_secs: 300.0,
                short_secs: 60.0,
            },
            EventKind::AlertFired {
                scope: None,
                severity: AlertSeverity::Ticket,
                burn: 6.0078125,
                long_secs: 900.0,
                short_secs: 300.0,
            },
            EventKind::AlertResolved {
                scope: None,
                severity: AlertSeverity::Page,
                burn: 0.25,
                long_secs: 300.0,
                short_secs: 60.0,
            },
            EventKind::SolveStarted {
                cause: ReplanCause::Periodic,
                until: t(34_200),
            },
            EventKind::SolveComplete {
                cause: ReplanCause::Periodic,
            },
            EventKind::PlanDiscarded {
                cause: ReplanCause::Burst,
                reason: DiscardReason::Liveness,
            },
            EventKind::PlanDiscarded {
                cause: ReplanCause::Periodic,
                reason: DiscardReason::Superseded,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                at: t(i as u64),
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        for event in all_kinds() {
            let line = to_jsonl(&event);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn document_round_trips_with_blank_lines() {
        let events = all_kinds();
        let mut doc = String::new();
        for e in &events {
            doc.push_str(&to_jsonl(e));
            doc.push('\n');
        }
        doc.push('\n'); // trailing blank line is tolerated
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn shrink_float_round_trips_exactly() {
        let event = TraceEvent {
            at: t(1),
            kind: EventKind::PlanApplied {
                changed: 0,
                shrink: 1.0526315789473684,
            },
        };
        assert_eq!(parse_line(&to_jsonl(&event)).unwrap(), event);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good = to_jsonl(&all_kinds()[0]);
        let doc = format!("{good}\nnot json\n");
        let err = parse_jsonl(&doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"t\":1}",
            "{\"t\":1,\"ev\":\"nope\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"NopeNet\"}",
            "{\"t\":1,\"ev\":\"dropped\",\"q\":1,\"reason\":\"sunspots\"}",
            "{\"t\":1,\"ev\":\"arrived\",\"q\":1,\"family\":\"ResNet\"}x",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn pre_causal_link_lines_still_parse() {
        // Traces written before `behind`/`epoch` existed must stay readable
        // so `trace-query diff` can align runs across builds.
        let enq = parse_line("{\"t\":1,\"ev\":\"enqueued\",\"q\":7,\"d\":2,\"depth\":1}").unwrap();
        assert_eq!(
            enq.kind,
            EventKind::Enqueued {
                query: 7,
                device: DeviceId(2),
                depth: 1,
                behind: None,
            }
        );
        let served =
            parse_line("{\"t\":2,\"ev\":\"served_on_time\",\"q\":7,\"latency\":5}").unwrap();
        assert_eq!(
            served.kind,
            EventKind::ServedOnTime {
                query: 7,
                latency: SimTime::from_nanos(5),
                epoch: 0,
            }
        );
    }

    #[test]
    fn non_ascii_strings_decode_intact() {
        let fields = parse_object("{\"k\":\"café ✓\",\"esc\":\"a\\\"é\\\\ü\"}").unwrap();
        assert_eq!(fields[0], (Cow::Borrowed("k"), Val::Str("café ✓".into())));
        assert!(matches!(&fields[0].1, Val::Str(Cow::Borrowed(_))));
        assert_eq!(
            fields[1],
            (Cow::Borrowed("esc"), Val::Str("a\"é\\ü".into()))
        );
    }

    #[test]
    fn integer_timestamps_survive_beyond_f64_precision() {
        let nanos = (1u64 << 53) + 1; // not representable as f64
        let event = TraceEvent {
            at: SimTime::from_nanos(nanos),
            kind: EventKind::ModelLoadFinished {
                device: DeviceId(0),
            },
        };
        let back = parse_line(&to_jsonl(&event)).unwrap();
        assert_eq!(back.at.as_nanos(), nanos);
    }
}
