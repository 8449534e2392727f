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
///
/// A convenience over [`write_jsonl`] for callers that want an owned line;
/// streaming writers should reuse one buffer with `write_jsonl` instead.
pub fn to_jsonl(event: &TraceEvent) -> String {
    let mut line = Vec::with_capacity(96);
    write_jsonl(event, &mut line);
    // The encoder writes ASCII and whole `&str` labels, so this is UTF-8.
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// `,"key":` as bytes, assembled at compile time.
macro_rules! key {
    ($k:literal) => {
        concat!(",\"", $k, "\":").as_bytes()
    };
}

/// Appends one event as a single JSON line (no trailing newline) to `out`,
/// leaving whatever `out` already holds in place.
///
/// One pass, no allocation beyond growing `out`: integers go through a
/// stack digit buffer and labels are copied as bytes. Only the rare `f64`
/// fields use `core::fmt`, for Rust's shortest round-trip `{}` form.
pub fn write_jsonl(event: &TraceEvent, out: &mut Vec<u8>) {
    let mut w = Line(out);
    w.0.extend_from_slice(b"{\"t\":");
    w.uint(event.at.as_nanos());
    w.label(key!("ev"), event.kind.name());
    match &event.kind {
        EventKind::WorkerOnline {
            device,
            device_type,
        } => {
            w.device(key!("d"), *device);
            w.label(key!("type"), device_type.label());
        }
        EventKind::Arrived { query, family } => {
            w.int(key!("q"), *query);
            w.label(key!("family"), family.label());
        }
        EventKind::Routed { query, device } => {
            w.int(key!("q"), *query);
            w.device(key!("d"), *device);
        }
        EventKind::Enqueued {
            query,
            device,
            depth,
            behind,
        } => {
            w.int(key!("q"), *query);
            w.device(key!("d"), *device);
            w.int(key!("depth"), u64::from(*depth));
            if let Some(b) = behind {
                w.int(key!("behind"), *b);
            }
        }
        EventKind::BatchFormed {
            device,
            batch,
            queries,
        } => {
            w.device(key!("d"), *device);
            w.int(key!("batch"), *batch);
            w.0.extend_from_slice(key!("queries"));
            w.0.push(b'[');
            for (i, q) in queries.iter().enumerate() {
                if i > 0 {
                    w.0.push(b',');
                }
                w.uint(*q);
            }
            w.0.push(b']');
        }
        EventKind::ExecStarted {
            device,
            batch,
            variant,
            size,
            until,
        } => {
            w.device(key!("d"), *device);
            w.int(key!("batch"), *batch);
            w.variant(Some(*variant));
            w.int(key!("size"), u64::from(*size));
            w.int(key!("until"), until.as_nanos());
        }
        EventKind::ExecCompleted { device, batch } => {
            w.device(key!("d"), *device);
            w.int(key!("batch"), *batch);
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
            w.int(key!("q"), *query);
            w.int(key!("latency"), latency.as_nanos());
            w.int(key!("epoch"), *epoch);
        }
        EventKind::Dropped { query, reason } => {
            w.int(key!("q"), *query);
            w.label(key!("reason"), reason.label());
        }
        EventKind::ModelLoadStarted {
            device,
            variant,
            until,
        } => {
            w.device(key!("d"), *device);
            w.variant(*variant);
            w.int(key!("until"), until.as_nanos());
        }
        EventKind::ModelLoadFinished { device }
        | EventKind::WorkerCrashed { device }
        | EventKind::WorkerRecovered { device }
        | EventKind::StragglerEnded { device } => {
            w.device(key!("d"), *device);
        }
        EventKind::ReplanTriggered { cause } | EventKind::SolveComplete { cause } => {
            w.label(key!("cause"), cause.label());
        }
        EventKind::PlanApplied { changed, shrink } => {
            w.int(key!("changed"), u64::from(*changed));
            w.float(key!("shrink"), *shrink);
        }
        EventKind::SolveStats {
            nodes,
            pivots,
            warm_starts,
            wall_nanos,
        } => {
            w.int(key!("nodes"), *nodes);
            w.int(key!("pivots"), *pivots);
            w.int(key!("warm"), *warm_starts);
            w.int(key!("wall"), *wall_nanos);
        }
        EventKind::AuditReport {
            violations,
            devices_checked,
            families_checked,
        } => {
            w.int(key!("violations"), u64::from(*violations));
            w.int(key!("devices"), u64::from(*devices_checked));
            w.int(key!("families"), u64::from(*families_checked));
        }
        EventKind::QueryRetried {
            query,
            from,
            attempt,
        } => {
            w.int(key!("q"), *query);
            w.device(key!("from"), *from);
            w.int(key!("attempt"), u64::from(*attempt));
        }
        EventKind::LoadFailed {
            device,
            variant,
            attempt,
        } => {
            w.device(key!("d"), *device);
            w.variant(*variant);
            w.int(key!("attempt"), u64::from(*attempt));
        }
        EventKind::StragglerStarted { device, slowdown } => {
            w.device(key!("d"), *device);
            w.float(key!("slowdown"), *slowdown);
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
            w.0.extend_from_slice(key!("scope"));
            match scope {
                Some(f) => w.quoted(f.label()),
                None => w.0.extend_from_slice(b"null"),
            }
            w.label(key!("severity"), severity.label());
            w.float(key!("burn"), *burn);
            w.float(key!("long_s"), *long_secs);
            w.float(key!("short_s"), *short_secs);
        }
        EventKind::SolveStarted { cause, until } => {
            w.label(key!("cause"), cause.label());
            w.int(key!("until"), until.as_nanos());
        }
        EventKind::PlanDiscarded { cause, reason } => {
            w.label(key!("cause"), cause.label());
            w.label(key!("reason"), reason.label());
        }
    }
    w.0.push(b'}');
}

/// Two ASCII digits for each value `0..100`, so the integer writer emits
/// two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The line being encoded. Labels are written unescaped: every label the
/// trace uses is a fixed identifier free of quotes and backslashes.
struct Line<'a>(&'a mut Vec<u8>);

impl Line<'_> {
    /// Base-10 digits of `n`, most significant first.
    fn uint(&mut self, mut n: u64) {
        let mut buf = [0u8; 20]; // u64::MAX has 20 digits
        let mut i = buf.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            i -= 1;
            buf[i] = b'0' + n as u8;
        }
        self.0.extend_from_slice(&buf[i..]);
    }

    fn int(&mut self, key: &[u8], n: u64) {
        self.0.extend_from_slice(key);
        self.uint(n);
    }

    fn device(&mut self, key: &[u8], device: DeviceId) {
        self.int(key, u64::from(device.0));
    }

    fn quoted(&mut self, s: &str) {
        self.0.push(b'"');
        self.0.extend_from_slice(s.as_bytes());
        self.0.push(b'"');
    }

    fn label(&mut self, key: &[u8], s: &str) {
        self.0.extend_from_slice(key);
        self.quoted(s);
    }

    /// `"variant":"Family#index"`, or `"variant":null`.
    fn variant(&mut self, variant: Option<VariantId>) {
        self.0.extend_from_slice(key!("variant"));
        match variant {
            Some(v) => {
                self.0.push(b'"');
                self.0.extend_from_slice(v.family.label().as_bytes());
                self.0.push(b'#');
                self.uint(u64::from(v.index));
                self.0.push(b'"');
            }
            None => self.0.extend_from_slice(b"null"),
        }
    }

    /// Rust's shortest round-trip `{}` form, formatted straight into the
    /// line.
    fn float(&mut self, key: &[u8], x: f64) {
        self.0.extend_from_slice(key);
        let _ = write!(self, "{x}");
    }
}

impl std::fmt::Write for Line<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
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
            // Digits past `u64::MAX` can only be an integral `f64` field
            // (its `{}` form has no exponent), e.g. `1e21` as 22 digits.
            text.parse::<u64>().map(Val::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Val::Float)
                    .map_err(|_| format!("bad integer `{text}`"))
            })
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
    use proptest::prelude::*;
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

    /// Boundary values the per-kind list does not reach: zero and
    /// `u64::MAX` times and ids, empty and one-element batches, absent
    /// optional fields, the widest `u32`/`u8` fields, and non-integral,
    /// zero, tiny and huge floats.
    fn edge_cases() -> Vec<TraceEvent> {
        let max = SimTime::from_nanos(u64::MAX);
        let v = VariantId {
            family: ModelFamily::Gpt2,
            index: u8::MAX,
        };
        let at = |at: SimTime, kind: EventKind| TraceEvent { at, kind };
        vec![
            at(
                SimTime::ZERO,
                EventKind::Arrived {
                    query: 0,
                    family: ModelFamily::YoloV5,
                },
            ),
            at(
                max,
                EventKind::Arrived {
                    query: u64::MAX,
                    family: ModelFamily::T5,
                },
            ),
            at(
                max,
                EventKind::Enqueued {
                    query: u64::MAX,
                    device: DeviceId(u32::MAX),
                    depth: u32::MAX,
                    behind: Some(u64::MAX),
                },
            ),
            at(
                SimTime::ZERO,
                EventKind::Enqueued {
                    query: 0,
                    device: DeviceId(0),
                    depth: 0,
                    behind: None,
                },
            ),
            at(
                SimTime::ZERO,
                EventKind::BatchFormed {
                    device: DeviceId(0),
                    batch: 0,
                    queries: vec![],
                },
            ),
            at(
                max,
                EventKind::BatchFormed {
                    device: DeviceId(u32::MAX),
                    batch: u64::MAX,
                    queries: vec![u64::MAX],
                },
            ),
            at(
                t(9),
                EventKind::BatchFormed {
                    device: DeviceId(1),
                    batch: 10,
                    queries: vec![0],
                },
            ),
            at(
                max,
                EventKind::ExecStarted {
                    device: DeviceId(u32::MAX),
                    batch: u64::MAX,
                    variant: v,
                    size: u32::MAX,
                    until: max,
                },
            ),
            at(
                max,
                EventKind::ServedLate {
                    query: u64::MAX,
                    latency: max,
                    epoch: u64::MAX,
                },
            ),
            at(
                SimTime::ZERO,
                EventKind::ModelLoadStarted {
                    device: DeviceId(0),
                    variant: Some(v),
                    until: SimTime::ZERO,
                },
            ),
            at(
                t(1),
                EventKind::PlanApplied {
                    changed: 0,
                    shrink: 0.1,
                },
            ),
            at(
                t(1),
                EventKind::PlanApplied {
                    changed: u32::MAX,
                    shrink: 1.0,
                },
            ),
            at(
                t(1),
                EventKind::PlanApplied {
                    changed: 1,
                    shrink: 1.0526315789473684,
                },
            ),
            at(
                max,
                EventKind::SolveStats {
                    nodes: u64::MAX,
                    pivots: u64::MAX,
                    warm_starts: 0,
                    wall_nanos: u64::MAX,
                },
            ),
            at(
                max,
                EventKind::QueryRetried {
                    query: u64::MAX,
                    from: DeviceId(u32::MAX),
                    attempt: u32::MAX,
                },
            ),
            at(
                t(2),
                EventKind::StragglerStarted {
                    device: DeviceId(5),
                    slowdown: 0.0,
                },
            ),
            at(
                t(2),
                EventKind::StragglerStarted {
                    device: DeviceId(5),
                    slowdown: 1e-7,
                },
            ),
            at(
                t(3),
                EventKind::AlertFired {
                    scope: Some(ModelFamily::Gpt2),
                    severity: AlertSeverity::Page,
                    burn: 14.4,
                    long_secs: 0.5,
                    short_secs: 1e21,
                },
            ),
            at(
                t(3),
                EventKind::AlertResolved {
                    scope: None,
                    severity: AlertSeverity::Ticket,
                    burn: 0.1 + 0.2,
                    long_secs: 3600.0,
                    short_secs: 300.0,
                },
            ),
        ]
    }

    /// The bytes of every entry of `all_kinds()` followed by every entry of
    /// `edge_cases()`, one line each, as the `core::fmt`-based encoder wrote
    /// them. The direct encoder must reproduce them exactly.
    const PINNED_LINES: &str = r#"{"t":0,"ev":"worker_online","d":3,"type":"V100"}
{"t":1000000,"ev":"arrived","q":17,"family":"GPT-2"}
{"t":2000000,"ev":"routed","q":17,"d":3}
{"t":3000000,"ev":"enqueued","q":17,"d":3,"depth":4}
{"t":4000000,"ev":"enqueued","q":18,"d":3,"depth":5,"behind":8}
{"t":5000000,"ev":"batch_formed","d":3,"batch":9,"queries":[15,16,17]}
{"t":6000000,"ev":"batch_formed","d":3,"batch":10,"queries":[]}
{"t":7000000,"ev":"exec_started","d":3,"batch":9,"variant":"ResNet#2","size":3,"until":120000000}
{"t":8000000,"ev":"exec_completed","d":3,"batch":9}
{"t":9000000,"ev":"served_on_time","q":17,"latency":45000000,"epoch":2}
{"t":10000000,"ev":"served_late","q":16,"latency":450000000,"epoch":0}
{"t":11000000,"ev":"dropped","q":15,"reason":"expired"}
{"t":12000000,"ev":"model_load_started","d":3,"variant":"ResNet#2","until":2000000000}
{"t":13000000,"ev":"model_load_started","d":3,"variant":null,"until":2000000000}
{"t":14000000,"ev":"model_load_finished","d":3}
{"t":15000000,"ev":"replan_triggered","cause":"burst"}
{"t":16000000,"ev":"plan_applied","changed":5,"shrink":1.25}
{"t":17000000,"ev":"solve_stats","nodes":12,"pivots":340,"warm":11,"wall":1500000}
{"t":18000000,"ev":"audit_report","violations":0,"devices":9,"families":9}
{"t":19000000,"ev":"worker_crashed","d":3}
{"t":20000000,"ev":"worker_recovered","d":3}
{"t":21000000,"ev":"query_retried","q":17,"from":3,"attempt":2}
{"t":22000000,"ev":"load_failed","d":3,"variant":"ResNet#2","attempt":1}
{"t":23000000,"ev":"load_failed","d":3,"variant":null,"attempt":3}
{"t":24000000,"ev":"straggler_started","d":3,"slowdown":2.5}
{"t":25000000,"ev":"straggler_ended","d":3}
{"t":26000000,"ev":"dropped","q":14,"reason":"device_failed"}
{"t":27000000,"ev":"alert_fired","scope":"ResNet","severity":"page","burn":14.62,"long_s":300,"short_s":60}
{"t":28000000,"ev":"alert_fired","scope":null,"severity":"ticket","burn":6.0078125,"long_s":900,"short_s":300}
{"t":29000000,"ev":"alert_resolved","scope":null,"severity":"page","burn":0.25,"long_s":300,"short_s":60}
{"t":30000000,"ev":"solve_started","cause":"periodic","until":34200000000}
{"t":31000000,"ev":"solve_complete","cause":"periodic"}
{"t":32000000,"ev":"plan_discarded","cause":"burst","reason":"liveness"}
{"t":33000000,"ev":"plan_discarded","cause":"periodic","reason":"superseded"}
{"t":0,"ev":"arrived","q":0,"family":"YOLOv5"}
{"t":18446744073709551615,"ev":"arrived","q":18446744073709551615,"family":"T5"}
{"t":18446744073709551615,"ev":"enqueued","q":18446744073709551615,"d":4294967295,"depth":4294967295,"behind":18446744073709551615}
{"t":0,"ev":"enqueued","q":0,"d":0,"depth":0}
{"t":0,"ev":"batch_formed","d":0,"batch":0,"queries":[]}
{"t":18446744073709551615,"ev":"batch_formed","d":4294967295,"batch":18446744073709551615,"queries":[18446744073709551615]}
{"t":9000000,"ev":"batch_formed","d":1,"batch":10,"queries":[0]}
{"t":18446744073709551615,"ev":"exec_started","d":4294967295,"batch":18446744073709551615,"variant":"GPT-2#255","size":4294967295,"until":18446744073709551615}
{"t":18446744073709551615,"ev":"served_late","q":18446744073709551615,"latency":18446744073709551615,"epoch":18446744073709551615}
{"t":0,"ev":"model_load_started","d":0,"variant":"GPT-2#255","until":0}
{"t":1000000,"ev":"plan_applied","changed":0,"shrink":0.1}
{"t":1000000,"ev":"plan_applied","changed":4294967295,"shrink":1}
{"t":1000000,"ev":"plan_applied","changed":1,"shrink":1.0526315789473684}
{"t":18446744073709551615,"ev":"solve_stats","nodes":18446744073709551615,"pivots":18446744073709551615,"warm":0,"wall":18446744073709551615}
{"t":18446744073709551615,"ev":"query_retried","q":18446744073709551615,"from":4294967295,"attempt":4294967295}
{"t":2000000,"ev":"straggler_started","d":5,"slowdown":0}
{"t":2000000,"ev":"straggler_started","d":5,"slowdown":0.0000001}
{"t":3000000,"ev":"alert_fired","scope":"GPT-2","severity":"page","burn":14.4,"long_s":0.5,"short_s":1000000000000000000000}
{"t":3000000,"ev":"alert_resolved","scope":null,"severity":"ticket","burn":0.30000000000000004,"long_s":3600,"short_s":300}
"#;

    #[test]
    fn every_kind_encodes_to_its_pinned_bytes() {
        let events: Vec<TraceEvent> = all_kinds().into_iter().chain(edge_cases()).collect();
        let pinned: Vec<&str> = PINNED_LINES.lines().collect();
        assert_eq!(events.len(), pinned.len(), "one pinned line per event");
        for (event, want) in events.iter().zip(pinned) {
            assert_eq!(to_jsonl(event), want, "{event:?}");
        }
    }

    /// Number of [`EventKind`] variants `random_event` builds.
    const KINDS: u8 = 27;

    /// A `u64` that is zero, `u64::MAX`, small, or anything.
    fn wide() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..u64::MAX).prop_map(|(pick, x)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => x % 1000,
            _ => x,
        })
    }

    /// A finite `f64`: any finite bit pattern, a short decimal, or an
    /// integral value.
    fn finite() -> impl Strategy<Value = f64> {
        (0u8..3, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
            0 if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
            1 => (bits % 100_000) as f64 / 1000.0,
            _ => (bits % 10_000) as f64,
        })
    }

    /// An event of kind number `kind`, its numeric fields taken from `ids`
    /// (eight draws; `u32`/`u8` fields truncate them) and `floats` (three),
    /// its labels and optional fields chosen by the bits of `pick`.
    fn random_event(
        kind: u8,
        at: u64,
        ids: &[u64],
        floats: &[f64],
        queries: Vec<u64>,
        pick: u64,
    ) -> TraceEvent {
        let device = |i: usize| DeviceId(ids[i] as u32);
        let time = |i: usize| SimTime::from_nanos(ids[i]);
        let bit = |b: u32| (pick >> b) & 1 == 1;
        let choose = |b: u32, n: usize| ((pick >> b) % n as u64) as usize;
        let family = ModelFamily::ALL[choose(0, ModelFamily::ALL.len())];
        let variant = VariantId {
            family,
            index: ids[7] as u8,
        };
        let cause = ReplanCause::ALL[choose(8, ReplanCause::ALL.len())];
        let severity = AlertSeverity::ALL[choose(16, AlertSeverity::ALL.len())];
        let (scope, burn, long_secs, short_secs) =
            (bit(40).then_some(family), floats[0], floats[1], floats[2]);
        let kind = match kind {
            0 => EventKind::WorkerOnline {
                device: device(0),
                device_type: DeviceType::ALL[choose(24, DeviceType::ALL.len())],
            },
            1 => EventKind::Arrived {
                query: ids[0],
                family,
            },
            2 => EventKind::Routed {
                query: ids[0],
                device: device(1),
            },
            3 => EventKind::Enqueued {
                query: ids[0],
                device: device(1),
                depth: ids[2] as u32,
                behind: bit(41).then_some(ids[3]),
            },
            4 => EventKind::BatchFormed {
                device: device(0),
                batch: ids[1],
                queries,
            },
            5 => EventKind::ExecStarted {
                device: device(0),
                batch: ids[1],
                variant,
                size: ids[2] as u32,
                until: time(3),
            },
            6 => EventKind::ExecCompleted {
                device: device(0),
                batch: ids[1],
            },
            7 => EventKind::ServedOnTime {
                query: ids[0],
                latency: time(1),
                epoch: ids[2],
            },
            8 => EventKind::ServedLate {
                query: ids[0],
                latency: time(1),
                epoch: ids[2],
            },
            9 => EventKind::Dropped {
                query: ids[0],
                reason: DropReason::ALL[choose(32, DropReason::ALL.len())],
            },
            10 => EventKind::ModelLoadStarted {
                device: device(0),
                variant: bit(42).then_some(variant),
                until: time(1),
            },
            11 => EventKind::ModelLoadFinished { device: device(0) },
            12 => EventKind::ReplanTriggered { cause },
            13 => EventKind::PlanApplied {
                changed: ids[0] as u32,
                shrink: floats[0],
            },
            14 => EventKind::SolveStats {
                nodes: ids[0],
                pivots: ids[1],
                warm_starts: ids[2],
                wall_nanos: ids[3],
            },
            15 => EventKind::AuditReport {
                violations: ids[0] as u32,
                devices_checked: ids[1] as u32,
                families_checked: ids[2] as u32,
            },
            16 => EventKind::WorkerCrashed { device: device(0) },
            17 => EventKind::WorkerRecovered { device: device(0) },
            18 => EventKind::QueryRetried {
                query: ids[0],
                from: device(1),
                attempt: ids[2] as u32,
            },
            19 => EventKind::LoadFailed {
                device: device(0),
                variant: bit(42).then_some(variant),
                attempt: ids[2] as u32,
            },
            20 => EventKind::StragglerStarted {
                device: device(0),
                slowdown: floats[0],
            },
            21 => EventKind::StragglerEnded { device: device(0) },
            22 => EventKind::AlertFired {
                scope,
                severity,
                burn,
                long_secs,
                short_secs,
            },
            23 => EventKind::AlertResolved {
                scope,
                severity,
                burn,
                long_secs,
                short_secs,
            },
            24 => EventKind::SolveStarted {
                cause,
                until: time(0),
            },
            25 => EventKind::SolveComplete { cause },
            _ => EventKind::PlanDiscarded {
                cause,
                reason: DiscardReason::ALL[choose(48, DiscardReason::ALL.len())],
            },
        };
        TraceEvent {
            at: SimTime::from_nanos(at),
            kind,
        }
    }

    #[test]
    fn random_events_cover_every_kind() {
        let names = |events: &[TraceEvent]| -> std::collections::BTreeSet<&'static str> {
            events.iter().map(|e| e.kind.name()).collect()
        };
        let random: Vec<TraceEvent> = (0..KINDS)
            .map(|k| random_event(k, 0, &[0; 8], &[0.0; 3], vec![], 0))
            .collect();
        assert_eq!(names(&random).len(), usize::from(KINDS));
        assert_eq!(names(&random), names(&all_kinds()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn random_events_round_trip_and_append(
            kind in 0..KINDS,
            at in wide(),
            ids in prop::collection::vec(wide(), 8),
            floats in prop::collection::vec(finite(), 3),
            queries in prop::collection::vec(wide(), 0..65),
            pick in 0u64..u64::MAX,
        ) {
            let event = random_event(kind, at, &ids, &floats, queries, pick);
            let line = to_jsonl(&event);
            prop_assert_eq!(parse_line(&line), Ok(event.clone()));
            let prefix = b"{\"earlier\":1}\n";
            let mut buf = prefix.to_vec();
            write_jsonl(&event, &mut buf);
            prop_assert!(buf.starts_with(prefix), "prefix clobbered");
            prop_assert_eq!(&buf[prefix.len()..], line.as_bytes());
        }
    }

    #[test]
    fn every_kind_round_trips() {
        for event in all_kinds().into_iter().chain(edge_cases()) {
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
