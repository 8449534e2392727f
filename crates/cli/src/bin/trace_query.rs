//! `trace-query` — inspect a flight-recorder JSONL trace.
//!
//! ```sh
//! trace-query run.jsonl query 17     # one query's lifecycle, reconstructed
//! trace-query run.jsonl critpath 17  # its critical-path waterfall
//! trace-query run.jsonl flame        # collapsed-stack latency profile
//! trace-query run.jsonl blame        # who to blame for each SLO violation
//! trace-query run.jsonl summary      # lifecycle counts
//! trace-query run.jsonl alerts       # SLO burn-rate alert transitions
//! trace-query diff a.jsonl b.jsonl   # what changed between two runs
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use proteus_metrics::report::{fmt_f, json_escape, waterfall_bar, TextTable};
use proteus_trace::{
    blame, collapse_flame, diff_traces, parse_jsonl, query_lifecycle, span_tree, span_trees,
    BlameCause, BlameVerdict, CausalEdge, DiffReport, EventKind, LifecycleStats, Segment, SpanTree,
    TraceEvent,
};

const USAGE: &str = "\
usage: trace-query <trace.jsonl> query <id>     reconstruct one query's lifecycle
       trace-query <trace.jsonl> critpath <id>  critical-path waterfall of one query
       trace-query <trace.jsonl> flame          collapsed-stack profile (segment x family x device)
       trace-query <trace.jsonl> blame          attribute every SLO violation
           [--json]                             machine-readable output
           [--deny <cause>=<count>]...          exit 1 if a cause exceeds its count
       trace-query <trace.jsonl> summary        lifecycle counts
       trace-query <trace.jsonl> alerts         SLO burn-rate alert transitions
       trace-query diff <a.jsonl> <b.jsonl>     per-segment deltas, cause migrations,
           [--check]                            exit 1 on regression (new violations
           [--allow-new <n>]                    beyond --allow-new, or latency up more
           [--allow-regress-pct <p>]            than --allow-regress-pct percent)

Reads JSONL traces recorded with `proteus <config> --trace <path>`.";

/// Parsed flags (everything that is not a positional argument).
#[derive(Debug, Default)]
struct Opts {
    json: bool,
    check: bool,
    deny: Vec<(BlameCause, usize)>,
    allow_new: usize,
    allow_regress_pct: f64,
}

/// Splits argv into positionals and [`Opts`]. Returns an error message on
/// malformed flags.
fn parse_args(args: &[String]) -> Result<(Vec<String>, Opts), String> {
    let mut pos = Vec::new();
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--check" => opts.check = true,
            "--deny" => {
                let v = it.next().ok_or("--deny needs <cause>=<count>")?;
                let (cause, count) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--deny `{v}`: expected <cause>=<count>"))?;
                let cause = BlameCause::ALL
                    .into_iter()
                    .find(|c| c.label() == cause)
                    .ok_or_else(|| format!("--deny: unknown cause `{cause}`"))?;
                let count: usize = count
                    .parse()
                    .map_err(|_| format!("--deny `{v}`: bad count"))?;
                opts.deny.push((cause, count));
            }
            "--allow-new" => {
                let v = it.next().ok_or("--allow-new needs a number")?;
                opts.allow_new = v.parse().map_err(|_| format!("--allow-new: bad `{v}`"))?;
            }
            "--allow-regress-pct" => {
                let v = it.next().ok_or("--allow-regress-pct needs a number")?;
                opts.allow_regress_pct = v
                    .parse()
                    .map_err(|_| format!("--allow-regress-pct: bad `{v}`"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => pos.push(a.clone()),
        }
    }
    Ok((pos, opts))
}

fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        None | Some("--help" | "-h")
    ) {
        eprintln!("{USAGE}");
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    let (pos, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // `diff` is command-first (`trace-query diff a b`); everything else is
    // path-first (`trace-query run.jsonl blame`).
    let (path, command, rest) = if pos.first().map(String::as_str) == Some("diff") {
        match (pos.get(1), pos.get(2)) {
            (Some(a), Some(_)) => (a.clone(), "diff".to_string(), pos[2..].to_vec()),
            _ => {
                eprintln!("error: `diff` needs two trace paths\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match (pos.first(), pos.get(1)) {
            (Some(p), Some(c)) => (p.clone(), c.clone(), pos[2..].to_vec()),
            _ => {
                eprintln!("error: need a trace path and a command\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    };
    let events = match load_trace(&path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    let report = match command.as_str() {
        "query" => {
            let Some(id) = rest.first().and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("error: `query` needs a numeric query id\n\n{USAGE}");
                return ExitCode::FAILURE;
            };
            render_query(&events, id)
        }
        "critpath" => {
            let Some(id) = rest.first().and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("error: `critpath` needs a numeric query id\n\n{USAGE}");
                return ExitCode::FAILURE;
            };
            render_critpath(&events, id)
        }
        "flame" => collapse_flame(&span_trees(&events)),
        "blame" => {
            let report = blame(&events);
            for &(cause, allowed) in &opts.deny {
                if report.count(cause) > allowed {
                    code = ExitCode::FAILURE;
                }
            }
            if opts.json {
                render_blame_json(&events, &opts)
            } else {
                render_blame(&events, &opts)
            }
        }
        "summary" => render_summary(&events),
        "alerts" => render_alerts(&events),
        "diff" => {
            let other_path = &rest[0];
            let other = match load_trace(other_path) {
                Ok(events) => events,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let d = diff_traces(&events, &other);
            if opts.check && d.regressed(opts.allow_new, opts.allow_regress_pct) {
                code = ExitCode::FAILURE;
            }
            render_diff(&d, &opts, code == ExitCode::FAILURE)
        }
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A closed pipe (`trace-query … | head`) is a normal way to consume the
    // per-violation listing, not an error.
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_all(report.as_bytes()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing output: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// Milliseconds with microsecond precision, the natural scale for SLOs.
fn ms(t: proteus_sim::SimTime) -> String {
    fmt_f(t.as_millis_f64(), 3)
}

/// One human-readable line per event kind.
fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::WorkerOnline {
            device,
            device_type,
        } => format!("worker {device} ({}) online", device_type.label()),
        EventKind::Arrived { query, family } => {
            format!("query {query} arrived (family {})", family.label())
        }
        EventKind::Routed { query, device } => format!("query {query} routed to {device}"),
        EventKind::Enqueued {
            query,
            device,
            depth,
            behind,
        } => match behind {
            Some(b) => {
                format!("query {query} enqueued on {device} (depth {depth}, behind batch {b})")
            }
            None => format!("query {query} enqueued on {device} (depth {depth})"),
        },
        EventKind::BatchFormed {
            device,
            batch,
            queries,
        } => format!("batch {batch} formed on {device} from queries {queries:?}"),
        EventKind::ExecStarted {
            device,
            batch,
            variant,
            size,
            until,
        } => format!(
            "batch {batch} ({variant} \u{00d7}{size}) executing on {device} until {} ms",
            ms(*until)
        ),
        EventKind::ExecCompleted { device, batch } => {
            format!("batch {batch} completed on {device}")
        }
        EventKind::ServedOnTime {
            query,
            latency,
            epoch,
        } => format!(
            "query {query} served on time (latency {} ms, plan epoch {epoch})",
            ms(*latency)
        ),
        EventKind::ServedLate {
            query,
            latency,
            epoch,
        } => format!(
            "query {query} served LATE (latency {} ms, plan epoch {epoch})",
            ms(*latency)
        ),
        EventKind::Dropped { query, reason } => {
            format!("query {query} DROPPED ({})", reason.label())
        }
        EventKind::ModelLoadStarted {
            device,
            variant,
            until,
        } => match variant {
            Some(v) => format!("{device} loading {v} until {} ms", ms(*until)),
            None => format!("{device} unloading until {} ms", ms(*until)),
        },
        EventKind::ModelLoadFinished { device } => format!("{device} load finished"),
        EventKind::ReplanTriggered { cause } => format!("replan triggered ({})", cause.label()),
        EventKind::PlanApplied { changed, shrink } => {
            format!("plan applied ({changed} devices changed, shrink {shrink})")
        }
        EventKind::SolveStats {
            nodes,
            pivots,
            warm_starts,
            wall_nanos,
        } => format!(
            "solver: {nodes} nodes, {pivots} pivots, {warm_starts} warm starts, {} ms wall",
            fmt_f(*wall_nanos as f64 / 1e6, 2)
        ),
        EventKind::AuditReport {
            violations,
            devices_checked,
            families_checked,
        } => format!(
            "plan audit: {violations} violation(s) over {devices_checked} devices, \
             {families_checked} families"
        ),
        EventKind::WorkerCrashed { device } => format!("{device} crashed"),
        EventKind::WorkerRecovered { device } => format!("{device} recovered"),
        EventKind::QueryRetried {
            query,
            from,
            attempt,
        } => format!("query {query} retried away from {from} (attempt {attempt})"),
        EventKind::LoadFailed {
            device,
            variant,
            attempt,
        } => match variant {
            Some(v) => format!("{device} load of {v} failed (attempt {attempt})"),
            None => format!("{device} unload failed (attempt {attempt})"),
        },
        EventKind::StragglerStarted { device, slowdown } => {
            format!("{device} straggling ({slowdown}x slower)")
        }
        EventKind::StragglerEnded { device } => format!("{device} back to nominal speed"),
        EventKind::AlertFired {
            scope,
            severity,
            burn,
            long_secs,
            short_secs,
        } => format!(
            "ALERT {} fired for {} (burn {} over {}s/{}s windows)",
            severity.label(),
            scope.map_or("all families", |f| f.label()),
            fmt_f(*burn, 2),
            fmt_f(*long_secs, 0),
            fmt_f(*short_secs, 0),
        ),
        EventKind::AlertResolved {
            scope,
            severity,
            burn,
            long_secs,
            short_secs,
        } => format!(
            "alert {} resolved for {} (burn {} over {}s/{}s windows)",
            severity.label(),
            scope.map_or("all families", |f| f.label()),
            fmt_f(*burn, 2),
            fmt_f(*long_secs, 0),
            fmt_f(*short_secs, 0),
        ),
        EventKind::SolveStarted { cause, until } => format!(
            "solve started ({}), plan commits at {} ms",
            cause.label(),
            ms(*until)
        ),
        EventKind::SolveComplete { cause } => {
            format!("solve complete ({}), new plan committing", cause.label())
        }
        EventKind::PlanDiscarded { cause, reason } => format!(
            "in-flight plan ({}) DISCARDED ({})",
            cause.label(),
            reason.label()
        ),
    }
}

/// `trace-query <file> query <id>`: lifecycle plus, for violations, the
/// blame verdict.
fn render_query(events: &[TraceEvent], id: u64) -> String {
    let life = query_lifecycle(events, id);
    if life.is_empty() {
        return format!("query {id}: no events in trace\n");
    }
    let mut out = format!("query {id}: {} events\n", life.len());
    let t0 = life[0].at;
    for e in &life {
        let _ = writeln!(
            out,
            "  {:>12}  +{:>10}  {}",
            format!("{} ms", ms(e.at)),
            format!("{} ms", ms(e.at.saturating_sub(t0))),
            describe(&e.kind)
        );
    }
    if let Some(v) = blame(events).verdicts.iter().find(|v| v.query == id) {
        let _ = writeln!(out, "verdict: {}", verdict_line(v));
    }
    out
}

fn verdict_line(v: &BlameVerdict) -> String {
    if v.cause == BlameCause::Shed {
        return "shed (rejected at admission)".to_string();
    }
    let mut line = format!(
        "{} (waited {} ms queueing, {} ms model-load, {} ms batch-wait)",
        v.cause.label(),
        ms(v.queueing),
        ms(v.model_load),
        ms(v.batch_wait)
    );
    if v.stale_plan > proteus_sim::SimTime::ZERO {
        let _ = write!(line, " [{} ms under a stale plan]", ms(v.stale_plan));
    }
    line
}

/// `trace-query <file> critpath <id>`: the query's span tree as a
/// waterfall, with per-segment totals and causal edges.
fn render_critpath(events: &[TraceEvent], id: u64) -> String {
    let Some(tree) = span_tree(events, id) else {
        return format!("query {id}: no terminal event in trace\n");
    };
    render_tree(&tree)
}

fn render_tree(tree: &SpanTree) -> String {
    const WIDTH: usize = 48;
    let outcome = match tree.outcome {
        proteus_trace::Outcome::OnTime => "served on time".to_string(),
        proteus_trace::Outcome::Late => "served LATE".to_string(),
        proteus_trace::Outcome::Dropped(r) => format!("DROPPED ({})", r.label()),
    };
    let mut out = format!(
        "query {}: {outcome}, {} ms end-to-end (family {}, device {}, plan epoch {})\n",
        tree.query,
        ms(tree.observed()),
        tree.family.map_or("?", |f| f.label()),
        tree.device.map_or("-".to_string(), |d| d.to_string()),
        tree.epoch
    );
    let total = tree.observed().as_nanos();
    if total == 0 {
        out.push_str("  (zero-length timeline: rejected at admission)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  waterfall ({WIDTH} cols = {} ms):",
        ms(tree.observed())
    );
    for span in &tree.spans {
        let f0 = span.start.saturating_sub(tree.start).as_nanos() as f64 / total as f64;
        let f1 = span.end.saturating_sub(tree.start).as_nanos() as f64 / total as f64;
        let _ = writeln!(
            out,
            "    {:<10} {:>12} ms  {:>12} ms  [{}]",
            span.segment.label(),
            ms(span.start.saturating_sub(tree.start)),
            ms(span.dur()),
            waterfall_bar(f0, f1, WIDTH)
        );
    }
    let mut parts = Vec::new();
    for s in Segment::ALL {
        let d = tree.segment_total(s);
        if d > proteus_sim::SimTime::ZERO {
            parts.push(format!(
                "{} {} ms ({}%)",
                s.label(),
                ms(d),
                fmt_f(d.as_nanos() as f64 / total as f64 * 100.0, 1)
            ));
        }
    }
    let _ = writeln!(out, "  segments: {}", parts.join(" + "));
    let gap = tree.invariant_gap();
    let _ = writeln!(
        out,
        "  invariant: segments sum to observed latency ({})",
        if gap == 0 {
            "OK".to_string()
        } else {
            format!("VIOLATED, gap {gap} ns")
        }
    );
    let _ = writeln!(
        out,
        "  critical path dominated by {}",
        tree.dominant().label()
    );
    if !tree.edges.is_empty() {
        out.push_str("  causes:\n");
        for edge in &tree.edges {
            let _ = writeln!(out, "    {}", describe_edge(edge));
        }
    }
    out
}

fn describe_edge(edge: &CausalEdge) -> String {
    match edge {
        CausalEdge::QueuedBehind { batch } => format!("queued behind batch {batch}"),
        CausalEdge::WaitedOnLoad {
            device,
            variant,
            stall,
        } => match variant {
            Some(v) => format!("waited {} ms on load of {v} on {device}", ms(*stall)),
            None => format!("waited {} ms on an unload on {device}", ms(*stall)),
        },
        CausalEdge::ServedUnderStalePlan { epoch, overlap } => format!(
            "waited {} ms idle under an open solve window; served under plan epoch {epoch}",
            ms(*overlap)
        ),
        CausalEdge::RetriedAfterCrash { device, attempt } => {
            format!("retried after crash of {device} (attempt {attempt})")
        }
    }
}

/// `trace-query diff <a> <b>`: what changed between two runs.
fn render_diff(d: &DiffReport, opts: &Opts, failed: bool) -> String {
    let mut out = format!(
        "aligned {} queries ({} only in A, {} only in B)\n",
        d.aligned, d.only_a, d.only_b
    );
    let (ma, mb) = d.mean_latency();
    let _ = writeln!(
        out,
        "end-to-end: A mean {} ms, B mean {} ms ({}{}%)",
        ms(ma),
        ms(mb),
        if d.regress_pct() >= 0.0 { "+" } else { "" },
        fmt_f(d.regress_pct(), 2)
    );
    let mut t = TextTable::new(vec!["segment", "A total ms", "B total ms", "delta ms"]);
    for s in &d.segments {
        if s.a_nanos == 0 && s.b_nanos == 0 {
            continue;
        }
        t.row(vec![
            s.segment.label().into(),
            fmt_f(s.a_nanos as f64 / 1e6, 3),
            fmt_f(s.b_nanos as f64 / 1e6, 3),
            fmt_f(s.delta_nanos() as f64 / 1e6, 3),
        ]);
    }
    if !t.is_empty() {
        out.push_str(&t.render());
    }
    let _ = writeln!(
        out,
        "violations: {} new, {} vanished",
        d.new_violations.len(),
        d.vanished_violations.len()
    );
    let preview = |ids: &[u64]| -> String {
        let shown: Vec<String> = ids.iter().take(10).map(u64::to_string).collect();
        let mut s = shown.join(", ");
        if ids.len() > 10 {
            let _ = write!(s, ", … ({} total)", ids.len());
        }
        s
    };
    if !d.new_violations.is_empty() {
        let _ = writeln!(out, "  new: {}", preview(&d.new_violations));
    }
    if !d.vanished_violations.is_empty() {
        let _ = writeln!(out, "  vanished: {}", preview(&d.vanished_violations));
    }
    if !d.migrations.is_empty() {
        out.push_str("cause migrations:\n");
        for m in &d.migrations {
            let _ = writeln!(out, "  {} -> {}: {}", m.from.label(), m.to.label(), m.count);
        }
    }
    if opts.check {
        let _ = writeln!(
            out,
            "--check: {} (thresholds: {} new violation(s), {}% latency regression)",
            if failed { "FAIL" } else { "OK" },
            opts.allow_new,
            fmt_f(opts.allow_regress_pct, 1)
        );
    }
    out
}

/// `trace-query <file> blame --json`: machine-readable verdicts for CI.
fn render_blame_json(events: &[TraceEvent], opts: &Opts) -> String {
    let stats = LifecycleStats::from_events(events);
    let report = blame(events);
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"arrived\":{},\"violations\":{},\"stale_affected\":{},\"counts\":{{",
        stats.arrived,
        report.total(),
        report.stale_affected()
    );
    for (i, cause) in BlameCause::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{}",
            json_escape(cause.label()),
            report.count(cause)
        );
    }
    out.push_str("},\"deny\":[");
    for (i, &(cause, allowed)) in opts.deny.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cause\":\"{}\",\"allowed\":{},\"actual\":{},\"breached\":{}}}",
            json_escape(cause.label()),
            allowed,
            report.count(cause),
            report.count(cause) > allowed
        );
    }
    out.push_str("],\"verdicts\":[");
    for (i, v) in report.verdicts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"query\":{},\"at\":{},\"cause\":\"{}\",\"queueing\":{},\"model_load\":{},\
             \"batch_wait\":{},\"stale_plan\":{}}}",
            v.query,
            v.at.as_nanos(),
            json_escape(v.cause.label()),
            v.queueing.as_nanos(),
            v.model_load.as_nanos(),
            v.batch_wait.as_nanos(),
            v.stale_plan.as_nanos()
        );
    }
    out.push_str("]}\n");
    out
}

/// `trace-query <file> blame`: per-cause counts, then every verdict.
fn render_blame(events: &[TraceEvent], opts: &Opts) -> String {
    let stats = LifecycleStats::from_events(events);
    let report = blame(events);
    let mut out = format!(
        "{} SLO violations out of {} queries\n",
        report.total(),
        stats.arrived
    );
    for &(cause, allowed) in &opts.deny {
        let n = report.count(cause);
        if n > allowed {
            let _ = writeln!(
                out,
                "DENY: {} count {} exceeds threshold {}",
                cause.label(),
                n,
                allowed
            );
        }
    }
    if report.total() == 0 {
        return out;
    }
    let mut t = TextTable::new(vec!["cause", "violations", "share (%)"]);
    for cause in BlameCause::ALL {
        let n = report.count(cause);
        if n > 0 {
            t.row(vec![
                cause.label().into(),
                n.to_string(),
                fmt_f(n as f64 / report.total() as f64 * 100.0, 1),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    let stale = report.stale_affected();
    if stale > 0 {
        let _ = writeln!(
            out,
            "{stale} violation(s) overlapped an open solve window (stale plan); \
             overlap shown per verdict below"
        );
    }
    for v in &report.verdicts {
        let _ = writeln!(
            out,
            "  query {:>6} at {:>12} ms: {}",
            v.query,
            ms(v.at),
            verdict_line(v)
        );
    }
    out
}

/// Counts alert transitions in a trace: `(fired, resolved)`.
fn alert_counts(events: &[TraceEvent]) -> (u64, u64) {
    let mut fired = 0;
    let mut resolved = 0;
    for e in events {
        match e.kind {
            EventKind::AlertFired { .. } => fired += 1,
            EventKind::AlertResolved { .. } => resolved += 1,
            _ => {}
        }
    }
    (fired, resolved)
}

/// `trace-query <file> summary`: whole-trace lifecycle counts.
fn render_summary(events: &[TraceEvent]) -> String {
    let stats = LifecycleStats::from_events(events);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["events".into(), events.len().to_string()]);
    t.row(vec!["arrived".into(), stats.arrived.to_string()]);
    t.row(vec![
        "served on time".into(),
        stats.served_on_time.to_string(),
    ]);
    t.row(vec!["served late".into(), stats.served_late.to_string()]);
    t.row(vec!["dropped".into(), stats.dropped.to_string()]);
    t.row(vec!["violations".into(), stats.violations().to_string()]);
    let (fired, resolved) = alert_counts(events);
    if fired + resolved > 0 {
        t.row(vec!["alerts fired".into(), fired.to_string()]);
        t.row(vec!["alerts resolved".into(), resolved.to_string()]);
    }
    t.render()
}

/// `trace-query <file> alerts`: every burn-rate alert transition, in
/// time order, with its scope, severity, windows and burn rate.
fn render_alerts(events: &[TraceEvent]) -> String {
    let (fired, resolved) = alert_counts(events);
    if fired + resolved == 0 {
        return "no burn-rate alert events in trace (run with telemetry on: \
                --live, --telemetry-out or `telemetry = on`)\n"
            .to_string();
    }
    let mut out = format!("{fired} alert(s) fired, {resolved} resolved\n");
    for e in events {
        let (scope, severity, burn, long_secs, short_secs, what) = match &e.kind {
            EventKind::AlertFired {
                scope,
                severity,
                burn,
                long_secs,
                short_secs,
            } => (scope, severity, burn, long_secs, short_secs, "FIRED"),
            EventKind::AlertResolved {
                scope,
                severity,
                burn,
                long_secs,
                short_secs,
            } => (scope, severity, burn, long_secs, short_secs, "resolved"),
            _ => continue,
        };
        let _ = writeln!(
            out,
            "  {:>9} s  {:<8} {:<6} {:<13} burn {:>8}  ({}s long / {}s short)",
            fmt_f(e.at.as_secs_f64(), 1),
            what,
            severity.label(),
            scope.map_or("all families", |f| f.label()),
            fmt_f(*burn, 2),
            fmt_f(*long_secs, 0),
            fmt_f(*short_secs, 0),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_profiler::{DeviceId, ModelFamily, VariantId};
    use proteus_sim::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample() -> Vec<TraceEvent> {
        let variant = VariantId {
            family: ModelFamily::ResNet,
            index: 1,
        };
        vec![
            TraceEvent {
                at: t(0),
                kind: EventKind::Arrived {
                    query: 5,
                    family: ModelFamily::ResNet,
                },
            },
            TraceEvent {
                at: t(0),
                kind: EventKind::Enqueued {
                    query: 5,
                    device: DeviceId(2),
                    depth: 1,
                    behind: None,
                },
            },
            TraceEvent {
                at: t(40),
                kind: EventKind::BatchFormed {
                    device: DeviceId(2),
                    batch: 0,
                    queries: vec![5],
                },
            },
            TraceEvent {
                at: t(40),
                kind: EventKind::ExecStarted {
                    device: DeviceId(2),
                    batch: 0,
                    variant,
                    size: 1,
                    until: t(90),
                },
            },
            TraceEvent {
                at: t(90),
                kind: EventKind::ExecCompleted {
                    device: DeviceId(2),
                    batch: 0,
                },
            },
            TraceEvent {
                at: t(90),
                kind: EventKind::ServedLate {
                    query: 5,
                    latency: t(90),
                    epoch: 0,
                },
            },
        ]
    }

    #[test]
    fn query_report_reconstructs_lifecycle() {
        let out = render_query(&sample(), 5);
        assert!(out.contains("query 5: 6 events"));
        assert!(out.contains("enqueued on d2"));
        assert!(out.contains("served LATE"));
        assert!(out.contains("verdict: batch_wait"));
        assert!(render_query(&sample(), 99).contains("no events"));
    }

    #[test]
    fn blame_report_totals_add_up() {
        let out = render_blame(&sample(), &Opts::default());
        assert!(out.contains("1 SLO violations out of 1 queries"));
        assert!(out.contains("batch_wait"));
        assert!(out.contains("100.0"));
    }

    #[test]
    fn blame_deny_thresholds_are_reported() {
        let opts = Opts {
            deny: vec![(BlameCause::BatchWait, 0), (BlameCause::Queueing, 5)],
            ..Opts::default()
        };
        let out = render_blame(&sample(), &opts);
        assert!(out.contains("DENY: batch_wait count 1 exceeds threshold 0"));
        assert!(!out.contains("DENY: queueing"));
    }

    #[test]
    fn blame_json_is_machine_readable() {
        let opts = Opts {
            deny: vec![(BlameCause::BatchWait, 0)],
            ..Opts::default()
        };
        let out = render_blame_json(&sample(), &opts);
        assert!(
            out.starts_with('{') && out.trim_end().ends_with('}'),
            "{out}"
        );
        assert!(out.contains("\"violations\":1"));
        assert!(out.contains("\"batch_wait\":1"));
        assert!(out.contains("\"breached\":true"));
        assert!(out.contains("\"cause\":\"batch_wait\""));
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn parse_args_splits_flags_and_positionals() {
        let argv: Vec<String> = ["a.jsonl", "blame", "--json", "--deny", "shed=3"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (pos, opts) = parse_args(&argv).unwrap();
        assert_eq!(pos, vec!["a.jsonl", "blame"]);
        assert!(opts.json);
        assert_eq!(opts.deny, vec![(BlameCause::Shed, 3)]);
        assert!(parse_args(&["--deny".to_string()]).is_err());
        assert!(parse_args(&["--deny".to_string(), "sunspots=1".to_string()]).is_err());
        assert!(parse_args(&["--deny".to_string(), "shed".to_string()]).is_err());
        assert!(parse_args(&["--wat".to_string()]).is_err());
        let argv: Vec<String> = ["diff", "a", "b", "--check", "--allow-new", "2"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (pos, opts) = parse_args(&argv).unwrap();
        assert_eq!(pos, vec!["diff", "a", "b"]);
        assert!(opts.check);
        assert_eq!(opts.allow_new, 2);
    }

    #[test]
    fn critpath_renders_a_waterfall() {
        let out = render_critpath(&sample(), 5);
        assert!(out.contains("query 5: served LATE"), "{out}");
        assert!(out.contains("waterfall"));
        assert!(out.contains("batch_wait"));
        assert!(out.contains("exec"));
        assert!(out.contains("segments sum to observed latency (OK)"));
        assert!(out.contains("critical path dominated by exec"));
        assert!(render_critpath(&sample(), 99).contains("no terminal event"));
    }

    #[test]
    fn smoke_trace_outputs_match_baselines() {
        // What this binary printed for the committed smoke trace before
        // the span layer's interval index existed, byte for byte.
        let events = parse_jsonl(include_str!("../../../../baselines/smoke_trace.jsonl")).unwrap();
        assert_eq!(
            collapse_flame(&span_trees(&events)),
            include_str!("../../../../baselines/smoke_flame.txt")
        );
        assert_eq!(
            render_blame_json(&events, &Opts::default()),
            include_str!("../../../../baselines/smoke_blame.json")
        );
        for (query, golden) in [
            (
                3,
                include_str!("../../../../baselines/smoke_critpath_q3.txt"),
            ),
            (
                149,
                include_str!("../../../../baselines/smoke_critpath_q149.txt"),
            ),
            (
                9,
                include_str!("../../../../baselines/smoke_critpath_q9.txt"),
            ),
        ] {
            assert_eq!(render_critpath(&events, query), golden, "query {query}");
        }
    }

    #[test]
    fn diff_of_identical_runs_is_clean() {
        let d = diff_traces(&sample(), &sample());
        let opts = Opts {
            check: true,
            ..Opts::default()
        };
        let out = render_diff(&d, &opts, false);
        assert!(out.contains("aligned 1 queries"), "{out}");
        assert!(out.contains("+0.00%"));
        assert!(out.contains("violations: 0 new, 0 vanished"));
        assert!(out.contains("--check: OK"));
    }

    #[test]
    fn summary_counts_lifecycle() {
        let out = render_summary(&sample());
        assert!(out.contains("arrived"));
        assert!(out.contains("violations"));
        // No alert events -> no alert rows.
        assert!(!out.contains("alerts fired"));
    }

    fn alert_sample() -> Vec<TraceEvent> {
        use proteus_trace::AlertSeverity;
        let mut events = sample();
        events.push(TraceEvent {
            at: t(305_000),
            kind: EventKind::AlertFired {
                scope: Some(ModelFamily::Bert),
                severity: AlertSeverity::Page,
                burn: 9.125,
                long_secs: 60.0,
                short_secs: 10.0,
            },
        });
        events.push(TraceEvent {
            at: t(415_000),
            kind: EventKind::AlertResolved {
                scope: Some(ModelFamily::Bert),
                severity: AlertSeverity::Page,
                burn: 0.5,
                long_secs: 60.0,
                short_secs: 10.0,
            },
        });
        events.push(TraceEvent {
            at: t(620_000),
            kind: EventKind::AlertFired {
                scope: None,
                severity: AlertSeverity::Ticket,
                burn: 2.25,
                long_secs: 300.0,
                short_secs: 60.0,
            },
        });
        events
    }

    #[test]
    fn alerts_report_lists_transitions() {
        let out = render_alerts(&alert_sample());
        assert!(out.contains("2 alert(s) fired, 1 resolved"), "{out}");
        assert!(out.contains("FIRED"));
        assert!(out.contains("resolved"));
        assert!(out.contains("BERT"));
        assert!(out.contains("all families"));
        assert!(out.contains("9.12"));
        assert!(out.contains("60s long / 10s short"));
        // Alert-free traces point at how to enable telemetry.
        assert!(render_alerts(&sample()).contains("no burn-rate alert events"));
    }

    #[test]
    fn summary_includes_alert_counts_when_present() {
        let out = render_summary(&alert_sample());
        assert!(out.contains("alerts fired"));
        assert!(out.contains("alerts resolved"));
    }

    #[test]
    fn describe_renders_alert_events() {
        let events = alert_sample();
        let fired = describe(&events[events.len() - 3].kind);
        assert!(fired.contains("ALERT page fired for BERT"), "{fired}");
        assert!(fired.contains("burn 9.12"));
        let resolved = describe(&events[events.len() - 2].kind);
        assert!(
            resolved.contains("alert page resolved for BERT"),
            "{resolved}"
        );
    }
}
