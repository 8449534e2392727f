//! Builds and runs a serving experiment from an [`ExperimentConfig`].

use proteus_core::batching::{
    AimdBatching, BatchPolicy, NexusBatching, ProteusBatching, StaticBatching,
};
use proteus_core::schedulers::{
    Allocator, ClipperAllocator, ClipperMode, InfaasAccuracyAllocator, ProteusAllocator,
    SommelierAllocator,
};
use proteus_core::system::{ReplanCause, RunOutcome, ServingSystem, SystemConfig, TelemetryConfig};
use proteus_metrics::report::{fmt_f, TextTable};
use proteus_profiler::{Cluster, SloPolicy};
use proteus_sim::SimTime;
use proteus_trace::{NullSink, TraceSink};
use proteus_workloads::{BurstyTrace, DemandTrace, DiurnalTrace, FlatTrace, TraceBuilder};

use crate::config::{AllocationKind, BatchingKind, ExperimentConfig, OutputKind, TraceKind};

/// Everything a finished experiment produced.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// The raw run outcome (metrics, plans, counters).
    pub outcome: RunOutcome,
    /// The rendered report, per the config's `output` selection.
    pub report: String,
}

fn build_allocator(kind: AllocationKind) -> Box<dyn Allocator> {
    match kind {
        AllocationKind::Ilp => Box::new(ProteusAllocator::default()),
        AllocationKind::InfaasV2 => Box::new(InfaasAccuracyAllocator::default()),
        AllocationKind::ClipperHt => Box::new(ClipperAllocator::new(ClipperMode::HighThroughput)),
        AllocationKind::ClipperHa => Box::new(ClipperAllocator::new(ClipperMode::HighAccuracy)),
        AllocationKind::Sommelier => Box::new(SommelierAllocator::default()),
    }
}

fn build_batching(kind: BatchingKind) -> Box<dyn BatchPolicy> {
    match kind {
        BatchingKind::AccScale => Box::new(ProteusBatching),
        BatchingKind::Aimd => Box::new(AimdBatching::default()),
        BatchingKind::Nexus => Box::new(NexusBatching),
        BatchingKind::Static(n) => Box::new(StaticBatching::new(n)),
    }
}

fn build_trace(config: &ExperimentConfig) -> Box<dyn DemandTrace> {
    match config.trace {
        TraceKind::Diurnal => Box::new(DiurnalTrace::paper_like(
            config.trace_secs,
            config.base_qps,
            config.peak_qps,
            config.seed,
        )),
        TraceKind::Bursty => {
            let secs = config.trace_secs;
            Box::new(BurstyTrace {
                low_qps: config.base_qps,
                high_qps: config.peak_qps,
                burst_start: secs / 3,
                burst_end: 2 * secs / 3,
                secs,
            })
        }
        TraceKind::Flat => Box::new(FlatTrace {
            qps: config.peak_qps,
            secs: config.trace_secs,
        }),
    }
}

/// Runs one experiment and renders its report.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentOutput {
    run_experiment_traced(config, &mut NullSink)
}

/// Runs one experiment while recording flight-recorder events into `sink`
/// (pass [`NullSink`] to trace nothing at zero cost).
pub fn run_experiment_traced(
    config: &ExperimentConfig,
    sink: &mut dyn TraceSink,
) -> ExperimentOutput {
    let trace = build_trace(config);
    let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(config.seed)
        .build(trace.as_ref());

    let mut system_config = SystemConfig::paper_testbed();
    system_config.cluster =
        Cluster::with_counts(config.cluster.0, config.cluster.1, config.cluster.2);
    system_config.slo = SloPolicy::with_multiplier(config.slo_multiplier);
    system_config.realloc_period_secs = config.realloc_period_secs;
    system_config.demand_headroom = config.beta;
    system_config.solve_latency = config.solve_latency;
    system_config.seed = config.seed;
    system_config.audit = config.audit;
    system_config.faults = config.faults.clone();
    // Any telemetry output destination switches the plane on.
    let telemetry_on = config.telemetry
        || config.live
        || config.telemetry_out.is_some()
        || config.telemetry_http.is_some();
    if telemetry_on {
        system_config.telemetry = Some(TelemetryConfig {
            window: SimTime::from_secs_f64(config.telemetry_window_secs),
            step: SimTime::from_secs_f64(config.telemetry_step_secs),
            objective: config.telemetry_objective,
            expo_path: config.telemetry_out.as_ref().map(std::path::PathBuf::from),
            live: config.live,
            http_port: config.telemetry_http,
        });
    }

    let mut system = ServingSystem::new(
        system_config,
        build_allocator(config.allocation),
        build_batching(config.batching),
    );
    let outcome = system.run_traced(&arrivals, sink);
    let report = render(config, &outcome);
    ExperimentOutput { outcome, report }
}

/// The end-of-run alert summary appended to human-readable reports when
/// the telemetry plane ran: headline counts plus one line per alert
/// lifetime, e.g. `page  BERT  fired t=305s  resolved t=628s  burn 9.12`.
fn telemetry_block(outcome: &RunOutcome) -> Option<String> {
    let t = outcome.telemetry.as_ref()?;
    let mut out = format!(
        "telemetry: {} window(s), {} alert(s) fired, {} resolved, peak burn {}\n",
        t.windows,
        t.alerts_fired,
        t.alerts_resolved,
        fmt_f(t.peak_burn, 2)
    );
    for a in &t.alerts {
        let resolved = match a.resolved_at {
            Some(at) => format!("resolved t={}s", fmt_f(at.as_secs_f64(), 0)),
            None => "still firing at end of run".into(),
        };
        out.push_str(&format!(
            "  {:<6} {:<13} fired t={}s  {resolved}  burn {}\n",
            a.severity.label(),
            a.scope.map_or("all", |f| f.label()),
            fmt_f(a.fired_at.as_secs_f64(), 0),
            fmt_f(a.burn_at_fire, 2),
        ));
    }
    if t.io_error {
        out.push_str("  (telemetry I/O error: exposition output incomplete)\n");
    }
    Some(out)
}

/// One line summarizing the replan log: counts by trigger cause plus the
/// mean solver wall time per replan, e.g.
/// `initial:1 periodic:12 burst:2 (mean wall 0.84 ms)`.
fn replan_log_line(outcome: &RunOutcome) -> Option<String> {
    if outcome.replan_log.is_empty() {
        return None;
    }
    let mut parts = Vec::new();
    for cause in ReplanCause::ALL {
        let n = outcome
            .replan_log
            .iter()
            .filter(|r| r.cause == cause)
            .count();
        if n > 0 {
            parts.push(format!("{}:{n}", cause.label()));
        }
    }
    let mean_wall_ms = outcome.replan_log.iter().map(|r| r.wall_secs).sum::<f64>()
        / outcome.replan_log.len() as f64
        * 1e3;
    let mut line = format!(
        "{} (mean wall {} ms",
        parts.join(" "),
        fmt_f(mean_wall_ms, 2)
    );
    // Simulated trigger-to-commit delay: only interesting once the solve
    // window is nonzero, so zero-latency reports keep their old shape.
    let mean_solve = outcome.replan_log.iter().map(|r| r.solve_secs).sum::<f64>()
        / outcome.replan_log.len() as f64;
    if mean_solve > 0.0 {
        line.push_str(&format!(", mean commit delay {} s", fmt_f(mean_solve, 2)));
    }
    line.push(')');
    Some(line)
}

/// One deterministic line identifying a run's simulated behaviour.
///
/// Covers the headline counters plus an FNV-1a digest over every
/// replan record's *simulated* fields (trigger/commit instants, cause,
/// plan deltas, demand snapshots). Wall-clock solver timings are
/// deliberately excluded: two runs of the same config must print the
/// same fingerprint on any machine. `crates/cli/tests/fingerprints.rs`
/// pins it for three fig4 settings.
pub fn fingerprint(outcome: &RunOutcome) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &outcome.replan_log {
        eat(&r.at.as_nanos().to_le_bytes());
        eat(&r.committed_at.as_nanos().to_le_bytes());
        eat(r.cause.label().as_bytes());
        eat(&r.changed.to_le_bytes());
        eat(&r.shrink.to_bits().to_le_bytes());
        for (_, v) in r.observed.iter() {
            eat(&v.to_bits().to_le_bytes());
        }
        for (_, v) in r.target.iter() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    let s = outcome.metrics.summary();
    format!(
        "fingerprint: served={} dropped={} violation_ratio={} eff_acc={} \
         reallocs={} discarded={} coalesced={} replan_digest={hash:016x}",
        s.total_served,
        s.total_dropped,
        fmt_f(s.slo_violation_ratio, 6),
        fmt_f(s.effective_accuracy_pct(), 4),
        outcome.reallocations,
        outcome.plans_discarded,
        outcome.replans_coalesced,
    )
}

fn render(config: &ExperimentConfig, outcome: &RunOutcome) -> String {
    let mut report = render_body(config, outcome);
    // CSV output stays machine-clean; every other format carries the
    // alert summary.
    if config.output != OutputKind::Timeseries {
        if let Some(block) = telemetry_block(outcome) {
            report.push_str(&block);
        }
    }
    report
}

fn render_body(config: &ExperimentConfig, outcome: &RunOutcome) -> String {
    match config.output {
        OutputKind::Summary => {
            let s = outcome.metrics.summary();
            let mut t = TextTable::new(vec!["metric", "value"]);
            t.row(vec!["arrived".into(), s.total_arrived.to_string()]);
            t.row(vec!["served".into(), s.total_served.to_string()]);
            t.row(vec!["dropped".into(), s.total_dropped.to_string()]);
            t.row(vec![
                "avg throughput (QPS)".into(),
                fmt_f(s.avg_throughput_qps, 1),
            ]);
            t.row(vec![
                "effective accuracy (%)".into(),
                fmt_f(s.effective_accuracy_pct(), 2),
            ]);
            t.row(vec![
                "max accuracy drop (%)".into(),
                fmt_f(s.max_accuracy_drop_pct(), 2),
            ]);
            t.row(vec![
                "SLO violation ratio".into(),
                fmt_f(s.slo_violation_ratio, 4),
            ]);
            for (name, p) in [
                ("latency p50 (ms)", s.latency_p50),
                ("latency p95 (ms)", s.latency_p95),
                ("latency p99 (ms)", s.latency_p99),
            ] {
                if let Some(v) = p {
                    t.row(vec![name.into(), fmt_f(v.as_millis_f64(), 1)]);
                }
            }
            t.row(vec![
                "re-allocations".into(),
                outcome.reallocations.to_string(),
            ]);
            if outcome.plans_discarded > 0 {
                t.row(vec![
                    "plans discarded".into(),
                    outcome.plans_discarded.to_string(),
                ]);
            }
            if outcome.replans_coalesced > 0 {
                t.row(vec![
                    "replans coalesced".into(),
                    outcome.replans_coalesced.to_string(),
                ]);
            }
            if outcome.plan_audits > 0 {
                t.row(vec![
                    "plan audits".into(),
                    format!(
                        "{} ({} violation{})",
                        outcome.plan_audits,
                        outcome.audit_violations,
                        if outcome.audit_violations == 1 {
                            ""
                        } else {
                            "s"
                        }
                    ),
                ]);
            }
            if let Some(line) = replan_log_line(outcome) {
                t.row(vec!["replans by cause".into(), line]);
            }
            // Per-replan solver cost (zero for the heuristic baselines).
            let st = outcome.solver_stats;
            if st.nodes > 0 {
                t.row(vec!["solver nodes".into(), st.nodes.to_string()]);
                t.row(vec!["solver pruned".into(), st.pruned.to_string()]);
                t.row(vec![
                    "solver simplex iterations".into(),
                    st.simplex_iterations.to_string(),
                ]);
                t.row(vec![
                    "solver warm-start hits (%)".into(),
                    fmt_f(st.warm_hit_rate() * 100.0, 1),
                ]);
                t.row(vec![
                    "solver wall (ms)".into(),
                    fmt_f(st.wall_secs() * 1e3, 2),
                ]);
                t.row(vec![
                    "solver wall / replan (ms)".into(),
                    fmt_f(
                        st.wall_secs() * 1e3 / f64::from(outcome.reallocations.max(1)),
                        2,
                    ),
                ]);
            }
            t.render()
        }
        OutputKind::Timeseries => {
            let mut t = TextTable::new(vec![
                "second",
                "arrived",
                "served",
                "violations",
                "effective_acc",
            ]);
            for (i, b) in outcome.metrics.timeseries().iter().enumerate() {
                t.row(vec![
                    i.to_string(),
                    b.arrived.to_string(),
                    b.served().to_string(),
                    b.violations().to_string(),
                    b.effective_accuracy()
                        .map_or("-".into(), |a| fmt_f(a * 100.0, 2)),
                ]);
            }
            t.to_csv()
        }
        OutputKind::Latency => {
            let mut t = TextTable::new(vec![
                "scope", "served", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)",
            ]);
            let row = |t: &mut TextTable, scope: String, s: &proteus_metrics::QuantileSketch| {
                let ms = |secs: Option<f64>| secs.map_or("-".into(), |v| fmt_f(v * 1e3, 1));
                t.row(vec![
                    scope,
                    s.count().to_string(),
                    ms(s.quantile(0.5)),
                    ms(s.quantile(0.9)),
                    ms(s.quantile(0.99)),
                    ms(s.max()),
                ]);
            };
            row(&mut t, "all".into(), &outcome.metrics.latency());
            for f in outcome.metrics.family_summaries() {
                if let Some(s) = outcome.metrics.family_latency(f.family) {
                    row(&mut t, f.family.label().to_string(), s);
                }
            }
            t.render()
        }
        OutputKind::Families => {
            let mut t = TextTable::new(vec![
                "family",
                "arrived",
                "throughput (QPS)",
                "effective acc (%)",
                "violation ratio",
                "p95 (ms)",
                "p99 (ms)",
            ]);
            let pct = |p: Option<proteus_sim::SimTime>| {
                p.map_or("-".into(), |v| fmt_f(v.as_millis_f64(), 1))
            };
            for f in outcome.metrics.family_summaries() {
                t.row(vec![
                    f.family.label().to_string(),
                    f.summary.total_arrived.to_string(),
                    fmt_f(f.summary.avg_throughput_qps, 1),
                    fmt_f(f.summary.effective_accuracy_pct(), 2),
                    fmt_f(f.summary.slo_violation_ratio, 4),
                    pct(f.summary.latency_p95),
                    pct(f.summary.latency_p99),
                ]);
            }
            t.render()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(extra: &str) -> ExperimentConfig {
        format!(
            "trace = flat\ntrace_secs = 8\npeak_qps = 40\nbase_qps = 0\ncluster = 5,2,2\n{extra}"
        )
        .parse()
        .unwrap()
    }

    #[test]
    fn summary_experiment_runs() {
        let out = run_experiment(&quick_config(""));
        let s = out.outcome.metrics.summary();
        assert!(s.total_arrived > 100);
        assert_eq!(s.total_arrived, s.total_served + s.total_dropped);
        assert!(out.report.contains("effective accuracy"));
    }

    #[test]
    fn timeseries_output_is_csv() {
        let out = run_experiment(&quick_config("output = timeseries"));
        let header = out.report.lines().next().unwrap();
        assert_eq!(header, "second,arrived,served,violations,effective_acc");
        assert!(out.report.lines().count() > 5);
    }

    #[test]
    fn families_output_lists_families() {
        let out = run_experiment(&quick_config("output = families"));
        assert!(out.report.contains("EfficientNet"));
    }

    #[test]
    fn latency_output_reports_percentiles() {
        let out = run_experiment(&quick_config("output = latency"));
        assert!(out.report.contains("p99"));
        let all = out.report.lines().nth(2).unwrap();
        assert!(all.starts_with("all"));
    }

    #[test]
    fn summary_includes_percentiles_and_replan_log() {
        let out = run_experiment(&quick_config(""));
        assert!(out.report.contains("latency p50 (ms)"));
        assert!(out.report.contains("latency p99 (ms)"));
        // The ILP default replans at least once (the initial plan).
        assert!(out.report.contains("replans by cause"));
        assert!(out.report.contains("initial:1"));
        assert!(out.report.contains("mean wall"));
        assert!(!out.outcome.replan_log.is_empty());
    }

    #[test]
    fn families_output_has_percentile_columns() {
        let out = run_experiment(&quick_config("output = families"));
        assert!(out.report.contains("p95 (ms)"));
        assert!(out.report.contains("p99 (ms)"));
    }

    #[test]
    fn traced_run_balances_arrivals_and_terminals() {
        let mut sink = proteus_trace::MemorySink::new();
        let out = run_experiment_traced(&quick_config(""), &mut sink);
        let stats = proteus_trace::LifecycleStats::from_events(sink.events());
        let s = out.outcome.metrics.summary();
        assert_eq!(stats.arrived, s.total_arrived);
        assert_eq!(stats.terminals(), stats.arrived);
        assert_eq!(stats.served_on_time + stats.served_late, s.total_served);
        assert_eq!(stats.dropped, s.total_dropped);
    }

    #[test]
    fn telemetry_run_summarizes_and_writes_valid_exposition() {
        let path = std::env::temp_dir().join("proteus_runner_telemetry_test.prom");
        let _ = std::fs::remove_file(&path);
        let mut cfg = quick_config("trace_secs = 30\ntelemetry = on\ntelemetry_window = 5");
        cfg.telemetry_out = Some(path.to_string_lossy().into_owned());
        let out = run_experiment(&cfg);
        let t = out.outcome.telemetry.as_ref().expect("telemetry summary");
        assert!(
            t.windows >= 3,
            "expected several windows, got {}",
            t.windows
        );
        assert!(!t.io_error);
        assert!(out.report.contains("telemetry:"), "{}", out.report);
        let text = std::fs::read_to_string(&path).expect("exposition file");
        let stats = proteus_telemetry::validate(&text).expect("valid exposition");
        assert_eq!(stats.pages as u64, t.windows);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn telemetry_step_is_rounded_up_to_whole_monitor_ticks() {
        // A 1.5 s step seals on the 1 s monitoring ticks, so every 2 s: the
        // 10 s window must span exactly five of those 2 s steps.
        let path = std::env::temp_dir().join("proteus_runner_telemetry_step_test.prom");
        let _ = std::fs::remove_file(&path);
        let mut cfg: ExperimentConfig = "trace_secs = 40\ntelemetry_step = 1.5".parse().unwrap();
        cfg.telemetry_out = Some(path.to_string_lossy().into_owned());
        run_experiment(&cfg);
        let text = std::fs::read_to_string(&path).expect("exposition file");
        let _ = std::fs::remove_file(&path);
        let spans: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("proteus_window_seconds "))
            .collect();
        assert!(spans.len() >= 4, "expected four full windows: {spans:?}");
        assert_eq!(spans[..4], ["10"; 4]);
    }

    #[test]
    fn reallocations_counter_counts_committed_plans() {
        // A crash inside the 4 s solve window opened at 20 s discards
        // that solve: it is no plan applied.
        let path = std::env::temp_dir().join("proteus_runner_reallocations_test.prom");
        let _ = std::fs::remove_file(&path);
        let mut cfg = quick_config(
            "trace_secs = 40\nrealloc_period = 10\nsolve_latency = fixed:4\n\
             faults = crash@21:1; recover@31:1",
        );
        cfg.telemetry_out = Some(path.to_string_lossy().into_owned());
        let out = run_experiment(&cfg);
        let text = std::fs::read_to_string(&path).expect("exposition file");
        let _ = std::fs::remove_file(&path);
        assert!(
            out.outcome.plans_discarded >= 1,
            "the crash discards a solve"
        );
        let last = text
            .lines()
            .filter_map(|l| l.strip_prefix("proteus_reallocations_total "))
            .next_back()
            .expect("a reallocations sample");
        // `reallocations` counts the initial plan too.
        assert_eq!(last, (out.outcome.reallocations - 1).to_string());
    }

    #[test]
    fn pages_cover_every_step_when_the_window_is_not_whole_steps() {
        // A 10 s window of 3 s steps rounds up to four steps: one 12 s
        // page every four seals, so every step is in exactly one page.
        let path = std::env::temp_dir().join("proteus_runner_telemetry_window_test.prom");
        let _ = std::fs::remove_file(&path);
        let mut cfg: ExperimentConfig =
            "trace_secs = 40\ntelemetry_window = 10\ntelemetry_step = 3"
                .parse()
                .unwrap();
        cfg.telemetry_out = Some(path.to_string_lossy().into_owned());
        run_experiment(&cfg);
        let text = std::fs::read_to_string(&path).expect("exposition file");
        let _ = std::fs::remove_file(&path);
        let samples = |name: &str| -> Vec<String> {
            text.lines()
                .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .map(str::to_string)
                .collect()
        };
        let ends = samples("proteus_sim_time_seconds");
        let spans = samples("proteus_window_seconds");
        // Forty-five seconds of run: three full pages, then the tail's.
        assert_eq!(ends[..3], ["12", "24", "36"], "{ends:?}");
        assert_eq!(spans[..3], ["12"; 3]);
    }

    #[test]
    fn telemetry_off_leaves_no_summary() {
        let out = run_experiment(&quick_config(""));
        assert!(out.outcome.telemetry.is_none());
        assert!(!out.report.contains("telemetry:"));
    }

    #[test]
    fn every_algorithm_combination_runs() {
        for alloc in ["ilp", "infaas_v2", "clipper_ht", "clipper_ha", "sommelier"] {
            for batch in ["accscale", "aimd", "nexus", "static:2"] {
                let cfg = quick_config(&format!("model_allocation = {alloc}\nbatching = {batch}"));
                let out = run_experiment(&cfg);
                let s = out.outcome.metrics.summary();
                assert_eq!(
                    s.total_arrived,
                    s.total_served + s.total_dropped,
                    "{alloc}/{batch}"
                );
            }
        }
    }
}
