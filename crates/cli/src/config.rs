//! The experiment configuration format.
//!
//! The paper's artifact drives its simulator with JSON configuration files
//! naming the workload trace, the resource-allocation algorithm
//! (`ilp`, `infaas_v2`, `clipper`, `sommelier`) and the batching algorithm
//! (`accscale`, `aimd`, `nexus`) plus hyper-parameters (A.5/A.7). This
//! module provides the same knobs through a minimal `key = value` file
//! format (one assignment per line, `#` comments), avoiding a JSON
//! dependency.
//!
//! # Examples
//!
//! ```
//! use proteus_cli::config::ExperimentConfig;
//!
//! let config: ExperimentConfig = "
//!     trace = diurnal
//!     peak_qps = 800
//!     model_allocation = ilp
//!     batching = accscale
//! "
//! .parse()
//! .unwrap();
//! assert_eq!(config.allocation, proteus_cli::config::AllocationKind::Ilp);
//! ```

use std::fmt;
use std::str::FromStr;

use proteus_sim::FaultSchedule;

/// Which demand trace to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Twitter-like diurnal trace (§6.1.3).
    Diurnal,
    /// Macro-scale burst trace (§6.3).
    Bursty,
    /// Constant demand.
    Flat,
}

/// Which resource-allocation algorithm runs in the controller
/// (the artifact's `model_allocation` field, same names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationKind {
    /// Proteus' MILP (`ilp`).
    Ilp,
    /// INFaaS-Accuracy (`infaas_v2`).
    InfaasV2,
    /// Clipper high-throughput (`clipper_ht`) — plain `clipper` maps here.
    ClipperHt,
    /// Clipper high-accuracy (`clipper_ha`).
    ClipperHa,
    /// Sommelier (`sommelier`).
    Sommelier,
}

/// Which batching algorithm the workers run (the artifact's `batching`
/// field, same names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingKind {
    /// Proteus adaptive batching (`accscale`).
    AccScale,
    /// Clipper AIMD (`aimd`).
    Aimd,
    /// Nexus early-drop (`nexus`).
    Nexus,
    /// Fixed batch size (`static:N`).
    Static(u32),
}

/// What the runner prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Headline metrics table.
    Summary,
    /// Per-second CSV timeseries.
    Timeseries,
    /// Per-family breakdown table.
    Families,
    /// Response-latency percentiles (aggregate and per family).
    Latency,
}

/// A parsed experiment configuration with artifact-compatible defaults
/// (`ilp` + `accscale`, β = 1.05, 30 s invocation period).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Demand trace shape.
    pub trace: TraceKind,
    /// Trace length in seconds.
    pub trace_secs: u32,
    /// Off-peak demand, QPS.
    pub base_qps: f64,
    /// Peak demand, QPS.
    pub peak_qps: f64,
    /// RNG seed.
    pub seed: u64,
    /// Resource-allocation algorithm.
    pub allocation: AllocationKind,
    /// Batching algorithm.
    pub batching: BatchingKind,
    /// SLO multiplier (§6.6).
    pub slo_multiplier: f64,
    /// Cluster composition: CPU, GTX 1080 Ti, V100 counts.
    pub cluster: (u32, u32, u32),
    /// Resource Manager invocation period, seconds.
    pub realloc_period_secs: f64,
    /// Demand headroom β (artifact default 1.05).
    pub beta: f64,
    /// Control-plane solve latency: how long after a replan trigger the
    /// new plan commits (`solve_latency = zero | model | fixed:SECS`, or
    /// the `--solve-latency` flag). `zero` preserves the legacy
    /// solve-and-apply-in-the-same-instant behaviour.
    pub solve_latency: proteus_core::SolveLatency,
    /// Output format.
    pub output: OutputKind,
    /// Run the independent plan auditor on every replan and DES-invariant
    /// checks at end of run, even in release builds (`--audit` flag or
    /// `audit = true`).
    pub audit: bool,
    /// Injected fault schedule (`faults = crash@30:2; recover@90:2; ...`
    /// or the `--faults` flag). Empty by default.
    pub faults: FaultSchedule,
    /// Enable the live telemetry plane (`telemetry = on`). Also forced on
    /// by the `--live`, `--telemetry-out` and `--telemetry-http` flags.
    pub telemetry: bool,
    /// Telemetry sliding-window span, seconds.
    pub telemetry_window_secs: f64,
    /// Telemetry window advance step, seconds.
    pub telemetry_step_secs: f64,
    /// On-time SLO objective for burn-rate alerting, in `(0, 1)`.
    pub telemetry_objective: f64,
    /// Redraw the ANSI dashboard on stderr every window (`--live`).
    pub live: bool,
    /// Append one Prometheus text-format page per window to this file
    /// (`--telemetry-out`).
    pub telemetry_out: Option<String>,
    /// Serve the latest page on `127.0.0.1:port` (`--telemetry-http`).
    pub telemetry_http: Option<u16>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            trace: TraceKind::Diurnal,
            trace_secs: 24 * 60,
            base_qps: 200.0,
            peak_qps: 1000.0,
            seed: 42,
            allocation: AllocationKind::Ilp,
            batching: BatchingKind::AccScale,
            slo_multiplier: 2.0,
            cluster: (20, 10, 10),
            realloc_period_secs: 30.0,
            beta: 1.05,
            solve_latency: proteus_core::SolveLatency::Zero,
            output: OutputKind::Summary,
            audit: false,
            faults: FaultSchedule::default(),
            telemetry: false,
            telemetry_window_secs: 10.0,
            telemetry_step_secs: 1.0,
            telemetry_objective: 0.95,
            live: false,
            telemetry_out: None,
            telemetry_http: None,
        }
    }
}

/// A configuration parse failure: the offending line and a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for ExperimentConfig {
    type Err = ParseConfigError;

    fn from_str(text: &str) -> Result<Self, ParseConfigError> {
        let mut config = ExperimentConfig::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(ParseConfigError {
                    line,
                    reason: format!("expected `key = value`, got `{content}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let bad = |reason: String| ParseConfigError { line, reason };
            let num = |v: &str| -> Result<f64, ParseConfigError> {
                v.parse().map_err(|_| bad(format!("`{v}` is not a number")))
            };
            match key {
                "trace" => {
                    config.trace = match value {
                        "diurnal" => TraceKind::Diurnal,
                        "bursty" => TraceKind::Bursty,
                        "flat" => TraceKind::Flat,
                        other => return Err(bad(format!("unknown trace `{other}`"))),
                    }
                }
                "trace_secs" => {
                    let secs = num(value)?;
                    if !(0.0..=f64::from(u32::MAX)).contains(&secs) {
                        return Err(bad(format!(
                            "trace_secs {secs} is outside 0..={}",
                            u32::MAX
                        )));
                    }
                    config.trace_secs = secs as u32;
                }
                "base_qps" => config.base_qps = num(value)?,
                "peak_qps" => config.peak_qps = num(value)?,
                "seed" => config.seed = num(value)? as u64,
                "model_allocation" | "allocator" => {
                    config.allocation = match value {
                        "ilp" => AllocationKind::Ilp,
                        "infaas_v2" | "infaas" => AllocationKind::InfaasV2,
                        "clipper" | "clipper_ht" => AllocationKind::ClipperHt,
                        "clipper_ha" => AllocationKind::ClipperHa,
                        "sommelier" => AllocationKind::Sommelier,
                        other => return Err(bad(format!("unknown allocation `{other}`"))),
                    }
                }
                "batching" => {
                    config.batching = if let Some(n) = value.strip_prefix("static:") {
                        let n: u32 = n
                            .parse()
                            .map_err(|_| bad(format!("bad static batch size `{n}`")))?;
                        if n == 0 {
                            return Err(bad("static batch size must be >= 1".into()));
                        }
                        BatchingKind::Static(n)
                    } else {
                        match value {
                            "accscale" => BatchingKind::AccScale,
                            "aimd" => BatchingKind::Aimd,
                            "nexus" => BatchingKind::Nexus,
                            other => return Err(bad(format!("unknown batching `{other}`"))),
                        }
                    }
                }
                "slo_multiplier" => config.slo_multiplier = num(value)?,
                "cluster" => {
                    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
                    if parts.len() != 3 {
                        return Err(bad("cluster needs `cpu,gtx,v100` counts".into()));
                    }
                    let parse = |v: &str| -> Result<u32, ParseConfigError> {
                        v.parse()
                            .map_err(|_| bad(format!("bad device count `{v}`")))
                    };
                    config.cluster = (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
                }
                "realloc_period" | "realloc_period_secs" => {
                    config.realloc_period_secs = num(value)?
                }
                "beta" => config.beta = num(value)?,
                "solve_latency" => {
                    config.solve_latency = value.parse().map_err(|e: String| bad(e))?;
                }
                "faults" => {
                    config.faults = value
                        .parse()
                        .map_err(|e: proteus_sim::ParseFaultError| bad(e.to_string()))?;
                }
                "audit" => {
                    config.audit = match value {
                        "true" | "on" | "1" => true,
                        "false" | "off" | "0" => false,
                        other => return Err(bad(format!("bad audit value `{other}`"))),
                    }
                }
                "telemetry" => {
                    config.telemetry = match value {
                        "true" | "on" | "1" => true,
                        "false" | "off" | "0" => false,
                        other => return Err(bad(format!("bad telemetry value `{other}`"))),
                    }
                }
                "telemetry_window" | "telemetry_window_secs" => {
                    config.telemetry_window_secs = num(value)?
                }
                "telemetry_step" | "telemetry_step_secs" => {
                    config.telemetry_step_secs = num(value)?
                }
                "telemetry_objective" => config.telemetry_objective = num(value)?,
                "output" => {
                    config.output = match value {
                        "summary" => OutputKind::Summary,
                        "timeseries" => OutputKind::Timeseries,
                        "families" => OutputKind::Families,
                        "latency" => OutputKind::Latency,
                        other => return Err(bad(format!("unknown output `{other}`"))),
                    }
                }
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        config
            .validate()
            .map_err(|reason| ParseConfigError { line: 0, reason })?;
        Ok(config)
    }
}

impl ExperimentConfig {
    /// Semantic validation beyond syntax.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        for (key, value) in [
            ("base_qps", self.base_qps),
            ("peak_qps", self.peak_qps),
            ("slo_multiplier", self.slo_multiplier),
            ("realloc_period", self.realloc_period_secs),
            ("beta", self.beta),
            ("telemetry_window", self.telemetry_window_secs),
            ("telemetry_step", self.telemetry_step_secs),
            ("telemetry_objective", self.telemetry_objective),
        ] {
            if !value.is_finite() {
                return Err(format!("{key} must be finite, got {value}"));
            }
        }
        if self.trace_secs == 0 {
            return Err("trace_secs must be positive".into());
        }
        if self.base_qps < 0.0 || self.peak_qps < self.base_qps {
            return Err(format!(
                "need 0 <= base_qps ({}) <= peak_qps ({})",
                self.base_qps, self.peak_qps
            ));
        }
        if self.slo_multiplier <= 0.0 {
            return Err("slo_multiplier must be positive".into());
        }
        if self.cluster == (0, 0, 0) {
            return Err("cluster must contain at least one device".into());
        }
        if self.realloc_period_secs <= 0.0 {
            return Err("realloc_period must be positive".into());
        }
        if self.beta < 1.0 {
            return Err("beta must be >= 1.0".into());
        }
        if self.telemetry_step_secs <= 0.0 || self.telemetry_window_secs < self.telemetry_step_secs
        {
            return Err(format!(
                "need 0 < telemetry_step ({}) <= telemetry_window ({})",
                self.telemetry_step_secs, self.telemetry_window_secs
            ));
        }
        if !(0.0 < self.telemetry_objective && self.telemetry_objective < 1.0) {
            return Err("telemetry_objective must be in (0, 1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_artifact() {
        let c = ExperimentConfig::default();
        assert_eq!(c.allocation, AllocationKind::Ilp);
        assert_eq!(c.batching, BatchingKind::AccScale);
        assert_eq!(c.beta, 1.05);
        assert_eq!(c.cluster, (20, 10, 10));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn parses_full_config() {
        let c: ExperimentConfig = "
            # a comment
            trace = bursty
            trace_secs = 600
            base_qps = 100   # inline comment
            peak_qps = 900
            seed = 7
            model_allocation = infaas_v2
            batching = nexus
            slo_multiplier = 1.5
            cluster = 4, 2, 2
            realloc_period = 10
            beta = 1.1
            output = timeseries
        "
        .parse()
        .unwrap();
        assert_eq!(c.trace, TraceKind::Bursty);
        assert_eq!(c.trace_secs, 600);
        assert_eq!(c.base_qps, 100.0);
        assert_eq!(c.allocation, AllocationKind::InfaasV2);
        assert_eq!(c.batching, BatchingKind::Nexus);
        assert_eq!(c.cluster, (4, 2, 2));
        assert_eq!(c.output, OutputKind::Timeseries);
    }

    #[test]
    fn artifact_algorithm_names_resolve() {
        for (name, kind) in [
            ("ilp", AllocationKind::Ilp),
            ("infaas_v2", AllocationKind::InfaasV2),
            ("clipper", AllocationKind::ClipperHt),
            ("sommelier", AllocationKind::Sommelier),
        ] {
            let c: ExperimentConfig = format!("model_allocation = {name}").parse().unwrap();
            assert_eq!(c.allocation, kind, "{name}");
        }
        for (name, kind) in [
            ("accscale", BatchingKind::AccScale),
            ("aimd", BatchingKind::Aimd),
            ("nexus", BatchingKind::Nexus),
            ("static:4", BatchingKind::Static(4)),
        ] {
            let c: ExperimentConfig = format!("batching = {name}").parse().unwrap();
            assert_eq!(c.batching, kind, "{name}");
        }
    }

    #[test]
    fn parses_fault_schedule() {
        let c: ExperimentConfig = "faults = crash@30:2; recover@90:2; loadfail@0.1"
            .parse()
            .unwrap();
        assert_eq!(c.faults.events.len(), 2);
        assert_eq!(c.faults.load_failure_p, 0.1);
        let err = "faults = crash@30".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("bad fault spec"), "{}", err.reason);
        // Default: no faults.
        assert!(ExperimentConfig::default().faults.is_empty());
    }

    #[test]
    fn parses_telemetry_keys() {
        let c: ExperimentConfig = "
            telemetry = on
            telemetry_window = 20
            telemetry_step = 2
            telemetry_objective = 0.99
        "
        .parse()
        .unwrap();
        assert!(c.telemetry);
        assert_eq!(c.telemetry_window_secs, 20.0);
        assert_eq!(c.telemetry_step_secs, 2.0);
        assert_eq!(c.telemetry_objective, 0.99);
        // Off by default, and output destinations are flag-only.
        let d = ExperimentConfig::default();
        assert!(!d.telemetry && !d.live);
        assert!(d.telemetry_out.is_none() && d.telemetry_http.is_none());

        let err = "telemetry = maybe".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("telemetry"));
        let err = "telemetry_step = 5\ntelemetry_window = 2"
            .parse::<ExperimentConfig>()
            .unwrap_err();
        assert!(err.reason.contains("telemetry_step"));
        let err = "telemetry_objective = 1.5"
            .parse::<ExperimentConfig>()
            .unwrap_err();
        assert!(err.reason.contains("telemetry_objective"));
    }

    #[test]
    fn parses_solve_latency() {
        use proteus_core::SolveLatency;
        // Legacy instant-commit behaviour is the default.
        assert_eq!(
            ExperimentConfig::default().solve_latency,
            SolveLatency::Zero
        );
        for (text, want) in [
            ("solve_latency = zero", SolveLatency::Zero),
            ("solve_latency = model", SolveLatency::Model),
            ("solve_latency = fixed:4.2", SolveLatency::Fixed(4.2)),
        ] {
            let c: ExperimentConfig = text.parse().unwrap();
            assert_eq!(c.solve_latency, want, "{text}");
        }
        let err = "solve_latency = warp"
            .parse::<ExperimentConfig>()
            .unwrap_err();
        assert!(err.reason.contains("solve latency"), "{}", err.reason);
        let err = "solve_latency = fixed:-1"
            .parse::<ExperimentConfig>()
            .unwrap_err();
        assert!(err.reason.contains("positive"), "{}", err.reason);
    }

    #[test]
    fn rejects_unknown_keys_and_values() {
        let err = "frobnicate = 3".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("unknown key"));
        let err = "trace = lunar".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("unknown trace"));
        let err = "batching = static:0"
            .parse::<ExperimentConfig>()
            .unwrap_err();
        assert!(err.reason.contains(">= 1"));
        let err = "peak_qps = fast".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("not a number"));
        let err = "trace".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("key = value"));
    }

    #[test]
    fn semantic_validation() {
        let err = "peak_qps = 10\nbase_qps = 20"
            .parse::<ExperimentConfig>()
            .unwrap_err();
        assert!(err.reason.contains("peak_qps"));
        let err = "cluster = 0,0,0".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("at least one device"));
        let err = "beta = 0.9".parse::<ExperimentConfig>().unwrap_err();
        assert!(err.reason.contains("beta"));
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for key in [
            "base_qps",
            "peak_qps",
            "slo_multiplier",
            "realloc_period",
            "realloc_period_secs",
            "beta",
            "telemetry_window",
            "telemetry_step",
            "telemetry_objective",
        ] {
            for value in ["nan", "NaN", "inf", "-inf", "infinity"] {
                let text = format!("{key} = {value}");
                let err = text.parse::<ExperimentConfig>().unwrap_err();
                assert!(err.reason.contains("finite"), "{text}: {}", err.reason);
            }
        }
        let err = ExperimentConfig {
            peak_qps: f64::INFINITY,
            ..ExperimentConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("peak_qps"), "{err}");
    }

    #[test]
    fn trace_secs_must_fit_u32() {
        let c: ExperimentConfig = "trace_secs = 4294967295".parse().unwrap();
        assert_eq!(c.trace_secs, u32::MAX);
        for value in ["4294967296", "1e12", "-1", "nan", "inf"] {
            let text = format!("trace_secs = {value}");
            let err = text.parse::<ExperimentConfig>().unwrap_err();
            assert!(err.reason.contains("trace_secs"), "{text}: {}", err.reason);
        }
    }

    /// Keys whose values the reader converts or range-checks.
    const KEYS: &[&str] = &[
        "trace_secs",
        "base_qps",
        "peak_qps",
        "seed",
        "slo_multiplier",
        "cluster",
        "realloc_period",
        "beta",
        "solve_latency",
        "faults",
        "telemetry_window",
        "telemetry_step",
        "telemetry_objective",
        "batching",
    ];

    /// Values that are non-finite, negative or out of range, next to
    /// ordinary ones.
    const VALUES: &[&str] = &[
        "0",
        "1",
        "0.5",
        "2",
        "-1",
        "1e300",
        "2e10",
        "4294967296",
        "inf",
        "-inf",
        "nan",
        "1,1,1",
        "static:0",
        "fixed:1e300",
        "fixed:2",
        "crash@2e10:1",
        "crash@3:1",
    ];

    const SEPARATORS: &[&str] = &[" = ", "=", "\n", "#", ",", ":", ";", " "];

    /// A random byte, or a key, value or separator fragment.
    fn hostile_piece((pick, any, token): (u8, u16, usize)) -> Vec<u8> {
        let from = |pool: &[&str]| pool[token % pool.len()].as_bytes().to_vec();
        match pick {
            0 => vec![any.to_le_bytes()[0]],
            1 => from(KEYS),
            2 => from(VALUES),
            _ => from(SEPARATORS),
        }
    }

    /// What a parsed configuration must satisfy, whatever the input.
    fn check_parsed(text: &str) -> Result<(), proptest::prelude::TestCaseError> {
        if let Ok(config) = text.parse::<ExperimentConfig>() {
            proptest::prop_assert!(config.validate().is_ok(), "{text:?}");
            let floats = [
                config.base_qps,
                config.peak_qps,
                config.slo_multiplier,
                config.realloc_period_secs,
                config.beta,
                config.telemetry_window_secs,
                config.telemetry_step_secs,
                config.telemetry_objective,
            ];
            proptest::prop_assert!(floats.iter().all(|v| v.is_finite()), "{text:?}");
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Any text either fails to parse or yields a configuration that
        /// validates with every number finite; parsing never panics.
        #[test]
        fn parse_then_validate_never_panics(
            pieces in proptest::collection::vec((0u8..4, 0u16..256, 0usize..64), 0..24),
        ) {
            let bytes: Vec<u8> = pieces.into_iter().flat_map(hostile_piece).collect();
            check_parsed(&String::from_utf8_lossy(&bytes))?;
        }

        /// Well-formed `key = value` lines with hostile values.
        #[test]
        fn hostile_values_are_rejected_or_valid(
            lines in proptest::collection::vec((0..KEYS.len(), 0..VALUES.len()), 1..4),
        ) {
            let text: String = lines
                .iter()
                .map(|&(k, v)| format!("{} = {}\n", KEYS[k], VALUES[v]))
                .collect();
            check_parsed(&text)?;
        }
    }

    #[test]
    fn error_display_includes_line() {
        let err = "\n\ntrace = lunar".parse::<ExperimentConfig>().unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }
}
