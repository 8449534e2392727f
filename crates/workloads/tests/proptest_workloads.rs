//! Property-based tests of the workload generators and trace I/O.

use proptest::prelude::*;
use proteus_profiler::ModelFamily;
use proteus_workloads::dist::Zipf;
use proteus_workloads::io::{arrivals_from_csv, arrivals_to_csv, RecordedTrace};
use proteus_workloads::{
    ArrivalKind, ArrivalProcess, DemandTrace, DiurnalTrace, FlatTrace, TraceBuilder,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zipf masses sum to one and decrease with rank for any size/exponent.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..40, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let total: f64 = (1..=n).map(|r| z.mass(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for r in 1..n {
            prop_assert!(z.mass(r) >= z.mass(r + 1) - 1e-12);
        }
    }

    /// Arrival processes hit their configured rate within sampling noise,
    /// for every inter-arrival law.
    #[test]
    fn arrival_rates_converge(rate in 20.0f64..400.0, seed in 0u64..50) {
        for kind in [
            ArrivalKind::Uniform,
            ArrivalKind::Poisson,
            ArrivalKind::Gamma { shape: 0.5 },
        ] {
            let n = ArrivalProcess::new(kind, rate, seed)
                .take_for_secs(30.0)
                .len() as f64;
            let observed = n / 30.0;
            prop_assert!(
                (observed - rate).abs() < 6.0 * (rate / 30.0).sqrt().max(1.0),
                "{kind:?}: observed {observed} vs {rate}"
            );
        }
    }

    /// Trace-builder output is time-sorted, within the trace horizon, and
    /// totals the integrated demand within Poisson noise.
    #[test]
    fn builder_output_is_well_formed(qps in 10.0f64..400.0, secs in 3u32..30, seed in 0u64..20) {
        let trace = FlatTrace { qps, secs };
        let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(seed)
            .build(&trace);
        for w in arrivals.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        let horizon = proteus_sim::SimTime::from_secs(secs as u64);
        prop_assert!(arrivals.iter().all(|a| a.at < horizon));
        let expect = qps * secs as f64;
        prop_assert!(
            (arrivals.len() as f64 - expect).abs() < 6.0 * expect.sqrt().max(1.0),
            "{} vs {expect}", arrivals.len()
        );
        prop_assert!(arrivals.iter().all(|a| a.cost == 1.0));
    }

    /// Arrival CSV round-trips exactly for any generated stream, including
    /// variable input costs.
    #[test]
    fn arrival_csv_round_trips(seed in 0u64..30, shape in 0.5f64..4.0) {
        let arrivals = TraceBuilder::new(vec![ModelFamily::Bert, ModelFamily::ResNet])
            .seed(seed)
            .variable_input_sizes(shape)
            .build(&FlatTrace { qps: 120.0, secs: 4 });
        let parsed = arrivals_from_csv(&arrivals_to_csv(&arrivals)).unwrap();
        prop_assert_eq!(parsed.len(), arrivals.len());
        for (a, b) in parsed.iter().zip(&arrivals) {
            prop_assert_eq!(a.at, b.at);
            prop_assert_eq!(a.family, b.family);
            prop_assert!((a.cost - b.cost).abs() < 1e-6);
        }
    }

    /// Recorded traces capture any diurnal curve exactly (up to CSV
    /// rounding) and speed-up preserves total volume.
    #[test]
    fn recorded_traces_capture_and_compress(
        secs in 20u32..120,
        base in 10.0f64..200.0,
        amp in 0.0f64..800.0,
        factor in 1u32..6,
    ) {
        let trace = DiurnalTrace::paper_like(secs, base, base + amp, 3);
        let recorded = RecordedTrace::capture(&trace);
        prop_assert_eq!(recorded.duration_secs(), secs);
        let round = RecordedTrace::from_csv(&recorded.to_csv()).unwrap();
        for s in 0..secs {
            prop_assert!((round.qps_at(s) - trace.qps_at(s)).abs() < 1e-4);
        }
        let fast = recorded.sped_up(factor);
        let total_before: f64 = (0..secs).map(|s| recorded.qps_at(s)).sum();
        let total_after: f64 = (0..fast.duration_secs()).map(|s| fast.qps_at(s)).sum();
        prop_assert!((total_before - total_after).abs() < 1e-6);
        prop_assert_eq!(fast.duration_secs(), secs.div_ceil(factor));
    }
}

/// Fragments the two CSV readers branch on, including times past the
/// simulated range and second indices past `u32`.
const CSV_TOKENS: &[&str] = &[
    "time_secs,family",
    "second,qps",
    ",",
    "\n",
    "\r\n",
    " ",
    "BERT",
    "ResNet",
    "0",
    "1",
    "1.5",
    "-1",
    "2e10",
    "1e300",
    "inf",
    "NaN",
    "4294967296",
    "18446744073709551616",
];

/// A random byte or a CSV fragment, half the time each.
fn hostile_piece() -> impl Strategy<Value = Vec<u8>> {
    (0u8..2, 0u16..256, 0..CSV_TOKENS.len()).prop_map(|(pick, any, token)| {
        if pick == 0 {
            vec![any.to_le_bytes()[0]]
        } else {
            CSV_TOKENS[token].as_bytes().to_vec()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Both readers reject hostile input with an error, never a panic,
    /// and what they accept is well formed.
    #[test]
    fn csv_readers_never_panic(pieces in prop::collection::vec(hostile_piece(), 0..32)) {
        let text = String::from_utf8_lossy(&pieces.concat()).into_owned();
        if let Ok(arrivals) = arrivals_from_csv(&text) {
            for w in arrivals.windows(2) {
                prop_assert!(w[0].at <= w[1].at, "{text:?}");
            }
            prop_assert!(arrivals.iter().all(|a| a.cost.is_finite() && a.cost > 0.0));
        }
        if let Ok(recorded) = RecordedTrace::from_csv(&text) {
            for s in 0..recorded.duration_secs() {
                let q = recorded.qps_at(s);
                prop_assert!(q.is_finite() && q >= 0.0, "{text:?}");
            }
        }
    }

    /// A well-formed arrival line parses exactly when its time is
    /// representable.
    #[test]
    fn any_arrival_time_parses_or_fails_cleanly(mantissa in 0.0f64..10.0, exponent in 0i32..40) {
        let secs = mantissa * 10f64.powi(exponent);
        match arrivals_from_csv(&format!("{secs},BERT\n")) {
            Ok(arrivals) => prop_assert!(arrivals.len() == 1 && secs <= 1.9e10, "{secs}"),
            Err(e) => prop_assert!(secs > 1.8e10, "{secs}: {e}"),
        }
    }
}
