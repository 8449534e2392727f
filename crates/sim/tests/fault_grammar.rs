//! Never-panic properties of the `--faults` grammar: any input either
//! parses to a schedule that passes validation or is rejected with an
//! error.

use proptest::prelude::*;
use proteus_sim::FaultSchedule;

/// Fragments the grammar branches on, including numbers past the
/// simulated time range.
const TOKENS: &[&str] = &[
    "crash",
    "recover",
    "slow",
    "loadfail",
    "@",
    ":",
    "-",
    "x",
    ";",
    " ",
    "0",
    "1",
    "30",
    "2.5",
    "0.2",
    "1e300",
    "2e10",
    "1.8e10",
    "-1",
    "inf",
    "NaN",
    "4294967296",
    ".",
];

/// A random byte or a grammar fragment, half the time each.
fn hostile_piece() -> impl Strategy<Value = Vec<u8>> {
    (0u8..2, 0u16..256, 0..TOKENS.len()).prop_map(|(pick, any, token)| {
        if pick == 0 {
            vec![any.to_le_bytes()[0]]
        } else {
            TOKENS[token].as_bytes().to_vec()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_specs_never_panic(pieces in prop::collection::vec(hostile_piece(), 0..24)) {
        let text = String::from_utf8_lossy(&pieces.concat()).into_owned();
        if let Ok(schedule) = text.parse::<FaultSchedule>() {
            prop_assert!(schedule.validate().is_ok(), "{text:?}");
            for w in schedule.events.windows(2) {
                prop_assert!(w[0].at <= w[1].at, "{text:?}");
            }
        }
    }

    /// Well-formed clauses with arbitrary seconds, from tiny to far past
    /// the ~584-year range, parse or fail cleanly.
    #[test]
    fn any_fault_time_parses_or_fails_cleanly(
        mantissa in 0.0f64..10.0,
        exponent in 0i32..40,
        device in 0u32..8,
    ) {
        let secs = mantissa * 10f64.powi(exponent);
        for spec in [
            format!("crash@{secs}:{device}"),
            format!("recover@{secs}:{device}"),
            format!("slow@0-{secs}:{device}x2"),
        ] {
            match spec.parse::<FaultSchedule>() {
                Ok(schedule) => prop_assert!(
                    schedule.events.iter().all(|e| e.kind.device() == device),
                    "{spec}"
                ),
                // Only an empty straggler window or an unrepresentable
                // time is an error.
                Err(e) => prop_assert!(secs == 0.0 || secs > 1.8e10, "{spec}: {e}"),
            }
        }
    }
}
