//! Never-panic properties of the exposition validator (`promcheck`): any
//! input either validates or is rejected with at least one violation.

use proptest::prelude::*;
use proteus_telemetry::validate;

/// A small valid page: a counter, a summary with a quantile exemplar, and
/// its `_sum` / `_count` children.
const PAGE: &str = "# page 1\n\
# HELP proteus_queries_arrived_total Queries arrived.\n\
# TYPE proteus_queries_arrived_total counter\n\
proteus_queries_arrived_total{family=\"ResNet\"} 12\n\
# HELP proteus_latency_seconds End-to-end latency.\n\
# TYPE proteus_latency_seconds summary\n\
proteus_latency_seconds{quantile=\"0.99\"} 0.25 # {query=\"42\"} 0.251\n\
proteus_latency_seconds_sum 3.5\n\
proteus_latency_seconds_count 12\n";

/// Fragments the validator branches on: page markers, comment headers,
/// type names, label sets and escapes, special and out-of-range values,
/// exemplar suffixes.
const TOKENS: &[&str] = &[
    "# page 2\n",
    "# page",
    "# HELP ",
    "# TYPE ",
    "#",
    " # ",
    "proteus_queries_arrived_total",
    "proteus_latency_seconds",
    "_sum",
    "_count",
    "_bucket",
    ":",
    " counter",
    " gauge",
    " summary",
    " histogram",
    " untyped",
    " bogus",
    "{",
    "}",
    "=",
    ",",
    "\"",
    "\\",
    "\\\\",
    "\\\"",
    "\\n",
    "\\x",
    "\\\n",
    "\"\n",
    "{\n",
    "family=\"ResNet\"",
    "quantile=\"0.99\"",
    "quantile=\"1.5\"",
    "quantile=\"NaN\"",
    "le=\"+Inf\"",
    "{query=\"42\"}",
    " # {",
    " # {query=\"7\"} 0.3 12",
    " 1 2 3",
    " ",
    "\n",
    "\r\n",
    "\t",
    "0",
    "1",
    "-1",
    "0.5",
    "NaN",
    "+Inf",
    "-Inf",
    "Inf",
    "1e400",
    "-1e400",
    "1e-400",
    "9223372036854775808",
    "é",
];

/// A random byte or an exposition fragment, half the time each.
fn hostile_piece() -> impl Strategy<Value = Vec<u8>> {
    (0u8..2, 0u16..256, 0..TOKENS.len()).prop_map(|(pick, any, token)| {
        if pick == 0 {
            vec![any.to_le_bytes()[0]]
        } else {
            TOKENS[token].as_bytes().to_vec()
        }
    })
}

/// Validates `bytes` (decoded lossily) alone and after a valid page, so
/// the cross-page counter state is exercised too. Either call may reject
/// the input, but a rejection names at least one violation.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    for doc in [text.to_string(), format!("{PAGE}{text}")] {
        if let Err(violations) = validate(&doc) {
            prop_assert!(!violations.is_empty(), "{doc:?}");
        }
    }
    Ok(())
}

#[test]
fn the_seed_page_validates() {
    let stats = validate(PAGE).expect("valid page");
    assert_eq!((stats.pages, stats.samples, stats.exemplars), (1, 4, 1));
}

#[test]
fn every_fragment_at_every_position_never_panics() {
    for at in 0..PAGE.len() {
        for token in TOKENS {
            let mut page = PAGE.as_bytes().to_vec();
            page.splice(at..at, token.bytes());
            check(&page).unwrap();
            page.splice(at + token.len()..at + token.len() + 1, []);
            check(&page).unwrap();
        }
    }
}

#[test]
fn truncations_never_panic() {
    let twice = format!("{PAGE}{}", PAGE.replace("# page 1", "# page 2"));
    for cut in 0..=twice.len() {
        check(&twice.as_bytes()[..cut]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_pages_never_panic(pieces in prop::collection::vec(hostile_piece(), 0..48)) {
        check(&pieces.concat())?;
    }

    /// Up to eight bytes or fragments, each replacing up to two bytes of
    /// the valid page.
    #[test]
    fn edited_pages_never_panic(
        edits in prop::collection::vec((0usize..usize::MAX, 0usize..3, hostile_piece()), 1..9),
    ) {
        let mut page = PAGE.as_bytes().to_vec();
        for (at, width, piece) in edits {
            let at = at % (page.len() + 1);
            let end = (at + width).min(page.len());
            page.splice(at..end, piece);
        }
        check(&page)?;
    }
}
