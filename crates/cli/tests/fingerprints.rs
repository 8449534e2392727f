//! Pins the fig4 run fingerprints.
//!
//! `baselines/fig4_fingerprints.txt` holds the `--fingerprint` line of
//! `configs/fig4.conf` under three settings, one per line, in the order of
//! [`SETTINGS`]. Each line digests every replan record's simulated fields
//! plus the headline counters, so any behavioural drift in the serving
//! engine or the control plane changes it. Regenerate the file only after
//! an intentional behaviour change:
//!
//! ```sh
//! proteus configs/fig4.conf --solve-latency zero --fingerprint | tail -n 1
//! proteus configs/fig4.conf --solve-latency model --fingerprint | tail -n 1
//! proteus configs/fig4.conf --solve-latency model --fingerprint \
//!     --faults "crash@300:31; recover@600:31; slow@420-480:25x3.0; loadfail@0.1" | tail -n 1
//! ```

use proteus_cli::config::ExperimentConfig;
use proteus_cli::{fingerprint, run_experiment};

/// `(solve latency, fault script)` of each pinned line, in file order.
const SETTINGS: [(&str, &str); 3] = [
    ("zero", ""),
    ("model", ""),
    (
        "model",
        "crash@300:31; recover@600:31; slow@420-480:25x3.0; loadfail@0.1",
    ),
];

#[test]
fn fig4_fingerprints_match_the_pinned_baseline() {
    let base: ExperimentConfig = include_str!("../../../configs/fig4.conf")
        .parse()
        .expect("configs/fig4.conf parses");
    let pinned: Vec<&str> = include_str!("../../../baselines/fig4_fingerprints.txt")
        .lines()
        .collect();
    assert_eq!(pinned.len(), SETTINGS.len(), "one pinned line per setting");
    for ((latency, faults), want) in SETTINGS.iter().zip(pinned) {
        let mut config = base.clone();
        config.solve_latency = latency.parse().expect("solve latency parses");
        if !faults.is_empty() {
            config.faults = faults.parse().expect("fault script parses");
        }
        let got = fingerprint(&run_experiment(&config).outcome);
        assert_eq!(
            got, want,
            "fingerprint drifted for --solve-latency {latency} --faults {faults:?}"
        );
    }
}
