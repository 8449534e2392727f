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
//!
//! `baselines/fig4_kernel_counters.txt` pins the run's deterministic work
//! counters for the same three runs, one line per setting in the same
//! order:
//!
//! - the DES kernel's: events delivered, the event-queue high-water mark
//!   and the count of events delivered out of time order (always 0);
//! - the batch-buffer pool's: buffers reused and freshly allocated;
//! - the MILP solver's, summed over every replan: branch-and-bound nodes,
//!   simplex iterations, warm-started and cold node solves. The solver has
//!   no wall-clock termination, so these are exact; its wall time is not
//!   pinned.
//!
//! The fingerprint leaves these out, so without this pin an event-queue
//! rework could change how many events a run takes, how deep the queue
//! gets, or pop out of order in a release build, and a solver or pooling
//! change could do more work for the same plans, unnoticed. Regenerate it
//! only after an intentional change to how the engine schedules events,
//! pools buffers or searches for plans, by pasting the `left` value each
//! failing assertion prints.

use proteus_cli::config::ExperimentConfig;
use proteus_cli::{fingerprint, run_experiment};
use proteus_core::system::RunOutcome;

/// `(solve latency, fault script)` of each pinned line, in file order.
const SETTINGS: [(&str, &str); 3] = [
    ("zero", ""),
    ("model", ""),
    (
        "model",
        "crash@300:31; recover@600:31; slow@420-480:25x3.0; loadfail@0.1",
    ),
];

/// The kernel-counter line pinned for one run.
fn kernel_counters(outcome: &RunOutcome) -> String {
    let hot = &outcome.hot_stats;
    let solver = &outcome.solver_stats;
    format!(
        "kernel: events_delivered={} peak_event_queue={} time_regressions={} \
         batch_buffers_reused={} batch_buffers_allocated={} \
         solver: nodes={} simplex_iterations={} warm_starts={} cold_solves={}",
        hot.events_delivered,
        hot.peak_event_queue,
        hot.time_regressions,
        hot.batch_buffers_reused,
        hot.batch_buffers_allocated,
        solver.nodes,
        solver.simplex_iterations,
        solver.warm_starts,
        solver.cold_solves
    )
}

#[test]
fn fig4_fingerprints_match_the_pinned_baseline() {
    let base: ExperimentConfig = include_str!("../../../configs/fig4.conf")
        .parse()
        .expect("configs/fig4.conf parses");
    let pinned: Vec<&str> = include_str!("../../../baselines/fig4_fingerprints.txt")
        .lines()
        .collect();
    let counters: Vec<&str> = include_str!("../../../baselines/fig4_kernel_counters.txt")
        .lines()
        .collect();
    assert_eq!(pinned.len(), SETTINGS.len(), "one pinned line per setting");
    assert_eq!(
        counters.len(),
        SETTINGS.len(),
        "one counter line per setting"
    );
    for (((latency, faults), want), want_counters) in SETTINGS.iter().zip(pinned).zip(counters) {
        let mut config = base.clone();
        config.solve_latency = latency.parse().expect("solve latency parses");
        if !faults.is_empty() {
            config.faults = faults.parse().expect("fault script parses");
        }
        let outcome = run_experiment(&config).outcome;
        assert_eq!(
            fingerprint(&outcome),
            want,
            "fingerprint drifted for --solve-latency {latency} --faults {faults:?}"
        );
        assert_eq!(
            kernel_counters(&outcome),
            want_counters,
            "kernel counters drifted for --solve-latency {latency} --faults {faults:?}"
        );
    }
}
