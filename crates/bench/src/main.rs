//! `proteus-bench <experiment>`: runs one entry of
//! [`proteus_bench::EXPERIMENTS`] and prints its tables to stdout. With no
//! argument or an unknown name it lists every registered name on stderr
//! and exits 2.

use proteus_bench::EXPERIMENTS;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let found = match args.as_slice() {
        [name] => EXPERIMENTS.iter().find(|e| e.name == name),
        _ => None,
    };
    let Some(experiment) = found else {
        eprintln!("usage: proteus-bench <experiment>\n\nexperiments:");
        for e in EXPERIMENTS {
            eprintln!("  {}", e.name);
        }
        return ExitCode::from(2);
    };
    (experiment.run)();
    ExitCode::SUCCESS
}
