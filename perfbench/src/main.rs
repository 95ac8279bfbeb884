//! Command-line entry point: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints the figures by name, then one JSON
//! result line; exits 1 when a correctness gate fails and 2 on a usage or
//! set-up error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let result = match perfbench::bench(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload: {} (seed {})", args.workload.name(), args.seed);
    for m in &result.metrics {
        println!("{}: {} {}", m.name, m.value, m.unit);
    }
    for note in &result.notes {
        println!("{note}");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
