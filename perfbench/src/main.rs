//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, on standard output, a provenance line, a
//! detail line with the workload's own metrics, and as the last line the
//! result object (`correct`, `attempted`, `failed`, `metrics`).  Exits with
//! 1 when a correctness check fails and with 2 when the run cannot be made
//! at all.  Run it from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload query --seed 1 --seconds 10 --trace 0`.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::provenance::provenance;
use perfbench::stats::{cpu_ticks, steal_share};
use perfbench::{run, RunConfig, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig {
        workload: &args.workload,
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        trace: args.trace,
        scale: Scale::full(),
    };
    let ticks = cpu_ticks();
    let outcome = run(&config);
    let steal = steal_share(ticks, cpu_ticks());
    match outcome {
        Ok(report) => {
            println!(
                "{}",
                provenance(&args.workload, args.seed, &config.scale, steal).render()
            );
            println!("{}", report.detail_line(&args.workload));
            for why in &report.mismatches {
                eprintln!("perfbench: correctness check failed: {why}");
            }
            println!("{}", report.result_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(2)
        }
    }
}
