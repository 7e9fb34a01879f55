//! Command-line entry of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|out-of-core> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the root of the repository. Scratch files go under
//! `.bench_tmp/` and are removed when the run ends; a traced run writes its
//! spans under `.bench_trace/`. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use vita_perfbench::{report, run, Options, Scale, Workload};

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)).and_then(|opts| run(&opts)) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            for failure in &outcome.failures {
                eprintln!("failed op: {failure}");
            }
            println!(
                "{}",
                report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vita-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        scale: Scale::for_seconds(seconds.ok_or("--seconds is required")?),
        trace,
        scratch: PathBuf::from(".bench_tmp"),
        trace_dir: Some(PathBuf::from(".bench_trace")),
        wrong_oracle: false,
    })
}
