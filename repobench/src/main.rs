//! Command line: `repobench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a stamp line (host, kernel plans), a line of
//! sample counts, then the result line. Exits 2 on bad arguments and 1
//! when a workload cannot run.

use std::process::ExitCode;

use repobench::stats::{END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repobench: {e}");
            eprintln!(
                "usage: repobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                repobench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        repobench::host::stamp(&args.workload, args.seed, args.seconds, args.trace)
    );
    let outcome = match repobench::run(&args.workload, args.seed, args.seconds as f64, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    println!("{{\"samples\": {{{}}}}}", samples.join(", "));
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.result_line(specs));
    ExitCode::SUCCESS
}
