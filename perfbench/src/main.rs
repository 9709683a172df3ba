//! Command line of the repository benchmark:
//!
//! ```text
//! repseq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then the result as one JSON object on the
//! last line. Exits with 1 when a run failed or mismatched its reference.

use std::process::ExitCode;

use repseq_perfbench::workload::{Scale, Workload};
use repseq_perfbench::{measure, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::BhRseN128,
        scale: Scale::Full,
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let out = measure(&opts);
    println!("workload = {}", opts.workload.name());
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("fail_share = {}", out.fail_share());
    println!("{}", out.to_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
