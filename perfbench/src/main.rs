//! `perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Prints the host header, report lines, every metric as
//! `<name> <value> <unit>`, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and the metrics. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones.

use perfbench::{run, Options, Outcome, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <engine-large|wire-small|wire-mixed> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts, &Scale::full());
    for line in &out.lines {
        println!("{line}");
    }
    for (name, unit) in Outcome::declared(opts.trace) {
        println!(
            "{name} {} {unit}",
            out.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    println!("{}", out.result_json(opts.trace));
    ExitCode::SUCCESS
}
