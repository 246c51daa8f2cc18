//! The DeepBAT benchmark: one harness, five workloads.
//!
//! ```text
//! dbat-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around the calls into each layer,
//! takes the layer probes, and prints the per-layer metrics. Every run
//! checks the program's outputs and exits non-zero if a check fails. The
//! last line of standard output is the result as one JSON object.

mod checks;
mod cpu;
mod gen;
mod metrics;
mod overhead;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use run::Ctx;

const USAGE: &str =
    "usage: dbat-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                let known = workloads::ALL.iter().find(|(name, _)| *name == value);
                workload = Some(*known.ok_or_else(|| {
                    let names = workloads::ALL.map(|(name, _)| name);
                    format!("unknown workload {value}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} | seed {} | {} s | {}",
        args.workload.0,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    let (name, run) = args.workload;
    let mut ctx = Ctx::new(name, args.seed, args.seconds, args.traced);
    run(&mut ctx);
    if args.traced {
        probes::run(&mut ctx);
    }
    std::process::exit(ctx.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line_in_any_order() {
        let a = parse(&args(
            "--seed 9 --trace 1 --workload sim_replay --seconds 2.5",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.0, a.seed, a.seconds, a.traced),
            ("sim_replay", 9, 2.5, true)
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_replay --seed x --seconds 1 --trace 0",
            "--workload sim_replay --seed 1 --seconds 0 --trace 0",
            "--workload sim_replay --seed 1 --seconds 1 --trace 2",
            "--workload sim_replay --seed 1 --seconds 1",
            "--workload sim_replay --seed 1 --seconds 1 --trace 0 --quick",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
