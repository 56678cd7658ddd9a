//! The repo's benchmark: four interaction workloads over the LoD app in
//! its shipping configuration, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one process
//! benchmark [--seed n] [--seconds s] [--smoke] [--repeat k]            every workload, each in its own process
//! ```

mod check;
mod drive;
mod mutate;
mod probes;
mod report;
mod runs;
mod stats;
mod trace;
mod walk;
mod workload;
mod world;

use std::process::ExitCode;
use workload::Workload;

/// Seconds one run measures unless told otherwise (`run_seconds` of
/// BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 15.0;
/// The same for `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

/// Parsed command line.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
}

const USAGE: &str = "usage: benchmark [--workload zoom_cold|pan_warm|mutate_mix|shard_cold] \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat K]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) if args.trace => runs::traced(w, &args),
        Some(w) => runs::untraced(w, &args),
        None => runs::every_workload(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload shard_cold --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ShardCold));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse("--smoke --repeat 3").unwrap();
        assert!(a.workload.is_none() && a.smoke && !a.trace);
        assert_eq!((a.seed, a.seconds, a.repeat), (42, SMOKE_SECONDS, 3));
        assert_eq!(parse("").unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace yes").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
