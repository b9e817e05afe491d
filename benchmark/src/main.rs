//! `ule-benchmark`: the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ule-benchmark run [--workload NAME]... [--seed S] [--seconds T] [--repeats R]
//!                   [--trace 0|1] [--smoke] [--sets K] [--out DIR]
//! ```
//!
//! `run` is the parent: it launches one fresh child process per run
//! (`--child`, internal) and reports medians. With a single `--workload`
//! the last line of stdout is the result object the driver reads.

use std::process::ExitCode;
use ule_benchmark::parent::{self, Options, Passes};
use ule_benchmark::{child, workloads};

const USAGE: &str = "usage: ule-benchmark run [--workload NAME]... [--seed S] [--seconds T] \
[--repeats R] [--trace 0|1] [--smoke] [--sets K] [--out DIR]";

/// Where traces and results go unless `--out` says otherwise: `out/` in
/// the package this binary was built from.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .0
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: `{raw}` is not a valid value"))
    }
}

fn parse_child(mut args: Args) -> Result<child::ChildArgs, String> {
    let mut parsed = child::ChildArgs {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        div: 1,
        traced: false,
        run_id: 0,
        out_dir: DEFAULT_OUT.into(),
    };
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = args.value(&flag)?,
            "--seed" => parsed.seed = args.value(&flag)?,
            "--div" => parsed.div = args.value::<usize>(&flag)?.max(1),
            "--run-id" => parsed.run_id = args.value(&flag)?,
            "--out" => parsed.out_dir = args.value(&flag)?,
            "--traced" => parsed.traced = true,
            other => return Err(format!("--child: unknown option `{other}`")),
        }
    }
    Ok(parsed)
}

fn parse_run(mut args: Args) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: workloads::DEFAULT_SEED,
        repeats: None,
        seconds: 15.0,
        passes: Passes::Both,
        smoke: false,
        sets: 1,
        out_dir: DEFAULT_OUT.into(),
    };
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = args.value(&flag)?;
                opts.workloads.push(
                    workloads::by_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => opts.seed = args.value(&flag)?,
            "--seconds" => opts.seconds = args.value(&flag)?,
            "--repeats" => opts.repeats = Some(args.value::<usize>(&flag)?.max(1)),
            "--trace" => {
                opts.passes = match args.value::<u8>(&flag)? {
                    0 => Passes::Timed,
                    1 => Passes::Traced,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--sets" => opts.sets = args.value::<usize>(&flag)?.max(1),
            "--out" => opts.out_dir = args.value(&flag)?,
            other => return Err(format!("run: unknown option `{other}`\n{USAGE}")),
        }
    }
    if opts.seed >= 1 << 53 {
        return Err("--seed must be below 2^53 (campaign specs carry it as a JSON number)".into());
    }
    if opts.workloads.is_empty() {
        opts.workloads = workloads::all();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    let outcome = match args.0.next().as_deref() {
        Some("--child") => parse_child(args)
            .and_then(|a| child::main(&a))
            .map(|()| true),
        Some("run") => parse_run(args).map(|opts| parent::run(&opts)),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ule-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
