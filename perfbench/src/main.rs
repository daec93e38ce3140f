//! `vm-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --repro PATH [--root DIR]` runs one benchmark run and prints its
//! report, ending with one JSON result line. `vm-perfbench record
//! --root DIR` rewrites the recorded results fingerprints.
//!
//! Normally started by `run.py`, which builds this binary and `repro`
//! first.

use std::path::PathBuf;
use std::process::ExitCode;

use vm_perfbench::bench::{record, Args, Bench};

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repro = None;
    let mut root = PathBuf::from(".");
    let mut recording = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "record" {
            recording = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("bad {flag} `{value}`: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            "--repro" => repro = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let root = root.canonicalize().map_err(|e| format!("--root: {e}"))?;
    if recording {
        record(&root)?;
        return Ok(None);
    }
    let need = |what: &str| format!("missing {what}");
    Ok(Some(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        repro: repro.ok_or_else(|| need("--repro"))?,
        root,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = parse(&args).and_then(|parsed| match parsed {
        None => Ok(None),
        Some(args) => Bench::new(args)?.run().map(Some),
    });
    match run {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
