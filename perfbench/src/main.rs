//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--workdir <dir>]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A readable summary goes to standard error.

use perfbench::runner::{self, COLLECTD_FLOW_STATE_MODEL_BYTES};
use perfbench::workload::{Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut workdir = PathBuf::from(".bench_work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = Workload::ALL.map(Workload::name).join(", ");
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload '{name}' ({known})"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--workdir" => workdir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        workdir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let out = match runner::run(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.trace,
        &args.workdir,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "{} seed={} trace={} correct={} attempted={} failed={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        out.correct,
        out.verdict.attempted,
        out.verdict.failed
    );
    for m in &out.metrics {
        eprintln!("  {:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Some(heap) = out.get("nettrace.flowtable.heap_bytes_per_flow") {
        eprintln!(
            "  flow state: measured {heap:.1} B/flow vs collectd model {COLLECTD_FLOW_STATE_MODEL_BYTES} B/flow (model error {:+.1}%)",
            (COLLECTD_FLOW_STATE_MODEL_BYTES / heap - 1.0) * 100.0
        );
    }
    for note in &out.notes {
        eprintln!("  {note}");
    }
    println!(
        "digest {} seed={} {:016x}",
        args.workload.name(),
        args.seed,
        out.digest
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.verdict.attempted,
        out.verdict.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
