//! `netsample perf` — record, inspect, and diff performance reports.
//!
//! * `perf record` runs a fixed-seed synthetic workload (the paper's
//!   five sampling methods × {packet-size, interarrival} targets ×
//!   intervals {10, 50, 100}, over an SDSC-profile trace truncated to
//!   `--packets` packets), writes the instrumented run as the next
//!   `BENCH_<n>.json` in `--dir`, and diffs it against the newest prior
//!   report there. Each of the 30 cells is timed and gated separately
//!   (`cell/<family>/<target>/k<k>`), plus four end-to-end streaming
//!   cells (`stream/<target>/k50`) covering decode → window → sample →
//!   score through `streamkit`, plus six flow-inversion cells
//!   (`cell/flows/<estimator>/k<k>`) covering sample → aggregate →
//!   invert → score through the flow-statistics suite.
//! * `perf report` pretty-prints one report (a named file, or the
//!   newest in `--dir`).
//! * `perf diff` compares two report files.
//!
//! `record` and `diff` **gate**: any metric moving more than the
//! threshold (default 25%) in the bad direction makes the command exit
//! with code 1, unless `PERF_ALLOW_REGRESSION=1` is set — that
//! downgrades the gate to a report, for intentional trade-offs.

use crate::args::Args;
use crate::commands::CmdError;
use netsynth::TraceProfile;
use nettrace::Trace;
use sampling::experiment::{Experiment, MethodFamily};
use sampling::{FlowEstimator, FlowExperiment, MethodSpec, Target};
use std::path::{Path, PathBuf};
use std::time::Instant;
use streamkit::{run_stream, StreamConfig, StreamMethod, WindowSpec};

const PERF_USAGE: &str = "usage:
  netsample perf record [--dir D] [--packets N] [--seed S] [--replications R]
                        [--threshold PCT] [--jobs N]
  netsample perf report [BENCH_n.json] [--dir D]
  netsample perf diff <old.json> <new.json> [--threshold PCT]

record/diff exit 1 when a metric regresses past the threshold
(default 25%); PERF_ALLOW_REGRESSION=1 reports instead of failing.
record defaults to --jobs 1 so new reports stay comparable with the
serial baselines already on disk.
";

/// Dispatch `netsample perf <sub> ...`.
pub fn perf(rest: &[String]) -> Result<String, CmdError> {
    match rest.split_first() {
        None => Err(CmdError::usage(format!(
            "missing perf subcommand\n\n{PERF_USAGE}"
        ))),
        Some((sub, rest)) => match sub.as_str() {
            "record" => record(&Args::parse(
                rest.to_vec(),
                &[
                    "dir",
                    "packets",
                    "seed",
                    "replications",
                    "threshold",
                    "jobs",
                ],
            )?),
            "report" => report(&Args::parse(rest.to_vec(), &["dir"])?),
            "diff" => diff_cmd(&Args::parse(rest.to_vec(), &["threshold"])?),
            other => Err(CmdError::usage(format!(
                "unknown perf subcommand '{other}'\n\n{PERF_USAGE}"
            ))),
        },
    }
}

fn threshold_of(args: &Args) -> Result<f64, CmdError> {
    let pct: f64 = args.opt_num("threshold", perfkit::DEFAULT_THRESHOLD * 100.0)?;
    if !pct.is_finite() || pct <= 0.0 {
        return Err(CmdError::usage("--threshold must be a positive percent"));
    }
    Ok(pct / 100.0)
}

fn regression_allowed() -> bool {
    std::env::var("PERF_ALLOW_REGRESSION").is_ok_and(|v| v == "1")
}

/// Diff `new` against the newest report older than it in `dir`,
/// appending the table to `out`. Returns the gate verdict.
fn diff_against_baseline(
    dir: &Path,
    new: &perfkit::BenchReport,
    threshold: f64,
    out: &mut String,
) -> Result<bool, CmdError> {
    let Some((base_path, _)) = perfkit::baseline_before(dir, new.bench_version) else {
        out.push_str("no prior BENCH_*.json baseline; nothing to diff against\n");
        return Ok(false);
    };
    let old = perfkit::BenchReport::load(&base_path).map_err(CmdError::data)?;
    let d = perfkit::diff(&old, new, threshold);
    out.push('\n');
    out.push_str(&d.render());
    Ok(d.has_regressions())
}

fn gate(regressed: bool, out: String) -> Result<String, CmdError> {
    if regressed && !regression_allowed() {
        Err(CmdError::regression(format!(
            "{out}\nperformance regression gate failed (set PERF_ALLOW_REGRESSION=1 to allow)"
        )))
    } else {
        Ok(out)
    }
}

/// How many times `record` repeats the whole method sweep. The
/// reported wall time per cell is the **minimum** across passes — the
/// lower envelope is the standard noise-robust estimator for CPU-bound
/// work (preemption only ever adds time), which is what lets the diff
/// gate at 25% without flapping on a shared machine.
const RECORD_PASSES: usize = 3;

/// Distribution targets the recorded workload scores: packet size and
/// interarrival time, the two the paper leans on hardest (Figures 5–9).
const RECORD_TARGETS: [Target; 2] = [Target::PacketSize, Target::Interarrival];

/// Sampling granularities per cell, bracketing the paper's T3 operating
/// point of 1-in-50.
const RECORD_INTERVALS: [usize; 3] = [10, 50, 100];

/// `netsample perf record [--dir D] [--packets N] [--seed S]`
fn record(args: &Args) -> Result<String, CmdError> {
    let dir = PathBuf::from(args.opt_or("dir", "."));
    let packets: usize = args.opt_num("packets", 100_000)?;
    let seed: u64 = args.opt_num("seed", 1993)?;
    let replications: u32 = args.opt_num("replications", 20)?;
    // Default 1, NOT the session pool width: the gate diffs against the
    // newest prior report, and the baselines on disk are serial. A
    // wider pool is an explicit, recorded choice (`run.jobs` lands in
    // the report so like is still diffed with like).
    let jobs: usize = args.opt_num("jobs", 1)?;
    let threshold = threshold_of(args)?;
    if packets == 0 {
        return Err(CmdError::usage("--packets must be positive"));
    }
    if replications == 0 {
        return Err(CmdError::usage("--replications must be positive"));
    }
    if jobs == 0 {
        return Err(CmdError::usage("--jobs must be positive"));
    }
    std::fs::create_dir_all(&dir)
        .map_err(|e| CmdError::io(format!("cannot create {}: {e}", dir.display())))?;

    // A deterministic workload: SDSC-profile synthetic trace truncated
    // to the requested packet count, scored with the paper's five
    // methods. Everything below runs under one root span so the report
    // carries a meaningful tree.
    let profile = TraceProfile::sdsc_1993();
    let secs = (packets as f64 / profile.mean_pps * 1.1).ceil() as u32 + 5;
    let (trace, experiments) = {
        let _root = obskit::span("perf_record");
        let trace = {
            let _s = obskit::span("perf_synth");
            let full = netsynth::generate(
                &TraceProfile {
                    duration_secs: secs,
                    ..profile
                },
                seed,
            );
            let keep = packets.min(full.len());
            Trace::new(full.packets()[..keep].to_vec())
                .map_err(|e| CmdError::data(format!("synthetic trace: {e}")))?
        };
        let mean_pps = trace.stats().mean_pps();
        let pool = parkit::Pool::new(jobs);
        let families = MethodFamily::paper_five();
        // The workload covers both distribution targets the paper
        // scores most heavily and three granularities spanning the T3
        // operating point (k = 50) — size and interarrival histograms
        // stress different parts of the pipeline, and cost scales with
        // 1/k, so a regression in any of them is visible on its own row.
        let cells: Vec<(MethodFamily, Target, usize)> = families
            .iter()
            .flat_map(|&family| {
                RECORD_TARGETS.iter().flat_map(move |&target| {
                    RECORD_INTERVALS.iter().map(move |&k| (family, target, k))
                })
            })
            .collect();
        let exp_size = Experiment::new(trace.packets(), RECORD_TARGETS[0]);
        let exp_ia = Experiment::new(trace.packets(), RECORD_TARGETS[1]);
        let mut best_us = vec![u64::MAX; cells.len()];
        for _pass in 0..RECORD_PASSES {
            for (i, &(family, target, k)) in cells.iter().enumerate() {
                let exp = if target == RECORD_TARGETS[0] {
                    &exp_size
                } else {
                    &exp_ia
                };
                let spec = family.at_granularity(k, mean_pps);
                let started = Instant::now();
                let _result = exp.run_with(&pool, spec, replications, seed);
                best_us[i] = best_us[i].min(started.elapsed().as_micros() as u64);
            }
        }
        let mut experiments: Vec<perfkit::ExperimentTime> = cells
            .iter()
            .zip(best_us)
            .map(|(&(family, target, k), wall_us)| perfkit::ExperimentTime {
                name: format!("cell/{}/{target}/k{k}", family.name()),
                wall_us,
            })
            .collect();

        // The streaming path, end to end: decode the pcap bytes, window,
        // sample, score — one cell per characterization target at the
        // paper's k = 50 operating point, 10k-packet tumbling windows.
        // A regression in chunked ingestion, the windower, or the staged
        // pipeline shows up here even when the batch cells are clean.
        let capture = {
            let _s = obskit::span("perf_stream_encode");
            let mut buf = Vec::new();
            nettrace::pcap::write_pcap(&mut buf, &trace)
                .map_err(|e| CmdError::data(format!("encoding workload capture: {e}")))?;
            buf
        };
        let stream_targets = [
            Target::PacketSize,
            Target::Interarrival,
            Target::Protocol,
            Target::Port,
        ];
        let mut stream_best = vec![u64::MAX; stream_targets.len()];
        for _pass in 0..RECORD_PASSES {
            for (i, &target) in stream_targets.iter().enumerate() {
                let mut cfg = StreamConfig::new(
                    StreamMethod::Spec(MethodSpec::Systematic { interval: 50 }),
                    target,
                    WindowSpec::Count(10_000),
                );
                cfg.seed = seed;
                let started = Instant::now();
                let _summary = run_stream(capture.as_slice(), &cfg)
                    .map_err(|e| CmdError::data(format!("stream workload: {e}")))?;
                stream_best[i] = stream_best[i].min(started.elapsed().as_micros() as u64);
            }
        }
        experiments.extend(
            stream_targets
                .iter()
                .zip(stream_best)
                .map(|(&target, wall_us)| perfkit::ExperimentTime {
                    name: format!("stream/{target}/k50"),
                    wall_us,
                }),
        );

        // The flow-inversion path: sample a flow-structured pack,
        // aggregate the sample back into flows, invert the parent size
        // distribution, score with φ — one gated cell per estimator at
        // a dense (k = 10) and a sparse (k = 100) operating point. EM
        // dominates this family's cost; the naive/tail cells isolate
        // the shared sample-aggregate-score substrate.
        let flow_pack = {
            let _s = obskit::span("perf_flow_pack");
            netsynth::generate_flow_pack(
                &netsynth::FlowPackConfig {
                    flows: (packets / 50).clamp(100, 2_000) as u32,
                    duration_secs: 30,
                    ..netsynth::FlowPackConfig::default()
                },
                seed,
            )
        };
        let flow_exp = FlowExperiment::new(flow_pack.packets());
        let flow_cells: Vec<(FlowEstimator, u64)> = FlowEstimator::all()
            .iter()
            .flat_map(|&est| [10u64, 100].into_iter().map(move |k| (est, k)))
            .collect();
        let mut flow_best = vec![u64::MAX; flow_cells.len()];
        for _pass in 0..RECORD_PASSES {
            for (i, &(est, k)) in flow_cells.iter().enumerate() {
                let started = Instant::now();
                let _result = flow_exp.run_with(&pool, est, k, replications);
                flow_best[i] = flow_best[i].min(started.elapsed().as_micros() as u64);
            }
        }
        experiments.extend(
            flow_cells
                .iter()
                .zip(flow_best)
                .map(|(&(est, k), wall_us)| perfkit::ExperimentTime {
                    name: format!("cell/flows/{}/k{k}", est.name()),
                    wall_us,
                }),
        );
        (trace, experiments)
    };

    let ts_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut bench = perfkit::BenchReport::collect(
        perfkit::RunMeta {
            ts_us,
            source: "perf-record".to_string(),
            seed,
            packets: trace.len() as u64,
            jobs: jobs as u64,
        },
        experiments,
    );
    let path = bench.write_next(&dir).map_err(CmdError::io)?;

    let mut out = format!("wrote {}\n\n{}", path.display(), bench.render_summary());
    let regressed = diff_against_baseline(&dir, &bench, threshold, &mut out)?;
    gate(regressed, out)
}

/// `netsample perf report [file] [--dir D]`
fn report(args: &Args) -> Result<String, CmdError> {
    let path = match args.opt("dir") {
        Some(dir) if args.positional_count() > 0 => {
            return Err(CmdError::usage(format!(
                "give either a file or --dir {dir}, not both"
            )))
        }
        Some(dir) => {
            let dir = Path::new(dir);
            perfkit::latest_in(dir)
                .map(|(p, _)| p)
                .ok_or_else(|| CmdError::data(format!("no BENCH_*.json in {}", dir.display())))?
        }
        None => match args.positional_count() {
            0 => perfkit::latest_in(Path::new("."))
                .map(|(p, _)| p)
                .ok_or_else(|| CmdError::data("no BENCH_*.json in the current directory"))?,
            _ => PathBuf::from(args.positional(0, "bench.json")?),
        },
    };
    let bench = perfkit::BenchReport::load(&path).map_err(CmdError::data)?;
    Ok(format!("{}\n{}", path.display(), bench.render_summary()))
}

/// `netsample perf diff <old.json> <new.json> [--threshold PCT]`
fn diff_cmd(args: &Args) -> Result<String, CmdError> {
    let old_path = args.positional(0, "old.json")?;
    let new_path = args.positional(1, "new.json")?;
    let threshold = threshold_of(args)?;
    let old = perfkit::BenchReport::load(Path::new(old_path)).map_err(CmdError::data)?;
    let new = perfkit::BenchReport::load(Path::new(new_path)).map_err(CmdError::data)?;
    let d = perfkit::diff(&old, &new, threshold);
    gate(d.has_regressions(), d.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("netsample_perf_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run(rest: &[&str]) -> Result<String, CmdError> {
        perf(&rest.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn missing_subcommand_is_usage_error() {
        let e = run(&[]).unwrap_err();
        assert_eq!(e.exit_code(), 64);
        assert!(e.to_string().contains("perf record"));
    }

    #[test]
    fn record_then_report_round_trips() {
        let dir = tmpdir("roundtrip");
        let dir_s = dir.to_str().unwrap();
        // Tiny workload: the unit test only checks plumbing.
        let out = run(&[
            "record",
            "--dir",
            dir_s,
            "--packets",
            "2000",
            "--seed",
            "7",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert!(out.contains("BENCH_1.json"), "{out}");
        assert!(out.contains("2 jobs"), "{out}");
        assert!(out.contains("cell/systematic/packet-size/k50"), "{out}");
        assert!(out.contains("cell/strat-timer/interarrival/k100"), "{out}");
        assert!(out.contains("stream/packet-size/k50"), "{out}");
        assert!(out.contains("stream/port/k50"), "{out}");
        assert!(out.contains("cell/flows/naive/k10"), "{out}");
        assert!(out.contains("cell/flows/em/k100"), "{out}");
        assert!(out.contains("no prior BENCH_*.json baseline"), "{out}");
        let report = run(&["report", "--dir", dir_s]).unwrap();
        assert!(report.contains("BENCH_1"), "{report}");
        assert!(report.contains("experiments"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_gates_on_injected_regression() {
        let dir = tmpdir("gate");
        // A fabricated baseline that is much faster than any real run —
        // diffing real vs. fake must trip the gate.
        let fast = r#"{
  "schema_version": 1, "bench_version": 1,
  "run": {"ts_us": 1, "source": "test", "seed": 7, "packets": 2000},
  "experiments": [{"name": "cell/systematic", "wall_us": 200000}],
  "samplers": [], "timings": [], "benches": [], "spans": []
}"#;
        let slow = fast
            .replace("200000", "900000")
            .replace("\"bench_version\": 1", "\"bench_version\": 2");
        let old = dir.join("BENCH_1.json");
        let new = dir.join("BENCH_2.json");
        std::fs::write(&old, fast).unwrap();
        std::fs::write(&new, slow).unwrap();
        let e = run(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e}");
        assert!(e.to_string().contains("REGRESSED"), "{e}");
        assert!(e.to_string().contains("PERF_ALLOW_REGRESSION"), "{e}");
        // Reverse direction is an improvement, not a regression.
        let ok = run(&["diff", new.to_str().unwrap(), old.to_str().unwrap()]).unwrap();
        assert!(ok.contains("no regressions"), "{ok}");
        // A custom threshold far above the injected 350% slowdown passes.
        let ok = run(&[
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold",
            "1000",
        ])
        .unwrap();
        assert!(ok.contains("no regressions"), "{ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_threshold_is_usage_error() {
        let e = run(&["diff", "a", "b", "--threshold", "-5"]).unwrap_err();
        assert_eq!(e.exit_code(), 64);
        let e = run(&["record", "--packets", "0"]).unwrap_err();
        assert_eq!(e.exit_code(), 64);
    }
}
