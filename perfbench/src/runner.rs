//! One benchmark run: the untraced loop behind the end-to-end metrics
//! and the traced loop behind the per-layer ones.

use crate::alloc;
use crate::check::{self, check_serve, check_stream, digest, median, Verdict};
use crate::serve;
use crate::stream::{self, Capture};
use crate::trace::Tracer;
use crate::workload::{serve_config, stream_shape, Size, Workload, SERVE_JOBS};
use std::path::Path;
use std::time::{Duration, Instant};

/// collectd's modelled resident bytes per live flow, the figure behind
/// the `collectd_shard_rss_kb` gauge.
pub const COLLECTD_FLOW_STATE_MODEL_BYTES: f64 = 96.0;

/// Timed iterations every run makes at least, whatever its duration.
const MIN_TIMED: usize = 3;

/// One metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed and every digest of the run agreed.
    pub correct: bool,
    /// Expected reports and failed ones, over every entry-point run.
    pub verdict: Verdict,
    /// The metrics, in a fixed order.
    pub metrics: Vec<Metric>,
    /// Digest of the report JSONL (the same for every run of a seed).
    pub digest: u64,
    /// Free-form notes for the human-readable summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The value of a metric, if the run reported it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run `workload` for about `seconds`, traced or not, keeping any
/// capture file under `workdir`.
///
/// # Errors
/// I/O, decode or collector errors, rendered.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
    workdir: &Path,
) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    match (workload, traced) {
        (Workload::StreamCapture, _) => {
            std::fs::create_dir_all(workdir)
                .map_err(|e| format!("cannot create {}: {e}", workdir.display()))?;
            let path = workdir.join(format!("stream-capture-{seed}-{}.pcap", std::process::id()));
            let shape = stream_shape(size, seed);
            let result = stream::write_capture(&shape, &path).and_then(|cap| {
                if traced {
                    traced_stream(size, seed, &cap, budget)
                } else {
                    untraced_stream(size, seed, &cap, budget)
                }
            });
            let _ = std::fs::remove_file(&path);
            result
        }
        (_, false) => untraced_serve(workload, size, seed, budget),
        (_, true) => traced_serve(workload, size, seed, budget),
    }
}

/// Process user+system CPU seconds, from `/proc/self/stat` (ticks of
/// the fixed 100 Hz `USER_HZ`).
fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // Fields 14 and 15 of the file; the state (field 3) is index 0 here.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one entry-point run gives the untraced loop.
struct Sample {
    verdict: Verdict,
    digest: u64,
    setup_s: f64,
    first_report_s: f64,
    wall_s: f64,
    packets: u64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Run `step` — one entry-point run — once untimed to warm caches and
/// the allocator, then until `budget` has passed and at least
/// [`MIN_TIMED`] timed runs were made. Timings are medians over the
/// timed runs; CPU time covers them all.
fn untraced(
    budget: Duration,
    mut step: impl FnMut() -> Result<Sample, String>,
) -> Result<Outcome, String> {
    let warm = step()?;
    let mut verdict = warm.verdict;
    let mut correct = true;
    let (mut setup, mut first_report, mut mpps) = (Vec::new(), Vec::new(), Vec::new());
    let mut packets = 0u64;
    let cpu0 = cpu_s()?;
    let t0 = Instant::now();
    while mpps.len() < MIN_TIMED || t0.elapsed() < budget {
        let s = step()?;
        verdict.add(s.verdict);
        correct &= s.digest == warm.digest;
        setup.push(s.setup_s);
        first_report.push(s.first_report_s);
        mpps.push(s.packets as f64 / s.wall_s / 1e6);
        packets += s.packets;
    }
    let cpu = cpu_s()? - cpu0;
    let lo = mpps.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = mpps.iter().copied().fold(0.0, f64::max);
    Ok(Outcome {
        correct: correct && verdict.failed == 0,
        metrics: vec![
            metric("throughput_mpps", "Mpps", median(&mpps)),
            metric("first_report_s", "s", median(&first_report)),
            metric("setup_s", "s", median(&setup)),
            metric("peak_rss_mb", "MB", peak_rss_mb()?),
            metric("cpu_s_per_mpkt", "s", cpu / (packets as f64 / 1e6)),
            metric("ok_frac", "ratio", verdict.ok_frac()),
        ],
        verdict,
        digest: warm.digest,
        notes: vec![format!(
            "{} timed runs: throughput min {lo:.4} median {:.4} max {hi:.4} Mpps",
            mpps.len(),
            median(&mpps)
        )],
    })
}

fn untraced_serve(
    workload: Workload,
    size: Size,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, String> {
    let cfg = serve_config(workload, size, seed);
    let pool = parkit::Pool::new(SERVE_JOBS);
    untraced(budget, || {
        let run = serve::run_entry(&cfg, &pool)?;
        Ok(Sample {
            verdict: check_serve(&cfg, &run.output),
            digest: digest(&run.jsonl),
            setup_s: run.setup_s,
            first_report_s: run.first_report_s,
            wall_s: run.wall_s,
            packets: run.packets,
        })
    })
}

fn stream_jsonl(windows: &[check::StreamWindow]) -> Vec<String> {
    windows.iter().map(check::StreamWindow::jsonl).collect()
}

fn stream_verdict(size: Size, seed: u64, cap: &Capture, run: &stream::EntryRun) -> Verdict {
    let c = stream_shape(size, seed).config;
    let expected = check::expected_stream_windows(
        c.window,
        c.slide.unwrap_or(c.window),
        cap.first_us,
        cap.last_us,
    );
    check_stream(
        cap.packets,
        run.packets,
        run.dropped,
        expected,
        &run.windows,
    )
}

fn untraced_stream(
    size: Size,
    seed: u64,
    cap: &Capture,
    budget: Duration,
) -> Result<Outcome, String> {
    let shape = stream_shape(size, seed);
    untraced(budget, || {
        let run = stream::run_entry(&shape, cap)?;
        Ok(Sample {
            verdict: stream_verdict(size, seed, cap, &run),
            digest: digest(&stream_jsonl(&run.windows)),
            setup_s: run.setup_s,
            first_report_s: run.first_report_s,
            wall_s: run.wall_s,
            packets: run.packets,
        })
    })
}

/// Packets ÷ busy seconds, in Mpps; 0 for a layer that never ran.
fn mpps(packets: u64, busy_s: f64) -> f64 {
    if busy_s > 0.0 {
        packets as f64 / busy_s / 1e6
    } else {
        0.0
    }
}

/// One traced cycle's per-layer measurements. Fields of layers the
/// workload's path never calls stay 0.
#[derive(Default)]
struct Layers {
    gen_packets: u64,
    gen_s: f64,
    decode_packets: u64,
    decode_s: f64,
    windower_packets: u64,
    windower_s: f64,
    payloads: u64,
    windower_allocs: u64,
    replay: serve::Replay,
    disparity_s: f64,
    disparity_calls: u64,
    inversion_s: f64,
    round_s: Vec<f64>,
    finish_s: f64,
    render_s: f64,
    imbalance: f64,
    efficiency: f64,
    overlap: f64,
    dropped: u64,
    coverage: f64,
    overhead: f64,
}

impl Layers {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    fn metrics(&self) -> Vec<Metric> {
        let r = &self.replay;
        let per_kpkt = if self.windower_packets > 0 {
            self.windower_allocs as f64 / (self.windower_packets as f64 / 1e3)
        } else {
            0.0
        };
        let share = if self.windower_s > 0.0 {
            r.parent_s / self.windower_s
        } else {
            0.0
        };
        vec![
            metric(
                "netsynth.lane.mpps",
                "Mpps",
                mpps(self.gen_packets, self.gen_s),
            ),
            metric("netsynth.lane.busy_s", "s", self.gen_s),
            metric(
                "nettrace.decode.mpps",
                "Mpps",
                mpps(self.decode_packets, self.decode_s),
            ),
            metric("nettrace.decode.busy_s", "s", self.decode_s),
            metric(
                "streamkit.windower.mpps",
                "Mpps",
                mpps(self.windower_packets, self.windower_s),
            ),
            metric("streamkit.windower.busy_s", "s", self.windower_s),
            metric("streamkit.windower.payloads", "count", self.payloads as f64),
            metric("streamkit.windower.allocs_per_kpkt", "1/kpkt", per_kpkt),
            metric(
                "nettrace.flowtable.parent.mpps",
                "Mpps",
                mpps(r.parent_packets, r.parent_s),
            ),
            metric(
                "nettrace.flowtable.parent.share_of_windower",
                "ratio",
                share,
            ),
            metric(
                "nettrace.flowtable.sampled.mpps",
                "Mpps",
                mpps(r.sampled_packets, r.sampled_s),
            ),
            metric(
                "nettrace.flowtable.heap_bytes_per_flow",
                "B",
                median(&r.heap_bytes_per_flow),
            ),
            metric(
                "sampling.sampler.mpps",
                "Mpps",
                mpps(r.sampler_packets, r.sampler_s),
            ),
            metric("sampling.disparity.busy_s", "s", self.disparity_s),
            metric(
                "sampling.disparity.calls",
                "count",
                self.disparity_calls as f64,
            ),
            metric("statkit.inversion.busy_s", "s", self.inversion_s),
            metric("collectd.round_s.p50", "s", median(&self.round_s)),
            metric(
                "collectd.round_s.max",
                "s",
                self.round_s.iter().copied().fold(0.0, f64::max),
            ),
            metric("collectd.finish_s", "s", self.finish_s),
            metric("collectd.report.render_s", "s", self.render_s),
            metric("collectd.route.imbalance", "ratio", self.imbalance),
            metric("parkit.efficiency", "ratio", self.efficiency),
            metric("streamkit.pipeline.overlap", "ratio", self.overlap),
            metric(
                "streamkit.pipeline.dropped_packets",
                "count",
                self.dropped as f64,
            ),
            metric("trace.coverage", "ratio", self.coverage),
            metric("trace.overhead_frac", "ratio", self.overhead),
        ]
    }
}

/// What one traced cycle measured and checked.
struct Cycle {
    /// The entry-point run's checks; every report fails when either
    /// recomposition rendered different reports.
    verdict: Verdict,
    /// Digest of the entry point's reports.
    digest: u64,
    /// The replayed samplers selected as many packets as the entry
    /// point's.
    replay_agrees: bool,
    layers: Layers,
}

/// Run `f` with allocation counting on.
fn counting<T>(f: impl FnOnce() -> T) -> T {
    alloc::set_counting(true);
    let out = f();
    alloc::set_counting(false);
    out
}

/// Run the traced and the untraced recomposition, alternating which
/// goes first so that neither always finds caches and allocator warm.
fn both<T>(cycle: usize, traced: impl FnOnce() -> T, plain: impl FnOnce() -> T) -> (T, T) {
    if cycle.is_multiple_of(2) {
        let t = traced();
        (t, plain())
    } else {
        let p = plain();
        (traced(), p)
    }
}

/// `v`, or every report failed when the recompositions disagreed.
fn agreed(v: Verdict, same: bool) -> Verdict {
    if same {
        v
    } else {
        Verdict {
            attempted: v.attempted,
            failed: v.attempted,
        }
    }
}

/// Repeat `cycle` until `budget` has passed (at least once) and report
/// each per-layer metric's median over the cycles.
fn traced(
    budget: Duration,
    mut cycle: impl FnMut(usize) -> Result<Cycle, String>,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.is_empty() || t0.elapsed() < budget {
        cycles.push(cycle(cycles.len())?);
    }
    let mut verdict = Verdict::default();
    for c in &cycles {
        verdict.add(c.verdict);
    }
    let digest = cycles[0].digest;
    let consistent = cycles.iter().all(|c| c.digest == digest && c.replay_agrees);
    let per_cycle: Vec<Vec<Metric>> = cycles.iter().map(|c| c.layers.metrics()).collect();
    let metrics = per_cycle[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_cycle.iter().map(|c| c[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect();
    Ok(Outcome {
        correct: consistent && verdict.failed == 0,
        verdict,
        metrics,
        digest,
        notes: vec![format!("{} traced cycles", cycles.len())],
    })
}

fn traced_serve(
    workload: Workload,
    size: Size,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, String> {
    let cfg = serve_config(workload, size, seed);
    let pool = parkit::Pool::new(SERVE_JOBS);
    traced(budget, |cycle| {
        let entry = serve::run_entry(&cfg, &pool)?;
        let mut tr = Tracer::new(true);
        let (rec, plain) = both(
            cycle,
            || counting(|| serve::recompose(&cfg, &mut tr)),
            || serve::recompose(&cfg, &mut Tracer::new(false)),
        );
        let replay = counting(|| serve::replay(&cfg));
        let l = tr.layers();
        let get = |name: &str| l.get(name).copied().unwrap_or_default();
        let (gen, win) = (get("netsynth.lane"), get("streamkit.windower"));
        let (disp, inv) = (get("sampling.disparity"), get("statkit.inversion"));
        let round_wall: f64 = entry.round_s.iter().sum();
        let same = rec.jsonl == entry.jsonl && plain.jsonl == entry.jsonl;
        Ok(Cycle {
            verdict: agreed(check_serve(&cfg, &entry.output), same),
            digest: digest(&entry.jsonl),
            replay_agrees: replay.selected == entry.output.summary.selected,
            layers: Layers {
                gen_packets: rec.generated,
                gen_s: gen.self_s,
                windower_packets: rec.offered,
                windower_s: win.self_s,
                payloads: rec.payloads,
                windower_allocs: win.allocs,
                replay,
                disparity_s: disp.self_s,
                disparity_calls: disp.calls,
                inversion_s: inv.self_s,
                finish_s: entry.finish_s,
                render_s: entry.render_s,
                imbalance: entry.imbalance_x1000 as f64 / 1000.0,
                efficiency: (gen.self_s + win.self_s) / (SERVE_JOBS as f64 * round_wall),
                round_s: entry.round_s,
                coverage: tr.coverage(rec.wall_s),
                overhead: rec.wall_s / plain.wall_s - 1.0,
                ..Layers::default()
            },
        })
    })
}

fn traced_stream(
    size: Size,
    seed: u64,
    cap: &Capture,
    budget: Duration,
) -> Result<Outcome, String> {
    let shape = stream_shape(size, seed);
    traced(budget, |cycle| {
        let entry = stream::run_entry(&shape, cap)?;
        let jsonl = stream_jsonl(&entry.windows);
        let mut tr = Tracer::new(true);
        let (rec, plain) = both(
            cycle,
            || counting(|| stream::recompose(&shape, cap, &mut tr)),
            || stream::recompose(&shape, cap, &mut Tracer::new(false)),
        );
        let (rec, plain) = (rec?, plain?);
        let replay = counting(|| stream::replay(&shape, cap))?;
        let l = tr.layers();
        let get = |name: &str| l.get(name).copied().unwrap_or_default();
        let (dec, win, disp) = (
            get("nettrace.decode"),
            get("streamkit.windower"),
            get("sampling.disparity"),
        );
        let same = stream_jsonl(&rec.windows) == jsonl && stream_jsonl(&plain.windows) == jsonl;
        Ok(Cycle {
            verdict: agreed(stream_verdict(size, seed, cap, &entry), same),
            digest: digest(&jsonl),
            replay_agrees: replay.selected == entry.selected,
            layers: Layers {
                // Generation ran while the capture was written, during
                // set-up and off the measured path.
                gen_packets: cap.packets,
                gen_s: cap.gen_s,
                decode_packets: rec.packets,
                decode_s: dec.self_s,
                windower_packets: rec.packets,
                windower_s: win.self_s,
                payloads: rec.payloads,
                windower_allocs: win.allocs,
                replay,
                disparity_s: disp.self_s,
                disparity_calls: disp.calls,
                overlap: (dec.self_s + win.self_s + disp.self_s) / (entry.setup_s + entry.wall_s),
                dropped: entry.dropped,
                coverage: tr.coverage(rec.wall_s),
                overhead: rec.wall_s / plain.wall_s - 1.0,
                ..Layers::default()
            },
        })
    })
}
