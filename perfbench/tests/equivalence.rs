//! The traced recomposition measures the same work as the entry points:
//! on a small shape of each workload its reports equal the entry
//! point's byte for byte, and its spans cover the traced wall time to
//! within the 10% layer-sum target.

use collectd::{report_jsonl, run_collector};
use parkit::Pool;
use perfbench::check::{self, StreamWindow};
use perfbench::runner;
use perfbench::serve;
use perfbench::stream;
use perfbench::trace::Tracer;
use perfbench::workload::{serve_config, stream_shape, Size, Workload, SERVE_JOBS};
use std::path::{Path, PathBuf};

const SEED: u64 = 1993;

fn assert_coverage(tr: &Tracer, wall_s: f64, what: &str) {
    let cov = tr.coverage(wall_s);
    assert!(
        (0.9..=1.1).contains(&cov),
        "{what}: trace coverage {cov} outside [0.9, 1.1]"
    );
}

/// A scratch directory private to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn serve_recomposition_matches_run_collector_and_covers_its_trace() {
    let pool = Pool::new(SERVE_JOBS);
    for w in [Workload::ServeSoak, Workload::ServeElephants] {
        let cfg = serve_config(w, Size::Small, SEED);
        let reference: Vec<String> = run_collector(cfg.clone(), &pool, None, |_| {})
            .expect("collector runs")
            .reports
            .iter()
            .map(report_jsonl)
            .collect();
        let entry = serve::run_entry(&cfg, &pool).expect("entry point runs");
        assert_eq!(entry.jsonl, reference, "{}: entry run", w.name());
        assert_eq!(check::check_serve(&cfg, &entry.output).failed, 0);

        let mut tr = Tracer::new(true);
        let rec = serve::recompose(&cfg, &mut tr);
        assert_eq!(rec.jsonl, reference, "{}: traced recomposition", w.name());
        assert_coverage(&tr, rec.wall_s, w.name());

        let plain = serve::recompose(&cfg, &mut Tracer::new(false));
        assert_eq!(
            plain.jsonl,
            reference,
            "{}: untraced recomposition",
            w.name()
        );

        let replay = serve::replay(&cfg);
        assert_eq!(replay.selected, entry.output.summary.selected);
    }
}

#[test]
fn stream_recomposition_matches_run_stream_and_covers_its_trace() {
    let dir = scratch("stream-equivalence");
    let shape = stream_shape(Size::Small, SEED);
    let cap = stream::write_capture(&shape, &dir.join("capture.pcap")).expect("capture");
    let entry = stream::run_entry(&shape, &cap).expect("run_stream runs");
    let lines = |ws: &[StreamWindow]| ws.iter().map(StreamWindow::jsonl).collect::<Vec<_>>();
    let expected = check::expected_stream_windows(
        shape.config.window,
        shape.config.slide.expect("sliding"),
        cap.first_us,
        cap.last_us,
    );
    assert!(expected > 4, "the small capture spans several windows");
    let v = check::check_stream(
        cap.packets,
        entry.packets,
        entry.dropped,
        expected,
        &entry.windows,
    );
    assert_eq!((v.attempted, v.failed), (expected, 0));

    let mut tr = Tracer::new(true);
    let rec = stream::recompose(&shape, &cap, &mut tr).expect("recomposition runs");
    assert_eq!(lines(&rec.windows), lines(&entry.windows));
    assert_eq!(rec.packets, cap.packets);
    assert_coverage(&tr, rec.wall_s, "stream-capture");

    let replay = stream::replay(&shape, &cap).expect("replay runs");
    assert_eq!(replay.selected, entry.selected);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// The metric names each mode prints, as `BENCHMARK.json` lists them.
fn declared(kind: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let section = text
        .split(&format!("\"{kind}\""))
        .nth(1)
        .expect("section present");
    let section = &section[..section.find(']').expect("section ends")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn runs_report_every_declared_metric_and_pass_their_checks() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!(e2e.len(), 6);
    let dir = scratch("runner");
    for w in Workload::ALL {
        for (traced, names) in [(false, &e2e), (true, &layers)] {
            let out = runner::run(w, Size::Small, SEED, 0.05, traced, &dir).expect("run");
            assert!(out.correct, "{} traced={traced}: {:?}", w.name(), out.notes);
            assert_eq!(out.verdict.failed, 0);
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(got, *names, "{} traced={traced}", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if traced {
                let cov = out.get("trace.coverage").expect("coverage");
                assert!((0.9..=1.1).contains(&cov), "{}: coverage {cov}", w.name());
            } else {
                assert_eq!(out.get("ok_frac"), Some(1.0));
                assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn the_digest_is_a_function_of_the_seed() {
    let dir = scratch("digest");
    let run = |seed| {
        runner::run(
            Workload::ServeElephants,
            Size::Small,
            seed,
            0.05,
            false,
            &dir,
        )
        .expect("run")
        .digest
    };
    assert_eq!(run(SEED), run(SEED));
    assert_ne!(run(SEED), run(SEED + 1));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
