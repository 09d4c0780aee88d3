//! The streaming runtime: a decode thread feeding a caller that
//! windows and scores inline.
//!
//! Two stages joined by one **bounded** channel, so memory stays
//! O(queue × batch + window) no matter how large the capture is:
//!
//! ```text
//!   source thread              calling thread
//!   CaptureStream ──batches──▶ Windower ──▶ sampling::disparity ──▶ reports
//! ```
//!
//! Decode overlaps windowing, the two costly stages. Each window is
//! scored the moment the windower closes it: φ costs microseconds per
//! window, too little to earn a thread or a channel of its own.
//!
//! Backpressure at the ingestion edge is explicit policy: [`Block`]
//! (lossless; the reader stalls until the sampler catches up — the
//! right default for files) or [`DropNewest`] (a full queue sheds the
//! freshest batch and counts it — the live-capture stance, where the
//! kernel would drop anyway and an honest counter beats a silent
//! stall).
//!
//! **Scrape-driven adaptive control**: when the engine names a shed
//! rule ([`crate::StreamConfig::adaptive_shed`]), the source stage
//! reads the on-board alert engine's `alert_active{rule=...}` gauge
//! each batch. While the alert fires, shedding *widens*: the `Block`
//! policy escalates to drop-newest instead of stalling the reader,
//! and batches are shed proactively once the queue passes half
//! occupancy (not only when it is full). Adaptive drops are counted
//! separately in `stream_adaptive_shed_total`. The control loop is
//! entirely on-board — rule evaluation happens on the telemetry tick,
//! no external scraper in the loop.
//!
//! [`Block`]: Backpressure::Block
//! [`DropNewest`]: Backpressure::DropNewest

use crate::engine::{StreamConfig, StreamError, StreamSummary, WindowReport};
use crate::window::{WindowPayload, Windower};
use nettrace::{CaptureStream, Histogram, PacketRecord, TraceError};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::thread;
use std::time::{Duration, Instant};

/// Policy when the ingestion queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Stall the reader until the pipeline drains (lossless).
    #[default]
    Block,
    /// Drop the just-read batch and count it (lossy, never stalls).
    DropNewest,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backpressure::Block => write!(f, "block"),
            Backpressure::DropNewest => write!(f, "drop-newest"),
        }
    }
}

enum SourceMsg {
    Batch(Vec<PacketRecord>),
    Done,
    Fault { offset: u64, error: TraceError },
}

/// A process-wide obskit counter plus this run's own share of it, so a
/// run's summary (and its tests) never see another run's increments.
struct Tally {
    global: obskit::Counter,
    run: AtomicU64,
}

impl Tally {
    fn new(name: &str) -> Tally {
        Tally {
            global: obskit::counter(name),
            run: AtomicU64::new(0),
        }
    }

    fn add(&self, n: u64) {
        self.global.add(n);
        self.run.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed suffices: the summary reads final totals only after
    /// receiving the source's terminal message, and the channel orders
    /// that receive after every `add` the source made.
    fn run(&self) -> u64 {
        self.run.load(Ordering::Relaxed)
    }
}

/// Live per-run telemetry shared by the two stages.
///
/// The obskit counters/gauges are flushed *per batch / per window*
/// (not at end of run) so a concurrent `/metrics` scrape sees them
/// move; the [`Tally`] fields also keep run-local totals, so a
/// [`WindowReport`] carries the shed count of *this* run even when
/// several runs share the process-wide registry.
struct LiveStats {
    packets: obskit::Counter,
    batches: obskit::Counter,
    depth: obskit::Gauge,
    windows_scored: obskit::Counter,
    shed_packets: Tally,
    shed_batches: Tally,
    stalls: Tally,
    adaptive_shed: Tally,
}

impl LiveStats {
    fn new() -> LiveStats {
        obskit::global().describe(
            "stream_channel_depth",
            "Occupancy of the bounded source-to-windower channel, in batches.",
        );
        obskit::global().describe(
            "stream_shed_total",
            "Packets shed by the drop-newest backpressure policy.",
        );
        obskit::global().describe(
            "stream_adaptive_shed_total",
            "Packets shed because an adaptive-shed alert rule was firing.",
        );
        LiveStats {
            packets: obskit::counter("stream_packets_ingested_total"),
            batches: obskit::counter("stream_batches_ingested_total"),
            depth: obskit::gauge_labeled("stream_channel_depth", &[("stage", "transform")]),
            windows_scored: obskit::counter("stream_windows_scored_total"),
            shed_packets: Tally::new("stream_shed_total"),
            shed_batches: Tally::new("stream_shed_batches_total"),
            stalls: Tally::new("stream_backpressure_stalls_total"),
            adaptive_shed: Tally::new("stream_adaptive_shed_total"),
        }
    }
}

enum SendOutcome {
    Sent,
    Dropped(u64),
    Closed,
}

/// Apply the backpressure policy to one batch send. Factored out so
/// the drop path is unit-testable without racing real threads.
fn send_with_policy(
    tx: &SyncSender<SourceMsg>,
    batch: Vec<PacketRecord>,
    policy: Backpressure,
) -> SendOutcome {
    match policy {
        Backpressure::Block => match tx.send(SourceMsg::Batch(batch)) {
            Ok(()) => SendOutcome::Sent,
            Err(_) => SendOutcome::Closed,
        },
        Backpressure::DropNewest => match tx.try_send(SourceMsg::Batch(batch)) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Full(SourceMsg::Batch(b))) => SendOutcome::Dropped(b.len() as u64),
            Err(TrySendError::Full(_)) => unreachable!("only batches are try-sent"),
            Err(TrySendError::Disconnected(_)) => SendOutcome::Closed,
        },
    }
}

/// Like [`send_with_policy`] for the `Block` policy, but visible: a
/// full queue first counts a backpressure stall, then blocks.
fn send_blocking_counted(
    tx: &SyncSender<SourceMsg>,
    batch: Vec<PacketRecord>,
    stats: &LiveStats,
) -> SendOutcome {
    match tx.try_send(SourceMsg::Batch(batch)) {
        Ok(()) => SendOutcome::Sent,
        Err(TrySendError::Full(msg)) => {
            stats.stalls.add(1);
            match tx.send(msg) {
                Ok(()) => SendOutcome::Sent,
                Err(_) => SendOutcome::Closed,
            }
        }
        Err(TrySendError::Disconnected(_)) => SendOutcome::Closed,
    }
}

/// Read batches off the capture stream until EOF, fault, or a closed
/// downstream. Ingest counters, the channel-depth gauge, and shed
/// counters are flushed per batch so a live scrape sees them move.
fn source_loop<R: Read>(
    mut stream: CaptureStream<R>,
    tx: SyncSender<SourceMsg>,
    batch: usize,
    queue: usize,
    policy: Backpressure,
    shed_rule: Option<&str>,
    stats: &LiveStats,
) {
    let _span = obskit::span_labeled("stream_stage", &[("stage", "source")]);
    // Resolve the adaptive-control gauge once; the alert engine flips
    // it on the telemetry tick, the hot loop only reads an atomic.
    let shed_gauge = shed_rule.map(|r| obskit::gauge_labeled("alert_active", &[("rule", r)]));
    // "Widened" shedding threshold: once the alert fires, shed at half
    // queue occupancy instead of waiting for a full queue.
    let hiwater = i64::try_from(queue / 2).unwrap_or(i64::MAX).max(1);
    loop {
        let mut buf = Vec::with_capacity(batch);
        match stream.next_batch(batch, &mut buf) {
            Ok(0) => {
                let _ = tx.send(SourceMsg::Done);
                break;
            }
            Ok(n) => {
                stats.packets.add(n as u64);
                stats.batches.inc();
                obskit::telemetry::touch_ingest();
                // Inc the depth gauge *before* the send so the consumer's
                // dec never races it below zero.
                stats.depth.add(1);
                let firing = shed_gauge.as_ref().is_some_and(|g| g.get() >= 1);
                let outcome = if firing {
                    // Alert firing: widen shedding. Never stall (Block
                    // escalates to drop-newest) and shed proactively
                    // past the half-occupancy high-water mark.
                    if stats.depth.get() > hiwater {
                        SendOutcome::Dropped(buf.len() as u64)
                    } else {
                        send_with_policy(&tx, buf, Backpressure::DropNewest)
                    }
                } else {
                    match policy {
                        Backpressure::Block => send_blocking_counted(&tx, buf, stats),
                        Backpressure::DropNewest => send_with_policy(&tx, buf, policy),
                    }
                };
                match outcome {
                    SendOutcome::Sent => {}
                    SendOutcome::Dropped(shed) => {
                        stats.depth.add(-1);
                        stats.shed_batches.add(1);
                        stats.shed_packets.add(shed);
                        if firing {
                            stats.adaptive_shed.add(shed);
                        }
                    }
                    SendOutcome::Closed => {
                        stats.depth.add(-1);
                        break;
                    }
                }
            }
            Err(error) => {
                let offset = stream
                    .fault_offset()
                    .unwrap_or_else(|| stream.byte_offset());
                let _ = tx.send(SourceMsg::Fault { offset, error });
                break;
            }
        }
    }
}

/// Build the windower (and through it the sampler) at the first
/// packet, whose timestamp anchors the sampling schedule exactly like
/// the batch path's `window_start`.
fn windower_at(cfg: &StreamConfig, first: &PacketRecord) -> Windower {
    let sampler = cfg
        .method
        .build(
            first.timestamp,
            cfg.population_hint,
            cfg.replication,
            cfg.seed,
        )
        .expect("method construction was validated before streaming");
    Windower::new(cfg.target, cfg.window, cfg.slide, sampler)
}

fn score(
    p: &WindowPayload,
    reference: Option<&Histogram>,
    shed_packets: u64,
    rss_kb: u64,
) -> WindowReport {
    let popref = reference.unwrap_or(&p.population);
    let report = if popref.total() == 0 {
        None
    } else {
        sampling::disparity(popref, &p.sample)
    };
    WindowReport {
        index: p.index,
        start_ts: p.start_ts,
        first_ts: p.first_ts,
        last_ts: p.last_ts,
        packets: p.packets,
        selected: p.selected,
        flows: p.flows,
        syn_flows: p.syn_flows,
        shed_packets,
        rss_kb,
        report,
    }
}

/// Run the pipeline to completion: decode on one helper thread, window
/// and score on the calling thread.
pub(crate) fn run_pipeline<R: Read + Send>(
    stream: CaptureStream<R>,
    cfg: &StreamConfig,
) -> Result<StreamSummary, StreamError> {
    let format = stream.format();
    let queue = cfg.queue.max(1);
    let stats = LiveStats::new();
    let (tx, rx) = mpsc::sync_channel::<SourceMsg>(queue);
    thread::scope(|s| {
        let stats = &stats;
        let (batch, policy, rule) = (
            cfg.batch.max(1),
            cfg.backpressure,
            cfg.adaptive_shed.as_deref(),
        );
        let source = s.spawn(move || source_loop(stream, tx, batch, queue, policy, rule, stats));
        let _span = obskit::span_labeled("stream_stage", &[("stage", "transform")]);
        let mut windower: Option<Windower> = None;
        let mut windows: Vec<WindowReport> = Vec::new();
        // Shed count and RSS are per-run/process facts, not per-window
        // ones. RSS costs a procfs read on the windowing thread (read
        // per window, ~3% of stream throughput on a 2-vCPU VM), so it
        // is refreshed at most once per telemetry interval.
        let rss_max_age = Duration::from_millis(obskit::telemetry::default_interval_ms());
        let mut rss: Option<(Instant, u64)> = None;
        let mut score_all = |payloads: Vec<WindowPayload>| {
            if payloads.is_empty() {
                return;
            }
            let shed = stats.shed_packets.run();
            let rss_kb = match rss {
                Some((at, kb)) if at.elapsed() < rss_max_age => kb,
                _ => {
                    let kb = obskit::telemetry::rss_kb().unwrap_or(0);
                    rss = Some((Instant::now(), kb));
                    kb
                }
            };
            let reference = cfg.reference.as_ref();
            windows.extend(payloads.iter().map(|p| score(p, reference, shed, rss_kb)));
            stats.windows_scored.add(payloads.len() as u64);
        };
        for msg in rx {
            match msg {
                SourceMsg::Batch(pkts) => {
                    stats.depth.add(-1);
                    let Some(first) = pkts.first() else { continue };
                    let w = windower.get_or_insert_with(|| windower_at(cfg, first));
                    score_all(w.offer_slice(&pkts));
                }
                SourceMsg::Done => {
                    let (packets, selected) = match windower.as_mut() {
                        Some(w) => {
                            score_all(w.finish());
                            (w.packets(), w.selected())
                        }
                        None => (0, 0),
                    };
                    return Ok(StreamSummary {
                        format,
                        method: cfg.method.name(),
                        target: cfg.target,
                        packets,
                        selected,
                        dropped_batches: stats.shed_batches.run(),
                        dropped_packets: stats.shed_packets.run(),
                        windows,
                    });
                }
                SourceMsg::Fault { offset, error } => {
                    return Err(StreamError::Ingest { offset, error })
                }
            }
        }
        // The source hangs up without a terminal message only by
        // panicking; re-raise its panic here.
        std::panic::resume_unwind(
            source
                .join()
                .expect_err("the source always ends with Done or Fault"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Micros;
    use std::sync::mpsc::sync_channel;

    fn batch_of(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i as u64 * 10), 40))
            .collect()
    }

    #[test]
    fn block_policy_never_drops_but_reports_closed_channels() {
        let (tx, rx) = sync_channel(1);
        assert!(matches!(
            send_with_policy(&tx, batch_of(3), Backpressure::Block),
            SendOutcome::Sent
        ));
        drop(rx);
        assert!(matches!(
            send_with_policy(&tx, batch_of(3), Backpressure::Block),
            SendOutcome::Closed
        ));
    }

    #[test]
    fn drop_newest_sheds_exactly_the_overflow_batch() {
        // Capacity 2, no receiver draining: the third send must drop,
        // deterministically, and report the dropped packet count.
        let (tx, _rx) = sync_channel(2);
        assert!(matches!(
            send_with_policy(&tx, batch_of(5), Backpressure::DropNewest),
            SendOutcome::Sent
        ));
        assert!(matches!(
            send_with_policy(&tx, batch_of(5), Backpressure::DropNewest),
            SendOutcome::Sent
        ));
        match send_with_policy(&tx, batch_of(7), Backpressure::DropNewest) {
            SendOutcome::Dropped(n) => assert_eq!(n, 7),
            _ => panic!("expected a drop"),
        }
    }

    #[test]
    fn drop_newest_reports_disconnect() {
        let (tx, rx) = sync_channel(2);
        drop(rx);
        assert!(matches!(
            send_with_policy(&tx, batch_of(1), Backpressure::DropNewest),
            SendOutcome::Closed
        ));
    }

    /// Drive `source_loop` against a deliberately slow consumer and
    /// return this run's own `(stalls, shed_packets, adaptive_shed)`
    /// tallies (run-local, so sibling tests on other threads sharing
    /// the global counters cannot leak into them).
    fn drive_source(policy: Backpressure, shed_rule: Option<&str>) -> (u64, u64, u64) {
        let stats = LiveStats::new();
        let bytes = {
            let packets: Vec<PacketRecord> = (0..60u64)
                .map(|i| PacketRecord::new(Micros(i * 10), 40))
                .collect();
            let trace = nettrace::Trace::from_unordered(packets);
            let mut buf = Vec::new();
            nettrace::pcap::write_pcap(&mut buf, &trace).unwrap();
            buf
        };
        let stream = CaptureStream::new(bytes.as_slice()).unwrap();
        let (tx, rx) = sync_channel::<SourceMsg>(2);
        let consumer = thread::spawn(move || {
            for msg in rx {
                if matches!(msg, SourceMsg::Batch(_)) {
                    stats_sleep();
                }
            }
        });
        source_loop(stream, tx, 1, 2, policy, shed_rule, &stats);
        consumer.join().unwrap();
        (
            stats.stalls.run(),
            stats.shed_packets.run(),
            stats.adaptive_shed.run(),
        )
    }

    fn stats_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    #[test]
    fn adaptive_shed_reduces_block_stalls_while_alert_fires() {
        // The control gauge the alert engine would normally flip.
        obskit::gauge_labeled("alert_active", &[("rule", "pipeline_test_hiwater")]).set(1);
        // Static Block path: 60 one-packet batches into a depth-2
        // queue drained at 2ms/batch must stall the reader repeatedly.
        let (stalls_static, _, adaptive_static) = drive_source(Backpressure::Block, None);
        assert!(stalls_static > 0, "static Block path must stall");
        assert_eq!(adaptive_static, 0, "no rule, no adaptive shedding");
        // Same load with the alert firing: Block escalates to
        // drop-newest, so the reader sheds instead of stalling.
        let (stalls_adaptive, shed, adaptive) =
            drive_source(Backpressure::Block, Some("pipeline_test_hiwater"));
        assert!(
            stalls_adaptive < stalls_static,
            "adaptive shed must reduce stalls ({stalls_adaptive} vs {stalls_static})"
        );
        assert!(adaptive > 0, "widened shedding must engage");
        assert!(shed >= adaptive, "adaptive drops are counted as shed too");
    }

    #[test]
    fn adaptive_shed_stays_inert_while_alert_is_clear() {
        obskit::gauge_labeled("alert_active", &[("rule", "pipeline_test_quiet")]).set(0);
        let (stalls, _, adaptive) = drive_source(Backpressure::Block, Some("pipeline_test_quiet"));
        assert!(stalls > 0, "clear alert keeps the static Block policy");
        assert_eq!(adaptive, 0, "no adaptive drops while the rule is clear");
    }
}
