//! The stream workload: the capture it writes, the entry point behind
//! `netsample stream`, its serial recomposition from public calls, and
//! the flow-table and sampler replays.

use crate::check::StreamWindow;
use crate::serve::{replay_sampler, replay_tables, Replay};
use crate::trace::Tracer;
use crate::workload::StreamShape;
use netsynth::LaneGen;
use nettrace::pcap::{write_pcap_header, write_pcap_record};
use nettrace::{CaptureStream, PacketRecord};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use streamkit::{run_stream, WindowPayload, WindowSpec, Windower};

/// Packets generated and written per step while building the capture.
const WRITE_CHUNK: usize = 8_192;

/// A capture written for one seed.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Where it lives.
    pub path: PathBuf,
    /// Packets written.
    pub packets: u64,
    /// First packet timestamp, µs.
    pub first_us: u64,
    /// Last packet timestamp, µs.
    pub last_us: u64,
    /// Time inside `LaneGen::next_chunk` while writing, seconds.
    pub gen_s: f64,
}

/// Generate the workload's packets chunk by chunk and write them as a
/// classic pcap at `path`.
///
/// # Errors
/// Any I/O or encoding error, rendered.
pub fn write_capture(shape: &StreamShape, path: &Path) -> Result<Capture, String> {
    let err = |e: &dyn std::fmt::Display| format!("cannot write {}: {e}", path.display());
    let file = File::create(path).map_err(|e| err(&e))?;
    let mut w = BufWriter::new(file);
    write_pcap_header(&mut w).map_err(|e| err(&e))?;
    let mut gen = LaneGen::new(shape.lane);
    let mut chunk: Vec<PacketRecord> = Vec::with_capacity(WRITE_CHUNK);
    let (mut written, mut gen_s) = (0u64, 0.0);
    let (mut first_us, mut last_us) = (None, 0);
    while written < shape.packets {
        let want = WRITE_CHUNK.min((shape.packets - written) as usize);
        chunk.clear();
        let t0 = Instant::now();
        gen.next_chunk(want, &mut chunk);
        gen_s += t0.elapsed().as_secs_f64();
        for p in &chunk {
            write_pcap_record(&mut w, p).map_err(|e| err(&e))?;
            first_us.get_or_insert(p.timestamp.as_u64());
            last_us = p.timestamp.as_u64();
        }
        written += chunk.len() as u64;
    }
    w.flush().map_err(|e| err(&e))?;
    Ok(Capture {
        path: path.to_path_buf(),
        packets: written,
        first_us: first_us.unwrap_or(0),
        last_us,
        gen_s,
    })
}

/// A reader that stamps the instant of its first `read` call.
struct FirstRead<R> {
    inner: R,
    first: Arc<OnceLock<Instant>>,
}

impl<R: Read> Read for FirstRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.first.get_or_init(Instant::now);
        self.inner.read(buf)
    }
}

/// One run of the stream entry point.
pub struct EntryRun {
    /// The `run_stream` call to the reader's first `read`, seconds.
    pub setup_s: f64,
    /// First `read` to `run_stream` returning every report, seconds.
    pub wall_s: f64,
    /// First `read` to the first window report in hand, seconds.
    pub first_report_s: f64,
    /// Packets offered to the sampler.
    pub packets: u64,
    /// Packets the sampler selected over the whole stream.
    pub selected: u64,
    /// Packets the pipeline dropped under backpressure.
    pub dropped: u64,
    /// The scored windows.
    pub windows: Vec<StreamWindow>,
}

fn open(cap: &Capture) -> Result<BufReader<File>, String> {
    File::open(&cap.path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open {}: {e}", cap.path.display()))
}

/// Run `streamkit::run_stream` over the capture, as `netsample stream`
/// does over a file.
///
/// # Errors
/// Any stream or I/O error, rendered.
pub fn run_entry(shape: &StreamShape, cap: &Capture) -> Result<EntryRun, String> {
    let first = Arc::new(OnceLock::new());
    let reader = FirstRead {
        inner: open(cap)?,
        first: Arc::clone(&first),
    };
    let t0 = Instant::now();
    let summary = run_stream(reader, &shape.config).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let first_read = *first.get().ok_or("the stream never read its capture")?;
    let windows = summary
        .windows
        .iter()
        .map(|w| StreamWindow {
            index: w.index,
            start_us: w.start_ts.as_u64(),
            first_us: w.first_ts.map(|t| t.as_u64()),
            last_us: w.last_ts.map(|t| t.as_u64()),
            packets: w.packets,
            selected: w.selected,
            flows: w.flows,
            syn_flows: w.syn_flows,
            phi: w.report.map(|r| r.phi),
        })
        .collect();
    Ok(EntryRun {
        setup_s: (first_read - t0).as_secs_f64(),
        wall_s: (end - first_read).as_secs_f64(),
        // Every report arrives when `run_stream` returns.
        first_report_s: (end - first_read).as_secs_f64(),
        packets: summary.packets,
        selected: summary.selected,
        dropped: summary.dropped_packets,
        windows,
    })
}

/// What the serial recomposition produced and counted.
pub struct Recomposed {
    /// The scored windows; must equal the entry point's.
    pub windows: Vec<StreamWindow>,
    /// First decode to the last window scored, seconds.
    pub wall_s: f64,
    /// Packets decoded.
    pub packets: u64,
    /// Window payloads the windower emitted.
    pub payloads: u64,
}

fn make_windower(shape: &StreamShape, first: &PacketRecord) -> Windower {
    let c = &shape.config;
    let sampler = c
        .method
        .build(first.timestamp, c.population_hint, c.replication, c.seed)
        .expect("the workload's sampling method builds");
    Windower::new(c.target, c.window, c.slide, sampler)
}

/// Run the pipeline's three stages serially from their public calls:
/// `CaptureStream::next_batch`, `Windower::offer_slice`/`finish` (the
/// windower built at the first packet, as the transform stage builds
/// it) and `sampling::disparity`, with a span around each call.
///
/// # Errors
/// Any decode or I/O error, rendered.
pub fn recompose(
    shape: &StreamShape,
    cap: &Capture,
    tr: &mut Tracer,
) -> Result<Recomposed, String> {
    let reader = open(cap)?;
    let batch = shape.config.batch;
    let t0 = Instant::now();
    let mut stream = tr
        .span("nettrace.decode", |_| CaptureStream::new(reader))
        .map_err(|e| e.to_string())?;
    let mut windower: Option<Windower> = None;
    let mut payloads: Vec<WindowPayload> = Vec::new();
    let mut packets = 0u64;
    loop {
        let buf = tr.span("nettrace.decode", |_| {
            let mut buf = Vec::with_capacity(batch);
            stream.next_batch(batch, &mut buf).map(|_| buf)
        });
        let buf = buf.map_err(|e| e.to_string())?;
        let Some(first) = buf.first() else { break };
        packets += buf.len() as u64;
        let out = tr.span("streamkit.windower", |_| {
            windower
                .get_or_insert_with(|| make_windower(shape, first))
                .offer_slice(&buf)
        });
        payloads.extend(out);
    }
    if let Some(w) = windower.as_mut() {
        payloads.extend(tr.span("streamkit.windower", |_| w.finish()));
    }
    let phis: Vec<Option<f64>> = payloads
        .iter()
        .map(|p| {
            tr.span("sampling.disparity", |_| {
                if p.population.total() == 0 {
                    None
                } else {
                    sampling::disparity(&p.population, &p.sample).map(|d| d.phi)
                }
            })
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let windows = payloads
        .iter()
        .zip(phis)
        .map(|(p, phi)| StreamWindow {
            index: p.index,
            start_us: p.start_ts.as_u64(),
            first_us: p.first_ts.map(|t| t.as_u64()),
            last_us: p.last_ts.map(|t| t.as_u64()),
            packets: p.packets,
            selected: p.selected,
            flows: p.flows,
            syn_flows: p.syn_flows,
            phi,
        })
        .collect();
    Ok(Recomposed {
        windows,
        wall_s,
        packets,
        payloads: payloads.len() as u64,
    })
}

/// Decode the capture again (untimed) and replay each stride bucket's
/// packets through a fresh sampler and fresh flow tables, the way the
/// windower fills one bucket.
///
/// # Errors
/// Any decode or I/O error, rendered.
pub fn replay(shape: &StreamShape, cap: &Capture) -> Result<Replay, String> {
    let WindowSpec::Time(stride) = shape.config.slide.unwrap_or(shape.config.window) else {
        return Err("stream workloads use time windows".into());
    };
    let stride = stride.as_u64().max(1);
    let mut stream = CaptureStream::new(open(cap)?).map_err(|e| e.to_string())?;
    let mut r = Replay::default();
    let mut sampler = None;
    let mut bucket: Vec<PacketRecord> = Vec::new();
    let mut current = 0u64;
    let mut batch = Vec::with_capacity(shape.config.batch);
    loop {
        batch.clear();
        let n = stream
            .next_batch(shape.config.batch, &mut batch)
            .map_err(|e| e.to_string())?;
        for p in &batch {
            let idx = p.timestamp.as_u64().saturating_sub(cap.first_us) / stride;
            if idx != current && !bucket.is_empty() {
                flush_bucket(shape, &mut sampler, &mut bucket, &mut r);
            }
            current = idx;
            bucket.push(*p);
        }
        if n == 0 {
            break;
        }
    }
    flush_bucket(shape, &mut sampler, &mut bucket, &mut r);
    Ok(r)
}

fn flush_bucket(
    shape: &StreamShape,
    sampler: &mut Option<Box<dyn streamkit::StreamSampler>>,
    bucket: &mut Vec<PacketRecord>,
    r: &mut Replay,
) {
    let Some(first) = bucket.first() else { return };
    let c = &shape.config;
    let s = sampler.get_or_insert_with(|| {
        c.method
            .build(first.timestamp, c.population_hint, c.replication, c.seed)
            .expect("the workload's sampling method builds")
    });
    let (selected, busy) = replay_sampler(s.as_mut(), bucket);
    r.sampler_s += busy;
    r.sampler_packets += bucket.len() as u64;
    r.selected += selected.len() as u64;
    replay_tables(r, bucket, &selected, None);
    bucket.clear();
}
