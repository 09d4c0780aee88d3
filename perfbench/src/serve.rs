//! The collector workloads: the entry point behind `netsample serve`,
//! its serial recomposition from public calls, and the flow-table and
//! sampler replays.

use crate::alloc;
use crate::trace::Tracer;
use crate::workload::SERVE_CHUNK;
use collectd::{
    report_jsonl, CollectError, Collector, CollectorConfig, CollectorOutput, LaneSource,
    TenantWindowReport,
};
use netstat_sim::Lane;
use netsynth::{LaneConfig, LaneGen};
use nettrace::{FlowTable, Micros, PacketRecord};
use parkit::Pool;
use statkit::inversion::{naive_scaling, syn_flow_count, tail_rescale};
use std::collections::BTreeMap;
use std::time::Instant;
use streamkit::{Offer, StreamSampler, WindowPayload, WindowSpec, Windower};

/// The windower pre-sizes each bucket's parent flow table to this many
/// flows (streamkit's `BUCKET_FLOW_CAP`); the replay sizes its tables
/// the same way.
const BUCKET_RESERVE: usize = 4_096;

/// One run of the collector entry point, timed around each public call.
pub struct EntryRun {
    /// `Collector::new`, seconds.
    pub setup_s: f64,
    /// First packet offered to the last report rendered, seconds.
    pub wall_s: f64,
    /// First packet offered to the first report rendered, seconds.
    pub first_report_s: f64,
    /// Each `Collector::run_round`, seconds.
    pub round_s: Vec<f64>,
    /// `Collector::finish`, seconds.
    pub finish_s: f64,
    /// `report_jsonl` over every report, seconds.
    pub render_s: f64,
    /// Packets the lanes ingested.
    pub packets: u64,
    /// The merged output.
    pub output: CollectorOutput,
    /// The rendered reports.
    pub jsonl: Vec<String>,
    /// `RoutingPlan::imbalance_x1000` of the run.
    pub imbalance_x1000: u64,
}

/// Run the collector the way `netsample serve` does: `Collector::new`,
/// `run_round` until every window is done, `finish`, `report_jsonl`.
///
/// # Errors
/// Any collector error, rendered.
pub fn run_entry(cfg: &CollectorConfig, pool: &Pool) -> Result<EntryRun, String> {
    let t0 = Instant::now();
    let mut collector = Collector::new(cfg.clone()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let imbalance_x1000 = collector.plan().imbalance_x1000();
    let mut round_s = Vec::with_capacity(cfg.windows as usize);
    loop {
        let r0 = Instant::now();
        match collector.run_round(pool) {
            Ok(stats) => {
                round_s.push(r0.elapsed().as_secs_f64());
                if stats.drained {
                    break;
                }
            }
            Err(CollectError::Finished) => break,
            Err(e) => return Err(e.to_string()),
        }
    }
    let f0 = Instant::now();
    let output = collector.finish().map_err(|e| e.to_string())?;
    let f1 = Instant::now();
    let mut jsonl = Vec::with_capacity(output.reports.len());
    let mut first_report = None;
    for r in &output.reports {
        jsonl.push(report_jsonl(r));
        first_report.get_or_insert_with(Instant::now);
    }
    let end = Instant::now();
    Ok(EntryRun {
        setup_s: (start - t0).as_secs_f64(),
        wall_s: (end - start).as_secs_f64(),
        first_report_s: (first_report.unwrap_or(end) - start).as_secs_f64(),
        round_s,
        finish_s: (f1 - f0).as_secs_f64(),
        render_s: (end - f1).as_secs_f64(),
        packets: output.summary.ingested,
        output,
        jsonl,
        imbalance_x1000,
    })
}

/// The lane generator the collector builds for `lane`.
fn lane_gen(cfg: &CollectorConfig, lane: Lane) -> LaneGen {
    let LaneSource::Synth {
        flows_per_window,
        size_dist,
        mean_gap_us,
    } = cfg.source
    else {
        panic!("benchmark collector workloads use synthetic lanes");
    };
    LaneGen::new(LaneConfig {
        seed: cfg.seed,
        lane: lane.lane,
        window_packets: cfg.window_packets,
        flows_per_window,
        size_dist,
        mean_gap_us,
    })
}

/// The sampler the collector builds for `lane`, with its seed fold.
fn lane_sampler(cfg: &CollectorConfig, lane: Lane) -> Box<dyn StreamSampler> {
    let seed = cfg
        .seed
        .wrapping_add(0xc01_1ec7)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(lane.lane));
    cfg.method
        .build(Micros::ZERO, Some(effective(cfg) as usize), 0, seed)
        .expect("workload sampling methods build")
}

fn effective(cfg: &CollectorConfig) -> u64 {
    cfg.window_packets.min(cfg.lane_queue)
}

/// What the serial recomposition produced and counted.
pub struct Recomposed {
    /// Rendered reports; must equal the entry point's byte for byte.
    pub jsonl: Vec<String>,
    /// Start to last report rendered, seconds.
    pub wall_s: f64,
    /// Packets generated.
    pub generated: u64,
    /// Packets offered to the windowers.
    pub offered: u64,
    /// Window payloads the windowers emitted.
    pub payloads: u64,
}

/// Rebuild every lane serially from the public calls the collector
/// makes, then merge and render the per-tenant reports as
/// `Collector::finish` does, with a span around each call.
#[must_use]
pub fn recompose(cfg: &CollectorConfig, tr: &mut Tracer) -> Recomposed {
    let eff = effective(cfg);
    let lanes: Vec<Lane> = cfg.fleet.lanes().collect();
    let mut states: Vec<(LaneGen, Windower)> = lanes
        .iter()
        .map(|&lane| {
            let windower = Windower::new(
                cfg.target,
                WindowSpec::Count(eff),
                None,
                lane_sampler(cfg, lane),
            )
            .with_flow_budget(cfg.lane_flow_budget);
            (lane_gen(cfg, lane), windower)
        })
        .collect();
    // Lane construction is `Collector::new`, the entry point's set-up;
    // the traced wall starts where its measured region does.
    let t0 = Instant::now();
    let mut windows: Vec<(Lane, WindowPayload)> = Vec::new();
    let mut shed: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    let mut chunk: Vec<PacketRecord> = Vec::with_capacity(SERVE_CHUNK);
    let (mut generated, mut offered_total) = (0u64, 0u64);
    for round in 0..cfg.windows {
        for (&lane, (gen, windower)) in lanes.iter().zip(states.iter_mut()) {
            let (mut produced, mut offered) = (0u64, 0u64);
            while produced < cfg.window_packets {
                let want = SERVE_CHUNK.min((cfg.window_packets - produced) as usize);
                chunk.clear();
                let got = tr.span("netsynth.lane", |_| gen.next_chunk(want, &mut chunk));
                produced += got as u64;
                let room = (eff - offered).min(got as u64) as usize;
                if room > 0 {
                    let out = tr.span("streamkit.windower", |_| {
                        windower.offer_slice(&chunk[..room])
                    });
                    windows.extend(out.into_iter().map(|p| (lane, p)));
                    offered += room as u64;
                }
            }
            shed.insert((round, lane.lane), produced - offered);
            generated += produced;
            offered_total += offered;
        }
    }
    for (&lane, (_, windower)) in lanes.iter().zip(states.iter_mut()) {
        let out = tr.span("streamkit.windower", |_| windower.finish());
        windows.extend(out.into_iter().map(|p| (lane, p)));
    }
    drop(states);
    let payloads = windows.len() as u64;
    let reports = tr.span("collectd.merge", |tr| {
        windows.sort_by_key(|(lane, p)| (p.index, lane.lane));
        merge_reports(cfg, &windows, &shed, tr)
    });
    let jsonl = tr.span("collectd.report.render", |_| {
        reports.iter().map(report_jsonl).collect::<Vec<String>>()
    });
    Recomposed {
        jsonl,
        wall_s: t0.elapsed().as_secs_f64(),
        generated,
        offered: offered_total,
        payloads,
    }
}

/// Per-(window, tenant) merge of sorted lane windows, as
/// `Collector::finish` builds its reports.
fn merge_reports(
    cfg: &CollectorConfig,
    windows: &[(Lane, WindowPayload)],
    shed: &BTreeMap<(u64, u32), u64>,
    tr: &mut Tracer,
) -> Vec<TenantWindowReport> {
    let k = cfg.inversion_interval();
    let mut reports = Vec::new();
    for group in windows.chunk_by(|a, b| a.1.index == b.1.index && a.0.tenant == b.0.tenant) {
        let (lane0, first) = (&group[0].0, &group[0].1);
        let mut population = first.population.clone();
        let mut sample = first.sample.clone();
        let mut sampled_sizes = first.sampled_sizes.clone();
        let (mut packets, mut selected, mut flows) = (first.packets, first.selected, first.flows);
        let (mut syn_flows, mut evicted, mut sampled_syn) = (
            first.syn_flows,
            first.evicted_flows,
            first.sampled_syn_flows,
        );
        for (_, w) in &group[1..] {
            population.merge(&w.population);
            sample.merge(&w.sample);
            packets += w.packets;
            selected += w.selected;
            flows += w.flows;
            syn_flows += w.syn_flows;
            evicted += w.evicted_flows;
            sampled_sizes.extend_from_slice(&w.sampled_sizes);
            sampled_syn += w.sampled_syn_flows;
        }
        let phi = tr.span("sampling.disparity", |_| {
            sampling::disparity(&population, &sample).map(|d| d.phi)
        });
        let (naive, tail, syn) = match k {
            Some(k) => tr.span("statkit.inversion", |_| {
                (
                    naive_scaling(&sampled_sizes, k).ok().map(|e| e.total_flows),
                    tail_rescale(&sampled_sizes, k).ok().map(|e| e.total_flows),
                    syn_flow_count(sampled_syn, k).ok(),
                )
            }),
            None => (None, None, None),
        };
        reports.push(TenantWindowReport {
            window: first.index,
            tenant: cfg.fleet.tenant_name(lane0.tenant).to_string(),
            lanes: group.len() as u32,
            packets,
            selected,
            shed: group
                .iter()
                .map(|(lane, _)| shed.get(&(first.index, lane.lane)).copied().unwrap_or(0))
                .sum(),
            flows,
            syn_flows,
            evicted_flows: evicted,
            phi,
            sampled_flows: sampled_sizes.len() as u64,
            sampled_syn_flows: sampled_syn,
            est_flows_naive: naive,
            est_flows_tail: tail,
            est_syn_flows: syn,
        });
    }
    reports
}

/// Sub-attributions of the windower, timed on a replay of the same
/// packets outside the traced wall.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Packets offered to the replayed samplers.
    pub sampler_packets: u64,
    /// Time in `StreamSampler::offer`, seconds.
    pub sampler_s: f64,
    /// Packets offered to parent flow tables.
    pub parent_packets: u64,
    /// Time filling (and truncating) parent flow tables, seconds.
    pub parent_s: f64,
    /// Selected packets offered to sampled flow tables.
    pub sampled_packets: u64,
    /// Time filling (and truncating) sampled flow tables, seconds.
    pub sampled_s: f64,
    /// Heap bytes per live flow of each filled parent table.
    pub heap_bytes_per_flow: Vec<f64>,
    /// Packets the replayed samplers selected.
    pub selected: u64,
}

/// Offer `pkts` (one window, in order) to `sampler` the way the windower
/// does, returning the selected packets and the time spent in `offer`.
pub fn replay_sampler(
    sampler: &mut dyn StreamSampler,
    pkts: &[PacketRecord],
) -> (Vec<PacketRecord>, f64) {
    let mut verdicts = Vec::with_capacity(pkts.len());
    let t0 = Instant::now();
    let mut prev: Option<Micros> = None;
    for p in pkts {
        let gap = prev.map(|t| p.timestamp.saturating_sub(t).as_u64());
        verdicts.push(sampler.offer(p, gap) == Offer::Selected);
        prev = Some(p.timestamp);
    }
    let busy = t0.elapsed().as_secs_f64();
    let selected = pkts
        .iter()
        .zip(verdicts)
        .filter_map(|(p, v)| v.then_some(*p))
        .collect();
    (selected, busy)
}

/// Fill a parent table (pre-sized like a windower bucket) and a sampled
/// table from one bucket's packets, truncate both to `budget` when one
/// is given, and record the time and the parent table's heap bytes per
/// flow into `r`.
pub fn replay_tables(
    r: &mut Replay,
    all: &[PacketRecord],
    selected: &[PacketRecord],
    budget: Option<usize>,
) {
    let heap0 = alloc::live_bytes();
    let t0 = Instant::now();
    let mut parent = FlowTable::unbounded();
    parent.reserve(BUCKET_RESERVE);
    for p in all {
        parent.offer(p);
    }
    let t1 = Instant::now();
    let heap = alloc::live_bytes() - heap0;
    let flows = parent.len();
    if let Some(b) = budget {
        parent.truncate_lru(b);
    }
    r.parent_s += (t1 - t0).as_secs_f64() + t1.elapsed().as_secs_f64();
    r.parent_packets += all.len() as u64;
    if flows > 0 {
        r.heap_bytes_per_flow.push(heap as f64 / flows as f64);
    }
    drop(parent);
    let t2 = Instant::now();
    let mut sampled = FlowTable::unbounded();
    for p in selected {
        sampled.offer(p);
    }
    if let Some(b) = budget {
        sampled.truncate_lru(b);
    }
    r.sampled_s += t2.elapsed().as_secs_f64();
    r.sampled_packets += selected.len() as u64;
}

/// Regenerate every lane's windows and replay them through a fresh
/// sampler and fresh flow tables, window by window.
#[must_use]
pub fn replay(cfg: &CollectorConfig) -> Replay {
    let eff = effective(cfg) as usize;
    let mut r = Replay::default();
    let mut pkts: Vec<PacketRecord> = Vec::with_capacity(cfg.window_packets as usize);
    for lane in cfg.fleet.lanes() {
        let mut gen = lane_gen(cfg, lane);
        let mut sampler = lane_sampler(cfg, lane);
        for _ in 0..cfg.windows {
            pkts.clear();
            gen.next_chunk(cfg.window_packets as usize, &mut pkts);
            let window = &pkts[..eff.min(pkts.len())];
            let (selected, busy) = replay_sampler(sampler.as_mut(), window);
            r.sampler_s += busy;
            r.sampler_packets += window.len() as u64;
            r.selected += selected.len() as u64;
            replay_tables(&mut r, window, &selected, Some(cfg.lane_flow_budget));
        }
    }
    r
}
