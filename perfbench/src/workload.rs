//! The three workloads and their two sizes.
//!
//! All three are closed loops: the entry point pulls from the lane
//! generator or the capture reader as fast as it consumes. The full
//! size is what the benchmark measures; the small size keeps the
//! equivalence tests quick while exercising the same code paths.

use collectd::{CollectorConfig, LaneSource};
use netstat_sim::Fleet;
use netsynth::{FlowSizeDist, LaneConfig};
use nettrace::Micros;
use sampling::{MethodSpec, Target};
use streamkit::{StreamConfig, StreamMethod, WindowSpec};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Flow-state bound collector: 150k Zipf flows per lane-window.
    ServeSoak,
    /// Same fleet with 300 flows per lane-window: per-packet overhead.
    ServeElephants,
    /// `run_stream` over a pcap written from a netsynth lane.
    StreamCapture,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeSoak,
        Workload::ServeElephants,
        Workload::StreamCapture,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSoak => "serve-soak",
            Workload::ServeElephants => "serve-elephants",
            Workload::StreamCapture => "stream-capture",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Benchmark size or test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A small shape of the same path, for tests.
    Small,
}

/// Worker threads the collector runs on (the box has two cores).
pub const SERVE_JOBS: usize = 2;

/// Packets the collector pulls from a lane per step (mirrors collectd).
pub const SERVE_CHUNK: usize = 8_192;

/// A collector workload's configuration.
#[must_use]
pub fn serve_config(w: Workload, size: Size, seed: u64) -> CollectorConfig {
    let elephants = w == Workload::ServeElephants;
    let (interfaces, shards, window_packets, flows, budget) = match size {
        Size::Full => (
            4,
            4,
            300_000,
            if elephants { 300 } else { 150_000 },
            200_000,
        ),
        Size::Small => (2, 2, 20_000, if elephants { 50 } else { 5_000 }, 8_000),
    };
    let windows = match (size, elephants) {
        (Size::Full, false) => 2,
        (Size::Full, true) => 10,
        (Size::Small, _) => 2,
    };
    let method = if elephants {
        MethodSpec::StratifiedRandom { bucket: 10 }
    } else {
        MethodSpec::Systematic { interval: 10 }
    };
    CollectorConfig {
        fleet: Fleet::anonymous(2, interfaces).expect("a 2-tenant fleet is valid"),
        shards,
        method: StreamMethod::Spec(method),
        target: Target::PacketSize,
        windows,
        window_packets,
        lane_queue: window_packets,
        lane_flow_budget: budget,
        seed,
        source: LaneSource::Synth {
            flows_per_window: flows,
            size_dist: FlowSizeDist::Zipf {
                max_size: 10_000,
                alpha: 1.2,
            },
            mean_gap_us: 20,
        },
    }
}

/// The stream workload: the lane that writes its capture, the packet
/// count, and the `run_stream` configuration.
#[derive(Debug, Clone)]
pub struct StreamShape {
    /// Generator of the capture's packets.
    pub lane: LaneConfig,
    /// Packets written to the capture.
    pub packets: u64,
    /// The entry point's configuration.
    pub config: StreamConfig,
}

/// The stream workload's shape.
#[must_use]
pub fn stream_shape(size: Size, seed: u64) -> StreamShape {
    let packets = match size {
        Size::Full => 4_000_000,
        Size::Small => 200_000,
    };
    let mut config = StreamConfig::new(
        StreamMethod::Spec(MethodSpec::GeometricSkip { mean_interval: 10 }),
        Target::Interarrival,
        WindowSpec::Time(Micros(1_000_000)),
    );
    config.slide = Some(WindowSpec::Time(Micros(250_000)));
    config.seed = seed;
    StreamShape {
        lane: LaneConfig {
            seed,
            lane: 0,
            window_packets: 100_000,
            flows_per_window: 10_000,
            size_dist: FlowSizeDist::Zipf {
                max_size: 10_000,
                alpha: 1.2,
            },
            mean_gap_us: 20,
        },
        packets,
        config,
    }
}
