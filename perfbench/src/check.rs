//! Output checks behind `ok_frac`, the report digest, and small
//! statistics helpers.
//!
//! Every check here is computed from the workload's configuration and
//! the generated input, not from the code under test: the expected
//! report count, packet conservation, finite φ, and packets read equal
//! to packets written.

use collectd::{CollectorConfig, CollectorOutput};
use streamkit::WindowSpec;

/// Reports a run was expected to produce, and how many of them were
/// missing or failed a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Expected reports.
    pub attempted: u64,
    /// Expected reports that were missing or failed a check.
    pub failed: u64,
}

impl Verdict {
    /// Add another run's tallies.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of expected reports that passed every check.
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// FNV-1a over the report lines, newline-terminated: the run's digest.
#[must_use]
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Check a collector run: conservation (`ingested == considered +
/// shed`), one report per (window, tenant), each with every lane's
/// offered packets and a finite φ.
#[must_use]
pub fn check_serve(cfg: &CollectorConfig, out: &CollectorOutput) -> Verdict {
    let tenants = cfg.fleet.tenants();
    let attempted = cfg.windows * tenants.len() as u64;
    let s = &out.summary;
    if s.ingested != s.considered + s.shed
        || s.ingested != cfg.windows * cfg.window_packets * u64::from(cfg.fleet.lane_count())
    {
        return Verdict {
            attempted,
            failed: attempted,
        };
    }
    let lanes = cfg.fleet.interfaces();
    let offered = cfg.window_packets.min(cfg.lane_queue) * u64::from(lanes);
    let mut ok = 0u64;
    for window in 0..cfg.windows {
        for tenant in tenants {
            let mut matching = out
                .reports
                .iter()
                .filter(|r| r.window == window && &r.tenant == tenant);
            let good = match (matching.next(), matching.next()) {
                (Some(r), None) => {
                    r.lanes == lanes && r.packets == offered && r.phi.is_some_and(f64::is_finite)
                }
                _ => false,
            };
            ok += u64::from(good);
        }
    }
    // A report for a (window, tenant) the run never asked for is a
    // failure too, without letting `failed` exceed `attempted`.
    let extra = (out.reports.len() as u64).saturating_sub(attempted);
    Verdict {
        attempted,
        failed: (attempted - ok + extra).min(attempted),
    }
}

/// Windows a stream run over packets stamped `first_us..=last_us` must
/// emit: every stride bucket from the first packet's grid start through
/// the last packet's closes once, a window completes at each close once
/// `window / stride` buckets are held, and a stream shorter than one
/// window still yields one partial window. Valid for traffic whose gaps
/// never exceed a stride, so that no window is empty.
#[must_use]
pub fn expected_stream_windows(
    window: WindowSpec,
    slide: WindowSpec,
    first_us: u64,
    last_us: u64,
) -> u64 {
    let (WindowSpec::Time(w), WindowSpec::Time(s)) = (window, slide) else {
        panic!("stream workloads use time windows");
    };
    let (w, s) = (w.as_u64(), s.as_u64());
    let buckets = (last_us - first_us) / s + 1;
    let per_window = w / s;
    if buckets >= per_window {
        buckets - per_window + 1
    } else {
        1
    }
}

/// One rendered stream window: the deterministic fields of a
/// `streamkit::WindowReport` (queueing lag and RSS vary run to run and
/// are left out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamWindow {
    /// Emission index.
    pub index: u64,
    /// Window grid start, µs.
    pub start_us: u64,
    /// First packet timestamp, µs.
    pub first_us: Option<u64>,
    /// Last packet timestamp, µs.
    pub last_us: Option<u64>,
    /// Packets in the window.
    pub packets: u64,
    /// Packets selected.
    pub selected: u64,
    /// Live flows.
    pub flows: u64,
    /// Flows that began in the window.
    pub syn_flows: u64,
    /// φ, when the window was scored.
    pub phi: Option<f64>,
}

impl StreamWindow {
    /// The window as one JSONL line.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let phi = match self.phi {
            Some(p) if p.is_finite() => format!("{p}"),
            _ => "null".to_string(),
        };
        format!(
            "{{\"index\":{},\"start_us\":{},\"first_us\":{},\"last_us\":{},\"packets\":{},\"selected\":{},\"flows\":{},\"syn_flows\":{},\"phi\":{}}}",
            self.index,
            self.start_us,
            opt(self.first_us),
            opt(self.last_us),
            self.packets,
            self.selected,
            self.flows,
            self.syn_flows,
            phi
        )
    }
}

/// Check a stream run: every written packet was read and offered or
/// counted as dropped, the expected number of windows arrived in order,
/// and each holds packets and a finite φ.
#[must_use]
pub fn check_stream(
    written: u64,
    read: u64,
    dropped: u64,
    expected: u64,
    windows: &[StreamWindow],
) -> Verdict {
    if read + dropped != written || dropped != 0 {
        return Verdict {
            attempted: expected,
            failed: expected,
        };
    }
    let ok = windows
        .iter()
        .enumerate()
        .take(expected as usize)
        .filter(|(i, w)| w.index == *i as u64 && w.packets > 0 && w.phi.is_some_and(f64::is_finite))
        .count() as u64;
    let extra = (windows.len() as u64).saturating_sub(expected);
    Verdict {
        attempted: expected,
        failed: (expected - ok + extra).min(expected),
    }
}

/// Median of a sample (mean of the middle pair for even sizes); 0 for
/// an empty one.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Micros;

    #[test]
    fn digest_depends_on_every_byte_and_line_break() {
        let a = vec!["ab".to_string(), "c".to_string()];
        let b = vec!["a".to_string(), "bc".to_string()];
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn stream_window_count_follows_the_bucket_grid() {
        let (w, s) = (
            WindowSpec::Time(Micros(1_000_000)),
            WindowSpec::Time(Micros(250_000)),
        );
        // 10 s of traffic: 40 buckets, 37 full sliding windows.
        assert_eq!(expected_stream_windows(w, s, 0, 9_999_999), 37);
        // Shorter than one window: one partial window.
        assert_eq!(expected_stream_windows(w, s, 5, 400_000), 1);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
