//! Mutation campaigns over the capture readers.
//!
//! Every case builds a corrupted image from a valid corpus, then holds
//! the readers to their contract:
//!
//! * the strict reader ([`nettrace::read_capture`]) and the streaming
//!   decoder it drains ([`nettrace::CaptureStream`]) return a typed
//!   [`TraceError`] or valid packets — never a panic;
//! * the lossy reader ([`nettrace::lossy::salvage`]) never fails at
//!   all: it reports a consistent salvage (`bytes_consumed ≤ total`,
//!   `packets_salvaged = trace.len()`, fault offset within the image);
//! * salvage is the oracle. It parses the framing independently from a
//!   slice, and both `Read`-based paths must agree with it on every
//!   image: a clean salvage exactly when the reader accepts; on accept
//!   the same packets (the stream yields file order, so it is compared
//!   through `Trace::from_unordered`); on reject, salvage's first fault
//!   carries the reader's error, variant and payload, and — for the
//!   stream — sits at its [`fault_offset`](nettrace::CaptureStream::fault_offset)
//!   (offset 0 for an error from [`nettrace::CaptureStream::new`]).
//!
//! The campaign is a pure function of the seed; its [`Digest`] folds
//! every case's classification so cross-run identity is one comparison.
//! The oracle checks only add findings; they do not feed the digest.

use crate::corpus::{pcap_corpus, pcapng_corpus, Corpus};
use crate::mutate::Mutation;
use crate::{Digest, Finding};
use nettrace::error::TraceError;
use nettrace::trace::Trace;
use nettrace::PacketRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutation-campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed; everything below derives from it.
    pub seed: u64,
    /// Random mutation cases to run (the structured truncation sweep
    /// over every corpus boundary runs in addition to these).
    pub iterations: u32,
    /// Packets per generated corpus.
    pub corpus_packets: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1993,
            iterations: 10_000,
            corpus_packets: 60,
        }
    }
}

/// Outcome of a mutation campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// Total cases executed (boundary sweep + random mutations).
    pub cases: u64,
    /// Classification → count, e.g. `"pcap/ok"`, `"pcapng/truncated"`.
    pub outcomes: BTreeMap<String, u64>,
    /// Contract violations; empty on a healthy tree.
    pub findings: Vec<Finding>,
    /// Order-sensitive digest over every case's classification — equal
    /// digests mean byte-identical campaigns.
    pub digest: u64,
}

/// Stable short name for a strict-read outcome.
fn classify(result: &Result<Trace, TraceError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(e) => classify_error(e),
    }
}

/// Stable short name for a [`TraceError`] variant.
fn classify_error(error: &TraceError) -> &'static str {
    match error {
        TraceError::BadMagic(_) => "bad_magic",
        TraceError::TruncatedRecord { .. } => "truncated",
        TraceError::OversizedRecord { .. } => "oversized",
        TraceError::Io(_) => "io",
        _ => "other",
    }
}

/// Two errors are the same variant with the same payload.
fn same_error(a: &TraceError, b: &TraceError) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Drain a [`nettrace::CaptureStream`] over `image`: every packet in
/// file order, or the error with the offset the stream reports for it
/// (0 for an error in the header stage).
fn drain_stream(image: &[u8]) -> Result<Vec<PacketRecord>, (TraceError, Option<u64>)> {
    let mut stream = nettrace::CaptureStream::new(image).map_err(|e| (e, Some(0)))?;
    let mut packets = Vec::new();
    loop {
        match stream.next_packet() {
            Ok(Some(p)) => packets.push(p),
            Ok(None) => return Ok(packets),
            Err(e) => return Err((e, stream.fault_offset())),
        }
    }
}

struct Campaign {
    outcomes: BTreeMap<String, u64>,
    findings: Vec<Finding>,
    digest: Digest,
    cases: u64,
}

impl Campaign {
    fn run_case(&mut self, source: &str, image: &[u8], what: &str) {
        let case_id = self.cases;
        self.cases += 1;

        let mut violations = Vec::new();
        let strict = catch_unwind(AssertUnwindSafe(|| nettrace::read_capture(image)));
        let class = match &strict {
            Ok(result) => classify(result),
            Err(panic) => {
                let msg = crate::panic_message(&**panic);
                violations.push(format!("strict reader panicked: {msg} ({what})"));
                "panic"
            }
        };
        *self
            .outcomes
            .entry(format!("{source}/{class}"))
            .or_insert(0) += 1;
        self.digest.update(source.as_bytes());
        self.digest.update(class.as_bytes());

        let lossy = catch_unwind(AssertUnwindSafe(|| nettrace::lossy::salvage(image)));
        let mut violate = |detail: String| violations.push(format!("{detail} ({what})"));
        match &lossy {
            Err(panic) => violate(format!(
                "lossy reader panicked: {}",
                crate::panic_message(&**panic)
            )),
            Ok(report) => {
                if report.bytes_consumed > report.bytes_total {
                    violate(format!(
                        "lossy consumed {} of {} bytes",
                        report.bytes_consumed, report.bytes_total
                    ));
                }
                if report.packets_salvaged != report.trace.len() {
                    violate(format!(
                        "salvage count {} != trace length {}",
                        report.packets_salvaged,
                        report.trace.len()
                    ));
                }
                for fault in &report.faults {
                    if fault.offset > report.bytes_total {
                        violate(format!(
                            "fault offset {} beyond image of {} bytes",
                            fault.offset, report.bytes_total
                        ));
                    }
                }
                for pair in report.faults.windows(2) {
                    if pair[0].offset >= pair[1].offset {
                        violate(format!(
                            "fault offsets not strictly increasing: {} then {}",
                            pair[0].offset, pair[1].offset
                        ));
                    }
                }
                // Salvage as the strict reader's oracle.
                match (&strict, report.first_fault()) {
                    (Ok(Ok(trace)), None) if trace.packets() != report.trace.packets() => {
                        violate(format!(
                            "strict read {} packets that differ from salvage's {}",
                            trace.len(),
                            report.packets_salvaged
                        ));
                    }
                    (Ok(Ok(trace)), Some(fault)) => violate(format!(
                        "strict accepted {} packets but lossy faulted: {}",
                        trace.len(),
                        fault.error
                    )),
                    (Ok(Err(e)), None) => {
                        violate(format!("strict rejected ({e}) a stream lossy called clean"));
                    }
                    (Ok(Err(e)), Some(fault)) if !same_error(e, &fault.error) => {
                        violate(format!(
                            "strict failed with {e:?} but salvage's first fault is {:?}",
                            fault.error
                        ));
                    }
                    _ => {}
                }
                self.digest.update_u64(report.packets_salvaged as u64);
                self.digest.update_u64(report.bytes_consumed);
                self.digest.update_u64(report.faults.len() as u64);
            }
        }

        let streamed = catch_unwind(AssertUnwindSafe(|| drain_stream(image)));
        match &streamed {
            Err(panic) => violate(format!(
                "streaming reader panicked: {}",
                crate::panic_message(&**panic)
            )),
            Ok(streamed) => {
                // Salvage as the stream's oracle: verdict, packets, and
                // the first fault's offset and error.
                match (streamed, lossy.as_ref().map(|r| (r, r.first_fault()))) {
                    (Ok(packets), Ok((report, None))) => {
                        if Trace::from_unordered(packets.clone()).packets()
                            != report.trace.packets()
                        {
                            violate(format!(
                                "stream read {} packets that differ from salvage's {}",
                                packets.len(),
                                report.packets_salvaged
                            ));
                        }
                    }
                    (Ok(packets), Ok((_, Some(fault)))) => violate(format!(
                        "stream read {} packets but lossy faulted at {}: {}",
                        packets.len(),
                        fault.offset,
                        fault.error
                    )),
                    (Err((e, _)), Ok((_, None))) => {
                        violate(format!(
                            "stream failed ({e}) on a stream lossy called clean"
                        ));
                    }
                    (Err((e, at)), Ok((_, Some(fault)))) => {
                        if *at != Some(fault.offset) || !same_error(e, &fault.error) {
                            violate(format!(
                                "stream failed with {e:?} at {at:?} but salvage's first fault \
                                 is {:?} at {}",
                                fault.error, fault.offset
                            ));
                        }
                    }
                    (_, Err(_)) => {} // lossy panic already recorded
                }
                self.digest
                    .update_u64(streamed.as_ref().map_or(u64::MAX, |p| p.len() as u64));
            }
        }
        self.findings
            .extend(violations.into_iter().map(|detail| Finding {
                case_id,
                source: source.to_string(),
                detail,
            }));
    }
}

/// Run the full campaign: a truncation sweep at (and adjacent to) every
/// structure boundary of both corpora, then `iterations` random
/// mutation cases split across them.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let _span = obskit::span("faultkit_campaign");
    let corpora: [Corpus; 2] = [
        pcap_corpus(cfg.seed, cfg.corpus_packets),
        pcapng_corpus(cfg.seed, cfg.corpus_packets),
    ];
    let mut campaign = Campaign {
        outcomes: BTreeMap::new(),
        findings: Vec::new(),
        digest: Digest::new(),
        cases: 0,
    };

    // Structured sweep: truncate at every boundary and one byte to
    // either side — the exact cuts a crashed capture process produces.
    for corpus in &corpora {
        for &b in &corpus.boundaries {
            for cut in [b.saturating_sub(1), b, b + 1] {
                if cut <= corpus.bytes.len() {
                    campaign.run_case(
                        corpus.name,
                        &corpus.bytes[..cut],
                        &format!("truncate->{cut}"),
                    );
                }
            }
        }
    }

    // Random mutation phase: 1–3 stacked mutations per case.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in 0..cfg.iterations {
        let corpus = &corpora[(i % 2) as usize];
        let mut image = corpus.bytes.clone();
        let count = rng.random_range(1u32..=3);
        let described: Vec<String> = (0..count)
            .map(|_| {
                let m = Mutation::draw(&mut rng, image.len());
                m.apply(&mut image);
                m.to_string()
            })
            .collect();
        campaign.run_case(corpus.name, &image, &described.join("+"));
    }

    obskit::counter("faultkit_campaign_cases_total").add(campaign.cases);
    obskit::counter("faultkit_campaign_findings_total").add(campaign.findings.len() as u64);
    CampaignReport {
        cases: campaign.cases,
        outcomes: campaign.outcomes,
        findings: campaign.findings,
        digest: campaign.digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            iterations: 400,
            corpus_packets: 20,
        }
    }

    #[test]
    fn campaign_finds_nothing_on_a_healthy_tree() {
        let report = run_campaign(&small());
        assert!(
            report.findings.is_empty(),
            "campaign found real bugs:\n{}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.cases > 400, "sweep cases missing: {}", report.cases);
    }

    #[test]
    fn campaign_is_bit_identical_across_runs() {
        let a = run_campaign(&small());
        let b = run_campaign(&small());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.cases, b.cases);
        let c = run_campaign(&CampaignConfig {
            seed: 43,
            ..small()
        });
        assert_ne!(a.digest, c.digest, "digest must track the seed");
    }

    #[test]
    fn campaign_exercises_every_outcome_class() {
        let report = run_campaign(&small());
        let classes: Vec<&str> = report
            .outcomes
            .keys()
            .map(|k| k.split('/').nth(1).expect("source/class"))
            .collect();
        for want in ["ok", "bad_magic", "truncated"] {
            assert!(classes.contains(&want), "missing class {want}: {classes:?}");
        }
        // Both corpora ran.
        assert!(report.outcomes.keys().any(|k| k.starts_with("pcap/")));
        assert!(report.outcomes.keys().any(|k| k.starts_with("pcapng/")));
    }
}
