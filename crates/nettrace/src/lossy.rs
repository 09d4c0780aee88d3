//! Lossy capture ingestion: salvage the longest valid prefix.
//!
//! The strict reader ([`crate::read_capture`], which drains a
//! [`crate::CaptureStream`]) rejects a capture at the first
//! malformed byte — the right default for experiments, where a silent
//! partial read would bias every downstream statistic. But real capture
//! files are routinely truncated (full disk, killed tcpdump) and a
//! 649 MB trace with one bad record tail is still 649 MB of usable
//! population. [`read_capture_lossy`] parses as far as the bytes allow
//! and reports exactly what it could and could not use: packets
//! salvaged, bytes consumed, and every fault with its byte offset.
//!
//! pcapng goes further than prefix salvage: the format is a sequence of
//! self-delimiting sections, each introduced by a Section Header Block,
//! so a corrupt block in section 1 need not cost the sections after it.
//! On an undecodable block the salvager records the fault, scans
//! forward for the next plausible SHB (magic, valid byte-order mark,
//! sane and fully contained block length), and resumes there — one
//! fault entry per damaged region. Classic pcap has no such resync
//! marker (records are not self-delimiting once a length field is
//! corrupt), so pcap salvage remains longest-valid-prefix with at most
//! one fault.
//!
//! The lossy path parses from an in-memory slice (offsets are exact and
//! a corrupt length field can never drive an unbounded allocation — the
//! declared length is bounds-checked against the bytes actually
//! present). It shares only the record and block *body* decoders with
//! [`crate::CaptureStream`]; the framing — sniffing, length checks,
//! truncation — is parsed here independently, which makes [`salvage`]
//! the reference the stream is checked against. On any image, salvage
//! is clean exactly when the stream reads it without error, and then
//! holds the same packets as the strict read; otherwise its first fault
//! carries the stream's error at the stream's
//! [`fault_offset`](crate::CaptureStream::fault_offset) (offset 0 for a
//! header-stage error).

use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::pcap;
use crate::pcapng;
use crate::time::Micros;
use crate::trace::Trace;
use std::io::Read;

/// Outcome of a lossy capture read: the salvaged prefix plus a precise
/// account of where (and why) parsing stopped.
#[derive(Debug)]
pub struct IngestReport {
    /// Packets recovered from the valid prefix, sorted by timestamp.
    pub trace: Trace,
    /// Capture format the stream sniffed as: `"pcap"`, `"pcapng"`, or
    /// `"unknown"` when even the magic could not be classified.
    pub format: &'static str,
    /// Bytes of the stream that parsed into complete structures. On a
    /// fully valid stream this equals `bytes_total`; garbage skipped
    /// while resynchronizing to a later pcapng section is excluded.
    pub bytes_consumed: u64,
    /// Total bytes in the stream.
    pub bytes_total: u64,
    /// Number of packets salvaged (equals `trace.len()`).
    pub packets_salvaged: usize,
    /// Every parse failure, in stream order: the byte offset of the
    /// structure that could not be decoded, and the typed error. For
    /// pcap at most one entry (no resync marker); for pcapng one entry
    /// per damaged region the salvager skipped.
    pub faults: Vec<IngestFault>,
}

impl IngestReport {
    /// Whether the whole stream parsed cleanly (the strict reader
    /// would have accepted it).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// The earliest fault, if any.
    #[must_use]
    pub fn first_fault(&self) -> Option<&IngestFault> {
        self.faults.first()
    }
}

/// A parse failure localized to a byte offset.
#[derive(Debug)]
pub struct IngestFault {
    /// Offset of the record or block that failed to decode.
    pub offset: u64,
    /// Why it failed. Never [`TraceError::Io`]: the lossy reader works
    /// from an in-memory buffer.
    pub error: TraceError,
}

/// Read a capture stream leniently, salvaging every packet in the
/// longest valid prefix. Sniffs classic pcap vs pcapng exactly like
/// [`crate::read_capture`].
///
/// # Errors
/// Only [`TraceError::Io`], from buffering the stream. Malformed bytes
/// are never an `Err`: they end up in [`IngestReport::faults`].
pub fn read_capture_lossy<R: Read>(mut r: R) -> Result<IngestReport, TraceError> {
    let _span = obskit::span("nettrace_lossy_read");
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let report = salvage(&bytes);
    let labels = [("format", report.format)];
    obskit::counter_labeled("nettrace_lossy_packets_salvaged_total", &labels)
        .add(report.packets_salvaged as u64);
    if !report.is_clean() {
        obskit::counter_labeled("nettrace_lossy_faults_total", &labels)
            .add(report.faults.len() as u64);
    }
    Ok(report)
}

/// Salvage from an in-memory capture image.
#[must_use]
pub fn salvage(bytes: &[u8]) -> IngestReport {
    if bytes.len() < 4 {
        return IngestReport {
            trace: Trace::empty(),
            format: "unknown",
            bytes_consumed: 0,
            bytes_total: bytes.len() as u64,
            packets_salvaged: 0,
            faults: vec![IngestFault {
                offset: 0,
                error: TraceError::TruncatedRecord { packets_read: 0 },
            }],
        };
    }
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if u32::from_le_bytes(magic) == pcapng::SHB_TYPE {
        salvage_pcapng(bytes)
    } else if pcap::sniff_magic(magic).is_some() {
        salvage_pcap(bytes)
    } else {
        IngestReport {
            trace: Trace::empty(),
            format: "unknown",
            bytes_consumed: 0,
            bytes_total: bytes.len() as u64,
            packets_salvaged: 0,
            faults: vec![IngestFault {
                offset: 0,
                error: TraceError::BadMagic(u32::from_le_bytes(magic)),
            }],
        }
    }
}

fn report(
    format: &'static str,
    packets: Vec<PacketRecord>,
    consumed: u64,
    total: u64,
    faults: Vec<IngestFault>,
) -> IngestReport {
    let trace = Trace::from_unordered(packets);
    IngestReport {
        packets_salvaged: trace.len(),
        trace,
        format,
        bytes_consumed: consumed,
        bytes_total: total,
        faults,
    }
}

fn salvage_pcap(bytes: &[u8]) -> IngestReport {
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    let (endian, nanos) = pcap::sniff_magic(magic).expect("caller sniffed the magic");
    let total = bytes.len() as u64;
    if bytes.len() < 24 {
        return report(
            "pcap",
            Vec::new(),
            0,
            total,
            vec![IngestFault {
                offset: 0,
                error: TraceError::TruncatedRecord { packets_read: 0 },
            }],
        );
    }
    let mut packets = Vec::new();
    let mut o = 24usize;
    let fault = loop {
        if o == bytes.len() {
            break None;
        }
        if o + 16 > bytes.len() {
            break Some(IngestFault {
                offset: o as u64,
                error: TraceError::TruncatedRecord {
                    packets_read: packets.len(),
                },
            });
        }
        let (ts, caplen, orig_len) = pcap::parse_record_header(endian, nanos, &bytes[o..]);
        if caplen > pcap::MAX_CAPLEN {
            break Some(IngestFault {
                offset: o as u64,
                error: TraceError::OversizedRecord { caplen },
            });
        }
        let end = o + 16 + caplen as usize;
        if end > bytes.len() {
            break Some(IngestFault {
                offset: o as u64,
                error: TraceError::TruncatedRecord {
                    packets_read: packets.len(),
                },
            });
        }
        packets.push(pcap::parse_ipv4(&bytes[o + 16..end], orig_len, ts));
        o = end;
    };
    let consumed = o as u64;
    report(
        "pcap",
        packets,
        consumed,
        total,
        fault.into_iter().collect(),
    )
}

/// Scan forward from `from` for the next plausible Section Header
/// Block: the SHB magic (an endianness-neutral palindrome), a valid
/// byte-order mark, and a sane block length wholly contained in the
/// buffer. Plausibility matters — a bare magic inside garbage must not
/// trigger a resync that immediately faults again.
fn find_next_shb(bytes: &[u8], from: usize) -> Option<usize> {
    let magic = pcapng::SHB_TYPE.to_le_bytes();
    let mut at = from;
    while at + 28 <= bytes.len() {
        if bytes[at..at + 4] == magic {
            let bom = [bytes[at + 8], bytes[at + 9], bytes[at + 10], bytes[at + 11]];
            if let Some(endian) = pcapng::bom_endian(bom) {
                let total_len = endian.u32(&bytes[at + 4..at + 8]);
                if (28..=pcapng::MAX_BLOCK).contains(&total_len)
                    && total_len.is_multiple_of(4)
                    && at + total_len as usize <= bytes.len()
                {
                    return Some(at);
                }
            }
        }
        at += 1;
    }
    None
}

fn salvage_pcapng(bytes: &[u8]) -> IngestReport {
    let total = bytes.len() as u64;
    let mut packets: Vec<PacketRecord> = Vec::new();
    let mut interfaces: Vec<pcapng::Interface> = Vec::new();
    let mut faults: Vec<IngestFault> = Vec::new();
    let mut endian = pcap::Endian::Little;
    let mut first = true;
    let mut consumed = 0u64;
    let mut o = 0usize;
    loop {
        if o == bytes.len() {
            if first {
                faults.push(IngestFault {
                    offset: 0,
                    error: TraceError::TruncatedRecord { packets_read: 0 },
                });
            }
            break;
        }
        let truncated = |at: usize, got: usize| IngestFault {
            offset: at as u64,
            error: TraceError::TruncatedRecord { packets_read: got },
        };
        // On any undecodable block: record the fault, then resume at
        // the next plausible section header — later sections are still
        // good data. No plausible SHB forward of the fault ends the
        // salvage.
        let fault = 'block: {
            if o + 8 > bytes.len() {
                break 'block Some(truncated(o, packets.len()));
            }
            let raw_type_le =
                u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
            if first && raw_type_le != pcapng::SHB_TYPE {
                break 'block Some(IngestFault {
                    offset: o as u64,
                    error: TraceError::BadMagic(raw_type_le),
                });
            }
            if raw_type_le == pcapng::SHB_TYPE {
                if o + 12 > bytes.len() {
                    break 'block Some(truncated(o, packets.len()));
                }
                let bom = [bytes[o + 8], bytes[o + 9], bytes[o + 10], bytes[o + 11]];
                let Some(section_endian) = pcapng::bom_endian(bom) else {
                    break 'block Some(IngestFault {
                        offset: o as u64,
                        error: TraceError::BadMagic(u32::from_le_bytes(bom)),
                    });
                };
                endian = section_endian;
                let total_len = endian.u32(&bytes[o + 4..o + 8]);
                if !(28..=pcapng::MAX_BLOCK).contains(&total_len) || !total_len.is_multiple_of(4) {
                    break 'block Some(IngestFault {
                        offset: o as u64,
                        error: TraceError::OversizedRecord { caplen: total_len },
                    });
                }
                if o + total_len as usize > bytes.len() {
                    break 'block Some(truncated(o, packets.len()));
                }
                interfaces.clear();
                first = false;
                consumed += u64::from(total_len);
                o += total_len as usize;
                break 'block None;
            }
            let block_type = endian.u32(&bytes[o..o + 4]);
            let total_len = endian.u32(&bytes[o + 4..o + 8]);
            if !(12..=pcapng::MAX_BLOCK).contains(&total_len) || !total_len.is_multiple_of(4) {
                break 'block Some(IngestFault {
                    offset: o as u64,
                    error: TraceError::OversizedRecord { caplen: total_len },
                });
            }
            let end = o + total_len as usize;
            if end > bytes.len() {
                break 'block Some(truncated(o, packets.len()));
            }
            let body = &bytes[o + 8..end - 4];
            match block_type {
                pcapng::IDB_TYPE => {
                    if let Some(iface) = pcapng::parse_idb(endian, body) {
                        interfaces.push(iface);
                    }
                }
                pcapng::EPB_TYPE => {
                    if let Some(p) = pcapng::parse_epb(endian, body, &interfaces) {
                        packets.push(p);
                    }
                }
                pcapng::SPB_TYPE => {
                    let ts = packets.last().map_or(Micros::ZERO, |p| p.timestamp);
                    if let Some(p) = pcapng::parse_spb(endian, body, ts) {
                        packets.push(p);
                    }
                }
                _ => {}
            }
            consumed += u64::from(total_len);
            o = end;
            None
        };
        if let Some(fault) = fault {
            let resume_from = fault.offset as usize + 1;
            faults.push(fault);
            match find_next_shb(bytes, resume_from) {
                // A new section resets interface state on its own (the
                // SHB branch clears `interfaces`), so just jump there.
                Some(next) => o = next,
                None => break,
            }
        }
    }
    report("pcapng", packets, consumed, total, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;
    use crate::pcap::write_pcap;
    use crate::read_capture;

    fn sample_trace() -> Trace {
        Trace::new(vec![
            PacketRecord::new(Micros(0), 40)
                .with_protocol(Protocol::Tcp)
                .with_ports(1023, 23),
            PacketRecord::new(Micros(2358), 552).with_protocol(Protocol::Udp),
            PacketRecord::new(Micros(1_000_000), 1500).with_protocol(Protocol::Icmp),
        ])
        .unwrap()
    }

    fn pcap_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample_trace()).unwrap();
        buf
    }

    #[test]
    fn clean_stream_matches_strict_reader() {
        let buf = pcap_bytes();
        let strict = read_capture(buf.as_slice()).unwrap();
        let r = read_capture_lossy(buf.as_slice()).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.format, "pcap");
        assert_eq!(r.bytes_consumed, buf.len() as u64);
        assert_eq!(r.bytes_total, buf.len() as u64);
        assert_eq!(r.packets_salvaged, strict.len());
        assert_eq!(r.trace.packets(), strict.packets());
    }

    #[test]
    fn salvages_valid_prefix_at_every_truncation_point() {
        let buf = pcap_bytes();
        // Record boundaries: 24-byte header, then 16 + 28 bytes each.
        let rec = 16 + 28;
        for cut in 0..buf.len() {
            let r = salvage(&buf[..cut]);
            let full_records = cut.saturating_sub(24) / rec;
            assert_eq!(r.packets_salvaged, full_records, "cut {cut}");
            assert_eq!(r.bytes_total, cut as u64, "cut {cut}");
            if cut >= 24 {
                assert_eq!(
                    r.bytes_consumed,
                    (24 + full_records * rec) as u64,
                    "cut {cut}"
                );
            }
            // A cut stream is clean only when it ends exactly on a
            // record boundary (including the bare 24-byte header).
            let on_boundary = cut >= 24 && (cut - 24) % rec == 0;
            assert_eq!(r.is_clean(), on_boundary, "cut {cut}");
            if let Some(fault) = r.first_fault() {
                assert!(fault.offset <= cut as u64, "cut {cut}");
            }
        }
    }

    /// Hand-build a little-endian pcapng stream: SHB, IDB, two EPBs
    /// with 28-byte payloads. Returns the bytes and each block's start
    /// offset.
    fn pcapng_bytes() -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut starts = Vec::new();
        let block = |buf: &mut Vec<u8>, btype: u32, body: &[u8]| {
            let total = 12 + body.len() as u32;
            buf.extend_from_slice(&btype.to_le_bytes());
            buf.extend_from_slice(&total.to_le_bytes());
            buf.extend_from_slice(body);
            buf.extend_from_slice(&total.to_le_bytes());
        };
        starts.push(buf.len());
        let mut shb = Vec::new();
        shb.extend_from_slice(&pcapng::BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        block(&mut buf, pcapng::SHB_TYPE, &shb);
        starts.push(buf.len());
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes());
        block(&mut buf, pcapng::IDB_TYPE, &idb);
        for ticks in [1_000u64, 2_000] {
            starts.push(buf.len());
            let mut epb = Vec::new();
            epb.extend_from_slice(&0u32.to_le_bytes());
            epb.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            epb.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            epb.extend_from_slice(&28u32.to_le_bytes());
            epb.extend_from_slice(&40u32.to_le_bytes());
            epb.extend_from_slice(&[0u8; 28]);
            block(&mut buf, pcapng::EPB_TYPE, &epb);
        }
        starts.push(buf.len());
        (buf, starts)
    }

    #[test]
    fn pcapng_truncation_sweep_salvages_complete_blocks() {
        let (buf, starts) = pcapng_bytes();
        let strict = read_capture(buf.as_slice()).unwrap();
        assert_eq!(strict.len(), 2);
        for cut in 0..=buf.len() {
            let r = salvage(&buf[..cut]);
            // Packets salvaged = EPBs wholly inside the prefix: EPB 1
            // spans starts[2]..starts[3], EPB 2 spans starts[3]..starts[4].
            let expect = [starts[3], starts[4]].iter().filter(|&&e| cut >= e).count();
            assert_eq!(r.packets_salvaged, expect, "cut {cut}");
            let consumed = starts.iter().rev().find(|&&s| s <= cut).copied().unwrap();
            assert_eq!(r.bytes_consumed, consumed as u64, "cut {cut}");
            assert_eq!(
                r.is_clean(),
                cut == consumed && cut >= starts[1],
                "cut {cut}"
            );
        }
        // The full stream matches the strict reader exactly.
        let r = salvage(&buf);
        assert_eq!(r.trace.packets(), strict.packets());
    }

    #[test]
    fn corrupt_length_field_cannot_drive_allocation() {
        let mut buf = pcap_bytes();
        // Corrupt the second record's caplen to u32::MAX.
        let off = 24 + (16 + 28) + 8;
        buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 1);
        assert_eq!(r.faults.len(), 1, "pcap has no resync marker");
        let fault = r.first_fault().expect("fault");
        assert_eq!(fault.offset, 24 + (16 + 28) as u64);
        assert!(matches!(
            fault.error,
            TraceError::OversizedRecord { caplen: u32::MAX }
        ));
    }

    #[test]
    fn garbage_reports_bad_magic_at_offset_zero() {
        let r = salvage(&[0xffu8; 64]);
        assert_eq!(r.packets_salvaged, 0);
        assert_eq!(r.format, "unknown");
        let fault = r.first_fault().expect("fault");
        assert_eq!(fault.offset, 0);
        assert!(matches!(fault.error, TraceError::BadMagic(_)));
    }

    #[test]
    fn short_inputs_salvage_nothing_without_panicking() {
        for len in [0usize, 1, 3] {
            let r = salvage(&vec![0xa1u8; len]);
            assert_eq!(r.packets_salvaged, 0);
            assert!(!r.is_clean());
        }
    }

    /// One complete pcapng section (SHB + IDB + `n` EPBs) with
    /// microsecond timestamps starting at `base_us`.
    fn pcapng_section(base_us: u64, n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let block = |buf: &mut Vec<u8>, btype: u32, body: &[u8]| {
            let total = 12 + body.len() as u32;
            buf.extend_from_slice(&btype.to_le_bytes());
            buf.extend_from_slice(&total.to_le_bytes());
            buf.extend_from_slice(body);
            buf.extend_from_slice(&total.to_le_bytes());
        };
        let mut shb = Vec::new();
        shb.extend_from_slice(&pcapng::BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        block(&mut buf, pcapng::SHB_TYPE, &shb);
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes());
        block(&mut buf, pcapng::IDB_TYPE, &idb);
        for i in 0..n {
            let ticks = base_us + i as u64 * 100;
            let mut epb = Vec::new();
            epb.extend_from_slice(&0u32.to_le_bytes());
            epb.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            epb.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            epb.extend_from_slice(&28u32.to_le_bytes());
            epb.extend_from_slice(&40u32.to_le_bytes());
            epb.extend_from_slice(&[0u8; 28]);
            block(&mut buf, pcapng::EPB_TYPE, &epb);
        }
        buf
    }

    #[test]
    fn pcapng_resyncs_to_the_next_section_across_garbage() {
        let s1 = pcapng_section(1_000, 2);
        let s2 = pcapng_section(9_000, 3);
        let garbage = [0x5au8; 33];
        let mut buf = s1.clone();
        let fault_at = buf.len();
        buf.extend_from_slice(&garbage);
        let resume_at = buf.len();
        buf.extend_from_slice(&s2);

        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 5, "both sections salvaged");
        assert_eq!(r.faults.len(), 1, "one fault per damaged region");
        let fault = r.first_fault().unwrap();
        assert_eq!(fault.offset, fault_at as u64);
        // Skipped garbage is not "consumed".
        assert_eq!(r.bytes_consumed, (buf.len() - garbage.len()) as u64);
        assert!(resume_at > fault_at);
    }

    #[test]
    fn pcapng_reports_one_fault_per_damaged_region() {
        // Three sections, two independently damaged gaps between them.
        let mut buf = pcapng_section(0, 1);
        buf.extend_from_slice(&[0xde; 8]);
        buf.extend_from_slice(&pcapng_section(5_000, 1));
        buf.extend_from_slice(&[0xad; 21]);
        buf.extend_from_slice(&pcapng_section(9_000, 2));
        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 4);
        assert_eq!(r.faults.len(), 2);
        assert!(r.faults[0].offset < r.faults[1].offset);
    }

    #[test]
    fn implausible_shb_magic_in_garbage_does_not_resync() {
        // A bare SHB magic with a bad byte-order mark must be skipped
        // by the resync scan, not treated as a section start.
        let mut buf = pcapng_section(0, 1);
        buf.extend_from_slice(&pcapng::SHB_TYPE.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 20]); // bad BOM, filler
        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 1);
        // Two faults seen from the same damaged tail is fine; what
        // matters is no packets were invented and offsets ascend.
        assert!(!r.is_clean());
        for pair in r.faults.windows(2) {
            assert!(pair[0].offset < pair[1].offset);
        }
    }

    #[test]
    fn corrupt_block_length_inside_a_section_resumes_at_next_shb() {
        let mut buf = pcapng_section(0, 2);
        let s2_start;
        {
            // Corrupt the *second* EPB's total_len to an oversize value.
            // Block layout: SHB (28) + IDB (20) + EPB (60) + EPB (60).
            let off = 28 + 20 + 60 + 4;
            buf[off..off + 4].copy_from_slice(&(pcapng::MAX_BLOCK + 4).to_le_bytes());
            s2_start = buf.len();
        }
        buf.extend_from_slice(&pcapng_section(7_000, 2));
        let r = salvage(&buf);
        // Packet 1 from section 1 survives, the corrupt EPB is lost,
        // and both packets of section 2 are recovered.
        assert_eq!(r.packets_salvaged, 3);
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].offset, (28 + 20 + 60) as u64);
        assert!(matches!(
            r.faults[0].error,
            TraceError::OversizedRecord { .. }
        ));
        assert!(s2_start > 0);
        // Every salvaged packet is wholly from a valid block.
        let ts: Vec<u64> = r
            .trace
            .packets()
            .iter()
            .map(|p| p.timestamp.as_u64())
            .collect();
        assert_eq!(ts, vec![0, 7_000, 7_100]);
    }

    #[test]
    fn clean_multi_section_stream_matches_strict_and_stays_clean() {
        // Multiple sections are *valid* pcapng; resync must not fire.
        let mut buf = pcapng_section(0, 2);
        buf.extend_from_slice(&pcapng_section(5_000, 2));
        let strict = read_capture(buf.as_slice()).unwrap();
        let r = salvage(&buf);
        assert!(r.is_clean());
        assert_eq!(r.bytes_consumed, buf.len() as u64);
        assert_eq!(r.trace.packets(), strict.packets());
        assert_eq!(r.packets_salvaged, 4);
    }
}
