//! Property tests for the chunked ingest surface: decoding a capture
//! with [`CaptureStream::next_batch`] — the call the stream engine
//! makes — is exactly the per-packet decode: same packets, same order,
//! for pcap and pcapng (including multi-section streams), at any chunk
//! size, and up to the same fault on damaged tails.

use nettrace::{CaptureStream, Micros, PacketRecord, Trace};
use proptest::prelude::*;

/// Monotone packets from (gap, size) pairs.
fn packets(gaps: &[(u64, u16)]) -> Vec<PacketRecord> {
    let mut t = 0u64;
    gaps.iter()
        .map(|&(gap, size)| {
            t += gap;
            PacketRecord::new(Micros(t), size)
        })
        .collect()
}

fn pcap_bytes(pkts: Vec<PacketRecord>) -> Vec<u8> {
    let trace = Trace::new(pkts).expect("monotone timestamps");
    let mut buf = Vec::new();
    nettrace::pcap::write_pcap(&mut buf, &trace).expect("in-memory write");
    buf
}

// pcapng block constants (the on-wire format, not crate internals).
const SHB: u32 = 0x0A0D_0D0A;
const BOM: u32 = 0x1A2B_3C4D;
const IDB: u32 = 1;
const EPB: u32 = 6;
const SPB: u32 = 3;

fn ng_block(buf: &mut Vec<u8>, btype: u32, body: &[u8]) {
    let total = 12 + body.len() as u32;
    buf.extend_from_slice(&btype.to_le_bytes());
    buf.extend_from_slice(&total.to_le_bytes());
    buf.extend_from_slice(body);
    buf.extend_from_slice(&total.to_le_bytes());
}

/// A little-endian pcapng stream with one section per inner vec; each
/// packet is an EPB, or an SPB (no timestamp) when `spb` is set.
fn pcapng_bytes(sections: &[Vec<(u64, u16, bool)>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for section in sections {
        let mut shb = Vec::new();
        shb.extend_from_slice(&BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        ng_block(&mut buf, SHB, &shb);
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes()); // linktype raw
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes()); // snaplen
        ng_block(&mut buf, IDB, &idb);
        for &(ticks, size, spb) in section {
            if spb {
                let mut body = Vec::new();
                body.extend_from_slice(&u32::from(size).to_le_bytes());
                ng_block(&mut buf, SPB, &body);
            } else {
                let mut body = Vec::new();
                body.extend_from_slice(&0u32.to_le_bytes()); // interface 0
                body.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
                body.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
                body.extend_from_slice(&0u32.to_le_bytes()); // caplen 0
                body.extend_from_slice(&u32::from(size).to_le_bytes());
                ng_block(&mut buf, EPB, &body);
            }
        }
    }
    buf
}

/// Pull every packet one at a time; also returns the terminal error,
/// if any.
fn pull_all(bytes: &[u8]) -> (Vec<PacketRecord>, Option<nettrace::TraceError>) {
    let mut s = CaptureStream::new(bytes).expect("header decodes");
    let mut out = Vec::new();
    loop {
        match s.next_packet() {
            Ok(Some(p)) => out.push(p),
            Ok(None) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

/// Decode in `chunk`-sized batches; also returns the terminal error,
/// if any.
fn chunk_all(bytes: &[u8], chunk: usize) -> (Vec<PacketRecord>, Option<nettrace::TraceError>) {
    let mut s = CaptureStream::new(bytes).expect("header decodes");
    let mut batch = Vec::new();
    loop {
        match s.next_batch(chunk, &mut batch) {
            Ok(0) => return (batch, None),
            Ok(n) => assert!(n <= chunk, "chunk overshot: {n} > {chunk}"),
            Err(e) => return (batch, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // pcap: any packet mix, any chunk size — the batches concatenate
    // to the per-packet decode.
    #[test]
    fn pcap_chunks_match_per_packet_decode(
        gaps in prop::collection::vec((0u64..50_000, 0u16..1600), 0..150),
        chunk in 1usize..64,
    ) {
        let bytes = pcap_bytes(packets(&gaps));
        let (pulled, pull_err) = pull_all(&bytes);
        let (batch, chunk_err) = chunk_all(&bytes, chunk);
        prop_assert!(pull_err.is_none() && chunk_err.is_none());
        prop_assert_eq!(pulled.len(), gaps.len());
        prop_assert_eq!(batch, pulled);
    }

    // pcap with a mid-record truncation: both paths must salvage the
    // same decoded prefix before reporting the fault.
    #[test]
    fn pcap_chunks_salvage_the_same_prefix_on_truncation(
        gaps in prop::collection::vec((0u64..50_000, 0u16..1600), 1..80),
        chunk in 1usize..32,
        cut in 1usize..16,
    ) {
        let mut bytes = pcap_bytes(packets(&gaps));
        // A pcap record is at least 16 bytes, so cutting < 16 bytes
        // always truncates mid-record rather than deleting one whole.
        bytes.truncate(bytes.len() - cut);
        let (pulled, pull_err) = pull_all(&bytes);
        let (batch, chunk_err) = chunk_all(&bytes, chunk);
        prop_assert!(pull_err.is_some() && chunk_err.is_some());
        prop_assert_eq!(pulled.len(), gaps.len() - 1);
        prop_assert_eq!(batch, pulled);
    }

    // pcapng: multiple sections (each SHB resets the interface table),
    // EPB/SPB mixes, chunk seams landing anywhere — including across
    // section boundaries.
    #[test]
    fn pcapng_chunks_match_per_packet_decode_across_sections(
        sections in prop::collection::vec(
            prop::collection::vec((0u64..1u64 << 40, 0u16..1600, any::<bool>()), 0..40),
            1..4,
        ),
        chunk in 1usize..32,
    ) {
        let bytes = pcapng_bytes(&sections);
        let (pulled, pull_err) = pull_all(&bytes);
        let (batch, chunk_err) = chunk_all(&bytes, chunk);
        prop_assert!(pull_err.is_none() && chunk_err.is_none());
        let expected: usize = sections.iter().map(Vec::len).sum();
        prop_assert_eq!(pulled.len(), expected);
        prop_assert_eq!(batch, pulled);
    }
}
