//! The capture decoder: one parser of pcap and pcapng framing.
//!
//! [`CaptureStream`] yields packets (or bounded batches) one record at
//! a time from any [`Read`] source, in **file order**, holding only the
//! current record plus O(1) decoder state — the shape of the
//! operational monitor the paper describes (§2: the NSFNET routers
//! sample a *stream*, they never hold the day's 650 MB in memory).
//! [`read_capture`] is the offline entry point: it drains a stream into
//! a [`Trace`].
//!
//! Record and block bodies are decoded by the shared functions in
//! [`crate::pcap`] and [`crate::pcapng`]. The independent reference for
//! the framing is [`crate::lossy::salvage`], which parses the same
//! formats from an in-memory slice: on any input, salvage is clean
//! exactly when the stream ends without error, yields the same packets
//! (after [`Trace::from_unordered`]) when it is, and otherwise reports
//! as its first fault the stream's error at the stream's
//! [`fault_offset`](CaptureStream::fault_offset). The faultkit mutation
//! campaign holds the two to that on every image.

use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::pcap::{self, Endian};
use crate::pcapng::{self, parse_epb, parse_idb, parse_spb, Interface};
use crate::time::Micros;
use crate::trace::Trace;
use std::io::Read;

/// Sniff the format and read a whole capture into a [`Trace`].
///
/// Timestamps are absolute microseconds from the capture's epoch
/// values; packets are defensively sorted with
/// [`Trace::from_unordered`] (multi-interface captures interleave).
/// Protocol, ports and network numbers are recovered from the packet
/// bytes when they look like IPv4.
///
/// # Errors
/// The errors of [`CaptureStream::new`] and
/// [`CaptureStream::next_packet`]: [`TraceError::BadMagic`] if the
/// stream is neither format, [`TraceError::TruncatedRecord`] if it ends
/// mid-structure, [`TraceError::OversizedRecord`] on an implausible
/// length field.
pub fn read_capture<R: Read>(mut r: R) -> Result<Trace, TraceError> {
    let mut magic = [0u8; 4];
    if !matches!(read_exact_or_eof(&mut r, &mut magic), ReadOutcome::Full) {
        return Err(TraceError::TruncatedRecord { packets_read: 0 });
    }
    let (format, span) = if is_pcapng(magic) {
        ("pcapng", "nettrace_pcapng_read")
    } else {
        ("pcap", "nettrace_pcap_read")
    };
    let _span = obskit::span(span);
    let result = CaptureStream::with_magic(magic, r).and_then(|mut stream| {
        let mut packets = Vec::new();
        while let Some(p) = stream.next_packet()? {
            packets.push(p);
        }
        Ok(Trace::from_unordered(packets))
    });
    let labels = [("format", format)];
    match &result {
        Ok(trace) => {
            obskit::counter_labeled("nettrace_packets_read_total", &labels).add(trace.len() as u64);
            obskit::counter_labeled("nettrace_bytes_read_total", &labels).add(trace.total_bytes());
        }
        Err(e) => {
            obskit::counter_labeled("nettrace_malformed_records_total", &labels).inc();
            if let TraceError::TruncatedRecord { packets_read } = e {
                obskit::counter_labeled("nettrace_packets_read_total", &labels)
                    .add(*packets_read as u64);
            }
        }
    }
    result
}

/// The first four bytes open a pcapng Section Header Block.
/// (`SHB_TYPE` is a palindrome, so the check is endian-neutral.)
fn is_pcapng(magic: [u8; 4]) -> bool {
    u32::from_le_bytes(magic) == pcapng::SHB_TYPE
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// Read exactly `buf.len()` bytes, distinguishing clean EOF (zero bytes)
/// from truncation (some bytes then EOF). A failing reader counts as a
/// truncation: the decoder reports the typed error, not the I/O one.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                }
            }
            Ok(n) => filled += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Partial,
        }
    }
    ReadOutcome::Full
}

/// Per-format decoder state.
enum Format {
    Pcap {
        endian: Endian,
        nanos: bool,
    },
    Pcapng {
        endian: Endian,
        interfaces: Vec<Interface>,
        /// No block parsed yet: EOF here means "not a capture at all".
        first: bool,
        /// Timestamp of the last yielded packet (SPBs carry none).
        last_ts: Micros,
    },
}

/// One-pass incremental reader over a pcap or pcapng byte stream.
///
/// Construction sniffs the format from the first bytes; each
/// [`next_packet`](CaptureStream::next_packet) call consumes exactly one
/// record (skipping non-packet pcapng blocks). Memory is bounded by the
/// largest single record regardless of capture size: a classic record's
/// declared length is checked against `MAX_CAPLEN` (256 KiB), a pcapng
/// block's against `MAX_BLOCK` (16 MiB), before its buffer is
/// allocated.
///
/// Packets arrive in **file order** — the defensive timestamp sort of
/// [`Trace::from_unordered`] is a whole-trace operation a one-pass
/// reader cannot perform ([`read_capture`] applies it after draining).
/// Callers needing sorted output must window-and-sort downstream.
///
/// After the stream ends or fails, further calls return `Ok(None)`
/// (the reader is fused).
pub struct CaptureStream<R> {
    reader: R,
    /// Sniffed bytes not yet consumed by the decoder (pcapng pushback).
    head: Vec<u8>,
    head_pos: usize,
    format: Format,
    packets_read: usize,
    /// Bytes consumed from the stream by fully-read structures.
    consumed: u64,
    /// Offset of the structure being decoded when an error occurred.
    fault_offset: Option<u64>,
    done: bool,
}

impl<R: Read> CaptureStream<R> {
    /// Sniff the stream's format and prepare to yield packets.
    ///
    /// # Errors
    /// [`TraceError::TruncatedRecord`] (`packets_read: 0`) if the stream
    /// ends inside the magic or the classic 24-byte global header,
    /// [`TraceError::BadMagic`] if it is neither format. Both sit at
    /// byte offset 0.
    pub fn new(mut reader: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        if !matches!(
            read_exact_or_eof(&mut reader, &mut magic),
            ReadOutcome::Full
        ) {
            return Err(TraceError::TruncatedRecord { packets_read: 0 });
        }
        Self::with_magic(magic, reader)
    }

    /// [`new`](CaptureStream::new) for a stream whose 4 magic bytes were
    /// already consumed.
    fn with_magic(magic: [u8; 4], mut reader: R) -> Result<Self, TraceError> {
        let (head, format, consumed) = if is_pcapng(magic) {
            // The 4 sniffed bytes are the first half of the first block
            // header: push them back for the block loop.
            let format = Format::Pcapng {
                endian: Endian::Little,
                interfaces: Vec::new(),
                first: true,
                last_ts: Micros::ZERO,
            };
            (magic.to_vec(), format, 0)
        } else {
            let Some((endian, nanos)) = pcap::sniff_magic(magic) else {
                return Err(TraceError::BadMagic(u32::from_le_bytes(magic)));
            };
            // Remainder of the classic 24-byte global header; nothing in
            // it is needed to decode records.
            let mut rest = [0u8; 20];
            if !matches!(read_exact_or_eof(&mut reader, &mut rest), ReadOutcome::Full) {
                return Err(TraceError::TruncatedRecord { packets_read: 0 });
            }
            (Vec::new(), Format::Pcap { endian, nanos }, 24)
        };
        Ok(CaptureStream {
            reader,
            head,
            head_pos: 0,
            format,
            packets_read: 0,
            consumed,
            fault_offset: None,
            done: false,
        })
    }

    /// `"pcap"` or `"pcapng"`.
    #[must_use]
    pub fn format(&self) -> &'static str {
        match self.format {
            Format::Pcap { .. } => "pcap",
            Format::Pcapng { .. } => "pcapng",
        }
    }

    /// Packets yielded so far.
    #[must_use]
    pub fn packets_read(&self) -> usize {
        self.packets_read
    }

    /// Bytes of the stream consumed by fully-decoded structures.
    #[must_use]
    pub fn byte_offset(&self) -> u64 {
        self.consumed
    }

    /// Byte offset of the structure that failed to decode, if the
    /// stream has failed in [`next_packet`](CaptureStream::next_packet)
    /// — the same offset [`crate::lossy::salvage`] reports for its first
    /// fault.
    #[must_use]
    pub fn fault_offset(&self) -> Option<u64> {
        self.fault_offset
    }

    /// Read with sniffed-byte pushback, counting consumed bytes only
    /// when the structure read completes.
    fn fill(&mut self, buf: &mut [u8]) -> ReadOutcome {
        let mut filled = 0;
        if self.head_pos < self.head.len() {
            let n = (self.head.len() - self.head_pos).min(buf.len());
            buf[..n].copy_from_slice(&self.head[self.head_pos..self.head_pos + n]);
            self.head_pos += n;
            filled = n;
        }
        let out = if filled == buf.len() {
            ReadOutcome::Full
        } else {
            match read_exact_or_eof(&mut self.reader, &mut buf[filled..]) {
                ReadOutcome::Full => ReadOutcome::Full,
                ReadOutcome::Eof if filled == 0 => ReadOutcome::Eof,
                _ => ReadOutcome::Partial,
            }
        };
        if matches!(out, ReadOutcome::Full) {
            self.consumed += buf.len() as u64;
        }
        out
    }

    fn fail(&mut self, at: u64, error: TraceError) -> TraceError {
        self.done = true;
        self.fault_offset = Some(at);
        error
    }

    fn truncated(&mut self, at: u64) -> TraceError {
        let packets_read = self.packets_read;
        self.fail(at, TraceError::TruncatedRecord { packets_read })
    }

    /// Yield the next packet, or `Ok(None)` at clean end of stream.
    ///
    /// # Errors
    /// [`TraceError::TruncatedRecord`] when the stream ends
    /// mid-structure, [`TraceError::OversizedRecord`] on an implausible
    /// length field, [`TraceError::BadMagic`] on a corrupt pcapng
    /// section header. [`fault_offset`](CaptureStream::fault_offset)
    /// then reports where. After an error the stream is fused.
    pub fn next_packet(&mut self) -> Result<Option<PacketRecord>, TraceError> {
        if self.done {
            return Ok(None);
        }
        match self.format {
            Format::Pcap { endian, nanos } => self.next_pcap(endian, nanos),
            Format::Pcapng { .. } => self.next_pcapng(),
        }
    }

    fn next_pcap(
        &mut self,
        endian: Endian,
        nanos: bool,
    ) -> Result<Option<PacketRecord>, TraceError> {
        let start = self.consumed;
        let mut rec_hdr = [0u8; 16];
        match self.fill(&mut rec_hdr) {
            ReadOutcome::Eof => {
                self.done = true;
                return Ok(None);
            }
            ReadOutcome::Partial => return Err(self.truncated(start)),
            ReadOutcome::Full => {}
        }
        let (ts, caplen, orig_len) = pcap::parse_record_header(endian, nanos, &rec_hdr);
        if caplen > pcap::MAX_CAPLEN {
            return Err(self.fail(start, TraceError::OversizedRecord { caplen }));
        }
        let mut data = vec![0u8; caplen as usize];
        if !matches!(self.fill(&mut data), ReadOutcome::Full) {
            return Err(self.truncated(start));
        }
        self.packets_read += 1;
        Ok(Some(pcap::parse_ipv4(&data, orig_len, ts)))
    }

    fn next_pcapng(&mut self) -> Result<Option<PacketRecord>, TraceError> {
        loop {
            let start = self.consumed;
            let mut hdr = [0u8; 8];
            match self.fill(&mut hdr) {
                ReadOutcome::Eof => {
                    if matches!(self.format, Format::Pcapng { first: true, .. }) {
                        // A pcapng stream must open with a full SHB.
                        return Err(self.truncated(start));
                    }
                    self.done = true;
                    return Ok(None);
                }
                ReadOutcome::Partial => return Err(self.truncated(start)),
                ReadOutcome::Full => {}
            }
            let raw_type_le = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
            if matches!(self.format, Format::Pcapng { first: true, .. })
                && raw_type_le != pcapng::SHB_TYPE
            {
                return Err(self.fail(start, TraceError::BadMagic(raw_type_le)));
            }

            if raw_type_le == pcapng::SHB_TYPE {
                let mut bom = [0u8; 4];
                if !matches!(self.fill(&mut bom), ReadOutcome::Full) {
                    return Err(self.truncated(start));
                }
                let Some(section_endian) = pcapng::bom_endian(bom) else {
                    return Err(self.fail(start, TraceError::BadMagic(u32::from_le_bytes(bom))));
                };
                let total_len = section_endian.u32(&hdr[4..8]);
                if !(28..=pcapng::MAX_BLOCK).contains(&total_len) || !total_len.is_multiple_of(4) {
                    return Err(self.fail(start, TraceError::OversizedRecord { caplen: total_len }));
                }
                // Version, section length, options, trailing length:
                // nothing in the rest of the SHB is needed.
                let mut rest = vec![0u8; total_len as usize - 12];
                if !matches!(self.fill(&mut rest), ReadOutcome::Full) {
                    return Err(self.truncated(start));
                }
                if let Format::Pcapng {
                    endian,
                    interfaces,
                    first,
                    ..
                } = &mut self.format
                {
                    *endian = section_endian;
                    interfaces.clear();
                    *first = false;
                }
                continue;
            }

            let Format::Pcapng { endian, .. } = &self.format else {
                unreachable!("pcapng loop in pcap mode")
            };
            let endian = *endian;
            let block_type = endian.u32(&hdr[0..4]);
            let total_len = endian.u32(&hdr[4..8]);
            if !(12..=pcapng::MAX_BLOCK).contains(&total_len) || !total_len.is_multiple_of(4) {
                return Err(self.fail(start, TraceError::OversizedRecord { caplen: total_len }));
            }
            // The body, then the trailing copy of the length.
            let mut block = vec![0u8; total_len as usize - 8];
            if !matches!(self.fill(&mut block), ReadOutcome::Full) {
                return Err(self.truncated(start));
            }
            let body = &block[..block.len() - 4];

            let Format::Pcapng {
                interfaces,
                last_ts,
                ..
            } = &mut self.format
            else {
                unreachable!("pcapng loop in pcap mode")
            };
            let packet = match block_type {
                pcapng::IDB_TYPE => {
                    if let Some(iface) = parse_idb(endian, body) {
                        interfaces.push(iface);
                    }
                    None
                }
                pcapng::EPB_TYPE => parse_epb(endian, body, interfaces),
                pcapng::SPB_TYPE => parse_spb(endian, body, *last_ts),
                _ => None,
            };
            if let Some(p) = packet {
                *last_ts = p.timestamp;
                self.packets_read += 1;
                return Ok(Some(p));
            }
        }
    }

    /// Append up to `max` packets to `out`, returning how many arrived.
    /// Returns `Ok(0)` only at clean end of stream.
    ///
    /// # Errors
    /// As [`next_packet`](CaptureStream::next_packet); packets decoded
    /// before the fault are kept in `out`.
    pub fn next_batch(
        &mut self,
        max: usize,
        out: &mut Vec<PacketRecord>,
    ) -> Result<usize, TraceError> {
        let mut got = 0;
        while got < max {
            match self.next_packet()? {
                Some(p) => {
                    out.push(p);
                    got += 1;
                }
                None => break,
            }
        }
        if got > 0 && obskit::recording_enabled() {
            obskit::counter_labeled(
                "nettrace_stream_packets_total",
                &[("format", self.format())],
            )
            .add(got as u64);
        }
        Ok(got)
    }
}

impl<R: Read> Iterator for CaptureStream<R> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_packet() {
            Ok(Some(p)) => Some(Ok(p)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::salvage;
    use crate::pcap::write_pcap;

    fn sample_trace(n: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| {
                    PacketRecord::new(Micros(i * 777), if i % 3 == 0 { 40 } else { 552 })
                        .with_ports(1024 + i as u16, 23)
                })
                .collect(),
        )
        .unwrap()
    }

    /// A reader that hands out one byte at a time — exercises every
    /// partial-read path in `fill`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    /// A minimal little-endian pcapng builder (mirrors the pcapng tests).
    struct NgBuilder {
        buf: Vec<u8>,
    }

    impl NgBuilder {
        fn new() -> Self {
            let mut b = NgBuilder { buf: Vec::new() };
            let mut body = Vec::new();
            body.extend_from_slice(&pcapng::BOM.to_le_bytes());
            body.extend_from_slice(&1u16.to_le_bytes());
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&(-1i64).to_le_bytes());
            b.block(pcapng::SHB_TYPE, &body);
            b
        }

        fn block(&mut self, btype: u32, body: &[u8]) {
            let total = 12 + body.len() as u32;
            self.buf.extend_from_slice(&btype.to_le_bytes());
            self.buf.extend_from_slice(&total.to_le_bytes());
            self.buf.extend_from_slice(body);
            self.buf.extend_from_slice(&total.to_le_bytes());
        }

        fn idb(&mut self) {
            let mut body = Vec::new();
            body.extend_from_slice(&101u16.to_le_bytes());
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            self.block(pcapng::IDB_TYPE, &body);
        }

        fn epb(&mut self, ticks: u64, size: u16) {
            let mut body = Vec::new();
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            body.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes()); // caplen 0
            body.extend_from_slice(&u32::from(size).to_le_bytes());
            self.block(pcapng::EPB_TYPE, &body);
        }

        fn spb(&mut self, size: u16) {
            let mut body = Vec::new();
            body.extend_from_slice(&u32::from(size).to_le_bytes());
            self.block(pcapng::SPB_TYPE, &body);
        }
    }

    #[test]
    fn streams_pcap_identically_to_batch() {
        let t = sample_trace(50);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let reference = salvage(&buf);
        assert!(reference.is_clean());

        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert_eq!(s.format(), "pcap");
        let streamed: Vec<PacketRecord> = (&mut s).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, reference.trace.packets());
        assert_eq!(s.packets_read(), 50);
        assert_eq!(s.byte_offset(), buf.len() as u64);
        assert!(s.fault_offset().is_none());
        // Fused after end.
        assert!(s.next_packet().unwrap().is_none());
    }

    #[test]
    fn streams_pcapng_identically_to_batch() {
        let mut b = NgBuilder::new();
        b.idb();
        for i in 0..10u64 {
            b.epb(1_000 * i, 40 + i as u16);
        }
        b.spb(576); // no timestamp: rides on the previous packet's
        let reference = salvage(&b.buf);
        assert!(reference.is_clean());

        let mut s = CaptureStream::new(b.buf.as_slice()).unwrap();
        assert_eq!(s.format(), "pcapng");
        let streamed: Vec<PacketRecord> = (&mut s).map(|r| r.unwrap()).collect();
        // This capture is in timestamp order, so file order == sorted.
        assert_eq!(streamed, reference.trace.packets());
        assert_eq!(s.byte_offset(), b.buf.len() as u64);
    }

    #[test]
    fn trickle_reader_matches_whole_slice() {
        let t = sample_trace(20);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let whole: Vec<PacketRecord> = CaptureStream::new(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let trickled: Vec<PacketRecord> = CaptureStream::new(Trickle(&buf))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(whole, trickled);
    }

    #[test]
    fn batches_are_bounded_and_complete() {
        let t = sample_trace(25);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        let mut all = Vec::new();
        let mut batches = Vec::new();
        loop {
            let before = all.len();
            let got = s.next_batch(7, &mut all).unwrap();
            assert_eq!(all.len() - before, got);
            if got == 0 {
                break;
            }
            batches.push(got);
        }
        assert_eq!(all.len(), 25);
        assert_eq!(batches, vec![7, 7, 7, 4]);
    }

    #[test]
    fn truncated_pcap_reports_offset_of_broken_record() {
        let t = sample_trace(3);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        // Cut into the third record's data.
        let third_start = 24 + 2 * (16 + 28);
        buf.truncate(third_start + 16 + 5);
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(s.next_packet().unwrap().is_some());
        assert!(s.next_packet().unwrap().is_some());
        match s.next_packet() {
            Err(TraceError::TruncatedRecord { packets_read }) => assert_eq!(packets_read, 2),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(s.fault_offset(), Some(third_start as u64));
        // Fused after the fault.
        assert!(s.next_packet().unwrap().is_none());
    }

    #[test]
    fn header_stage_errors_match_batch_reader() {
        // Short streams: truncated, never Io.
        for len in [0usize, 1, 3] {
            let bytes = vec![0xa1u8; len];
            assert!(
                matches!(
                    CaptureStream::new(bytes.as_slice()),
                    Err(TraceError::TruncatedRecord { packets_read: 0 })
                ),
                "len {len}"
            );
        }
        // Valid magic, truncated global header.
        let mut short = pcap::MAGIC_US.to_le_bytes().to_vec();
        short.extend_from_slice(&[0u8; 7]);
        assert!(matches!(
            CaptureStream::new(short.as_slice()),
            Err(TraceError::TruncatedRecord { packets_read: 0 })
        ));
        // Garbage magic.
        assert!(matches!(
            CaptureStream::new(&[0u8; 32][..]),
            Err(TraceError::BadMagic(_))
        ));
        // Oversized caplen.
        let mut buf = Vec::new();
        write_pcap(&mut buf, &Trace::empty()).unwrap();
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&(pcap::MAX_CAPLEN + 1).to_le_bytes());
        buf.extend_from_slice(&40u32.to_le_bytes());
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(matches!(
            s.next_packet(),
            Err(TraceError::OversizedRecord { .. })
        ));
        assert_eq!(s.fault_offset(), Some(24));
    }

    #[test]
    fn pcapng_truncation_mid_block_reports_block_start() {
        let mut b = NgBuilder::new();
        b.idb();
        b.epb(1, 40);
        b.epb(2, 41);
        let epb_len = 12 + 20; // header+trailer + fixed EPB body
        let second_epb_start = b.buf.len() - epb_len;
        let mut buf = b.buf;
        buf.truncate(buf.len() - 3);
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(s.next_packet().unwrap().is_some());
        match s.next_packet() {
            Err(TraceError::TruncatedRecord { packets_read }) => assert_eq!(packets_read, 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(s.fault_offset(), Some(second_epb_start as u64));
    }

    #[test]
    fn second_section_resets_interfaces() {
        // Section 1: ms-resolution interface. Section 2: fresh default
        // µs interface — a stale interface list would mis-scale ts.
        let mut b = NgBuilder::new();
        {
            let mut body = Vec::new();
            body.extend_from_slice(&101u16.to_le_bytes());
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
            body.extend_from_slice(&1u16.to_le_bytes());
            body.push(3); // 10^-3: milliseconds
            body.extend_from_slice(&[0, 0, 0]);
            body.extend_from_slice(&0u32.to_le_bytes()); // endofopt
            b.block(pcapng::IDB_TYPE, &body);
        }
        b.epb(2_000, 40); // 2000 ms = 2 s
        let second = NgBuilder::new();
        b.buf.extend_from_slice(&second.buf);
        b.idb();
        b.epb(5_000_000, 41); // back to µs: 5 s

        let packets: Vec<PacketRecord> = CaptureStream::new(b.buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let ts: Vec<u64> = packets.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![2_000_000, 5_000_000]);
        assert_eq!(packets, salvage(&b.buf).trace.packets());
    }
}
