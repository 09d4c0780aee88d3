//! Error types for trace construction and I/O.

use std::fmt;
use std::io;

/// Errors produced by trace construction, slicing, and pcap I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Packet timestamps must be nondecreasing; the offending index and the
    /// two timestamps (previous, current) in microseconds are reported.
    OutOfOrder {
        /// Index of the packet whose timestamp went backwards.
        index: usize,
        /// Timestamp of the preceding packet (µs).
        prev_us: u64,
        /// Timestamp of the offending packet (µs).
        this_us: u64,
    },
    /// The requested time window or index range is empty or inverted.
    EmptyWindow,
    /// An I/O error during pcap read/write.
    Io(io::Error),
    /// The pcap stream's magic number is not a known libpcap magic.
    BadMagic(u32),
    /// The pcap stream ended in the middle of a record.
    TruncatedRecord {
        /// Number of complete packets read before truncation.
        packets_read: usize,
    },
    /// A pcap record header declared an implausible capture length.
    OversizedRecord {
        /// Declared capture length in bytes.
        caplen: u32,
    },
    /// A packet's timestamp does not fit the classic pcap record's
    /// 32-bit seconds field, so it cannot be written without loss.
    TimestampOverflow {
        /// The unrepresentable timestamp (µs).
        micros: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutOfOrder {
                index,
                prev_us,
                this_us,
            } => write!(
                f,
                "packet {index} has timestamp {this_us}us earlier than predecessor {prev_us}us"
            ),
            TraceError::EmptyWindow => write!(f, "requested window selects no packets"),
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a pcap stream (magic {m:#010x})"),
            TraceError::TruncatedRecord { packets_read } => {
                write!(f, "pcap stream truncated after {packets_read} packets")
            }
            TraceError::OversizedRecord { caplen } => {
                write!(
                    f,
                    "pcap record declares caplen {caplen} > 256 KiB; refusing"
                )
            }
            TraceError::TimestampOverflow { micros } => {
                write!(
                    f,
                    "timestamp {micros}us exceeds the pcap 32-bit seconds field"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TraceError::OutOfOrder {
            index: 7,
            prev_us: 100,
            this_us: 50,
        };
        assert!(e.to_string().contains("packet 7"));
        assert!(TraceError::EmptyWindow.to_string().contains("no packets"));
        assert!(TraceError::BadMagic(0xdead_beef)
            .to_string()
            .contains("0xdeadbeef"));
        assert!(TraceError::TruncatedRecord { packets_read: 3 }
            .to_string()
            .contains("3 packets"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
