//! Checksummed, crash-recoverable record framing.
//!
//! The file-backed vault and the relational write-ahead log both persist
//! append-only sequences of records. Each record is framed as
//!
//! ```text
//! [u32 little-endian body length][body][32-byte SHA-256(body)]
//! ```
//!
//! so a reader can detect a *torn tail* — the truncated or garbled last
//! record a crash mid-append leaves behind — and recover by truncating the
//! file back to the last complete record, WAL-style, instead of refusing
//! to load. Corruption is only assumed at the tail (the append-only write
//! pattern guarantees earlier records were fully written and synced);
//! scanning stops at the first bad record either way, since nothing after
//! an unparseable frame can be trusted.

use crate::buf::BytesMut;
use crate::sha256::{sha256, DIGEST_LEN};

/// Appends one framed record to `buf`.
pub fn append_record(buf: &mut BytesMut, body: &[u8]) {
    buf.put_u32_le(body.len() as u32);
    buf.put_slice(body);
    buf.put_slice(&sha256(body));
}

/// One framed record, ready to write.
pub fn encode_record(body: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4 + body.len() + DIGEST_LEN);
    append_record(&mut buf, body);
    buf.to_vec()
}

/// The outcome of scanning a record file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Bodies of every complete, checksum-valid record, in file order.
    pub records: Vec<Vec<u8>>,
    /// Length of the valid prefix; `< data.len()` means a torn tail
    /// follows and the file should be truncated back to this offset.
    pub valid_len: usize,
}

impl ScanOutcome {
    /// Bytes of torn tail past the valid prefix.
    pub fn torn_bytes(&self, total_len: usize) -> usize {
        total_len - self.valid_len
    }
}

/// Scans framed records from `data`, stopping at the first incomplete or
/// checksum-invalid record.
pub fn scan_records(data: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut offset = 0;
    while let Some(len_bytes) = data.get(offset..offset + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let body_start = offset + 4;
        let Some(body) = data.get(body_start..body_start + len) else {
            break;
        };
        let sum_start = body_start + len;
        let Some(sum) = data.get(sum_start..sum_start + DIGEST_LEN) else {
            break;
        };
        if sha256(body) != sum {
            break;
        }
        records.push(body.to_vec());
        offset = sum_start + DIGEST_LEN;
    }
    ScanOutcome {
        records,
        valid_len: offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_of(bodies: &[&[u8]]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for b in bodies {
            append_record(&mut buf, b);
        }
        buf.to_vec()
    }

    #[test]
    fn round_trips_records() {
        let data = file_of(&[b"first", b"", b"third record"]);
        let scan = scan_records(&data);
        assert_eq!(
            scan.records,
            vec![b"first".to_vec(), vec![], b"third record".to_vec()]
        );
        assert_eq!(scan.valid_len, data.len());
    }

    #[test]
    fn every_truncation_point_recovers_complete_prefix() {
        let bodies: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 5 + i as usize]).collect();
        let refs: Vec<&[u8]> = bodies.iter().map(|b| b.as_slice()).collect();
        let data = file_of(&refs);
        // Record boundaries in the encoded file.
        let mut boundaries = vec![0];
        for b in &bodies {
            boundaries.push(boundaries.last().unwrap() + 4 + b.len() + DIGEST_LEN);
        }
        for cut in 0..data.len() {
            let scan = scan_records(&data[..cut]);
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scan.records.len(), complete, "cut at {cut}");
            assert_eq!(scan.valid_len, boundaries[complete], "cut at {cut}");
            assert_eq!(
                scan.records,
                bodies[..complete].to_vec(),
                "records intact at cut {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_stops_the_scan() {
        let data = file_of(&[b"aaaa", b"bbbb"]);
        // Flip a byte inside the first body: nothing can be trusted.
        let mut flipped = data.clone();
        flipped[5] ^= 0xFF;
        let scan = scan_records(&flipped);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        // Flip inside the second body: the first record survives.
        let mut flipped = data.clone();
        let second_body = 4 + 4 + DIGEST_LEN + 4 + 1;
        flipped[second_body] ^= 0xFF;
        let scan = scan_records(&flipped);
        assert_eq!(scan.records, vec![b"aaaa".to_vec()]);
    }

    #[test]
    fn garbage_length_prefix_is_contained() {
        // A huge length that runs past the buffer must not panic.
        let mut data = file_of(&[b"ok"]);
        let valid = data.len();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(b"tail");
        let scan = scan_records(&data);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, valid);
        assert_eq!(scan.torn_bytes(data.len()), 8);
    }
}
