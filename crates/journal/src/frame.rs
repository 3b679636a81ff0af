//! CRC32 framing.
//!
//! Every journal commit (before segment format 5, every record) and every
//! wire message is wrapped in a fixed 8-byte frame header:
//!
//! ```text
//! ┌──────────────┬───────────────┬────────────────┐
//! │ len: u32 LE  │ crc32: u32 LE │ payload (len)  │
//! └──────────────┴───────────────┴────────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC-32 (the zlib/Ethernet polynomial, reflected
//! 0xEDB88320) of the payload bytes alone. A reader walks frames front to
//! back and stops at the first header that does not fit, length that
//! overruns the buffer, or checksum that does not match — which is
//! exactly the torn-write tolerance a crashed append needs: the valid
//! prefix is kept, the torn tail is ignored.

/// Frame header bytes: `len` + `crc`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Records larger than this are rejected at append time; a corrupted
/// length field can therefore never make a reader attempt an absurd
/// allocation.
pub const MAX_PAYLOAD_LEN: u32 = 16 * 1024 * 1024;

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // Table k folds one more byte of zeros through the polynomial:
    // T[k][b] = crc of byte b followed by k zero bytes. Eight tables let
    // the hot loop consume 64 bits per step with no data dependency
    // between the eight lookups.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 of `bytes` (the zlib `crc32` function), slicing-by-8:
/// eight bytes per step through eight precomputed tables. Bit-identical
/// to [`crc32_bytewise`] (proptest-enforced in `tests/crc.rs`); both the
/// wire frames and the WAL/group-commit path go through this.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        crc = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The one-byte-at-a-time reference CRC-32. The format contract is
/// defined by this loop; [`crc32`] is the fast path proven equal to it.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append one framed payload to `out`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`] — a record that
/// large is a logic error, not an I/O condition.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD_LEN as usize,
        "journal record of {} bytes exceeds the {} byte frame limit",
        payload.len(),
        MAX_PAYLOAD_LEN
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reserve a frame header at the end of `out` and return its offset.
///
/// In-place framing for encoders that can write their payload directly
/// into the destination buffer: `begin_frame`, append the payload bytes,
/// then [`end_frame`] backfills the length and CRC. Byte-identical to
/// encoding the payload separately and calling [`write_frame`], without
/// the intermediate allocation and copy (proptest-enforced in
/// `tests/crc.rs`).
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    start
}

/// Backfill the header reserved by [`begin_frame`] at `start`: everything
/// appended to `out` since is the frame's payload.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`], or if `out` shrank
/// below the reserved header (a caller bug).
pub fn end_frame(out: &mut [u8], start: usize) {
    let payload_start = start + FRAME_HEADER_LEN;
    assert!(
        payload_start <= out.len(),
        "end_frame: buffer shrank past the reserved header"
    );
    let payload_len = out.len() - payload_start;
    assert!(
        payload_len <= MAX_PAYLOAD_LEN as usize,
        "journal record of {} bytes exceeds the {} byte frame limit",
        payload_len,
        MAX_PAYLOAD_LEN
    );
    let crc = crc32(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..payload_start].copy_from_slice(&crc.to_le_bytes());
}

/// What the front of a byte buffer holds, for incremental stream
/// parsers.
///
/// [`FrameReader`] folds every anomaly into "torn" because a journal
/// tail is read once, after the fact. A network stream is different: an
/// incomplete frame means *wait for more bytes*, while a corrupt one
/// means the peer (or the wire) is broken and the connection must be
/// torn down — no amount of further reading can resynchronize a
/// length-prefixed stream after a bad header. [`split_frame`] makes that
/// distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSplit {
    /// Not enough bytes yet for a complete frame; read more and retry.
    Incomplete,
    /// The header or checksum is invalid — the stream cannot be trusted
    /// past this point.
    Corrupt,
    /// A complete, checksummed frame: the payload spans
    /// `buf[FRAME_HEADER_LEN..frame_len]` and the next frame (if any)
    /// starts at `frame_len`.
    Frame {
        /// Total length of the frame including its header.
        frame_len: usize,
    },
}

/// Classify the front of `buf`: a complete valid frame, an incomplete
/// prefix, or corruption (oversized length field or checksum mismatch).
pub fn split_frame(buf: &[u8]) -> FrameSplit {
    if buf.len() < FRAME_HEADER_LEN {
        return FrameSplit::Incomplete;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if len > MAX_PAYLOAD_LEN {
        return FrameSplit::Corrupt;
    }
    let frame_len = FRAME_HEADER_LEN + len as usize;
    if buf.len() < frame_len {
        return FrameSplit::Incomplete;
    }
    let expected_crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if crc32(&buf[FRAME_HEADER_LEN..frame_len]) != expected_crc {
        return FrameSplit::Corrupt;
    }
    FrameSplit::Frame { frame_len }
}

/// Why frame iteration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEnd {
    /// The buffer ended exactly on a frame boundary.
    Clean,
    /// Trailing bytes did not form a complete, checksummed frame — a torn
    /// or truncated final record.
    Torn,
}

/// Iterates the valid frame prefix of a byte buffer.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    end: Option<FrameEnd>,
}

impl<'a> FrameReader<'a> {
    /// Read frames from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader {
            buf,
            pos: 0,
            end: None,
        }
    }

    /// Byte offset of the end of the last *valid* frame returned so far.
    pub fn valid_len(&self) -> usize {
        self.pos
    }

    /// How iteration ended; `None` while frames remain.
    pub fn end(&self) -> Option<FrameEnd> {
        self.end
    }

    /// The next valid payload, or `None` at the end of the valid prefix.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'a [u8]> {
        if self.end.is_some() {
            return None;
        }
        let remaining = &self.buf[self.pos..];
        if remaining.is_empty() {
            self.end = Some(FrameEnd::Clean);
            return None;
        }
        if remaining.len() < FRAME_HEADER_LEN {
            self.end = Some(FrameEnd::Torn);
            return None;
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap());
        let expected_crc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD_LEN || remaining.len() - FRAME_HEADER_LEN < len as usize {
            self.end = Some(FrameEnd::Torn);
            return None;
        }
        let payload = &remaining[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize];
        if crc32(payload) != expected_crc {
            self.end = Some(FrameEnd::Torn);
            return None;
        }
        self.pos += FRAME_HEADER_LEN + len as usize;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn frames_round_trip_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"gamma");
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), Some(&b"alpha"[..]));
        assert_eq!(reader.next(), Some(&b""[..]));
        assert_eq!(reader.next(), Some(&b"gamma"[..]));
        assert_eq!(reader.next(), None);
        assert_eq!(reader.end(), Some(FrameEnd::Clean));
        assert_eq!(reader.valid_len(), buf.len());
    }

    #[test]
    fn any_truncation_yields_a_valid_prefix() {
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize]).collect();
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p);
        }
        for cut in 0..buf.len() {
            let mut reader = FrameReader::new(&buf[..cut]);
            let mut got = 0;
            while let Some(payload) = reader.next() {
                assert_eq!(payload, payloads[got].as_slice(), "cut at {cut}");
                got += 1;
            }
            assert!(got <= payloads.len());
            if cut < buf.len() {
                // The cut landed mid-frame unless it hit a boundary.
                let boundary = reader.valid_len() == cut;
                assert_eq!(
                    reader.end(),
                    Some(if boundary {
                        FrameEnd::Clean
                    } else {
                        FrameEnd::Torn
                    }),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn corrupted_byte_stops_iteration_at_the_damage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        let first_end = buf.len();
        write_frame(&mut buf, b"second");
        // Flip a payload byte of the second frame.
        let target = first_end + FRAME_HEADER_LEN + 2;
        buf[target] ^= 0x40;
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), Some(&b"first"[..]));
        assert_eq!(reader.next(), None);
        assert_eq!(reader.end(), Some(FrameEnd::Torn));
        assert_eq!(reader.valid_len(), first_end);
    }

    #[test]
    fn split_frame_distinguishes_incomplete_from_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload");
        // Every strict prefix is incomplete, never corrupt.
        for cut in 0..buf.len() {
            assert_eq!(
                split_frame(&buf[..cut]),
                FrameSplit::Incomplete,
                "cut {cut}"
            );
        }
        assert_eq!(
            split_frame(&buf),
            FrameSplit::Frame {
                frame_len: buf.len()
            }
        );
        // A flipped payload byte is corruption.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_LEN + 1] ^= 0x10;
        assert_eq!(split_frame(&bad), FrameSplit::Corrupt);
        // An absurd length field is corruption even with few bytes.
        let mut absurd = Vec::new();
        absurd.extend_from_slice(&u32::MAX.to_le_bytes());
        absurd.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(split_frame(&absurd), FrameSplit::Corrupt);
        // Trailing bytes beyond one frame do not affect the split.
        let mut extra = buf.clone();
        extra.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            split_frame(&extra),
            FrameSplit::Frame {
                frame_len: buf.len()
            }
        );
    }

    #[test]
    fn absurd_length_field_is_torn_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), None);
        assert_eq!(reader.end(), Some(FrameEnd::Torn));
    }
}
