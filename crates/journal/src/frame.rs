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
//! 0xEDB88320) of the payload bytes alone. [`split_frame`] is the one
//! parser of a frame header. A journal reader walks frames front to back
//! with it and stops at the first frame that is cut short or fails its
//! checksum — which is exactly the torn-write tolerance a crashed append
//! needs: the valid prefix is kept, the torn tail is ignored.

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

/// What the front of a byte buffer holds, for the incremental parsers of
/// segments and of the wire alike: incomplete means *wait for more bytes*
/// (at rest, a torn tail), corrupt that no further reading can
/// resynchronize the length-prefixed stream.
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

    // A run of frames as a journal reads it is held by segment.rs's
    // `truncated_tail_keeps_the_prefix` and tests/commit_frames.rs's (a),
    // (b) and `a_frame_header_promising_the_moon_is_a_torn_tail`.

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
}
