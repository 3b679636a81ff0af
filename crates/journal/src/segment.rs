//! WAL segment files.
//!
//! A log directory holds a sequence of segment files named by a **log
//! sequence number (LSN)** no record inside lies below:
//!
//! ```text
//! wal-0000000000000000.log      records [0, 181)
//! wal-00000000000000b5.log      records [181, 402)
//! wal-0000000000000192.log      records [402, …)   ← active segment
//! snap-0000000000000192.snap    snapshot covering records [0, 402)
//! ```
//!
//! Each segment starts with a 13-byte header (`WSRJ`, format version,
//! start LSN) followed by CRC32 frames (see [`crate::frame`]): **one
//! frame per commit**, its payload the commit's records back to back
//! (before format 5, one frame per record). **The frame rule**, how a
//! frame's records get their LSNs, lives in [`LsnWalk`] and nowhere else:
//! a frame's first record has its predecessor's last LSN plus one (in the
//! first frame, the header's start LSN) unless the payload opens with
//! [`LSN_MARKER`] and the `u64` LSN it has instead; the records after it
//! count up from there. A log that shares its LSN space with other writer
//! groups (see [`crate::group`]) states an LSN exactly where one of its
//! commits does not continue its own previous one; a log written alone
//! never does. A frame is read whole or not at all: one that does not
//! check, label and decode to its last byte is where the log ends. One
//! frame loop reads them all, at rest or still growing: `SegmentReader`.
//!
//! Every journal keeps its segments in `group-NNN/` subdirectories of the
//! journal root, one per writer group; the root itself may hold the
//! sealed log of a single-directory past life, and readers merge both.

use crate::codec::{CodecError, CompactRules, Cursor};
use crate::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use crate::record::{decode_payload, JournalRecord};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"WSRJ";
/// On-disk format version this build writes: a frame is one commit, its
/// payload `[LSN_MARKER ‖ lsn]? record record …`. Versions 1–5 are read,
/// never written: version 5 is version 6 with no report leaving out a
/// score byte or a round ([`crate::codec::CompactRules`]); versions 1–4
/// hold exactly one record in every frame: version 4 is version 5
/// otherwise; version 3 carries feedback fixed-width (see
/// [`crate::record`]); version 1 is version 3 in which no frame ever
/// states its LSN; version 2 (every payload is `LSN ‖ record`, no marker)
/// is one branch of [`LsnWalk`].
///
/// Each change of what a frame may hold earned its bump: a frame whose
/// checksum holds and whose payload does not decode scans as a torn tail,
/// and `Journal::open` truncates a torn final segment. A format-5 build
/// shown a short score would take it for damage and cut acknowledged
/// reports off the log; under version 6 it refuses the segment
/// ([`LsnWalk::from_header`]).
pub const FORMAT_VERSION: u8 = 6;
/// Segment header bytes: magic + version + start LSN.
pub const SEGMENT_HEADER_LEN: usize = 13;
/// First payload byte of a frame that states its LSN (the `u64` LE that
/// follows, then the records). No record tag uses it.
pub const LSN_MARKER: u8 = 0;

/// The file name of the segment whose header carries `start_lsn`.
pub fn segment_file_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:016x}.log")
}

/// Parse a segment file name back to its start LSN.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    parse_lsn_name(name, "wal-", ".log")
}

/// Parse `{prefix}{lsn:016x}{suffix}` back to the LSN.
pub(crate) fn parse_lsn_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    u64::from_str_radix(hex, 16)
        .ok()
        .filter(|_| hex.len() == 16)
}

/// Encode a segment header in the format this build writes.
pub fn segment_header(start_lsn: u64) -> [u8; SEGMENT_HEADER_LEN] {
    segment_header_versioned(start_lsn, FORMAT_VERSION)
}

/// Encode a segment header of any version — for fixtures of the formats
/// earlier builds wrote.
pub fn segment_header_versioned(start_lsn: u64, version: u8) -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4] = version;
    header[5..].copy_from_slice(&start_lsn.to_le_bytes());
    header
}

/// Why [`LsnWalk::step`] refused a frame: damage no healthy writer leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDamage {
    /// The stated LSN is cut short, goes backwards, or leaves no LSN for
    /// the records behind it.
    Lsn,
    /// The record that would have had `lsn` does not decode; an empty
    /// payload lacks its first.
    Record {
        /// The LSN the record would have had.
        lsn: u64,
        /// What its decoder met.
        err: CodecError,
    },
}

impl fmt::Display for FrameDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameDamage::Lsn => write!(f, "states a truncated or backward LSN"),
            FrameDamage::Record { lsn, err } => write!(f, "undecodable record at lsn {lsn}: {err}"),
        }
    }
}

/// The frame rule: walks one segment's frame payloads and labels every
/// record in them with its LSN.
#[derive(Debug, Clone, Copy)]
pub struct LsnWalk {
    version: u8,
    next: u64,
}

impl LsnWalk {
    /// Read a segment header. `Ok(None)` when `bytes` does not open with
    /// one (too short, wrong magic); a whole header of a version this
    /// build cannot interpret is an error — the file *is* a segment, and
    /// treating it as garbage would let `Journal::open` delete it.
    pub fn from_header(bytes: &[u8], path: &Path) -> io::Result<Option<LsnWalk>> {
        if bytes.len() < SEGMENT_HEADER_LEN || bytes[..4] != SEGMENT_MAGIC {
            return Ok(None);
        }
        let version = bytes[4];
        if !(1..=FORMAT_VERSION).contains(&version) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "segment {} has unknown format version {version}",
                    path.display()
                ),
            ));
        }
        let next = u64::from_le_bytes(bytes[5..SEGMENT_HEADER_LEN].try_into().unwrap());
        Ok(Some(LsnWalk { version, next }))
    }

    /// The header's format version.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The LSN the next frame's first record has unless the frame states
    /// another: the header's start LSN before the first frame, one past
    /// the last record's after.
    pub fn next_lsn(&self) -> u64 {
        self.next
    }

    /// Label and decode the next frame, handing each record to `emit` as
    /// it decodes: every record to the payload's last byte in a frame of
    /// format 5 and up, exactly one in an earlier format's.
    ///
    /// A frame is all or nothing. On `Err` the walk has not advanced and
    /// the frame's records are not part of the log, those already handed
    /// to `emit` included: the caller takes them back.
    pub fn step(
        &mut self,
        payload: &[u8],
        mut emit: impl FnMut(u64, JournalRecord),
    ) -> Result<(), FrameDamage> {
        let mut cur = Cursor::new(payload);
        let marked = self.version != 2 && payload.first() == Some(&LSN_MARKER);
        if marked {
            let _ = cur.u8();
        }
        // Every version-2 payload opens with its LSN, marker-less.
        let mut lsn = if marked || self.version == 2 {
            cur.u64().map_err(|_| FrameDamage::Lsn)?
        } else {
            self.next
        };
        if lsn < self.next {
            return Err(FrameDamage::Lsn);
        }
        // Before format 5 a frame is one record, to its last byte.
        let lone = self.version < 5;
        let rules = if self.version < 6 {
            CompactRules::Format5
        } else {
            CompactRules::Format6(None)
        };
        let first = lsn;
        let decoded = decode_payload(&mut cur, rules, |record| {
            if lone && lsn != first {
                return Err(CodecError::BadCount);
            }
            emit(lsn, record);
            lsn = lsn.wrapping_add(1);
            Ok(())
        });
        // An empty payload lacks its first record.
        let empty = (lsn == first).then_some(CodecError::UnexpectedEof);
        if let Some(err) = decoded.err().or(empty) {
            return Err(FrameDamage::Record { lsn, err });
        }
        // The last record took the last LSN there is.
        if lsn < first {
            return Err(FrameDamage::Lsn);
        }
        self.next = lsn;
        Ok(())
    }
}

/// The subdirectory name of writer group `group` in a journal root.
pub fn group_dir_name(group: usize) -> String {
    format!("group-{group:03}")
}

/// Parse a group directory name back to its group index.
pub fn parse_group_dir_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("group-")?;
    if digits.len() != 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The entries of `dir` whose names `parse` accepts, ordered by what it
/// makes of them.
pub(crate) fn list_named<K: Ord>(
    dir: &Path,
    parse: impl Fn(&str) -> Option<K>,
) -> io::Result<Vec<(K, PathBuf)>> {
    let mut named = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(key) = entry.file_name().to_str().and_then(&parse) {
            named.push((key, entry.path()));
        }
    }
    named.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(named)
}

/// Writer-group directories under a journal root, ordered by group
/// index. A missing root, or one that holds none, yields an empty list.
pub fn list_group_dirs(root: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    match list_named(root, parse_group_dir_name) {
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        dirs => Ok(dirs?.into_iter().filter(|(_, dir)| dir.is_dir()).collect()),
    }
}

/// Segment paths in the directory, ordered by start LSN.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_named(dir, parse_segment_name)
}

/// The decoded contents of one segment file, LSN attached to every
/// record.
#[derive(Debug)]
pub struct SegmentEntries {
    /// Start LSN from the header: a lower bound on every record in the
    /// segment, and the first record's LSN unless that frame states its
    /// own.
    pub start_lsn: u64,
    /// The records of the valid frame prefix, each with its LSN, in
    /// strictly increasing LSN order.
    pub entries: Vec<(u64, JournalRecord)>,
    /// File offset just past the last valid frame (header included).
    pub valid_len: u64,
    /// Whether bytes after the valid prefix were torn/corrupt.
    pub torn: bool,
    /// The header's format version.
    pub version: u8,
}

/// How much of a segment one read takes: some ten thousand reports. A
/// larger frame (up to [`crate::journal::FRAME_SPLIT_BYTES`]) takes more.
pub(crate) const READ_CHUNK: usize = 256 << 10;

/// Why [`SegmentReader::next_frame`] last returned `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentEnd {
    /// End of file on a frame boundary.
    Clean,
    /// End of file inside a frame: a torn tail, or a write still landing.
    Incomplete,
    /// A frame that fails its checksum (`None`) or that the walk refuses.
    Damaged(Option<FrameDamage>),
}

/// One segment file, read a whole frame at a time: the journal's one
/// frame loop. The file is read [`READ_CHUNK`] bytes at a time and cut
/// into frames by [`split_frame`]; the [`LsnWalk`] decodes a frame's
/// records straight into the caller's buffer, with no staging copy, and a
/// frame it refuses is taken back out, so a caller never sees a record of
/// a damaged frame. End of file is not final: a later
/// [`next_frame`](Self::next_frame) reads on from the last whole frame,
/// which is how a cursor tails a growing segment.
#[derive(Debug)]
pub(crate) struct SegmentReader {
    file: File,
    /// Labels the next frame: the version, and one past the last record.
    pub walk: LsnWalk,
    /// Start LSN from the header.
    pub start_lsn: u64,
    /// File offset just past the last whole frame (header included).
    pub valid_len: u64,
    /// `buf[taken..]` is the file from `valid_len` on, as far as read.
    buf: Vec<u8>,
    taken: usize,
    /// Why [`next_frame`](Self::next_frame) last returned `false`.
    pub end: SegmentEnd,
    /// Bytes read from the file, header included.
    pub bytes_read: u64,
}

impl SegmentReader {
    /// Open the segment at `path` and read its header. A header that is
    /// missing or corrupt yields `Ok(None)` — the file is not a usable
    /// segment (e.g. a crash tore the very first write) and the caller
    /// decides whether that is fatal; an unknown format version is an
    /// error (see [`LsnWalk::from_header`]).
    pub fn open(path: &Path) -> io::Result<Option<SegmentReader>> {
        let mut file = File::open(path)?;
        // The header comes in with the first chunk.
        let mut buf = Vec::with_capacity(READ_CHUNK);
        let read = (&mut file).take(READ_CHUNK as u64).read_to_end(&mut buf)?;
        let Some(walk) = LsnWalk::from_header(&buf, path)? else {
            return Ok(None);
        };
        Ok(Some(SegmentReader {
            file,
            start_lsn: walk.next_lsn(),
            walk,
            valid_len: SEGMENT_HEADER_LEN as u64,
            buf,
            taken: SEGMENT_HEADER_LEN,
            end: SegmentEnd::Clean,
            bytes_read: read as u64,
        }))
    }

    /// Append the next whole frame's records to `into`, an LSN run: `Some`
    /// LSN of its first if there was one, `None` where the frames stop for
    /// now ([`end`](Self::end) says why) and `into` is as it was.
    pub fn next_frame(&mut self, into: &mut Vec<JournalRecord>) -> io::Result<Option<u64>> {
        let mut fresh = false;
        let frame_len = loop {
            match split_frame(&self.buf[self.taken..]) {
                FrameSplit::Frame { frame_len } => break frame_len,
                // Bytes read before a failed append was taken back stitch
                // two writes into one frame: judge it on a fresh read.
                FrameSplit::Corrupt if !fresh => {
                    (fresh, self.taken) = (true, 0);
                    self.buf.clear();
                    continue;
                }
                FrameSplit::Corrupt => self.end = SegmentEnd::Damaged(None),
                FrameSplit::Incomplete if self.read_on()? > 0 => continue,
                FrameSplit::Incomplete if self.buf.is_empty() => self.end = SegmentEnd::Clean,
                FrameSplit::Incomplete => {
                    // A frame half-written now is read anew next call.
                    self.end = SegmentEnd::Incomplete;
                    self.buf.clear();
                }
            }
            return Ok(None);
        };
        let kept = into.len();
        let payload = &self.buf[self.taken + FRAME_HEADER_LEN..self.taken + frame_len];
        if let Err(damage) = self.walk.step(payload, |_, record| into.push(record)) {
            into.truncate(kept);
            self.end = SegmentEnd::Damaged(Some(damage));
            return Ok(None);
        }
        self.taken += frame_len;
        self.valid_len += frame_len as u64;
        Ok(Some(self.walk.next_lsn() - (into.len() - kept) as u64))
    }

    /// Read on behind the unconsumed bytes; returns the bytes gained.
    fn read_on(&mut self) -> io::Result<usize> {
        self.buf.drain(..self.taken);
        self.taken = 0;
        let at = self.valid_len + self.buf.len() as u64;
        self.file.seek(SeekFrom::Start(at))?;
        self.buf.reserve(READ_CHUNK);
        let gained = (&mut self.file)
            .take(READ_CHUNK as u64)
            .read_to_end(&mut self.buf)?;
        self.bytes_read += gained as u64;
        Ok(gained)
    }

    /// Whether bytes after the valid prefix were torn or damaged: a log
    /// at rest ends there.
    pub fn torn(&self) -> bool {
        self.end != SegmentEnd::Clean
    }
}

/// Read and validate one segment file: a `SegmentReader` read to its end
/// and collected. Damage is *not* an error: the whole frames before it
/// are returned with `torn = true`, whether the checksum failed or the
/// [`LsnWalk`] refused the frame.
pub fn scan_segment_entries(path: &Path) -> io::Result<Option<SegmentEntries>> {
    let Some(mut reader) = SegmentReader::open(path)? else {
        return Ok(None);
    };
    let (mut entries, mut run) = (Vec::new(), Vec::new());
    while let Some(first) = reader.next_frame(&mut run)? {
        entries.extend((first..).zip(run.drain(..)));
    }
    Ok(Some(SegmentEntries {
        start_lsn: reader.start_lsn,
        entries,
        valid_len: reader.valid_len,
        torn: reader.torn(),
        version: reader.walk.version(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use crate::journal::frame_commit;
    use crate::record::tests::payload as encoded;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::{AgentId, ServiceId};
    use wsrep_core::time::Time;

    /// A report whose bytes on their own are the same in every format
    /// that holds compact records: no score of 0 is short.
    fn record(i: u64) -> JournalRecord {
        JournalRecord::Feedback(Feedback::scored(
            AgentId::new(i),
            ServiceId::new(1),
            0.0,
            Time::new(i),
        ))
    }

    fn write_segment(path: &Path, start_lsn: u64, n: u64) -> Vec<u8> {
        let mut bytes = segment_header(start_lsn).to_vec();
        for i in 0..n {
            write_frame(&mut bytes, &encoded(&[record(start_lsn + i)]));
        }
        fs::write(path, &bytes).unwrap();
        bytes
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsrep-journal-segment-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_file_name(0), "wal-0000000000000000.log");
        assert_eq!(parse_segment_name(&segment_file_name(0xb5)), Some(0xb5));
        assert_eq!(parse_segment_name("snap-0000000000000000.snap"), None);
        assert_eq!(parse_segment_name("wal-xyz.log"), None);
    }

    #[test]
    fn scan_reads_records_back_in_order() {
        let dir = temp_dir("scan");
        let path = dir.join(segment_file_name(7));
        write_segment(&path, 7, 5);
        let scan = scan_segment_entries(&path).unwrap().expect("valid header");
        assert_eq!(scan.start_lsn, 7);
        assert_eq!(scan.version, FORMAT_VERSION);
        assert_eq!(scan.entries.len(), 5);
        assert!(!scan.torn);
        assert_eq!(scan.entries[2], (9, record(9)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_the_prefix() {
        let dir = temp_dir("torn");
        let path = dir.join(segment_file_name(0));
        let bytes = write_segment(&path, 0, 4);
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan_segment_entries(&path).unwrap().unwrap();
        assert_eq!(scan.entries.len(), 3);
        assert!(scan.torn);
        assert!(scan.valid_len < bytes.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_is_not_a_segment() {
        let dir = temp_dir("header");
        let path = dir.join(segment_file_name(0));
        fs::write(&path, b"WS").unwrap();
        assert!(scan_segment_entries(&path).unwrap().is_none());
        fs::write(&path, b"NOPE_________").unwrap();
        assert!(scan_segment_entries(&path).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment of `version` whose frames are `(lsn, stated)`: a stated
    /// frame carries its LSN the way that version spells it (every v2
    /// frame does, marker-less).
    fn write_frames(path: &Path, start_lsn: u64, version: u8, frames: &[(u64, bool)]) {
        let mut bytes = segment_header_versioned(start_lsn, version).to_vec();
        for &(lsn, stated) in frames {
            let mut payload = Vec::new();
            if version == 2 {
                payload.extend_from_slice(&lsn.to_le_bytes());
            } else if stated {
                payload.push(LSN_MARKER);
                payload.extend_from_slice(&lsn.to_le_bytes());
            }
            payload.extend_from_slice(&encoded(&[record(lsn)]));
            write_frame(&mut bytes, &payload);
        }
        fs::write(path, &bytes).unwrap();
    }

    fn scanned_lsns(path: &Path) -> (Vec<u64>, bool) {
        let scan = scan_segment_entries(path).unwrap().expect("valid header");
        for (lsn, entry) in &scan.entries {
            assert_eq!(*entry, record(*lsn), "lsn {lsn} labels its own record");
        }
        (scan.entries.iter().map(|(l, _)| *l).collect(), scan.torn)
    }

    #[test]
    fn a_frame_continues_its_predecessor_unless_it_states_its_lsn() {
        let dir = temp_dir("stated");
        let path = dir.join(segment_file_name(3));
        let frames = [(3, false), (4, false), (9, true), (10, false), (20, true)];
        write_frames(&path, 3, FORMAT_VERSION, &frames);
        assert_eq!(scanned_lsns(&path), (vec![3, 4, 9, 10, 20], false));
        // A first frame may state its LSN too: the header is a lower bound.
        write_frames(&path, 3, FORMAT_VERSION, &[(7, true), (8, false)]);
        assert_eq!(scanned_lsns(&path), (vec![7, 8], false));
        // Version 1 is the same format with no frame stating anything.
        write_frames(&path, 3, 1, &[(3, false), (4, false)]);
        assert_eq!(scanned_lsns(&path), (vec![3, 4], false));
        // Version 3 is the same frame rule.
        write_frames(&path, 3, 3, &[(3, false), (9, true)]);
        assert_eq!(scanned_lsns(&path), (vec![3, 9], false));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tagged_segments_round_trip_sparse_lsns() {
        let dir = temp_dir("tagged");
        let path = dir.join(segment_file_name(3));
        write_frames(&path, 3, 2, &[(3, true), (7, true), (8, true), (20, true)]);
        let scan = scan_segment_entries(&path).unwrap().expect("valid header");
        assert_eq!(scan.version, 2);
        assert_eq!(scan.start_lsn, 3);
        assert_eq!(scanned_lsns(&path), (vec![3, 7, 8, 20], false));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_is_an_error_not_garbage() {
        let dir = temp_dir("version");
        let path = dir.join(segment_file_name(0));
        // The next version is refused, not scanned: its records may be
        // ones this build would take for a torn tail and truncate.
        for version in [FORMAT_VERSION + 1, 9] {
            let mut bytes = segment_header_versioned(0, version).to_vec();
            write_frame(&mut bytes, &encoded(&[record(0)]));
            fs::write(&path, &bytes).unwrap();
            let err = scan_segment_entries(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains(&format!("unknown format version {version}")),
                "{err}"
            );
            assert!(crate::Journal::open(&dir, Default::default()).is_err());
            assert_eq!(fs::read(&path).unwrap(), bytes, "refused whole");
        }
        fs::write(&path, segment_header_versioned(0, 0)).unwrap();
        assert!(scan_segment_entries(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_tagged_lsn_is_torn() {
        let dir = temp_dir("order");
        let path = dir.join(segment_file_name(0));
        for version in [2, 3, FORMAT_VERSION] {
            write_frames(&path, 0, version, &[(4, true), (9, true), (6, true)]);
            assert_eq!(scanned_lsns(&path), (vec![4, 9], true), "v{version}");
        }
        // A marker with fewer than eight bytes behind it.
        let mut bytes = segment_header(0).to_vec();
        write_frame(&mut bytes, &encoded(&[record(0)]));
        write_frame(&mut bytes, &[LSN_MARKER, 5, 0, 0]);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(scanned_lsns(&path), (vec![0], true));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A frame of `lsns.len()` records, stating `lsns[0]` when asked to.
    fn commit_frame(bytes: &mut Vec<u8>, lsns: std::ops::Range<u64>, stated: bool) {
        let stated = stated.then_some(lsns.start);
        frame_commit(bytes, stated, &lsns.map(record).collect::<Vec<_>>());
    }

    #[test]
    fn a_frame_numbers_its_records_from_its_lsn() {
        let dir = temp_dir("commit");
        let path = dir.join(segment_file_name(3));
        let mut bytes = segment_header(3).to_vec();
        commit_frame(&mut bytes, 3..6, false);
        commit_frame(&mut bytes, 6..7, false);
        commit_frame(&mut bytes, 20..24, true);
        commit_frame(&mut bytes, 24..26, false);
        fs::write(&path, &bytes).unwrap();
        let expected = [3, 4, 5, 6, 20, 21, 22, 23, 24, 25];
        assert_eq!(scanned_lsns(&path), (expected.to_vec(), false));
        let scan = scan_segment_entries(&path).unwrap().unwrap();
        assert_eq!(scan.valid_len, bytes.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_frame_yields_none_of_its_records() {
        let dir = temp_dir("whole");
        let path = dir.join(segment_file_name(0));
        let mut head = segment_header(0).to_vec();
        commit_frame(&mut head, 0..2, false);
        let three = encoded(&(2..5).map(record).collect::<Vec<_>>());
        let stating = |lsn: u64, records: &[u8]| {
            let mut payload = vec![LSN_MARKER];
            payload.extend_from_slice(&lsn.to_le_bytes());
            payload.extend_from_slice(records);
            payload
        };
        let damaged: [(&str, Vec<u8>); 5] = [
            ("a last record cut short", three[..three.len() - 1].to_vec()),
            (
                "an unknown tag after two records",
                [&three[..], &[0x7F]].concat(),
            ),
            ("no record at all", Vec::new()),
            ("a stated LSN and no record", stating(9, &[])),
            ("a stated LSN that goes backwards", stating(1, &three)),
        ];
        for (what, payload) in damaged {
            let mut bytes = head.clone();
            write_frame(&mut bytes, &payload);
            commit_frame(&mut bytes, 5..6, false);
            fs::write(&path, &bytes).unwrap();
            assert_eq!(scanned_lsns(&path), (vec![0, 1], true), "{what}");
            let scan = scan_segment_entries(&path).unwrap().unwrap();
            assert_eq!(scan.valid_len, head.len() as u64, "{what}");
        }
        // The walk itself: nothing advances, whatever was handed out.
        let mut walk = LsnWalk::from_header(&head, &path).unwrap().unwrap();
        let mut seen = Vec::new();
        let damage = walk.step(&three[..three.len() - 1], |lsn, _| seen.push(lsn));
        assert!(matches!(damage, Err(FrameDamage::Record { lsn: 2, .. })));
        assert_eq!((walk.next_lsn(), seen), (0, vec![0, 1]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn before_format_5_a_frame_is_exactly_one_record() {
        let dir = temp_dir("lone");
        let path = dir.join(segment_file_name(0));
        for version in 1..5 {
            let mut bytes = segment_header_versioned(0, version).to_vec();
            let lsn = |l: u64| {
                if version == 2 {
                    l.to_le_bytes().to_vec()
                } else {
                    Vec::new()
                }
            };
            write_frame(&mut bytes, &[lsn(0), encoded(&[record(0)])].concat());
            let two = [lsn(1), encoded(&[record(1)]), encoded(&[record(2)])].concat();
            write_frame(&mut bytes, &two);
            fs::write(&path, &bytes).unwrap();
            assert_eq!(scanned_lsns(&path), (vec![0], true), "v{version}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_dir_names_round_trip() {
        assert_eq!(group_dir_name(0), "group-000");
        assert_eq!(parse_group_dir_name("group-007"), Some(7));
        assert_eq!(parse_group_dir_name("group-7"), None);
        assert_eq!(parse_group_dir_name("groups"), None);

        let dir = temp_dir("groups");
        for g in [2usize, 0, 1] {
            fs::create_dir_all(dir.join(group_dir_name(g))).unwrap();
        }
        fs::write(dir.join("group-003"), b"a file, not a dir").unwrap();
        let groups = list_group_dirs(&dir).unwrap();
        let indices: Vec<usize> = groups.iter().map(|(g, _)| *g).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        assert!(list_group_dirs(&dir.join("missing")).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_orders_by_start_lsn() {
        let dir = temp_dir("list");
        for lsn in [40u64, 0, 17] {
            write_segment(&dir.join(segment_file_name(lsn)), lsn, 1);
        }
        fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let segments = list_segments(&dir).unwrap();
        let lsns: Vec<u64> = segments.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![0, 17, 40]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
