//! Point-in-time snapshots of the registry state.
//!
//! A snapshot at LSN `L` captures everything the journal's first `L`
//! records would rebuild: the live listing table and the full feedback
//! log (per-subject order preserved). Recovery then only replays WAL
//! records with `lsn >= L`, and the compactor may delete every segment
//! whose records all have `lsn < L`.
//!
//! File layout (`snap-{lsn:016x}.snap`):
//!
//! ```text
//! magic "WSRS" | version u8 | lsn u64 | body_len u64 | body_crc u32 | body
//! body (v4)   = n_listings u64, n_feedback u64, payload
//!               (one commit payload: a Publish per listing, then reports)
//! body (v1–3) = n_listings u64, listings…, n_feedback u64, feedback…
//! ```
//!
//! Version 4 spells records as the WAL does, so a checkpoint costs about
//! the WAL bytes it replaces; versions 1–3 (fixed-width) are only read.
//!
//! Snapshots are written to a temp file, fsynced, then renamed into
//! place, so a crash mid-snapshot leaves either the old snapshot or the
//! new one — never a half file with a valid name. The checksum guards the
//! rename-visible content anyway; an invalid snapshot is skipped and the
//! previous one is used.

use crate::codec::{get_feedback, get_listing, put_u64, CodecError, CompactRules, Cursor};
use crate::frame::crc32;
use crate::journal::sync_dir;
use crate::record::{decode_payload, put_payload, JournalRecord, MIN_RECORD_LEN};
use crate::segment::{list_named, parse_lsn_name};
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_sim::registry::Listing;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"WSRS";
/// The version byte this build writes. Versions 1–3 all name the first
/// snapshot's fixed-width body (builds up to segment format 3 stamped it
/// with the segment format of the day). It does not follow
/// [`crate::segment::FORMAT_VERSION`]: a segment bump must not make the
/// snapshots beside it read as damaged.
pub const SNAPSHOT_VERSION: u8 = 4;
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// The file name of the snapshot covering records `[0, lsn)`.
pub fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:016x}.snap")
}

/// Parse a snapshot file name back to its covered LSN.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    parse_lsn_name(name, "snap-", ".snap")
}

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The snapshot covers journal records `[0, lsn)`.
    pub lsn: u64,
    /// Live listings at the snapshot point.
    pub listings: Vec<Listing>,
    /// Every feedback report applied before the snapshot point, in
    /// original order per subject.
    pub feedback: Vec<Feedback>,
}

impl Snapshot {
    /// Total entries carried (listings + feedback).
    pub fn entries(&self) -> u64 {
        self.listings.len() as u64 + self.feedback.len() as u64
    }
}

/// Snapshot paths in the directory, ordered by covered LSN.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_named(dir, parse_snapshot_name)
}

/// Write a snapshot atomically (temp file + fsync + rename) and return
/// its final path.
pub fn write_snapshot(
    dir: &Path,
    lsn: u64,
    listings: &[Listing],
    feedback: &[Feedback],
) -> io::Result<PathBuf> {
    // Listings leave the round alone: the two runs are one payload.
    let mut body = Vec::new();
    put_u64(&mut body, listings.len() as u64);
    put_u64(&mut body, feedback.len() as u64);
    put_payload(&mut body, &mut listings.iter(), usize::MAX);
    put_payload(&mut body, &mut feedback.iter(), usize::MAX);

    let mut bytes = Vec::with_capacity(HEADER_LEN + body.len());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.push(SNAPSHOT_VERSION);
    bytes.extend_from_slice(&lsn.to_le_bytes());
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    bytes.extend_from_slice(&body);

    let final_path = dir.join(snapshot_file_name(lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(lsn)));
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp_path)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir);
    Ok(final_path)
}

/// Read and validate one snapshot file; `Ok(None)` if it is damaged. The
/// checksum covers the body alone, so a header whose LSN is not the one
/// the file is named by is damage too.
pub fn read_snapshot(path: &Path) -> io::Result<Option<Snapshot>> {
    let bytes = fs::read(path)?;
    if bytes.len() < HEADER_LEN
        || bytes[..4] != SNAPSHOT_MAGIC
        || !(1..=SNAPSHOT_VERSION).contains(&bytes[4])
    {
        return Ok(None);
    }
    let lsn = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
    let body_len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
    let body_crc = u32::from_le_bytes(bytes[21..25].try_into().unwrap());
    let body = &bytes[HEADER_LEN..];
    let named = path
        .file_name()
        .and_then(|name| parse_snapshot_name(name.to_str()?));
    if named != Some(lsn) || body.len() != body_len || crc32(body) != body_crc {
        return Ok(None);
    }
    let mut cur = Cursor::new(body);
    match decode_body(bytes[4], &mut cur) {
        // A body decodes to its last byte, as a frame does.
        Ok((listings, feedback)) if cur.remaining() == 0 => Ok(Some(Snapshot {
            lsn,
            listings,
            feedback,
        })),
        _ => Ok(None),
    }
}

/// The listings and reports of a body of `version`. A version-4 body is
/// refused unless its payload holds exactly the listings, then exactly
/// the reports, its counts name; a count its bytes cannot hold is
/// refused before anything is allocated.
fn decode_body(
    version: u8,
    cur: &mut Cursor<'_>,
) -> Result<(Vec<Listing>, Vec<Feedback>), CodecError> {
    let (mut listings, mut feedback) = (Vec::new(), Vec::new());
    if version < SNAPSHOT_VERSION {
        for _ in 0..cur.u64()? {
            listings.push(get_listing(cur)?);
        }
        for _ in 0..cur.u64()? {
            feedback.push(get_feedback(cur)?);
        }
        return Ok((listings, feedback));
    }
    let (n_listings, n_feedback) = (cur.u64()? as usize, cur.u64()? as usize);
    if n_listings.saturating_add(n_feedback) > cur.remaining() / MIN_RECORD_LEN {
        return Err(CodecError::BadCount);
    }
    listings.reserve_exact(n_listings);
    feedback.reserve_exact(n_feedback);
    decode_payload(cur, CompactRules::Format6(None), |record| {
        match record {
            JournalRecord::Publish(listing) if listings.len() < n_listings => {
                listings.push(listing)
            }
            JournalRecord::Feedback(report)
                if listings.len() == n_listings && feedback.len() < n_feedback =>
            {
                feedback.push(report)
            }
            _ => return Err(CodecError::BadCount),
        }
        Ok(())
    })?;
    if feedback.len() != n_feedback || listings.len() != n_listings {
        return Err(CodecError::BadCount);
    }
    Ok((listings, feedback))
}

/// The newest snapshot that validates, if any.
pub fn latest_snapshot(dir: &Path) -> io::Result<Option<Snapshot>> {
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        if let Some(snapshot) = read_snapshot(&path)? {
            return Ok(Some(snapshot));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ProviderId, ServiceId};
    use wsrep_core::time::Time;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    fn listing(service: u64) -> Listing {
        Listing {
            service: ServiceId::new(service),
            provider: ProviderId::new(service),
            category: 1,
            advertised: QosVector::from_pairs([(Metric::Price, service as f64)]),
        }
    }

    fn feedback(i: u64) -> Feedback {
        Feedback::scored(AgentId::new(i), ServiceId::new(i % 2), 0.25, Time::new(i))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsrep-journal-snapshot-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = temp_dir("roundtrip");
        let listings: Vec<Listing> = (0..3).map(listing).collect();
        let feedback: Vec<Feedback> = (0..10).map(feedback).collect();
        let path = write_snapshot(&dir, 42, &listings, &feedback).unwrap();
        let snapshot = read_snapshot(&path).unwrap().expect("valid snapshot");
        assert_eq!(snapshot.lsn, 42);
        assert_eq!(snapshot.listings, listings);
        assert_eq!(snapshot.feedback, feedback);
        assert_eq!(snapshot.entries(), 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot file as builds before version 4 wrote it: the counted,
    /// fixed-width body.
    fn fixed_width_file(
        lsn: u64,
        version: u8,
        listings: &[Listing],
        feedback: &[Feedback],
    ) -> Vec<u8> {
        use crate::codec::{put_feedback, put_listing, put_u64};
        let mut body = Vec::new();
        put_u64(&mut body, listings.len() as u64);
        listings.iter().for_each(|l| put_listing(&mut body, l));
        put_u64(&mut body, feedback.len() as u64);
        feedback.iter().for_each(|f| put_feedback(&mut body, f));
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.push(version);
        bytes.extend_from_slice(&lsn.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        [bytes, body].concat()
    }

    #[test]
    fn versions_1_to_3_are_read_and_version_4_is_written() {
        let dir = temp_dir("versions");
        let (listings, feedback) = (vec![listing(1)], vec![feedback(0), feedback(1)]);
        let path = write_snapshot(&dir, 7, &listings, &feedback).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[4], SNAPSHOT_VERSION);
        let written = read_snapshot(&path).unwrap().expect("a v4 body");
        assert_eq!(
            (written.listings, written.feedback),
            (listings.clone(), feedback.clone())
        );
        for version in 1..SNAPSHOT_VERSION {
            fs::write(&path, fixed_width_file(7, version, &listings, &feedback)).unwrap();
            let snapshot = read_snapshot(&path).unwrap().expect("the fixed-width body");
            assert_eq!(
                (snapshot.listings, snapshot.feedback),
                (listings.clone(), feedback.clone())
            );
        }
        // Each body under the other's version byte is damage, not data.
        let fixed = fixed_width_file(7, SNAPSHOT_VERSION, &listings, &feedback);
        fs::write(&path, fixed).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), None, "a v3 body stamped v4");
        bytes[4] = 3;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), None, "a v4 body stamped v3");
        for version in [0, SNAPSHOT_VERSION + 1] {
            bytes[4] = version;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_snapshot(&path).unwrap(), None, "v{version}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-4 body holds exactly its counted listings, then exactly
    /// its counted reports: anything else is damage, and a count the bytes
    /// cannot hold is refused before it is allocated for.
    #[test]
    fn a_v4_body_holds_its_counted_listings_then_reports() {
        let dir = temp_dir("order");
        let path = dir.join(snapshot_file_name(3));
        let body = |n_listings: u64, n_feedback: u64, records: &[JournalRecord]| {
            let mut body = n_listings.to_le_bytes().to_vec();
            body.extend_from_slice(&n_feedback.to_le_bytes());
            body.extend_from_slice(&crate::record::tests::payload(records));
            let mut bytes = SNAPSHOT_MAGIC.to_vec();
            bytes.push(SNAPSHOT_VERSION);
            bytes.extend_from_slice(&3u64.to_le_bytes());
            bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            fs::write(&path, [bytes, body].concat()).unwrap();
            read_snapshot(&path).unwrap().map(|s| s.entries())
        };
        let (publish, report) = (
            JournalRecord::Publish(listing(1)),
            JournalRecord::Feedback(feedback(0)),
        );
        let withdrawal = JournalRecord::Deregister(ServiceId::new(1));
        assert_eq!(body(1, 1, &[publish.clone(), report.clone()]), Some(2));
        assert_eq!(body(0, 0, &[]), Some(0));
        assert_eq!(body(1, 1, &[report.clone(), publish.clone()]), None);
        assert_eq!(body(0, 2, &[report.clone(), withdrawal]), None);
        assert_eq!(body(1, 2, &[publish.clone(), report.clone()]), None);
        assert_eq!(body(0, 1, &[publish.clone(), report.clone()]), None);
        assert_eq!(body(1, 0, &[publish.clone(), report.clone()]), None);
        assert_eq!(body(u64::MAX, 1, &[publish.clone(), report.clone()]), None);
        assert_eq!(body(1, u64::MAX, &[publish, report]), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_skipped_for_the_previous_one() {
        let dir = temp_dir("fallback");
        write_snapshot(&dir, 10, &[listing(1)], &[feedback(0)]).unwrap();
        let newer = write_snapshot(&dir, 20, &[listing(2)], &[feedback(1)]).unwrap();
        // Damage the newer snapshot's body.
        let mut bytes = fs::read(&newer).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newer, &bytes).unwrap();
        let snapshot = latest_snapshot(&dir).unwrap().expect("older one survives");
        assert_eq!(snapshot.lsn, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = temp_dir("none");
        assert_eq!(latest_snapshot(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(77)), Some(77));
        assert_eq!(parse_snapshot_name("wal-0000000000000000.log"), None);
        assert_eq!(parse_snapshot_name("snap-0000000000000000.snap.tmp"), None);
    }
}
