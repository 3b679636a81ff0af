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
//! body = n_listings u64, listings…, n_feedback u64, feedback…
//! ```
//!
//! Snapshots are written to a temp file, fsynced, then renamed into
//! place, so a crash mid-snapshot leaves either the old snapshot or the
//! new one — never a half file with a valid name. The checksum guards the
//! rename-visible content anyway; an invalid snapshot is skipped and the
//! previous one is used.

use crate::codec::{get_feedback, get_listing, put_feedback, put_listing, put_u64, Cursor};
use crate::frame::crc32;
use crate::journal::sync_dir;
use crate::segment::{list_named, parse_lsn_name};
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use wsrep_core::feedback::Feedback;
use wsrep_sim::registry::Listing;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"WSRS";
/// The version byte this build writes. The body has had one layout since
/// the first snapshot; builds up to segment format 3 stamped it with the
/// segment format of the day, so 1–3 all name that layout and are read.
/// It no longer follows [`crate::segment::FORMAT_VERSION`]: a segment
/// bump must not make the snapshots beside it read as damaged.
pub const SNAPSHOT_VERSION: u8 = 3;
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
    let mut body = Vec::new();
    put_u64(&mut body, listings.len() as u64);
    for listing in listings {
        put_listing(&mut body, listing);
    }
    put_u64(&mut body, feedback.len() as u64);
    for report in feedback {
        put_feedback(&mut body, report);
    }

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
    let mut decode = || -> Result<(Vec<Listing>, Vec<Feedback>), crate::codec::CodecError> {
        let n_listings = cur.u64()?;
        let mut listings = Vec::with_capacity(n_listings.min(1 << 20) as usize);
        for _ in 0..n_listings {
            listings.push(get_listing(&mut cur)?);
        }
        let n_feedback = cur.u64()?;
        let mut feedback = Vec::with_capacity(n_feedback.min(1 << 20) as usize);
        for _ in 0..n_feedback {
            feedback.push(get_feedback(&mut cur)?);
        }
        Ok((listings, feedback))
    };
    match decode() {
        // A body decodes to its last byte, as a frame does.
        Ok((listings, feedback)) if cur.remaining() == 0 => Ok(Some(Snapshot {
            lsn,
            listings,
            feedback,
        })),
        _ => Ok(None),
    }
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

    #[test]
    fn a_segment_format_bump_leaves_earlier_snapshots_readable() {
        let dir = temp_dir("versions");
        let path = write_snapshot(&dir, 7, &[listing(1)], &[feedback(0)]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[4], SNAPSHOT_VERSION);
        for version in 1..=SNAPSHOT_VERSION {
            bytes[4] = version;
            fs::write(&path, &bytes).unwrap();
            let snapshot = read_snapshot(&path).unwrap().expect("one body layout");
            assert_eq!((snapshot.lsn, snapshot.entries()), (7, 2), "v{version}");
        }
        for version in [0, SNAPSHOT_VERSION + 1] {
            bytes[4] = version;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_snapshot(&path).unwrap(), None, "v{version}");
        }
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
