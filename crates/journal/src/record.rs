//! The journal's event vocabulary, and the one way new bytes spell it.
//!
//! The registry's durable state is fully determined by three event kinds:
//! consumer feedback (the reputation evidence), listing publication and
//! listing withdrawal. Everything else the service holds — accumulators,
//! published scores, normalization matrices — is derived and is
//! rebuilt by replay, never persisted. This is the log-then-derive
//! architecture: the WAL is the source of truth, the in-memory store is a
//! view.
//!
//! A record opens with one byte. Tags 1–3 are the version-1 contract: a
//! fixed-width feedback report (read from segments of format 1–5, no
//! longer written), a listing, a withdrawal. A byte with
//! [`FEEDBACK_COMPACT`] set is the head of a compact feedback report.
//!
//! Every record says where it ends, so **the commit payload** is records
//! back to back, each report leaving out a round the one before it held:
//! a format-6 frame's, an `Ingest`'s, a `ReplBatch`'s and a snapshot's
//! body. [`put_payload`] writes it and [`decode_payload`] reads it.

use crate::codec::{
    get_feedback, get_feedback_compact, get_listing, put_feedback_compact, put_listing, put_u64,
    CodecError, CompactRules, Cursor, FEEDBACK_COMPACT,
};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::ServiceId;
use wsrep_sim::registry::Listing;

const TAG_FEEDBACK: u8 = 1;
const TAG_PUBLISH: u8 = 2;
const TAG_DEREGISTER: u8 = 3;

/// No record is shorter (a withdrawal: its tag and a `u64`), so a count
/// of more records than a payload's bytes over this is refused unread.
pub const MIN_RECORD_LEN: usize = 9;

/// One durable registry event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A consumer feedback report was accepted.
    Feedback(Feedback),
    /// A listing was published or updated.
    Publish(Listing),
    /// A listing was withdrawn.
    Deregister(ServiceId),
}

impl JournalRecord {
    /// The feedback report this record carries, if it is one.
    pub fn as_feedback(&self) -> Option<&Feedback> {
        match self {
            JournalRecord::Feedback(feedback) => Some(feedback),
            _ => None,
        }
    }
}

/// A record, or what one carries (a report for an `Ingest`, a listing for
/// a snapshot), as a commit payload spells it.
pub trait PayloadRecord {
    /// Append as the next record of a payload whose last report so far
    /// had round `*round` (see [`put_feedback_compact`]).
    fn put(&self, out: &mut Vec<u8>, round: &mut Option<u64>);
}

impl PayloadRecord for Feedback {
    fn put(&self, out: &mut Vec<u8>, round: &mut Option<u64>) {
        put_feedback_compact(out, self, round);
    }
}

impl PayloadRecord for Listing {
    fn put(&self, out: &mut Vec<u8>, _round: &mut Option<u64>) {
        out.push(TAG_PUBLISH);
        put_listing(out, self);
    }
}

impl PayloadRecord for JournalRecord {
    fn put(&self, out: &mut Vec<u8>, round: &mut Option<u64>) {
        match self {
            JournalRecord::Feedback(feedback) => feedback.put(out, round),
            JournalRecord::Publish(listing) => listing.put(out, round),
            JournalRecord::Deregister(service) => {
                out.push(TAG_DEREGISTER);
                put_u64(out, service.raw());
            }
        }
    }
}

/// Append records from `records` to `out` as one commit payload, until
/// they run out or `out` holds `until_len` bytes (`usize::MAX`: never).
/// It leaves out only rounds it holds, so it decodes on its own.
pub fn put_payload<'a, R: PayloadRecord + 'a>(
    out: &mut Vec<u8>,
    records: &mut impl Iterator<Item = &'a R>,
    until_len: usize,
) {
    let mut round = None;
    while out.len() < until_len {
        match records.next() {
            Some(record) => record.put(out, &mut round),
            None => return,
        }
    }
}

/// Decode the commit payload at the cursor to its last byte under `rules`
/// (`Format6` for all written today), handing each record to `keep`. An
/// empty payload holds none. The first record that does not decode, or
/// that `keep` refuses, ends it with its error.
pub fn decode_payload(
    cur: &mut Cursor<'_>,
    mut rules: CompactRules,
    mut keep: impl FnMut(JournalRecord) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    while cur.remaining() != 0 {
        let record = match cur.u8()? {
            TAG_FEEDBACK if rules == CompactRules::Format5 => {
                JournalRecord::Feedback(get_feedback(cur)?)
            }
            TAG_PUBLISH => JournalRecord::Publish(get_listing(cur)?),
            TAG_DEREGISTER => JournalRecord::Deregister(ServiceId::new(cur.u64()?)),
            head if head & FEEDBACK_COMPACT != 0 => {
                JournalRecord::Feedback(get_feedback_compact(head, cur, &mut rules)?)
            }
            tag => Err(CodecError::BadTag {
                what: "record",
                tag,
            })?,
        };
        keep(record)?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ProviderId};
    use wsrep_core::time::Time;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    /// `records` as one commit payload.
    pub(crate) fn payload(records: &[JournalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        put_payload(&mut out, &mut records.iter(), usize::MAX);
        out
    }

    fn decoded(bytes: &[u8]) -> Result<Vec<JournalRecord>, CodecError> {
        let mut records = Vec::new();
        decode_payload(
            &mut Cursor::new(bytes),
            CompactRules::Format6(None),
            |record| {
                records.push(record);
                Ok(())
            },
        )?;
        Ok(records)
    }

    #[test]
    fn every_variant_round_trips() {
        let records = vec![
            JournalRecord::Feedback(Feedback::scored(
                AgentId::new(1),
                ServiceId::new(2),
                0.75,
                Time::new(3),
            )),
            JournalRecord::Publish(Listing {
                service: ServiceId::new(4),
                provider: ProviderId::new(5),
                category: 6,
                advertised: QosVector::from_pairs([(Metric::Accuracy, 0.9)]),
            }),
            JournalRecord::Deregister(ServiceId::new(7)),
        ];
        assert_eq!(decoded(&payload(&records)), Ok(records.clone()));
        for record in records {
            let one = std::slice::from_ref(&record);
            assert_eq!(decoded(&payload(one)), Ok(one.to_vec()));
        }
        assert_eq!(decoded(&[]), Ok(Vec::new()), "an empty payload");
    }

    /// What a report costs at the benchmark's shape (raters and services in
    /// the low thousands, scores in (0, 1), a round held for 4 096 reports):
    /// the benchmark gates `disk_bytes_per_report` per PR, this keeps it
    /// from drifting between them. A report is 12 bytes in a frame; each
    /// commit adds its 8-byte frame header and stores its first round, and
    /// a round that changes inside a commit is stored once more.
    #[test]
    fn a_plain_report_fits_its_byte_budget() {
        let report = |i: u64| {
            JournalRecord::Feedback(Feedback::scored(
                AgentId::new(16_383 - i % 2_000),
                ServiceId::new(16_383 - i % 4_000),
                (i + 1) as f64 / 10_001.0,
                Time::new(i / 4_096),
            ))
        };
        let reports: Vec<JournalRecord> = (0..10_000).map(report).collect();
        for record in &reports {
            assert!(
                payload(std::slice::from_ref(record)).len() <= 13,
                "{record:?}"
            );
        }
        let round_changes = 2;

        let root =
            std::env::temp_dir().join(format!("wsrep-journal-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let set = crate::GroupSet::open(&root, 1, crate::JournalConfig::default(), 0).unwrap();
        let dir_bytes = || -> u64 {
            std::fs::read_dir(root.join(crate::group_dir_name(0)))
                .unwrap()
                .map(|entry| entry.unwrap().metadata().unwrap().len())
                .sum()
        };
        for commit in [500, 8] {
            let before = dir_bytes();
            for batch in reports.chunks(commit) {
                set.append_batch(0, batch).unwrap();
            }
            let grown = dir_bytes() - before;
            let commits = (reports.len() / commit) as u64;
            let budget = 12 * reports.len() as u64 + (8 + 1) * commits + round_changes;
            assert!(
                grown <= budget,
                "{grown} bytes for {} reports, {commit} a commit",
                reports.len()
            );
        }
        drop(set);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(matches!(decoded(&[0x7F]), Err(CodecError::BadTag { .. })));
    }

    #[test]
    fn a_payload_decodes_to_its_last_byte() {
        let mut bytes = payload(&[JournalRecord::Deregister(ServiceId::new(1))]);
        bytes.push(0);
        let mut seen = Vec::new();
        let mut cur = Cursor::new(&bytes);
        let refused = decode_payload(&mut cur, CompactRules::Format6(None), |record| {
            seen.push(record);
            Ok(())
        });
        assert_eq!(
            refused,
            Err(CodecError::BadTag {
                what: "record",
                tag: 0
            })
        );
        // A record says where it ends: the one before the stray byte decoded.
        assert_eq!(seen, vec![JournalRecord::Deregister(ServiceId::new(1))]);
        assert_eq!(cur.remaining(), 0);
    }

    /// The first round a payload holds is stored; a report of the same
    /// round after it leaves its round out, and stands for nothing alone.
    #[test]
    fn a_payload_carries_the_round_from_report_to_report() {
        let report = |rater| {
            JournalRecord::Feedback(Feedback::scored(
                AgentId::new(rater),
                ServiceId::new(2),
                0.5,
                Time::new(9),
            ))
        };
        let records = [report(1), report(2)];
        let both = payload(&records);
        let first = payload(&records[..1]);
        assert_eq!(both.len(), 2 * first.len() - 1, "the second round left out");
        assert!(decoded(&both[first.len()..]).is_err(), "no round to carry");
    }
}
