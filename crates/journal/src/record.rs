//! The journal's event vocabulary.
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
//! [`FEEDBACK_COMPACT`] set is the head of a compact feedback report,
//! what segments of format 4 and up hold and `ReplBatch` carries to
//! replicas ([`JournalRecord::encode`]).
//!
//! Every record says where it ends ([`JournalRecord::decode_from`]), so a
//! frame of format 5 and up holds one commit's records back to back with
//! no count and no lengths between them; a frame of an earlier format,
//! and a `ReplBatch` entry, holds exactly one ([`JournalRecord::decode`]).

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

/// Bytes follow a record where exactly one was due.
pub(crate) const TRAILING_BYTES: CodecError = CodecError::BadTag {
    what: "record trailing bytes",
    tag: 0,
};

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

    /// Encode on its own, as a `ReplBatch` entry carries it: a compact
    /// report, or a tag byte plus the version-1 payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_in_frame(out, &mut None);
    }

    /// Encode as the next record of a format-6 frame whose last report so
    /// far had round `*round` (see [`put_feedback_compact`]).
    pub fn encode_in_frame(&self, out: &mut Vec<u8>, round: &mut Option<u64>) {
        match self {
            JournalRecord::Feedback(feedback) => put_feedback_compact(out, feedback, round),
            JournalRecord::Publish(listing) => {
                out.push(TAG_PUBLISH);
                put_listing(out, listing);
            }
            JournalRecord::Deregister(service) => {
                out.push(TAG_DEREGISTER);
                put_u64(out, service.raw());
            }
        }
    }

    /// Encode into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode the record at the cursor under `rules`, leaving the cursor past
    /// it. A format-6 frame holds no tag-1 report: it would not re-encode.
    pub fn decode_from(cur: &mut Cursor<'_>, rules: &mut CompactRules) -> Result<Self, CodecError> {
        match cur.u8()? {
            TAG_FEEDBACK if !matches!(rules, CompactRules::Format6(_)) => {
                Ok(JournalRecord::Feedback(get_feedback(cur)?))
            }
            TAG_PUBLISH => Ok(JournalRecord::Publish(get_listing(cur)?)),
            TAG_DEREGISTER => Ok(JournalRecord::Deregister(ServiceId::new(cur.u64()?))),
            head if head & FEEDBACK_COMPACT != 0 => Ok(JournalRecord::Feedback(
                get_feedback_compact(head, cur, rules)?,
            )),
            tag => Err(CodecError::BadTag {
                what: "record",
                tag,
            }),
        }
    }

    /// Decode one record on its own ([`CompactRules::Alone`]) from
    /// `bytes`, requiring the buffer to be exactly one record long (where
    /// the container delimits records, trailing garbage means corruption).
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut cur = Cursor::new(bytes);
        let record = Self::decode_from(&mut cur, &mut CompactRules::Alone)?;
        if cur.remaining() != 0 {
            return Err(TRAILING_BYTES);
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ProviderId};
    use wsrep_core::time::Time;
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    #[test]
    fn every_variant_round_trips() {
        let records = [
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
        for record in records {
            let bytes = record.to_bytes();
            assert_eq!(JournalRecord::decode(&bytes).unwrap(), record);
        }
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
            assert!(record.to_bytes().len() <= 13, "{record:?}");
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
        assert!(matches!(
            JournalRecord::decode(&[0x7F]),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = JournalRecord::Deregister(ServiceId::new(1)).to_bytes();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).is_err());
        // `decode_from` is where a record says how long it is.
        let mut cur = Cursor::new(&bytes);
        let first = JournalRecord::decode_from(&mut cur, &mut CompactRules::Alone).unwrap();
        assert_eq!(first, JournalRecord::Deregister(ServiceId::new(1)));
        assert_eq!(cur.remaining(), 1);
    }
}
