//! Binary encoding of the journal's domain types.
//!
//! The on-disk format is a hand-rolled little-endian byte layout rather
//! than a generic serializer: the journal must be readable by any future
//! version of the code, so every discriminant below is part of the format
//! contract and may never be renumbered — new variants get new tags. The
//! golden-file test in `tests/golden.rs` pins these bytes.
//!
//! Two feedback encodings live here:
//!
//! - **The version-1 contract**, fixed width: [`put_feedback`] /
//!   [`get_feedback`] and what they are built from ([`put_subject`],
//!   [`put_qos_vector`], `u32` counts, `u64` ids). It is only read now:
//!   tag-1 feedback records in segments of format 1–3 and the bodies of
//!   snapshots of version 1–3. It is not changed.
//! - **The compact form**, what segment formats 4 and up hold and every
//!   commit payload carries ([`crate::record`]): [`put_feedback_compact`] /
//!   [`crate::record::decode_payload`] over [`put_varint`] / [`get_varint`]: varint
//!   ids and round, a head bit for an empty collection, and since format 6
//!   no `0x3F` top score byte and no round its payload holds ([`CompactRules`]).
//!
//! [`put_metric`], [`put_listing`] and the primitives serve both.
//!
//! Layout primitives: `u8`/`u32`/`u64` little-endian, `f64` as the
//! little-endian bytes of its IEEE-754 bit pattern. Fixed-width
//! collections are a `u32` count followed by the elements in order.

use std::fmt;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::Listing;

/// Decoding failed: the bytes are not a valid record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A discriminant byte is outside the format's vocabulary.
    BadTag {
        /// Which kind of value was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A varint is not the one encoding [`put_varint`] gives its value: it
    /// ends in a zero group, runs past ten bytes or overflows 64 bits.
    BadVarint,
    /// A payload holds another number of records than its count says.
    BadCount,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "record truncated mid-value"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            CodecError::BadVarint => write!(f, "varint is overlong or overflows 64 bits"),
            CodecError::BadCount => write!(f, "record count does not match the payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A reading position over an encoded byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` stored as its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a boolean encoded as a single `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a LEB128 varint: seven bits a byte, least significant group
/// first, the top bit set on every byte but the last. 1 byte below 128,
/// 2 below 16 384, 10 for `u64::MAX`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 varint, accepting only what [`put_varint`] writes: one
/// encoding per value, so a record re-encodes to the bytes it came from.
#[inline(always)]
pub fn get_varint(cur: &mut Cursor<'_>) -> Result<u64, CodecError> {
    let mut value = 0u64;
    for shift in (0..u64::BITS).step_by(7) {
        let byte = cur.u8()?;
        let group = u64::from(byte & 0x7F);
        // The tenth group holds bit 63 alone.
        if shift == 63 && group > 1 {
            return Err(CodecError::BadVarint);
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            if group == 0 && shift != 0 {
                return Err(CodecError::BadVarint);
            }
            return Ok(value);
        }
    }
    Err(CodecError::BadVarint)
}

/// Append a `u32`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append a boolean as a single `0`/`1` byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

// Metric discriminants — format contract, never renumber.
const METRIC_TAGS: [(Metric, u8); 22] = [
    (Metric::ProcessingTime, 0),
    (Metric::Throughput, 1),
    (Metric::ResponseTime, 2),
    (Metric::Latency, 3),
    (Metric::Availability, 4),
    (Metric::Accessibility, 5),
    (Metric::Accuracy, 6),
    (Metric::Reliability, 7),
    (Metric::Capacity, 8),
    (Metric::Scalability, 9),
    (Metric::Stability, 10),
    (Metric::Robustness, 11),
    (Metric::DataIntegrity, 12),
    (Metric::TransactionalIntegrity, 13),
    (Metric::Authentication, 14),
    (Metric::Authorization, 15),
    (Metric::Traceability, 16),
    (Metric::NonRepudiation, 17),
    (Metric::Confidentiality, 18),
    (Metric::Encryption, 19),
    (Metric::Accountability, 20),
    (Metric::Price, 21),
];
const METRIC_APP_SPECIFIC_TAG: u8 = 22;

/// Encode a metric as its stable tag (plus the index byte for
/// `AppSpecific`).
pub fn put_metric(out: &mut Vec<u8>, metric: Metric) {
    if let Metric::AppSpecific(k) = metric {
        out.push(METRIC_APP_SPECIFIC_TAG);
        out.push(k);
        return;
    }
    let tag = METRIC_TAGS
        .iter()
        .find(|(m, _)| *m == metric)
        .map(|(_, t)| *t)
        .expect("every non-app-specific metric has a tag");
    out.push(tag);
}

/// Decode a metric tag.
pub fn get_metric(cur: &mut Cursor<'_>) -> Result<Metric, CodecError> {
    let tag = cur.u8()?;
    if tag == METRIC_APP_SPECIFIC_TAG {
        return Ok(Metric::AppSpecific(cur.u8()?));
    }
    METRIC_TAGS
        .iter()
        .find(|(_, t)| *t == tag)
        .map(|(m, _)| *m)
        .ok_or(CodecError::BadTag {
            what: "metric",
            tag,
        })
}

const SUBJECT_AGENT: u8 = 0;
const SUBJECT_SERVICE: u8 = 1;
const SUBJECT_PROVIDER: u8 = 2;

/// Encode a subject as a kind tag plus the raw 64-bit id.
pub fn put_subject(out: &mut Vec<u8>, subject: SubjectId) {
    match subject {
        SubjectId::Agent(a) => {
            out.push(SUBJECT_AGENT);
            put_u64(out, a.raw());
        }
        SubjectId::Service(s) => {
            out.push(SUBJECT_SERVICE);
            put_u64(out, s.raw());
        }
        SubjectId::Provider(p) => {
            out.push(SUBJECT_PROVIDER);
            put_u64(out, p.raw());
        }
    }
}

/// Decode a subject tag + id.
pub fn get_subject(cur: &mut Cursor<'_>) -> Result<SubjectId, CodecError> {
    let (tag, raw) = (cur.u8()?, cur.u64()?);
    let bad = CodecError::BadTag {
        what: "subject",
        tag,
    };
    subject_of(tag, raw).ok_or(bad)
}

/// The subject of kind `kind` (its tag, or a compact head's bits 0–1).
#[inline]
pub(crate) fn subject_of(kind: u8, raw: u64) -> Option<SubjectId> {
    match kind {
        SUBJECT_AGENT => Some(AgentId::new(raw).into()),
        SUBJECT_SERVICE => Some(ServiceId::new(raw).into()),
        SUBJECT_PROVIDER => Some(ProviderId::new(raw).into()),
        _ => None,
    }
}

/// Encode a QoS vector as a count followed by `(metric, f64)` pairs in
/// the vector's stable metric order.
pub fn put_qos_vector(out: &mut Vec<u8>, vector: &QosVector) {
    put_u32(out, vector.len() as u32);
    for (metric, value) in vector.iter() {
        put_metric(out, metric);
        put_f64(out, value);
    }
}

/// Decode a QoS vector.
pub fn get_qos_vector(cur: &mut Cursor<'_>) -> Result<QosVector, CodecError> {
    let n = cur.u32()?;
    let mut vector = QosVector::new();
    for _ in 0..n {
        let metric = get_metric(cur)?;
        let value = cur.f64()?;
        vector.set(metric, value);
    }
    Ok(vector)
}

/// Encode one feedback report.
pub fn put_feedback(out: &mut Vec<u8>, feedback: &Feedback) {
    put_u64(out, feedback.rater.raw());
    put_subject(out, feedback.subject);
    put_f64(out, feedback.score);
    put_u64(out, feedback.at.round());
    put_qos_vector(out, &feedback.observed);
    put_u32(out, feedback.facet_ratings.len() as u32);
    for (&metric, &rating) in &feedback.facet_ratings {
        put_metric(out, metric);
        put_f64(out, rating);
    }
}

/// Decode one feedback report.
pub fn get_feedback(cur: &mut Cursor<'_>) -> Result<Feedback, CodecError> {
    let rater = AgentId::new(cur.u64()?);
    let subject = get_subject(cur)?;
    let score = cur.f64()?;
    let at = Time::new(cur.u64()?);
    let observed = get_qos_vector(cur)?;
    let mut feedback = Feedback::scored(rater, subject, score, at).with_observed(observed);
    let facets = cur.u32()?;
    for _ in 0..facets {
        let metric = get_metric(cur)?;
        let rating = cur.f64()?;
        feedback = feedback.with_facet(metric, rating);
    }
    Ok(feedback)
}

/// Top bit of a record's first byte: the record is a compact feedback
/// report and the byte is its head. No record tag sets it.
pub const FEEDBACK_COMPACT: u8 = 0x80;
pub(crate) const HEAD_KIND: u8 = 0b0000_0011;
pub(crate) const HEAD_OBSERVED: u8 = 0b0000_0100;
pub(crate) const HEAD_FACETS: u8 = 0b0000_1000;
pub(crate) const HEAD_SHORT_SCORE: u8 = 0b0001_0000;
pub(crate) const HEAD_SAME_ROUND: u8 = 0b0010_0000;
pub(crate) const HEAD_RESERVED: u8 = 0b0100_0000;
/// The top byte a short score leaves out: that of every `f64` in [2⁻¹⁵, 2).
pub(crate) const SCORE_TOP: u8 = 0x3F;

/// Where a compact feedback report is read, which decides the head bits
/// it may carry (see [`put_feedback_compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactRules {
    /// A frame of segment format 1–5: bits 4–6 clear.
    Format5,
    /// A commit payload as written today whose last report so far had
    /// this round, canonical both ways: bit 4 exactly when the score's top
    /// byte is `0x3F`, bit 5 exactly when the round is the previous one.
    Format6(Option<u64>),
}

fn put_pairs(out: &mut Vec<u8>, n: usize, pairs: impl Iterator<Item = (Metric, f64)>) {
    put_varint(out, n as u64);
    for (metric, value) in pairs {
        put_metric(out, metric);
        put_f64(out, value);
    }
}

/// Read the `(metric, f64)` pairs a presence bit of `head` announced.
pub(crate) fn get_pairs(
    cur: &mut Cursor<'_>,
    head: u8,
    mut set: impl FnMut(Metric, f64),
) -> Result<(), CodecError> {
    let n = get_varint(cur)?;
    if n == 0 {
        // An empty collection is spelled by a clear bit, never by a count.
        return Err(CodecError::BadTag {
            what: "feedback head (presence bit over an empty collection)",
            tag: head,
        });
    }
    for _ in 0..n {
        let metric = get_metric(cur)?;
        set(metric, cur.f64()?);
    }
    Ok(())
}

/// Encode one feedback report in the compact form a commit payload
/// holds, after a report of round `*round` in its payload (`None` at a
/// payload's start), and move `*round` on to this report's:
///
/// ```text
/// head    u8      0x80 | subject kind (bits 0–1) | observed≠∅ << 2 | facets≠∅ << 3
///                      | short score << 4 | same round << 5
/// rater   varint
/// subject varint
/// score   f64     bit-exact; its 7 low bytes when bit 4 says the top one is 0x3F
/// at      varint  absent when bit 5 says it is `*round`
/// [observed  varint n ≥ 1, then n × (metric tag, f64)]   when bit 2 is set
/// [facets    varint n ≥ 1, then n × (metric tag, f64)]   when bit 3 is set
/// ```
pub fn put_feedback_compact(out: &mut Vec<u8>, feedback: &Feedback, round: &mut Option<u64>) {
    let (kind, subject) = match feedback.subject {
        SubjectId::Agent(a) => (SUBJECT_AGENT, a.raw()),
        SubjectId::Service(s) => (SUBJECT_SERVICE, s.raw()),
        SubjectId::Provider(p) => (SUBJECT_PROVIDER, p.raw()),
    };
    let observed = !feedback.observed.is_empty();
    let facets = !feedback.facet_ratings.is_empty();
    let score = feedback.score.to_le_bytes();
    let short = score[7] == SCORE_TOP;
    let at = feedback.at.round();
    let same = round.replace(at) == Some(at);
    out.push(
        FEEDBACK_COMPACT
            | kind
            | if observed { HEAD_OBSERVED } else { 0 }
            | if facets { HEAD_FACETS } else { 0 }
            | if short { HEAD_SHORT_SCORE } else { 0 }
            | if same { HEAD_SAME_ROUND } else { 0 },
    );
    put_varint(out, feedback.rater.raw());
    put_varint(out, subject);
    out.extend_from_slice(&score[..if short { 7 } else { 8 }]);
    if !same {
        put_varint(out, at);
    }
    if observed {
        put_pairs(out, feedback.observed.len(), feedback.observed.iter());
    }
    if facets {
        let ratings = feedback.facet_ratings.iter().map(|(&m, &r)| (m, r));
        put_pairs(out, feedback.facet_ratings.len(), ratings);
    }
}

/// Encode one registry listing.
pub fn put_listing(out: &mut Vec<u8>, listing: &Listing) {
    put_u64(out, listing.service.raw());
    put_u64(out, listing.provider.raw());
    put_u32(out, listing.category);
    put_qos_vector(out, &listing.advertised);
}

/// Decode one registry listing.
pub fn get_listing(cur: &mut Cursor<'_>) -> Result<Listing, CodecError> {
    Ok(Listing {
        service: ServiceId::new(cur.u64()?),
        provider: ProviderId::new(cur.u64()?),
        category: cur.u32()?,
        advertised: get_qos_vector(cur)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_feedback(original: &Feedback) -> Feedback {
        let mut buf = Vec::new();
        put_feedback(&mut buf, original);
        let mut cur = Cursor::new(&buf);
        let decoded = get_feedback(&mut cur).expect("decodes");
        assert_eq!(cur.remaining(), 0, "no trailing bytes");
        decoded
    }

    #[test]
    fn feedback_round_trips_with_all_fields() {
        let original = Feedback::scored(AgentId::new(7), ServiceId::new(3), 0.625, Time::new(99))
            .with_observed(QosVector::from_pairs([
                (Metric::ResponseTime, 123.5),
                (Metric::AppSpecific(4), 2.0),
            ]))
            .with_facet(Metric::Accuracy, 0.75);
        assert_eq!(roundtrip_feedback(&original), original);
    }

    #[test]
    fn feedback_round_trips_for_every_subject_kind() {
        for subject in [
            SubjectId::from(AgentId::new(1)),
            SubjectId::from(ServiceId::new(2)),
            SubjectId::from(ProviderId::new(3)),
        ] {
            let original = Feedback::scored(AgentId::new(0), subject, 0.5, Time::ZERO);
            assert_eq!(roundtrip_feedback(&original), original);
        }
    }

    #[test]
    fn every_metric_round_trips() {
        let mut metrics: Vec<Metric> = Metric::ALL_STANDARD.to_vec();
        metrics.extend((0..=3).map(Metric::AppSpecific));
        for metric in metrics {
            let mut buf = Vec::new();
            put_metric(&mut buf, metric);
            let mut cur = Cursor::new(&buf);
            assert_eq!(get_metric(&mut cur).unwrap(), metric);
        }
    }

    #[test]
    fn listing_round_trips() {
        let original = Listing {
            service: ServiceId::new(11),
            provider: ProviderId::new(5),
            category: 9,
            advertised: QosVector::from_pairs([(Metric::Price, 4.25)]),
        };
        let mut buf = Vec::new();
        put_listing(&mut buf, &original);
        assert_eq!(get_listing(&mut Cursor::new(&buf)).unwrap(), original);
    }

    #[test]
    fn truncated_input_is_an_eof_not_a_panic() {
        let mut buf = Vec::new();
        put_feedback(
            &mut buf,
            &Feedback::scored(AgentId::new(1), ServiceId::new(2), 0.5, Time::ZERO),
        );
        for cut in 0..buf.len() {
            let err = get_feedback(&mut Cursor::new(&buf[..cut]));
            assert_eq!(err, Err(CodecError::UnexpectedEof), "cut at {cut}");
        }
    }

    #[test]
    fn bytes_and_bools_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello wire");
        put_bytes(&mut buf, b"");
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.bytes().unwrap(), b"hello wire");
        assert_eq!(cur.bytes().unwrap(), b"");
        assert!(cur.bool().unwrap());
        assert!(!cur.bool().unwrap());
        assert_eq!(cur.remaining(), 0);
        // A truncated byte string is an EOF, a stray bool byte a bad tag.
        assert_eq!(
            Cursor::new(&buf[..5]).bytes(),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            Cursor::new(&[7u8]).bool(),
            Err(CodecError::BadTag {
                what: "bool",
                tag: 7
            })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            get_metric(&mut Cursor::new(&[0xEE])),
            Err(CodecError::BadTag {
                what: "metric",
                tag: 0xEE
            })
        );
        let mut buf = vec![9u8];
        put_u64(&mut buf, 1);
        assert_eq!(
            get_subject(&mut Cursor::new(&buf)),
            Err(CodecError::BadTag {
                what: "subject",
                tag: 9
            })
        );
    }
}
