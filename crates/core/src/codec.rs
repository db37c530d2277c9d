//! Stable binary codec for event instances and their constituent types.
//!
//! The write-ahead instance log (`stem-wal`) persists
//! [`EventInstance`]s across process restarts, so their byte layout must
//! be *stable*: independent of `Debug` formatting, struct field order,
//! and the standard library's hash seeds. This module hand-rolls a
//! little-endian, tag-prefixed encoding over plain `Vec<u8>` /
//! `&[u8]` — no external serialization crate, works offline.
//!
//! Layout conventions:
//!
//! * integers are little-endian fixed width (`u8`/`u16`/`u32`/`u64`),
//! * `f64` is its IEEE-754 bit pattern as a little-endian `u64`,
//! * strings are a `u32` byte length followed by UTF-8 bytes,
//! * enums are a `u8` variant tag followed by the variant's fields,
//! * optional values are a `u8` presence flag (`0`/`1`) then the value.
//!
//! The codec is versioned at the record level by `stem-wal` (not here):
//! growing a type means adding a new tag, never reusing one.
//!
//! # Example
//!
//! ```
//! use stem_core::codec::{decode_instance, encode_instance};
//! use stem_core::{EventId, EventInstance, Layer, MoteId, ObserverId};
//! use stem_spatial::Point;
//! use stem_temporal::TimePoint;
//!
//! let inst = EventInstance::builder(
//!     ObserverId::Mote(MoteId::new(3)),
//!     EventId::new("hot"),
//!     Layer::Sensor,
//! )
//! .generated(TimePoint::new(42), Point::new(1.0, 2.0))
//! .build();
//! let mut buf = Vec::new();
//! encode_instance(&inst, &mut buf);
//! let mut bytes = buf.as_slice();
//! let back = decode_instance(&mut bytes).unwrap();
//! assert_eq!(back, inst);
//! assert!(bytes.is_empty());
//! ```

use crate::{
    AttrValue, Attributes, Confidence, EventId, EventInstance, Layer, MoteId, ObserverId, SeqNo,
};
use std::fmt;
use stem_spatial::{Circle, Field, Point, Polygon, Rect, SpatialExtent};
use stem_temporal::{TemporalExtent, TimeInterval, TimePoint};

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A decoded value violated its type's invariants (interval order,
    /// confidence range, polygon shape, ...).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated mid-value"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::Invalid(what) => write!(f, "decoded {what} violates its invariants"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Decode result shorthand.
pub type CodecResult<T> = Result<T, CodecError>;

/// Mutable-state persistence over the stable binary codec: the seam the
/// snapshot subsystem (`stem-snap`) uses to checkpoint live evaluation
/// state.
///
/// Unlike a value codec, `load_state` restores *into* an existing
/// instance: detectors are first recompiled from their configuration
/// (pattern shape, thresholds, observers) exactly as at original
/// registration, then their accumulated runtime state — partial
/// matches, open episodes, sequence counters — is overlaid. A decode
/// must therefore validate that the stored state matches the shape of
/// the instance it is loaded into and return
/// [`CodecError::Invalid`] on mismatch (a snapshot from a different
/// configuration), never restore silently wrong state.
pub trait StateCodec {
    /// Serializes the mutable runtime state into `buf` (configuration
    /// is *not* included; it is re-supplied at restore time).
    fn save_state(&self, buf: &mut Vec<u8>);

    /// Restores state saved by [`StateCodec::save_state`] into `self`,
    /// consuming its bytes from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, unknown tags, or a state
    /// shape that does not match this instance's configuration.
    fn load_state(&mut self, bytes: &mut &[u8]) -> CodecResult<()>;
}

// ---------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes` — the shared
/// integrity check for every durable container in the workspace (WAL
/// frames, checkpoint snapshots). One definition, so the two on-disk
/// formats can never drift apart on what "intact" means.
///
/// Table-free bitwise form: checksums run far from any hot path
/// (appends are I/O bound), so clarity wins over a lookup table.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(s.as_bytes());
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> CodecResult<&'a [u8]> {
    if bytes.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

/// Reads a `u8`.
pub fn get_u8(bytes: &mut &[u8]) -> CodecResult<u8> {
    Ok(take(bytes, 1)?[0])
}

/// Reads a little-endian `u16`.
pub fn get_u16(bytes: &mut &[u8]) -> CodecResult<u16> {
    Ok(u16::from_le_bytes(take(bytes, 2)?.try_into().expect("2")))
}

/// Reads a little-endian `u32`.
pub fn get_u32(bytes: &mut &[u8]) -> CodecResult<u32> {
    Ok(u32::from_le_bytes(take(bytes, 4)?.try_into().expect("4")))
}

/// Reads a little-endian `u64`.
pub fn get_u64(bytes: &mut &[u8]) -> CodecResult<u64> {
    Ok(u64::from_le_bytes(take(bytes, 8)?.try_into().expect("8")))
}

/// Reads a little-endian `i64`.
pub fn get_i64(bytes: &mut &[u8]) -> CodecResult<i64> {
    Ok(i64::from_le_bytes(take(bytes, 8)?.try_into().expect("8")))
}

/// Reads an `f64` from its IEEE-754 bit pattern.
pub fn get_f64(bytes: &mut &[u8]) -> CodecResult<f64> {
    Ok(f64::from_bits(get_u64(bytes)?))
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(bytes: &mut &[u8]) -> CodecResult<String> {
    let len = get_u32(bytes)? as usize;
    let raw = take(bytes, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8)
}

// ---------------------------------------------------------------------
// Temporal / spatial building blocks.
// ---------------------------------------------------------------------

/// Encodes a [`TimePoint`] as its raw tick count.
pub fn encode_time_point(t: TimePoint, buf: &mut Vec<u8>) {
    put_u64(buf, t.ticks());
}

/// Decodes a [`TimePoint`].
pub fn decode_time_point(bytes: &mut &[u8]) -> CodecResult<TimePoint> {
    Ok(TimePoint::new(get_u64(bytes)?))
}

/// Encodes an optional [`TimePoint`] behind a presence flag.
pub fn encode_opt_time_point(t: Option<TimePoint>, buf: &mut Vec<u8>) {
    match t {
        Some(t) => {
            put_u8(buf, 1);
            encode_time_point(t, buf);
        }
        None => put_u8(buf, 0),
    }
}

/// Decodes an optional [`TimePoint`].
pub fn decode_opt_time_point(bytes: &mut &[u8]) -> CodecResult<Option<TimePoint>> {
    match get_u8(bytes)? {
        0 => Ok(None),
        1 => Ok(Some(decode_time_point(bytes)?)),
        tag => Err(CodecError::BadTag {
            what: "Option<TimePoint>",
            tag,
        }),
    }
}

/// Encodes a [`TemporalExtent`] (punctual or interval).
pub fn encode_temporal_extent(t: &TemporalExtent, buf: &mut Vec<u8>) {
    match t {
        TemporalExtent::Punctual(p) => {
            put_u8(buf, 0);
            encode_time_point(*p, buf);
        }
        TemporalExtent::Interval(iv) => {
            put_u8(buf, 1);
            encode_time_point(iv.start(), buf);
            encode_time_point(iv.end(), buf);
        }
    }
}

/// Decodes a [`TemporalExtent`] encoded by [`encode_temporal_extent`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, unknown tags, or an
/// inverted interval.
pub fn decode_temporal_extent(bytes: &mut &[u8]) -> CodecResult<TemporalExtent> {
    match get_u8(bytes)? {
        0 => Ok(TemporalExtent::Punctual(decode_time_point(bytes)?)),
        1 => {
            let start = decode_time_point(bytes)?;
            let end = decode_time_point(bytes)?;
            TimeInterval::new(start, end)
                .map(TemporalExtent::Interval)
                .map_err(|_| CodecError::Invalid("TimeInterval"))
        }
        tag => Err(CodecError::BadTag {
            what: "TemporalExtent",
            tag,
        }),
    }
}

fn encode_point(p: Point, buf: &mut Vec<u8>) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

fn decode_point(bytes: &mut &[u8]) -> CodecResult<Point> {
    let x = get_f64(bytes)?;
    let y = get_f64(bytes)?;
    Ok(Point::new(x, y))
}

fn encode_spatial_extent(l: &SpatialExtent, buf: &mut Vec<u8>) {
    match l {
        SpatialExtent::Point(p) => {
            put_u8(buf, 0);
            encode_point(*p, buf);
        }
        SpatialExtent::Field(Field::Rect(r)) => {
            put_u8(buf, 1);
            encode_point(r.min(), buf);
            encode_point(r.max(), buf);
        }
        SpatialExtent::Field(Field::Circle(c)) => {
            put_u8(buf, 2);
            encode_point(c.center(), buf);
            put_f64(buf, c.radius());
        }
        SpatialExtent::Field(Field::Polygon(p)) => {
            put_u8(buf, 3);
            put_u32(buf, u32::try_from(p.len()).unwrap_or(u32::MAX));
            for &v in p.vertices() {
                encode_point(v, buf);
            }
        }
    }
}

fn decode_spatial_extent(bytes: &mut &[u8]) -> CodecResult<SpatialExtent> {
    match get_u8(bytes)? {
        0 => Ok(SpatialExtent::Point(decode_point(bytes)?)),
        1 => {
            let min = decode_point(bytes)?;
            let max = decode_point(bytes)?;
            Ok(SpatialExtent::Field(Field::Rect(Rect::new(min, max))))
        }
        2 => {
            let center = decode_point(bytes)?;
            let radius = get_f64(bytes)?;
            if !(radius.is_finite() && radius >= 0.0) {
                return Err(CodecError::Invalid("Circle"));
            }
            Ok(SpatialExtent::Field(Field::Circle(Circle::new(
                center, radius,
            ))))
        }
        3 => {
            let n = get_u32(bytes)? as usize;
            let mut vertices = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                vertices.push(decode_point(bytes)?);
            }
            Polygon::new(vertices)
                .map(|p| SpatialExtent::Field(Field::Polygon(p)))
                .map_err(|_| CodecError::Invalid("Polygon"))
        }
        tag => Err(CodecError::BadTag {
            what: "SpatialExtent",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------
// Event-model building blocks.
// ---------------------------------------------------------------------

fn encode_observer_id(id: ObserverId, buf: &mut Vec<u8>) {
    match id {
        ObserverId::Mote(m) => {
            put_u8(buf, 0);
            put_u32(buf, m.raw());
        }
        ObserverId::Sink(m) => {
            put_u8(buf, 1);
            put_u32(buf, m.raw());
        }
        ObserverId::Ccu(c) => {
            put_u8(buf, 2);
            put_u32(buf, c.raw());
        }
        ObserverId::Human(h) => {
            put_u8(buf, 3);
            put_u32(buf, h);
        }
    }
}

fn decode_observer_id(bytes: &mut &[u8]) -> CodecResult<ObserverId> {
    let tag = get_u8(bytes)?;
    let raw = get_u32(bytes)?;
    Ok(match tag {
        0 => ObserverId::Mote(MoteId::new(raw)),
        1 => ObserverId::Sink(MoteId::new(raw)),
        2 => ObserverId::Ccu(crate::CcuId::new(raw)),
        3 => ObserverId::Human(raw),
        tag => {
            return Err(CodecError::BadTag {
                what: "ObserverId",
                tag,
            })
        }
    })
}

fn layer_tag(layer: Layer) -> u8 {
    match layer {
        Layer::Physical => 0,
        Layer::Observation => 1,
        Layer::Sensor => 2,
        Layer::CyberPhysical => 3,
        Layer::Cyber => 4,
    }
}

fn decode_layer(bytes: &mut &[u8]) -> CodecResult<Layer> {
    Ok(match get_u8(bytes)? {
        0 => Layer::Physical,
        1 => Layer::Observation,
        2 => Layer::Sensor,
        3 => Layer::CyberPhysical,
        4 => Layer::Cyber,
        tag => return Err(CodecError::BadTag { what: "Layer", tag }),
    })
}

fn encode_attributes<'a>(
    len: usize,
    attrs: impl Iterator<Item = (&'a str, &'a AttrValue)>,
    buf: &mut Vec<u8>,
) {
    put_u32(buf, u32::try_from(len).unwrap_or(u32::MAX));
    for (name, value) in attrs {
        put_str(buf, name);
        match value {
            AttrValue::Float(v) => {
                put_u8(buf, 0);
                put_f64(buf, *v);
            }
            AttrValue::Int(v) => {
                put_u8(buf, 1);
                put_i64(buf, *v);
            }
            AttrValue::Bool(b) => {
                put_u8(buf, 2);
                put_u8(buf, u8::from(*b));
            }
            AttrValue::Text(s) => {
                put_u8(buf, 3);
                put_str(buf, s);
            }
        }
    }
}

fn decode_attributes(bytes: &mut &[u8]) -> CodecResult<Attributes> {
    let n = get_u32(bytes)? as usize;
    let mut attrs = Attributes::new();
    for _ in 0..n {
        let name = get_str(bytes)?;
        let value = match get_u8(bytes)? {
            0 => AttrValue::Float(get_f64(bytes)?),
            1 => AttrValue::Int(get_i64(bytes)?),
            2 => AttrValue::Bool(get_u8(bytes)? != 0),
            3 => AttrValue::Text(get_str(bytes)?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "AttrValue",
                    tag,
                })
            }
        };
        attrs.set(name, value);
    }
    Ok(attrs)
}

// ---------------------------------------------------------------------
// The instance itself.
// ---------------------------------------------------------------------

/// Borrowed fields of one instance, wherever they are stored: the
/// single encoder behind [`encode_instance`] and
/// [`crate::ColumnarBatch::encode_row`], so both write the same bytes.
pub(crate) struct InstanceFields<'a, A> {
    pub observer: ObserverId,
    pub event: &'a str,
    pub seq: SeqNo,
    pub layer: Layer,
    pub gen_time: TimePoint,
    pub gen_location: Point,
    pub est_time: &'a TemporalExtent,
    pub est_location: &'a SpatialExtent,
    /// Attribute count, then the attributes in sorted key order.
    pub attributes: (usize, A),
    pub confidence: f64,
}

impl<'a, A: Iterator<Item = (&'a str, &'a AttrValue)>> InstanceFields<'a, A> {
    /// Encodes the fields in [`encode_instance`]'s layout.
    pub(crate) fn encode(self, buf: &mut Vec<u8>) {
        encode_observer_id(self.observer, buf);
        put_str(buf, self.event);
        put_u64(buf, self.seq.raw());
        put_u8(buf, layer_tag(self.layer));
        encode_time_point(self.gen_time, buf);
        encode_point(self.gen_location, buf);
        encode_temporal_extent(self.est_time, buf);
        encode_spatial_extent(self.est_location, buf);
        encode_attributes(self.attributes.0, self.attributes.1, buf);
        put_f64(buf, self.confidence);
    }
}

/// Encodes a full [`EventInstance`] (identity, generation stamp,
/// estimates, attributes, confidence) into `buf`.
pub fn encode_instance(inst: &EventInstance, buf: &mut Vec<u8>) {
    InstanceFields {
        observer: inst.observer(),
        event: inst.event().as_str(),
        seq: inst.seq(),
        layer: inst.layer(),
        gen_time: inst.generation_time(),
        gen_location: inst.generation_location(),
        est_time: inst.estimated_time(),
        est_location: inst.estimated_location(),
        attributes: (inst.attributes().len(), inst.attributes().iter()),
        confidence: inst.confidence().value(),
    }
    .encode(buf);
}

/// Decodes an [`EventInstance`] encoded by [`encode_instance`],
/// consuming its bytes from the front of `bytes`.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, unknown tags, or values that
/// violate the type invariants re-checked at construction.
pub fn decode_instance(bytes: &mut &[u8]) -> CodecResult<EventInstance> {
    let observer = decode_observer_id(bytes)?;
    let event = EventId::new(get_str(bytes)?);
    let seq = SeqNo::new(get_u64(bytes)?);
    let layer = decode_layer(bytes)?;
    let gen_time = decode_time_point(bytes)?;
    let gen_location = decode_point(bytes)?;
    let est_time = decode_temporal_extent(bytes)?;
    let est_location = decode_spatial_extent(bytes)?;
    let attributes = decode_attributes(bytes)?;
    let confidence =
        Confidence::new(get_f64(bytes)?).map_err(|_| CodecError::Invalid("Confidence"))?;
    Ok(EventInstance::builder(observer, event, layer)
        .seq(seq)
        .generated(gen_time, gen_location)
        .estimated(est_time, est_location)
        .attributes(attributes)
        .confidence(confidence)
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stem_temporal::TimeInterval;

    fn sample_instance(seed: u64) -> EventInstance {
        let est_location = match seed % 4 {
            0 => SpatialExtent::point(Point::new(3.5, -2.25)),
            1 => SpatialExtent::Field(Field::Rect(Rect::new(
                Point::new(0.0, 0.0),
                Point::new(4.0, 3.0),
            ))),
            2 => SpatialExtent::Field(Field::Circle(Circle::new(Point::new(1.0, 1.0), 2.5))),
            _ => SpatialExtent::Field(Field::Polygon(
                Polygon::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(4.0, 0.0),
                    Point::new(2.0, 3.0),
                ])
                .unwrap(),
            )),
        };
        let est_time = if seed.is_multiple_of(2) {
            TemporalExtent::punctual(TimePoint::new(seed))
        } else {
            TemporalExtent::interval(
                TimeInterval::new(TimePoint::new(seed), TimePoint::new(seed + 10)).unwrap(),
            )
        };
        EventInstance::builder(
            ObserverId::Sink(MoteId::new((seed % 7) as u32)),
            EventId::new(format!("event-{}", seed % 3)),
            [Layer::Sensor, Layer::CyberPhysical, Layer::Cyber][(seed % 3) as usize],
        )
        .seq(SeqNo::new(seed))
        .generated(TimePoint::new(seed + 5), Point::new(seed as f64, 1.5))
        .estimated(est_time, est_location)
        .attributes(
            Attributes::new()
                .with("temp", 20.5 + seed as f64)
                .with("count", seed as i64)
                .with("hot", seed.is_multiple_of(2))
                .with("label", format!("s{seed}").as_str()),
        )
        .confidence(Confidence::saturating(0.25 + (seed % 4) as f64 * 0.2))
        .build()
    }

    #[test]
    fn instance_round_trips_across_every_extent_shape() {
        for seed in 0..16 {
            let inst = sample_instance(seed);
            let mut buf = Vec::new();
            encode_instance(&inst, &mut buf);
            let mut bytes = buf.as_slice();
            let back = decode_instance(&mut bytes).unwrap();
            assert_eq!(back, inst, "seed {seed}");
            assert!(bytes.is_empty(), "seed {seed}: trailing bytes");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let inst = sample_instance(9);
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_instance(&inst, &mut a);
        encode_instance(&inst, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_buffers_error_instead_of_panicking() {
        let inst = sample_instance(3);
        let mut buf = Vec::new();
        encode_instance(&inst, &mut buf);
        for cut in 0..buf.len() {
            let mut bytes = &buf[..cut];
            assert!(
                decode_instance(&mut bytes).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tags_are_reported() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9); // no such ObserverId variant
        put_u32(&mut buf, 1);
        let mut bytes = buf.as_slice();
        assert_eq!(
            decode_instance(&mut bytes),
            Err(CodecError::BadTag {
                what: "ObserverId",
                tag: 9
            })
        );
    }

    #[test]
    fn optional_time_points_round_trip() {
        for t in [None, Some(TimePoint::new(7))] {
            let mut buf = Vec::new();
            encode_opt_time_point(t, &mut buf);
            let mut bytes = buf.as_slice();
            assert_eq!(decode_opt_time_point(&mut bytes).unwrap(), t);
        }
    }

    proptest! {
        /// Arbitrary generation/estimate stamps and attribute values
        /// survive the round trip bit-for-bit.
        #[test]
        fn round_trip_property(
            gen_t in 0u64..1_000_000,
            x in -1e6f64..1e6,
            y in -1e6f64..1e6,
            temp in -1e3f64..1e3,
            conf in 0.0f64..1.0,
            seq in 0u64..1_000,
        ) {
            let inst = EventInstance::builder(
                ObserverId::Mote(MoteId::new((gen_t % 97) as u32)),
                EventId::new("prop"),
                Layer::Sensor,
            )
            .seq(SeqNo::new(seq))
            .generated(TimePoint::new(gen_t), Point::new(x, y))
            .attributes(Attributes::new().with("temp", temp))
            .confidence(Confidence::saturating(conf))
            .build();
            let mut buf = Vec::new();
            encode_instance(&inst, &mut buf);
            let mut bytes = buf.as_slice();
            let back = decode_instance(&mut bytes).unwrap();
            prop_assert_eq!(back, inst);
            prop_assert!(bytes.is_empty());
        }
    }
}
