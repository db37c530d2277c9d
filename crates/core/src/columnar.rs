//! Columnar (structure-of-arrays) ingest batches.
//!
//! The engine's hot path used to move one boxed [`EventInstance`] at a
//! time through routing: every instance paid for its own `String` event
//! id, its own `BTreeMap` attribute set, and its own cache-hostile heap
//! walk, even though the router and the scope/BVH probes only ever look
//! at a handful of plain-old-data fields (layer, times, representative
//! point). A [`ColumnarBatch`] flips the layout: instances are appended
//! into parallel arrays, event ids and attribute keys are interned once
//! per batch, and attribute values live in a flat arena that a
//! [`ColumnarBatch::reset`] reclaims without freeing capacity. The
//! engine routes each instance before copying it, so a batch holds only
//! rows bound for some shard; the workers' scope tests, BVH probes,
//! condition evaluation (attributes are read in place from the arena)
//! and WAL encoding ([`ColumnarBatch::encode_row`]) then work on dense
//! columns; a full [`EventInstance`] is only
//! re-materialized for the minority of rows that produce a
//! notification or feed a pattern detector.

use crate::{
    codec, AttrValue, Attributes, Confidence, EventId, EventInstance, Layer, ObserverId, SeqNo,
};
use std::collections::BTreeMap;
use stem_spatial::{Point, SpatialExtent};
use stem_temporal::{TemporalExtent, TimePoint};

/// Arena-backed attribute storage shared by every row of a batch.
///
/// Keys are interned (each distinct attribute name is stored once per
/// arena lifetime — the interner survives [`AttrArena::reset`]); values
/// are appended to one flat vector, and each row owns a contiguous
/// `(start, end)` range of it. Resetting truncates the value vector and
/// the row table while keeping both the interner and all capacity, so a
/// recycled batch appends at amortized zero allocation cost.
#[derive(Debug, Default, Clone)]
pub struct AttrArena {
    keys: Vec<String>,
    key_ids: BTreeMap<String, u32>,
    entries: Vec<(u32, AttrValue)>,
    rows: Vec<(u32, u32)>,
}

impl AttrArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        AttrArena::default()
    }

    /// Appends one row holding `attrs` and returns its row index.
    pub fn push_row(&mut self, attrs: &Attributes) -> usize {
        let start = self.entries.len() as u32;
        for (key, value) in attrs.iter() {
            let id = match self.key_ids.get(key) {
                Some(&id) => id,
                None => {
                    let id = self.keys.len() as u32;
                    self.keys.push(key.to_owned());
                    self.key_ids.insert(key.to_owned(), id);
                    id
                }
            };
            self.entries.push((id, value.clone()));
        }
        self.rows.push((start, self.entries.len() as u32));
        self.rows.len() - 1
    }

    /// Rebuilds the row's attribute set (bit-identical to the one that
    /// was pushed: `Attributes` iterates in sorted key order, and the
    /// arena preserves that order per row).
    #[must_use]
    pub fn materialize_row(&self, row: usize) -> Attributes {
        // Inserted one by one: collecting would buffer and sort the
        // (already sorted) pairs in a scratch vector first.
        let mut attrs = Attributes::new();
        for (key, value) in self.row(row) {
            attrs.set(key, value.clone());
        }
        attrs
    }

    /// The `(key, value)` pairs of a row, in sorted key order.
    pub(crate) fn row(&self, row: usize) -> impl ExactSizeIterator<Item = (&str, &AttrValue)> {
        let (start, end) = self.rows[row];
        self.entries[start as usize..end as usize]
            .iter()
            .map(|(id, value)| (self.keys[*id as usize].as_str(), value))
    }

    /// The row's attribute `key`, without materializing the row (rows
    /// hold a handful of attributes, so a scan beats the interner
    /// lookup).
    #[must_use]
    pub(crate) fn get(&self, row: usize, key: &str) -> Option<&AttrValue> {
        self.row(row).find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Number of rows pushed since the last reset.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct attribute keys ever interned.
    #[must_use]
    pub fn interned_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total value-entry capacity currently reserved.
    #[must_use]
    pub fn entry_capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Drops all rows and values, keeping the key interner and every
    /// vector's capacity for reuse.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.rows.clear();
    }
}

/// A structure-of-arrays batch of event instances.
///
/// Columns the router and scope/BVH probes touch (`layer`,
/// `generation_time`, the representative point of the estimated
/// location) are dense `Copy` arrays; heavier per-row state (estimated
/// extents, attributes) sits in side tables that are only consulted
/// when a row is materialized back into an [`EventInstance`].
#[derive(Debug, Default, Clone)]
pub struct ColumnarBatch {
    observers: Vec<ObserverId>,
    event_rows: Vec<u32>,
    events: Vec<EventId>,
    event_ids: BTreeMap<EventId, u32>,
    seqs: Vec<SeqNo>,
    layers: Vec<Layer>,
    gen_times: Vec<TimePoint>,
    gen_locations: Vec<Point>,
    est_times: Vec<TemporalExtent>,
    est_locations: Vec<SpatialExtent>,
    reps: Vec<Point>,
    confidences: Vec<Confidence>,
    attrs: AttrArena,
}

impl ColumnarBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        ColumnarBatch::default()
    }

    /// An empty batch with row capacity reserved up front.
    #[must_use]
    pub fn with_capacity(rows: usize) -> Self {
        let mut batch = ColumnarBatch::default();
        batch.reserve(rows);
        batch
    }

    /// Reserves row capacity for at least `additional` more rows in
    /// every column: one allocation per column instead of a doubling
    /// series when the row count is known before the copy.
    pub fn reserve(&mut self, additional: usize) {
        self.observers.reserve(additional);
        self.event_rows.reserve(additional);
        self.seqs.reserve(additional);
        self.layers.reserve(additional);
        self.gen_times.reserve(additional);
        self.gen_locations.reserve(additional);
        self.est_times.reserve(additional);
        self.est_locations.reserve(additional);
        self.reps.reserve(additional);
        self.confidences.reserve(additional);
        self.attrs.rows.reserve(additional);
    }

    /// Appends one instance as a new row and returns its row index.
    pub fn push(&mut self, instance: &EventInstance) -> usize {
        // Streams are overwhelmingly single-event: one equality check
        // against the previous row's interned id usually replaces the
        // map descent.
        let last = self.event_rows.last().copied();
        let event_id = match last {
            Some(id) if self.events[id as usize] == *instance.event() => id,
            _ => match self.event_ids.get(instance.event()) {
                Some(&id) => id,
                None => {
                    let id = self.events.len() as u32;
                    self.events.push(instance.event().clone());
                    self.event_ids.insert(instance.event().clone(), id);
                    id
                }
            },
        };
        self.observers.push(instance.observer());
        self.event_rows.push(event_id);
        self.seqs.push(instance.seq());
        self.layers.push(instance.layer());
        self.gen_times.push(instance.generation_time());
        self.gen_locations.push(instance.generation_location());
        self.est_times.push(*instance.estimated_time());
        self.est_locations
            .push(instance.estimated_location().clone());
        self.reps
            .push(instance.estimated_location().representative());
        self.confidences.push(instance.confidence());
        self.attrs.push_row(instance.attributes());
        self.len() - 1
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the batch holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The row's event id (interned reference).
    #[must_use]
    pub fn event(&self, row: usize) -> &EventId {
        &self.events[self.event_rows[row] as usize]
    }

    /// The row's model layer.
    #[must_use]
    pub fn layer(&self, row: usize) -> Layer {
        self.layers[row]
    }

    /// The row's generation time `t^g`.
    #[must_use]
    pub fn generation_time(&self, row: usize) -> TimePoint {
        self.gen_times[row]
    }

    /// The representative point of the row's estimated location — the
    /// value the router and interest probes key on.
    #[must_use]
    pub fn representative(&self, row: usize) -> Point {
        self.reps[row]
    }

    /// The row's estimated occurrence location `l^eo`.
    #[must_use]
    pub fn estimated_location(&self, row: usize) -> &SpatialExtent {
        &self.est_locations[row]
    }

    /// The row's observer-assigned sequence number.
    #[must_use]
    pub fn seq(&self, row: usize) -> SeqNo {
        self.seqs[row]
    }

    /// The row's estimated occurrence time `t^eo`.
    #[must_use]
    pub fn estimated_time(&self, row: usize) -> TemporalExtent {
        self.est_times[row]
    }

    /// The row's producer confidence `ρ`.
    #[must_use]
    pub fn confidence(&self, row: usize) -> Confidence {
        self.confidences[row]
    }

    /// The row's attribute `key` as a number (see
    /// [`Attributes::get_f64`]), read from the arena in place.
    #[must_use]
    pub fn attr_f64(&self, row: usize, key: &str) -> Option<f64> {
        self.attrs.get(row, key).and_then(AttrValue::as_f64)
    }

    /// The attribute arena backing this batch.
    #[must_use]
    pub fn attr_arena(&self) -> &AttrArena {
        &self.attrs
    }

    /// Rebuilds the row as a standalone [`EventInstance`], bit-identical
    /// to the instance that was pushed.
    #[must_use]
    pub fn materialize(&self, row: usize) -> EventInstance {
        EventInstance::builder(
            self.observers[row],
            self.event(row).clone(),
            self.layers[row],
        )
        .seq(self.seqs[row])
        .generated(self.gen_times[row], self.gen_locations[row])
        .estimated(self.est_times[row], self.est_locations[row].clone())
        .attributes(self.attrs.materialize_row(row))
        .confidence(self.confidences[row])
        .build()
    }

    /// Appends the row's [`codec::encode_instance`] bytes to `buf`
    /// straight from the columns — byte-identical to encoding
    /// [`ColumnarBatch::materialize`]'s result, without building it.
    pub fn encode_row(&self, row: usize, buf: &mut Vec<u8>) {
        let attrs = self.attrs.row(row);
        codec::InstanceFields {
            observer: self.observers[row],
            event: self.event(row).as_str(),
            seq: self.seqs[row],
            layer: self.layers[row],
            gen_time: self.gen_times[row],
            gen_location: self.gen_locations[row],
            est_time: &self.est_times[row],
            est_location: &self.est_locations[row],
            attributes: (attrs.len(), attrs),
            confidence: self.confidences[row].value(),
        }
        .encode(buf);
    }

    /// Drops every row while keeping all column capacity and both
    /// interners (event ids and attribute keys), so a recycled batch
    /// rebuilds at amortized zero allocation cost.
    pub fn reset(&mut self) {
        self.observers.clear();
        self.event_rows.clear();
        self.seqs.clear();
        self.layers.clear();
        self.gen_times.clear();
        self.gen_locations.clear();
        self.est_times.clear();
        self.est_locations.clear();
        self.reps.clear();
        self.confidences.clear();
        self.attrs.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CcuId, MoteId};
    use proptest::prelude::*;
    use stem_spatial::{Circle, Field, Polygon, Rect};
    use stem_temporal::TimeInterval;

    fn inst(t: u64, x: f64, event: &str) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new(event),
            Layer::Sensor,
        )
        .seq(SeqNo::new(t))
        .generated(TimePoint::new(t), Point::new(x, -x))
        .estimated(
            TemporalExtent::punctual(TimePoint::new(t.saturating_sub(1))),
            SpatialExtent::point(Point::new(x + 0.5, x)),
        )
        .attributes(
            Attributes::new()
                .with("temp", t as f64)
                .with("label", format!("row-{t}").as_str())
                .with("hot", t.is_multiple_of(2)),
        )
        .confidence(Confidence::new(0.5).unwrap())
        .build()
    }

    #[test]
    fn materialize_round_trips_every_field() {
        let mut batch = ColumnarBatch::new();
        let originals: Vec<EventInstance> =
            (0..50).map(|t| inst(t, t as f64 * 0.3, "hot")).collect();
        for instance in &originals {
            batch.push(instance);
        }
        assert_eq!(batch.len(), originals.len());
        for (row, original) in originals.iter().enumerate() {
            assert_eq!(&batch.materialize(row), original);
            assert_eq!(
                batch.representative(row),
                original.estimated_location().representative()
            );
            assert_eq!(batch.event(row), original.event());
            assert_eq!(batch.generation_time(row), original.generation_time());
        }
    }

    #[test]
    fn arena_reuse_after_reset_keeps_interner_and_capacity() {
        let mut batch = ColumnarBatch::with_capacity(16);
        for t in 0..16 {
            batch.push(&inst(t, 1.0, if t % 2 == 0 { "hot" } else { "cold" }));
        }
        let keys_before = batch.attr_arena().interned_keys();
        let cap_before = batch.attr_arena().entry_capacity();
        assert!(keys_before >= 3, "temp/label/hot interned");

        batch.reset();
        assert!(batch.is_empty());
        assert_eq!(batch.attr_arena().rows(), 0);
        assert_eq!(
            batch.attr_arena().interned_keys(),
            keys_before,
            "reset keeps the key interner"
        );
        assert_eq!(
            batch.attr_arena().entry_capacity(),
            cap_before,
            "reset keeps value capacity"
        );

        // A second fill over the same key/event universe reuses the
        // interners and still materializes bit-identically.
        let again = inst(3, 2.0, "cold");
        let row = batch.push(&again);
        assert_eq!(batch.attr_arena().interned_keys(), keys_before);
        assert_eq!(batch.materialize(row), again);
    }

    /// A random attribute value of every kind, text included.
    fn any_value() -> impl Strategy<Value = AttrValue> {
        prop_oneof![
            (-1e6f64..1e6).prop_map(AttrValue::Float),
            (-1000i64..1000).prop_map(AttrValue::Int),
            proptest::bool::ANY.prop_map(AttrValue::Bool),
            (0u32..1000).prop_map(|n| AttrValue::Text(format!("label-{n}"))),
        ]
    }

    /// A random estimated location: a point or any field kind.
    fn any_extent() -> impl Strategy<Value = SpatialExtent> {
        prop_oneof![
            (-50.0f64..50.0, -50.0f64..50.0)
                .prop_map(|(x, y)| SpatialExtent::point(Point::new(x, y))),
            (-50.0f64..50.0, -50.0f64..50.0, 0.0f64..20.0).prop_map(|(x, y, w)| {
                SpatialExtent::field(Field::rect(Rect::new(
                    Point::new(x, y),
                    Point::new(x + w, y + w / 2.0),
                )))
            }),
            (-50.0f64..50.0, -50.0f64..50.0, 0.1f64..20.0).prop_map(|(x, y, r)| {
                SpatialExtent::field(Field::circle(Circle::new(Point::new(x, y), r)))
            }),
            (-50.0f64..50.0, -50.0f64..50.0, 1.0f64..20.0).prop_map(|(x, y, s)| {
                let tri = vec![Point::new(x, y), Point::new(x + s, y), Point::new(x, y + s)];
                SpatialExtent::field(Field::Polygon(Polygon::new(tri).expect("a triangle")))
            }),
        ]
    }

    /// A random instance with several attributes and any extents.
    fn any_instance() -> impl Strategy<Value = EventInstance> {
        (
            (0u32..3, 0u32..100, 0u64..1_000_000, 0u64..50),
            (any_extent(), proptest::bool::ANY, 0.0f64..1.0),
            proptest::collection::vec((0usize..6, any_value()), 0..6),
        )
            .prop_map(|((kind, id, t, span), (location, interval, rho), attrs)| {
                let observer = match kind {
                    0 => ObserverId::Mote(MoteId::new(id)),
                    1 => ObserverId::Ccu(CcuId::new(id)),
                    _ => ObserverId::Human(id),
                };
                let time = TimePoint::new(t);
                let estimated = if interval {
                    TemporalExtent::interval(
                        TimeInterval::new(time, TimePoint::new(t + span)).expect("ordered"),
                    )
                } else {
                    TemporalExtent::punctual(time)
                };
                let keys = ["temp", "hum", "label", "hot", "a", "zz"];
                let mut set = Attributes::new();
                for (k, v) in attrs {
                    set.set(keys[k], v);
                }
                EventInstance::builder(
                    observer,
                    EventId::new(["hot", "cold"][id as usize % 2]),
                    Layer::Sensor,
                )
                .seq(SeqNo::new(t / 3))
                .generated(
                    TimePoint::new(t + span),
                    Point::new(id as f64, -(id as f64)),
                )
                .estimated(estimated, location)
                .attributes(set)
                .confidence(Confidence::new(rho).expect("in range"))
                .build()
            })
    }

    proptest! {
        /// Encoding a row from the columns writes exactly the bytes of
        /// encoding its materialized instance, and the in-place
        /// accessors agree with the materialized fields.
        #[test]
        fn encode_row_is_byte_identical_to_encoding_the_materialized_row(
            instances in proptest::collection::vec(any_instance(), 1..12),
        ) {
            let mut batch = ColumnarBatch::new();
            for instance in &instances {
                batch.push(instance);
            }
            for row in 0..batch.len() {
                let materialized = batch.materialize(row);
                let (mut direct, mut via) = (Vec::new(), Vec::new());
                batch.encode_row(row, &mut direct);
                codec::encode_instance(&materialized, &mut via);
                prop_assert_eq!(&direct, &via);
                prop_assert_eq!(batch.seq(row), materialized.seq());
                prop_assert_eq!(&batch.estimated_time(row), materialized.estimated_time());
                prop_assert_eq!(batch.confidence(row), materialized.confidence());
                for key in ["temp", "hum", "label", "hot", "a", "zz", "missing"] {
                    prop_assert_eq!(
                        batch.attr_f64(row, key).map(f64::to_bits),
                        materialized.attributes().get_f64(key).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn arena_rows_are_independent_ranges() {
        let mut arena = AttrArena::new();
        let a = Attributes::new().with("x", 1.0);
        let b = Attributes::new().with("x", 2.0).with("y", "b");
        let ra = arena.push_row(&a);
        let rb = arena.push_row(&b);
        let empty = arena.push_row(&Attributes::new());
        assert_eq!(arena.materialize_row(ra), a);
        assert_eq!(arena.materialize_row(rb), b);
        assert_eq!(arena.materialize_row(empty), Attributes::new());
        assert_eq!(arena.interned_keys(), 2, "x interned once across rows");
    }
}
