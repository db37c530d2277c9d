//! The shard router: spatial partitioning, interest tracking, batching.

use crate::batch::{Batch, BatchItem, ItemPayload, ItemTrace};
use crate::config::ShardId;
use crate::metrics::RouterMetrics;
use crate::plan::PlanId;
use crate::shard_map::{Grid, ShardMap};
use std::sync::Arc;
use stem_core::{ColumnarBatch, EventInstance, Layer, TraceClock};
use stem_spatial::{Bvh, Field, Point, Rect, SpatialExtent};
use stem_temporal::TimePoint;

/// The bit for a model layer in an [`Interest`]'s layer mask.
fn layer_bit(layer: Layer) -> u8 {
    1 << (layer as u8)
}

/// The mask for a subscription's layer filter (`None` = every layer).
fn layer_mask(layers: Option<&[Layer]>) -> u8 {
    layers.map_or(u8::MAX, |list| {
        list.iter().fold(0, |mask, &l| mask | layer_bit(l))
    })
}

/// One registered detector plan as the router sees it: the union of
/// its subscribers' routing scopes (exact extents for precision
/// checks, plus their cheaper union bounding box) and the plan's layer
/// filter as a bitmask — everything the worker's own candidate filter
/// would reject is already rejected here, at enqueue time. A plan with
/// many subscribers costs one interest entry, so mega-tenancy
/// registration leaves the routing tables plan-sized; the worker
/// re-applies each subscriber's own scope at fan-out, keeping the
/// union's pruning exact.
#[derive(Debug, Clone)]
struct Interest {
    id: PlanId,
    /// Union bounding box over `scopes`.
    bbox: Rect,
    /// Every distinct subscriber scope attached to the plan (the engine
    /// dedupes identical scopes before they reach the router).
    scopes: Vec<SpatialExtent>,
    layers: u8,
}

/// Routes instances to shards and accumulates per-shard batches.
///
/// Every instance goes to each shard that is home to a subscription
/// whose layer filter and routing scope cover it — and, under durable
/// logging, unconditionally to the shard that *owns* its location
/// under the [`ShardMap`]. A subscription lives on exactly one home
/// shard (the owner of its scope's center, or of the home hint clamped
/// into the scope), so detector state is never split and the match
/// multiset is independent of the shard count.
#[derive(Debug)]
pub struct ShardRouter {
    map: ShardMap,
    batch_size: usize,
    /// Per home shard: interests of resident plans (one entry per
    /// plan, however many subscribers share it).
    interests: Vec<Vec<Interest>>,
    /// Per home shard: the BVH over the resident scope bounding boxes,
    /// built once the interest count crosses `bvh_threshold` (item
    /// index = position in `interests[shard]`). `None` = linear scan.
    bvhs: Vec<Option<Bvh>>,
    /// Bit `s` set: shard `s`'s interests changed since its BVH was
    /// built. Registration only marks the shard; the next route
    /// bulk-builds it once, so a burst of subscribes costs one build.
    bvh_dirty: u64,
    /// Interest count per home shard at which the precision pass
    /// switches to the BVH.
    bvh_threshold: usize,
    /// Candidate buffer reused across BVH point queries.
    scratch: Vec<u32>,
    /// The interest index resolution: a fixed fine quadtree grid,
    /// independent of the (coarser) shard-territory grid so broadcast
    /// stays confined to actual region boundaries.
    interest_grid: Grid,
    /// Per interest-grid leaf: bitmask of shards homing a subscription
    /// whose bounding box touches the leaf. Routing is then O(1) per
    /// instance regardless of the subscription count; workers re-check
    /// exact region coverage, so the leaf granularity only costs an
    /// occasional extra delivery, never a missed one.
    leaf_masks: Vec<u64>,
    /// Per shard: the accumulating batch.
    pending: Vec<Vec<BatchItem>>,
    /// Maximum generation time seen across the whole stream.
    high_water: Option<TimePoint>,
    /// The next global ingest sequence number (instances and silence
    /// probes each consume one, in arrival order).
    next_seq: u64,
    /// Per shard: the high-water mark last handed off in a batch, so
    /// heartbeat-only batches are cut only when the stream clock
    /// actually advanced for that shard (see [`ShardRouter::needs_heartbeat`]).
    heartbeat_sent: Vec<Option<TimePoint>>,
    /// Whether the territorial owner receives every instance even with
    /// no covering subscription. Required under durable logging (each
    /// operation must reach some shard's write-ahead log); without it,
    /// an instance nothing subscribes to is dropped at enqueue time
    /// instead of riding a shard's reorder buffer to a no-op dispatch.
    retain_owner: bool,
    /// The engine-wide trace clock (None with tracing off): the router
    /// takes each item's `route` stamp when it consumes the item's
    /// sequence number, and each batch's `enqueue` stamp at handoff.
    trace_clock: Option<Arc<TraceClock>>,
    metrics: RouterMetrics,
}

impl ShardRouter {
    /// Interest-index depth: `4^6 = 4096` leaves (32 KiB of masks),
    /// fine enough that a subscription's interest footprint hugs its
    /// actual bounding box instead of whole shard territories.
    const INTEREST_DEPTH: u32 = 6;

    /// Creates a router over `map`, flushing batches at `batch_size`.
    /// `bvh_threshold` is the per-home-shard interest count at which
    /// the precision pass switches from the linear exact-scope scan to
    /// the BVH index (see
    /// [`crate::EngineConfig::interest_bvh_threshold`]). `retain_owner`
    /// keeps the territorial-owner delivery even for instances no
    /// subscription covers (durable-logging mode; see
    /// [`ShardRouter::target_mask`]).
    #[must_use]
    pub fn new(map: ShardMap, batch_size: usize, bvh_threshold: usize, retain_owner: bool) -> Self {
        let shards = map.shard_count();
        let interest_grid = Grid::new(map.bounds(), Self::INTEREST_DEPTH);
        let leaves = interest_grid.leaf_count();
        ShardRouter {
            map,
            batch_size: batch_size.max(1),
            interests: vec![Vec::new(); shards],
            bvhs: vec![None; shards],
            bvh_dirty: 0,
            bvh_threshold,
            scratch: Vec::new(),
            interest_grid,
            leaf_masks: vec![0; leaves],
            pending: vec![Vec::new(); shards],
            high_water: None,
            next_seq: 0,
            heartbeat_sent: vec![None; shards],
            retain_owner,
            trace_clock: None,
            metrics: RouterMetrics::default(),
        }
    }

    /// Attaches the engine-wide trace clock: routed items gain
    /// ingest/route stamps and batches gain enqueue stamps.
    pub(crate) fn set_trace_clock(&mut self, clock: Arc<TraceClock>) {
        self.trace_clock = Some(clock);
    }

    /// The shard map in use.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The router's global high-water mark.
    #[must_use]
    pub fn high_water(&self) -> Option<TimePoint> {
        self.high_water
    }

    /// The next global ingest sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.next_seq
    }

    /// Consumes and returns one global ingest sequence number (the
    /// engine stamps silence probes from the same counter as instances,
    /// so the union of the per-shard logs is totally ordered).
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Seeds the sequence counter and high-water mark after a crash
    /// recovery, so the resumed stream continues exactly where the
    /// durable prefix ended.
    ///
    /// The per-shard heartbeat memory is seeded too: every shard is
    /// treated as already knowing the recovered mark. Each shard
    /// relearns its *own* watermark from its own log during replay —
    /// pushing the global mark at it beforehand would race the replay
    /// and late-drop the entire durable prefix.
    pub(crate) fn seed_recovery(&mut self, next_seq: u64, high_water: Option<TimePoint>) {
        self.next_seq = next_seq;
        self.high_water = high_water;
        self.heartbeat_sent.fill(high_water);
    }

    /// The home shard a scope + hint pair resolves to: the owner of
    /// `home_hint` — clamped into the scope's bounding box, so a scoped
    /// plan always homes inside its own scope — or of the scope's
    /// center without a hint. Pure: registration uses exactly this
    /// computation, so the engine can derive a subscription's home (a
    /// plan-key ingredient) before deciding whether the plan already
    /// exists.
    #[must_use]
    pub fn home_for(&self, scope: &SpatialExtent, home_hint: Option<Point>) -> ShardId {
        let bbox = scope.bounding_box();
        let anchor = home_hint.map_or_else(
            || bbox.center(),
            |hint| {
                Point::new(
                    hint.x.clamp(bbox.min().x, bbox.max().x),
                    hint.y.clamp(bbox.min().y, bbox.max().y),
                )
            },
        );
        self.map.shard_for_point(anchor)
    }

    /// Registers a plan's first routing scope and returns its home
    /// shard (see [`ShardRouter::home_for`]).
    pub(crate) fn subscribe(
        &mut self,
        id: PlanId,
        scope: SpatialExtent,
        layers: Option<&[Layer]>,
        home_hint: Option<Point>,
    ) -> ShardId {
        let bbox = scope.bounding_box();
        let home = self.home_for(&scope, home_hint);
        if !bbox.contains_rect(&self.map.bounds()) {
            self.metrics.scoped_subscriptions += 1;
        }
        self.interests[home].push(Interest {
            id,
            bbox,
            scopes: vec![scope],
            layers: layer_mask(layers),
        });
        self.bvh_dirty |= 1 << home;
        self.mark_leaves(home, self.interests[home].len() - 1);
        home
    }

    /// Widens an existing plan's interest with a further subscriber's
    /// scope: the scope joins the precision list, the union bounding
    /// box grows, and the layer mask widens. The engine only calls this
    /// for scopes the plan has not seen yet, so a million structurally
    /// identical subscriptions over one region cost the router exactly
    /// one interest entry with one scope.
    pub(crate) fn add_scope(&mut self, id: PlanId, scope: SpatialExtent, layers: Option<&[Layer]>) {
        let Some((home, pos)) = self.locate(id) else {
            return;
        };
        let grew = {
            let interest = &mut self.interests[home][pos];
            let bbox = interest.bbox.union(&scope.bounding_box());
            let grew = bbox != interest.bbox;
            interest.bbox = bbox;
            interest.layers |= layer_mask(layers);
            interest.scopes.push(scope);
            grew
        };
        if grew {
            self.bvh_dirty |= 1 << home;
        }
        self.mark_leaves(home, pos);
    }

    /// Sets the interest-grid leaf bits for the newest scope of
    /// `interests[home][pos]`.
    fn mark_leaves(&mut self, home: ShardId, pos: usize) {
        let scope = self.interests[home][pos]
            .scopes
            .last()
            .expect("interest holds at least one scope");
        for (leaf, cell) in self
            .interest_grid
            .leaf_rects_for_rect(&scope.bounding_box())
        {
            // Exact-coverage refinement: a bounding box overstates a
            // circular or polygonal scope by up to its whole corner
            // area, and at leaf granularity that marks interest on
            // cells the scope can never match. Testing the scope
            // against each cell keeps the mask tight, so points in the
            // uncovered residue route on the leaf lookup alone —
            // no precision query at all.
            if scope.intersects(&SpatialExtent::field(Field::rect(cell))) {
                self.leaf_masks[leaf] |= 1 << home;
            }
        }
    }

    /// The `(home shard, list position)` of a registered plan.
    fn locate(&self, id: PlanId) -> Option<(ShardId, usize)> {
        self.interests
            .iter()
            .enumerate()
            .find_map(|(shard, list)| list.iter().position(|i| i.id == id).map(|pos| (shard, pos)))
    }

    /// Bulk-builds the BVH of every shard whose interests changed since
    /// its last build (or drops it when the count fell back below the
    /// threshold).
    fn rebuild_dirty_bvhs(&mut self) {
        while self.bvh_dirty != 0 {
            let shard = self.bvh_dirty.trailing_zeros() as ShardId;
            self.bvh_dirty &= self.bvh_dirty - 1;
            let list = &self.interests[shard];
            self.bvhs[shard] = if list.len() >= self.bvh_threshold.max(1) {
                let rects: Vec<Rect> = list.iter().map(|i| i.bbox).collect();
                Some(Bvh::build(&rects))
            } else {
                None
            };
        }
    }

    /// The home shard of a registered plan, if known.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn home_of(&self, id: PlanId) -> Option<ShardId> {
        self.locate(id).map(|(shard, _)| shard)
    }

    /// Forgets a plan (its last subscriber left); returns its home
    /// shard if it was known.
    pub(crate) fn unsubscribe(&mut self, id: PlanId) -> Option<ShardId> {
        let (shard, pos) = self.locate(id)?;
        self.interests[shard].remove(pos);
        self.rebuild_leaf_masks();
        self.bvh_dirty |= 1 << shard;
        Some(shard)
    }

    /// Recomputes the leaf interest masks from scratch (unsubscribe is
    /// rare; ingestion never pays for this).
    fn rebuild_leaf_masks(&mut self) {
        for mask in &mut self.leaf_masks {
            *mask = 0;
        }
        for (shard, list) in self.interests.iter().enumerate() {
            for interest in list {
                for scope in &interest.scopes {
                    for (leaf, cell) in self
                        .interest_grid
                        .leaf_rects_for_rect(&scope.bounding_box())
                    {
                        // Same exact-coverage refinement as `mark_leaves`.
                        if scope.intersects(&SpatialExtent::field(Field::rect(cell))) {
                            self.leaf_masks[leaf] |= 1 << shard;
                        }
                    }
                }
            }
        }
    }

    /// Whether some plan homed on `shard` accepts the layer and has a
    /// subscriber routing scope *exactly* covering the point (leaf
    /// masks are bounding-box granular; this is the precision pass that
    /// trims the broadcast fan-out). Served by the per-shard BVH once
    /// the shard's interest count crossed the threshold, by the linear
    /// scan below it — both answer identically.
    fn covered_by_interest(&mut self, shard: ShardId, p: Point, layer: u8) -> bool {
        if self.bvh_dirty != 0 {
            self.rebuild_dirty_bvhs();
        }
        let covers = |i: &Interest| i.scopes.iter().any(|s| s.covers(p));
        if let Some(bvh) = &self.bvhs[shard] {
            self.scratch.clear();
            self.metrics.bvh_nodes_visited += bvh.query_point(p, &mut self.scratch);
            let list = &self.interests[shard];
            self.scratch
                .iter()
                .map(|&i| &list[i as usize])
                .any(|i| i.layers & layer != 0 && covers(i))
        } else {
            self.interests[shard]
                .iter()
                .any(|i| i.layers & layer != 0 && i.bbox.contains(p) && covers(i))
        }
    }

    /// Routes one instance into the per-shard pending batches and
    /// returns the shards whose batch just reached the flush threshold.
    pub fn route(&mut self, instance: EventInstance) -> Vec<ShardId> {
        self.route_at(instance, None)
    }

    /// Like [`ShardRouter::route`], with an explicit observer-local
    /// evaluation time used as the stream-clock sample and the shard
    /// reorder key (`None` = the instance's generation time).
    pub fn route_at(
        &mut self,
        instance: EventInstance,
        eval_at: Option<TimePoint>,
    ) -> Vec<ShardId> {
        // Direct router callers did not stamp an engine-entry time:
        // the ingest stage collapses onto the route stamp.
        let ingest = self.trace_stamp();
        self.route_at_traced(instance, eval_at, ingest)
    }

    /// A trace-clock stamp, or 0 with tracing off.
    pub(crate) fn trace_stamp(&self) -> u64 {
        self.trace_clock.as_ref().map_or(0, |c| c.now())
    }

    /// [`ShardRouter::route_at`] with an explicit engine-entry ingest
    /// stamp (the engine samples it before routing so `ingest <= route`
    /// reflects real queueing between the two).
    pub(crate) fn route_at_traced(
        &mut self,
        instance: EventInstance,
        eval_at: Option<TimePoint>,
        ingest: u64,
    ) -> Vec<ShardId> {
        let location = instance.estimated_location().representative();
        let t = eval_at.unwrap_or_else(|| instance.generation_time());
        let targets = self.target_mask(location, layer_bit(instance.layer()));
        let mut full = Vec::new();
        let route = self.trace_stamp();
        let (seq, prefix_high_water, trace) = self.stamp(t, ingest, route);
        if targets == 0 {
            // Nothing subscribed and no durable log to feed: the clock
            // advanced, the instance goes nowhere.
            return full;
        }
        if targets.count_ones() == 1 {
            // Single target: the instance moves — no clone, no Arc.
            let shard = targets.trailing_zeros() as ShardId;
            let item = ItemPayload::Owned(instance);
            if self.push_item(shard, seq, item, eval_at, prefix_high_water, trace) {
                full.push(shard);
            }
            return full;
        }
        // Broadcast: one allocation shared by every target copy.
        let shared = Arc::new(instance);
        let mut bits = targets;
        while bits != 0 {
            let shard = bits.trailing_zeros() as ShardId;
            bits &= bits - 1;
            let item = ItemPayload::Shared(Arc::clone(&shared));
            if self.push_item(shard, seq, item, eval_at, prefix_high_water, trace) {
                full.push(shard);
            }
        }
        full
    }

    /// Routes every row of a shared columnar chunk, iterating the
    /// batch's dense representative-point and generation-time columns
    /// instead of walking per-instance heap structures. Shards receive
    /// [`ItemPayload::Columnar`] references into the chunk; the full
    /// instance is only re-materialized downstream for rows that
    /// notify.
    ///
    /// Sequence numbers, prefix high-water stamps, and the target
    /// selection (leaf mask + precision pass) are identical to routing
    /// the same instances one at a time through [`ShardRouter::route`].
    /// Returns the shards whose pending batch reached the flush
    /// threshold, deduplicated, in shard order.
    pub fn route_batch(&mut self, batch: &Arc<ColumnarBatch>) -> Vec<ShardId> {
        let mut full_mask: u64 = 0;
        // One route stamp per chunk, shared by every row: a per-row
        // clock read costs more than the routing itself on the columnar
        // path, and the rows' ingest stamps (taken at batch fill, all
        // before this call) stay `<=` the shared stamp.
        let route = self.trace_stamp();
        for row in 0..batch.len() {
            let location = batch.representatives()[row];
            let t = batch.generation_times()[row];
            let targets = self.target_mask(location, layer_bit(batch.layer(row)));
            let (seq, prefix_high_water, trace) = self.stamp(t, batch.ingest_stamp(row), route);
            let mut bits = targets;
            while bits != 0 {
                let shard = bits.trailing_zeros() as ShardId;
                bits &= bits - 1;
                let item = ItemPayload::Columnar(Arc::clone(batch), row as u32);
                if self.push_item(shard, seq, item, None, prefix_high_water, trace) {
                    full_mask |= 1 << shard;
                }
            }
        }
        let mut full = Vec::with_capacity(full_mask.count_ones() as usize);
        while full_mask != 0 {
            full.push(full_mask.trailing_zeros() as ShardId);
            full_mask &= full_mask - 1;
        }
        full
    }

    /// Advances the stream clock past `t` and consumes one sequence
    /// number, returning `(seq, prefix_high_water, trace)` for the
    /// routed item. The caller supplies the `route` stamp (taken once
    /// per instance on the scalar path, once per chunk on the columnar
    /// path) so `ingest..route` measures the real gap between engine
    /// entry and routing without a clock read per routed copy.
    fn stamp(
        &mut self,
        t: TimePoint,
        ingest: u64,
        route: u64,
    ) -> (u64, Option<TimePoint>, Option<ItemTrace>) {
        // The high-water mark over the strict prefix: stamped onto the
        // routed item so shard drop decisions replay the global run.
        let prefix_high_water = self.high_water;
        self.high_water = Some(self.high_water.map_or(t, |h| h.max(t)));
        self.metrics.routed += 1;
        let trace = self
            .trace_clock
            .as_ref()
            .map(|_| ItemTrace { ingest, route });
        (self.take_seq(), prefix_high_water, trace)
    }

    /// The delivery bitmask for an instance at `location` on `layer`
    /// (as a [`layer_bit`]): every interested shard that survives the
    /// precision pass, plus — under durable logging — the territorial
    /// owner unconditionally.
    ///
    /// The precision pass drops, at enqueue time, every shard whose
    /// resident subscriptions either sit on other layers or do not
    /// exactly cover the point. Workers re-check both anyway, so a skip
    /// can never lose a match — it only saves the delivery. Without
    /// `retain_owner` the owner is pruned like any other shard: an
    /// instance nobody subscribes to routes nowhere (the stream clock
    /// and sequence still advance, so watermark/late-drop decisions on
    /// the rest of the stream are untouched). With it, the owner always
    /// receives a copy so the operation reaches its shard's
    /// write-ahead log.
    fn target_mask(&mut self, location: Point, layer: u8) -> u64 {
        let owner = self.map.shard_for_point(location);
        let leaf = self.interest_grid.leaf_for_point(location);
        let mask = self.leaf_masks[leaf];
        if mask == 0 {
            self.metrics.owner_only += 1;
        }
        let mut targets = mask;
        let mut bits = if self.retain_owner {
            // The owner receives regardless; don't bill a precision
            // skip for a shard that stays in the mask.
            mask & !(1 << owner)
        } else {
            mask
        };
        while bits != 0 {
            let shard = bits.trailing_zeros() as ShardId;
            bits &= bits - 1;
            if !self.covered_by_interest(shard, location, layer) {
                self.metrics.precision_skipped += 1;
                targets &= !(1 << shard);
            }
        }
        if self.retain_owner {
            targets |= 1 << owner;
        }
        self.metrics.fanout += u64::from(targets.count_ones());
        targets
    }

    /// Appends one routed item to a shard's pending batch; returns
    /// whether the batch just reached the flush threshold.
    fn push_item(
        &mut self,
        shard: ShardId,
        seq: u64,
        payload: ItemPayload,
        eval_at: Option<TimePoint>,
        prefix_high_water: Option<TimePoint>,
        trace: Option<ItemTrace>,
    ) -> bool {
        let pending = &mut self.pending[shard];
        pending.push(BatchItem {
            seq,
            payload,
            eval_at,
            prefix_high_water,
            trace,
        });
        pending.len() >= self.batch_size
    }

    /// Takes the pending batch for `shard`, stamped with the current
    /// high-water mark and the number of operations in the stream's
    /// strict prefix.
    ///
    /// The stamp is `next_seq` — an *exclusive* bound ("this heartbeat
    /// summarizes every operation with `seq < stamp`") — not the last
    /// consumed sequence. The previous `next_seq - 1` (saturating)
    /// labelled a heartbeat cut before any ingest with seq 0, colliding
    /// with the first real operation's sequence in WAL replay ordering:
    /// a reader could not tell "covers operation 0" from "covers
    /// nothing". With the exclusive bound, 0 unambiguously means an
    /// empty prefix.
    pub fn take_batch(&mut self, shard: ShardId) -> Batch {
        self.metrics.batches_sent += 1;
        self.heartbeat_sent[shard] = self.high_water;
        // The next batch starts at full capacity: one allocation per
        // batch instead of a doubling series.
        let refill = if self.pending[shard].is_empty() {
            Vec::new()
        } else {
            Vec::with_capacity(self.batch_size)
        };
        Batch {
            instances: std::mem::replace(&mut self.pending[shard], refill),
            high_water: self.high_water,
            seq: self.next_seq,
            enqueue: self.trace_stamp(),
        }
    }

    /// Whether `shard` would learn anything from a heartbeat-only batch:
    /// `true` when the global high-water mark advanced past the last one
    /// handed to it. Cutting heartbeats only on stream-clock advance is
    /// what amortizes the all-shard flush round to once per simulation
    /// tick instead of once per delivery — a repeated heartbeat is a
    /// semantic no-op for the shard's reorder buffer.
    #[must_use]
    pub fn needs_heartbeat(&self, shard: ShardId) -> bool {
        self.high_water.is_some() && self.heartbeat_sent[shard] != self.high_water
    }

    /// Number of instances pending for `shard`.
    #[must_use]
    pub fn pending_len(&self, shard: ShardId) -> usize {
        self.pending[shard].len()
    }

    /// Shards that still hold pending instances.
    #[must_use]
    pub fn pending_shards(&self) -> Vec<ShardId> {
        (0..self.pending.len())
            .filter(|&s| !self.pending[s].is_empty())
            .collect()
    }

    /// Records a batch lost to backpressure.
    pub(crate) fn note_dropped_batch(&mut self) {
        self.metrics.dropped_backpressure += 1;
    }

    /// Records a heartbeat-only flush elided because its target shard
    /// was idle and held nothing reordering.
    pub(crate) fn note_suppressed_heartbeat(&mut self) {
        self.metrics.heartbeats_suppressed += 1;
    }

    /// A live view of the counters (telemetry sampling reads routed /
    /// fanout / BVH traversal totals mid-run without disturbing them).
    #[must_use]
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// Surrenders the counters.
    pub(crate) fn take_metrics(&mut self) -> RouterMetrics {
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_core::{EventId, EventInstance, Layer, MoteId, ObserverId};
    use stem_spatial::Field;

    fn router(shards: usize, bvh_threshold: usize) -> ShardRouter {
        let map = ShardMap::build(
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            shards,
        );
        ShardRouter::new(map, 1, bvh_threshold, true)
    }

    fn inst(t: u64, x: f64, y: f64) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new("e"),
            Layer::Sensor,
        )
        .generated(TimePoint::new(t), Point::new(x, y))
        .build()
    }

    fn rect_scope(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialExtent {
        SpatialExtent::field(Field::rect(Rect::new(
            Point::new(x0, y0),
            Point::new(x1, y1),
        )))
    }

    /// The empty-prefix case: a heartbeat cut before any ingest must
    /// not share a stamp with the first real operation. The batch stamp
    /// is the exclusive prefix bound — 0 means "covers nothing", and
    /// after the first operation (seq 0) the stamp is 1.
    #[test]
    fn watermark_stamp_is_unambiguous_on_an_empty_prefix() {
        let mut r = router(1, usize::MAX);
        let pre_ingest = r.take_batch(0);
        assert_eq!(pre_ingest.seq, 0, "empty prefix stamps 0");
        assert!(pre_ingest.high_water.is_none());

        let targets = r.route(inst(10, 5.0, 5.0));
        assert_eq!(targets, vec![0]);
        let first = r.take_batch(0);
        assert_eq!(first.instances[0].seq, 0, "the first operation is seq 0");
        assert_eq!(
            first.seq, 1,
            "a heartbeat covering operation 0 stamps the exclusive bound 1, \
             never colliding with the operation's own sequence"
        );
        assert_eq!(r.seq(), 1);
    }

    /// A scoped subscription's home hint is clamped into its scope, so
    /// the home shard always lies inside the scope's bounding box.
    #[test]
    fn scoped_home_hint_is_clamped_into_the_scope() {
        let mut r = router(4, usize::MAX);
        // Scope is the lower-left quadrant; the hint points at the
        // opposite corner of the world.
        let scope = rect_scope(0.0, 0.0, 40.0, 40.0);
        let home = r.subscribe(PlanId(0), scope, None, Some(Point::new(99.0, 99.0)));
        assert_eq!(
            home,
            r.map().shard_for_point(Point::new(40.0, 40.0)),
            "the hint clamps to the scope's nearest corner"
        );
        assert_eq!(r.take_metrics().scoped_subscriptions, 1);
    }

    /// BVH-backed and linear precision passes answer identically and
    /// the BVH path reports its traversal cost — including while
    /// subscribes, widening scopes and unsubscribes interleave with
    /// routing, so every lazy rebuild of the dirty index is exercised.
    #[test]
    fn bvh_precision_pass_matches_linear_scan() {
        // Scopes in the lower-left quadrant with a shared home hint, so
        // the precision scan on that home sees most plans.
        let hint = Some(Point::new(1.0, 1.0));
        let square = |i: u64| {
            let f = (i % 12) as f64 * 4.0;
            rect_scope(f, f, f + 3.0, f + 3.0)
        };
        // Without owner retention the precision pass also judges the
        // territorial owner, so every gap between squares is a skip.
        let unretained = |threshold| {
            let map = ShardMap::build(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)), 4);
            ShardRouter::new(map, 1, threshold, false)
        };
        let mut linear = unretained(usize::MAX);
        let mut bvh = unretained(4);
        let mut point = 0u64;
        let mut route_both = |linear: &mut ShardRouter, bvh: &mut ShardRouter, n: u64| {
            for _ in 0..n {
                let i = point;
                point += 1;
                let p = Point::new((i as f64 * 7.3) % 100.0, (i as f64 * 3.1) % 100.0);
                let a = linear.route(inst(i, p.x, p.y));
                let b = bvh.route(inst(i, p.x, p.y));
                assert_eq!(a, b, "targets diverged at {p:?} (step {i})");
            }
        };
        for i in 0..24u64 {
            for r in [&mut linear, &mut bvh] {
                r.subscribe(PlanId(i), square(i), None, hint);
            }
            route_both(&mut linear, &mut bvh, 10);
            if i % 3 == 2 {
                // Widen an earlier plan toward the far corner.
                let far = rect_scope(44.0 - i as f64, 2.0, 47.0 - i as f64, 5.0);
                for r in [&mut linear, &mut bvh] {
                    r.add_scope(PlanId(i - 2), far.clone(), None);
                }
                route_both(&mut linear, &mut bvh, 10);
            }
            if i % 5 == 4 {
                // Retire a plan: the index shrinks (below the threshold
                // at first, so the BVH is dropped and rebuilt later).
                let home = linear.unsubscribe(PlanId(i - 1));
                assert!(home.is_some());
                assert_eq!(bvh.unsubscribe(PlanId(i - 1)), home);
                route_both(&mut linear, &mut bvh, 10);
            }
        }
        route_both(&mut linear, &mut bvh, 200);
        let lm = linear.take_metrics();
        let bm = bvh.take_metrics();
        assert_eq!(lm.fanout, bm.fanout);
        assert_eq!(lm.precision_skipped, bm.precision_skipped);
        assert!(lm.precision_skipped > 0, "the gaps between squares prune");
        assert_eq!(lm.bvh_nodes_visited, 0, "linear side never descends");
        assert!(bm.bvh_nodes_visited > 0, "the BVH side reports its cost");
    }

    /// A plan whose interest unions two subscriber scopes routes every
    /// point exactly as two separate single-scope plans on the same
    /// home would: the union is a compaction of the routing tables, not
    /// a loss of precision. (Both scopes here resolve to the same home
    /// shard — sharing never *moves* a home, it only merges interests
    /// that already landed together.)
    #[test]
    fn union_scope_interest_routes_like_separate_interests() {
        let hint = Some(Point::new(1.0, 1.0));
        let mut split = router(4, usize::MAX);
        split.subscribe(PlanId(0), rect_scope(0.0, 0.0, 20.0, 20.0), None, hint);
        split.subscribe(PlanId(1), rect_scope(25.0, 25.0, 45.0, 45.0), None, hint);

        let mut shared = router(4, usize::MAX);
        shared.subscribe(PlanId(0), rect_scope(0.0, 0.0, 20.0, 20.0), None, hint);
        shared.add_scope(PlanId(0), rect_scope(25.0, 25.0, 45.0, 45.0), None);

        for i in 0..200u64 {
            let p = Point::new((i as f64 * 7.3) % 100.0, (i as f64 * 3.1) % 100.0);
            let a = split.route(inst(i, p.x, p.y));
            let b = shared.route(inst(i, p.x, p.y));
            assert_eq!(a, b, "targets diverged at {p:?}");
        }
        // The gap between the two scopes stays pruned: the union
        // *bounding box* covers (22.5, 22.5) but no exact scope does.
        assert!(!shared.covered_by_interest(
            shared.home_of(PlanId(0)).unwrap(),
            Point::new(22.5, 22.5),
            layer_bit(Layer::Sensor)
        ));
        assert_eq!(shared.unsubscribe(PlanId(0)), Some(0));
        assert!(shared.home_of(PlanId(0)).is_none());
    }
}
