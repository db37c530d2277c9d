//! The unit of handoff between router and shard workers.

use std::sync::Arc;
use stem_core::{
    codec, ColumnarBatch, EntityLookup, EntityView, EventId, EventInstance, Layer, SeqNo,
};
use stem_spatial::{Point, SpatialExtent};
use stem_temporal::{TemporalExtent, TimePoint};

/// How a routed instance travels to its shard.
///
/// The classic path moves the owned [`EventInstance`]; the columnar
/// ingest path instead ships a shared reference into a
/// [`ColumnarBatch`] row, so the router, the worker's filter pass,
/// condition evaluation (the payload is an [`EntityView`]) and WAL
/// encoding all read flat columns, and the full instance is only
/// re-materialized for rows that produce a notification.
#[derive(Debug, Clone)]
pub enum ItemPayload {
    /// A standalone instance (per-instance ingest to a single target,
    /// recovery replay, snapshot restore).
    Owned(EventInstance),
    /// A broadcast copy: the same instance delivered to several shards
    /// shares one allocation, so fanout costs an `Arc` bump instead of
    /// a deep clone of strings and attribute maps.
    Shared(Arc<EventInstance>),
    /// Row `.1` of a shared columnar ingest chunk.
    Columnar(Arc<ColumnarBatch>, u32),
}

impl ItemPayload {
    /// The instance's event id.
    #[must_use]
    pub fn event(&self) -> &EventId {
        match self {
            ItemPayload::Owned(instance) => instance.event(),
            ItemPayload::Shared(instance) => instance.event(),
            ItemPayload::Columnar(batch, row) => batch.event(*row as usize),
        }
    }

    /// The instance's model layer.
    #[must_use]
    pub fn layer(&self) -> Layer {
        match self {
            ItemPayload::Owned(instance) => instance.layer(),
            ItemPayload::Shared(instance) => instance.layer(),
            ItemPayload::Columnar(batch, row) => batch.layer(*row as usize),
        }
    }

    /// The instance's generation time `t^g`.
    #[must_use]
    pub fn generation_time(&self) -> TimePoint {
        match self {
            ItemPayload::Owned(instance) => instance.generation_time(),
            ItemPayload::Shared(instance) => instance.generation_time(),
            ItemPayload::Columnar(batch, row) => batch.generation_time(*row as usize),
        }
    }

    /// The representative point of the estimated location — what the
    /// router and the subscription filter pass key on.
    #[must_use]
    pub fn representative(&self) -> Point {
        match self {
            ItemPayload::Owned(instance) => instance.estimated_location().representative(),
            ItemPayload::Shared(instance) => instance.estimated_location().representative(),
            ItemPayload::Columnar(batch, row) => batch.representative(*row as usize),
        }
    }

    /// The estimated occurrence location `l^eo`.
    #[must_use]
    pub fn estimated_location(&self) -> &SpatialExtent {
        match self {
            ItemPayload::Owned(instance) => instance.estimated_location(),
            ItemPayload::Shared(instance) => instance.estimated_location(),
            ItemPayload::Columnar(batch, row) => batch.estimated_location(*row as usize),
        }
    }

    /// The observer-assigned sequence number.
    #[must_use]
    pub fn seq(&self) -> SeqNo {
        match self {
            ItemPayload::Owned(instance) => instance.seq(),
            ItemPayload::Shared(instance) => instance.seq(),
            ItemPayload::Columnar(batch, row) => batch.seq(*row as usize),
        }
    }

    /// Appends the instance's [`codec::encode_instance`] bytes — read
    /// straight from the columns for a columnar row.
    pub fn encode_instance(&self, buf: &mut Vec<u8>) {
        match self {
            ItemPayload::Owned(instance) => codec::encode_instance(instance, buf),
            ItemPayload::Shared(instance) => codec::encode_instance(instance, buf),
            ItemPayload::Columnar(batch, row) => batch.encode_row(*row as usize, buf),
        }
    }

    /// A standalone copy of the instance (clone for owned payloads,
    /// materialization for columnar rows — bit-identical either way).
    #[must_use]
    pub fn to_instance(&self) -> EventInstance {
        match self {
            ItemPayload::Owned(instance) => instance.clone(),
            ItemPayload::Shared(instance) => EventInstance::clone(instance),
            ItemPayload::Columnar(batch, row) => batch.materialize(*row as usize),
        }
    }

    /// Consumes the payload into a standalone instance (move for owned
    /// payloads — and for the last live handle of a shared one —
    /// materialization for columnar rows).
    #[must_use]
    pub fn into_instance(self) -> EventInstance {
        match self {
            ItemPayload::Owned(instance) => instance,
            ItemPayload::Shared(instance) => {
                Arc::try_unwrap(instance).unwrap_or_else(|arc| EventInstance::clone(&arc))
            }
            ItemPayload::Columnar(batch, row) => batch.materialize(row as usize),
        }
    }
}

impl EntityView for ItemPayload {
    fn time(&self) -> TemporalExtent {
        match self {
            ItemPayload::Owned(instance) => *instance.estimated_time(),
            ItemPayload::Shared(instance) => *instance.estimated_time(),
            ItemPayload::Columnar(batch, row) => batch.estimated_time(*row as usize),
        }
    }

    fn location(&self) -> &SpatialExtent {
        self.estimated_location()
    }

    fn attr_f64(&self, key: &str) -> Option<f64> {
        match self {
            ItemPayload::Owned(instance) => instance.attributes().get_f64(key),
            ItemPayload::Shared(instance) => instance.attributes().get_f64(key),
            ItemPayload::Columnar(batch, row) => batch.attr_f64(*row as usize, key),
        }
    }

    fn confidence(&self) -> f64 {
        match self {
            ItemPayload::Owned(instance) => instance.confidence().value(),
            ItemPayload::Shared(instance) => instance.confidence().value(),
            ItemPayload::Columnar(batch, row) => batch.confidence(*row as usize).value(),
        }
    }
}

/// A per-instance condition's bindings: every entity name resolves to
/// the one candidate payload. Equivalent to binding each of the
/// condition's entity names to the instance, without building a map.
pub(crate) struct SoleEntity<'a>(pub &'a ItemPayload);

impl EntityLookup for SoleEntity<'_> {
    type Entity = ItemPayload;

    fn entity(&self, _name: &str) -> Option<&ItemPayload> {
        Some(self.0)
    }
}

impl From<EventInstance> for ItemPayload {
    fn from(instance: EventInstance) -> Self {
        ItemPayload::Owned(instance)
    }
}

/// Trace-clock stamps a routed item accumulated before handoff (absent
/// with [`crate::TracePolicy::Off`]). The remaining stages (release,
/// evaluate, notify) are stamped by the shard worker; the enqueue stamp
/// is per-batch ([`Batch::enqueue`]) because every item in a batch is
/// handed off together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemTrace {
    /// When the operation entered the engine (ingest call or columnar
    /// push).
    pub ingest: u64,
    /// When the router stamped it with its global sequence.
    pub route: u64,
}

/// One routed instance plus the router's high-water mark over the
/// strict prefix of the stream before it.
///
/// Applying `prefix_high_water` to the shard's reorder buffer *before*
/// pushing the instance reproduces the exact accept/late-drop decision
/// a single-shard run would make, whatever the disorder: the shard's
/// watermark at the push is the global stream's watermark at the same
/// point, not just the local sub-stream's.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The global ingest sequence number: every ingested instance and
    /// every silence probe consumes one, in arrival order. Broadcast
    /// copies of the same instance share it — it identifies the
    /// *operation*, which is what write-ahead logging and post-recovery
    /// deduplication key on.
    pub seq: u64,
    /// The routed instance (owned, or a shared columnar row).
    pub payload: ItemPayload,
    /// Observer-local evaluation time provided at ingest
    /// ([`crate::Engine::ingest_at`]): the reorder key and the clock
    /// pattern/sustained evaluation runs on. `None` falls back to the
    /// instance's generation time (the classic streaming path).
    pub eval_at: Option<TimePoint>,
    /// Maximum stream-clock value over all instances routed strictly
    /// before this one (`None` for the stream's first instance).
    pub prefix_high_water: Option<TimePoint>,
    /// Ingest/route trace-clock stamps (`None` with tracing off).
    pub trace: Option<ItemTrace>,
}

/// A batch of instances bound for one shard, stamped with the router's
/// global high-water mark.
///
/// The trailing high-water mark is the watermark heartbeat: the
/// maximum generation time the *router* has seen across all shards at
/// flush time. Workers apply it after the batch's instances so release
/// progress tracks the global stream even on shards whose own
/// territory is quiet.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Instances in router arrival order, each with its prefix
    /// high-water stamp.
    pub instances: Vec<BatchItem>,
    /// Maximum generation time seen by the router when this batch was
    /// flushed (`None` only before the first instance).
    pub high_water: Option<TimePoint>,
    /// The global ingest sequence count when the batch was flushed —
    /// an *exclusive* bound: every operation with a sequence strictly
    /// below it precedes this batch's heartbeat. `0` unambiguously
    /// means "cut before any ingest" (it stamps the shard's durable
    /// heartbeat records, where the distinction matters for replay
    /// ordering and recovery clock seeding).
    pub seq: u64,
    /// Trace-clock stamp taken when the batch was handed to the shard
    /// queue (0 with tracing off): the `enqueue` stage stamp shared by
    /// every item in the batch.
    pub enqueue: u64,
}

impl Batch {
    /// Number of instances in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the batch carries no instances (it may still carry a
    /// heartbeat).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}
