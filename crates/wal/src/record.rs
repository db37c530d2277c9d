//! The record kinds that travel through a shard's log.

use stem_core::codec::{
    decode_instance, decode_opt_time_point, decode_time_point, encode_instance,
    encode_opt_time_point, encode_time_point, get_u64, get_u8, put_u64, put_u8, CodecError,
    CodecResult,
};
use stem_core::EventInstance;
use stem_temporal::TimePoint;

/// One durable entry in a shard's write-ahead log.
///
/// Sequence numbers are the engine's *global* ingest counter: every
/// ingested instance and every silence probe consumes one, in arrival
/// order, so the union of the per-shard logs — deduplicated by `seq` —
/// reconstructs the exact global operation stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A routed instance, logged by its shard *before* evaluation.
    Instance {
        /// Global ingest sequence number.
        seq: u64,
        /// Observer-local evaluation time provided at ingest (`None` =
        /// the instance's generation time; see `Engine::ingest_at`).
        eval_at: Option<TimePoint>,
        /// The router's high-water mark over the strict prefix of the
        /// stream before this instance (replayed so accept/late-drop
        /// decisions are bit-identical).
        prefix_high_water: Option<TimePoint>,
        /// The instance itself.
        instance: EventInstance,
    },
    /// A silence probe queued for a sustained subscription.
    Probe {
        /// Global ingest sequence number.
        seq: u64,
        /// The raw id of the probed subscription (ids are reassigned
        /// deterministically when subscriptions are re-registered in the
        /// original order at recovery).
        subscription: u64,
        /// The probe's observer-local time.
        at: TimePoint,
        /// The router's high-water mark over the strict prefix of the
        /// stream before this probe. Replayed (and observed live)
        /// before the probe's staleness check so the accept/drop
        /// decision no longer depends on whether a separate heartbeat
        /// happened to be delivered first — which lets the engine
        /// suppress heartbeats to clean shards entirely.
        prefix_high_water: Option<TimePoint>,
    },
    /// The router's global high-water mark as delivered to this shard
    /// (appended only when it advanced past the previously logged one).
    Heartbeat {
        /// The global ingest sequence count when the heartbeat was cut
        /// — an *exclusive* bound: the heartbeat summarizes every
        /// operation with a sequence strictly below it, and `0` means
        /// it was cut before any ingest (no collision with operation
        /// 0's sequence).
        seq: u64,
        /// The stream-clock high-water mark.
        high_water: TimePoint,
    },
    /// A periodic durability checkpoint.
    Watermark {
        /// The last global ingest sequence this shard is durable through.
        seq: u64,
        /// The shard's reorder watermark at checkpoint time.
        watermark: Option<TimePoint>,
        /// Notifications the shard had emitted when the checkpoint was
        /// cut — what recovery reports as durably emitted.
        emitted: u64,
    },
}

const TAG_INSTANCE: u8 = 1;
const TAG_PROBE: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_WATERMARK: u8 = 4;

impl WalRecord {
    /// The global ingest sequence this record carries.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Instance { seq, .. }
            | WalRecord::Probe { seq, .. }
            | WalRecord::Heartbeat { seq, .. }
            | WalRecord::Watermark { seq, .. } => *seq,
        }
    }

    /// Whether this record consumes an ingest sequence slot (instances
    /// and probes do; heartbeats and watermarks only reference one).
    #[must_use]
    pub fn consumes_seq(&self) -> bool {
        matches!(self, WalRecord::Instance { .. } | WalRecord::Probe { .. })
    }

    /// The largest ingest sequence this record proves the shard's log
    /// durable through: its own sequence for operations and durability
    /// checkpoints, `seq - 1` for heartbeats (whose stamp is the
    /// exclusive prefix bound), and `None` for a heartbeat cut over an
    /// empty prefix — which proves nothing durable at all. Claiming
    /// the raw heartbeat stamp here would over-claim by one: the
    /// operation *at* the stamp may arrive (and be lost) after the
    /// heartbeat was appended.
    #[must_use]
    pub fn durable_seq(&self) -> Option<u64> {
        match self {
            WalRecord::Heartbeat { seq, .. } => seq.checked_sub(1),
            other => Some(other.seq()),
        }
    }

    /// Encodes an [`WalRecord::Instance`] payload whose instance bytes
    /// `encode_instance` writes (in [`encode_instance`]'s layout) —
    /// the same bytes as encoding the record, for an instance that is
    /// stored some other way than as an [`EventInstance`].
    pub fn encode_instance_with(
        seq: u64,
        eval_at: Option<TimePoint>,
        prefix_high_water: Option<TimePoint>,
        buf: &mut Vec<u8>,
        encode_instance: impl FnOnce(&mut Vec<u8>),
    ) {
        put_u8(buf, TAG_INSTANCE);
        put_u64(buf, seq);
        encode_opt_time_point(eval_at, buf);
        encode_opt_time_point(prefix_high_water, buf);
        encode_instance(buf);
    }

    /// Encodes the record payload (frame-less; the segment writer adds
    /// the length/CRC envelope).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Instance {
                seq,
                eval_at,
                prefix_high_water,
                instance,
            } => WalRecord::encode_instance_with(*seq, *eval_at, *prefix_high_water, buf, |buf| {
                encode_instance(instance, buf);
            }),
            WalRecord::Probe {
                seq,
                subscription,
                at,
                prefix_high_water,
            } => {
                put_u8(buf, TAG_PROBE);
                put_u64(buf, *seq);
                put_u64(buf, *subscription);
                encode_time_point(*at, buf);
                encode_opt_time_point(*prefix_high_water, buf);
            }
            WalRecord::Heartbeat { seq, high_water } => {
                put_u8(buf, TAG_HEARTBEAT);
                put_u64(buf, *seq);
                encode_time_point(*high_water, buf);
            }
            WalRecord::Watermark {
                seq,
                watermark,
                emitted,
            } => {
                put_u8(buf, TAG_WATERMARK);
                put_u64(buf, *seq);
                encode_opt_time_point(*watermark, buf);
                put_u64(buf, *emitted);
            }
        }
    }

    /// Decodes one record from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation or unknown tags.
    pub fn decode(bytes: &mut &[u8]) -> CodecResult<WalRecord> {
        match get_u8(bytes)? {
            TAG_INSTANCE => Ok(WalRecord::Instance {
                seq: get_u64(bytes)?,
                eval_at: decode_opt_time_point(bytes)?,
                prefix_high_water: decode_opt_time_point(bytes)?,
                instance: decode_instance(bytes)?,
            }),
            TAG_PROBE => Ok(WalRecord::Probe {
                seq: get_u64(bytes)?,
                subscription: get_u64(bytes)?,
                at: decode_time_point(bytes)?,
                prefix_high_water: decode_opt_time_point(bytes)?,
            }),
            TAG_HEARTBEAT => Ok(WalRecord::Heartbeat {
                seq: get_u64(bytes)?,
                high_water: decode_time_point(bytes)?,
            }),
            TAG_WATERMARK => Ok(WalRecord::Watermark {
                seq: get_u64(bytes)?,
                watermark: decode_opt_time_point(bytes)?,
                emitted: get_u64(bytes)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "WalRecord",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_core::{EventId, Layer, MoteId, ObserverId};
    use stem_spatial::Point;

    fn mk(t: u64) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new("e"),
            Layer::Sensor,
        )
        .generated(TimePoint::new(t), Point::new(1.0, 2.0))
        .build()
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = vec![
            WalRecord::Instance {
                seq: 7,
                eval_at: Some(TimePoint::new(50)),
                prefix_high_water: None,
                instance: mk(40),
            },
            WalRecord::Probe {
                seq: 8,
                subscription: 3,
                at: TimePoint::new(60),
                prefix_high_water: Some(TimePoint::new(58)),
            },
            WalRecord::Heartbeat {
                seq: 8,
                high_water: TimePoint::new(55),
            },
            WalRecord::Watermark {
                seq: 8,
                watermark: Some(TimePoint::new(55)),
                emitted: 12,
            },
        ];
        for rec in records {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let mut bytes = buf.as_slice();
            assert_eq!(WalRecord::decode(&mut bytes).unwrap(), rec);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn seq_accessors_agree() {
        let rec = WalRecord::Probe {
            seq: 5,
            subscription: 0,
            at: TimePoint::new(1),
            prefix_high_water: None,
        };
        assert_eq!(rec.seq(), 5);
        assert!(rec.consumes_seq());
        let hb = WalRecord::Heartbeat {
            seq: 5,
            high_water: TimePoint::new(1),
        };
        assert!(!hb.consumes_seq());
    }

    /// The empty-prefix case: a heartbeat's stamp is the exclusive
    /// prefix bound, so stamp 0 ("cut before any ingest") proves
    /// nothing durable — treating it as operation 0's sequence would
    /// claim durability for an operation that may be appended (and
    /// lost) after the heartbeat.
    #[test]
    fn heartbeat_durable_claim_is_exclusive() {
        let pre_ingest = WalRecord::Heartbeat {
            seq: 0,
            high_water: TimePoint::new(1),
        };
        assert_eq!(pre_ingest.durable_seq(), None);
        let after_five = WalRecord::Heartbeat {
            seq: 5,
            high_water: TimePoint::new(9),
        };
        assert_eq!(after_five.durable_seq(), Some(4));
        // Operations and durability checkpoints claim their own seq.
        assert_eq!(mk_record(7).durable_seq(), Some(7));
        let checkpoint = WalRecord::Watermark {
            seq: 7,
            watermark: None,
            emitted: 0,
        };
        assert_eq!(checkpoint.durable_seq(), Some(7));
    }

    fn mk_record(seq: u64) -> WalRecord {
        WalRecord::Instance {
            seq,
            eval_at: None,
            prefix_high_water: None,
            instance: mk(seq),
        }
    }
}
