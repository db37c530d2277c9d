//! Out-of-order arrival handling.
//!
//! "In a distributed environment, it may only be possible to achieve
//! partial ordering … for the events" (Sec. 2); stream engines typically
//! assume "the events have already been ordered by a third party" [14].
//! This buffer *is* that third party: it holds arrivals for a slack
//! period and releases them in generation-time order behind a watermark.
//! EXP-A1 measures the accuracy/latency trade-off of the slack.

use std::collections::BTreeMap;
use stem_core::{codec, EventInstance};
use stem_temporal::{Duration, TimePoint};

/// A watermark-based reorder buffer.
///
/// Items are buffered under an explicit ordering key (for
/// [`EventInstance`]s, their generation time via
/// [`ReorderBuffer::push`]); whenever the watermark (latest seen key
/// minus the slack) advances, all buffered items at or below it are
/// released in order. Items arriving with a key already behind the
/// watermark are *late*: they are dropped and counted.
///
/// The payload type is generic so stream stages can carry metadata
/// through the reordering (the engine's shard workers buffer
/// `(evaluation time, instance)` pairs keyed by evaluation time).
///
/// # Example
///
/// ```
/// use stem_cep::ReorderBuffer;
/// use stem_core::{EventId, EventInstance, Layer, MoteId, ObserverId};
/// use stem_spatial::Point;
/// use stem_temporal::{Duration, TimePoint};
///
/// let mk = |t: u64| EventInstance::builder(
///     ObserverId::Mote(MoteId::new(1)), EventId::new("e"), Layer::Sensor,
/// ).generated(TimePoint::new(t), Point::new(0.0, 0.0)).build();
///
/// let mut buf = ReorderBuffer::new(Duration::new(10));
/// assert!(buf.push(mk(100)).is_empty(), "held back within slack");
/// // t=120 advances the watermark to 110, releasing the t=100 instance.
/// let released = buf.push(mk(120));
/// assert_eq!(released.len(), 1);
/// assert_eq!(released[0].generation_time(), TimePoint::new(100));
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer<T = EventInstance> {
    slack: Duration,
    buffer: BTreeMap<(TimePoint, u64), T>,
    max_seen: Option<TimePoint>,
    tie: u64,
    late_dropped: u64,
    released: u64,
    recovering: bool,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer::new(Duration::ZERO)
    }
}

impl<T> ReorderBuffer<T> {
    /// Creates a buffer with the given watermark slack.
    #[must_use]
    pub fn new(slack: Duration) -> Self {
        ReorderBuffer {
            slack,
            buffer: BTreeMap::new(),
            max_seen: None,
            tie: 0,
            late_dropped: 0,
            released: 0,
            recovering: false,
        }
    }

    /// Marks the buffer as replaying a durable log (crash recovery).
    ///
    /// The buffer itself behaves identically while the flag is set —
    /// replayed pushes and heartbeat observations must rebuild state
    /// bit-for-bit, so nothing may be suppressed *here*. The flag exists
    /// for the embedding stream stage: out-of-band, side-effecting work
    /// keyed off heartbeat observation — silence probes above all — must
    /// check [`ReorderBuffer::is_recovering`] and stand down, because
    /// the log already carries every probe that fired before the crash
    /// and replaying it will fire them again. A live probe accepted
    /// mid-recovery would therefore double-fire.
    pub fn begin_recovery(&mut self) {
        self.recovering = true;
    }

    /// Clears the recovery flag: the log has been replayed and live
    /// stream input (including live silence probes) may resume.
    pub fn end_recovery(&mut self) {
        self.recovering = false;
    }

    /// Whether the buffer is currently replaying a durable log.
    #[must_use]
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// The configured slack.
    #[must_use]
    pub fn slack(&self) -> Duration {
        self.slack
    }

    /// The current watermark: instances at or before it are final.
    #[must_use]
    pub fn watermark(&self) -> Option<TimePoint> {
        self.max_seen
            .map(|m| m.checked_sub(self.slack).unwrap_or(TimePoint::EPOCH))
    }

    /// Instances dropped as late so far.
    #[must_use]
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Instances released in order so far.
    #[must_use]
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Instances currently held.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Accepts an arrival under an explicit ordering key and returns any
    /// items now releasable, in key order (FIFO among equal keys).
    pub fn push_at(&mut self, key: TimePoint, item: T) -> Vec<T> {
        let mut out = Vec::new();
        self.push_at_into(key, item, &mut out);
        out
    }

    /// [`ReorderBuffer::push_at`], appending the released items to a
    /// caller-owned buffer instead of returning a fresh one — a stream
    /// stage that reuses `out` releases without allocating.
    pub fn push_at_into(&mut self, key: TimePoint, item: T, out: &mut Vec<T>) {
        if let Some(w) = self.watermark() {
            if key < w {
                self.late_dropped += 1;
                return;
            }
        }
        self.tie += 1;
        self.buffer.insert((key, self.tie), item);
        self.max_seen = Some(self.max_seen.map_or(key, |m| m.max(key)));
        self.drain_into(out);
    }

    /// Advances the watermark from an out-of-band time observation and
    /// returns any items that become releasable, in order.
    ///
    /// A sharded ingest path needs this: each shard's buffer only sees
    /// the instances routed to it, so its locally-observed maximum
    /// generation time lags the stream's. The router broadcasts its
    /// global maximum as a heartbeat and every shard applies it here,
    /// keeping late-drop decisions aligned with a single-shard run.
    pub fn observe(&mut self, t: TimePoint) -> Vec<T> {
        let mut out = Vec::new();
        self.observe_into(t, &mut out);
        out
    }

    /// [`ReorderBuffer::observe`], appending the released items to a
    /// caller-owned buffer.
    pub fn observe_into(&mut self, t: TimePoint, out: &mut Vec<T>) {
        self.max_seen = Some(self.max_seen.map_or(t, |m| m.max(t)));
        self.drain_into(out);
    }

    /// Releases everything still buffered (stream end), in order.
    pub fn flush(&mut self) -> Vec<T> {
        let out: Vec<T> = std::mem::take(&mut self.buffer).into_values().collect();
        self.released += out.len() as u64;
        out
    }

    /// Serializes the buffer's runtime state — watermark clock, tie and
    /// drop/release counters, and every held item — into `buf`, using
    /// `encode_item` for the generic payloads. The slack is
    /// configuration, not state: it is re-supplied at construction.
    pub fn save_state(&self, buf: &mut Vec<u8>, mut encode_item: impl FnMut(&T, &mut Vec<u8>)) {
        codec::encode_opt_time_point(self.max_seen, buf);
        codec::put_u64(buf, self.tie);
        codec::put_u64(buf, self.late_dropped);
        codec::put_u64(buf, self.released);
        codec::put_u32(buf, u32::try_from(self.buffer.len()).unwrap_or(u32::MAX));
        for ((key, tie), item) in &self.buffer {
            codec::encode_time_point(*key, buf);
            codec::put_u64(buf, *tie);
            encode_item(item, buf);
        }
    }

    /// Restores state saved by [`ReorderBuffer::save_state`] into this
    /// buffer, replacing whatever it held, with `decode_item` decoding
    /// the generic payloads.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`](stem_core::codec::CodecError) on
    /// truncation or payloads that fail to decode.
    pub fn load_state(
        &mut self,
        bytes: &mut &[u8],
        mut decode_item: impl FnMut(&mut &[u8]) -> stem_core::codec::CodecResult<T>,
    ) -> stem_core::codec::CodecResult<()> {
        self.max_seen = codec::decode_opt_time_point(bytes)?;
        self.tie = codec::get_u64(bytes)?;
        self.late_dropped = codec::get_u64(bytes)?;
        self.released = codec::get_u64(bytes)?;
        let n = codec::get_u32(bytes)? as usize;
        self.buffer.clear();
        for _ in 0..n {
            let key = codec::decode_time_point(bytes)?;
            let tie = codec::get_u64(bytes)?;
            let item = decode_item(bytes)?;
            self.buffer.insert((key, tie), item);
        }
        Ok(())
    }

    fn drain_into(&mut self, out: &mut Vec<T>) {
        let Some(w) = self.watermark() else {
            return;
        };
        let before = out.len();
        while let Some(entry) = self.buffer.first_entry() {
            if entry.key().0 <= w {
                out.push(entry.remove());
            } else {
                break;
            }
        }
        self.released += (out.len() - before) as u64;
    }
}

impl ReorderBuffer<EventInstance> {
    /// Accepts an instance keyed by its generation time and returns any
    /// instances now releasable, in generation-time order (FIFO among
    /// equal times).
    pub fn push(&mut self, instance: EventInstance) -> Vec<EventInstance> {
        let t = instance.generation_time();
        self.push_at(t, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stem_core::{EventId, Layer, MoteId, ObserverId};
    use stem_spatial::Point;

    fn mk(t: u64) -> EventInstance {
        EventInstance::builder(
            ObserverId::Mote(MoteId::new(1)),
            EventId::new("e"),
            Layer::Sensor,
        )
        .generated(TimePoint::new(t), Point::new(0.0, 0.0))
        .build()
    }

    #[test]
    fn reorders_within_slack() {
        let mut buf = ReorderBuffer::new(Duration::new(10));
        assert!(buf.push(mk(105)).is_empty());
        assert!(
            buf.push(mk(100)).is_empty(),
            "older arrival buffered, not dropped"
        );
        let out = buf.push(mk(120));
        let times: Vec<u64> = out.iter().map(|i| i.generation_time().ticks()).collect();
        assert_eq!(times, vec![100, 105], "released in generation order");
        assert_eq!(buf.pending(), 1, "the 120 instance is still held");
        assert_eq!(buf.late_dropped(), 0);
    }

    #[test]
    fn drops_late_arrivals_beyond_slack() {
        let mut buf = ReorderBuffer::new(Duration::new(5));
        buf.push(mk(100));
        buf.push(mk(200)); // watermark now 195
        assert!(buf.push(mk(100)).is_empty());
        assert_eq!(buf.late_dropped(), 1);
    }

    #[test]
    fn zero_slack_releases_immediately_in_order() {
        let mut buf = ReorderBuffer::new(Duration::ZERO);
        let out = buf.push(mk(10));
        assert_eq!(
            out.len(),
            1,
            "watermark equals max seen, so t=10 releases at once"
        );
        // An out-of-order arrival is dropped immediately.
        assert!(buf.push(mk(5)).is_empty());
        assert_eq!(buf.late_dropped(), 1);
    }

    #[test]
    fn observe_advances_watermark_without_enqueueing() {
        let mut buf = ReorderBuffer::new(Duration::new(10));
        assert!(buf.push(mk(100)).is_empty());
        // A heartbeat for t=120 releases the t=100 instance exactly as a
        // t=120 arrival would, but holds nothing new.
        let out = buf.observe(TimePoint::new(120));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].generation_time(), TimePoint::new(100));
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.watermark(), Some(TimePoint::new(110)));
        // Late arrivals behind the observed watermark are dropped.
        assert!(buf.push(mk(50)).is_empty());
        assert_eq!(buf.late_dropped(), 1);
        // Heartbeats never move the watermark backwards.
        buf.observe(TimePoint::new(60));
        assert_eq!(buf.watermark(), Some(TimePoint::new(110)));
    }

    #[test]
    fn recovery_flag_flips_without_changing_stream_behaviour() {
        // Re-ingesting a log during recovery must rebuild state exactly,
        // so the buffer's accept/release/late-drop behaviour is
        // identical with the flag set; the flag only tells the embedding
        // stage to hold side-effecting heartbeat work (silence probes)
        // until the replay is done.
        let mut live = ReorderBuffer::new(Duration::new(10));
        let mut recovering = ReorderBuffer::new(Duration::new(10));
        recovering.begin_recovery();
        assert!(recovering.is_recovering());
        assert!(!live.is_recovering());
        for t in [105, 100, 120, 90, 130] {
            let a: Vec<u64> = live
                .push(mk(t))
                .iter()
                .map(|i| i.generation_time().ticks())
                .collect();
            let b: Vec<u64> = recovering
                .push(mk(t))
                .iter()
                .map(|i| i.generation_time().ticks())
                .collect();
            assert_eq!(a, b, "push at {t} diverged under recovery");
        }
        let a = live.observe(TimePoint::new(160)).len();
        let b = recovering.observe(TimePoint::new(160)).len();
        assert_eq!(a, b, "heartbeat observation diverged under recovery");
        assert_eq!(live.late_dropped(), recovering.late_dropped());
        assert_eq!(live.watermark(), recovering.watermark());
        recovering.end_recovery();
        assert!(!recovering.is_recovering());
    }

    /// The `_into` forms append to the caller's buffer (keeping what it
    /// already held) and release exactly what the returning forms do.
    #[test]
    fn into_forms_append_to_the_callers_buffer() {
        let mut fresh = ReorderBuffer::new(Duration::new(10));
        let mut reused = ReorderBuffer::new(Duration::new(10));
        let mut out = vec![mk(1)];
        for t in [105, 100, 120, 90, 130] {
            let a = fresh.push(mk(t));
            let before = out.len();
            reused.push_at_into(TimePoint::new(t), mk(t), &mut out);
            assert_eq!(&out[before..], &a[..], "push at {t}");
        }
        let a = fresh.observe(TimePoint::new(200));
        let before = out.len();
        reused.observe_into(TimePoint::new(200), &mut out);
        assert_eq!(&out[before..], &a[..]);
        assert_eq!(out[0], mk(1), "earlier contents are kept");
        assert_eq!(reused.released(), fresh.released());
        assert_eq!(reused.late_dropped(), fresh.late_dropped());
    }

    #[test]
    fn flush_releases_remainder() {
        let mut buf = ReorderBuffer::new(Duration::new(100));
        buf.push(mk(10));
        buf.push(mk(20));
        assert_eq!(buf.pending(), 2);
        let out = buf.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].generation_time(), TimePoint::new(10));
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.released(), 2);
    }

    #[test]
    fn keyed_payloads_reorder_by_explicit_key() {
        // The generic path: payloads carry metadata (here an evaluation
        // time) and order by an explicit key, not by generation time.
        let mut buf: ReorderBuffer<(u64, &str)> = ReorderBuffer::new(Duration::new(10));
        assert!(buf.push_at(TimePoint::new(105), (105, "b")).is_empty());
        assert!(buf.push_at(TimePoint::new(100), (100, "a")).is_empty());
        let out = buf.push_at(TimePoint::new(120), (120, "c"));
        assert_eq!(out, vec![(100, "a"), (105, "b")]);
        assert_eq!(buf.flush(), vec![(120, "c")]);
        assert_eq!(buf.released(), 3);
    }

    #[test]
    fn equal_timestamps_release_fifo() {
        let mut buf = ReorderBuffer::new(Duration::new(1));
        let a = mk(10).with_seq(stem_core::SeqNo::new(1));
        let b = mk(10).with_seq(stem_core::SeqNo::new(2));
        buf.push(a);
        buf.push(b);
        let out = buf.push(mk(50));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq().raw(), 1);
        assert_eq!(out[1].seq().raw(), 2);
    }

    /// Snapshot round-trip with items in flight: the restored buffer
    /// holds the same pending items, watermark, and counters, and makes
    /// identical accept/release/late-drop decisions afterwards.
    #[test]
    fn state_round_trips_with_pending_items() {
        let mut live: ReorderBuffer<(u64, String)> = ReorderBuffer::new(Duration::new(20));
        live.push_at(TimePoint::new(100), (100, "a".into()));
        live.push_at(TimePoint::new(90), (90, "b".into()));
        live.push_at(TimePoint::new(130), (130, "c".into())); // releases 90 + 100
        live.push_at(TimePoint::new(50), (50, "late".into())); // dropped

        let mut buf = Vec::new();
        live.save_state(&mut buf, |item, buf| {
            codec::put_u64(buf, item.0);
            codec::put_str(buf, &item.1);
        });
        let mut resumed: ReorderBuffer<(u64, String)> = ReorderBuffer::new(Duration::new(20));
        let mut bytes = buf.as_slice();
        resumed
            .load_state(&mut bytes, |bytes| {
                Ok((codec::get_u64(bytes)?, codec::get_str(bytes)?))
            })
            .unwrap();
        assert!(bytes.is_empty());
        assert_eq!(resumed.pending(), live.pending());
        assert_eq!(resumed.watermark(), live.watermark());
        assert_eq!(resumed.late_dropped(), live.late_dropped());
        assert_eq!(resumed.released(), live.released());

        for t in [120u64, 160, 40] {
            let a = live.push_at(TimePoint::new(t), (t, format!("t{t}")));
            let b = resumed.push_at(TimePoint::new(t), (t, format!("t{t}")));
            assert_eq!(a, b, "diverged at t={t}");
        }
        assert_eq!(live.flush(), resumed.flush());
    }

    proptest! {
        /// Whatever the arrival order, (released ++ flush) is sorted by
        /// generation time and nothing within slack is ever dropped when
        /// disorder is bounded by the slack.
        #[test]
        fn released_stream_is_ordered(
            times in proptest::collection::vec(0u64..200, 1..60),
            slack in 0u64..50,
        ) {
            let mut buf = ReorderBuffer::new(Duration::new(slack));
            let mut released = Vec::new();
            for &t in &times {
                released.extend(buf.push(mk(t)));
            }
            released.extend(buf.flush());
            for w in released.windows(2) {
                prop_assert!(w[0].generation_time() <= w[1].generation_time());
            }
            prop_assert_eq!(
                released.len() as u64 + buf.late_dropped(),
                times.len() as u64
            );
        }

        /// With disorder bounded by the slack, nothing is dropped.
        #[test]
        fn bounded_disorder_is_lossless(
            deltas in proptest::collection::vec(0u64..10, 1..50),
            slack in 10u64..40,
        ) {
            // Build a sorted stream with gaps < 10 (< slack), then swap
            // adjacent pairs: the disorder is bounded by the gap, hence
            // always within the slack.
            let mut times = Vec::with_capacity(deltas.len());
            let mut t = 0u64;
            for d in &deltas {
                t += d;
                times.push(t);
            }
            let mut disordered = times.clone();
            for pair in disordered.chunks_mut(2) {
                pair.reverse();
            }
            let mut buf = ReorderBuffer::new(Duration::new(slack));
            let mut count = 0;
            for &t in &disordered {
                count += buf.push(mk(t)).len();
            }
            count += buf.flush().len();
            prop_assert_eq!(count, times.len());
            prop_assert_eq!(buf.late_dropped(), 0);
        }
    }
}
