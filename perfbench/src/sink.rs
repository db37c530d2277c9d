//! The benchmark's delivery sink. It only counts, digests, and
//! timestamps deliveries in lock-free arrays, so what a delivery costs
//! is the engine's work and not a collector mutex's.

use crate::inputs::{derived_hash, match_hash, Expected};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use stem_engine::{EventSink, Notification, NotificationKind};

/// Everything one engine run delivered.
pub struct Tally {
    epoch: Instant,
    sub_count: Vec<AtomicU64>,
    sub_digest: Vec<AtomicU64>,
    /// Per stream index: first delivery time, ns after `epoch`, plus 1
    /// (0 = never delivered).
    first_arrival: Vec<AtomicU64>,
    /// Per stream index: deliveries keyed to it.
    deliveries: Vec<AtomicU32>,
    /// Derived deliveries are keyed by the completing constituent: the
    /// last stream index with the derived instance's generation time.
    key_by_time: Arc<Vec<u32>>,
    /// Deliveries no subscription or stream index accounts for.
    unexpected: AtomicU64,
}

/// A subscription's sink: a handle on the shared [`Tally`].
struct TallySink(Arc<Tally>);

impl EventSink for TallySink {
    fn deliver(&self, n: Notification) {
        self.0.record(&n);
    }
}

impl Tally {
    /// A tally for `subscriptions` sinks over a stream of `instances`.
    pub fn new(
        epoch: Instant,
        subscriptions: usize,
        instances: usize,
        key_by_time: Arc<Vec<u32>>,
    ) -> Arc<Self> {
        let zeros64 = |n| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Arc::new(Tally {
            epoch,
            sub_count: zeros64(subscriptions),
            sub_digest: zeros64(subscriptions),
            first_arrival: zeros64(instances),
            deliveries: (0..instances).map(|_| AtomicU32::new(0)).collect(),
            key_by_time,
            unexpected: AtomicU64::new(0),
        })
    }

    /// A sink delivering into this tally.
    pub fn sink(self: &Arc<Self>) -> Box<dyn EventSink> {
        Box::new(TallySink(Arc::clone(self)))
    }

    fn record(&self, n: &Notification) {
        let (key, hash) = match &n.kind {
            NotificationKind::Match(inst) => {
                let seq = inst.seq().raw();
                (usize::try_from(seq).unwrap_or(usize::MAX), match_hash(seq))
            }
            NotificationKind::Derived(inst) => {
                let t = inst.generation_time().ticks();
                let key = usize::try_from(t)
                    .ok()
                    .and_then(|t| self.key_by_time.get(t))
                    .map_or(usize::MAX, |&k| k as usize);
                (key, derived_hash(inst))
            }
            NotificationKind::Sustained(_) => (usize::MAX, 0),
        };
        let sub = usize::try_from(n.subscription.raw()).unwrap_or(usize::MAX);
        let (Some(count), Some(digest), Some(hits), Some(first)) = (
            self.sub_count.get(sub),
            self.sub_digest.get(sub),
            self.deliveries.get(key),
            self.first_arrival.get(key),
        ) else {
            self.unexpected.fetch_add(1, Relaxed);
            return;
        };
        count.fetch_add(1, Relaxed);
        digest.fetch_add(hash, Relaxed);
        if hits.fetch_add(1, Relaxed) == 0 {
            let now = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            first.store(now.saturating_add(1), Relaxed);
        }
    }

    /// Deliveries to subscription `sub`: `(count, digest)`.
    pub fn of(&self, sub: usize) -> (u64, u64) {
        (
            self.sub_count[sub].load(Relaxed),
            self.sub_digest[sub].load(Relaxed),
        )
    }

    /// Deliveries no subscription or stream index accounts for.
    pub fn unexpected(&self) -> u64 {
        self.unexpected.load(Relaxed)
    }

    /// Compares every subscription's deliveries with the reference:
    /// missing plus extra deliveries, at least 1 per mismatched
    /// subscription.
    pub fn mismatched(&self, expected: &Expected) -> u64 {
        let mut mismatched = self.unexpected();
        for sub in 0..self.sub_count.len() {
            let (count, digest) = self.of(sub);
            let want = expected.of(sub);
            if count != want.len() as u64 || digest != crate::inputs::digest(want) {
                mismatched += count.abs_diff(want.len() as u64).max(1);
            }
        }
        mismatched
    }

    /// Notification latencies, weighted by deliveries: for every
    /// delivered stream index, `(first arrival − due, deliveries)` in
    /// ns, where `due(index)` is when that instance was due to enter
    /// the engine, in ns after the epoch.
    pub fn latencies(&self, due: impl Fn(usize) -> u64) -> Vec<(u64, u64)> {
        self.deliveries
            .iter()
            .zip(&self.first_arrival)
            .enumerate()
            .filter_map(|(i, (hits, first))| {
                let hits = u64::from(hits.load(Relaxed));
                (hits > 0).then(|| {
                    let arrived = first.load(Relaxed).saturating_sub(1);
                    (arrived.saturating_sub(due(i)), hits)
                })
            })
            .collect()
    }
}
