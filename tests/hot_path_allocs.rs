//! Heap-allocation budget of the steady-state dense path.
//!
//! A deterministic 1-shard engine evaluates the 400-circle `x.temp > 45`
//! grid over a 64k-instance stream. After a warm-up that grows every
//! reused buffer, routing, reordering, scope pruning and condition
//! evaluation must not touch the heap: a stream in which no row
//! notifies allocates almost nothing per instance, and on the normal
//! stream the allocations are paid by the rows that notify (building
//! the delivered instance), not by the rows that are only evaluated.
//!
//! The counting allocator counts per thread; deterministic mode runs
//! the whole engine on the calling thread, so concurrently running
//! tests do not disturb the counts.

use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stem::core::{dsl, Attributes, EventId, EventInstance, Layer, MoteId, ObserverId, SeqNo};
use stem::des::stream;
use stem::engine::{Engine, EngineConfig, EventSink, Notification, Subscription, TracePolicy};
use stem::spatial::{Circle, Field, Point, Rect, SpatialExtent};
use stem::temporal::{Duration, TimePoint};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Counts this thread's allocations (fresh and growing), then defers to
/// the system allocator.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the only
// addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WORLD: f64 = 1_000.0;
const GRID: usize = 20;
const INSTANCES: usize = 64 * 1024;
const WARM_UP: usize = 16 * 1024;

/// Counts deliveries without allocating.
struct Count(Arc<AtomicU64>);

impl EventSink for Count {
    fn deliver(&self, _notification: Notification) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The 64-mote stream: bounded disorder (under the 16-tick slack),
/// uniform locations, temperatures uniform in `temps`.
fn readings(seed: u64, temps: std::ops::Range<f64>) -> Vec<EventInstance> {
    let mut rng = stream(seed, 1);
    (0..INSTANCES as u64)
        .map(|i| {
            let t = 2 * i + rng.gen_range(0u64..8);
            let at = Point::new(rng.gen_range(0.0..WORLD), rng.gen_range(0.0..WORLD));
            EventInstance::builder(
                ObserverId::Mote(MoteId::new((i % 64) as u32)),
                EventId::new("reading"),
                Layer::Sensor,
            )
            .seq(SeqNo::new(i))
            .generated(TimePoint::new(t), at)
            .attributes(Attributes::new().with("temp", rng.gen_range(temps.clone())))
            .build()
        })
        .collect()
}

/// Runs the grid over `stream` and returns `(allocations after the
/// warm-up, instances after the warm-up, notifications after it)`.
fn measure(stream: &[EventInstance]) -> (u64, u64, u64) {
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(WORLD, WORLD));
    let mut engine = Engine::start(
        EngineConfig::new(bounds)
            .with_batch_size(256)
            .with_watermark_slack(Duration::new(16))
            .with_trace(TracePolicy::Off)
            .deterministic(),
    );
    let delivered = Arc::new(AtomicU64::new(0));
    let condition = dsl::parse("x.temp > 45").expect("condition parses");
    let step = WORLD / GRID as f64;
    for c in 0..GRID * GRID {
        let center = Point::new(
            ((c % GRID) as f64 + 0.5) * step,
            ((c / GRID) as f64 + 0.5) * step,
        );
        let circle = SpatialExtent::field(Field::circle(Circle::new(center, step * 0.3)));
        engine.subscribe(
            Subscription::new(
                format!("hot-{c}"),
                circle,
                Box::new(Count(delivered.clone())),
            )
            .for_event("reading")
            .when(condition.clone()),
        );
    }
    engine.ingest_all(&stream[..WARM_UP]);
    let (before, warm) = (allocs(), delivered.load(Ordering::Relaxed));
    engine.ingest_all(&stream[WARM_UP..]);
    let spent = allocs() - before;
    let notified = delivered.load(Ordering::Relaxed) - warm;
    let _ = engine.finish();
    (spent, (stream.len() - WARM_UP) as u64, notified)
}

#[test]
fn evaluation_without_notifications_does_not_allocate() {
    // Every row is at most 44 degrees: rows inside a circle are
    // evaluated, none notifies.
    let (spent, instances, notified) = measure(&readings(7, 10.0..44.0));
    assert_eq!(notified, 0);
    let per_inst = spent as f64 / instances as f64;
    assert!(
        per_inst < 0.05,
        "{spent} allocations over {instances} instances ({per_inst:.3} per instance)"
    );
}

#[test]
fn allocations_are_paid_by_notifying_rows() {
    let (spent, instances, notified) = measure(&readings(7, 10.0..80.0));
    assert!(
        notified > instances / 20,
        "the normal stream notifies: {notified} of {instances}"
    );
    let per_note = spent as f64 / notified as f64;
    assert!(
        per_note <= 4.0,
        "{spent} allocations for {notified} notifications ({per_note:.2} each)"
    );
}
