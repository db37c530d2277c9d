//! Seeded inputs and the reference computations the engine's outputs
//! are checked against.
//!
//! The references never go through the engine: the threshold grid uses
//! a brute-force point-in-circle ∧ `temp > 45` matcher, and the district
//! leg runs one [`CompositeDetector`] per district over the time-ordered
//! stream.

use rand::Rng;
use stem_cep::{CompositeDetector, ConsumptionMode, Pattern};
use stem_core::{
    dsl, Attributes, CcuId, ConditionExpr, ConditionObserver, EventDefinition, EventId,
    EventInstance, Layer, MoteId, ObserverId, SeqNo,
};
use stem_engine::{EventSink, Subscription};
use stem_spatial::{Circle, Field, Point, Rect, SpatialExtent};
use stem_temporal::{Duration, TimePoint};

/// Side of the square world, in metres.
pub const WORLD: f64 = 1_000.0;
/// Motes emitting the synthetic stream.
pub const MOTES: u64 = 64;
/// Instances per ingest chunk and per handoff batch.
pub const BATCH: usize = 256;
/// Reorder slack, in ticks; the stream's disorder stays below it.
pub const SLACK: u64 = 16;
/// Circles per side of the threshold grid (20 × 20 = 400 subscriptions).
pub const GRID: usize = 20;
/// Districts per side of the tenant grid (12 × 12 = 144 districts).
pub const DISTRICTS: usize = 12;
/// Tenants subscribed to each district's composite event.
pub const TENANTS: usize = 700;
/// Pattern horizon of the composite event, in ticks.
pub const HORIZON: u64 = 2_000;
/// The per-instance condition of the threshold grid.
pub const THRESHOLD: &str = "x.temp > 45";
/// The composite "hot-area" condition over a matched pair.
pub const HOT_AREA: &str = "dist(loc(a), loc(b)) < 40 and a.temp > 70 and b.temp > 70";

/// The world rectangle.
pub fn bounds() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(WORLD, WORLD))
}

/// The 64-mote synthetic stream: instance `i` has sequence `i`, a
/// generation time `2i + U[0, 8)` (bounded disorder), a uniform
/// location, and a uniform temperature in `[10, 80)`.
pub fn stream(seed: u64, n: usize) -> Vec<EventInstance> {
    let mut rng = stem_des::stream(seed, 1);
    (0..n as u64)
        .map(|i| {
            let t = 2 * i + rng.gen_range(0u64..8);
            let x = rng.gen_range(0.0..WORLD);
            let y = rng.gen_range(0.0..WORLD);
            let temp = rng.gen_range(10.0..80.0);
            EventInstance::builder(
                ObserverId::Mote(MoteId::new((i % MOTES) as u32)),
                EventId::new("reading"),
                Layer::Sensor,
            )
            .seq(SeqNo::new(i))
            .generated(TimePoint::new(t), Point::new(x, y))
            .attributes(Attributes::new().with("temp", temp))
            .build()
        })
        .collect()
}

/// Stream indices in the order a reorder buffer releases them: by
/// generation time, ties in arrival order.
pub fn release_order(stream: &[EventInstance]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..stream.len() as u32).collect();
    order.sort_by_key(|&i| stream[i as usize].generation_time());
    order
}

/// For every generation time, the last stream index carrying it
/// (`u32::MAX` where none does): a derived instance is stamped with the
/// generation time of the constituent that completed it.
pub fn last_index_by_time(stream: &[EventInstance]) -> Vec<u32> {
    let max_t = stream
        .iter()
        .map(|i| i.generation_time().ticks())
        .max()
        .unwrap_or(0);
    let mut out = vec![u32::MAX; max_t as usize + 1];
    for (i, inst) in stream.iter().enumerate() {
        out[inst.generation_time().ticks() as usize] = i as u32;
    }
    out
}

fn circle(c: usize) -> (Point, f64) {
    let step = WORLD / GRID as f64;
    let (gx, gy) = (c % GRID, c / GRID);
    (
        Point::new((gx as f64 + 0.5) * step, (gy as f64 + 0.5) * step),
        step * 0.3,
    )
}

/// Registers the 400 circular `x.temp > 45` subscriptions, in id order
/// (subscription `c` watches circle `c`).
pub fn subscribe_circles(
    mut subscribe: impl FnMut(Subscription),
    mut sink: impl FnMut() -> Box<dyn EventSink>,
) {
    let condition = dsl::parse(THRESHOLD).expect("threshold condition parses");
    for c in 0..GRID * GRID {
        let (center, radius) = circle(c);
        subscribe(
            Subscription::new(
                format!("hot-{c}"),
                SpatialExtent::field(Field::circle(Circle::new(center, radius))),
                sink(),
            )
            .for_event("reading")
            .when(condition.clone()),
        );
    }
}

fn district_rect(d: usize) -> Rect {
    let step = WORLD / DISTRICTS as f64;
    let (gx, gy) = ((d % DISTRICTS) as f64, (d / DISTRICTS) as f64);
    Rect::new(
        Point::new(gx * step, gy * step),
        Point::new((gx + 1.0) * step, (gy + 1.0) * step),
    )
}

fn hot_area_condition() -> ConditionExpr {
    dsl::parse(HOT_AREA).expect("hot-area condition parses")
}

fn hot_area_pattern() -> Pattern {
    Pattern::atom("a", "reading").then(Pattern::atom("b", "reading"))
}

fn district_observer(d: usize) -> ConditionObserver {
    ConditionObserver::new(
        ObserverId::Ccu(CcuId::new(d as u32)),
        district_rect(d).center(),
        1.0,
    )
}

fn district_name(d: usize) -> String {
    format!("hot-area-{d}")
}

/// Registers `tenants` subscriptions to each district's composite
/// event, district-major (subscription `d * tenants + t`). Tenants of a
/// district differ only in their sink, so they share one plan.
pub fn subscribe_districts(
    tenants: usize,
    mut subscribe: impl FnMut(Subscription),
    mut sink: impl FnMut() -> Box<dyn EventSink>,
) {
    let condition = hot_area_condition();
    let pattern = hot_area_pattern();
    for d in 0..DISTRICTS * DISTRICTS {
        let rect = district_rect(d);
        for _ in 0..tenants {
            subscribe(
                Subscription::new(
                    district_name(d),
                    SpatialExtent::field(Field::rect(rect)),
                    sink(),
                )
                .for_event("reading")
                .when(condition.clone())
                .matching(
                    pattern.clone(),
                    ConsumptionMode::Chronicle,
                    Some(Duration::new(HORIZON)),
                )
                .observed_by(district_observer(d))
                .homed_near(rect.center()),
            );
        }
    }
}

/// One per-district composite detector, built as the engine builds a
/// pattern subscription's detector without a definition override.
pub fn district_detectors() -> Vec<CompositeDetector> {
    (0..DISTRICTS * DISTRICTS)
        .map(|d| {
            CompositeDetector::new(
                EventDefinition::new(district_name(d), Layer::Cyber, hot_area_condition()),
                hot_area_pattern(),
                ConsumptionMode::Chronicle,
                Some(Duration::new(HORIZON)),
                district_observer(d),
            )
        })
        .collect()
}

/// The district whose rectangle holds `p`.
pub fn district_of(p: Point) -> usize {
    let step = WORLD / DISTRICTS as f64;
    let cell = |v: f64| ((v / step) as usize).min(DISTRICTS - 1);
    cell(p.y) * DISTRICTS + cell(p.x)
}

/// SplitMix64 finalizer: the per-delivery hash the digests sum.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a raw `Match` delivery: its sequence number.
pub fn match_hash(seq: u64) -> u64 {
    mix(seq.wrapping_add(1))
}

/// Hash of a `Derived` delivery over the fields the observer generates.
pub fn derived_hash(inst: &EventInstance) -> u64 {
    let loc = inst.generation_location();
    let est = inst.estimated_location().representative();
    let mut h = mix(inst.generation_time().ticks());
    for v in [
        inst.seq().raw(),
        loc.x.to_bits(),
        loc.y.to_bits(),
        est.x.to_bits(),
        est.y.to_bits(),
        inst.attributes().len() as u64,
    ] {
        h = mix(h ^ v);
    }
    for b in inst.event().as_str().bytes() {
        h = mix(h ^ u64::from(b));
    }
    h
}

/// The deliveries a workload must produce: for each group (a circle,
/// or a district whose every tenant receives the same deliveries), the
/// delivery hashes in delivery order.
pub struct Expected {
    /// Subscriptions per group (1 for circles, the tenant count for
    /// districts); subscription `s` belongs to group `s / tenants`.
    pub tenants: usize,
    /// Per group, the hash of each delivery in order.
    pub groups: Vec<Vec<u64>>,
}

impl Expected {
    /// Subscriptions registered.
    pub fn subscriptions(&self) -> usize {
        self.groups.len() * self.tenants
    }

    /// Total deliveries across every subscription.
    pub fn deliveries(&self) -> u64 {
        self.groups.iter().map(|g| g.len() as u64).sum::<u64>() * self.tenants as u64
    }

    /// The expected deliveries of subscription `sub`.
    pub fn of(&self, sub: usize) -> &[u64] {
        &self.groups[sub / self.tenants]
    }
}

/// Sums delivery hashes into an order-independent digest.
pub fn digest(hashes: &[u64]) -> u64 {
    hashes.iter().fold(0u64, |acc, &h| acc.wrapping_add(h))
}

/// Brute-force reference of the circle grid: every instance hotter
/// than 45 inside any circle, in release order.
pub fn circles_expected(stream: &[EventInstance], order: &[u32]) -> Expected {
    let circles: Vec<(Point, f64)> = (0..GRID * GRID).map(circle).collect();
    let mut groups = vec![Vec::new(); circles.len()];
    for &i in order {
        let inst = &stream[i as usize];
        let hot = inst
            .attributes()
            .get_f64("temp")
            .is_some_and(|temp| temp > 45.0);
        if !hot {
            continue;
        }
        let p = inst.generation_location();
        for (c, &(center, radius)) in circles.iter().enumerate() {
            let (dx, dy) = (p.x - center.x, p.y - center.y);
            if dx * dx + dy * dy <= radius * radius {
                groups[c].push(match_hash(inst.seq().raw()));
            }
        }
    }
    Expected { tenants: 1, groups }
}

/// Per-district reference of the composite event: each district's
/// detector over its own instances in release order.
pub fn districts_expected(stream: &[EventInstance], order: &[u32], tenants: usize) -> Expected {
    let mut detectors = district_detectors();
    let mut groups = vec![Vec::new(); detectors.len()];
    for &i in order {
        let inst = &stream[i as usize];
        let d = district_of(inst.generation_location());
        let derived = detectors[d]
            .process(inst)
            .expect("hot-area condition binds a and b");
        groups[d].extend(derived.iter().map(derived_hash));
    }
    Expected { tenants, groups }
}
