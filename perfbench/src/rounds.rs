//! One measured engine run ("round") of a workload, through the
//! engine's public API only. The benchmark's own spans around each
//! public call give the `engine.*` numbers; the engine's telemetry, when
//! on, gives the stage histograms.

use crate::alloc;
use crate::inputs::{
    bounds, subscribe_circles, subscribe_districts, Expected, BATCH, SLACK, TENANTS,
};
use crate::sink::Tally;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};
use stem_core::EventInstance;
use stem_engine::{
    CheckpointPolicy, Durability, Engine, EngineConfig, EngineReport, FsyncPolicy, RecoveryStats,
    Subscription, TelemetryPolicy, TracePolicy,
};
use stem_temporal::Duration;

/// What a round runs: the two workloads, plus the legs their traced
/// runs add.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Closed loop, threaded, 1 shard, 400 circular threshold
    /// subscriptions, no WAL.
    Dense,
    /// The same stream and subscriptions fed open-loop at a fixed rate.
    Live,
    /// The dense stream and subscriptions journaled and checkpointed,
    /// deterministic, then crashed, recovered, resumed, and re-fed.
    /// Not a workload of its own: on a shared 2-vCPU guest its
    /// throughput and tail latency follow fsync stalls too closely to
    /// bound, so it is a per-layer leg of `dense-threshold`.
    Durable,
    /// 144 districts × 700 tenants of a composite pattern event,
    /// deterministic, 4 shards. Not a workload of its own: on a shared
    /// 2-vCPU guest its single-threaded run follows the host's speed
    /// swings too closely to bound, so it is a per-layer leg of
    /// `live-feed`.
    District,
}

/// Open-loop rate of `live-feed`, instances per second.
pub const LIVE_RATE: usize = 100_000;
/// Open-loop tick of `live-feed`.
pub const LIVE_TICK: WallDuration = WallDuration::from_millis(1);
/// Instances `live-feed` offers per 1 ms tick.
const LIVE_PER_TICK: usize = LIVE_RATE / 1_000;
/// Batches between checkpoints in the durability leg.
pub const CHECKPOINT_BATCHES: u64 = 64;

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "dense-threshold" => Some(Kind::Dense),
            "live-feed" => Some(Kind::Live),
            _ => None,
        }
    }

    /// Instances one round ingests.
    pub fn instances(self) -> usize {
        match self {
            Kind::Dense | Kind::Durable => 240_000,
            // 1.5 s of the open loop.
            Kind::Live => LIVE_RATE * 3 / 2,
            Kind::District => 60_000,
        }
    }

    /// Whether the workload runs inline on the caller's thread.
    pub fn deterministic(self) -> bool {
        matches!(self, Kind::Durable | Kind::District)
    }
}

/// How a round's engine is configured.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    /// Stage telemetry on (the traced run's ledger arm).
    pub telemetry: bool,
    /// Run the workload on a threaded 1-shard engine even where it is
    /// deterministic: deterministic telemetry counts virtual clock
    /// events, not nanoseconds, so stage times need a threaded engine.
    /// The durability leg then skips the crash and cuts the same
    /// checkpoints explicitly, so they can be timed from outside.
    pub replica: bool,
}

impl Arm {
    /// The workload exactly as specified, telemetry off.
    pub const REAL: Arm = Arm {
        telemetry: false,
        replica: false,
    };
}

/// Everything a workload's rounds share.
pub struct Setup {
    /// The seeded input stream.
    pub stream: Vec<EventInstance>,
    /// The reference deliveries.
    pub expected: Expected,
    /// Derived-delivery keys (see [`Tally`]).
    pub key_by_time: Arc<Vec<u32>>,
    /// Scratch directory inside the checkout for write-ahead logs.
    pub work: PathBuf,
}

/// What recovery cost in the durability leg.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// `Engine::recover` plus re-registering every subscription.
    pub recover_s: f64,
    /// `Recovery::resume`: snapshot restore and WAL tail replay.
    pub resume_s: f64,
    /// Re-feeding from `resume_from()` through `finish()` returning.
    pub refeed_s: f64,
    /// All of the above.
    pub total_s: f64,
    /// What recovery found on disk.
    pub stats: RecoveryStats,
    /// WAL plus snapshot bytes on disk at the crash.
    pub disk_bytes: u64,
}

/// One measured engine run.
pub struct Round {
    /// Instances offered.
    pub instances: u64,
    /// First ingest call to `finish()` returning (durability leg: to
    /// the pre-crash `flush()` returning).
    pub window_s: f64,
    /// `Engine::start` plus building and registering every
    /// subscription.
    pub setup_s: f64,
    /// Subscriptions registered.
    pub subscriptions: usize,
    /// Time inside `subscribe` calls.
    pub subscribe_s: f64,
    /// Live heap growth from before `Engine::start` to after the last
    /// `subscribe`, bytes.
    pub heap_setup_b: u64,
    /// Peak live heap above the pre-start level, bytes.
    pub heap_peak_b: u64,
    /// Allocations during the window.
    pub allocs: u64,
    /// Bytes allocated during the window.
    pub alloc_bytes: u64,
    /// Time inside `ingest_all` calls.
    pub ingest_s: f64,
    /// Time inside `flush` calls, and how many.
    pub flush_s: f64,
    /// `flush` calls made.
    pub flush_calls: u64,
    /// Time inside explicit `checkpoint` calls (replica only).
    pub checkpoint_s: f64,
    /// Time inside `finish`.
    pub finish_s: f64,
    /// How late the open-loop generator started its latest tick.
    pub late_max_s: f64,
    /// Notification latencies `(ns, deliveries)` (see
    /// [`Tally::latencies`]).
    pub latencies: Vec<(u64, u64)>,
    /// Late-dropped + backpressure-dropped instances + missing or
    /// extra deliveries.
    pub failed: u64,
    /// The engine's report (the resumed engine's in the durability leg).
    pub report: Option<EngineReport>,
    /// Recovery costs (durability leg, not replica).
    pub recovery: Option<RecoveryRun>,
}

impl Round {
    /// Time the driver spent inside engine calls during the window.
    pub fn busy_s(&self) -> f64 {
        self.ingest_s + self.flush_s + self.checkpoint_s + self.finish_s
    }
}

/// Feeds a slice to `ingest_all` and stamps the moment each chunk's
/// first instance is handed over: the instance's due time in a closed
/// loop.
struct Stamped<'a> {
    inner: std::slice::Iter<'a, EventInstance>,
    next: usize,
    epoch: Instant,
    stamps: &'a mut Vec<u64>,
}

impl<'a> Iterator for Stamped<'a> {
    type Item = &'a EventInstance;

    fn next(&mut self) -> Option<&'a EventInstance> {
        let item = self.inner.next()?;
        if self.next.is_multiple_of(BATCH) {
            self.stamps.push(nanos_since(self.epoch));
        }
        self.next += 1;
        Some(item)
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

fn config(kind: Kind, arm: Arm, wal: &Path) -> EngineConfig {
    let mut c = EngineConfig::new(bounds())
        .with_shards(1)
        .with_batch_size(BATCH)
        .with_queue_capacity(32)
        .with_watermark_slack(Duration::new(SLACK))
        .with_trace(TracePolicy::Off);
    if kind == Kind::Durable {
        c = c
            .with_wal_segment_bytes(256 << 10)
            .with_durability(Durability::Wal {
                dir: wal.to_path_buf(),
                fsync: FsyncPolicy::EveryN(256),
            })
            .with_checkpoint(if arm.replica {
                CheckpointPolicy::Never
            } else {
                CheckpointPolicy::EveryNBatches(CHECKPOINT_BATCHES)
            });
    }
    if kind == Kind::District && !arm.replica {
        c = c.with_shards(4);
    }
    if kind.deterministic() && !arm.replica {
        c = c.deterministic();
    }
    if arm.telemetry {
        // Histograms record every span; snapshots are cut only at
        // shutdown.
        c = c.with_telemetry(TelemetryPolicy::every_batches(u64::MAX));
    }
    c
}

fn register(kind: Kind, mut subscribe: impl FnMut(Subscription), tally: &Arc<Tally>) {
    match kind {
        Kind::District => subscribe_districts(TENANTS, &mut subscribe, || tally.sink()),
        _ => subscribe_circles(&mut subscribe, || tally.sink()),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Checks a crash → recover → resume run: per subscription, the
/// pre-crash deliveries are a prefix of the reference, the snapshot
/// floor lies within them, and the resumed deliveries are exactly the
/// reference past the floor. Returns the mismatched deliveries.
fn mismatched_resumed(
    expected: &Expected,
    before: &Tally,
    floors: &BTreeMap<u64, u64>,
    after: &Tally,
) -> u64 {
    use crate::inputs::digest;
    let mut mismatched = before.unexpected() + after.unexpected();
    for sub in 0..expected.subscriptions() {
        let want = expected.of(sub);
        let (pre, pre_digest) = before.of(sub);
        let (post, post_digest) = after.of(sub);
        let floor = floors.get(&(sub as u64)).copied().unwrap_or(0);
        let (pre, floor) = (pre as usize, floor as usize);
        let ok = pre <= want.len()
            && pre_digest == digest(&want[..pre])
            && floor <= pre
            && post as usize + floor == want.len()
            && post_digest == digest(&want[floor..]);
        if !ok {
            mismatched += post
                .abs_diff(want.len().saturating_sub(floor) as u64)
                .max(1);
        }
    }
    mismatched
}

/// Runs one round of `kind` over `setup`'s inputs under `arm`.
pub fn run(setup: &Setup, kind: Kind, arm: Arm, round_id: usize) -> Round {
    let stream = &setup.stream;
    let n = stream.len();
    let epoch = Instant::now();
    let subscriptions = setup.expected.subscriptions();
    let tally = Tally::new(epoch, subscriptions, n, Arc::clone(&setup.key_by_time));
    let mut stamps: Vec<u64> = Vec::with_capacity(n / BATCH + 2);
    let wal = setup.work.join(format!("wal-{round_id}"));
    let _ = std::fs::remove_dir_all(&wal);
    let config = config(kind, arm, &wal);
    let mut r = Round {
        instances: n as u64,
        window_s: 0.0,
        setup_s: 0.0,
        subscriptions,
        subscribe_s: 0.0,
        heap_setup_b: 0,
        heap_peak_b: 0,
        allocs: 0,
        alloc_bytes: 0,
        ingest_s: 0.0,
        flush_s: 0.0,
        flush_calls: 0,
        checkpoint_s: 0.0,
        finish_s: 0.0,
        late_max_s: 0.0,
        latencies: Vec::new(),
        failed: 0,
        report: None,
        recovery: None,
    };

    let base = alloc::reset_peak();
    let setup_start = Instant::now();
    let mut engine = Engine::start(config.clone());
    let mut subscribe_s = 0.0;
    register(
        kind,
        |sub| {
            timed(&mut subscribe_s, || engine.subscribe(sub));
        },
        &tally,
    );
    r.setup_s = setup_start.elapsed().as_secs_f64();
    r.subscribe_s = subscribe_s;
    r.heap_setup_b = alloc::counts().live.saturating_sub(base);

    let before = alloc::counts();
    let window = Instant::now();
    let mut live_origin = 0u64;
    let mut window_end = None;
    let outcome = match (kind, arm.replica) {
        (Kind::Live, _) => {
            live_origin = nanos_since(epoch);
            for (k, tick) in stream.chunks(LIVE_PER_TICK).enumerate() {
                let due = window + LIVE_TICK * k as u32;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                r.late_max_s = r
                    .late_max_s
                    .max(Instant::now().saturating_duration_since(due).as_secs_f64());
                timed(&mut r.ingest_s, || engine.ingest_all(tick));
                timed(&mut r.flush_s, || engine.flush());
                r.flush_calls += 1;
            }
            Outcome::Finished(timed(&mut r.finish_s, || engine.finish()))
        }
        (Kind::Durable, true) => {
            let segment = BATCH * CHECKPOINT_BATCHES as usize;
            for (k, part) in stream.chunks(segment).enumerate() {
                let stamped = Stamped {
                    inner: part.iter(),
                    next: k * segment,
                    epoch,
                    stamps: &mut stamps,
                };
                timed(&mut r.ingest_s, || engine.ingest_all(stamped));
                if part.len() == segment {
                    timed(&mut r.checkpoint_s, || engine.checkpoint());
                }
            }
            timed(&mut r.flush_s, || engine.flush());
            r.flush_calls += 1;
            Outcome::Finished(timed(&mut r.finish_s, || engine.finish()))
        }
        (Kind::Durable, false) => {
            let stamped = Stamped {
                inner: stream.iter(),
                next: 0,
                epoch,
                stamps: &mut stamps,
            };
            timed(&mut r.ingest_s, || engine.ingest_all(stamped));
            timed(&mut r.flush_s, || engine.flush());
            r.flush_calls += 1;
            window_end = Some((window.elapsed().as_secs_f64(), alloc::counts()));
            // The crash: the engine is dropped without `finish`, as a
            // killed process would leave its durable state.
            let disk_bytes = dir_bytes(&wal);
            drop(engine);
            let resumed = Tally::new(epoch, subscriptions, n, Arc::clone(&setup.key_by_time));
            let total = Instant::now();
            let mut recover_s = 0.0;
            let recovery = timed(&mut recover_s, || {
                let mut recovery = Engine::recover(config).expect("recover the crashed engine");
                register(
                    kind,
                    |sub| {
                        recovery.subscribe(sub);
                    },
                    &resumed,
                );
                recovery
            });
            let floors = recovery.snapshot_delivered();
            let stats = recovery.stats();
            let mut resume_s = 0.0;
            let mut engine = timed(&mut resume_s, || recovery.resume());
            let from = usize::try_from(engine.resume_from()).map_or(n, |f| f.min(n));
            let mut refeed_s = 0.0;
            timed(&mut refeed_s, || engine.ingest_all(&stream[from..]));
            let report = timed(&mut r.finish_s, || engine.finish());
            refeed_s += r.finish_s;
            r.recovery = Some(RecoveryRun {
                recover_s,
                resume_s,
                refeed_s,
                total_s: total.elapsed().as_secs_f64(),
                stats,
                disk_bytes,
            });
            Outcome::Resumed {
                report,
                floors,
                resumed,
            }
        }
        _ => {
            let stamped = Stamped {
                inner: stream.iter(),
                next: 0,
                epoch,
                stamps: &mut stamps,
            };
            timed(&mut r.ingest_s, || engine.ingest_all(stamped));
            timed(&mut r.flush_s, || engine.flush());
            r.flush_calls += 1;
            Outcome::Finished(timed(&mut r.finish_s, || engine.finish()))
        }
    };
    let (window_s, after) =
        window_end.unwrap_or_else(|| (window.elapsed().as_secs_f64(), alloc::counts()));
    r.window_s = window_s;
    r.allocs = after.allocs - before.allocs;
    r.alloc_bytes = after.bytes - before.bytes;

    r.latencies = match kind {
        Kind::Live => {
            let tick_ns = LIVE_TICK.as_nanos() as u64;
            tally.latencies(|i| live_origin + (i / LIVE_PER_TICK) as u64 * tick_ns)
        }
        _ => tally.latencies(|i| stamps[i / BATCH]),
    };

    let (report, mismatched) = match outcome {
        Outcome::Finished(report) => (report, tally.mismatched(&setup.expected)),
        Outcome::Resumed {
            report,
            floors,
            resumed,
        } => (
            report,
            mismatched_resumed(&setup.expected, &tally, &floors, &resumed),
        ),
    };
    r.failed = report.total_late_dropped() + report.router.dropped_backpressure + mismatched;
    r.report = Some(report);
    r.heap_peak_b = alloc::peak().saturating_sub(base);
    let _ = std::fs::remove_dir_all(&wal);
    r
}

/// How a round's engine ended.
enum Outcome {
    /// `finish()` returned this report.
    Finished(EngineReport),
    /// The engine crashed and a recovered engine finished: its report,
    /// the snapshot floors, and what it delivered.
    Resumed {
        report: EngineReport,
        floors: BTreeMap<u64, u64>,
        resumed: Arc<Tally>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{circles_expected, districts_expected, last_index_by_time, release_order};

    /// A scratch directory of the test's own: tests run in parallel.
    fn work(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-{test}-{}", std::process::id()))
    }

    /// The threshold grid's inputs and reference over `instances`.
    fn grid(instances: usize, test: &str) -> Setup {
        let stream = crate::inputs::stream(7, instances);
        let order = release_order(&stream);
        let expected = circles_expected(&stream, &order);
        Setup {
            key_by_time: Arc::new(last_index_by_time(&stream)),
            stream,
            expected,
            work: work(test),
        }
    }

    /// Drops the last expected delivery of the first group that has one.
    fn drop_one(setup: &mut Setup) {
        let group = setup
            .expected
            .groups
            .iter_mut()
            .find(|g| !g.is_empty())
            .expect("the reference delivers something");
        group.pop();
    }

    #[test]
    fn threshold_grid_matches_the_reference_and_a_missing_delivery_fails() {
        let mut setup = grid(4_096, "grid");
        assert_eq!(run(&setup, Kind::Dense, Arm::REAL, 0).failed, 0);
        drop_one(&mut setup);
        assert!(run(&setup, Kind::Dense, Arm::REAL, 1).failed > 0);
    }

    #[test]
    fn crash_and_resume_deliver_exactly_once_and_a_missing_delivery_fails() {
        // Enough batches for several checkpoints, so the floors are used.
        let mut setup = grid(40_000, "crash");
        let round = run(&setup, Kind::Durable, Arm::REAL, 0);
        assert_eq!(round.failed, 0);
        let recovery = round.recovery.expect("the durability leg recovers");
        assert_eq!(recovery.stats.snapshots_loaded, 1);
        drop_one(&mut setup);
        assert!(run(&setup, Kind::Durable, Arm::REAL, 1).failed > 0);
        let _ = std::fs::remove_dir_all(&setup.work);
    }

    #[test]
    fn district_pattern_matches_the_per_district_detectors() {
        let stream = crate::inputs::stream(7, 8_000);
        let order = release_order(&stream);
        let tenants = districts_expected(&stream, &order, TENANTS);
        assert!(tenants.deliveries() > 0, "the hot-area pattern fires");
        // The round registers every tenant; the check covers them all.
        let setup = Setup {
            key_by_time: Arc::new(last_index_by_time(&stream)),
            stream,
            expected: tenants,
            work: work("district"),
        };
        assert_eq!(run(&setup, Kind::District, Arm::REAL, 0).failed, 0);
    }
}
