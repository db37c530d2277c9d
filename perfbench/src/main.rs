//! The stem-engine benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir> [--source <id>]
//! ```
//!
//! With `--trace 0` it runs the workload's rounds with telemetry off
//! and prints the end-to-end metrics; with `--trace 1` it prints the
//! per-layer metrics: the benchmark's spans around public engine calls,
//! the engine's own counters, a stage ledger from a telemetry-on arm
//! paired with a telemetry-off arm, and single-layer replays. Every
//! engine run's deliveries are checked against a reference computed
//! without the engine; the last stdout line is the JSON result, and the
//! exit code is non-zero if any check failed.

mod alloc;
mod inputs;
mod layers;
mod rounds;
mod sink;
mod stats;

use inputs::{
    circles_expected, districts_expected, last_index_by_time, release_order, stream, TENANTS,
};
use rounds::{Arm, Kind, Round, Setup};
use stats::{median, ratio, weighted_quantile, Metrics};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stem_obs::Stage;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work, mut source) =
        (None, None, None, None, None, String::from("unknown"));
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work: work.ok_or("--work is required")?,
        source,
    })
}

/// Totals over every engine run of the invocation.
#[derive(Default)]
struct Tallies {
    attempted: u64,
    failed: u64,
}

impl Tallies {
    fn add(&mut self, round: &Round) {
        self.attempted += round.instances;
        self.failed += round.failed;
    }
}

/// Weighted latency quantiles of `rounds` pooled, in ms, and the
/// sample count.
fn latency(rounds: &[&Round]) -> (f64, f64, u64) {
    let mut pooled: Vec<(u64, u64)> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let samples = pooled.iter().map(|s| s.1).sum();
    let p50 = weighted_quantile(&mut pooled, 0.50) as f64 / 1e6;
    let p99 = weighted_quantile(&mut pooled, 0.99) as f64 / 1e6;
    (p50, p99, samples)
}

fn describe(label: &str, r: &Round) {
    let (p50, p99, samples) = latency(&[r]);
    println!(
        "{label}: {} instances, {:.0} inst/s, setup {:.4} s, notify p50 {:.3} ms p99 {:.3} ms \
         over {} samples, heap peak {:.2} MB, failed {}",
        r.instances,
        ratio(r.instances as f64, r.window_s),
        r.setup_s,
        p50,
        p99,
        samples,
        r.heap_peak_b as f64 / 1e6,
        r.failed,
    );
    if let Some(rec) = &r.recovery {
        println!(
            "  recovery {:.4} s (recover {:.4}, resume {:.4}, re-feed {:.4}), {} tail records, \
             {} snapshots loaded, {} bytes on disk at the crash",
            rec.total_s,
            rec.recover_s,
            rec.resume_s,
            rec.refeed_s,
            rec.stats.records,
            rec.stats.snapshots_loaded,
            rec.disk_bytes,
        );
    }
}

/// Runs rounds of `arm` until `budget` has passed, at least `min` of
/// them.
fn rounds_for(
    setup: &Setup,
    kind: Kind,
    arm: Arm,
    budget: Duration,
    min: usize,
    next_id: &mut usize,
    tallies: &mut Tallies,
) -> Vec<Round> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        let round = rounds::run(setup, kind, arm, *next_id);
        *next_id += 1;
        tallies.add(&round);
        describe(&format!("round {}", *next_id), &round);
        out.push(round);
    }
    out
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(setup: &Setup, kind: Kind, seconds: u64, tallies: &mut Tallies) -> Metrics {
    let mut id = 0;
    // One warm-up round: allocator pools, page faults, lazy set-up.
    let _ = rounds_for(setup, kind, Arm::REAL, Duration::ZERO, 1, &mut id, tallies);
    let rounds = rounds_for(
        setup,
        kind,
        Arm::REAL,
        Duration::from_secs(seconds),
        3,
        &mut id,
        tallies,
    );
    let mut m = Metrics::default();
    m.put(
        "throughput_ips",
        med(&rounds, |r| ratio(r.instances as f64, r.window_s)),
        "1/s",
    );
    let (p50, p99, samples) = latency(&rounds.iter().collect::<Vec<_>>());
    println!(
        "notify latency: p50 {p50:.3} ms, p99 {p99:.3} ms over {samples} samples pooled over {} \
         rounds",
        rounds.len()
    );
    m.put("setup_s", med(&rounds, |r| r.setup_s), "s");
    m.put(
        "heap_per_sub_b",
        med(&rounds, |r| {
            ratio(r.heap_setup_b as f64, r.subscriptions as f64)
        }),
        "B",
    );
    m
}

/// The worker-side stages (on the shard thread in threaded mode).
const WORKER_STAGES: [Stage; 6] = [
    Stage::ReorderRelease,
    Stage::ScopePrune,
    Stage::Evaluate,
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::SnapshotCut,
];

/// The stages the ledger reports, with their metric names.
const LEDGER_STAGES: [(Stage, &str); 10] = [
    (Stage::BatchBuild, "stage.batch_build_ns"),
    (Stage::Route, "stage.route_ns"),
    (Stage::Enqueue, "stage.enqueue_ns"),
    (Stage::ReorderRelease, "stage.reorder_release_ns"),
    (Stage::ScopePrune, "stage.scope_prune_ns"),
    (Stage::Evaluate, "stage.evaluate_ns"),
    (Stage::WalAppend, "stage.wal_append_ns"),
    (Stage::WalFsync, "stage.wal_fsync_ns"),
    (Stage::SnapshotCut, "stage.snapshot_cut_ns"),
    (Stage::BarrierWait, "stage.barrier_wait_ns"),
];

/// The stage ledger of one telemetry-on round.
struct Ledger {
    /// Self ns per instance of each of [`LEDGER_STAGES`].
    stage_ns: Vec<f64>,
    /// Share of the driver's time inside engine calls that no top-level
    /// span accounts for.
    unattributed: f64,
    /// Worker-stage time over the round's wall time.
    worker_busy: f64,
}

fn ledger(round: &Round) -> Ledger {
    let obs = round
        .report
        .as_ref()
        .and_then(|r| r.obs.as_ref())
        .expect("the ledger arm runs with telemetry on");
    let sum = |s: Stage| obs.merged.stage(s).sum() as f64;
    let n = round.instances as f64;
    // In threaded mode every span is a leaf except `ingest`, which holds
    // the chunk's `route` and the `enqueue` of batches it filled. The
    // driver's top-level time is chunk build and reset, `ingest`, and
    // the benchmark's own spans around the calls made outside
    // `ingest_all`.
    let covered = (sum(Stage::BatchBuild) + sum(Stage::BatchReset) + sum(Stage::Ingest)) * 1e-9
        + round.flush_s
        + round.checkpoint_s
        + round.finish_s;
    let worker: f64 = WORKER_STAGES.iter().map(|&s| sum(s)).sum::<f64>() * 1e-9;
    Ledger {
        stage_ns: LEDGER_STAGES.iter().map(|&(s, _)| sum(s) / n).collect(),
        unattributed: 1.0 - ratio(covered, round.busy_s()),
        worker_busy: ratio(worker, round.window_s),
    }
}

/// Telemetry-off / telemetry-on pairs of `kind`'s ledger arm,
/// alternating which goes first, until `budget` has passed (at least
/// one pair): each pair's ledger with its telemetry-on round, and each
/// pair's telemetry overhead.
fn ledger_pairs(
    setup: &Setup,
    kind: Kind,
    budget: Duration,
    id: &mut usize,
    tallies: &mut Tallies,
) -> (Vec<(Ledger, Round)>, Vec<f64>) {
    let arm = |telemetry| Arm {
        telemetry,
        replica: true,
    };
    let mut out = Vec::new();
    let mut overheads = Vec::new();
    let start = Instant::now();
    while out.is_empty() || start.elapsed() < budget {
        let on_first = out.len() % 2 == 1;
        let mut pair = Vec::new();
        for telemetry in [on_first, !on_first] {
            pair.extend(rounds_for(
                setup,
                kind,
                arm(telemetry),
                Duration::ZERO,
                1,
                id,
                tallies,
            ));
        }
        let traced = pair.remove(usize::from(!on_first));
        let untraced = pair.remove(0);
        overheads.push(ratio(traced.busy_s(), untraced.busy_s()) - 1.0);
        out.push((ledger(&traced), traced));
    }
    (out, overheads)
}

/// Stages the district leg stands in for on live-feed, whose own
/// plans are the threshold grid's.
const PLAN_STAGES: [Stage; 3] = [Stage::Route, Stage::ScopePrune, Stage::Evaluate];

/// Stages only the durability leg exercises (its checkpoints are the
/// only barrier any run crosses).
const DURABLE_STAGES: [Stage; 4] = [
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::SnapshotCut,
    Stage::BarrierWait,
];

fn per_layer(setup: &Setup, kind: Kind, seed: u64, seconds: u64, tallies: &mut Tallies) -> Metrics {
    let share = |twentieths: u32| Duration::from_secs(seconds) * twentieths / 20;
    let mut id = 0;
    let real = rounds_for(setup, kind, Arm::REAL, share(5), 2, &mut id, tallies);
    let (ledgers, overheads) = ledger_pairs(setup, kind, share(5), &mut id, tallies);
    // Each traced run carries one leg that is not a workload of its own
    // (see `Kind`): dense-threshold the durability leg, live-feed the
    // district leg, each with as-specified rounds and ledger pairs.
    let leg_kind = match kind {
        Kind::Dense => Kind::Durable,
        _ => Kind::District,
    };
    let district_setup;
    let leg_setup = if leg_kind == Kind::District {
        district_setup = setup_for(Kind::District, seed, &setup.work);
        &district_setup
    } else {
        setup
    };
    let leg = rounds_for(
        leg_setup,
        leg_kind,
        Arm::REAL,
        share(4),
        2,
        &mut id,
        tallies,
    );
    let (leg_ledgers, _) = ledger_pairs(leg_setup, leg_kind, share(4), &mut id, tallies);
    let layers = layers::replay(&setup.stream, &setup.work.join("replay"), share(2));
    let (crashes, wal_ledgers) = if leg_kind == Kind::Durable {
        (&leg[..], &leg_ledgers[..])
    } else {
        (&[][..], &[][..])
    };
    // The district leg stands in for plan, router and evaluation work.
    let (planned, plan_ledgers) = if leg_kind == Kind::District {
        (&leg[..], &leg_ledgers[..])
    } else {
        (&real[..], &ledgers[..])
    };

    let mut m = Metrics::default();
    m.put(
        "engine.subscribe_us",
        med(planned, |r| {
            ratio(r.subscribe_s, r.subscriptions as f64) * 1e6
        }),
        "us",
    );
    m.put(
        "engine.ingest_busy_frac",
        med(&real, |r| ratio(r.ingest_s, r.window_s)),
        "frac",
    );
    m.put("engine.finish_ms", med(&real, |r| r.finish_s * 1e3), "ms");
    m.put(
        "engine.flush_us",
        med(&real, |r| ratio(r.flush_s, r.flush_calls as f64) * 1e6),
        "us",
    );
    let rec =
        |f: fn(&rounds::RecoveryRun) -> f64| med(crashes, |r| r.recovery.as_ref().map_or(0.0, f));
    m.put("engine.recover_ms", rec(|r| r.recover_s * 1e3), "ms");
    m.put("engine.resume_ms", rec(|r| r.resume_s * 1e3), "ms");
    m.put("engine.refeed_ms", rec(|r| r.refeed_s * 1e3), "ms");
    m.put(
        "driver.late_max_ms",
        med(&real, |r| r.late_max_s * 1e3),
        "ms",
    );
    // Latency samples pool across rounds: a per-round tail percentile
    // flips with where the worker's wakeups happen to fall, the pooled
    // distribution does not.
    let (p50, p99, samples) = latency(&real.iter().collect::<Vec<_>>());
    m.put("notify.p50_ms", p50, "ms");
    m.put("notify.p99_ms", p99, "ms");
    m.put("notify.samples", samples as f64, "count");

    let ledger_med = |ledgers: &[(Ledger, Round)], f: &dyn Fn(&Ledger) -> f64| {
        median(&ledgers.iter().map(|(l, _)| f(l)).collect::<Vec<_>>())
    };
    for (i, &(stage, name)) in LEDGER_STAGES.iter().enumerate() {
        let source = if DURABLE_STAGES.contains(&stage) && !wal_ledgers.is_empty() {
            wal_ledgers
        } else if PLAN_STAGES.contains(&stage) {
            plan_ledgers
        } else {
            &ledgers
        };
        m.put(name, ledger_med(source, &|l| l.stage_ns[i]), "ns/inst");
    }
    m.put(
        "stage.unattributed_frac",
        ledger_med(&ledgers, &|l| l.unattributed),
        "frac",
    );
    m.put(
        "stage.worker_busy_frac",
        ledger_med(&ledgers, &|l| l.worker_busy),
        "frac",
    );
    m.put("obs.overhead_frac", median(&overheads), "frac");

    // Engine counters are exact. The durability leg's first engine
    // crashes before it can report, so its log and snapshot counters
    // come from its uninterrupted ledger arm.
    let counted = planned.last().expect("at least two rounds");
    let counters = counted.report.as_ref().expect("finished rounds report");
    let n = counted.instances as f64;
    let own = real.last().expect("at least two rounds");
    let logged = wal_ledgers.last().map_or(own, |(_, r)| r);
    let logged_report = logged.report.as_ref().expect("finished rounds report");
    let wal = logged_report.total_wal();
    let snap = logged_report.total_snap();
    m.put(
        "router.fanout_per_inst",
        ratio(counters.router.fanout as f64, n),
        "ratio",
    );
    m.put(
        "router.precision_skipped",
        counters.router.precision_skipped as f64,
        "count",
    );
    m.put(
        "router.bvh_nodes_per_inst",
        ratio(counters.router.bvh_nodes_visited as f64, n),
        "ratio",
    );
    m.put(
        "worker.scope_skipped_per_inst",
        ratio(counters.total_scope_skipped() as f64, n),
        "ratio",
    );
    m.put(
        "worker.late_dropped",
        own.report
            .as_ref()
            .map_or(0.0, |r| r.total_late_dropped() as f64),
        "count",
    );
    m.put("plans.active", counters.plans_active as f64, "count");
    m.put("plans.dedupe_ratio", counters.dedupe_ratio(), "ratio");
    m.put(
        "notify.deliveries_per_inst",
        ratio(counters.total_notifications() as f64, n),
        "ratio",
    );
    m.put(
        "wal.bytes_per_inst",
        ratio(wal.bytes_appended as f64, logged.instances as f64),
        "B",
    );
    m.put("wal.fsyncs", wal.fsyncs as f64, "count");
    m.put("wal.disk_mb", rec(|r| r.disk_bytes as f64 / 1e6), "MB");
    m.put("snap.bytes", snap.snapshot_bytes as f64, "B");
    m.put("snap.written", snap.snapshots_written as f64, "count");
    m.put("recovery.total_ms", rec(|r| r.total_s * 1e3), "ms");
    m.put(
        "recovery.records_replayed",
        rec(|r| r.stats.records as f64),
        "count",
    );
    m.put(
        "recovery.snapshots_loaded",
        rec(|r| r.stats.snapshots_loaded as f64),
        "count",
    );

    m.put("core.columnar_push_ns", layers.columnar_push_ns, "ns/op");
    m.put("core.codec_encode_ns", layers.codec_encode_ns, "ns/op");
    m.put("core.codec_decode_ns", layers.codec_decode_ns, "ns/op");
    m.put("cep.reorder_push_ns", layers.reorder_push_ns, "ns/op");
    m.put("cep.pattern_ns", layers.pattern_ns, "ns/op");
    m.put("wal.append_ns", layers.wal_append_ns, "ns/op");
    m.put("wal.read_ns", layers.wal_read_ns, "ns/op");

    m.put(
        "alloc.per_inst",
        med(&real, |r| ratio(r.allocs as f64, r.instances as f64)),
        "count",
    );
    m.put(
        "alloc.peak_heap_mb",
        med(&real, |r| r.heap_peak_b as f64 / 1e6),
        "MB",
    );
    m.put(
        "alloc.bytes_per_inst",
        med(&real, |r| ratio(r.alloc_bytes as f64, r.instances as f64)),
        "B",
    );
    m
}

/// Generates `kind`'s seeded inputs and their reference deliveries.
fn setup_for(kind: Kind, seed: u64, work: &Path) -> Setup {
    let stream = stream(seed, kind.instances());
    let order = release_order(&stream);
    let expected = match kind {
        Kind::District => districts_expected(&stream, &order, TENANTS),
        _ => circles_expected(&stream, &order),
    };
    Setup {
        key_by_time: Arc::new(last_index_by_time(&stream)),
        stream,
        expected,
        work: work.to_path_buf(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let kind = args.workload;
    let work = args.work.join(format!("{}", std::process::id()));
    let setup = setup_for(kind, args.seed, &work);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "context: workload {kind:?}, seed {}, seconds {}, trace {}, nproc {nproc}, source {}, \
         profile {}, {} instances per round, {} subscriptions, {} reference deliveries \
         (inputs ready in {:.2} s)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.source,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        setup.stream.len(),
        setup.expected.subscriptions(),
        setup.expected.deliveries(),
        started.elapsed().as_secs_f64(),
    );
    let mut tallies = Tallies::default();
    let metrics = if args.trace {
        per_layer(&setup, kind, args.seed, args.seconds, &mut tallies)
    } else {
        end_to_end(&setup, kind, args.seconds, &mut tallies)
    };
    let _ = std::fs::remove_dir_all(&work);
    metrics.print_table();
    let correct = tallies.failed == 0;
    println!(
        "{}",
        metrics.result_line(correct, tallies.attempted, tallies.failed)
    );
    if !correct {
        eprintln!(
            "perfbench: {} failures against the reference",
            tallies.failed
        );
        std::process::exit(1);
    }
}
