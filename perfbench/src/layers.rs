//! Single-thread replays of single layers on the workload's own inputs,
//! timed outside the engine: the columnar batch, the reorder buffer,
//! the instance codec, the write-ahead log, and the composite detector.
//! Each replay also checks what it computed.

use crate::inputs::{district_detectors, district_of, release_order, BATCH, SLACK};
use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration as WallDuration, Instant};
use stem_cep::ReorderBuffer;
use stem_core::codec::{decode_instance, encode_instance};
use stem_core::{ColumnarBatch, EventInstance};
use stem_temporal::{Duration, TimePoint};
use stem_wal::{read_shard, FsyncPolicy, ShardWal, WalRecord};

/// Instances each replay runs over (a prefix of the workload stream).
pub const REPLAY_INSTANCES: usize = 32_768;

/// Median ns per operation of each layer replay.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `ColumnarBatch::push` (plus one `reset` per chunk), per instance.
    pub columnar_push_ns: f64,
    /// `ReorderBuffer::push_at` (plus the final flush), per instance.
    pub reorder_push_ns: f64,
    /// `encode_instance`, per instance.
    pub codec_encode_ns: f64,
    /// `decode_instance`, per instance.
    pub codec_decode_ns: f64,
    /// `ShardWal::append_deferred` with a `commit_appends` per batch,
    /// per record.
    pub wal_append_ns: f64,
    /// `stem_wal::read_shard`, per record.
    pub wal_read_ns: f64,
    /// `CompositeDetector::process` of the district pattern, per
    /// instance.
    pub pattern_ns: f64,
}

fn per_op(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn columnar(stream: &[EventInstance]) -> f64 {
    let mut batch = ColumnarBatch::with_capacity(BATCH);
    let start = Instant::now();
    for chunk in stream.chunks(BATCH) {
        for inst in chunk {
            batch.push(inst);
        }
        black_box(&batch);
        batch.reset();
    }
    per_op(start, stream.len())
}

fn reorder(stream: &[EventInstance]) -> f64 {
    let mut buffer = ReorderBuffer::<u32>::new(Duration::new(SLACK));
    let mut released = 0;
    let start = Instant::now();
    for (i, inst) in stream.iter().enumerate() {
        released += buffer.push_at(inst.generation_time(), i as u32).len();
    }
    released += buffer.flush().len();
    let ns = per_op(start, stream.len());
    assert_eq!(released, stream.len(), "the reorder buffer loses nothing");
    ns
}

fn codec(stream: &[EventInstance], buf: &mut Vec<u8>) -> (f64, f64) {
    buf.clear();
    let start = Instant::now();
    for inst in stream {
        encode_instance(inst, buf);
    }
    let encode = per_op(start, stream.len());
    let mut bytes = &buf[..];
    let mut decoded = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for _ in stream {
        decoded.push(decode_instance(&mut bytes).expect("decode what was encoded"));
    }
    let decode = per_op(start, stream.len());
    assert!(bytes.is_empty(), "every encoded byte is decoded");
    assert!(decoded.iter().eq(stream.iter()), "the codec round-trips");
    (encode, decode)
}

fn wal(records: &[WalRecord], dir: &Path) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut log = ShardWal::open(dir, 0, 256 << 10, FsyncPolicy::EveryN(256)).expect("open wal");
    let start = Instant::now();
    for chunk in records.chunks(BATCH) {
        for record in chunk {
            log.append_deferred(record).expect("append");
        }
        log.commit_appends().expect("commit");
    }
    log.sync().expect("sync");
    let append = per_op(start, records.len());
    drop(log);
    let start = Instant::now();
    let recovered = read_shard(dir, 0, false).expect("read back the log");
    let read = per_op(start, records.len());
    assert!(
        recovered.records.as_slice() == records,
        "the log reads back what was appended"
    );
    let _ = std::fs::remove_dir_all(dir);
    (append, read)
}

fn pattern(stream: &[EventInstance], order: &[u32]) -> f64 {
    let mut detectors = district_detectors();
    let start = Instant::now();
    let mut derived = 0;
    for &i in order {
        let inst = &stream[i as usize];
        derived += detectors[district_of(inst.generation_location())]
            .process(inst)
            .expect("hot-area condition binds a and b")
            .len();
    }
    black_box(derived);
    per_op(start, order.len())
}

/// Runs every replay round-robin over a prefix of `stream` until
/// `budget` is spent (at least three times each) and returns the
/// medians. `dir` is scratch space for the log replay.
pub fn replay(stream: &[EventInstance], dir: &Path, budget: WallDuration) -> LayerTimes {
    let prefix = &stream[..stream.len().min(REPLAY_INSTANCES)];
    let order = release_order(prefix);
    let mut high_water: Option<TimePoint> = None;
    let records: Vec<WalRecord> = prefix
        .iter()
        .enumerate()
        .map(|(seq, inst)| {
            let record = WalRecord::Instance {
                seq: seq as u64,
                eval_at: None,
                prefix_high_water: high_water,
                instance: inst.clone(),
            };
            high_water = high_water.max(Some(inst.generation_time()));
            record
        })
        .collect();
    let mut buf = Vec::new();
    let mut samples: [Vec<f64>; 7] = Default::default();
    let start = Instant::now();
    while samples[0].len() < 3 || start.elapsed() < budget {
        samples[0].push(columnar(prefix));
        samples[1].push(reorder(prefix));
        let (encode, decode) = codec(prefix, &mut buf);
        samples[2].push(encode);
        samples[3].push(decode);
        let (append, read) = wal(&records, dir);
        samples[4].push(append);
        samples[5].push(read);
        samples[6].push(pattern(prefix, &order));
    }
    LayerTimes {
        columnar_push_ns: median(&samples[0]),
        reorder_push_ns: median(&samples[1]),
        codec_encode_ns: median(&samples[2]),
        codec_decode_ns: median(&samples[3]),
        wal_append_ns: median(&samples[4]),
        wal_read_ns: median(&samples[5]),
        pattern_ns: median(&samples[6]),
    }
}
