//! The per-shard append side: segment files, rotation, fsync policy.

use crate::frame::{seal_frame, WalError, FRAME_HEADER, SEGMENT_MAGIC};
use crate::record::WalRecord;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// When appended records are forced to stable storage.
///
/// The policy trades durability for throughput: `Always` survives power
/// loss at the cost of one `fdatasync` per record, `EveryN` bounds the
/// loss window to N records, `Never` leaves flushing to the OS page
/// cache (still survives process crashes, not power loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record.
    Always,
    /// `fdatasync` after every `n` records (and at rotation/shutdown).
    EveryN(u32),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Never,
}

/// Append-side counters, surfaced through the engine report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalWriterMetrics {
    /// Records appended.
    pub records: u64,
    /// Payload + framing bytes written (excluding segment headers).
    pub bytes: u64,
    /// Segment files created.
    pub segments: u64,
    /// `fdatasync` calls actually issued. Under group commit this is
    /// what shrinks: one per batch instead of one per record.
    pub syncs: u64,
}

/// The append half of one shard's write-ahead log.
///
/// A writer always opens a *new* segment (`wal-<shard>-<n>.log`, `n` one
/// past the largest existing index) rather than appending into an old
/// one, so a previous run's torn tail can never be buried under fresh
/// records.
#[derive(Debug)]
pub struct ShardWal {
    dir: PathBuf,
    shard: usize,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    next_segment: u64,
    file: Option<File>,
    segment_fill: u64,
    unsynced: u32,
    metrics: WalWriterMetrics,
    scratch: Vec<u8>,
}

/// Formats the segment file name for `(shard, segment)`.
#[must_use]
pub(crate) fn segment_file_name(shard: usize, segment: u64) -> String {
    format!("wal-{shard:03}-{segment:06}.log")
}

/// Parses `(shard, segment)` back out of a segment file name.
#[must_use]
pub(crate) fn parse_segment_file_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (shard, segment) = rest.split_once('-')?;
    Some((shard.parse().ok()?, segment.parse().ok()?))
}

impl ShardWal {
    /// Opens the log for `shard` under `dir` (creating the directory),
    /// starting a fresh segment after any existing ones.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the directory cannot be created or
    /// scanned.
    pub fn open(
        dir: &Path,
        shard: usize,
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> Result<Self, WalError> {
        std::fs::create_dir_all(dir)?;
        let mut next_segment = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some((s, seg)) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                if s == shard {
                    next_segment = next_segment.max(seg + 1);
                }
            }
        }
        Ok(ShardWal {
            dir: dir.to_path_buf(),
            shard,
            segment_bytes: segment_bytes.max(1),
            fsync,
            next_segment,
            file: None,
            segment_fill: 0,
            unsynced: 0,
            metrics: WalWriterMetrics::default(),
            scratch: Vec::new(),
        })
    }

    /// The shard this writer logs for.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Append-side counters so far.
    #[must_use]
    pub fn metrics(&self) -> WalWriterMetrics {
        self.metrics
    }

    fn roll_segment(&mut self) -> Result<&mut File, WalError> {
        if let Some(file) = self.file.take() {
            // Close the full segment durably before opening the next.
            file.sync_data()?;
            self.metrics.syncs += 1;
            self.unsynced = 0;
        }
        let path = self
            .dir
            .join(segment_file_name(self.shard, self.next_segment));
        let mut file = OpenOptions::new().create_new(true).write(true).open(path)?;
        file.write_all(SEGMENT_MAGIC)?;
        self.next_segment += 1;
        self.segment_fill = 0;
        self.metrics.segments += 1;
        self.file = Some(file);
        Ok(self.file.as_mut().expect("just set"))
    }

    /// The segment index the next append lands in: the open segment, or
    /// the one [`ShardWal::roll_segment`] would create. Everything in
    /// segments *below* this index is already written (a snapshot cut
    /// after a [`ShardWal::sync`] covers them entirely), which is what
    /// makes the index the compaction bound recorded in checkpoint
    /// snapshots.
    #[must_use]
    pub fn active_segment(&self) -> u64 {
        if self.file.is_some() {
            self.next_segment - 1
        } else {
            self.next_segment
        }
    }

    /// Appends one record (framed, checksummed), rotating the segment
    /// first if the current one is full, and fsyncs per policy.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on any filesystem failure; the engine
    /// treats that as fatal for the shard (durability was requested and
    /// cannot be provided).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_deferred(record)?;
        self.commit_appends()
    }

    /// Appends one record *without* applying the fsync policy: the
    /// group-commit half of a batch. The caller must follow a run of
    /// deferred appends with one [`ShardWal::commit_appends`], which
    /// applies the policy to the whole run — under
    /// [`FsyncPolicy::Always`] that coalesces what would have been one
    /// `fdatasync` per record into one per batch (the ~2× append
    /// overhead the ROADMAP named), while keeping the batch write-ahead:
    /// the engine commits before evaluating anything the batch carries.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on any filesystem failure.
    pub fn append_deferred(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_encoded_deferred(|buf| record.encode(buf))
    }

    /// [`ShardWal::append_deferred`] for a record whose payload `encode`
    /// writes directly (e.g. [`WalRecord::encode_instance_with`] over a
    /// columnar row), so the caller need not build the record first.
    /// The frame is assembled in place in a reused buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on any filesystem failure.
    pub fn append_encoded_deferred(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WalError> {
        let mut framed = std::mem::take(&mut self.scratch);
        framed.clear();
        framed.extend_from_slice(&[0; FRAME_HEADER]);
        encode(&mut framed);
        seal_frame(&mut framed);
        let written = self.write_frame(&framed);
        self.scratch = framed;
        written
    }

    /// Writes one sealed frame, rotating the segment first if it would
    /// overflow.
    fn write_frame(&mut self, framed: &[u8]) -> Result<(), WalError> {
        let needs_roll = self.file.is_none()
            || (self.segment_fill > 0
                && self.segment_fill + framed.len() as u64 > self.segment_bytes);
        let fill = self.segment_fill;
        let file = if needs_roll {
            self.roll_segment()?
        } else {
            self.file.as_mut().expect("checked above")
        };
        file.write_all(framed)?;
        self.segment_fill = if needs_roll { 0 } else { fill } + framed.len() as u64;
        self.metrics.records += 1;
        self.metrics.bytes += framed.len() as u64;
        self.unsynced += 1;
        Ok(())
    }

    /// Applies the fsync policy to every deferred append since the last
    /// commit: `Always` syncs now (one `fdatasync` for the whole run),
    /// `EveryN` syncs once the accumulated run reaches `n`, `Never`
    /// leaves flushing to the OS.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the `fdatasync` fails.
    pub fn commit_appends(&mut self) -> Result<(), WalError> {
        match self.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Forces everything appended so far to stable storage (a no-op
    /// when nothing is unsynced).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the `fdatasync` fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        if let Some(file) = &self.file {
            file.sync_data()?;
            self.metrics.syncs += 1;
        }
        self.unsynced = 0;
        Ok(())
    }
}

/// Deletes every segment file for `shard` with index strictly below
/// `below_segment`, returning how many were removed — WAL compaction.
///
/// Safety contract (enforced by the caller, the checkpoint subsystem):
/// a segment may only be retired once a *durable* snapshot covers
/// everything in it, and the bound must come from the **oldest
/// retained** snapshot, so a torn newest snapshot can still fall back
/// to the previous one plus the log tail behind it. Retiring behind
/// the newest snapshot would leave a torn checkpoint unrecoverable.
///
/// # Errors
///
/// Returns [`WalError::Io`] if the directory cannot be scanned or a
/// segment cannot be removed (a partially-retired chain is fine:
/// recovery tolerates missing leading segments below its snapshot).
pub fn retire_segments_below(
    dir: &Path,
    shard: usize,
    below_segment: u64,
) -> Result<u64, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let mut retired = 0;
    for entry in entries {
        let entry = entry?;
        if let Some((s, seg)) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            if s == shard && seg < below_segment {
                std::fs::remove_file(entry.path())?;
                retired += 1;
            }
        }
    }
    Ok(retired)
}

impl Drop for ShardWal {
    fn drop(&mut self) {
        // Best-effort final flush; an engine that wants a guarantee
        // calls `sync` explicitly before dropping.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_shard;
    use stem_core::{EventId, EventInstance, Layer, MoteId, ObserverId};
    use stem_spatial::Point;
    use stem_temporal::TimePoint;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stem-wal-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mk(seq: u64) -> WalRecord {
        WalRecord::Instance {
            seq,
            eval_at: None,
            prefix_high_water: None,
            instance: EventInstance::builder(
                ObserverId::Mote(MoteId::new(1)),
                EventId::new("e"),
                Layer::Sensor,
            )
            .generated(TimePoint::new(seq), Point::new(0.0, 0.0))
            .build(),
        }
    }

    #[test]
    fn file_names_round_trip() {
        let name = segment_file_name(7, 42);
        assert_eq!(parse_segment_file_name(&name), Some((7, 42)));
        assert_eq!(parse_segment_file_name("notes.txt"), None);
        assert_eq!(parse_segment_file_name("wal-x-1.log"), None);
    }

    #[test]
    fn appends_rotate_segments_and_read_back() {
        let dir = temp_dir("rotate");
        let mut wal = ShardWal::open(&dir, 0, 256, FsyncPolicy::EveryN(8)).unwrap();
        for seq in 0..40 {
            wal.append(&mk(seq)).unwrap();
        }
        wal.sync().unwrap();
        let metrics = wal.metrics();
        assert_eq!(metrics.records, 40);
        assert!(metrics.segments > 1, "256-byte segments must rotate");
        drop(wal);
        let recovered = read_shard(&dir, 0, false).unwrap();
        assert_eq!(recovered.records.len(), 40);
        assert_eq!(recovered.torn_truncations, 0);
        assert_eq!(recovered.durable_seq, Some(39));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Group commit: a run of deferred appends under `Always` costs one
    /// `fdatasync` at commit, not one per record — and the data is
    /// still durably on disk afterwards.
    #[test]
    fn group_commit_coalesces_always_fsyncs() {
        let dir = temp_dir("group");
        let mut wal = ShardWal::open(&dir, 0, 1 << 20, FsyncPolicy::Always).unwrap();
        for seq in 0..10 {
            wal.append_deferred(&mk(seq)).unwrap();
        }
        wal.commit_appends().unwrap();
        assert_eq!(wal.metrics().records, 10);
        assert_eq!(wal.metrics().syncs, 1, "one fsync for the whole batch");
        // Per-record appends pay one fsync each.
        for seq in 10..13 {
            wal.append(&mk(seq)).unwrap();
        }
        assert_eq!(wal.metrics().syncs, 4);
        drop(wal);
        let recovered = read_shard(&dir, 0, false).unwrap();
        assert_eq!(recovered.records.len(), 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// EveryN counts deferred appends across commits, so batching does
    /// not change its durability window.
    #[test]
    fn deferred_appends_accumulate_toward_every_n() {
        let dir = temp_dir("deferred-everyn");
        let mut wal = ShardWal::open(&dir, 0, 1 << 20, FsyncPolicy::EveryN(4)).unwrap();
        for seq in 0..3 {
            wal.append_deferred(&mk(seq)).unwrap();
        }
        wal.commit_appends().unwrap();
        assert_eq!(wal.metrics().syncs, 0, "3 < 4: no sync yet");
        wal.append_deferred(&mk(3)).unwrap();
        wal.commit_appends().unwrap();
        assert_eq!(
            wal.metrics().syncs,
            1,
            "the 4th append crosses the threshold"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn active_segment_tracks_rolls() {
        let dir = temp_dir("active");
        let mut wal = ShardWal::open(&dir, 1, 256, FsyncPolicy::Never).unwrap();
        assert_eq!(
            wal.active_segment(),
            0,
            "nothing open: the next roll's index"
        );
        wal.append(&mk(0)).unwrap();
        assert_eq!(wal.active_segment(), 0);
        for seq in 1..40 {
            wal.append(&mk(seq)).unwrap();
        }
        assert!(wal.active_segment() > 0, "256-byte segments must rotate");
        assert_eq!(wal.active_segment(), wal.metrics().segments - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_segments_below_deletes_only_the_prefix() {
        let dir = temp_dir("retire");
        let mut wal = ShardWal::open(&dir, 0, 256, FsyncPolicy::Never).unwrap();
        for seq in 0..40 {
            wal.append(&mk(seq)).unwrap();
        }
        wal.sync().unwrap();
        let active = wal.active_segment();
        assert!(active >= 2, "need several segments to retire");
        // A second shard's chain must be untouched.
        let mut other = ShardWal::open(&dir, 1, 1 << 20, FsyncPolicy::Never).unwrap();
        other.append(&mk(0)).unwrap();
        drop((wal, other));

        let retired = retire_segments_below(&dir, 0, active).unwrap();
        assert_eq!(retired, active, "every closed segment below the bound");
        let recovered = read_shard(&dir, 0, false).unwrap();
        assert_eq!(recovered.segments, 1, "only the active segment remains");
        assert!(recovered.records.iter().all(|r| r.seq() <= 39));
        let other = read_shard(&dir, 1, false).unwrap();
        assert_eq!(other.records.len(), 1, "other shard's chain untouched");
        // Retiring again is a no-op; a missing directory is too.
        assert_eq!(retire_segments_below(&dir, 0, active).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(retire_segments_below(&dir, 0, 99).unwrap(), 0);
    }

    #[test]
    fn reopening_starts_a_fresh_segment() {
        let dir = temp_dir("reopen");
        let mut wal = ShardWal::open(&dir, 2, 1 << 20, FsyncPolicy::Never).unwrap();
        wal.append(&mk(0)).unwrap();
        drop(wal);
        let mut wal = ShardWal::open(&dir, 2, 1 << 20, FsyncPolicy::Never).unwrap();
        wal.append(&mk(1)).unwrap();
        drop(wal);
        let recovered = read_shard(&dir, 2, false).unwrap();
        assert_eq!(recovered.records.len(), 2);
        assert_eq!(recovered.segments, 2, "second run opened a new segment");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
