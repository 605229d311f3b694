//! Durable write-ahead checkpoint log for the multi-device fleet.
//!
//! The text codec in [`super::codec`] makes a scene's state portable;
//! this module makes it *durable*. A [`WalWriter`] appends length-prefixed,
//! CRC-checksummed records wrapping that codec's payloads to segment files
//! on disk, under a crash-consistent fsync discipline:
//!
//! * **record fsync before ack** — [`WalWriter::sync`] issues `fdatasync`
//!   on the active segment; the fleet router never acknowledges a
//!   submission, and never treats a step boundary as committed, before the
//!   records covering it are synced. Appends between syncs form a group
//!   commit: one barrier covers a whole step boundary's burst of records.
//! * **directory fsync on rotation** — a freshly created segment file is
//!   itself synced and then the *directory* is synced, so the file's name
//!   survives a crash (a file whose directory entry was never made durable
//!   is as good as unwritten).
//!
//! Replay ([`WalReplay::load`]) walks the segments in order and
//! distinguishes two failure shapes:
//!
//! * a **torn tail** — the record at the very end of the *last* segment is
//!   incomplete or fails its checksum. That is the expected artifact of a
//!   crash mid-write; the partial record is discarded and replay reports
//!   `torn_tail = true`. The record had not been acked (its sync never
//!   completed), so dropping it loses nothing the fleet promised to keep.
//! * **corruption** — a bad magic, checksum, or sequence number anywhere
//!   *except* the tail. That is not a crash artifact but bit rot or a bug,
//!   and replay refuses with [`WalError::Corrupt`] instead of guessing.
//!   A *missing middle segment* — the first record after a segment
//!   boundary skipping sequence numbers the previous segment did not end
//!   on — is the same class of failure (a deleted or lost file, never a
//!   crash artifact) and refuses with [`WalError::MissingSegment`].
//!
//! ## Live migration records
//!
//! Moving a *running* scene between devices is journaled as a two-phase
//! protocol: a [`WalRecordKind::MigrateIntent`] (destination in the
//! `device` field, source in the payload, the scene's *new* ownership
//! epoch in the `epoch` field) is fsynced before any state moves, and a
//! [`WalRecordKind::MigrateCommit`] carrying the captured checkpoint
//! seals the handoff. Replay resolves an intent without a commit
//! deterministically: it **rolls forward**, assigning the scene to the
//! destination at its last durable snapshot with the intent's epoch — the
//! journaled intent is a promise, and because trajectories are
//! device-independent, re-execution from the older snapshot on the new
//! owner reproduces the same bits. A crash at any record boundary
//! therefore recovers exactly one live copy; the protocol never forks.
//!
//! Every record carries its scene's **ownership epoch**: the term number
//! of the device that owned the scene when the record was written. Each
//! ownership change (migration intent, failover adoption) bumps the
//! epoch, and the router refuses to journal a terminal outcome from a
//! holder whose epoch is stale — the fence that stops a fail-silent
//! "zombie" device from double-committing a scene that already moved.
//!
//! Everything is `std`-only: records carry their own framing (magic,
//! sequence, kind, scene id, device, epoch, length, CRC-32) so no
//! serialization dependency is needed, and every payload kind is encoded
//! and decoded by [`super::codec`], whose round-trips are bitwise exact.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use super::codec::{decode_intent, decode_scene_record};
use super::ingest::FleetScene;

/// Per-record magic word (little-endian on the wire).
const RECORD_MAGIC: u32 = 0x57A1_DDA0;
/// Fixed bytes of a record before its payload: magic(4) seq(8) kind(1)
/// scene(8) device(4) epoch(8) len(4) crc(4).
const HEADER_BYTES: usize = 41;
/// Segment file name prefix/suffix: `wal-<index>.seg`.
const SEG_PREFIX: &str = "wal-";
const SEG_SUFFIX: &str = ".seg";

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. The table is
/// built at compile time; no dependency needed.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 over `bytes` (IEEE, as used by gzip/zip).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Failure reading or writing the log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A record *not* at the tail of the last segment is damaged — bad
    /// magic, bad checksum, out-of-order sequence number, or an
    /// undecodable payload. Unlike a torn tail this cannot be a crash
    /// artifact, so replay refuses rather than silently dropping data.
    Corrupt {
        /// Index of the damaged segment.
        segment: u64,
        /// Byte offset of the damaged record within the segment.
        offset: u64,
        /// What failed to validate.
        what: &'static str,
    },
    /// A whole segment's worth of records is missing from the *middle* of
    /// the log: the first record after a segment boundary skips sequence
    /// numbers the preceding segment did not end on. Pruning only ever
    /// removes a prefix and rotation never skips sequences, so a mid-log
    /// gap means a segment file was deleted or lost — data the fleet
    /// acked is gone, and replay refuses rather than resurrecting stale
    /// state from around the hole.
    MissingSegment {
        /// Segment in which the gap was observed (the one *after* the
        /// hole).
        segment: u64,
        /// Sequence number the previous segment's last record implied.
        expected_seq: u64,
        /// Sequence number actually found first in `segment`.
        found_seq: u64,
    },
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                what,
            } => write!(
                f,
                "wal corrupt: {what} in segment {segment} at offset {offset}"
            ),
            WalError::MissingSegment {
                segment,
                expected_seq,
                found_seq,
            } => write!(
                f,
                "wal missing middle segment: segment {segment} opens at seq \
                 {found_seq}, expected {expected_seq}"
            ),
        }
    }
}

/// What a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordKind {
    /// A scene was accepted by the router: payload is a single-scene
    /// [`FleetCheckpoint`](super::FleetCheckpoint) of its initial (queued)
    /// state. Written and
    /// synced *before* the submission is acknowledged.
    Submit = 1,
    /// A step-boundary snapshot of one in-flight scene's full resumable
    /// state (again a single-scene fleet checkpoint), tagged with the
    /// device currently hosting it. The latest snapshot per scene
    /// supersedes everything before it.
    Snap = 2,
    /// The scene reached a terminal state (completed / refused / shed):
    /// payload is a small text record with the outcome tag and the final
    /// state fingerprint. Replay drops terminal scenes from the live set.
    Terminal = 3,
    /// Phase one of a live migration: the scene named in the header is
    /// about to move to the device in the `device` field, under the new
    /// ownership epoch in the `epoch` field; the payload is the source
    /// device index as decimal text. Journaled and fsynced *before* any
    /// state moves. An intent without a matching commit rolls *forward*
    /// on replay: the destination owns the scene at its last durable
    /// snapshot.
    MigrateIntent = 4,
    /// Phase two of a live migration: the destination adopted the scene.
    /// Payload is the single-scene fleet checkpoint captured from the
    /// source at handoff, so replay resumes the freshest state on the new
    /// owner.
    MigrateCommit = 5,
}

impl WalRecordKind {
    fn from_u8(b: u8) -> Option<WalRecordKind> {
        match b {
            1 => Some(WalRecordKind::Submit),
            2 => Some(WalRecordKind::Snap),
            3 => Some(WalRecordKind::Terminal),
            4 => Some(WalRecordKind::MigrateIntent),
            5 => Some(WalRecordKind::MigrateCommit),
            _ => None,
        }
    }
}

/// Which writer operation an injected I/O fault targets (see
/// [`WalWriter::arm_io_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalIoOp {
    /// Fail a [`WalWriter::append`] (a write to the segment file).
    Append,
    /// Fail a [`WalWriter::sync`] (the fsync barrier).
    Sync,
}

/// Knobs for the log.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files. Created if absent.
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes (checked before each append, so records are never split
    /// across segments).
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config rooted at `dir` with 1 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
        }
    }
}

/// Modeled seconds charged per sync barrier (an NVMe-class flush). The WAL
/// runs on the host, off the modeled device; this cost model is what lets
/// benchmarks report WAL overhead as a fraction of modeled step time
/// instead of comparing wall clock against a simulation.
const MODELED_FSYNC_S: f64 = 25e-6;
/// Modeled sequential write bandwidth (bytes/second) charged against
/// appended record bytes.
const MODELED_BYTES_PER_S: f64 = 2e9;

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEG_PREFIX}{index:06}{SEG_SUFFIX}"))
}

fn segment_index_of(name: &str) -> Option<u64> {
    name.strip_prefix(SEG_PREFIX)?
        .strip_suffix(SEG_SUFFIX)?
        .parse()
        .ok()
}

/// Sorted `(index, path)` of every segment file in `dir`.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(segment_index_of) {
            segs.push((idx, entry.path()));
        }
    }
    segs.sort_by_key(|(i, _)| *i);
    Ok(segs)
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync: on POSIX, opening the directory and syncing it
    // makes freshly created/removed names durable.
    File::open(dir)?.sync_all()
}

/// Append-only writer over a directory of segment files.
#[derive(Debug)]
pub struct WalWriter {
    cfg: WalConfig,
    file: File,
    seg_index: u64,
    seg_written: u64,
    next_seq: u64,
    unsynced: bool,
    stats: WalStats,
    /// Armed I/O fault: target operation plus how many more such
    /// operations succeed before one fails (deterministic, program
    /// order).
    armed_io: Option<(WalIoOp, u64)>,
}

/// Lifetime accounting for a [`WalWriter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Payload + framing bytes appended.
    pub bytes: u64,
    /// Sync barriers issued.
    pub syncs: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Segments deleted by pruning.
    pub pruned: u64,
    /// Modeled seconds spent on appends and syncs (the cost model in
    /// [`WalConfig`]); benchmarks report this as a fraction of modeled
    /// step time.
    pub modeled_seconds: f64,
}

impl WalWriter {
    /// Opens a *fresh* log in `cfg.dir`, creating the directory if needed.
    /// Refuses (with `AlreadyExists`) if segment files are already
    /// present — recovery must go through [`WalReplay::load`] +
    /// [`WalWriter::resume`], never silently overwrite.
    pub fn create(cfg: WalConfig) -> Result<WalWriter, WalError> {
        fs::create_dir_all(&cfg.dir)?;
        if !list_segments(&cfg.dir)?.is_empty() {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "wal directory already holds segments; use WalReplay + resume",
            )));
        }
        Self::open_segment(cfg, 1, 0)
    }

    /// Continues a replayed log: starts a new segment *after* the last
    /// one on disk, with sequence numbers continuing from the replay.
    /// The torn tail of the old last segment (if any) stays where it is —
    /// replay ignores it forever after, because recovery re-snapshots
    /// every live scene into the new segment before acking anything new.
    pub fn resume(cfg: WalConfig, replay: &WalReplay) -> Result<WalWriter, WalError> {
        Self::open_segment(cfg, replay.last_segment + 1, replay.next_seq)
    }

    fn open_segment(cfg: WalConfig, seg_index: u64, next_seq: u64) -> Result<WalWriter, WalError> {
        // Recovery may resume into a directory that never existed (an
        // empty replay): create it rather than failing the first append.
        fs::create_dir_all(&cfg.dir)?;
        let path = segment_path(&cfg.dir, seg_index);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        file.sync_all()?;
        sync_dir(&cfg.dir)?;
        Ok(WalWriter {
            cfg,
            file,
            seg_index,
            seg_written: 0,
            next_seq,
            unsynced: false,
            stats: WalStats::default(),
            armed_io: None,
        })
    }

    /// Arms a deterministic I/O fault: the next `after` operations of
    /// kind `op` succeed, then one fails with an injected
    /// [`WalError::Io`]. Firing disarms. A fleet router arms it through
    /// [`FleetRouter::arm_wal_fault`](super::fleet::FleetRouter::arm_wal_fault).
    pub fn arm_io_fault(&mut self, op: WalIoOp, after: u64) {
        self.armed_io = Some((op, after));
    }

    /// Consumes one firing opportunity for `op`; returns the injected
    /// error when the countdown expires.
    fn io_fault_fires(&mut self, op: WalIoOp) -> Result<(), WalError> {
        if let Some((armed_op, remaining)) = self.armed_io {
            if armed_op == op {
                if remaining == 0 {
                    self.armed_io = None;
                    return Err(WalError::Io(io::Error::other(match op {
                        WalIoOp::Append => "injected wal append failure",
                        WalIoOp::Sync => "injected wal fsync failure",
                    })));
                }
                self.armed_io = Some((armed_op, remaining - 1));
            }
        }
        Ok(())
    }

    /// The directory this writer appends into.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Index of the segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// Sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime accounting.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Appends one record (rotating segments first if the current one is
    /// full) and returns its sequence number. `epoch` is the scene's
    /// ownership epoch at write time (the *new* epoch for migration
    /// records). The record is *staged*: it is not durable until the next
    /// [`WalWriter::sync`]. Callers must sync before acking whatever the
    /// record witnesses.
    pub fn append(
        &mut self,
        kind: WalRecordKind,
        scene_id: u64,
        device: u32,
        epoch: u64,
        payload: &[u8],
    ) -> Result<u64, WalError> {
        self.io_fault_fires(WalIoOp::Append)?;
        if self.seg_written > 0 && self.seg_written >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        let seq = self.next_seq;
        let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
        buf.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.push(kind as u8);
        buf.extend_from_slice(&scene_id.to_le_bytes());
        buf.extend_from_slice(&device.to_le_bytes());
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        // CRC covers everything after the magic plus the payload, so a
        // bit flip anywhere in seq/kind/ids/len is caught too.
        let mut crc_input = Vec::with_capacity(buf.len() - 4 + payload.len());
        crc_input.extend_from_slice(&buf[4..]);
        crc_input.extend_from_slice(payload);
        buf.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        buf.extend_from_slice(payload);
        self.file.write_all(&buf)?;
        self.next_seq += 1;
        self.seg_written += buf.len() as u64;
        self.unsynced = true;
        self.stats.records += 1;
        self.stats.bytes += buf.len() as u64;
        self.stats.modeled_seconds += buf.len() as f64 / MODELED_BYTES_PER_S;
        Ok(seq)
    }

    /// Makes every staged record durable: `fdatasync` on the active
    /// segment. No-op when nothing is staged, so callers can sync once
    /// per step-boundary burst (group commit) without double-charging.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.io_fault_fires(WalIoOp::Sync)?;
        if self.unsynced {
            self.file.sync_data()?;
            self.unsynced = false;
            self.stats.syncs += 1;
            self.stats.modeled_seconds += MODELED_FSYNC_S;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // Seal the old segment before its successor exists.
        self.file.sync_data()?;
        self.unsynced = false;
        self.seg_index += 1;
        let path = segment_path(&self.cfg.dir, self.seg_index);
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        // The new file and its directory entry must both be durable
        // before any record lands in it.
        self.file.sync_all()?;
        sync_dir(&self.cfg.dir)?;
        self.seg_written = 0;
        self.stats.rotations += 1;
        self.stats.modeled_seconds += 2.0 * MODELED_FSYNC_S;
        Ok(())
    }

    /// Deletes every segment with index strictly below `seg_index` (never
    /// the active one) and fsyncs the directory. Callers prune only below
    /// a barrier they know re-snapshotted every live scene.
    pub fn prune_before(&mut self, seg_index: u64) -> Result<usize, WalError> {
        let cut = seg_index.min(self.seg_index);
        let mut removed = 0;
        for (idx, path) in list_segments(&self.cfg.dir)? {
            if idx < cut {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.cfg.dir)?;
            self.stats.pruned += removed as u64;
        }
        Ok(removed)
    }
}

/// Terminal outcome carried by a [`WalRecordKind::Terminal`] record (its
/// payload codec, `encode`/`decode`, lives in [`super::codec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOutcome {
    /// The scene finished its requested steps.
    Completed,
    /// The scheduler refused it after exhausting retries.
    Refused,
    /// It was shed for missing its admission deadline.
    Shed,
}

/// One scene's latest durable state, as reconstructed by replay.
#[derive(Debug, Clone)]
pub struct ReplayedScene {
    /// Device that hosted the scene when the record was written.
    pub device: u32,
    /// The scene with its full scheduling envelope.
    pub scene: FleetScene,
    /// Router tick the snapshot was taken at (`taken_at_step` of the
    /// embedded checkpoint).
    pub taken_at: u64,
    /// Sequence number of the winning record.
    pub seq: u64,
    /// Ownership epoch the winning record was written under.
    pub epoch: u64,
}

/// A journaled migration intent that has not (yet) been superseded by a
/// commit or any later record at its epoch.
#[derive(Debug, Clone, Copy)]
pub struct PendingMigration {
    /// Device the scene was leaving.
    pub src: u32,
    /// Device the scene was moving to.
    pub dst: u32,
    /// The new ownership epoch the intent reserved.
    pub epoch: u64,
    /// Sequence number of the intent record.
    pub seq: u64,
}

/// One scene's terminal outcome, as reconstructed by replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayedOutcome {
    /// How the scene ended.
    pub outcome: WalOutcome,
    /// FNV-1a fingerprint of its final kinematic state.
    pub fingerprint: u64,
    /// Sequence number of the terminal record.
    pub seq: u64,
    /// Ownership epoch the terminal record was written under.
    pub epoch: u64,
}

/// The durable fleet state reconstructed from a log directory.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Latest state per live scene id.
    pub live: BTreeMap<u64, ReplayedScene>,
    /// Outcomes of scenes that reached a terminal record.
    pub terminal: BTreeMap<u64, ReplayedOutcome>,
    /// Highest router tick witnessed by any snapshot.
    pub last_tick: u64,
    /// One past the highest sequence number seen.
    pub next_seq: u64,
    /// Index of the last segment present (0 when the log is empty).
    pub last_segment: u64,
    /// Total intact records replayed.
    pub records: usize,
    /// Whether a torn (partial or checksum-failing) record was discarded
    /// at the tail of the last segment — the signature of a crash
    /// mid-append.
    pub torn_tail: bool,
    /// Migration intents that never saw a commit and were resolved by
    /// rolling the scene forward to its destination. Informational: by
    /// the time [`WalReplay::load`] returns, `live` already reflects the
    /// resolution.
    pub rolled_forward: usize,
    /// Intents still pending mid-walk (drained by the roll-forward pass;
    /// empty in every returned replay).
    pending: BTreeMap<u64, PendingMigration>,
}

impl WalReplay {
    /// Replays every segment under `dir`. An absent or empty directory
    /// replays to an empty state (fresh start).
    pub fn load(dir: &Path) -> Result<WalReplay, WalError> {
        let mut replay = WalReplay::default();
        let end = walk_segments(dir, |rec, at| replay.apply(rec, at.segment, at.start))?;
        replay.last_segment = end.last_segment;
        replay.next_seq = end.next_seq;
        replay.torn_tail = end.torn_tail;
        // Resolve intents that never saw their commit: roll the scene
        // forward onto the destination at its last durable state, under
        // the epoch the intent reserved. Deterministic — every recovery
        // of this log makes the same choice — and single-copy by
        // construction (the live map holds one entry per scene).
        let pending = std::mem::take(&mut replay.pending);
        for (id, p) in pending {
            if let Some(rs) = replay.live.get_mut(&id) {
                rs.device = p.dst;
                rs.epoch = rs.epoch.max(p.epoch);
                replay.rolled_forward += 1;
            }
        }
        Ok(replay)
    }

    fn apply(&mut self, rec: RawRecord, segment: u64, offset: u64) -> Result<(), WalError> {
        let corrupt = |what| WalError::Corrupt {
            segment,
            offset,
            what,
        };
        let text = std::str::from_utf8(&rec.payload).map_err(|_| corrupt("payload utf-8"))?;
        match rec.kind {
            WalRecordKind::Submit | WalRecordKind::Snap | WalRecordKind::MigrateCommit => {
                let (taken_at, scene) =
                    decode_scene_record(text).map_err(|_| corrupt("checkpoint payload"))?;
                self.last_tick = self.last_tick.max(taken_at);
                // A stale Submit must never resurrect a scene a later
                // Snap/Terminal superseded; seq order guarantees we only
                // move forward.
                self.live.insert(
                    rec.scene_id,
                    ReplayedScene {
                        device: rec.device,
                        epoch: rec.epoch,
                        scene,
                        taken_at,
                        seq: rec.seq,
                    },
                );
                // A commit, or any durable record at (or past) the
                // intent's epoch, means the migration resolved — the new
                // owner is journaling — so the intent must not roll the
                // scene anywhere.
                if rec.kind == WalRecordKind::MigrateCommit
                    || self
                        .pending
                        .get(&rec.scene_id)
                        .is_some_and(|p| rec.epoch >= p.epoch)
                {
                    self.pending.remove(&rec.scene_id);
                }
            }
            WalRecordKind::Terminal => {
                let (outcome, fingerprint) =
                    WalOutcome::decode(text).ok_or_else(|| corrupt("terminal payload"))?;
                self.live.remove(&rec.scene_id);
                self.pending.remove(&rec.scene_id);
                self.terminal.insert(
                    rec.scene_id,
                    ReplayedOutcome {
                        outcome,
                        fingerprint,
                        epoch: rec.epoch,
                        seq: rec.seq,
                    },
                );
            }
            WalRecordKind::MigrateIntent => {
                let src = decode_intent(text).map_err(|_| corrupt("intent payload"))?;
                self.pending.insert(
                    rec.scene_id,
                    PendingMigration {
                        src,
                        dst: rec.device,
                        epoch: rec.epoch,
                        seq: rec.seq,
                    },
                );
            }
        }
        self.records += 1;
        Ok(())
    }
}

struct RawRecord {
    seq: u64,
    kind: WalRecordKind,
    scene_id: u64,
    device: u32,
    epoch: u64,
    payload: Vec<u8>,
}

/// Parses one record from the front of `bytes`; returns the record and
/// the bytes consumed, or a static description of what failed (the caller
/// decides whether that is a torn tail or corruption).
fn parse_record(bytes: &[u8]) -> Result<(RawRecord, usize), &'static str> {
    if bytes.len() < HEADER_BYTES {
        return Err("record header truncated");
    }
    let take4 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let take8 = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    if take4(0) != RECORD_MAGIC {
        return Err("bad record magic");
    }
    let seq = take8(4);
    let kind = WalRecordKind::from_u8(bytes[12]).ok_or("unknown record kind")?;
    let scene_id = take8(13);
    let device = take4(21);
    let epoch = take8(25);
    let len = take4(33) as usize;
    let crc_stored = take4(37);
    let total = HEADER_BYTES
        .checked_add(len)
        .ok_or("record length overflow")?;
    if bytes.len() < total {
        return Err("record payload truncated");
    }
    let payload = &bytes[HEADER_BYTES..total];
    let mut crc_input = Vec::with_capacity(HEADER_BYTES - 8 + len);
    crc_input.extend_from_slice(&bytes[4..37]);
    crc_input.extend_from_slice(payload);
    if crc32(&crc_input) != crc_stored {
        return Err("record checksum mismatch");
    }
    Ok((
        RawRecord {
            seq,
            kind,
            scene_id,
            device,
            epoch,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Byte extent of one intact record — the crash-injection tests use these
/// to model a process death after (or inside) every record.
#[derive(Debug, Clone)]
pub struct RecordSpan {
    /// Segment file holding the record.
    pub path: PathBuf,
    /// Segment index.
    pub segment: u64,
    /// Byte offset of the record's first byte.
    pub start: u64,
    /// One past the record's last byte.
    pub end: u64,
    /// The record's sequence number.
    pub seq: u64,
    /// The record's kind — lets crash tests target specific protocol
    /// boundaries (e.g. "cut right after the MigrateIntent").
    pub kind: WalRecordKind,
    /// The scene the record belongs to.
    pub scene_id: u64,
}

/// Scans `dir` and returns the span of every intact record in order. A
/// torn tail is ignored (its span is not returned); corruption elsewhere
/// errors exactly as in [`WalReplay::load`].
pub fn record_spans(dir: &Path) -> Result<Vec<RecordSpan>, WalError> {
    let mut spans = Vec::new();
    walk_segments(dir, |rec, at| {
        spans.push(RecordSpan {
            path: at.path.to_path_buf(),
            segment: at.segment,
            start: at.start,
            end: at.end,
            seq: rec.seq,
            kind: rec.kind,
            scene_id: rec.scene_id,
        });
        Ok(())
    })?;
    Ok(spans)
}

/// Where an intact record sits, as [`walk_segments`] hands it out.
struct RecordAt<'a> {
    path: &'a Path,
    segment: u64,
    start: u64,
    end: u64,
}

/// What a walk saw of the log as a whole.
struct WalkEnd {
    /// Index of the last segment present (0 when the log is empty).
    last_segment: u64,
    /// One past the highest sequence number seen (0 when none).
    next_seq: u64,
    /// Whether a torn record was discarded at the tail of the last
    /// segment.
    torn_tail: bool,
}

/// The one segment walker behind [`WalReplay::load`] and
/// [`record_spans`]: lists the segments under `dir` in index order,
/// parses every record, applies the log's validity rules and hands each
/// intact record to `visit` in order. The rules:
/// * sequence numbers strictly increase, else `Corrupt`;
/// * pruning only removes a log *prefix* and rotation never skips
///   sequences, so the first record after a segment boundary continues
///   exactly where the previous segment stopped, else `MissingSegment`;
/// * a record that fails to parse in the last segment is a torn tail
///   (the crash artifact of an unacked partial write): it and everything
///   after it are discarded; anywhere else it is `Corrupt`.
///
/// An absent directory walks as an empty log.
fn walk_segments(
    dir: &Path,
    mut visit: impl FnMut(RawRecord, RecordAt<'_>) -> Result<(), WalError>,
) -> Result<WalkEnd, WalError> {
    let segs = if dir.exists() {
        list_segments(dir)?
    } else {
        Vec::new()
    };
    let last_segment = segs.last().map_or(0, |(i, _)| *i);
    let mut torn_tail = false;
    let mut prev: Option<(u64, u64)> = None; // (seq, segment) of the last record
    for (idx, path) in segs {
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let mut off = 0usize;
        while off < bytes.len() {
            match parse_record(&bytes[off..]) {
                Ok((rec, consumed)) => {
                    if let Some((p_seq, p_seg)) = prev {
                        if rec.seq <= p_seq {
                            return Err(WalError::Corrupt {
                                segment: idx,
                                offset: off as u64,
                                what: "sequence number not increasing",
                            });
                        }
                        if idx != p_seg && rec.seq != p_seq + 1 {
                            return Err(WalError::MissingSegment {
                                segment: idx,
                                expected_seq: p_seq + 1,
                                found_seq: rec.seq,
                            });
                        }
                    }
                    prev = Some((rec.seq, idx));
                    let at = RecordAt {
                        path: &path,
                        segment: idx,
                        start: off as u64,
                        end: (off + consumed) as u64,
                    };
                    visit(rec, at)?;
                    off += consumed;
                }
                Err(what) if idx != last_segment => {
                    return Err(WalError::Corrupt {
                        segment: idx,
                        offset: off as u64,
                        what,
                    });
                }
                Err(_) => {
                    torn_tail = true;
                    off = bytes.len();
                }
            }
        }
    }
    Ok(WalkEnd {
        last_segment,
        next_seq: prev.map_or(0, |(seq, _)| seq + 1),
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dda-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 — the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_sync_replayable_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        for i in 0..5u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Completed.encode(i).as_bytes(),
            )
            .unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.stats().records, 5);
        assert_eq!(w.stats().syncs, 1);

        let spans = record_spans(&dir).unwrap();
        assert_eq!(spans.len(), 5);
        let r = WalReplay::load(&dir).unwrap();
        assert_eq!(r.records, 5);
        assert!(!r.torn_tail);
        assert_eq!(r.next_seq, 5);
        assert_eq!(r.terminal.len(), 5);
        assert_eq!(r.terminal[&3].fingerprint, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_prune() {
        let dir = temp_dir("rotate");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64; // rotate almost every record
        let mut w = WalWriter::create(cfg).unwrap();
        for i in 0..10u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Shed.encode(i).as_bytes(),
            )
            .unwrap();
            w.sync().unwrap();
        }
        assert!(w.segment_index() > 1, "rotation must have happened");
        let before = list_segments(&dir).unwrap().len();
        assert!(before > 1);
        let removed = w.prune_before(w.segment_index()).unwrap();
        assert_eq!(removed, before - 1);
        // Replay still works on the surviving suffix.
        let r = WalReplay::load(&dir).unwrap();
        assert!(!r.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_detected_and_discarded() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        for i in 0..3u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Completed.encode(i).as_bytes(),
            )
            .unwrap();
        }
        w.sync().unwrap();
        let spans = record_spans(&dir).unwrap();
        let path = spans[2].path.clone();
        // Truncate mid-way through the last record: a torn write.
        let cut = (spans[2].start + spans[2].end) / 2;
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..cut as usize]).unwrap();
        let r = WalReplay::load(&dir).unwrap();
        assert!(r.torn_tail, "partial tail record must be flagged");
        assert_eq!(r.records, 2, "intact prefix replays");
        assert_eq!(r.next_seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Refusals of a damaged log that is not a torn tail: both readers
    /// walk the same segments under the same rules.
    #[test]
    fn mid_log_corruption_refused() {
        let refused_by_both = |dir: &Path, what: &str| {
            match WalReplay::load(dir) {
                Err(WalError::Corrupt { .. }) => {}
                other => panic!("{what}: expected Corrupt from load, got {other:?}"),
            }
            match record_spans(dir) {
                Err(WalError::Corrupt { .. }) => {}
                other => panic!("{what}: expected Corrupt from spans, got {other:?}"),
            }
        };

        let dir = temp_dir("corrupt");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64;
        let mut w = WalWriter::create(cfg).unwrap();
        for i in 0..6u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Refused.encode(i).as_bytes(),
            )
            .unwrap();
            w.sync().unwrap();
        }
        // Flip one payload byte in the FIRST segment: not a tail, so this
        // is corruption, not a torn write.
        let (_, first) = &list_segments(&dir).unwrap()[0];
        let mut bytes = fs::read(first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(first, &bytes).unwrap();
        refused_by_both(&dir, "bit flip");
        fs::remove_dir_all(&dir).unwrap();

        // One record duplicated byte for byte inside a segment: every
        // record parses, but the sequence repeats.
        let dir = temp_dir("duplicate");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        for i in 0..3u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Completed.encode(i).as_bytes(),
            )
            .unwrap();
        }
        w.sync().unwrap();
        let spans = record_spans(&dir).unwrap();
        assert_eq!(spans.len(), 3);
        let path = &spans[1].path;
        let mut bytes = fs::read(path).unwrap();
        let dup = bytes[spans[1].start as usize..spans[1].end as usize].to_vec();
        let at = spans[1].end as usize;
        bytes.splice(at..at, dup);
        fs::write(path, &bytes).unwrap();
        refused_by_both(&dir, "duplicated record");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_continues_sequence_in_fresh_segment() {
        let dir = temp_dir("resume");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        for i in 0..4u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Completed.encode(i).as_bytes(),
            )
            .unwrap();
        }
        w.sync().unwrap();
        let old_seg = w.segment_index();
        drop(w);
        let r = WalReplay::load(&dir).unwrap();
        let mut w2 = WalWriter::resume(WalConfig::new(&dir), &r).unwrap();
        assert_eq!(w2.segment_index(), old_seg + 1);
        let seq = w2
            .append(
                WalRecordKind::Terminal,
                9,
                0,
                0,
                WalOutcome::Completed.encode(9).as_bytes(),
            )
            .unwrap();
        assert_eq!(seq, r.next_seq);
        w2.sync().unwrap();
        let r2 = WalReplay::load(&dir).unwrap();
        assert_eq!(r2.records, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_log() {
        let dir = temp_dir("refuse");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        w.append(
            WalRecordKind::Terminal,
            0,
            0,
            0,
            WalOutcome::Completed.encode(0).as_bytes(),
        )
        .unwrap();
        w.sync().unwrap();
        drop(w);
        assert!(WalWriter::create(WalConfig::new(&dir)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_middle_segment_detected() {
        let dir = temp_dir("gap");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64; // rotate nearly every record
        let mut w = WalWriter::create(cfg).unwrap();
        for i in 0..6u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Completed.encode(i).as_bytes(),
            )
            .unwrap();
            w.sync().unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3, "need a middle segment to delete");
        // Deleting a middle segment is not pruning (that only removes a
        // prefix) and not a torn tail — it must be refused as corruption.
        let (victim_idx, victim_path) = &segs[1];
        fs::remove_file(victim_path).unwrap();
        match WalReplay::load(&dir) {
            Err(WalError::MissingSegment {
                segment,
                expected_seq,
                found_seq,
            }) => {
                assert!(segment > *victim_idx);
                assert!(found_seq > expected_seq);
            }
            other => panic!("expected MissingSegment, got {other:?}"),
        }
        // record_spans applies the same rule.
        match record_spans(&dir) {
            Err(WalError::MissingSegment { .. }) => {}
            other => panic!("expected MissingSegment from spans, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_prefix_is_not_a_gap() {
        let dir = temp_dir("pruned-ok");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64;
        let mut w = WalWriter::create(cfg).unwrap();
        for i in 0..6u64 {
            w.append(
                WalRecordKind::Terminal,
                i,
                0,
                0,
                WalOutcome::Completed.encode(i).as_bytes(),
            )
            .unwrap();
            w.sync().unwrap();
        }
        w.prune_before(w.segment_index()).unwrap();
        // The log now starts mid-sequence; that is legitimate pruning,
        // not a missing segment.
        let r = WalReplay::load(&dir).unwrap();
        assert!(!r.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_roundtrips_through_records() {
        let dir = temp_dir("epoch");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        w.append(
            WalRecordKind::Terminal,
            7,
            2,
            41,
            WalOutcome::Completed.encode(123).as_bytes(),
        )
        .unwrap();
        w.sync().unwrap();
        let r = WalReplay::load(&dir).unwrap();
        assert_eq!(r.terminal[&7].epoch, 41);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn intent_without_commit_rolls_forward() {
        let dir = temp_dir("roll-forward");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        // Fabricate a minimal single-scene checkpoint payload by reusing
        // the real encoder via a live fleet is overkill here; instead we
        // only check the *pending* bookkeeping with an intent record that
        // has no prior Submit — it must be dropped (unknown scene), and
        // one with a live entry must move it.
        w.append(WalRecordKind::MigrateIntent, 99, 1, 5, b"0")
            .unwrap();
        w.sync().unwrap();
        let r = WalReplay::load(&dir).unwrap();
        // No Submit for scene 99: the intent refers to nothing durable,
        // so it resolves to "no live copy" — not a phantom scene.
        assert_eq!(r.rolled_forward, 0);
        assert!(r.live.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_intent_is_superseded_by_newer_epoch_record() {
        let dir = temp_dir("superseded");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        // Intent at epoch 3 for scene 4, then a Terminal at epoch 3: the
        // migration resolved (new owner finished); replay must not hold a
        // pending intent and must keep the terminal outcome.
        w.append(WalRecordKind::MigrateIntent, 4, 1, 3, b"0")
            .unwrap();
        w.append(
            WalRecordKind::Terminal,
            4,
            1,
            3,
            WalOutcome::Completed.encode(77).as_bytes(),
        )
        .unwrap();
        w.sync().unwrap();
        let r = WalReplay::load(&dir).unwrap();
        assert_eq!(r.rolled_forward, 0);
        assert_eq!(r.terminal[&4].fingerprint, 77);
        assert!(r.live.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn armed_io_faults_fire_once_then_clear() {
        let dir = temp_dir("io-fault");
        let mut w = WalWriter::create(WalConfig::new(&dir)).unwrap();
        w.arm_io_fault(WalIoOp::Sync, 1);
        w.sync().unwrap(); // countdown: survives one sync...
        match w.sync() {
            Err(WalError::Io(_)) => {}
            other => panic!("expected injected Io error, got {other:?}"),
        }
        w.sync().unwrap(); // ...and the fault is spent.

        w.arm_io_fault(WalIoOp::Append, 0);
        match w.append(
            WalRecordKind::Terminal,
            0,
            0,
            0,
            WalOutcome::Completed.encode(0).as_bytes(),
        ) {
            Err(WalError::Io(_)) => {}
            other => panic!("expected injected append error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
