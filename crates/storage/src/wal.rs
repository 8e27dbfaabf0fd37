//! Write-ahead log: redo records, group commit, recovery replay,
//! checkpoints, and snapshot reads.
//!
//! # Why a log
//!
//! A page format can survive torn writes by itself — write every page
//! twice and never overwrite the live copy, as this store's first format
//! did. That buys crash safety per page but not *ordering* across pages: an evicted dirty page could reach
//! the file before a logically earlier page, so a crash could persist a
//! queue-ack page whose covering delivery-log append was still in memory
//! (the wire tier's old "lost fire" gap). The WAL inverts the discipline:
//!
//! * Dirty pages are **never** written to the page file by the pool.
//!   Flushes append redo records (page images or sub-page deltas) here.
//! * A **commit frame** seals everything appended since the previous one.
//!   Recovery replays exactly the committed prefix; an uncommitted tail —
//!   including every eviction since the last commit — is discarded whole.
//! * The page file is only written at **checkpoint**, from sealed frames
//!   that are already durable. That *is* the WAL invariant ("no dirty page
//!   write before its log records are durable") — by construction rather
//!   than by a flag on each page.
//!
//! Durability therefore advances atomically at commit boundaries: after a
//! crash the store is some committed prefix, never an interleaving of
//! individual page writes. The ack-before-append gap closes because the
//! ack page and the delivery-log page are sealed by the same commit frame.
//!
//! # Group commit
//!
//! [`Wal::make_durable`] is the paper-motivated amortization point (§4.3's
//! batched update processing): one `fdatasync` covers every commit sealed
//! before it, and concurrent committers piggyback on whichever thread
//! currently has the sync in flight instead of issuing their own. The
//! `group_commits / fsyncs` ratio in [`WalStats`] is the measured win.
//!
//! # Frame format
//!
//! ```text
//! header:  "TMANWAL1" ‖ page_size u32 LE ‖ zero padding      (32 bytes)
//! frame:   [ len u32 LE ][ body ][ crc u64 LE ]
//! body:    kind u8 ‖ pid u32 LE ‖ seq u64 LE ‖ payload
//!          kind 1 = full page image   (payload: PAGE_SIZE bytes)
//!          kind 2 = delta             (payload: run list, see below)
//!          kind 3 = commit            (payload: empty, seq = commit seq)
//! ```
//!
//! `crc` chains: it hashes the *previous* frame's crc along with `len` and
//! `body`, so stale bytes left over from a torn append can never parse as
//! a valid continuation. The scan stops at the first invalid frame; the
//! committed range ends at the last valid commit frame before that.
//!
//! The **first** record for a page in each log generation is always a full
//! image — replay never reads the page file, so a torn checkpoint write
//! cannot poison a delta base. Later records for the same page may be
//! delta runs (`count u16`, then `off u16 ‖ len u16 ‖ bytes` per run)
//! against the previous record's resulting image.
//!
//! # Snapshot reads
//!
//! The in-memory page-version history that backs replay doubles as an
//! MVCC-ish read path: a [`Snapshot`] pins the current sealed commit seq
//! and reads the newest sealed version at-or-below it, falling back to the
//! page file (which only ever holds checkpointed, i.e. older, data — the
//! checkpoint stashes a pre-image when an active snapshot still needs
//! one). Pending frames are invisible, so a reader opened mid-group-commit
//! never observes a torn multi-page update, and never blocks behind the
//! committers' fsync.

use crate::disk::{DiskManager, PageId, PAGE_SIZE};
use crate::fault::{FaultKind, FaultPlan};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use tman_common::fxhash::FxHashMap;
use tman_common::stats::WalStats;
use tman_common::{Result, TmanError};

/// Log header: magic + page size, padded so frames start aligned-ish.
const WAL_HEADER: u64 = 32;
const WAL_MAGIC: [u8; 8] = *b"TMANWAL1";

const K_IMAGE: u8 = 1;
const K_DELTA: u8 = 2;
const K_COMMIT: u8 = 3;

/// Frame body overhead: kind + pid + seq.
const BODY_HEADER: usize = 13;

/// Seq tag for frames appended but not yet sealed by a commit.
const PENDING: u64 = u64::MAX;

/// Largest legal frame body; anything bigger terminates the scan.
const MAX_BODY: usize = BODY_HEADER + PAGE_SIZE;

type PageImage = Arc<[u8; PAGE_SIZE]>;

/// Tuning knobs for the log.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Auto-checkpoint once the log grows past this many bytes (the
    /// explicit [`crate::Storage::checkpoint`] always checkpoints).
    pub checkpoint_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            checkpoint_bytes: 1 << 20,
        }
    }
}

struct WalCore {
    file: File,
    append_off: u64,
    prev_crc: u64,
    /// Per-page version history, oldest first. Sealed entries carry their
    /// commit seq; at most one trailing [`PENDING`] entry per page.
    index: FxHashMap<u32, Vec<(u64, PageImage)>>,
    /// Pages with a pending entry awaiting the next commit frame.
    pending: Vec<u32>,
    next_seq: u64,
    /// Highest commit seq sealed (commit frame written).
    sealed_seq: u64,
    /// Bytes appended since the last checkpoint/truncation.
    bytes: u64,
    /// Pages that already have a full image in this log generation —
    /// eligible for delta encoding.
    logged_this_gen: HashSet<u32>,
}

struct SyncState {
    /// Highest commit seq covered by a completed fsync.
    durable_seq: u64,
    /// A thread currently has an fsync in flight; others piggyback.
    syncing: bool,
}

/// The write-ahead log attached to a file-backed store.
pub struct Wal {
    core: Mutex<WalCore>,
    sync_state: StdMutex<SyncState>,
    sync_cond: Condvar,
    /// Cloned handle so fsync never contends with appends on the core lock.
    sync_file: File,
    /// Active snapshot seqs → refcount; checkpoint pruning consults this.
    snaps: Mutex<BTreeMap<u64, usize>>,
    /// Committed images scanned at open, consumed by [`replay_into`](Self::replay_into).
    recovered: Mutex<Option<(Vec<RecoveredPage>, u64)>>,
    stats: WalStats,
    plan: Option<FaultPlan>,
    cfg: WalConfig,
}

/// One page's committed image, as scanned at open.
type RecoveredPage = (PageId, Box<[u8; PAGE_SIZE]>);

fn chain_crc(prev: u64, len: u32, body: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ prev;
    for &b in len.to_le_bytes().iter().chain(body.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn encode_body(kind: u8, pid: PageId, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(BODY_HEADER + payload.len());
    b.push(kind);
    b.extend_from_slice(&pid.0.to_le_bytes());
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(payload);
    b
}

/// Diff `new` against `base` into a run list, or `None` when a full image
/// is the better (or only safe) encoding. Runs closer than 8 bytes merge.
fn diff_runs(base: &[u8; PAGE_SIZE], new: &[u8; PAGE_SIZE]) -> Option<Vec<u8>> {
    const MERGE_GAP: usize = 8;
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut total = 2usize;
    let mut i = 0;
    while i < PAGE_SIZE {
        if base[i] == new[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut last_diff = i;
        i += 1;
        while i < PAGE_SIZE && i - last_diff <= MERGE_GAP {
            if base[i] != new[i] {
                last_diff = i;
            }
            i += 1;
        }
        let len = last_diff + 1 - start;
        total += 4 + len;
        if total >= PAGE_SIZE / 2 {
            return None; // not worth it; full image is simpler and safer
        }
        runs.push((start, len));
    }
    let mut payload = Vec::with_capacity(total);
    payload.extend_from_slice(&(runs.len() as u16).to_le_bytes());
    for (off, len) in runs {
        payload.extend_from_slice(&(off as u16).to_le_bytes());
        payload.extend_from_slice(&(len as u16).to_le_bytes());
        payload.extend_from_slice(&new[off..off + len]);
    }
    Some(payload)
}

/// Apply a delta run list to `img`; `false` on malformed payload.
fn apply_runs(img: &mut [u8; PAGE_SIZE], payload: &[u8]) -> bool {
    if payload.len() < 2 {
        return false;
    }
    let count = u16::from_le_bytes(payload[0..2].try_into().unwrap()) as usize;
    let mut cur = 2usize;
    for _ in 0..count {
        if cur + 4 > payload.len() {
            return false;
        }
        let off = u16::from_le_bytes(payload[cur..cur + 2].try_into().unwrap()) as usize;
        let len = u16::from_le_bytes(payload[cur + 2..cur + 4].try_into().unwrap()) as usize;
        cur += 4;
        if off + len > PAGE_SIZE || cur + len > payload.len() {
            return false;
        }
        img[off..off + len].copy_from_slice(&payload[cur..cur + len]);
        cur += len;
    }
    cur == payload.len()
}

struct ScanFrame {
    kind: u8,
    pid: u32,
    payload: Vec<u8>,
}

/// Parse the log tail: valid frames in order, the committed prefix length
/// (frames up to and including the last valid commit), and the last commit
/// seq. Stops at the first frame that fails the length or chained-crc
/// check — everything after a torn append is unreachable garbage.
fn scan_frames(buf: &[u8]) -> (Vec<ScanFrame>, usize, u64) {
    let mut frames = Vec::new();
    let mut committed_upto = 0usize;
    let mut last_seq = 0u64;
    let mut prev_crc = 0u64;
    let mut off = 0usize;
    loop {
        if off + 4 > buf.len() {
            break;
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        if !(BODY_HEADER..=MAX_BODY).contains(&len) || off + 4 + len + 8 > buf.len() {
            break;
        }
        let body = &buf[off + 4..off + 4 + len];
        let stored = u64::from_le_bytes(buf[off + 4 + len..off + 4 + len + 8].try_into().unwrap());
        let crc = chain_crc(prev_crc, len as u32, body);
        if crc != stored {
            break;
        }
        prev_crc = crc;
        let kind = body[0];
        let pid = u32::from_le_bytes(body[1..5].try_into().unwrap());
        let seq = u64::from_le_bytes(body[5..13].try_into().unwrap());
        frames.push(ScanFrame {
            kind,
            pid,
            payload: body[BODY_HEADER..].to_vec(),
        });
        off += 4 + len + 8;
        if kind == K_COMMIT {
            committed_upto = frames.len();
            last_seq = seq;
        }
    }
    (frames, committed_upto, last_seq)
}

impl Wal {
    /// Open (or create) the log at `path` and scan it. Committed records
    /// found by the scan are held until [`replay_into`](Self::replay_into)
    /// applies them; the caller must replay before appending.
    pub fn open(path: &Path, plan: Option<FaultPlan>, cfg: WalConfig) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut header_ok = false;
        if len >= WAL_HEADER {
            let mut magic = [0u8; 8];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut magic)?;
            header_ok = magic == WAL_MAGIC;
        }
        if !header_ok {
            // Fresh (or unrecognizable) log: stamp a clean header. An
            // unrecognizable header means there is no usable redo data.
            file.set_len(0)?;
            let mut h = [0u8; WAL_HEADER as usize];
            h[..8].copy_from_slice(&WAL_MAGIC);
            h[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&h)?;
            file.sync_data()?;
        }
        // Scan the tail for committed redo records.
        file.seek(SeekFrom::Start(WAL_HEADER))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (frames, committed_upto, last_seq) = scan_frames(&buf);
        let mut working: FxHashMap<u32, Box<[u8; PAGE_SIZE]>> = FxHashMap::default();
        let mut records = 0u64;
        for f in &frames[..committed_upto] {
            match f.kind {
                K_IMAGE if f.payload.len() == PAGE_SIZE => {
                    let mut img = Box::new([0u8; PAGE_SIZE]);
                    img.copy_from_slice(&f.payload);
                    working.insert(f.pid, img);
                    records += 1;
                }
                K_DELTA => {
                    // A delta without a base in this scan means its base
                    // image was lost to a dropped write: skip the page
                    // (dropped-write semantics) rather than guess.
                    if let Some(img) = working.get_mut(&f.pid) {
                        if apply_runs(img, &f.payload) {
                            records += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        let mut images: Vec<RecoveredPage> = working
            .into_iter()
            .map(|(p, img)| (PageId(p), img))
            .collect();
        images.sort_by_key(|(p, _)| *p);
        let sync_file = file.try_clone()?;
        Ok(Wal {
            core: Mutex::new(WalCore {
                file,
                append_off: WAL_HEADER,
                prev_crc: 0,
                index: FxHashMap::default(),
                pending: Vec::new(),
                next_seq: last_seq + 1,
                sealed_seq: last_seq,
                bytes: 0,
                logged_this_gen: HashSet::new(),
            }),
            sync_state: StdMutex::new(SyncState {
                durable_seq: last_seq,
                syncing: false,
            }),
            sync_cond: Condvar::new(),
            sync_file,
            snaps: Mutex::new(BTreeMap::new()),
            recovered: Mutex::new(Some((images, records))),
            stats: WalStats::default(),
            plan,
            cfg,
        })
    }

    /// Counters for this log.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Bytes appended since the last checkpoint.
    pub fn bytes(&self) -> u64 {
        self.core.lock().bytes
    }

    /// Highest sealed commit seq.
    pub fn sealed_seq(&self) -> u64 {
        self.core.lock().sealed_seq
    }

    /// True once the log has outgrown [`WalConfig::checkpoint_bytes`].
    pub fn needs_checkpoint(&self) -> bool {
        let core = self.core.lock();
        core.bytes >= self.cfg.checkpoint_bytes
    }

    /// Write the committed images found at open into the page file, sync
    /// it, and truncate the log. Idempotent: replaying the same log twice
    /// rewrites the same images. Returns the number of records applied.
    pub fn replay_into(&self, disk: &DiskManager) -> Result<u64> {
        let Some((images, records)) = self.recovered.lock().take() else {
            return Ok(0);
        };
        for (pid, img) in &images {
            while disk.num_pages() <= pid.0 {
                disk.allocate()?;
            }
            let mut last = None;
            for _ in 0..3 {
                match disk.write_page(*pid, img) {
                    Ok(()) => {
                        last = None;
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            if let Some(e) = last {
                return Err(e);
            }
        }
        if !images.is_empty() {
            disk.sync()?;
        }
        self.stats.replayed_records.add(records);
        self.truncate_log(&mut self.core.lock())?;
        Ok(records)
    }

    /// Write one frame at the append offset, drawing a fault decision.
    /// `Ok(true)` = frame is on disk; `Ok(false)` = a dropped-sync fault
    /// silently lost it (offset and crc chain unchanged, so the log stays
    /// scannable); `Err` = nothing usable was appended (a torn prefix may
    /// exist, but the next append overwrites it and the chained crc keeps
    /// it unreachable).
    fn write_frame(&self, core: &mut WalCore, body: &[u8]) -> Result<bool> {
        if self.plan.as_ref().is_some_and(|p| p.frozen()) {
            return Err(TmanError::Io("simulated crash: disk frozen".into()));
        }
        let len = body.len() as u32;
        let crc = chain_crc(core.prev_crc, len, body);
        let mut frame = Vec::with_capacity(body.len() + 12);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(body);
        frame.extend_from_slice(&crc.to_le_bytes());
        let fault = self.plan.as_ref().and_then(|p| p.decide_write(frame.len()));
        match fault {
            None => {
                core.file.seek(SeekFrom::Start(core.append_off))?;
                core.file.write_all(&frame)?;
                core.append_off += frame.len() as u64;
                core.prev_crc = crc;
                core.bytes += frame.len() as u64;
                self.stats.bytes.add(frame.len() as u64);
                Ok(true)
            }
            Some(f) => match f.kind {
                FaultKind::DroppedSync => Ok(false),
                FaultKind::TransientError => {
                    Err(TmanError::Io("injected transient log append error".into()))
                }
                FaultKind::TornWrite | FaultKind::ShortWrite | FaultKind::Crash => {
                    let tear = f.tear_at.min(frame.len());
                    core.file.seek(SeekFrom::Start(core.append_off))?;
                    core.file.write_all(&frame[..tear])?;
                    Err(TmanError::Io(format!(
                        "injected torn log append at byte {tear}"
                    )))
                }
            },
        }
    }

    /// Append a redo record for `pid`. The image also becomes the page's
    /// newest (pending) version in the in-memory index, so pool misses and
    /// later snapshots read it without touching the page file.
    pub fn append_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        let mut core = self.core.lock();
        let delta = if core.logged_this_gen.contains(&pid.0) {
            core.index
                .get(&pid.0)
                .and_then(|v| v.last())
                .and_then(|(_, base)| diff_runs(base, data))
        } else {
            None
        };
        let body = match &delta {
            Some(runs) => encode_body(K_DELTA, pid, 0, runs),
            None => encode_body(K_IMAGE, pid, 0, data),
        };
        let written = self.write_frame(&mut core, &body)?;
        if written {
            self.stats.appends.bump();
            core.logged_this_gen.insert(pid.0);
        } else {
            // Dropped write: the on-disk log no longer matches the index
            // for this page, so the next append must re-seed a full image.
            core.logged_this_gen.remove(&pid.0);
        }
        let img: PageImage = Arc::new(*data);
        let versions = core.index.entry(pid.0).or_default();
        match versions.last_mut() {
            Some(e) if e.0 == PENDING => e.1 = img,
            _ => {
                versions.push((PENDING, img));
                core.pending.push(pid.0);
            }
        }
        Ok(())
    }

    /// Seal everything appended since the last commit frame. Returns the
    /// sealed seq (unchanged if nothing was pending). Does **not** fsync —
    /// pair with [`make_durable`](Self::make_durable).
    pub fn commit_stage(&self) -> Result<u64> {
        let mut core = self.core.lock();
        self.commit_stage_locked(&mut core)
    }

    fn commit_stage_locked(&self, core: &mut WalCore) -> Result<u64> {
        if core.pending.is_empty() {
            return Ok(core.sealed_seq);
        }
        let seq = core.next_seq;
        let body = encode_body(K_COMMIT, PageId(0), seq, &[]);
        // A dropped-sync here is a lying commit: sealed in memory, missing
        // on disk — replay discards the batch, which is exactly what the
        // fault means. Torn/transient leave everything pending for retry.
        self.write_frame(core, &body)?;
        core.next_seq += 1;
        core.sealed_seq = seq;
        let pending = std::mem::take(&mut core.pending);
        let snaps = self.snaps.lock();
        for pid in pending {
            if let Some(versions) = core.index.get_mut(&pid) {
                if let Some(last) = versions.last_mut() {
                    if last.0 == PENDING {
                        last.0 = seq;
                    }
                }
                let keep = keep_mask(versions, &snaps, true);
                let mut it = keep.into_iter();
                versions.retain(|_| it.next().unwrap());
            }
        }
        Ok(seq)
    }

    /// Block until commit `target_seq` is covered by an fsync. One thread
    /// syncs; concurrent callers piggyback on its barrier (the group
    /// commit). Records the wait in `group_commit_ns` either way.
    pub fn make_durable(&self, target_seq: u64) -> Result<()> {
        let start = std::time::Instant::now();
        let mut was_syncer = false;
        let mut ss = self.sync_state.lock().expect("sync_state poisoned");
        loop {
            if ss.durable_seq >= target_seq {
                drop(ss);
                self.stats
                    .group_commit_ns
                    .record(start.elapsed().as_nanos() as u64);
                if !was_syncer && target_seq > 0 {
                    self.stats.group_commits.bump();
                }
                return Ok(());
            }
            if !ss.syncing {
                ss.syncing = true;
                was_syncer = true;
                drop(ss);
                let cover = self.core.lock().sealed_seq;
                let res = self.fsync_log();
                ss = self.sync_state.lock().expect("sync_state poisoned");
                ss.syncing = false;
                if let Err(e) = res {
                    self.sync_cond.notify_all();
                    return Err(e);
                }
                if ss.durable_seq < cover {
                    ss.durable_seq = cover;
                }
                self.sync_cond.notify_all();
            } else {
                ss = self.sync_cond.wait(ss).expect("sync_state poisoned");
            }
        }
    }

    /// One real fsync of the log file, through the fault plan.
    fn fsync_log(&self) -> Result<()> {
        if self.plan.as_ref().is_some_and(|p| p.frozen()) {
            return Err(TmanError::Io("simulated crash: disk frozen".into()));
        }
        match self.plan.as_ref().and_then(|p| p.decide_sync()) {
            None => {}
            Some(FaultKind::TransientError) => {
                return Err(TmanError::Io("injected transient log fsync error".into()));
            }
            Some(_) => {
                return Err(TmanError::Io("simulated crash: disk frozen".into()));
            }
        }
        self.sync_file.sync_data()?;
        self.stats.fsyncs.bump();
        Ok(())
    }

    /// Newest logged image of `pid` (pending included), for pool misses:
    /// the log index is always at least as new as the page file.
    pub fn latest_image(&self, pid: PageId) -> Option<PageImage> {
        self.core
            .lock()
            .index
            .get(&pid.0)
            .and_then(|v| v.last())
            .map(|(_, img)| img.clone())
    }

    /// Pin the current sealed seq for consistent reads. `disk` is the
    /// page-file fallback for pages with no logged version.
    pub fn snapshot(self: &Arc<Self>, disk: Arc<DiskManager>) -> Snapshot {
        // Register under the core lock (core → snaps, the same order the
        // commit and checkpoint pruners use): a commit sneaking between
        // reading `sealed_seq` and registering could otherwise prune the
        // very versions this snapshot pins.
        let core = self.core.lock();
        let seq = core.sealed_seq;
        *self.snaps.lock().entry(seq).or_insert(0) += 1;
        drop(core);
        Snapshot {
            wal: self.clone(),
            disk,
            seq,
        }
    }

    fn truncate_log(&self, core: &mut WalCore) -> Result<()> {
        if core.file.metadata()?.len() > WAL_HEADER {
            core.file.set_len(WAL_HEADER)?;
            core.file.sync_data()?;
        }
        core.append_off = WAL_HEADER;
        core.prev_crc = 0;
        core.bytes = 0;
        core.logged_this_gen.clear();
        Ok(())
    }

    /// Checkpoint: seal and fsync anything still pending, write each
    /// page's newest sealed image into the page file (stashing pre-images
    /// active snapshots still need), sync it, and truncate the log. Holds
    /// the core lock throughout, so no append can race the truncation.
    ///
    /// Page-file writes happen strictly after the covering log records are
    /// durable — the WAL invariant, enforced here and only here because
    /// this is the only place the pool's data reaches the page file.
    pub fn checkpoint_into(&self, disk: &DiskManager) -> Result<()> {
        let mut core = self.core.lock();
        if core.bytes == 0 && core.pending.is_empty() {
            return Ok(()); // nothing since the last checkpoint
        }
        self.commit_stage_locked(&mut core)?;
        // Log durability before any page-file write.
        {
            let durable = self
                .sync_state
                .lock()
                .expect("sync_state poisoned")
                .durable_seq;
            if durable < core.sealed_seq {
                self.fsync_log()?;
                let mut ss = self.sync_state.lock().expect("sync_state poisoned");
                if ss.durable_seq < core.sealed_seq {
                    ss.durable_seq = core.sealed_seq;
                }
                self.sync_cond.notify_all();
            }
        }
        let snaps = self.snaps.lock();
        let mut pids: Vec<u32> = core.index.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            let versions = core.index.get(&pid).expect("indexed page");
            let Some((newest_seq, newest_img)) = versions
                .iter()
                .rev()
                .find(|(s, _)| *s != PENDING)
                .map(|(s, i)| (*s, i.clone()))
            else {
                continue;
            };
            // Decide retention and pre-image stashing *before* mutating,
            // so an aborted write-back leaves the index intact.
            let mut keep = keep_mask(versions, &snaps, false);
            let oldest_kept = versions
                .iter()
                .zip(keep.iter())
                .find(|(_, k)| **k)
                .map(|((s, _), _)| *s);
            let stash = match snaps.keys().next() {
                Some(&min_s) if min_s < newest_seq && oldest_kept.is_none_or(|s| s > min_s) => {
                    // Some snapshot predates every retained version: it
                    // reads the page file, which this write-back is about
                    // to overwrite. Capture the pre-image at seq 0 (below
                    // every real commit seq) first.
                    if pid < disk.num_pages() {
                        let mut pre = Box::new([0u8; PAGE_SIZE]);
                        disk.read_page(PageId(pid), &mut pre).ok().map(|_| pre)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if stash.is_some() {
                // A stash at seq 0 shadows the page-file fallback for
                // *newer* pins too (read_page picks the newest indexed
                // version ≤ pin), so the image this write-back puts in the
                // page file must stay indexed alongside it — otherwise a
                // snapshot pinned at `newest_seq` would match the stash and
                // read the pre-image.
                if let Some(ni) = versions.iter().rposition(|(s, _)| *s != PENDING) {
                    keep[ni] = true;
                }
            }
            while disk.num_pages() <= pid {
                disk.allocate()?;
            }
            let mut last = None;
            for _ in 0..3 {
                match disk.write_page(PageId(pid), &newest_img) {
                    Ok(()) => {
                        last = None;
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            if let Some(e) = last {
                return Err(e); // abort: log untouched, index untouched
            }
            let versions = core.index.get_mut(&pid).expect("indexed page");
            let mut it = keep.into_iter();
            versions.retain(|_| it.next().unwrap());
            if let Some(pre) = stash {
                versions.insert(0, (0, Arc::new(*pre)));
            }
        }
        drop(snaps);
        core.index.retain(|_, v| !v.is_empty());
        disk.sync()?;
        self.truncate_log(&mut core)?;
        self.stats.checkpoints.bump();
        Ok(())
    }
}

/// Which versions of one page to retain. A sealed version is needed when
/// some active snapshot sits between it and its successor; pending entries
/// are always kept. `seal` mode keeps the newest sealed version
/// unconditionally (the page file does not have it yet); checkpoint mode
/// keeps it only when an older version is also retained — otherwise the
/// just-written page file serves every newer reader, and dropping it is
/// what lets the history shrink to nothing when no snapshots are active.
fn keep_mask(versions: &[(u64, PageImage)], snaps: &BTreeMap<u64, usize>, seal: bool) -> Vec<bool> {
    let n = versions.len();
    let mut keep = vec![false; n];
    let newest = (0..n).rev().find(|&i| versions[i].0 != PENDING);
    for i in 0..n {
        if versions[i].0 == PENDING {
            keep[i] = true;
            continue;
        }
        if Some(i) == newest {
            continue;
        }
        let succ = versions[i + 1..]
            .iter()
            .map(|e| e.0)
            .find(|&s| s != PENDING)
            .unwrap_or(u64::MAX);
        if snaps.range(versions[i].0..succ).next().is_some() {
            keep[i] = true;
        }
    }
    if let Some(ni) = newest {
        // Without this, a *new* snapshot would read a retained older
        // version as "newest ≤ seq" and miss the current page content.
        keep[ni] = seal || keep.iter().take(ni).any(|&k| k);
    }
    keep
}

/// A consistent read view pinned at one sealed commit seq. Readers never
/// see pending (uncommitted) frames and never block behind group commit.
/// Dropping the snapshot releases its version pins.
pub struct Snapshot {
    wal: Arc<Wal>,
    disk: Arc<DiskManager>,
    seq: u64,
}

impl Snapshot {
    /// The sealed commit seq this view is pinned at.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Read `pid` as of this snapshot: the newest sealed version at or
    /// below the pinned seq, else the page file (which checkpoints keep
    /// valid for us via pre-image stashing).
    pub fn read_page(&self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        let core = self.wal.core.lock();
        if let Some(versions) = core.index.get(&pid.0) {
            if let Some((_, img)) = versions
                .iter()
                .rev()
                .find(|(s, _)| *s != PENDING && *s <= self.seq)
            {
                buf.copy_from_slice(&img[..]);
                return Ok(());
            }
        }
        // Fallback under the core lock so a concurrent checkpoint cannot
        // overwrite the page between the decision and the read.
        self.disk.read_page(pid, buf)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.wal.snaps.lock();
        if let Some(c) = snaps.get_mut(&self.seq) {
            *c -= 1;
            if *c == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tman_wal_{tag}_{}.wal", std::process::id()))
    }

    fn db_tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tman_wal_{tag}_{}.db", std::process::id()))
    }

    fn page(fill: u8) -> [u8; PAGE_SIZE] {
        [fill; PAGE_SIZE]
    }

    fn open_wal(path: &Path, plan: Option<FaultPlan>) -> Wal {
        let w = Wal::open(path, plan, WalConfig::default()).unwrap();
        // Tests that don't exercise replay still need the open-scan state
        // consumed before appending.
        let disk = DiskManager::open_memory();
        w.replay_into(&disk).unwrap();
        w
    }

    #[test]
    fn committed_records_replay_byte_exact() {
        let (wp, dp) = (tmp("replay"), db_tmp("replay"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p1 = disk.allocate().unwrap();
        let p2 = disk.allocate().unwrap();
        {
            let wal = open_wal(&wp, None);
            wal.append_page(p1, &page(0x11)).unwrap();
            wal.append_page(p2, &page(0x22)).unwrap();
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
            // Page file untouched so far: that's the whole point.
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_page(p1, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
        }
        // "Crash": reopen the log and replay into the page file.
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        let replayed = wal.replay_into(&disk).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(wal.stats().replayed_records.get(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p1, &mut buf).unwrap();
        assert_eq!(buf, page(0x11));
        disk.read_page(p2, &mut buf).unwrap();
        assert_eq!(buf, page(0x22));
        // Replay truncated the log: a second open replays nothing.
        let wal2 = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal2.replay_into(&disk).unwrap(), 0);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let (wp, dp) = (tmp("tail"), db_tmp("tail"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p1 = disk.allocate().unwrap();
        let p2 = disk.allocate().unwrap();
        {
            let wal = open_wal(&wp, None);
            wal.append_page(p1, &page(0x33)).unwrap();
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
            wal.append_page(p2, &page(0x44)).unwrap(); // never committed
        }
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&disk).unwrap(), 1);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p1, &mut buf).unwrap();
        assert_eq!(buf, page(0x33));
        disk.read_page(p2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "uncommitted append discarded");
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn delta_encoding_roundtrips() {
        let (wp, dp) = (tmp("delta"), db_tmp("delta"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p = disk.allocate().unwrap();
        let bytes_after_full;
        {
            let wal = open_wal(&wp, None);
            let mut img = page(0x55);
            wal.append_page(p, &img).unwrap();
            bytes_after_full = wal.bytes();
            // Small change: second frame should be a delta, much smaller.
            img[100] = 0xAA;
            img[3000] = 0xBB;
            wal.append_page(p, &img).unwrap();
            let delta_bytes = wal.bytes() - bytes_after_full;
            assert!(
                delta_bytes < 200,
                "expected a sub-page delta frame, got {delta_bytes} bytes"
            );
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
        }
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&disk).unwrap(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        let mut want = page(0x55);
        want[100] = 0xAA;
        want[3000] = 0xBB;
        assert_eq!(buf, want, "image + delta replayed byte-exact");
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn torn_append_is_overwritten_by_retry() {
        let (wp, dp) = (tmp("torn"), db_tmp("torn"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p = disk.allocate().unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            torn_per_mille: 1000,
            ..Default::default()
        });
        {
            let wal = open_wal(&wp, Some(plan.clone()));
            plan.arm();
            assert!(wal.append_page(p, &page(0x66)).is_err(), "torn append");
            plan.disarm();
            wal.append_page(p, &page(0x77)).unwrap(); // overwrites the tear
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
        }
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&disk).unwrap(), 1);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x77));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn checkpoint_writes_back_and_truncates() {
        let (wp, dp) = (tmp("ckpt"), db_tmp("ckpt"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p = disk.allocate().unwrap();
        let wal = open_wal(&wp, None);
        wal.append_page(p, &page(0x88)).unwrap();
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        wal.checkpoint_into(&disk).unwrap();
        assert_eq!(wal.stats().checkpoints.get(), 1);
        assert_eq!(wal.bytes(), 0);
        assert_eq!(
            std::fs::metadata(&wp).unwrap().len(),
            WAL_HEADER,
            "log truncated to header"
        );
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x88), "checkpoint wrote the page back");
        // Nothing new: a second checkpoint is a no-op.
        wal.checkpoint_into(&disk).unwrap();
        assert_eq!(wal.stats().checkpoints.get(), 1);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn checkpoint_seals_pending_appends_first() {
        let (wp, dp) = (tmp("ckpt_pend"), db_tmp("ckpt_pend"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p = disk.allocate().unwrap();
        let wal = open_wal(&wp, None);
        wal.append_page(p, &page(0x99)).unwrap(); // pending, no commit
        wal.checkpoint_into(&disk).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x99));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let (wp, dp) = (tmp("group"), db_tmp("group"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = Arc::new(DiskManager::open_file(&dp).unwrap());
        let wal = Arc::new(open_wal(&wp, None));
        let mut pids = Vec::new();
        for _ in 0..8 {
            pids.push(disk.allocate().unwrap());
        }
        let threads: Vec<_> = pids
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for round in 0..20u8 {
                        wal.append_page(p, &page(i as u8 ^ round)).unwrap();
                        let seq = wal.commit_stage().unwrap();
                        wal.make_durable(seq).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let commits = 8 * 20u64;
        let fsyncs = wal.stats().fsyncs.get();
        assert!(fsyncs >= 1);
        assert!(
            fsyncs + wal.stats().group_commits.get() >= commits,
            "every commit either synced or piggybacked"
        );
        assert_eq!(wal.stats().group_commit_ns.count(), commits);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn snapshot_ignores_pending_and_later_commits() {
        let (wp, dp) = (tmp("snap"), db_tmp("snap"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = Arc::new(DiskManager::open_file(&dp).unwrap());
        let wal = Arc::new(open_wal(&wp, None));
        let p = disk.allocate().unwrap();
        wal.append_page(p, &page(0x10)).unwrap();
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        let snap = wal.snapshot(disk.clone());
        // A pending (uncommitted) append is invisible to the snapshot…
        wal.append_page(p, &page(0x20)).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        snap.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x10));
        // …and so is the next sealed commit.
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        snap.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x10));
        // A fresh snapshot sees the new commit.
        let snap2 = wal.snapshot(disk.clone());
        snap2.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x20));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn snapshot_survives_checkpoint_via_stash() {
        let (wp, dp) = (tmp("snap_ckpt"), db_tmp("snap_ckpt"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = Arc::new(DiskManager::open_file(&dp).unwrap());
        let wal = Arc::new(open_wal(&wp, None));
        let p = disk.allocate().unwrap();
        // Commit v1, checkpoint it into the page file, prune history.
        wal.append_page(p, &page(0x31)).unwrap();
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        wal.checkpoint_into(&disk).unwrap();
        // Snapshot now reads v1 from the page file (no logged versions).
        let snap = wal.snapshot(disk.clone());
        // Commit v2 and checkpoint again: the write-back must stash the
        // v1 pre-image for the live snapshot before overwriting.
        wal.append_page(p, &page(0x32)).unwrap();
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        wal.checkpoint_into(&disk).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x32), "page file has v2");
        snap.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x31), "snapshot still reads v1");
        drop(snap);
        // With the snapshot gone the next checkpoint clears the stash.
        wal.append_page(p, &page(0x33)).unwrap();
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        wal.checkpoint_into(&disk).unwrap();
        assert!(wal.latest_image(p).is_none(), "history fully pruned");
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn dropped_commit_frame_loses_batch_cleanly() {
        let (wp, dp) = (tmp("dropc"), db_tmp("dropc"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file(&dp).unwrap();
        let p = disk.allocate().unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            dropped_sync_per_mille: 1000,
            ..Default::default()
        });
        {
            let wal = open_wal(&wp, Some(plan.clone()));
            wal.append_page(p, &page(0x41)).unwrap();
            plan.arm();
            // Commit frame silently dropped: sealed in memory, gone on disk.
            let seq = wal.commit_stage().unwrap();
            plan.disarm();
            wal.make_durable(seq).unwrap();
        }
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&disk).unwrap(), 0, "lying commit lost");
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    #[test]
    fn diff_runs_apply_runs_roundtrip() {
        let base = page(0x00);
        let mut new = base;
        new[0] = 1;
        new[5] = 2; // merges with run at 0 (gap < 8)
        new[2000] = 3;
        new[PAGE_SIZE - 1] = 4;
        let payload = diff_runs(&base, &new).expect("small diff encodes");
        let mut img = base;
        assert!(apply_runs(&mut img, &payload));
        assert_eq!(img, new);
        // Identical pages: empty run list still roundtrips.
        let payload = diff_runs(&new, &new).unwrap();
        let mut img = new;
        assert!(apply_runs(&mut img, &payload));
        assert_eq!(img, new);
        // A mostly-different page refuses delta encoding.
        assert!(diff_runs(&page(0x00), &page(0xFF)).is_none());
    }
}
