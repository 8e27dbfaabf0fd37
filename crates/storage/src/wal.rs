//! Write-ahead log: redo records, group commit, recovery replay and
//! checkpoints.
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
//! header:  "TMANWAL1" ‖ page_size u32 LE ‖ salt u64 LE ‖ zero padding  (32 bytes)
//! frame:   [ len u32 LE ][ body ][ crc u64 LE ]
//! body:    kind u8 ‖ pid u32 LE ‖ seq u64 LE ‖ payload
//!          kind 1 = full page image   (payload: PAGE_SIZE bytes)
//!          kind 2 = delta             (payload: run list, see below)
//!          kind 3 = commit            (payload: empty, seq = commit seq)
//! ```
//!
//! `crc` chains: it hashes the *previous* frame's crc along with `len` and
//! `body`, and the first frame's "previous crc" is the header's salt. So
//! stale bytes left over from a torn append can never parse as a valid
//! continuation. The scan stops at the first invalid frame; the committed
//! range ends at the last valid commit frame before that.
//!
//! # Reset, not truncate
//!
//! A checkpoint (and a replay at open) empties the log by writing a new
//! salt into the header — SQLite's WAL reset. The next generation's frames
//! overwrite the last one's from the start of the file, and every frame
//! left over from an earlier generation fails the chain under the new
//! salt. The file keeps its high-water length, so a commit's `fdatasync`
//! never has to journal a size change, and the reset itself pays no sync:
//! the header write reaches the disk with the next commit's `fdatasync`.
//! A log from before the salt has zeros there, which is salt 0: it scans
//! and replays as it always did. An open that finds no committed frame
//! under the header's salt writes nothing.
//!
//! Until that next `fdatasync`, a power loss may leave the old header on
//! disk. The old generation then replays over a page file that the
//! checkpoint already brought up to it, which changes nothing — unless
//! the disk wrote back some of the new generation's blocks but not the
//! earlier ones that follow the header, which can cut the old generation
//! short of its end. SQLite's `synchronous=FULL` syncs the header at reset
//! to close that window; this log does not (see DESIGN.md).
//!
//! The **first** record for a page in each log generation is always a full
//! image — replay never reads the page file, so a torn checkpoint write
//! cannot poison a delta base. Later records for the same page may be
//! delta runs (`count u16`, then `off u16 ‖ len u16 ‖ bytes` per run)
//! against the previous record's resulting image.
//!
//! # One image per page
//!
//! The log's in-memory index keeps one image per page: the newest append,
//! pending or sealed. A pool miss reads it ([`Wal::latest_image`]) and a
//! checkpoint writes it back; nothing reads an older version, so none is
//! kept.

use crate::disk::{DiskManager, PageId, PAGE_SIZE};
use crate::fault::{FaultKind, FaultPlan};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use tman_common::fxhash::FxHashMap;
use tman_common::stats::WalStats;
use tman_common::{Result, TmanError};
use tman_sync::Mutex;

/// Log header: magic + page size + salt, padded so frames start
/// aligned-ish.
const WAL_HEADER: u64 = 32;
const WAL_MAGIC: [u8; 8] = *b"TMANWAL1";
/// Where the salt sits in the header.
const SALT_AT: usize = 12;

const K_IMAGE: u8 = 1;
const K_DELTA: u8 = 2;
const K_COMMIT: u8 = 3;

/// Frame body overhead: kind + pid + seq.
const BODY_HEADER: usize = 13;

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
    /// This generation's salt: the first frame's chain seed.
    salt: u64,
    /// The header on disk may not carry `salt` yet: a reset's header write
    /// failed, so it is written again before the next frame.
    header_pending: bool,
    /// Each logged page's newest image, pending or sealed.
    index: FxHashMap<u32, PageImage>,
    /// Some append awaits the next commit frame.
    pending: bool,
    next_seq: u64,
    /// Highest commit seq sealed (commit frame written).
    sealed_seq: u64,
    /// Bytes appended since the last checkpoint or reset.
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
    /// Committed images scanned at open and the number of records behind
    /// them, consumed by [`replay_into`](Self::replay_into); `None` from
    /// the start when the scan found no commit frame.
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

/// The 32-byte log header for `salt`.
fn header(salt: u64) -> [u8; WAL_HEADER as usize] {
    let mut h = [0u8; WAL_HEADER as usize];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    h[SALT_AT..SALT_AT + 8].copy_from_slice(&salt.to_le_bytes());
    h
}

/// A salt for the generation after one salted `prev`, mixed with the
/// clock, so a generation lost with an unsynced header is not salted the
/// same way again.
fn next_salt(prev: u64) -> u64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    tman_common::rng::SplitMix64::new(prev ^ now).next_u64()
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
fn scan_frames(buf: &[u8], salt: u64) -> (Vec<ScanFrame>, usize, u64) {
    let mut frames = Vec::new();
    let mut committed_upto = 0usize;
    let mut last_seq = 0u64;
    let mut prev_crc = salt;
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
        let mut head = [0u8; WAL_HEADER as usize];
        if len >= WAL_HEADER {
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut head)?;
        }
        let salt = if head[..8] == WAL_MAGIC {
            u64::from_le_bytes(head[SALT_AT..SALT_AT + 8].try_into().unwrap())
        } else {
            // Fresh (or unrecognizable) log: stamp a clean header. An
            // unrecognizable header means there is no usable redo data.
            let salt = next_salt(0);
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header(salt))?;
            file.sync_data()?;
            salt
        };
        // Scan the tail for committed redo records.
        file.seek(SeekFrom::Start(WAL_HEADER))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (frames, committed_upto, last_seq) = scan_frames(&buf, salt);
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
                prev_crc: salt,
                salt,
                header_pending: false,
                index: FxHashMap::default(),
                pending: false,
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
            recovered: Mutex::new((committed_upto > 0).then_some((images, records))),
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

    /// True once the log has outgrown [`WalConfig::checkpoint_bytes`].
    pub(crate) fn needs_checkpoint(&self) -> bool {
        let core = self.core.lock();
        core.bytes >= self.cfg.checkpoint_bytes
    }

    /// Write the committed images found at open into the page file, sync
    /// it, and reset the log. Idempotent: replaying the same log twice
    /// rewrites the same images. Returns the number of records applied.
    /// A log with no committed frame is left as it is: nothing is written.
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
        self.reset_log(&mut self.core.lock());
        Ok(records)
    }

    /// Write `bytes` at `off`, drawing a fault decision. `Ok(true)` = on
    /// disk; `Ok(false)` = a dropped-sync fault silently lost it; `Err` =
    /// nothing usable was written (a torn prefix may exist).
    fn write_at(&self, file: &mut File, off: u64, bytes: &[u8]) -> Result<bool> {
        if self.plan.as_ref().is_some_and(|p| p.frozen()) {
            return Err(TmanError::Io("simulated crash: disk frozen".into()));
        }
        let fault = self.plan.as_ref().and_then(|p| p.decide_write(bytes.len()));
        let tear = match fault {
            None => bytes.len(),
            Some(f) => match f.kind {
                FaultKind::DroppedSync => return Ok(false),
                FaultKind::TransientError => {
                    return Err(TmanError::Io("injected transient log write error".into()))
                }
                FaultKind::TornWrite | FaultKind::ShortWrite | FaultKind::Crash => {
                    f.tear_at.min(bytes.len())
                }
            },
        };
        file.seek(SeekFrom::Start(off))?;
        file.write_all(&bytes[..tear])?;
        if tear < bytes.len() {
            return Err(TmanError::Io(format!(
                "injected torn log write at byte {tear}"
            )));
        }
        Ok(true)
    }

    /// Write the header for the current salt if a reset left it unwritten.
    fn write_pending_header(&self, core: &mut WalCore) -> Result<()> {
        if core.header_pending {
            self.write_at(&mut core.file, 0, &header(core.salt))?;
            core.header_pending = false;
        }
        Ok(())
    }

    /// Write one frame at the append offset, drawing a fault decision.
    /// `Ok(true)` = frame is on disk; `Ok(false)` = a dropped-sync fault
    /// silently lost it (offset and crc chain unchanged, so the log stays
    /// scannable); `Err` = nothing usable was appended (a torn prefix may
    /// exist, but the next append overwrites it and the chained crc keeps
    /// it unreachable).
    fn write_frame(&self, core: &mut WalCore, body: &[u8]) -> Result<bool> {
        self.write_pending_header(core)?;
        let len = body.len() as u32;
        let crc = chain_crc(core.prev_crc, len, body);
        let mut frame = Vec::with_capacity(body.len() + 12);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(body);
        frame.extend_from_slice(&crc.to_le_bytes());
        let written = self.write_at(&mut core.file, core.append_off, &frame)?;
        if written {
            core.append_off += frame.len() as u64;
            core.prev_crc = crc;
            core.bytes += frame.len() as u64;
            self.stats.bytes.add(frame.len() as u64);
        }
        Ok(written)
    }

    /// Append a redo record for `pid`. The image also replaces the page's
    /// entry in the in-memory index, so a pool miss reads it without
    /// touching the page file.
    pub fn append_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        let mut core = self.core.lock();
        let delta = if core.logged_this_gen.contains(&pid.0) {
            core.index
                .get(&pid.0)
                .and_then(|base| diff_runs(base, data))
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
        core.index.insert(pid.0, Arc::new(*data));
        core.pending = true;
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
        if !core.pending {
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
        core.pending = false;
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
    pub(crate) fn latest_image(&self, pid: PageId) -> Option<PageImage> {
        self.core.lock().index.get(&pid.0).cloned()
    }

    /// Start a new generation in place: a new salt in the header, appends
    /// from the top of the file again. No truncation and no sync — the
    /// header reaches the disk with the next commit's `fdatasync`, and the
    /// last generation's frames fail the chain under the new salt. A
    /// failed header write is retried before the next frame
    /// ([`write_pending_header`](Self::write_pending_header)); until then
    /// the disk holds the old header or a torn one, and either replays no
    /// more than what the page file already has.
    fn reset_log(&self, core: &mut WalCore) {
        core.salt = next_salt(core.salt);
        core.header_pending = true;
        // An error leaves the header pending; see above.
        let _ = self.write_pending_header(core);
        core.append_off = WAL_HEADER;
        core.prev_crc = core.salt;
        core.bytes = 0;
        core.logged_this_gen.clear();
    }

    /// Checkpoint: seal and fsync anything still pending, write each
    /// page's image into the page file, sync it, clear the index and reset
    /// the log. Holds the core lock throughout, so no append can race the
    /// reset.
    ///
    /// Page-file writes happen strictly after the covering log records are
    /// durable — the WAL invariant, enforced here and only here because
    /// this is the only place the pool's data reaches the page file.
    pub fn checkpoint_into(&self, disk: &DiskManager) -> Result<()> {
        let mut core = self.core.lock();
        if core.bytes == 0 && !core.pending && !core.header_pending {
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
        let mut pids: Vec<u32> = core.index.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            while disk.num_pages() <= pid {
                disk.allocate()?;
            }
            let img = &core.index[&pid];
            let mut last = None;
            for _ in 0..3 {
                match disk.write_page(PageId(pid), img) {
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
        }
        disk.sync()?;
        core.index.clear();
        self.reset_log(&mut core);
        self.stats.checkpoints.bump();
        Ok(())
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
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
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
        // Replay reset the log: a second open replays nothing.
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
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
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
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
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
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
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
    fn checkpoint_writes_back_and_resets_in_place() {
        let (wp, dp) = (tmp("ckpt"), db_tmp("ckpt"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
        let p = disk.allocate().unwrap();
        let wal = open_wal(&wp, None);
        wal.append_page(p, &page(0x87)).unwrap();
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        // The index holds the newest append, pending included.
        wal.append_page(p, &page(0x88)).unwrap();
        assert_eq!(*wal.latest_image(p).unwrap(), page(0x88));
        let seq = wal.commit_stage().unwrap();
        wal.make_durable(seq).unwrap();
        assert_eq!(*wal.latest_image(p).unwrap(), page(0x88));
        let len = std::fs::metadata(&wp).unwrap().len();
        let fsyncs = wal.stats().fsyncs.get();
        wal.checkpoint_into(&disk).unwrap();
        assert_eq!(wal.stats().checkpoints.get(), 1);
        assert_eq!(wal.bytes(), 0);
        assert_eq!(
            std::fs::metadata(&wp).unwrap().len(),
            len,
            "the log keeps its length"
        );
        assert_eq!(
            wal.stats().fsyncs.get(),
            fsyncs,
            "a durable log pays no sync"
        );
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, page(0x88), "checkpoint wrote the page back");
        assert!(
            wal.latest_image(p).is_none(),
            "checkpoint cleared the index"
        );
        // Nothing new: a second checkpoint is a no-op.
        wal.checkpoint_into(&disk).unwrap();
        assert_eq!(wal.stats().checkpoints.get(), 1);
        // The old generation's frames are still in the file, and none of
        // them scans under the new salt.
        drop(wal);
        let fresh = DiskManager::open_memory();
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&fresh).unwrap(), 0);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    /// A hundred checkpoints: the log file never shrinks, never outgrows
    /// the longest generation, and no checkpoint of a durable log syncs.
    #[test]
    fn reset_keeps_the_file_at_its_high_water_length() {
        let (wp, dp) = (tmp("hiwater"), db_tmp("hiwater"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
        let pids: Vec<PageId> = (0..4).map(|_| disk.allocate().unwrap()).collect();
        let wal = open_wal(&wp, None);
        let mut high_water = std::fs::metadata(&wp).unwrap().len();
        for round in 0..100u32 {
            // Generations of one to four pages, so some are shorter than
            // the file already is.
            for &p in &pids[..1 + round as usize % 4] {
                wal.append_page(p, &page(round as u8)).unwrap();
            }
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
            let end = WAL_HEADER + wal.bytes();
            high_water = high_water.max(end);
            let fsyncs = wal.stats().fsyncs.get();
            wal.checkpoint_into(&disk).unwrap();
            assert_eq!(wal.stats().fsyncs.get(), fsyncs, "round {round}");
            let len = std::fs::metadata(&wp).unwrap().len();
            assert_eq!(len, high_water, "round {round}");
        }
        assert_eq!(wal.stats().checkpoints.get(), 100);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    /// A long generation, a checkpoint, then a shorter committed one and a
    /// crash: only the new generation replays, although the old one's
    /// frames still lie beyond it in the file.
    #[test]
    fn only_the_newest_generation_replays() {
        let (wp, dp) = (tmp("gens"), db_tmp("gens"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
        let pids: Vec<PageId> = (0..10).map(|_| disk.allocate().unwrap()).collect();
        {
            let wal = open_wal(&wp, None);
            for &p in &pids {
                wal.append_page(p, &page(0xA0)).unwrap();
                let seq = wal.commit_stage().unwrap();
                wal.make_durable(seq).unwrap();
            }
            wal.checkpoint_into(&disk).unwrap();
            wal.append_page(pids[0], &page(0xB0)).unwrap();
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
        }
        // Replay into an empty page file, so that anything the old
        // generation put back would show.
        let fresh = DiskManager::open_memory();
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&fresh).unwrap(), 1);
        let mut buf = [0u8; PAGE_SIZE];
        fresh.read_page(pids[0], &mut buf).unwrap();
        assert_eq!(buf, page(0xB0));
        for &p in &pids[1..] {
            if p.0 < fresh.num_pages() {
                fresh.read_page(p, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 0), "page {} replayed", p.0);
            }
        }
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    /// A log written before the header carried a salt has zeros there,
    /// and its frames chain from zero: it replays as it always did.
    #[test]
    fn a_log_without_a_salt_replays() {
        let (wp, dp) = (tmp("nosalt"), db_tmp("nosalt"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let mut bytes = header(0).to_vec();
        assert!(bytes[SALT_AT..].iter().all(|&b| b == 0), "no salt");
        let mut prev = 0u64;
        for body in [
            encode_body(K_IMAGE, PageId(1), 0, &page(0x5A)),
            encode_body(K_COMMIT, PageId(0), 1, &[]),
        ] {
            let len = body.len() as u32;
            prev = chain_crc(prev, len, &body);
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&prev.to_le_bytes());
        }
        std::fs::write(&wp, &bytes).unwrap();
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
        disk.allocate().unwrap();
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&disk).unwrap(), 1);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, page(0x5A));
        assert_eq!(wal.core.lock().sealed_seq, 1);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    /// An open that finds nothing committed writes nothing, not even a
    /// new salt.
    #[test]
    fn an_open_with_nothing_to_replay_writes_nothing() {
        let (wp, dp) = (tmp("quiet"), db_tmp("quiet"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
        let p = disk.allocate().unwrap();
        {
            let wal = open_wal(&wp, None);
            wal.append_page(p, &page(0x21)).unwrap();
            let seq = wal.commit_stage().unwrap();
            wal.make_durable(seq).unwrap();
            wal.checkpoint_into(&disk).unwrap();
            wal.append_page(p, &page(0x22)).unwrap(); // never committed
        }
        let before = std::fs::read(&wp).unwrap();
        let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
        assert_eq!(wal.replay_into(&disk).unwrap(), 0);
        drop(wal);
        assert!(std::fs::read(&wp).unwrap() == before, "the open wrote");
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
    }

    /// The reset's header write tears: nothing committed is lost — the
    /// page file has it all — and the next generation rewrites the header
    /// before its first frame, so it replays after a crash.
    #[test]
    fn a_torn_header_write_at_reset_loses_nothing() {
        for tear_first in [true, false] {
            let tag = format!("torn_hdr_{tear_first}");
            let (wp, dp) = (tmp(&tag), db_tmp(&tag));
            let _ = std::fs::remove_file(&wp);
            let _ = std::fs::remove_file(&dp);
            let disk = DiskManager::open_file_with(&dp, None).unwrap();
            let (p, q) = (disk.allocate().unwrap(), disk.allocate().unwrap());
            let plan = FaultPlan::new(FaultConfig {
                seed: 11,
                torn_per_mille: 1000,
                ..Default::default()
            });
            {
                let wal = open_wal(&wp, Some(plan.clone()));
                wal.append_page(p, &page(0x61)).unwrap();
                let seq = wal.commit_stage().unwrap();
                wal.make_durable(seq).unwrap();
                // The log is durable, so the checkpoint's only log write
                // is the header.
                plan.arm();
                wal.checkpoint_into(&disk).unwrap();
                plan.disarm();
                if !tear_first {
                    // A later generation gets the header written first.
                    wal.append_page(q, &page(0x62)).unwrap();
                    let seq = wal.commit_stage().unwrap();
                    wal.make_durable(seq).unwrap();
                }
            }
            let wal = Wal::open(&wp, None, WalConfig::default()).unwrap();
            let replayed = wal.replay_into(&disk).unwrap();
            if !tear_first {
                assert_eq!(replayed, 1, "{tag}: the new generation replays");
            }
            // With the header torn and nothing after it, the old
            // generation may replay again (or not, as far as the tear
            // reached the salt): either way onto what the page file has.
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_page(p, &mut buf).unwrap();
            assert_eq!(buf, page(0x61), "{tag}");
            if !tear_first {
                disk.read_page(q, &mut buf).unwrap();
                assert_eq!(buf, page(0x62), "{tag}");
            }
            let _ = std::fs::remove_file(&wp);
            let _ = std::fs::remove_file(&dp);
        }
    }

    #[test]
    fn checkpoint_seals_pending_appends_first() {
        let (wp, dp) = (tmp("ckpt_pend"), db_tmp("ckpt_pend"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
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
        let disk = Arc::new(DiskManager::open_file_with(&dp, None).unwrap());
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
    fn dropped_commit_frame_loses_batch_cleanly() {
        let (wp, dp) = (tmp("dropc"), db_tmp("dropc"));
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(&dp);
        let disk = DiskManager::open_file_with(&dp, None).unwrap();
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
