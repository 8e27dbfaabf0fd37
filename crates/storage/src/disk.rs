//! Page-granular disk manager.
//!
//! Three backends behind one type: a real file (durability tests,
//! persistence experiments), an in-memory vector that keeps a copy of every
//! page the way a file would (a crash device for the WAL and pool tests),
//! and a *volatile* vector that holds each page's one buffer while no pool
//! frame does ([`DiskManager::take_page`], [`DiskManager::put_page`]): the
//! store of [`crate::Storage::open_memory`], which nothing reopens. All
//! count physical reads into [`DiskStats`] so experiments can report
//! I/O.
//!
//! # On-disk format (file backend)
//!
//! The file starts with a `PHYS_PAGE`-sized header block whose first bytes
//! are the magic `TMANPG2\0`; each logical 4 KiB page then owns one
//! physical slot:
//!
//! ```text
//! slot = [ data: 4096 ][ version: u64 LE ][ fnv1a64(data ‖ version): u64 LE ]
//! offset(pid) = (pid + 1) * PHYS_PAGE
//! ```
//!
//! Writes go in place. A torn write destroys the page's only copy — safe
//! because every [`crate::Storage`] pairs this format with the write-ahead
//! log ([`crate::wal`]): a page is only written back once its covering log
//! records are durable, so recovery replays the log over any torn page.
//! This is the only format: a non-empty file that does not lead with the
//! magic is refused at open and left untouched.
//!
//! [`DiskManager::open_file_with`] runs a **scavenge pass**: it validates
//! every page's checksum and *quarantines* invalid pages (rewriting them as
//! zeroed pages — a zeroed slotted page scans as empty — and recording them
//! in the [`RecoveryReport`] so higher layers can rebuild derived state).
//! Under the WAL, a torn checkpoint write is replayed over *before* it can
//! be mistaken for damage, so quarantine only fires for pages the log no
//! longer covers.
//!
//! An optional [`FaultPlan`] injects deterministic write failures; see
//! [`crate::fault`]. The in-memory backends have neither checksums nor faults.

use crate::fault::{FaultKind, FaultPlan};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use tman_common::{Result, TmanError};
use tman_sync::Mutex;
use tman_telemetry::{Counter, Registry};

/// Fixed page size (bytes). 4 KiB matches the paper's era and keeps the
/// trigger-cache arithmetic in §5.1 ("a trigger description takes 4K bytes")
/// directly comparable.
pub const PAGE_SIZE: usize = 4096;

/// Version + checksum trailer appended to each physical slot.
const TRAILER: usize = 16;

/// Physical slot size in the backing file.
pub(crate) const PHYS_PAGE: usize = PAGE_SIZE + TRAILER;

/// Magic prefix of the header block.
const MAGIC: [u8; 8] = *b"TMANPG2\0";

/// Physical page number within a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel "no page" value (page 0 is the directory superblock, so it
    /// can double as the null link in page chains).
    pub(crate) const NULL: PageId = PageId(0);

    /// True if this is the null sentinel.
    #[inline]
    pub(crate) fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// What the open-time scavenge pass found and repaired.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveryReport {
    /// Pages whose slot failed its checksum, rewritten as zeroed (empty)
    /// pages.
    pub(crate) quarantined: Vec<PageId>,
}

impl RecoveryReport {
    /// True when the store did not shut down cleanly: derived state (heap
    /// chains, index trees) should be revalidated.
    pub(crate) fn recovered(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

struct FileState {
    file: File,
    /// Version stamped on each page's slot by its last write.
    versions: Vec<u64>,
}

/// One page's buffer.
pub(crate) type PageBuf = Box<[u8; PAGE_SIZE]>;

enum Backend {
    File(Mutex<FileState>),
    Memory(Mutex<Vec<PageBuf>>),
    /// `None` while a pool frame holds the page.
    Volatile(Mutex<Vec<Option<PageBuf>>>),
}

/// Allocates, reads and writes fixed-size pages.
pub struct DiskManager {
    backend: Backend,
    num_pages: Mutex<u32>,
    stats: DiskStats,
    plan: Option<FaultPlan>,
    recovery: RecoveryReport,
}

/// Physical I/O counters of one store.
#[derive(Debug, Default)]
pub struct DiskStats {
    /// Page reads from the backing file or memory.
    pub page_reads: Arc<Counter>,
    /// Page writes.
    pub page_writes: Arc<Counter>,
    /// Page-slot reads whose checksum or version trailer failed validation.
    pub checksum_failures: Arc<Counter>,
    /// Pages zeroed and quarantined by the open-time recovery pass because
    /// neither physical slot held a valid copy.
    pub quarantined_pages: Arc<Counter>,
    /// Faults injected by an attached `FaultPlan` (test builds only).
    pub faults_injected: Arc<Counter>,
    /// Explicit durability syncs (`fdatasync` on the file backend; a
    /// counted no-op on the memory backend).
    pub syncs: Arc<Counter>,
}

pub(crate) fn fnv1a64(data: &[u8], version: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data.iter().chain(version.to_le_bytes().iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn page_offset(pid: PageId) -> u64 {
    (pid.0 as u64 + 1) * PHYS_PAGE as u64
}

/// Build the physical image of a slot: data + version + checksum.
fn encode_slot(data: &[u8; PAGE_SIZE], version: u64) -> [u8; PHYS_PAGE] {
    let mut phys = [0u8; PHYS_PAGE];
    phys[..PAGE_SIZE].copy_from_slice(data);
    phys[PAGE_SIZE..PAGE_SIZE + 8].copy_from_slice(&version.to_le_bytes());
    phys[PAGE_SIZE + 8..].copy_from_slice(&fnv1a64(data, version).to_le_bytes());
    phys
}

/// Parse a physical slot; `Some((version, data))` only if the checksum
/// verifies and the version is nonzero (all-zero regions never validate).
fn decode_slot(phys: &[u8; PHYS_PAGE]) -> Option<(u64, &[u8])> {
    let version = u64::from_le_bytes(phys[PAGE_SIZE..PAGE_SIZE + 8].try_into().unwrap());
    if version == 0 {
        return None;
    }
    let stored = u64::from_le_bytes(phys[PAGE_SIZE + 8..].try_into().unwrap());
    if fnv1a64(&phys[..PAGE_SIZE], version) != stored {
        return None;
    }
    Some((version, &phys[..PAGE_SIZE]))
}

fn read_slot_at(file: &mut File, off: u64) -> Option<[u8; PHYS_PAGE]> {
    let mut buf = [0u8; PHYS_PAGE];
    file.seek(SeekFrom::Start(off)).ok()?;
    file.read_exact(&mut buf).ok()?;
    Some(buf)
}

/// The header block: magic + zero padding out to one physical page, so
/// page offsets stay slot-aligned.
fn header_block() -> [u8; PHYS_PAGE] {
    let mut h = [0u8; PHYS_PAGE];
    h[..8].copy_from_slice(&MAGIC);
    h
}

impl DiskManager {
    /// Open a file-backed store with an optional fault-injection plan
    /// (test builds). An empty file is stamped with the header; a file
    /// that leads with the magic is scavenged in place, the findings
    /// landing in [`recovery_report`](Self::recovery_report); any other
    /// file is refused with [`TmanError::Unsupported`] and not written to.
    pub(crate) fn open_file_with(path: &Path, plan: Option<FaultPlan>) -> Result<DiskManager> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false) // reopening an existing store must keep it
            .open(path)?;
        let stats = DiskStats::default();
        if file.metadata()?.len() == 0 {
            // Fresh store: stamp the header before anything else.
            file.write_all(&header_block())?;
            file.sync_data()?;
        } else {
            let mut lead = Vec::with_capacity(MAGIC.len());
            (&file).take(MAGIC.len() as u64).read_to_end(&mut lead)?;
            if lead != MAGIC {
                return Err(TmanError::Unsupported(format!(
                    "{} is not a TMANPG2 page file (it leads with {:02x?}): a store in the \
                     headerless dual-slot format, or not a page file at all; left unchanged",
                    path.display(),
                    lead
                )));
            }
        }
        let (versions, recovery) = Self::scavenge(&mut file, &stats)?;
        let dm = DiskManager {
            num_pages: Mutex::new(versions.len() as u32),
            backend: Backend::File(Mutex::new(FileState { file, versions })),
            stats,
            plan,
            recovery,
        };
        dm.ensure_superblock()?;
        Ok(dm)
    }

    /// Recovery/scavenge: validate every page's slot, quarantine invalid
    /// ones; returns each page's version. Runs before WAL replay; a page
    /// the log still covers gets rewritten by replay right after, so a
    /// quarantine here is only *damage* when no committed redo record
    /// supersedes it.
    fn scavenge(file: &mut File, stats: &DiskStats) -> Result<(Vec<u64>, RecoveryReport)> {
        let len = file.metadata()?.len();
        let body = len.saturating_sub(PHYS_PAGE as u64);
        let num_pages = body.div_ceil(PHYS_PAGE as u64) as u32;
        // Re-stamp the header: a partially created store (crash between
        // create and first allocate) must still lead with the whole block.
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header_block())?;
        let mut versions = Vec::with_capacity(num_pages as usize);
        let mut report = RecoveryReport::default();
        for p in 0..num_pages {
            let pid = PageId(p);
            let decoded =
                read_slot_at(file, page_offset(pid)).and_then(|s| decode_slot(&s).map(|d| d.0));
            match decoded {
                Some(version) => versions.push(version),
                None => {
                    let phys = encode_slot(&[0u8; PAGE_SIZE], 1);
                    file.seek(SeekFrom::Start(page_offset(pid)))?;
                    file.write_all(&phys)?;
                    versions.push(1);
                    report.quarantined.push(pid);
                    stats.quarantined_pages.bump();
                }
            }
        }
        Ok((versions, report))
    }

    /// Create an in-memory store that keeps its own copy of every page, as
    /// a file does: what a pool wrote back survives the pool.
    pub fn open_memory() -> DiskManager {
        Self::memory_backend(Backend::Memory(Mutex::new(Vec::new())))
    }

    /// Create an in-memory store that holds a page only while no pool frame
    /// does: a miss moves the page's buffer into the frame
    /// ([`take_page`](Self::take_page)) and an eviction moves it back
    /// ([`put_page`](Self::put_page)), so each page is resident once. A
    /// pool over it writes nothing back, since nothing outlives it.
    pub(crate) fn open_volatile() -> DiskManager {
        Self::memory_backend(Backend::Volatile(Mutex::new(Vec::new())))
    }

    fn memory_backend(backend: Backend) -> DiskManager {
        let dm = DiskManager {
            backend,
            num_pages: Mutex::new(0),
            stats: DiskStats::default(),
            plan: None,
            recovery: RecoveryReport::default(),
        };
        dm.ensure_superblock().expect("memory superblock");
        dm
    }

    fn ensure_superblock(&self) -> Result<()> {
        let n = self.num_pages.lock();
        if *n == 0 {
            drop(n);
            let pid = self.allocate()?;
            debug_assert_eq!(pid, PageId(0));
        } else {
            drop(n);
        }
        Ok(())
    }

    /// I/O counters for this store.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Register the store's I/O series in `registry`.
    pub fn attach_telemetry(&self, registry: &Registry) {
        let s = &self.stats;
        for (name, counter) in [
            ("tman_page_reads_total", &s.page_reads),
            ("tman_page_writes_total", &s.page_writes),
            ("tman_disk_syncs_total", &s.syncs),
            ("tman_checksum_failures_total", &s.checksum_failures),
            ("tman_quarantined_pages_total", &s.quarantined_pages),
            ("tman_faults_injected_total", &s.faults_injected),
        ] {
            registry.register_counter(name, &[], counter.clone());
        }
    }

    /// What the open-time scavenge pass found (empty report for the memory
    /// backend and clean files).
    pub(crate) fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn frozen_check(&self) -> Result<()> {
        if self.plan.as_ref().is_some_and(|p| p.frozen()) {
            return Err(TmanError::Io("simulated crash: disk frozen".into()));
        }
        Ok(())
    }

    /// Force previously written pages to stable storage: `fdatasync` on
    /// the file backend, a counted no-op in memory. Checkpoints call this
    /// once per write-back pass; [`DiskStats::syncs`] counts every call
    /// so experiments can report syncs-per-token. Draws a
    /// [`FaultPlan::decide_sync`] decision: a sync can be the crash point
    /// or fail transiently.
    pub(crate) fn sync(&self) -> Result<()> {
        self.frozen_check()?;
        match self.plan.as_ref().and_then(|p| p.decide_sync()) {
            None => {}
            Some(FaultKind::TransientError) => {
                self.stats.faults_injected.bump();
                return Err(TmanError::Io("injected transient sync error".into()));
            }
            Some(_) => {
                // Crash: the freeze flag is already set; report it like any
                // other frozen-disk operation.
                self.stats.faults_injected.bump();
                return Err(TmanError::Io("simulated crash: disk frozen".into()));
            }
        }
        self.stats.syncs.bump();
        if let Backend::File(state) = &self.backend {
            state.lock().file.sync_data()?;
        }
        Ok(())
    }

    /// Allocate a fresh zero-filled page at the end of the store.
    pub(crate) fn allocate(&self) -> Result<PageId> {
        self.frozen_check()?;
        let mut n = self.num_pages.lock();
        let pid = PageId(*n);
        match &self.backend {
            Backend::Memory(pages) => {
                pages.lock().push(Box::new([0u8; PAGE_SIZE]));
            }
            Backend::Volatile(pages) => {
                pages.lock().push(Some(Box::new([0u8; PAGE_SIZE])));
            }
            Backend::File(state) => {
                let mut st = state.lock();
                let phys = encode_slot(&[0u8; PAGE_SIZE], 1);
                st.file.seek(SeekFrom::Start(page_offset(pid)))?;
                st.file.write_all(&phys)?;
                st.versions.push(1);
            }
        }
        *n += 1;
        Ok(pid)
    }

    /// Read page `pid` into `buf`. On the file backend the slot's checksum
    /// and version are verified; a slot that fails (the safety net is the
    /// WAL) reports [`TmanError::Corrupt`].
    pub fn read_page(&self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.check_bounds(pid)?;
        self.frozen_check()?;
        self.stats.page_reads.bump();
        match &self.backend {
            Backend::Memory(pages) => {
                buf.copy_from_slice(&pages.lock()[pid.0 as usize][..]);
            }
            Backend::Volatile(pages) => match &pages.lock()[pid.0 as usize] {
                Some(page) => buf.copy_from_slice(&page[..]),
                None => return Err(in_a_frame(pid)),
            },
            Backend::File(state) => {
                let mut st = state.lock();
                let expected = st.versions[pid.0 as usize];
                if let Some(phys) = read_slot_at(&mut st.file, page_offset(pid)) {
                    if let Some((version, data)) = decode_slot(&phys) {
                        if version == expected {
                            buf.copy_from_slice(data);
                            return Ok(());
                        }
                    }
                }
                self.stats.checksum_failures.bump();
                return Err(TmanError::Corrupt(format!(
                    "page {} lost: slot fails checksum",
                    pid.0
                )));
            }
        }
        Ok(())
    }

    /// Write `buf` to page `pid`, in place (the WAL holds the covering redo
    /// record, so a torn write is recoverable by replay).
    pub(crate) fn write_page(&self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.check_bounds(pid)?;
        self.frozen_check()?;
        self.stats.page_writes.bump();
        match &self.backend {
            Backend::Memory(pages) => {
                pages.lock()[pid.0 as usize].copy_from_slice(buf);
            }
            Backend::Volatile(pages) => match &mut pages.lock()[pid.0 as usize] {
                Some(page) => page.copy_from_slice(buf),
                None => return Err(in_a_frame(pid)),
            },
            Backend::File(state) => {
                let mut st = state.lock();
                let version = st.versions[pid.0 as usize] + 1;
                let phys = encode_slot(buf, version);
                let off = page_offset(pid);
                // Fault decision is drawn under the file lock so the RNG
                // stream is deterministic for a given workload.
                let fault = self.plan.as_ref().and_then(|p| p.decide_write(PHYS_PAGE));
                match fault {
                    None => {
                        st.file.seek(SeekFrom::Start(off))?;
                        st.file.write_all(&phys)?;
                        st.versions[pid.0 as usize] = version;
                    }
                    Some(f) => {
                        self.stats.faults_injected.bump();
                        match f.kind {
                            FaultKind::DroppedSync => {
                                // Lying success: nothing reaches disk, the
                                // page stays on the previous version.
                            }
                            FaultKind::TransientError => {
                                return Err(TmanError::Io("injected transient write error".into()));
                            }
                            FaultKind::TornWrite | FaultKind::ShortWrite => {
                                st.file.seek(SeekFrom::Start(off))?;
                                st.file.write_all(&phys[..f.tear_at])?;
                                return Err(TmanError::Io(format!(
                                    "injected torn write at byte {} of page {}",
                                    f.tear_at, pid.0
                                )));
                            }
                            FaultKind::Crash => {
                                st.file.seek(SeekFrom::Start(off))?;
                                st.file.write_all(&phys[..f.tear_at])?;
                                return Err(TmanError::Io(format!(
                                    "simulated crash during write of page {}",
                                    pid.0
                                )));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Is this the volatile backend ([`open_volatile`](Self::open_volatile))?
    pub(crate) fn is_volatile(&self) -> bool {
        matches!(self.backend, Backend::Volatile(_))
    }

    /// Page `pid` as a buffer of its own, counted as one page read: on the
    /// volatile backend the page's one buffer, which the store no longer
    /// holds until [`put_page`](Self::put_page) gives it back; elsewhere a
    /// copy ([`read_page`](Self::read_page)).
    pub(crate) fn take_page(&self, pid: PageId) -> Result<PageBuf> {
        let Backend::Volatile(pages) = &self.backend else {
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            self.read_page(pid, &mut buf)?;
            return Ok(buf);
        };
        self.check_bounds(pid)?;
        let page = pages.lock()[pid.0 as usize].take();
        let page = page.ok_or_else(|| in_a_frame(pid))?;
        self.stats.page_reads.bump();
        Ok(page)
    }

    /// Give page `pid`'s buffer back to the volatile backend, which holds
    /// it until the next [`take_page`](Self::take_page). Not a write: the
    /// store never held another image of the page.
    pub(crate) fn put_page(&self, pid: PageId, buf: PageBuf) {
        if let Backend::Volatile(pages) = &self.backend {
            pages.lock()[pid.0 as usize] = Some(buf);
        }
    }

    fn check_bounds(&self, pid: PageId) -> Result<()> {
        if pid.0 >= *self.num_pages.lock() {
            return Err(TmanError::Storage(format!(
                "page {} out of bounds ({} pages)",
                pid.0,
                self.num_pages()
            )));
        }
        Ok(())
    }
}

/// A volatile page read or written past the pool while a frame holds it.
fn in_a_frame(pid: PageId) -> TmanError {
    TmanError::Internal(format!("page {} is held by a pool frame", pid.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tman_disk_{tag}_{}.db", std::process::id()))
    }

    #[test]
    fn memory_allocate_read_write() {
        let dm = DiskManager::open_memory();
        assert_eq!(dm.num_pages(), 1); // superblock
        let p = dm.allocate().unwrap();
        assert_eq!(p, PageId(1));
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        dm.write_page(p, &buf).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut back).unwrap();
        assert_eq!(buf[..], back[..]);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let dm = DiskManager::open_memory();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(dm.read_page(PageId(99), &mut buf).is_err());
        assert!(dm.write_page(PageId(99), &buf).is_err());
    }

    #[test]
    fn io_counters_count() {
        let dm = DiskManager::open_memory();
        let p = dm.allocate().unwrap();
        let buf = [0u8; PAGE_SIZE];
        dm.write_page(p, &buf).unwrap();
        let mut rb = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut rb).unwrap();
        dm.read_page(p, &mut rb).unwrap();
        assert_eq!(dm.stats().page_writes.get(), 1);
        assert_eq!(dm.stats().page_reads.get(), 2);
    }

    #[test]
    fn file_backend_persists() {
        let path = tmp("persist");
        let _ = std::fs::remove_file(&path);
        let p;
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            p = dm.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[7] = 77;
            dm.write_page(p, &buf).unwrap();
        }
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            assert_eq!(dm.num_pages(), 2);
            assert!(!dm.recovery_report().recovered(), "clean reopen");
            let mut buf = [0u8; PAGE_SIZE];
            dm.read_page(p, &mut buf).unwrap();
            assert_eq!(buf[7], 77);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_leads_with_magic() {
        let path = tmp("magic");
        let _ = std::fs::remove_file(&path);
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            dm.allocate().unwrap();
        }
        let mut f = std::fs::File::open(&path).unwrap();
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic).unwrap();
        assert_eq!(&magic, b"TMANPG2\0");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repeated_writes_survive_reopen() {
        let path = tmp("rewrite");
        let _ = std::fs::remove_file(&path);
        let p;
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            p = dm.allocate().unwrap();
            for i in 0..9u8 {
                let mut buf = [0u8; PAGE_SIZE];
                buf[0] = i;
                dm.write_page(p, &buf).unwrap();
            }
        }
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            dm.read_page(p, &mut buf).unwrap();
            assert_eq!(buf[0], 8, "in-place write keeps the newest version");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_is_detected_at_reopen() {
        // Without a partner slot a torn write loses the page — the WAL is
        // the safety net at the Storage level. What the format itself must
        // guarantee: the damage is *detected* (checksum), never served.
        let path = tmp("torn2");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed: 11,
            torn_per_mille: 1000,
            ..Default::default()
        });
        let p;
        {
            let dm = DiskManager::open_file_with(&path, Some(plan.clone())).unwrap();
            p = dm.allocate().unwrap();
            let mut old = [0u8; PAGE_SIZE];
            old[0] = 1;
            dm.write_page(p, &old).unwrap(); // disarmed: clean
            plan.arm();
            let mut new = [0u8; PAGE_SIZE];
            new[0] = 2;
            assert!(dm.write_page(p, &new).is_err());
        }
        plan.disarm();
        {
            let dm = DiskManager::open_file_with(&path, Some(plan)).unwrap();
            assert_eq!(dm.recovery_report().quarantined, vec![p]);
            let mut back = [0u8; PAGE_SIZE];
            dm.read_page(p, &mut back).unwrap();
            assert!(back.iter().all(|&b| b == 0), "quarantined page reads zero");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropped_sync_silently_loses_the_write() {
        let path = tmp("dropped");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            dropped_sync_per_mille: 1000,
            ..Default::default()
        });
        let dm = DiskManager::open_file_with(&path, Some(plan.clone())).unwrap();
        let p = dm.allocate().unwrap();
        let mut old = [0u8; PAGE_SIZE];
        old[0] = 7;
        dm.write_page(p, &old).unwrap();
        plan.arm();
        let mut new = [0u8; PAGE_SIZE];
        new[0] = 9;
        dm.write_page(p, &new).unwrap(); // lies
        plan.disarm();
        let mut back = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut back).unwrap();
        assert_eq!(back[0], 7, "dropped sync kept the old version");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_error_succeeds_on_retry() {
        let path = tmp("transient");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed: 2,
            transient_per_mille: 500,
            ..Default::default()
        });
        let dm = DiskManager::open_file_with(&path, Some(plan.clone())).unwrap();
        let p = dm.allocate().unwrap();
        plan.arm();
        let mut buf = [0u8; PAGE_SIZE];
        buf[3] = 3;
        // At 50% rate a bounded retry loop always gets through eventually.
        let mut attempts = 0;
        loop {
            attempts += 1;
            match dm.write_page(p, &buf) {
                Ok(()) => break,
                Err(e) => assert_eq!(e.kind(), "io"),
            }
            assert!(attempts < 100, "retry never succeeded");
        }
        plan.disarm();
        let mut back = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut back).unwrap();
        assert_eq!(back[3], 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_freezes_io_until_reopen() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed: 13,
            crash_after_writes: Some(2),
            ..Default::default()
        });
        let p;
        {
            let dm = DiskManager::open_file_with(&path, Some(plan.clone())).unwrap();
            p = dm.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 1;
            dm.write_page(p, &buf).unwrap();
            plan.arm();
            buf[0] = 2;
            dm.write_page(p, &buf).unwrap(); // armed write 1: clean
            buf[0] = 3;
            assert!(dm.write_page(p, &buf).is_err(), "write 2 crashes");
            assert!(plan.crashed());
            // Frozen disk: everything errors now.
            let mut rb = [0u8; PAGE_SIZE];
            assert!(dm.read_page(p, &mut rb).is_err());
            assert!(dm.allocate().is_err());
        }
        plan.reset_crash();
        plan.disarm();
        {
            let dm = DiskManager::open_file_with(&path, Some(plan.clone())).unwrap();
            let mut rb = [0u8; PAGE_SIZE];
            dm.read_page(p, &mut rb).unwrap();
            // The write that crashed tore the page in place: it reads as
            // the last whole version or, quarantined, as zeros — never
            // as the half-written one.
            if dm.recovery_report().quarantined == vec![p] {
                assert!(rb.iter().all(|&b| b == 0));
            } else {
                assert_eq!(rb[0], 2);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scavenge_quarantines_torn_page() {
        let path = tmp("quarantine");
        let _ = std::fs::remove_file(&path);
        let p;
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            p = dm.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 0xEE;
            dm.write_page(p, &buf).unwrap();
        }
        // Corrupt the page's single slot on disk.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(page_offset(p) + 100)).unwrap();
            f.write_all(&[0xFF; 8]).unwrap();
        }
        {
            let dm = DiskManager::open_file_with(&path, None).unwrap();
            let report = dm.recovery_report();
            assert!(report.recovered());
            assert_eq!(report.quarantined, vec![p]);
            assert_eq!(dm.stats().quarantined_pages.get(), 1);
            // Quarantined page reads as zeros, not garbage.
            let mut rb = [0u8; PAGE_SIZE];
            dm.read_page(p, &mut rb).unwrap();
            assert!(rb.iter().all(|&b| b == 0));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_without_the_magic_is_refused_and_left_unchanged() {
        // A headerless dual-slot store (page 0's slot leads: zeroed data),
        // a foreign file, and a file shorter than the magic.
        let mut headerless = encode_slot(&[0u8; PAGE_SIZE], 1).to_vec();
        headerless.extend_from_slice(&[0u8; PHYS_PAGE]);
        let cases: [(&str, &[u8]); 3] = [
            ("headerless", &headerless),
            ("foreign", b"SQLite format 3\0 and then some"),
            ("short", b"TMA"),
        ];
        for (tag, bytes) in cases {
            let path = tmp(&format!("refuse_{tag}"));
            std::fs::write(&path, bytes).unwrap();
            let err = DiskManager::open_file_with(&path, None)
                .err()
                .expect("refused");
            assert_eq!(err.kind(), "unsupported", "{tag}: {err}");
            assert!(err.to_string().contains("TMANPG2"), "{tag}: {err}");
            assert!(err.to_string().contains("dual-slot"), "{tag}: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{tag}: rewritten");
            let _ = std::fs::remove_file(&path);
        }
    }
}
