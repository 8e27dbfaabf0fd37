//! Buffer pool with pin/unpin and LRU eviction.
//!
//! The paper's trigger cache "checks to see if the trigger is in memory, and
//! if it is not, it brings it in from the disk-based trigger catalog" — the
//! same discipline a buffer pool applies to pages. This pool backs every
//! heap and B+tree; the trigger cache in the engine crate mirrors its
//! pin/unpin protocol at trigger granularity.
//!
//! Concurrency model: a pool-wide mutex guards the page table and replacement
//! state; page *contents* are under a per-frame `RwLock`, so readers of
//! different (or the same) pages proceed in parallel once pinned. Eviction
//! only considers frames with a zero pin count, which cannot regain a pin
//! concurrently because pins are only taken under the pool mutex.

use crate::disk::{DiskManager, PageId, PAGE_SIZE};
use crate::wal::Wal;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::stats::StorageStats;
use tman_common::{Result, TmanError};

struct FrameCell {
    pid: PageId,
    pin: AtomicU32,
    dirty: AtomicBool,
    data: RwLock<Box<[u8; PAGE_SIZE]>>,
}

struct FrameSlot {
    cell: Arc<FrameCell>,
    last_used: u64,
}

struct PoolInner {
    map: FxHashMap<PageId, usize>,
    frames: Vec<Option<FrameSlot>>,
    tick: u64,
}

/// Fixed-capacity page cache over a [`DiskManager`].
///
/// With a [`Wal`] attached ([`with_wal`](Self::with_wal)), flushes append
/// redo records to the log instead of writing the page file; the page file
/// is only written at checkpoint, from records that are already durable —
/// the WAL invariant. Without one, flushes write the page file directly
/// (memory-backed stores).
pub struct BufferPool {
    disk: Arc<DiskManager>,
    inner: Mutex<PoolInner>,
    stats: StorageStats,
    wal: Option<Arc<Wal>>,
}

impl BufferPool {
    /// Create a pool with room for `capacity` pages (minimum 4 so B+tree
    /// splits, which pin up to three pages plus the meta page, always fit).
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> BufferPool {
        Self::build(disk, capacity, None)
    }

    /// Create a pool whose flushes go through the write-ahead log. The
    /// caller must have replayed the log into `disk` already.
    pub fn with_wal(disk: Arc<DiskManager>, capacity: usize, wal: Arc<Wal>) -> BufferPool {
        Self::build(disk, capacity, Some(wal))
    }

    fn build(disk: Arc<DiskManager>, capacity: usize, wal: Option<Arc<Wal>>) -> BufferPool {
        let capacity = capacity.max(4);
        BufferPool {
            disk,
            inner: Mutex::new(PoolInner {
                map: FxHashMap::default(),
                frames: (0..capacity).map(|_| None).collect(),
                tick: 0,
            }),
            stats: StorageStats::default(),
            wal,
        }
    }

    /// Pool hit/miss/eviction counters (physical I/O is on
    /// [`DiskManager::stats`]).
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Pin page `pid`, reading it from disk if necessary.
    pub fn fetch(&self, pid: PageId) -> Result<PageGuard> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(&idx) = inner.map.get(&pid) {
            let slot = inner.frames[idx].as_mut().expect("mapped frame exists");
            slot.last_used = tick;
            slot.cell.pin.fetch_add(1, Ordering::Relaxed);
            self.stats.pool_hits.bump();
            return Ok(PageGuard {
                cell: slot.cell.clone(),
            });
        }
        self.stats.pool_misses.bump();
        let idx = self.find_victim(&mut inner)?;
        // Load the page while still holding the pool lock: simple, and a
        // concurrent fetch of the same page will hit the map afterwards.
        // With a WAL, the log's newest image wins: the page file only holds
        // checkpointed (older) data.
        let mut data = Box::new([0u8; PAGE_SIZE]);
        match self.wal.as_ref().and_then(|w| w.latest_image(pid)) {
            Some(img) => data.copy_from_slice(&img[..]),
            None => self.disk.read_page(pid, &mut data)?,
        }
        let cell = Arc::new(FrameCell {
            pid,
            pin: AtomicU32::new(1),
            dirty: AtomicBool::new(false),
            data: RwLock::new(data),
        });
        inner.frames[idx] = Some(FrameSlot {
            cell: cell.clone(),
            last_used: tick,
        });
        inner.map.insert(pid, idx);
        Ok(PageGuard { cell })
    }

    /// Allocate a fresh page on disk and pin it.
    pub fn allocate(&self) -> Result<(PageId, PageGuard)> {
        let pid = self.disk.allocate()?;
        let guard = self.fetch(pid)?;
        Ok((pid, guard))
    }

    /// Write all dirty resident pages back: to the log (sealed by one
    /// commit frame, so the whole set becomes durable atomically) when a
    /// WAL is attached, else straight to the page file.
    ///
    /// Lock order: the pool mutex is released before any page lock is
    /// taken. A writer holds its page's lock while it asks the pool for
    /// another page (`HeapFile::insert_framed` growing the chain), so
    /// flushing under the pool mutex deadlocks the two. The dirty frames
    /// are pinned for the flush instead, which keeps eviction off them.
    pub fn flush_all(&self) -> Result<()> {
        let dirty: Vec<PageGuard> = {
            let inner = self.inner.lock();
            let cells = inner.frames.iter().flatten().map(|slot| &slot.cell);
            cells
                .filter(|cell| cell.dirty.load(Ordering::Acquire))
                .map(|cell| {
                    cell.pin.fetch_add(1, Ordering::Relaxed);
                    PageGuard { cell: cell.clone() }
                })
                .collect()
        };
        for page in &dirty {
            self.flush_cell(&page.cell)?;
        }
        drop(dirty);
        if let Some(wal) = &self.wal {
            wal.commit_stage()?;
        }
        Ok(())
    }

    /// Group-commit barrier: flush every dirty page, then make the batch
    /// durable with one sync. Callers batch many logical writes between
    /// calls so the sync cost is amortized across all of them; with a WAL
    /// attached, concurrent callers additionally piggyback on each other's
    /// fsync ([`Wal::make_durable`]), and the log auto-checkpoints once it
    /// outgrows its configured size.
    pub fn sync(&self) -> Result<()> {
        self.flush_all()?;
        match &self.wal {
            None => self.disk.sync(),
            Some(wal) => {
                let seq = wal.commit_stage()?;
                wal.make_durable(seq)?;
                if wal.needs_checkpoint() {
                    wal.checkpoint_into(&self.disk)?;
                }
                Ok(())
            }
        }
    }

    /// Write attempts per page before a flush gives up on transient I/O
    /// errors.
    const FLUSH_ATTEMPTS: u32 = 3;

    fn flush_cell(&self, cell: &FrameCell) -> Result<()> {
        if cell.dirty.swap(false, Ordering::AcqRel) {
            self.write_cell(cell)?;
        }
        Ok(())
    }

    /// Send a pinned page's current image to the log (to the page file,
    /// without one) now, dirty or not. A caller that must order two pages
    /// in the log — the second may only ever be sealed by a commit that
    /// also seals the first — writes the first through before it touches
    /// the second; the dirty flag alone cannot promise that, because a
    /// concurrent flush clears it before its own append has happened.
    pub fn write_through(&self, page: &PageGuard) -> Result<()> {
        page.cell.dirty.store(false, Ordering::Release);
        self.write_cell(&page.cell)
    }

    /// Write one page out, retrying transient I/O errors. On failure the
    /// page is left marked dirty.
    fn write_cell(&self, cell: &FrameCell) -> Result<()> {
        let data = cell.data.read();
        let mut last = None;
        for attempt in 0..Self::FLUSH_ATTEMPTS {
            let res = match &self.wal {
                Some(wal) => wal.append_page(cell.pid, &data),
                None => self.disk.write_page(cell.pid, &data),
            };
            match res {
                Ok(()) => return Ok(()),
                Err(e @ TmanError::Io(_)) => {
                    last = Some(e);
                    if attempt + 1 < Self::FLUSH_ATTEMPTS {
                        self.stats.io_retries.bump();
                        std::thread::sleep(std::time::Duration::from_micros(50 << attempt));
                    }
                }
                Err(e) => {
                    // Non-I/O failures are not transient: re-mark dirty
                    // so a later flush retries, and propagate.
                    cell.dirty.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        // Out of attempts: the page is still only in memory. Keep it
        // dirty so checkpoints keep trying rather than silently losing
        // the data.
        cell.dirty.store(true, Ordering::Release);
        Err(last.expect("loop ran at least once"))
    }

    /// Pick a frame index to (re)use: an empty slot, else the unpinned LRU
    /// frame (flushing it if dirty).
    fn find_victim(&self, inner: &mut PoolInner) -> Result<usize> {
        if let Some(idx) = inner.frames.iter().position(Option::is_none) {
            return Ok(idx);
        }
        let victim = inner
            .frames
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let s = s.as_ref().unwrap();
                (s.cell.pin.load(Ordering::Relaxed) == 0).then_some((i, s.last_used))
            })
            .min_by_key(|&(_, t)| t)
            .map(|(i, _)| i);
        let Some(idx) = victim else {
            return Err(TmanError::Storage(
                "buffer pool exhausted: all frames pinned".into(),
            ));
        };
        let slot = inner.frames[idx].take().expect("victim frame exists");
        if let Err(e) = self.flush_cell(&slot.cell) {
            // Put the victim back: dropping it here would silently lose the
            // dirty page the flush just failed to write.
            let pid = slot.cell.pid;
            inner.frames[idx] = Some(slot);
            inner.map.insert(pid, idx);
            return Err(e);
        }
        inner.map.remove(&slot.cell.pid);
        self.stats.evictions.bump();
        Ok(idx)
    }
}

/// A pinned page. Dropping the guard unpins it. Obtain the bytes through
/// [`read`](PageGuard::read) / [`write`](PageGuard::write); `write` marks
/// the page dirty.
pub struct PageGuard {
    cell: Arc<FrameCell>,
}

impl PageGuard {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.cell.pid
    }

    /// Shared access to the page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.cell.data.read()
    }

    /// Exclusive access; marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.cell.dirty.store(true, Ordering::Release);
        self.cell.data.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.cell.pin.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::open_memory()), cap)
    }

    #[test]
    fn fetch_hits_after_miss() {
        let p = pool(4);
        let (pid, g) = p.allocate().unwrap();
        drop(g);
        let _g1 = p.fetch(pid).unwrap();
        let _g2 = p.fetch(pid).unwrap();
        assert_eq!(p.stats().pool_misses.get(), 1); // allocate's fetch
        assert_eq!(p.stats().pool_hits.get(), 2);
    }

    #[test]
    fn writes_survive_eviction() {
        let p = pool(4);
        let (pid, g) = p.allocate().unwrap();
        g.write()[100] = 0xEE;
        drop(g);
        // Thrash the pool to force eviction of pid.
        let mut pids = vec![];
        for _ in 0..8 {
            let (q, g) = p.allocate().unwrap();
            pids.push(q);
            drop(g);
        }
        assert!(p.stats().evictions.get() > 0);
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.read()[100], 0xEE);
    }

    #[test]
    fn all_pinned_errors_out() {
        let p = pool(4);
        let mut guards = vec![];
        for _ in 0..4 {
            guards.push(p.allocate().unwrap().1);
        }
        assert!(p.allocate().is_err());
        guards.pop();
        assert!(p.allocate().is_ok());
    }

    #[test]
    fn lru_prefers_oldest_unpinned() {
        let p = pool(4);
        let mut pids = vec![];
        for _ in 0..4 {
            let (pid, g) = p.allocate().unwrap();
            pids.push(pid);
            drop(g);
        }
        // Touch pids[0] so pids[1] becomes LRU.
        drop(p.fetch(pids[0]).unwrap());
        let before = p.stats().evictions.get();
        let (_new, g) = p.allocate().unwrap();
        drop(g);
        assert_eq!(p.stats().evictions.get(), before + 1);
        // pids[0] should still be resident (fetch = hit).
        let hits_before = p.stats().pool_hits.get();
        drop(p.fetch(pids[0]).unwrap());
        assert_eq!(p.stats().pool_hits.get(), hits_before + 1);
        // pids[1] was evicted (fetch = miss).
        let misses_before = p.stats().pool_misses.get();
        drop(p.fetch(pids[1]).unwrap());
        assert_eq!(p.stats().pool_misses.get(), misses_before + 1);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let p = Arc::new(pool(16));
        let (pid, g) = p.allocate().unwrap();
        drop(g);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let p = p.clone();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let g = p.fetch(pid).unwrap();
                        if (t + i) % 3 == 0 {
                            let mut w = g.write();
                            let v = u32::from_le_bytes(w[0..4].try_into().unwrap());
                            w[0..4].copy_from_slice(&(v + 1).to_le_bytes());
                        } else {
                            let _ = g.read()[0];
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let g = p.fetch(pid).unwrap();
        let v = u32::from_le_bytes(g.read()[0..4].try_into().unwrap());
        // Writers used the exclusive lock, so no increments were lost.
        let expected: u32 = (0..8u32)
            .map(|t| (0..500u32).filter(|i| (t + i) % 3 == 0).count() as u32)
            .sum();
        assert_eq!(v, expected);
    }

    #[test]
    fn flush_retry_exhaustion_keeps_page_dirty() {
        use crate::fault::{FaultConfig, FaultPlan};
        let path = std::env::temp_dir().join(format!("tman_buf_retry_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed: 21,
            transient_per_mille: 1000,
            ..Default::default()
        });
        let disk = Arc::new(DiskManager::open_file_with(&path, Some(plan.clone())).unwrap());
        let p = BufferPool::new(disk.clone(), 4);
        let (pid, g) = p.allocate().unwrap();
        g.write()[5] = 0x5A;
        drop(g);
        plan.arm();
        let err = p.flush_all().unwrap_err();
        assert_eq!(err.kind(), "io");
        // Two sleeps between three attempts, and the page stayed dirty.
        assert_eq!(p.stats().io_retries.get(), 2);
        plan.disarm();
        p.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut raw).unwrap();
        assert_eq!(raw[5], 0x5A, "page reached disk once faults cleared");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_eviction_flush_does_not_lose_the_page() {
        use crate::fault::{FaultConfig, FaultPlan};
        let path = std::env::temp_dir().join(format!("tman_buf_evict_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed: 22,
            transient_per_mille: 1000,
            ..Default::default()
        });
        let disk = Arc::new(DiskManager::open_file_with(&path, Some(plan.clone())).unwrap());
        let p = BufferPool::new(disk.clone(), 4);
        let (pid, g) = p.allocate().unwrap();
        g.write()[0] = 0x77;
        drop(g);
        // Fill the remaining frames so the next allocate must evict pid.
        let mut extra = vec![];
        for _ in 0..3 {
            extra.push(p.allocate().unwrap().0);
        }
        plan.arm();
        assert!(p.allocate().is_err(), "eviction flush fails under faults");
        plan.disarm();
        // The dirty page must still be resident and intact.
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.read()[0], 0x77);
        drop(g);
        p.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut raw).unwrap();
        assert_eq!(raw[0], 0x77);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let disk = Arc::new(DiskManager::open_memory());
        let p = BufferPool::new(disk.clone(), 4);
        let (pid, g) = p.allocate().unwrap();
        g.write()[9] = 42;
        drop(g);
        p.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut raw).unwrap();
        assert_eq!(raw[9], 42);
    }
}
