//! `tman-storage` — the disk substrate under TriggerMan.
//!
//! The paper hosts its catalogs, constant tables and update-descriptor queue
//! in Informix. This crate is the from-scratch replacement: a page-based
//! storage engine with
//!
//! * a [`DiskManager`] (file-backed or in-memory) with I/O accounting,
//! * fixed 4 KiB pages with a slotted-record layout,
//! * a [`BufferPool`] with pin/unpin and LRU eviction — the model
//!   for the paper's *trigger cache* ("analogous to the pin operation in a
//!   traditional buffer pool", §5.4),
//! * [`HeapFile`]s for table rows,
//! * a [`BTree`] over memcmp-comparable encoded keys ([`encode_key`]) —
//!   the "clustered index on \[const1, ... constK\]" of §5.1,
//! * [`SeqLog`]s — append-only records addressed by sequence number
//!   (the update-descriptor queue of §3),
//! * a persistent object [`Directory`] mapping names to roots,
//! * a write-ahead [`Wal`] under every file-backed store.
//!
//! Everything above this crate (SQL executor, catalogs, constant tables)
//! talks only to these abstractions, so the disk-vs-memory tradeoffs the
//! paper discusses (§5.2) are measurable via [`tman_common::stats`].

mod btree;
mod buffer;
mod dir;
mod disk;
mod fault;
mod heap;
mod keyenc;
mod page;
mod seqlog;
mod wal;

pub use btree::BTree;
pub use buffer::{BufferPool, PageGuard};
pub use dir::Directory;
pub use disk::{DiskManager, PageId, PAGE_SIZE};
pub use fault::{FaultConfig, FaultPlan};
pub use heap::{HeapFile, RecordId};
pub use keyenc::{encode_key, prefix_upper_bound};
pub use seqlog::SeqLog;
pub use wal::{Wal, WalConfig};

use dir::ObjectKind;

use std::path::Path;
use std::sync::Arc;
use tman_common::Result;

/// A storage instance: one disk file (or memory region), one buffer pool,
/// one object directory. File-backed stores also carry a write-ahead log
/// (`<path>.wal`) that is replayed at open and reset in place at checkpoint.
/// The unit the SQL layer builds a database on.
pub struct Storage {
    pool: Arc<BufferPool>,
    dir: Directory,
    wal_replayed: u64,
}

impl Storage {
    /// Open (or create) a file-backed store with the given buffer-pool
    /// capacity in pages.
    pub fn open_file(path: &Path, pool_pages: usize) -> Result<Storage> {
        Self::open_file_with(path, pool_pages, None)
    }

    /// Open a file-backed store with an optional fault-injection plan.
    pub fn open_file_with(
        path: &Path,
        pool_pages: usize,
        faults: Option<FaultPlan>,
    ) -> Result<Storage> {
        Self::open_file_opts(path, pool_pages, faults, WalConfig::default())
    }

    /// Open a file-backed store with a fault plan and WAL tuning. Recovery
    /// order: the page file is scavenged, then the log's committed tail is
    /// replayed over it; if either pass changed anything, derived state (heap chains,
    /// index roots, directory links) is revalidated and repaired before
    /// the store is handed out.
    pub fn open_file_opts(
        path: &Path,
        pool_pages: usize,
        faults: Option<FaultPlan>,
        wal_cfg: WalConfig,
    ) -> Result<Storage> {
        let disk = Arc::new(DiskManager::open_file_with(path, faults.clone())?);
        let mut wal_path = path.as_os_str().to_owned();
        wal_path.push(".wal");
        let wal = Arc::new(Wal::open(Path::new(&wal_path), faults, wal_cfg)?);
        let replayed = wal.replay_into(&disk)?;
        let recovered = disk.recovery_report().recovered() || replayed > 0;
        let pool = Arc::new(BufferPool::with_wal(disk, pool_pages, wal));
        let dir = Directory::open(pool.clone())?;
        let storage = Storage {
            pool,
            dir,
            wal_replayed: replayed,
        };
        if recovered {
            storage.repair_derived_state()?;
        }
        Ok(storage)
    }

    /// True when opening required recovery work: the scavenge pass found
    /// crash damage (quarantined pages) or the WAL replayed
    /// committed records the page file was missing. Higher layers use this
    /// to decide whether to rebuild derived structures such as SQL indexes.
    pub fn was_recovered(&self) -> bool {
        self.pool.disk().recovery_report().recovered() || self.wal_replayed > 0
    }

    /// Revalidate every object reachable from the directory after a crash:
    /// prune entries whose meta page never reached disk, re-seat heaps and
    /// trees whose meta pages were quarantined, fix heap chains, and reset
    /// unreadable index roots to empty leaves.
    fn repair_derived_state(&self) -> Result<()> {
        let num_pages = self.pool.disk().num_pages();
        self.dir.repair(num_pages)?;
        for entry in self.dir.list()? {
            match entry.kind {
                ObjectKind::Heap => match HeapFile::open(self.pool.clone(), entry.root) {
                    Ok(heap) => {
                        heap.repair()?;
                    }
                    Err(_) => {
                        HeapFile::reformat(self.pool.clone(), entry.root)?;
                    }
                },
                ObjectKind::BTree => {
                    BTree::repair(&self.pool, entry.root)?;
                }
                // Every `SeqLog::open` revalidates its chain.
                ObjectKind::SeqLog => {}
            }
        }
        Ok(())
    }

    /// Create a volatile in-memory store (tests, benches, and
    /// `TriggerMan::open_memory`). Each page is resident once: in its pool
    /// frame while it has one, else on the volatile disk, so `pool_pages`
    /// bounds only how many pages sit behind the pool's lock-free reads.
    pub fn open_memory(pool_pages: usize) -> Storage {
        let disk = Arc::new(DiskManager::open_volatile());
        let pool = Arc::new(BufferPool::new(disk, pool_pages));
        let dir = Directory::open(pool.clone()).expect("memory store cannot fail to open");
        Storage {
            pool,
            dir,
            wal_replayed: 0,
        }
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The object directory.
    pub fn dir(&self) -> &Directory {
        &self.dir
    }

    /// Create a new heap file registered under `name`.
    pub fn create_heap(&self, name: &str) -> Result<HeapFile> {
        let heap = HeapFile::create(self.pool.clone())?;
        self.dir.create(name, ObjectKind::Heap, heap.meta_page())?;
        Ok(heap)
    }

    /// Open an existing heap file by name.
    pub fn open_heap(&self, name: &str) -> Result<HeapFile> {
        let entry = self.dir.get(name)?;
        if entry.kind != ObjectKind::Heap {
            return Err(tman_common::TmanError::Storage(format!(
                "'{name}' is not a heap"
            )));
        }
        HeapFile::open(self.pool.clone(), entry.root)
    }

    /// Create a new B+tree registered under `name`.
    pub fn create_btree(&self, name: &str) -> Result<BTree> {
        let tree = BTree::create(self.pool.clone())?;
        self.dir.create(name, ObjectKind::BTree, tree.meta_page())?;
        Ok(tree)
    }

    /// Open an existing B+tree by name.
    pub fn open_btree(&self, name: &str) -> Result<BTree> {
        let entry = self.dir.get(name)?;
        if entry.kind != ObjectKind::BTree {
            return Err(tman_common::TmanError::Storage(format!(
                "'{name}' is not a btree"
            )));
        }
        BTree::open(self.pool.clone(), entry.root)
    }

    /// Create a new sequence log registered under `name`.
    pub fn create_seqlog(&self, name: &str) -> Result<SeqLog> {
        let log = SeqLog::create(self.pool.clone())?;
        self.dir.create(name, ObjectKind::SeqLog, log.meta_page())?;
        Ok(log)
    }

    /// Open an existing sequence log by name.
    pub fn open_seqlog(&self, name: &str) -> Result<SeqLog> {
        let entry = self.dir.get(name)?;
        if entry.kind != ObjectKind::SeqLog {
            return Err(tman_common::TmanError::Storage(format!(
                "'{name}' is not a sequence log"
            )));
        }
        SeqLog::open(self.pool.clone(), entry.root)
    }

    /// Remove a directory entry (pages are leaked — no free-space reuse in
    /// this reproduction; documented in DESIGN.md).
    pub fn drop_object(&self, name: &str) -> Result<()> {
        self.dir.remove(name)
    }

    /// Durability barrier. On a WAL-backed store: flush dirty pages to the
    /// log, group-commit them durable, then checkpoint (write the sealed
    /// images into the page file and reset the log in place). On a memory
    /// store there is nothing to write: its pages live in the pool or on
    /// the volatile disk, and neither outlives it.
    pub fn checkpoint(&self) -> Result<()> {
        match self.pool.wal() {
            None => self.pool.flush_all(),
            Some(wal) => {
                self.pool.sync()?;
                wal.checkpoint_into(self.pool.disk())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_open_heap_roundtrip() {
        let s = Storage::open_memory(64);
        let h = s.create_heap("t1").unwrap();
        let rid = h.insert(b"hello").unwrap();
        let h2 = s.open_heap("t1").unwrap();
        assert_eq!(h2.get(rid).unwrap(), b"hello".to_vec());
        assert!(s.open_heap("missing").is_err());
    }

    #[test]
    fn file_backed_reopen_preserves_objects() {
        let path = std::env::temp_dir().join(format!("tman_store_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rid;
        {
            let s = Storage::open_file(&path, 16).unwrap();
            let h = s.create_heap("persist").unwrap();
            rid = h.insert(b"durable").unwrap();
            s.checkpoint().unwrap();
        }
        {
            let s = Storage::open_file(&path, 16).unwrap();
            let h = s.open_heap("persist").unwrap();
            assert_eq!(h.get(rid).unwrap(), b"durable".to_vec());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_kind_is_error() {
        let s = Storage::open_memory(64);
        s.create_heap("h").unwrap();
        assert!(s.open_btree("h").is_err());
    }

    #[test]
    fn wal_replay_recovers_synced_but_uncheckpointed_data() {
        let path = std::env::temp_dir().join(format!("tman_store_wal_{}.db", std::process::id()));
        let wal_path = {
            let mut p = path.as_os_str().to_owned();
            p.push(".wal");
            std::path::PathBuf::from(p)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
        let rid;
        {
            let s = Storage::open_file(&path, 16).unwrap();
            let h = s.create_heap("q").unwrap();
            rid = h.insert(b"committed").unwrap();
            // Durability barrier, but *no* checkpoint: the page file never
            // sees this data — only the log does.
            s.pool().sync().unwrap();
            assert!(s.pool().wal().unwrap().bytes() > 0);
        } // unclean shutdown: no checkpoint
        {
            let s = Storage::open_file(&path, 16).unwrap();
            assert!(s.was_recovered(), "replay counts as recovery");
            assert!(s.wal_replayed > 0);
            let h = s.open_heap("q").unwrap();
            assert_eq!(h.get(rid).unwrap(), b"committed".to_vec());
            // Replay reset the log; a third open is clean.
        }
        {
            let s = Storage::open_file(&path, 16).unwrap();
            assert!(!s.was_recovered());
            assert_eq!(s.wal_replayed, 0);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
    }

    #[test]
    fn checkpoint_truncates_wal_and_persists_via_page_file() {
        let path = std::env::temp_dir().join(format!("tman_store_ckpt_{}.db", std::process::id()));
        let wal_path = {
            let mut p = path.as_os_str().to_owned();
            p.push(".wal");
            std::path::PathBuf::from(p)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
        let rid;
        {
            let s = Storage::open_file(&path, 16).unwrap();
            let h = s.create_heap("t").unwrap();
            rid = h.insert(b"checkpointed").unwrap();
            s.checkpoint().unwrap();
            let wal = s.pool().wal().unwrap();
            assert_eq!(wal.bytes(), 0, "checkpoint reset the log");
            assert_eq!(wal.stats().checkpoints.get(), 1);
        }
        {
            let s = Storage::open_file(&path, 16).unwrap();
            assert!(!s.was_recovered(), "clean shutdown needs no replay");
            let h = s.open_heap("t").unwrap();
            assert_eq!(h.get(rid).unwrap(), b"checkpointed".to_vec());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
    }
}
