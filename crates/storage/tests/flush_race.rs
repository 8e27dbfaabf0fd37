//! A page is clean only once its image is in the log. `sync` flushes the
//! dirty pages and seals them with one commit; a page another thread's
//! flush is still writing out must not look clean to it, or the commit is
//! sealed without that page and `sync` returns with the write not durable —
//! a queue watermark sealed ahead of the delivery-log append it
//! acknowledges.
//!
//! The window is held open with a page lock: one thread write-locks the
//! page (a writer mid-update), a second thread's `sync` reaches the page and
//! waits on that lock, and only then does a third thread `sync` on its own
//! account. When the third `sync` returns, the page's earlier write must be
//! in the log's committed prefix: a copy of the page file and its log,
//! opened as a store of its own, replays that prefix and must read the
//! write back — what a crash at that instant would keep. Each case runs
//! `FLUSH_RACE_ITERS` times (default 20).
//!
//! Barriers order everything a barrier can see. That a thread has reached
//! a lock and waits on it is not observable from outside, so the test
//! gives the second and third threads [`SETTLE`] each to get there. The
//! assertion holds under any schedule where the code is right; a schedule
//! slower than `SETTLE` can only let the broken code pass.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Duration;
use tman_storage::{PageId, Storage};

fn iters() -> u8 {
    let set = std::env::var("FLUSH_RACE_ITERS").ok();
    set.and_then(|v| v.parse().ok()).unwrap_or(20)
}

/// Where the test's own write goes, and where the writer holding the lock
/// scribbles.
const COMMITTED: usize = 100;
const SCRIBBLE: usize = 200;
/// Long enough for a thread to reach the page lock it waits on.
const SETTLE: Duration = Duration::from_millis(20);

/// The log beside the page file at `path`.
fn wal_path(path: &Path) -> PathBuf {
    let mut wal: OsString = path.as_os_str().to_owned();
    wal.push(".wal");
    wal.into()
}

/// Byte `at` of page `pid` as a crash now would leave it: the page file
/// and its log are copied to `copy`, and opening the copy replays the
/// log's committed prefix.
fn durable_byte(path: &Path, copy: &Path, pid: PageId, at: usize) -> u8 {
    std::fs::copy(path, copy).unwrap();
    std::fs::copy(wal_path(path), wal_path(copy)).unwrap();
    let reopened = Storage::open_file(copy, 4).unwrap();
    let byte = reopened.pool().fetch(pid).unwrap().read()[at];
    byte
}

#[test]
fn a_sync_never_seals_a_commit_without_a_page_another_flush_is_writing() {
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!("tman_flush_race_{tag}_{}.db", std::process::id()))
    };
    let (path, copy) = (tmp("live"), tmp("copy"));
    for p in [&path, &copy] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path(p));
    }
    let storage = Storage::open_file(&path, 16).unwrap();
    let pool = storage.pool();
    let (pid, page) = pool.allocate().unwrap();
    drop(page);
    pool.sync().unwrap();

    for i in 1..=iters() {
        // The write a later `sync` must make durable.
        pool.fetch(pid).unwrap().write()[COMMITTED] = i;
        let locked = Barrier::new(2);
        let release = Barrier::new(2);
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                let page = pool.fetch(pid).unwrap();
                let mut bytes = page.write();
                bytes[SCRIBBLE] = i;
                locked.wait();
                release.wait();
            });
            locked.wait();
            // A flush that reaches the page and waits for its lock.
            let flusher = s.spawn(|| pool.sync());
            std::thread::sleep(SETTLE);
            // A `sync` of this thread's own: durable when it returns.
            let committer = s.spawn(|| {
                pool.sync().unwrap();
                durable_byte(&path, &copy, pid, COMMITTED)
            });
            std::thread::sleep(SETTLE);
            release.wait();
            flusher.join().unwrap().unwrap();
            committer.join().unwrap()
        });
        assert_eq!(
            seen, i,
            "iteration {i}: sync returned with the page's write left out of its commit"
        );
    }
    drop(storage);
    for p in [&path, &copy] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path(p));
    }
}
