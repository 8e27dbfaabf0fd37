//! Property tests: the write-ahead log under seeded fault schedules.
//!
//! Drives [`Wal`] directly — append / commit / group-commit / checkpoint —
//! while a [`FaultPlan`] injects torn writes, short writes, transient
//! errors, dropped syncs, and crash points into the log file. Four
//! properties:
//!
//! * **Committed records replay byte-exact** — under the non-lying faults
//!   (every failed write reports failure), any page sealed by a commit
//!   frame that reported success reads back byte-identically after a
//!   replay into a fresh page file.
//! * **Replay is idempotent** — replaying a byte-copy of the same log into
//!   a second page file produces identical pages, and reopening the
//!   log after replay reset it replays nothing and changes nothing.
//! * **A lying tail is discarded cleanly** — with dropped syncs in the
//!   schedule, "committed" is no longer a promise, but replay must still
//!   never panic, never error, and never surface a page image the workload
//!   didn't write (each replayed page is byte-identical to *some*
//!   acknowledged append of that page).
//! * **Checkpoints under fire converge** — write-back faults may abort a
//!   checkpoint, but the log keeps the records; once the disk behaves, one
//!   clean checkpoint lands every committed page in the page file and
//!   resets the log.
//!
//! The engine-level mirror of these properties (heap/B+tree workloads over
//! the WAL-backed buffer pool) lives in `prop_storage_fault.rs` and
//! `tests/crash_recovery.rs`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tman_check::prelude::*;
use tman_storage::{DiskManager, FaultConfig, FaultPlan, PageId, Wal, WalConfig, PAGE_SIZE};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmplog(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tman_prop_wal_{tag}_{}_{n}.wal",
        std::process::id()
    ))
}

/// Deterministic page image for version `v` of page `pid`: a stamped
/// header plus a fill pattern, with only a small window changed between
/// consecutive versions so repeated appends exercise the delta encoder.
fn image(pid: u32, v: u32) -> Box<[u8; PAGE_SIZE]> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    let fill = (pid.wrapping_mul(31) ^ 0xA5) as u8;
    buf[16..].iter_mut().for_each(|b| *b = fill);
    for step in 0..=v {
        let off = 16 + (step as usize * 96) % (PAGE_SIZE - 64);
        buf[off..off + 32].iter_mut().for_each(|b| {
            *b = (step.wrapping_mul(131).wrapping_add(pid)) as u8;
        });
    }
    buf[..8].copy_from_slice(&(pid as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&(v as u64).to_le_bytes());
    buf
}

/// Replay `path` into a fresh in-memory page file.
fn replay_fresh(path: &std::path::Path) -> (DiskManager, u64) {
    let wal = Wal::open(path, None, WalConfig::default()).expect("reopen after faults");
    let disk = DiskManager::open_memory();
    let replayed = wal.replay_into(&disk).expect("replay must not error");
    (disk, replayed)
}

fn read(disk: &DiskManager, pid: u32) -> Option<Box<[u8; PAGE_SIZE]>> {
    if pid >= disk.num_pages() {
        return None;
    }
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    disk.read_page(PageId(pid), &mut buf).ok()?;
    Some(buf)
}

/// Append with bounded retries (the buffer pool retries transient and torn
/// failures the same way). Returns true if the append was acknowledged.
fn append_retry(wal: &Wal, pid: u32, img: &[u8; PAGE_SIZE]) -> bool {
    (0..16).any(|_| wal.append_page(PageId(pid), img).is_ok())
}

/// Commit with bounded retries; `Some(seq)` once a commit frame lands.
fn commit_retry(wal: &Wal) -> Option<u64> {
    (0..16).find_map(|_| wal.commit_stage().ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Non-lying faults at append and commit boundaries: every page sealed
    /// by an acknowledged commit replays byte-exact, and replay is
    /// idempotent across a byte-copy of the log.
    #[test]
    fn committed_records_replay_byte_exact(
        seed in 0u64..1_000_000,
        torn in 0u32..120,
        short in 0u32..80,
        transient in 0u32..200,
        rounds in 4usize..20,
        pages_per_round in 1usize..6,
        crash_after in 0u64..400,
    ) {
        let path = tmplog("exact");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            torn_per_mille: torn,
            short_per_mille: short,
            transient_per_mille: transient,
            // Low draws mean "no crash point" so both shapes are covered.
            crash_after_writes: (crash_after >= 40).then_some(crash_after),
            ..Default::default()
        });
        // pid -> image promised durable by an acknowledged commit frame.
        // Each round uses fresh pids, so an uncommitted tail that happens
        // to survive in the file never shadows a committed image.
        let mut expected: HashMap<u32, Box<[u8; PAGE_SIZE]>> = HashMap::new();
        {
            let wal = Wal::open(&path, Some(plan.clone()), WalConfig::default()).unwrap();
            plan.arm();
            let mut staged: HashMap<u32, Box<[u8; PAGE_SIZE]>> = HashMap::new();
            let mut next_pid = 1u32;
            for round in 0..rounds {
                for _ in 0..pages_per_round {
                    let pid = next_pid;
                    next_pid += 1;
                    // Two versions per page: image append, then a small
                    // edit that goes down the delta path.
                    for v in 0..=(round % 2) as u32 {
                        let img = image(pid, v);
                        if append_retry(&wal, pid, &img) {
                            staged.insert(pid, img);
                        }
                    }
                }
                if let Some(seq) = commit_retry(&wal) {
                    // The commit frame is in the file: it seals every
                    // acknowledged append so far, including strays from
                    // rounds whose own commit failed.
                    for (pid, img) in staged.drain() {
                        expected.insert(pid, img);
                    }
                    // Durability is best-effort under fire; Ok or not, the
                    // sealed records are already covered by the frame.
                    let _ = wal.make_durable(seq);
                }
                if plan.crashed() {
                    break; // frozen until "restart"
                }
            }
        }
        plan.reset_crash();
        plan.disarm();

        let copy = path.with_extension("wal-copy");
        std::fs::copy(&path, &copy).unwrap();

        let (disk, _) = replay_fresh(&path);
        for (&pid, img) in &expected {
            let got = read(&disk, pid)
                .unwrap_or_else(|| panic!("committed page {pid} missing after replay"));
            prop_assert_eq!(&got[..], &img[..], "page {} not byte-exact", pid);
        }

        // Idempotence 1: a byte-copy of the log replays to identical pages.
        let (disk2, _) = replay_fresh(&copy);
        prop_assert_eq!(disk.num_pages(), disk2.num_pages());
        for pid in 0..disk.num_pages() {
            prop_assert_eq!(
                read(&disk, pid).map(|b| b.to_vec()),
                read(&disk2, pid).map(|b| b.to_vec()),
                "replay of a log copy diverged at page {}", pid
            );
        }
        // Idempotence 2: replay reset the log, so a second recovery
        // replays nothing and leaves the page file untouched.
        let wal2 = Wal::open(&path, None, WalConfig::default()).unwrap();
        prop_assert_eq!(wal2.replay_into(&disk).unwrap(), 0);
        for (&pid, img) in &expected {
            prop_assert_eq!(&read(&disk, pid).unwrap()[..], &img[..]);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);
    }

    /// Dropped syncs make the log lie (acknowledged frames may be missing
    /// from disk), so durability is off the table — but replay must still
    /// discard the damaged or missing tail cleanly: no panic, no error,
    /// and no page image the workload never wrote.
    #[test]
    fn lying_tail_is_discarded_without_garbage(
        seed in 0u64..1_000_000,
        dropped in 50u32..400,
        torn in 0u32..120,
        rounds in 4usize..20,
    ) {
        let path = tmplog("lying");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            dropped_sync_per_mille: dropped,
            torn_per_mille: torn,
            ..Default::default()
        });
        // Every acknowledged image of every page; replay may resurface any
        // one of them (or none), depending on which frames really landed.
        let mut history: HashMap<u32, Vec<Box<[u8; PAGE_SIZE]>>> = HashMap::new();
        {
            let wal = Wal::open(&path, Some(plan.clone()), WalConfig::default()).unwrap();
            plan.arm();
            for round in 0..rounds as u32 {
                for pid in 1..5u32 {
                    let img = image(pid, round);
                    if append_retry(&wal, pid, &img) {
                        history.entry(pid).or_default().push(img);
                    }
                }
                if let Some(seq) = commit_retry(&wal) {
                    let _ = wal.make_durable(seq);
                }
            }
        }
        plan.disarm();
        let (disk, _) = replay_fresh(&path);
        for pid in 0..disk.num_pages() {
            let Some(got) = read(&disk, pid) else { continue };
            if got.iter().all(|&b| b == 0) {
                continue; // allocate-extend padding, never replayed into
            }
            let known = history
                .get(&pid)
                .map(|v| v.iter().any(|img| img[..] == got[..]))
                .unwrap_or(false);
            prop_assert!(known, "page {} replayed to an image never written", pid);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Faults at checkpoint boundaries: aborted checkpoints lose nothing
    /// (the log still covers every committed page), and one clean
    /// checkpoint writes everything back and resets the log.
    #[test]
    fn checkpoint_under_faults_converges(
        seed in 0u64..1_000_000,
        torn in 0u32..150,
        transient in 0u32..250,
        rounds in 4usize..16,
        checkpoint_every in 2usize..6,
    ) {
        let path = tmplog("ckpt");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            torn_per_mille: torn,
            transient_per_mille: transient,
            ..Default::default()
        });
        let disk = DiskManager::open_memory();
        let wal = Wal::open(&path, Some(plan.clone()), WalConfig::default()).unwrap();
        let mut expected: HashMap<u32, Box<[u8; PAGE_SIZE]>> = HashMap::new();
        plan.arm();
        for round in 0..rounds as u32 {
            for pid in 1..6u32 {
                let img = image(pid, round);
                if append_retry(&wal, pid, &img) {
                    // Commits below retry until a frame lands, so on this
                    // no-crash schedule every acknowledged append seals.
                    expected.insert(pid, img);
                }
            }
            let seq = commit_retry(&wal).expect("commit retries exhausted");
            let _ = wal.make_durable(seq);
            // Checkpoints may abort mid-write-back; that must be harmless.
            if (round as usize).is_multiple_of(checkpoint_every) {
                let _ = wal.checkpoint_into(&disk);
            }
        }
        plan.disarm();
        wal.checkpoint_into(&disk).expect("clean checkpoint");
        prop_assert_eq!(wal.bytes(), 0, "checkpoint left records in the log");
        for (&pid, img) in &expected {
            let got = read(&disk, pid)
                .unwrap_or_else(|| panic!("page {pid} missing from the page file"));
            prop_assert_eq!(&got[..], &img[..], "page {} diverged after write-back", pid);
        }
        // Nothing left to replay: recovery from here is a no-op. (A fresh
        // memory disk holds only the pre-allocated superblock page.)
        drop(wal);
        let (fresh, replayed) = replay_fresh(&path);
        prop_assert_eq!(replayed, 0);
        prop_assert_eq!(fresh.num_pages(), DiskManager::open_memory().num_pages());
        let _ = std::fs::remove_file(&path);
    }
}

/// Long soak (ignored; CI runs it non-blocking): four committer threads
/// hammer group commits over disjoint page sets while a checkpointer
/// resets the log under all of them. Afterwards the final images must be in the page file, the
/// reset log must replay nothing, and the group-commit counter must
/// show committers actually shared fsyncs (the E13 economics).
#[test]
#[ignore]
fn wal_soak_concurrent_commit_checkpoint() {
    const WRITERS: u32 = 4;
    const PAGES: u32 = 4; // per writer
    const ROUNDS: u32 = 2_000;
    let pids = |w: u32| (1..=PAGES).map(move |i| w * PAGES + i);

    let path = tmplog("soak");
    let _ = std::fs::remove_file(&path);
    let disk = Arc::new(DiskManager::open_memory());
    let wal = Arc::new(Wal::open(&path, None, WalConfig::default()).unwrap());

    // Round 0 committed up front.
    for w in 0..WRITERS {
        for pid in pids(w) {
            wal.append_page(PageId(pid), &image(pid, 0)).unwrap();
        }
    }
    let seq0 = wal.commit_stage().unwrap();
    wal.make_durable(seq0).unwrap();

    // A commit frame seals *every* pending append, so concurrent writers
    // serialize stage+commit (as the buffer pool does) and overlap only in
    // `make_durable` — which is exactly where group commit amortizes.
    let stage = Arc::new(std::sync::Mutex::new(()));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (wal, stage) = (Arc::clone(&wal), Arc::clone(&stage));
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    let seq = {
                        let _g = stage.lock().unwrap();
                        for pid in pids(w) {
                            wal.append_page(PageId(pid), &image(pid, round)).unwrap();
                        }
                        wal.commit_stage().unwrap()
                    };
                    wal.make_durable(seq).unwrap();
                }
            })
        })
        .collect();
    let checkpointer = {
        let (wal, disk) = (Arc::clone(&wal), Arc::clone(&disk));
        let stage = Arc::clone(&stage);
        std::thread::spawn(move || {
            while Arc::strong_count(&wal) > 2 {
                {
                    // Checkpoint seals pending appends too, so it joins the
                    // same stage critical section the writers use.
                    let _g = stage.lock().unwrap();
                    wal.checkpoint_into(&disk).unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };
    for t in writers {
        t.join().unwrap();
    }
    checkpointer.join().unwrap();

    wal.checkpoint_into(&disk).unwrap();
    assert_eq!(wal.bytes(), 0, "final checkpoint left records in the log");
    let stats = wal.stats();
    assert!(
        stats.group_commits.get() > 0,
        "concurrent committers never shared an fsync"
    );
    assert!(
        stats.fsyncs.get() < stats.appends.get(),
        "fsyncs ({}) should be amortized below appends ({})",
        stats.fsyncs.get(),
        stats.appends.get()
    );
    for w in 0..WRITERS {
        for pid in pids(w) {
            let got = read(&disk, pid).expect("page written back");
            assert_eq!(
                &got[..],
                &image(pid, ROUNDS)[..],
                "page {pid} missing its final round after soak"
            );
        }
    }
    drop(wal);
    let (_, replayed) = replay_fresh(&path);
    assert_eq!(replayed, 0, "reset log replayed records after soak");
    let _ = std::fs::remove_file(&path);
}
