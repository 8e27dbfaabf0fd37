//! Property test: the storage layer under seeded write-fault schedules.
//!
//! Drives a heap + B+tree workload on a file-backed store while a
//! [`FaultPlan`] injects torn writes, short writes, and transient I/O
//! errors (the non-lying faults: every failed write reports failure, so
//! "committed" is well defined). File-backed stores are WAL-backed, so
//! the schedule lands on log appends and group-commit fsyncs as well as
//! on checkpoint write-back, and every reopen runs recovery-time replay
//! of the committed log tail (the log-level mirror of these properties
//! lives in `prop_wal.rs`). Two properties:
//!
//! * **Committed rows survive** — after a clean final checkpoint and a
//!   reopen, every row whose insert reported success reads back
//!   byte-identically, and index entries that reported success are found.
//! * **No garbage after recovery** — a heap scan after reopen returns only
//!   payloads the test actually wrote, even when the reopen's scavenge
//!   pass had to salvage torn slots; the same holds after a hard crash
//!   point froze the disk mid-workload.

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tman_storage::{FaultConfig, FaultPlan, Storage};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tman_prop_fault_{tag}_{}_{n}.db",
        std::process::id()
    ))
}

/// Remove a database file and its write-ahead-log sidecar.
fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

/// Self-describing payload: the row number, then a derived fill pattern a
/// verifier can reconstruct from the first 8 bytes alone.
fn payload(i: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&i.to_le_bytes());
    out.extend_from_slice(&(i.wrapping_mul(0x9E37_79B9)).to_le_bytes());
    out.extend_from_slice(&[(i % 251) as u8; 8]);
    out
}

fn payload_is_wellformed(rec: &[u8]) -> bool {
    if rec.len() != 24 {
        return false;
    }
    let i = u64::from_le_bytes(rec[..8].try_into().unwrap());
    rec == payload(i).as_slice()
}

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn/short/transient schedules: nothing acknowledged is ever lost,
    /// and a clean final checkpoint makes the whole surviving state
    /// readable after reopen.
    #[test]
    fn committed_rows_survive_write_faults(
        seed in 0u64..1_000_000,
        torn in 0u32..120,
        short in 0u32..80,
        transient in 0u32..200,
        rows_a in 8usize..40,
        rows_b in 20usize..140,
        checkpoint_every in 5usize..25,
    ) {
        let path = tmpfile("mixed");
        cleanup(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            torn_per_mille: torn,
            short_per_mille: short,
            transient_per_mille: transient,
            ..Default::default()
        });
        // rid -> (row number, did the index insert succeed)
        let mut committed: HashMap<u64, (u64, bool)> = HashMap::new();
        {
            let s = Storage::open_file_with(&path, 16, Some(plan.clone())).unwrap();
            let heap = s.create_heap("rows").unwrap();
            let tree = s.create_btree("idx").unwrap();
            // Phase A on a reliable disk: all of this is durable.
            for i in 0..rows_a as u64 {
                let rid = heap.insert(&payload(i)).unwrap();
                tree.insert(&key(i), rid.to_u64()).unwrap();
                committed.insert(rid.to_u64(), (i, true));
            }
            s.checkpoint().unwrap();
            // Phase B under fire: failures are tolerated, successes are
            // promises.
            plan.arm();
            for i in rows_a as u64..(rows_a + rows_b) as u64 {
                if let Ok(rid) = heap.insert(&payload(i)) {
                    let indexed = tree.insert(&key(i), rid.to_u64()).is_ok();
                    committed.insert(rid.to_u64(), (i, indexed));
                }
                if (i as usize).is_multiple_of(checkpoint_every) {
                    let _ = s.checkpoint();
                }
            }
            // Back on a reliable disk, a checkpoint must succeed and make
            // every acknowledged operation durable.
            plan.disarm();
            s.checkpoint().unwrap();
        }
        let s = Storage::open_file(&path, 16).unwrap();
        let heap = s.open_heap("rows").unwrap();
        let tree = s.open_btree("idx").unwrap();
        for (&rid, &(i, indexed)) in &committed {
            let rec = heap
                .get(tman_storage::RecordId::from_u64(rid))
                .unwrap_or_else(|e| panic!("committed row {i} lost: {e}"));
            prop_assert_eq!(&rec, &payload(i), "row {} corrupted", i);
            if indexed {
                let hits = tree.lookup(&key(i)).unwrap();
                prop_assert!(hits.contains(&rid), "index entry for row {} lost", i);
            }
        }
        // Nothing the test never wrote may appear.
        let mut scanned = 0usize;
        let mut garbage = 0usize;
        heap.scan(|_, rec| {
            if !payload_is_wellformed(rec) {
                garbage += 1;
            }
            scanned += 1;
            Ok(true)
        })
        .unwrap();
        prop_assert_eq!(garbage, 0, "garbage rows after recovery");
        prop_assert_eq!(scanned, committed.len());
        cleanup(&path);
    }

    /// Hard crash points: freeze the disk at the Nth armed write, reopen,
    /// and check that phase-A rows survive and no read returns garbage.
    #[test]
    fn crash_point_never_loses_checkpointed_rows(
        seed in 0u64..1_000_000,
        crash_after in 1u64..60,
        rows_a in 8usize..40,
    ) {
        let path = tmpfile("crash");
        cleanup(&path);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            crash_after_writes: Some(crash_after),
            ..Default::default()
        });
        let mut durable: Vec<(u64, u64)> = Vec::new(); // (rid, row number)
        {
            let s = Storage::open_file_with(&path, 16, Some(plan.clone())).unwrap();
            let heap = s.create_heap("rows").unwrap();
            for i in 0..rows_a as u64 {
                let rid = heap.insert(&payload(i)).unwrap();
                durable.push((rid.to_u64(), i));
            }
            s.checkpoint().unwrap();
            plan.arm();
            // Hammer inserts and checkpoints until the crash point fires
            // (every armed write counts toward it).
            let mut i = rows_a as u64;
            while !plan.crashed() && i < rows_a as u64 + 10_000 {
                let _ = heap.insert(&payload(i));
                let _ = s.checkpoint();
                i += 1;
            }
            prop_assert!(plan.crashed(), "crash point never fired");
        }
        // "Restart": thaw the disk and reopen without the plan.
        plan.reset_crash();
        plan.disarm();
        let s = Storage::open_file(&path, 16).unwrap();
        let heap = s.open_heap("rows").unwrap();
        for &(rid, i) in &durable {
            let rec = heap
                .get(tman_storage::RecordId::from_u64(rid))
                .unwrap_or_else(|e| panic!("checkpointed row {i} lost after crash: {e}"));
            prop_assert_eq!(&rec, &payload(i), "row {} corrupted after crash", i);
        }
        let mut garbage = 0usize;
        heap.scan(|_, rec| {
            if !payload_is_wellformed(rec) {
                garbage += 1;
            }
            Ok(true)
        })
        .unwrap();
        prop_assert_eq!(garbage, 0, "garbage rows after crash recovery");
        cleanup(&path);
    }
}
