//! Model-based test of the sequence-addressed record log.
//!
//! Each case drives one [`SeqLog`] through a seeded sequence of appends
//! (small records, page-sized ones, ones that span pages), bounded reads
//! from a cursor, truncations, durability barriers and reopens, and holds
//! it against a `VecDeque` of the records it should contain.
//!
//! On a **memory** store nothing fails, so every operation must succeed
//! and a reopen (`SeqLog::open` over the same pool) must find exactly the
//! model. On a **file** store (WAL-backed, a small pool so pages are
//! evicted mid-run) a [`FaultPlan`] tears and fails writes and freezes the
//! disk at a crash point:
//!
//! * an operation that reports an error must leave the log as it was;
//! * after a crash, the reopened log must hold a state the run actually
//!   passed through at or after its last acknowledged barrier — watermark
//!   and end of log both between their values at that barrier and their
//!   values at the crash, every surviving record byte-identical to the one
//!   appended under that sequence, no gaps;
//! * a reopen after an acknowledged barrier finds exactly the model.
//!
//! Every schedule is a function of the case number. The default run covers
//! a few dozen cases; the `#[ignore]`d sweep covers many more.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use tman_storage::{FaultConfig, FaultPlan, SeqLog, Storage};

/// SplitMix64, not `rand`: a case must replay the same schedule on every
/// build of `rand` this workspace is tested against.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn tmpfile(case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("tman_prop_seqlog_{}_{case}.db", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

const LOG: &str = "log_under_test";

/// What the log should hold. `history` keeps every record above the last
/// *durable* watermark, because a crash may bring any of them back.
struct Model {
    history: VecDeque<(u64, Vec<u8>)>,
    next_seq: u64,
    watermark: u64,
    durable_next: u64,
    durable_wm: u64,
}

impl Model {
    fn live(&self) -> impl Iterator<Item = &(u64, Vec<u8>)> {
        self.history.iter().filter(|(s, _)| *s > self.watermark)
    }

    fn barrier_acknowledged(&mut self) {
        self.durable_next = self.next_seq;
        self.durable_wm = self.watermark;
        let wm = self.watermark;
        self.history.retain(|(s, _)| *s > wm);
    }
}

fn record(rng: &mut Rng, seq: u64) -> Vec<u8> {
    let len = match rng.below(100) {
        0..=69 => rng.below(120),
        70..=89 => 200 + rng.below(1_800),
        90..=95 => 4_060 + rng.below(16), // around one page's payload
        _ => 4_100 + rng.below(9_000),    // spans two to four pages
    };
    (0..len).map(|i| (seq.wrapping_mul(31) + i) as u8).collect()
}

fn read_all(log: &SeqLog) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    log.read_from(0, usize::MAX, |s, r| out.push((s, r.to_vec())))
        .expect("read of a healthy store");
    out
}

fn assert_matches_model(log: &SeqLog, m: &Model, what: &str) {
    assert_eq!(log.watermark(), m.watermark, "{what}: watermark");
    assert_eq!(log.next_seq(), m.next_seq, "{what}: next sequence");
    let want: Vec<(u64, Vec<u8>)> = m.live().cloned().collect();
    assert_eq!(read_all(log), want, "{what}: records");
}

/// One seeded run. `path` selects the file store (with faults and a crash
/// point) over the memory store.
fn run_case(case: u64, ops: usize, path: Option<&Path>) {
    let mut rng = Rng(0x5E9_106 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let new_plan = |rng: &mut Rng, ops_left: usize| {
        FaultPlan::new(FaultConfig {
            seed: rng.next(),
            crash_after_writes: Some(5 + rng.below(ops_left as u64 / 2 + 20)),
            torn_per_mille: 20,
            transient_per_mille: 30,
            ..Default::default()
        })
    };
    let pool_pages = 8 + rng.below(10) as usize;
    let mut plan = path.map(|_| new_plan(&mut rng, ops));
    let open = |plan: &Option<FaultPlan>| match path {
        Some(p) => Storage::open_file_with(p, pool_pages, plan.clone()).expect("open"),
        None => Storage::open_memory(pool_pages),
    };
    // Reopens run on a healthy disk: recovery under fire is `prop_wal`'s
    // and `prop_storage_fault`'s subject, not this test's.
    let reopen = |plan: &Option<FaultPlan>| {
        let armed = plan.as_ref().filter(|f| f.is_armed());
        armed.inspect(|f| f.disarm());
        let storage = open(plan);
        let log = storage.open_seqlog(LOG).expect("reopen");
        armed.inspect(|f| f.arm());
        (storage, log)
    };
    let mut storage = open(&plan);
    let mut log = storage.create_seqlog(LOG).expect("create");
    storage.checkpoint().expect("checkpoint of the empty log");
    if let Some(p) = &plan {
        p.arm();
    }
    let mut m = Model {
        history: VecDeque::new(),
        next_seq: 1,
        watermark: 0,
        durable_next: 1,
        durable_wm: 0,
    };
    let mut cursor = 0u64;

    for op in 0..ops {
        match rng.below(100) {
            0..=49 => {
                let rec = record(&mut rng, m.next_seq);
                match log.append(&rec) {
                    Ok(seq) => {
                        assert_eq!(seq, m.next_seq, "case {case} op {op}: append sequence");
                        m.history.push_back((seq, rec));
                        m.next_seq += 1;
                    }
                    Err(_) => {
                        assert!(path.is_some(), "case {case}: memory append failed");
                        assert_eq!(log.next_seq(), m.next_seq, "case {case}: failed append");
                    }
                }
            }
            50..=69 => {
                if rng.below(8) == 0 {
                    cursor = 0; // start over from the watermark
                }
                let max = 1 + rng.below(40) as usize;
                let mut got = Vec::new();
                match log.read_from(cursor, max, |s, r| got.push((s, r.to_vec()))) {
                    Ok(next) => {
                        let from = cursor.max(m.watermark + 1);
                        let want: Vec<_> = m
                            .live()
                            .filter(|(s, _)| *s >= from)
                            .take(max)
                            .cloned()
                            .collect();
                        assert_eq!(got, want, "case {case} op {op}: read from {cursor}");
                        assert_eq!(next, from + want.len() as u64);
                        cursor = next;
                    }
                    Err(_) => assert!(path.is_some(), "case {case}: memory read failed"),
                }
            }
            70..=84 => {
                // Mostly up to the cursor, as a consumer would; sometimes
                // anywhere, including backwards and past the end.
                let through = if rng.below(4) > 0 {
                    cursor.saturating_sub(1 + rng.below(3))
                } else {
                    rng.below(m.next_seq + 3)
                };
                match log.truncate_through(through) {
                    Ok(()) => m.watermark = m.watermark.max(through.min(m.next_seq - 1)),
                    Err(_) => assert!(path.is_some(), "case {case}: memory truncate failed"),
                }
                assert_eq!(
                    log.watermark(),
                    m.watermark,
                    "case {case} op {op}: watermark"
                );
            }
            85..=96 => match storage.pool().sync() {
                Ok(()) => m.barrier_acknowledged(),
                Err(_) => assert!(path.is_some(), "case {case}: memory sync failed"),
            },
            _ => {
                // Reopen. The file store needs an acknowledged barrier
                // first; the memory store keeps its pool.
                if path.is_none() {
                    log = SeqLog::open(storage.pool().clone(), log.meta_page()).expect("reopen");
                    assert_matches_model(&log, &m, &format!("case {case} op {op}: reopen"));
                } else if storage.pool().sync().is_ok() {
                    m.barrier_acknowledged();
                    // A disk that froze right behind the barrier is the
                    // crash handler's to reopen, below.
                    if !plan.as_ref().is_some_and(|p| p.crashed()) {
                        drop((storage, log));
                        (storage, log) = reopen(&plan);
                        assert_matches_model(&log, &m, &format!("case {case} op {op}: reopen"));
                    }
                }
            }
        }

        if plan.as_ref().is_some_and(|p| p.crashed()) {
            // The disk froze somewhere inside the last operation. Pull the
            // plug, thaw, and reopen under a fresh schedule.
            drop((storage, log));
            let old = plan.take().expect("crashed plan");
            old.reset_crash();
            old.disarm();
            (storage, log) = reopen(&None);
            let (wm, next) = (log.watermark(), log.next_seq());
            let what = format!("case {case} op {op}: after crash");
            assert!(
                (m.durable_wm..=m.watermark).contains(&wm),
                "{what}: watermark {wm} outside {}..={}",
                m.durable_wm,
                m.watermark
            );
            assert!(
                (m.durable_next.max(wm + 1)..=m.next_seq.max(wm + 1)).contains(&next),
                "{what}: next sequence {next} outside {}..={} (watermark {wm})",
                m.durable_next,
                m.next_seq
            );
            m.watermark = wm;
            m.next_seq = next;
            m.history.retain(|(s, _)| *s < next);
            assert_matches_model(&log, &m, &what);
            // Continue on the recovered store with a new crash point.
            storage.checkpoint().expect("checkpoint after recovery");
            m.barrier_acknowledged();
            drop((storage, log));
            plan = Some(new_plan(&mut rng, ops - op));
            (storage, log) = reopen(&plan);
            plan.as_ref().expect("just set").arm();
            cursor = 0;
        }
    }

    // Whatever happened, a healthy disk and one barrier settle it.
    if let Some(p) = &plan {
        p.disarm();
        assert!(!p.crashed());
    }
    storage.pool().sync().expect("final barrier");
    m.barrier_acknowledged();
    assert_matches_model(&log, &m, &format!("case {case}: end of run"));
    if let Some(p) = path {
        drop(log);
        drop(storage);
        let storage = Storage::open_file(p, pool_pages).expect("final open");
        let log = storage.open_seqlog(LOG).expect("final reopen");
        assert_matches_model(&log, &m, &format!("case {case}: final reopen"));
    }
}

fn file_case(case: u64, ops: usize) {
    let path = tmpfile(case);
    cleanup(&path);
    run_case(case, ops, Some(&path));
    cleanup(&path);
}

#[test]
fn memory_store_matches_the_model() {
    for case in 0..24 {
        run_case(case, 600, None);
    }
}

#[test]
fn file_store_matches_the_model_across_faults_and_crashes() {
    for case in 0..24 {
        file_case(case, 400);
    }
}

/// The long sweep. Run with `cargo test -- --ignored`.
#[test]
#[ignore]
fn seqlog_sweep_full() {
    for case in 100..400 {
        run_case(case, 3_000, None);
        file_case(case, 1_500);
    }
}
