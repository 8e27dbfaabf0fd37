//! A `create trigger` is all or nothing.
//!
//! The store is a file with a small buffer pool, so catalog writes evict
//! pages and reach the log. A seeded [`FaultPlan`] freezes the disk at a
//! pinned write; triggers are created until one fails. The failed create
//! must leave nothing behind: the index holds exactly the entries of the
//! creates that succeeded, the names are theirs, the tagged count is
//! theirs, and a token that matches only the failed trigger's predicate
//! fires nothing and records no error. One crash point fails a plain
//! create, the other a two-arm OR, whose two entries are tagged. A create that registered its
//! entries before its catalog write failed — a ghost with index entries
//! but no name and no row — fails every one of these.

use std::sync::Arc;
use std::time::Duration;
use tman_common::{Tuple, UpdateDescriptor, Value};
use tman_storage::{FaultConfig, FaultPlan};
use triggerman::{Config, TriggerMan};

/// The fault schedule's seed.
const SEED: u64 = 0x5EED_C4EA;
/// The armed write that freezes the disk: it fails create `t247`, whose
/// condition is a plain equality.
const CRASH_AFTER_WRITES: u64 = 5;
/// An armed write that fails create `t274`, a two-arm OR whose two
/// entries are tagged.
const CRASH_AFTER_WRITES_TAGGED: u64 = 6;
/// Pages in the buffer pool: few, so that catalog inserts evict.
const POOL_PAGES: usize = 8;
/// Creates attempted before the test gives up on the crash.
const MAX_CREATES: u64 = 20_000;

/// Trigger `i`'s condition, and (index entries, tagged entries) it adds.
/// Every constant is `i`, so a token can match one trigger alone.
fn condition(i: u64) -> (String, usize, u64) {
    match i % 5 {
        0 => (format!("q.sym = 'S{i}'"), 1, 0),
        1 => (format!("q.sym = 'S{i}' and q.price > {i}"), 1, 0),
        2 => (format!("q.vol = {i}"), 1, 0),
        3 => (format!("q.price > {i} and q.price <= {}", i + 1), 1, 0),
        _ => (format!("q.sym = 'S{i}' or q.vol = {i}"), 2, 2),
    }
}

/// A database file of this process and thread: the tests run in parallel.
fn tmpfile() -> std::path::PathBuf {
    let thread = std::thread::current().id();
    let name = format!("tman_failed_create_{}_{thread:?}.db", std::process::id());
    std::env::temp_dir().join(name)
}

/// Remove a database file and its write-ahead-log sidecar.
fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

#[test]
fn a_failed_create_leaves_no_trigger_behind() {
    assert_eq!(create_until_the_crash(CRASH_AFTER_WRITES) % 5, 2);
}

/// The failed create registered two tagged entries before its catalog
/// write failed; taking them back must take their tagged count back too.
#[test]
fn a_failed_tagged_create_leaves_no_tagged_entry_behind() {
    assert_eq!(create_until_the_crash(CRASH_AFTER_WRITES_TAGGED) % 5, 4);
}

/// Create triggers until the write `crash_after_writes` fails one, check
/// that the failed create left nothing behind, and return its number.
fn create_until_the_crash(crash_after_writes: u64) -> u64 {
    let path = tmpfile();
    cleanup(&path);
    let plan = FaultPlan::new(FaultConfig {
        seed: SEED,
        crash_after_writes: Some(crash_after_writes),
        ..Default::default()
    });
    let tman: Arc<TriggerMan> = TriggerMan::open_file(
        &path,
        Config {
            pool_pages: POOL_PAGES,
            faults: Some(plan.clone()),
            ..Config::default()
        },
    )
    .unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int, seq int)")
        .unwrap();
    plan.arm();

    let (mut names, mut entries, mut tagged) = (Vec::new(), 0usize, 0u64);
    let mut failed = None;
    for i in 0..MAX_CREATES {
        let (cond, n, t) = condition(i);
        let name = format!("t{i}");
        let text =
            format!("create trigger {name} from q when {cond} do raise event Matched(q.seq)");
        let tagged_before = tman.tagged_entries();
        match tman.execute_command(&text) {
            Ok(_) => {
                names.push(name);
                entries += n;
                tagged += t;
            }
            Err(e) => {
                failed = Some((i, e, tagged_before));
                break;
            }
        }
    }
    let (failed, error, tagged_before) = failed.expect("the crash point fails a create");
    assert!(
        plan.crashed(),
        "create t{failed} failed without a crash: {error}"
    );
    assert!(
        !names.is_empty(),
        "the crash came before any create succeeded"
    );
    println!(
        "create t{failed} failed after {} successful creates: {error}",
        names.len()
    );

    names.sort();
    assert_eq!(tman.trigger_names(), names, "names after the failed create");
    assert_eq!(
        tman.predicate_index().num_entries(),
        entries,
        "index entries after create t{failed} failed"
    );
    assert_eq!(tman.tagged_entries(), tagged, "tagged entries");
    assert_eq!(
        tman.tagged_entries(),
        tagged_before,
        "tagged entries across the failed create t{failed}"
    );

    // A token that only the failed trigger's predicate could match (no
    // price is above a negative one) fires nothing and fails nothing.
    let src = tman.source("q").unwrap().id;
    let token = UpdateDescriptor::insert(
        src,
        Tuple::new(vec![
            Value::Str(format!("S{failed}")),
            Value::Float(-1.0),
            Value::Int(failed as i64),
            Value::Int(0),
        ]),
    );
    assert!(tman
        .predicate_index()
        .match_token_vec(&token)
        .unwrap()
        .is_empty());
    tman.push_tokens(vec![token]).unwrap();
    tman.tman_test(Duration::from_secs(60));
    assert_eq!(tman.stats().tokens.get(), 1);
    assert_eq!(tman.last_error(), None);

    drop(tman);
    cleanup(&path);
    failed
}
