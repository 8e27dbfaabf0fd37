//! DDL check-then-act races. Every DDL command is one critical section
//! (`crates/engine/src/ddl.rs`), so of eight threads released together on
//! one name exactly one defines it, and a trigger can never join a set that
//! a concurrent `drop trigger set` is removing. A drain racing a `drop
//! trigger` skips the trigger it can no longer pin, in an update's
//! retraction as in its match. Each case runs `DDL_RACE_ITERS` times
//! (default 50; CI 200 in release, nightly 5 000).

use std::sync::{Arc, Barrier};
use tman_common::{Result, TmanError};
use triggerman::catalog::Catalog;
use triggerman::{CommandOutput, Config, NetworkKind, TriggerMan};

fn iters() -> usize {
    let set = std::env::var("DDL_RACE_ITERS").ok();
    set.and_then(|v| v.parse().ok()).unwrap_or(50)
}

/// Run each command on its own thread, all released from one barrier.
fn race(tman: &Arc<TriggerMan>, commands: &[String]) -> Vec<Result<CommandOutput>> {
    let barrier = Barrier::new(commands.len());
    std::thread::scope(|s| {
        let racers: Vec<_> = commands
            .iter()
            .map(|text| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    tman.execute_command(text)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    })
}

/// Eight copies of `command`: one succeeds, seven are `AlreadyExists`.
fn race_for_one_name(tman: &Arc<TriggerMan>, command: String) -> CommandOutput {
    let mut results = race(tman, &vec![command; 8]);
    let taken = |r: &Result<CommandOutput>| matches!(r, Err(TmanError::AlreadyExists(_)));
    assert_eq!(
        results.iter().filter(|r| taken(r)).count(),
        7,
        "{results:?}"
    );
    results.retain(|r| !taken(r));
    results.pop().unwrap().unwrap()
}

#[test]
fn one_of_eight_creates_of_a_trigger_name_wins() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (x int, y int)")
        .unwrap();
    let catalog = Catalog::open(tman.database()).unwrap();
    let index = tman.predicate_index();
    for i in 0..iters() {
        // An OR of two indexable atoms is two tagged index entries, so a
        // second winner would show in the entry count twice over.
        let create = format!("create trigger t from q when q.x = {i} or q.y = {i} do notify 't'");
        let created = race_for_one_name(&tman, create);
        assert!(matches!(created, CommandOutput::TriggerCreated(_)));
        assert_eq!(catalog.triggers().unwrap().len(), 1);
        assert_eq!((index.num_entries(), tman.tagged_entries()), (2, 2));
        tman.execute_command("drop trigger t").unwrap();
        assert_eq!(catalog.triggers().unwrap().len(), 0);
        assert_eq!((index.num_entries(), tman.tagged_entries()), (0, 0));
        let again = tman.execute_command("drop trigger t");
        assert!(matches!(again, Err(TmanError::NotFound(_))), "{again:?}");
    }
}

#[test]
fn one_of_eight_defines_of_a_data_source_name_wins() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    let catalog = Catalog::open(tman.database()).unwrap();
    let n = iters();
    for i in 0..n {
        let defined = race_for_one_name(&tman, format!("define data source s{i} (x int)"));
        let id = tman.source(&format!("s{i}")).unwrap().id;
        assert_eq!(defined, CommandOutput::DataSourceDefined(id));
    }
    // One row per name, and no id issued twice.
    let mut ids: Vec<_> = catalog
        .data_sources()
        .unwrap()
        .iter()
        .map(|r| r.id)
        .collect();
    assert_eq!(ids.len(), n);
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n);
}

/// Every `trigger` row's `tsID` names a `trigger_set` row.
fn assert_no_orphans(tman: &TriggerMan, when: &str) {
    let catalog = Catalog::open(tman.database()).unwrap();
    let sets: Vec<_> = catalog.sets().unwrap().iter().map(|s| s.id).collect();
    for (_, t) in catalog.triggers().unwrap() {
        let (name, set) = (&t.name, t.set);
        assert!(
            sets.contains(&set),
            "{when}: trigger '{name}' is in set {set}, which has no row"
        );
    }
}

#[test]
fn a_create_into_a_set_never_survives_the_drop_of_that_set() {
    let path = std::env::temp_dir().join(format!("tman_ddl_race_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
    tman.execute_command("define data source q (x int)")
        .unwrap();
    let n = iters();
    for i in 0..n {
        tman.execute_command(&format!("create trigger set s{i}"))
            .unwrap();
        let mut commands: Vec<String> = (0..3)
            .map(|c| format!("create trigger t{i}_{c} in s{i} from q when q.x = {c} do notify 't'"))
            .collect();
        commands.push(format!("drop trigger set s{i}"));
        let results = race(&tman, &commands);
        // The drop goes through exactly when it found the set empty, and
        // then no create can have found the set.
        let created = results[..3].iter().filter(|r| r.is_ok()).count();
        assert_eq!(results[3].is_ok(), created == 0, "{i}: {results:?}");
        assert_no_orphans(&tman, &format!("iteration {i}"));
        if i + 1 == n {
            break; // the last iteration's survivors stay for the reopen
        }
        for c in (0..3).filter(|&c| results[c].is_ok()) {
            tman.execute_command(&format!("drop trigger t{i}_{c}"))
                .unwrap();
        }
        if results[3].is_err() {
            tman.execute_command(&format!("drop trigger set s{i}"))
                .unwrap();
        }
    }
    tman.checkpoint().unwrap();
    drop(tman);
    let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
    assert_no_orphans(&tman, "after reopen");
    drop(tman);
    let _ = std::fs::remove_file(&path);
}

/// Join triggers over stored (TREAT) memories, so an update retracts its
/// old image from every trigger whose `any` entry that image matches. A
/// cache of one makes nearly every pin a catalog read, and a loop beside
/// the drain drops and re-creates the triggers, so a pin often finds its
/// trigger gone. That is a race the drain loses by design: the retraction
/// and the match both skip the trigger, and no task error is recorded.
#[test]
fn an_update_beside_dropped_join_triggers_records_no_error() {
    const TRIGGERS: usize = 8;
    let tman = TriggerMan::open_memory(Config {
        network: NetworkKind::Treat,
        trigger_cache_capacity: 1,
        ..Config::default()
    })
    .unwrap();
    tman.run_sql("create table sp (spno int, grade int)")
        .unwrap();
    tman.run_sql("create table h (hno int, spno int)").unwrap();
    for table in ["sp", "h"] {
        tman.execute_command(&format!("define data source {table} from table {table}"))
            .unwrap();
    }
    // Every row's every image matches every trigger's selection.
    let create = |k: usize| {
        format!(
            "create trigger j{k} on insert to h from sp s, h \
             when s.grade > -{k} - 1 and s.spno = h.spno do notify 'j'"
        )
    };
    for k in 0..TRIGGERS {
        tman.execute_command(&create(k)).unwrap();
    }
    for r in 0..4 {
        tman.run_sql(&format!("insert into sp values ({r}, 0)"))
            .unwrap();
        tman.run_sql(&format!("insert into h values ({r}, {r})"))
            .unwrap();
    }
    tman.run_until_quiescent().unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let churn = s.spawn(|| {
            let mut k = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                tman.execute_command(&format!("drop trigger j{k}")).unwrap();
                tman.execute_command(&create(k)).unwrap();
                k = (k + 1) % TRIGGERS;
            }
        });
        for i in 0..iters() * 4 {
            tman.run_sql(&format!("update sp set grade = {i} where spno = {}", i % 4))
                .unwrap();
            tman.run_until_quiescent().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churn.join().unwrap();
    });
    assert_eq!(tman.stats().errors.get(), 0, "{:?}", tman.last_error());
    assert!(tman.stats().tokens.get() >= iters() as u64 * 4);
}
