//! Differential oracle for windowed thresholds
//! (`when [pred] count >= K within W`).
//!
//! The reference is `tman_baseline::NaiveEca`, whose windows are the
//! documented semantics implemented the plain way — every in-window
//! effective timestamp per windowed trigger, monotone clamp
//! (`eff = max(ts, last_ts)`), half-open eviction (`<= eff − W`), fire iff
//! at least K events remain after admission — where the engine keeps only
//! the K newest stamps. Every engine configuration
//! under test (drain batches 1/16/256 — `drain_batch = 1` being the one
//! pipeline on a run of one, partitioned and not — and partitioned
//! fan-out columns that exercise the window fan-out exclusion gate, one
//! of them with classes on both sides of `partition_min`) must
//! produce the reference's exact firing multiset on the same token
//! stream, a third of it `Update` tokens (an update counts by its new
//! image, after its old image went through the retraction probe), with
//! constant-set organizations forced through all four §5.2 kinds
//! mid-stream.
//!
//! Timestamps are explicit (`ingest_unix_ns` is only stamped by the
//! engine when zero) and deliberately include out-of-order steps, so the
//! clamp is load-bearing: a mutant that rewinds on late timestamps
//! diverges immediately.
//!
//! Deterministic: pinned seed; `WINDOW_CASES` bounds the case
//! count (CI keeps it small; the `--ignored` variant runs more).
//!
//! ---------------------------------------------------------------------
//! Mutation kill list (design-level, as in the disjunction oracle): each
//! mutant was checked by reasoning against the pinned-seed case stream
//! and the deterministic tests below. The boundary, front-check, K = 1,
//! raw-`ts`, ack-order and stay-dirty mutants were also run.
//!
//! * `WindowState::observe`: compare the oldest stamp with `>=` instead
//!   of `>` — integer millisecond deltas collide with integer window
//!   widths, so tokens land exactly on `eff − W` and the half-open
//!   boundary decides a firing; `window_boundary_is_half_open` in
//!   `window.rs` pins it too.
//! * `WindowState::observe`: test the threshold *before* admitting the
//!   event — every gate opens one event late and `count >= 1` windows
//!   never fire on their first event; any case with k = 1 diverges.
//! * `WindowState::observe`: fire on `len == K` without the front check —
//!   a full ring whose oldest stamp has aged out still fires; any k >= 2
//!   case with a gap longer than W diverges, and so does
//!   `window::tests::windows_agree_with_naive_eca`.
//! * `WindowState::observe`: drop the K = 1 newest-counts rule — a
//!   `count >= 1` window no longer fires on an event at effective time 0
//!   (`eff − W` saturates to 0, and 0 is not later than 0). The engine
//!   re-stamps a zero stamp with the wall clock, so only
//!   `window::tests::windows_agree_with_naive_eca`, which drives the
//!   window with stamps of 0, kills it.
//! * `WindowState::observe`: push the raw `ts` instead of the clamped one —
//!   the ring's newest stamp is the clamp watermark, so a late stamp pulls
//!   it back and the next event is measured against the wrong edge; the
//!   out-of-order cases diverge.
//! * `TriggerMan::admit`: observe the window before claiming the
//!   tag — a disjunctive windowed trigger whose arms both match one token
//!   double-counts that token; the reference counts it once.
//! * `TriggerMan::admit`: ignore the observe verdict (fire on every
//!   matching event) — any k >= 2 case diverges on the pre-threshold
//!   prefix.
//! * `TriggerMan::process_run`: drop the `SignatureRuntime::windowed`
//!   fan-out exclusion — the columns with `partition_min` 1 do not catch
//!   it, since they fan every class and one thread runs the partition
//!   tasks in the order they were pushed, so windows still see token
//!   order. The mixed-classes column does: an equality-or-range windowed
//!   trigger whose equality class fans observes a token matched there
//!   after a later token of the batch matched its range arm inline, and
//!   the clamp then moves its effective time. The engine unit test
//!   `a_windowed_entry_keeps_its_class_from_fanning_out_until_dropped`
//!   catches it by the partition-task count.
//! * `TriggerMan::checkpoint`/`flush_acks`: skip `persist_windows` — the
//!   restart test reopens with an empty ring and the third event cannot
//!   cross its `count >= 3` threshold.
//! * `TriggerMan::recover`: skip the `window_state` hydrate loop — same
//!   lost-fire divergence in the restart test.
//! * `TriggerMan::flush_acks`: ack after a failed window persist — the
//!   fault test sees the batch acked while the disk is frozen.
//! * `WindowState::snapshot`/`TriggerMan::persist_windows`: leave a window
//!   clean after a failed save — the fault test's next barrier finds
//!   nothing dirty and acks while the disk is still frozen.
//! ---------------------------------------------------------------------

mod oracle_common;

use oracle_common::{
    batch_cfg, env_cases, partitioned_cfg, q_tuple, seeded_runner, Cond, Harness, Naive,
};
use tman_check::prelude::*;
use tman_common::{TmanError, Tuple, UpdateDescriptor, Value};
use tman_expr::IndexPlan;
use tman_lang::WindowSpec;
use tman_predindex::OrgKind;
use tman_storage::{FaultConfig, FaultPlan};
use triggerman::{Config, QueueMode, TriggerMan};

const SEED: u64 = 0x3D0_0001;
/// Tokens pushed per drain round; >1 sizes exercise the batched path.
const CHUNK_SIZES: [usize; 5] = [1, 3, 7, 2, 5];
/// Ballast entries in the mixed-classes column's equality class, and its
/// `partition_min`.
const BALLAST: usize = 4;
/// Constant-set organization forced onto every signature before chunk `j`.
const FORCED_ORGS: [OrgKind; 4] = [
    OrgKind::MemList,
    OrgKind::MemIndex,
    OrgKind::DbTable,
    OrgKind::DbIndexed,
];

/// One windowed trigger: selection (none for a pure window) + threshold K
/// + width in milliseconds.
#[derive(Debug, Clone)]
struct WindowDef {
    cond: Option<String>,
    k: u64,
    w_ms: u64,
}

impl WindowDef {
    fn ddl(&self, i: usize) -> String {
        let window = format!("count >= {} within {} ms", self.k, self.w_ms);
        let when = match &self.cond {
            None => window,
            Some(cond) => format!("{cond} {window}"),
        };
        format!("create trigger w{i} from q when {when} do raise event T{i}(q.sym)")
    }
}

fn arb_window() -> impl Strategy<Value = WindowDef> {
    let cond = prop_oneof![
        1 => Just(None),
        3 => (0u32..4).prop_map(|s| Some(format!("q.sym = 'S{s}'"))),
        3 => (0i64..80).prop_map(|p| Some(format!("q.price > {p}"))),
        // Disjunctive selection: under tagged execution the arms become
        // two entries sharing a tag, so this also proves claim-before-
        // window ordering (one observation per matching token, not per
        // arm).
        2 => (0u32..4, 0u32..4)
            .prop_map(|(a, b)| Some(format!("q.sym = 'S{a}' or q.sym = 'S{b}'"))),
        // Arms in two classes, an equality and a range: one token can
        // reach the window through either class.
        2 => (0u32..4, 0i64..80)
            .prop_map(|(a, p)| Some(format!("q.sym = 'S{a}' or q.price > {p}"))),
    ];
    (cond, 1u64..=4, 1u64..=30).prop_map(|(cond, k, w_ms)| WindowDef { cond, k, w_ms })
}

/// `(sym, price, delta_ms)`: the delta advances a shared millisecond
/// cursor and may be negative, producing out-of-order explicit stamps.
fn arb_tok() -> impl Strategy<Value = (u32, i64, i64)> {
    (0u32..5, 0i64..100, -5i64..=20)
}

/// Force every signature of one engine into `kind`; a class with no index
/// plan has no index to build and skips `MemIndex`.
fn force_org(h: &Harness, kind: OrgKind) {
    for rt in h.tman.predicate_index().all_signatures() {
        if kind == OrgKind::MemIndex && matches!(rt.sig.index_plan, IndexPlan::None) {
            continue;
        }
        rt.set_org(kind).unwrap();
    }
}

fn run_oracle(num_cases: u32) {
    let mut runner = seeded_runner(SEED, num_cases);
    let strategy = (
        tman_check::collection::vec(arb_window(), 1..6),
        tman_check::collection::vec(arb_tok(), 1..24),
    );
    let result = runner.run(&strategy, |(defs, toks)| {
        // `Harness::with_actions` takes one Cond per trigger; the DDL
        // template below ignores them and renders from `defs` instead.
        let conds: Vec<Cond> = (0..defs.len()).map(|_| Cond(String::new())).collect();
        let build = |label: &str, cfg: Config| {
            Harness::with_actions(label, cfg, &conds, |i, _| defs[i].ddl(i))
        };
        let mut engines: Vec<Harness> = [1usize, 16, 256]
            .iter()
            .map(|&b| build(&format!("windows b={b}"), batch_cfg(b)))
            .collect();
        for (p, b) in [(2usize, 16usize), (4, 1), (2, 1)] {
            engines.push(build(
                &format!("windows partitioned p={p} b={b}"),
                partitioned_cfg(p, b),
            ));
        }
        // Classes on both sides of `partition_min`: ballast triggers no
        // token matches hold the equality class at `partition_min`, and
        // the range class stays below it unless the draw fills it. A
        // windowed class that fanned out anyway would have its partition
        // tasks observe windows after a later token of the same batch
        // matched inline through the other class.
        let mixed = build(
            "windows mixed classes p=2 b=16",
            Config {
                partition_min: BALLAST,
                ..partitioned_cfg(2, 16)
            },
        );
        for j in 0..BALLAST {
            let ballast = format!("create trigger x{j} from q when q.sym = 'X{j}' do notify 'x'");
            mixed.tman.execute_command(&ballast).unwrap();
        }
        engines.push(mixed);
        let mut naive = Naive::new(&[]);
        for (i, def) in defs.iter().enumerate() {
            let cond = def.cond.as_deref().unwrap_or("1 = 1");
            let id = naive.create(&format!("w{i}"), cond, &format!("T{i}"));
            let window = WindowSpec {
                count: def.k,
                within_ns: def.w_ms * 1_000_000,
            };
            naive.eca.set_window(id, &window).unwrap();
        }
        // Explicit millisecond cursor; starts high enough that negative
        // deltas stay positive, and every stamp is nonzero so the engine
        // never re-stamps with the wall clock.
        let mut cursor_ms: i64 = 1_000;
        let mut prev: Option<Tuple> = None;
        let mut pos = 0usize;
        let mut chunk_no = 0usize;
        while pos < toks.len() {
            let size = CHUNK_SIZES[chunk_no % CHUNK_SIZES.len()].min(toks.len() - pos);
            let org = FORCED_ORGS[chunk_no % FORCED_ORGS.len()];
            for h in &engines {
                force_org(h, org);
            }
            let mut chunk = Vec::with_capacity(size);
            for (i, &(s, p, delta)) in toks[pos..pos + size].iter().enumerate() {
                cursor_ms += delta;
                let new = q_tuple(s, p, 0);
                // Every third token updates the row before it.
                let mut tok = match prev.replace(new.clone()) {
                    Some(old) if (pos + i) % 3 == 2 => {
                        UpdateDescriptor::update(engines[0].src, old, new)
                    }
                    _ => UpdateDescriptor::insert(engines[0].src, new),
                };
                tok.ingest_unix_ns = cursor_ms.max(1) as u64 * 1_000_000;
                chunk.push(tok);
            }
            let expected = naive.fire_chunk(&chunk);
            for h in &engines {
                let fired = h.fire_chunk(&chunk);
                prop_assert_eq!(
                    &fired,
                    &expected,
                    "{} diverged from the naive reference on chunk {} ({} tokens, org {:?})",
                    h.label,
                    chunk_no,
                    size,
                    org
                );
            }
            pos += size;
            chunk_no += 1;
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("window oracle failed: {e}");
    }
}

#[test]
fn windowed_thresholds_match_naive_model() {
    run_oracle(env_cases("WINDOW_CASES", 24));
}

#[test]
#[ignore = "long window oracle sweep; run with --ignored"]
fn windowed_thresholds_match_naive_model_long() {
    run_oracle(env_cases("WINDOW_CASES", 24).max(96));
}

/// The acceptance pin, deterministically: a filtered window fires on every
/// matching event at or above threshold, non-matching events never count,
/// and the fires are visible in `tman_window_fires_total`.
#[test]
fn windowed_threshold_fires_and_counts() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    let rx = tman.subscribe("Burst");
    tman.execute_command(
        "create trigger burst from q when q.sym = 'S0' count >= 3 within 100 ms \
         do raise event Burst(q.sym)",
    )
    .unwrap();
    let src = tman.source("q").unwrap().id;
    let push = |s: &str, ms: u64| {
        let mut tok = UpdateDescriptor::insert(
            src,
            Tuple::new(vec![Value::str(s), Value::Float(1.0), Value::Int(0)]),
        );
        tok.ingest_unix_ns = ms * 1_000_000;
        tman.push_token(tok).unwrap();
    };
    push("S0", 10);
    push("S0", 20);
    push("S1", 30); // filtered out: never enters the window
    push("S0", 40); // third matching event: fires
    push("S0", 50); // still over threshold: fires again
    push("S0", 500); // everything aged out: back to one in-window
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(
        rx.try_iter().count(),
        2,
        "fires at and above threshold only"
    );
    assert_eq!(tman.window_fires(), 2);
}

/// Dropping a windowed trigger discards its window and unblocks Figure-5
/// fan-out for the signature it was pinned to.
#[test]
fn dropped_window_trigger_goes_silent() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    let rx = tman.subscribe("Burst");
    tman.execute_command(
        "create trigger burst from q when q.sym = 'S0' count >= 1 within 1 hours \
         do raise event Burst(q.sym)",
    )
    .unwrap();
    let src = tman.source("q").unwrap().id;
    let push = |ms: u64| {
        let mut tok = UpdateDescriptor::insert(
            src,
            Tuple::new(vec![Value::str("S0"), Value::Float(1.0), Value::Int(0)]),
        );
        tok.ingest_unix_ns = ms * 1_000_000;
        tman.push_token(tok).unwrap();
    };
    push(10);
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 1);
    tman.execute_command("drop trigger burst").unwrap();
    push(20);
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 0, "dropped window stays silent");
}

/// At-least-once restart semantics: window state persisted at checkpoint
/// is hydrated on reopen, so a threshold armed before the restart crosses
/// on the first matching event after it.
#[test]
fn windowed_state_survives_restart() {
    let path = std::env::temp_dir().join(format!("tman_window_restart_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(&wal));

    let push = |tman: &std::sync::Arc<TriggerMan>, ms: u64| {
        let src = tman.source("q").unwrap().id;
        let mut tok = UpdateDescriptor::insert(
            src,
            Tuple::new(vec![Value::str("S0"), Value::Float(1.0), Value::Int(0)]),
        );
        tok.ingest_unix_ns = ms * 1_000_000_000;
        tman.push_token(tok).unwrap();
    };
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
            .unwrap();
        let rx = tman.subscribe("Burst");
        tman.execute_command(
            "create trigger burst from q when q.sym = 'S0' count >= 3 within 1 hours \
             do raise event Burst(q.sym)",
        )
        .unwrap();
        push(&tman, 1);
        push(&tman, 2);
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(rx.try_iter().count(), 0, "two of three: gate still closed");
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        let rx = tman.subscribe("Burst");
        push(&tman, 3);
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(
            rx.try_iter().count(),
            1,
            "hydrated ring + one event crosses the persisted threshold"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(std::path::PathBuf::from(&wal));
}

/// An `ingest_unix_ns` of real width (October 2025), in nanoseconds.
const NOW_NS: u64 = 1_760_000_000_000_000_000;

/// A fresh database path for `name`, with no file or log left over.
fn fresh_path(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("tman_{name}_{}.db", std::process::id()));
    cleanup(&path);
    path
}

/// Remove a database file and its write-ahead-log sidecar.
fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

/// An `S0` quote stamped `ns`.
fn quote_at(tman: &TriggerMan, ns: u64) -> UpdateDescriptor {
    let src = tman.source("q").unwrap().id;
    let mut tok = UpdateDescriptor::insert(
        src,
        Tuple::new(vec![Value::str("S0"), Value::Float(1.0), Value::Int(0)]),
    );
    tok.ingest_unix_ns = ns;
    tok
}

/// Push one `S0` quote stamped `ns`.
fn push_at(tman: &TriggerMan, ns: u64) {
    tman.push_token(quote_at(tman, ns)).unwrap();
}

/// Open `path` with a `count >= k within 1 hours` trigger `burst` on a
/// fresh source `q`.
fn open_burst(path: &std::path::Path, k: u64, cfg: Config) -> std::sync::Arc<TriggerMan> {
    let tman = TriggerMan::open_file(path, cfg).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    tman.execute_command(&format!(
        "create trigger burst from q when count >= {k} within 1 hours \
         do raise event Burst(q.sym)"
    ))
    .unwrap();
    tman
}

/// A window holding thousands of real-width stamps still checkpoints: its
/// row is K stamps, not every in-window one. The source, the trigger and
/// the open gate survive the reopen.
#[test]
fn a_busy_window_checkpoints_and_survives_reopen() {
    let path = fresh_path("busy_window");
    {
        let tman = open_burst(&path, 3, Config::default());
        let rx = tman.subscribe("Burst");
        for i in 0..4_000 {
            push_at(&tman, NOW_NS + i * 1_000_000);
        }
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(rx.try_iter().count(), 3_998);
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        assert!(tman.source("q").is_ok(), "the source survives");
        assert_eq!(tman.trigger_names(), vec!["burst".to_string()]);
        let rx = tman.subscribe("Burst");
        push_at(&tman, NOW_NS + 4_000 * 1_000_000);
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(rx.try_iter().count(), 1, "the open gate survives");
    }
    cleanup(&path);
}

/// The largest K accepted keeps its gate across a reopen: K events fire
/// once, and after the reopen one more fires again — two fires in all.
#[test]
fn the_largest_window_keeps_its_gate_across_reopen() {
    let k = triggerman::catalog::MAX_WINDOW_COUNT;
    assert_eq!(k, 4_095);
    let path = fresh_path("largest_window");
    let mut fires = 0;
    {
        let tman = open_burst(&path, k, Config::default());
        let rx = tman.subscribe("Burst");
        for i in 0..k {
            push_at(&tman, NOW_NS + i * 1_000_000);
        }
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        fires += rx.try_iter().count();
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        let rx = tman.subscribe("Burst");
        push_at(&tman, NOW_NS + k * 1_000_000);
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        fires += rx.try_iter().count();
    }
    assert_eq!(fires, 2);
    cleanup(&path);
}

/// A K whose full ring would not fit one catalog row is refused at create,
/// with the bound named.
#[test]
fn a_window_above_the_bound_is_refused_at_create() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    for k in [4_096u64, 70_000] {
        let err = tman
            .execute_command(&format!(
                "create trigger big from q when count >= {k} within 1 hours \
                 do raise event Burst(q.sym)"
            ))
            .unwrap_err();
        assert!(
            matches!(&err, TmanError::Invalid(m) if m.contains("MAX_WINDOW_COUNT = 4095")),
            "count >= {k}: {err:?}"
        );
    }
    assert!(tman.trigger_names().is_empty());
}

/// A window persist that fails holds the batch's acks: while the disk is
/// frozen nothing is acked, and once it thaws the next barrier persists
/// the window and then acks. The reopened window has every event.
#[test]
fn a_failed_window_persist_holds_the_ack_until_it_succeeds() {
    // A full ring spills over more pages than the pool holds, so its save
    // must write some of them out.
    const K: u64 = triggerman::catalog::MAX_WINDOW_COUNT;
    let path = fresh_path("failed_window_persist");
    let plan = FaultPlan::new(FaultConfig {
        seed: 0x5EED_3D01,
        crash_after_writes: Some(1),
        ..Default::default()
    });
    let cfg = Config {
        pool_pages: 8,
        queue_mode: QueueMode::Persistent,
        drain_batch: K as usize,
        faults: Some(plan.clone()),
        ..Config::default()
    };
    {
        let tman = open_burst(&path, K, cfg);
        let rx = tman.subscribe("Burst");
        let quotes = (0..K).map(|i| quote_at(&tman, NOW_NS + i * 1_000_000));
        tman.push_tokens(quotes.collect()).unwrap();
        tman.checkpoint().unwrap();
        plan.arm();
        tman.run_until_quiescent().unwrap();
        assert!(plan.crashed(), "the window save hit the frozen disk");
        assert!(
            tman.last_error().is_some(),
            "the failed persist is recorded"
        );
        assert_eq!(rx.try_iter().count(), 1, "the K-th event fired");
        assert_eq!(
            tman.metrics_snapshot().queue.dequeued,
            0,
            "no seq is acked while the window is not persisted"
        );
        tman.run_until_quiescent().unwrap();
        assert_eq!(tman.metrics_snapshot().queue.dequeued, 0, "still frozen");

        plan.disarm();
        plan.reset_crash();
        tman.run_until_quiescent().unwrap();
        assert_eq!(
            tman.metrics_snapshot().queue.dequeued,
            K,
            "the next barrier persists the window, then acks"
        );
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        let rx = tman.subscribe("Burst");
        push_at(&tman, NOW_NS + K * 1_000_000);
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(rx.try_iter().count(), 1, "the persisted ring re-arms");
    }
    cleanup(&path);
}
