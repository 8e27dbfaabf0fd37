//! Differential oracle for windowed thresholds
//! (`when [pred] count >= K within W`).
//!
//! The reference is a naive in-test model: one `VecDeque` of effective
//! timestamps per windowed trigger, mirroring `WindowState` exactly —
//! monotone clamp (`eff = max(ts, last_ts)`), half-open eviction
//! (`<= eff − W`), fire iff at least K events remain after admission.
//! Every engine configuration under test (shard counts 1/2/4/8, drain
//! batches 1/16/256 — `drain_batch = 1` being the one pipeline on a run of
//! one, partitioned and not — and a partitioned fan-out column that
//! exercises the window fan-out exclusion gate) must produce the model's
//! exact firing multiset on the same token stream, a third of it `Update`
//! tokens (an update counts by its new image, after its old image went
//! through the retraction probe), with constant-set organizations
//! forced through all five §5.2 kinds and active-shard width transitions
//! forced mid-stream.
//!
//! Timestamps are explicit (`ingest_unix_ns` is only stamped by the
//! engine when zero) and deliberately include out-of-order steps, so the
//! clamp is load-bearing: a mutant that rewinds on late timestamps
//! diverges immediately.
//!
//! Deterministic: pinned 32-byte seed; `WINDOW_CASES` bounds the case
//! count (CI keeps it small; the `--ignored` variant runs more).
//!
//! ---------------------------------------------------------------------
//! Mutation kill list (design-level, as in the disjunction oracle): each
//! mutant was checked by reasoning against the pinned-seed case stream
//! and the deterministic tests below.
//!
//! * `WindowState::observe`: drop the monotone clamp (admit raw `ts`) —
//!   the generator's negative deltas produce late timestamps that the
//!   mutant lets rewind the window edge; the model clamps, so eviction
//!   sets differ and the multisets diverge.
//! * `WindowState::observe`: evict with `<` instead of `<=` — integer
//!   millisecond deltas collide with integer window widths, so tokens
//!   land exactly on `eff − W` and the half-open boundary decides a
//!   firing; `window_boundary_is_half_open` in `window.rs` pins it too.
//! * `WindowState::observe`: test the threshold *before* admitting the
//!   event — every gate opens one event late and `count >= 1` windows
//!   never fire on their first event; any case with k = 1 diverges.
//! * `TriggerMan::admit`: observe the window before claiming the
//!   tag — a disjunctive windowed trigger (the `SymOr` predicate) whose
//!   arms both match one token double-counts that token; the model
//!   counts it once.
//! * `TriggerMan::admit`: ignore the observe verdict (fire on every
//!   matching event) — any k >= 2 case diverges on the pre-threshold
//!   prefix.
//! * `TriggerMan::process_run`: drop the `PlanSig::windowed` fan-out
//!   exclusion — the partitioned engines route window probes through
//!   partition tasks, which run after directly-probed later tokens;
//!   with out-of-order timestamps the observation order shift changes
//!   clamp outcomes and the partitioned column diverges.
//! * `TriggerMan::checkpoint`/`flush_acks`: skip `persist_windows` — the
//!   restart test reopens with an empty ring and the third event cannot
//!   cross its `count >= 3` threshold.
//! * `TriggerMan::recover`: skip the `window_state` hydrate loop — same
//!   lost-fire divergence in the restart test.
//! * `TriggerMan::expire_windows`: stop draining eviction tallies — the
//!   deterministic counter test pins `window_evictions() > 0` after a
//!   stream that ages entries out.
//! ---------------------------------------------------------------------

mod oracle_common;

use oracle_common::{env_cases, partitioned_cfg, q_tuple, seeded_runner, shard_cfg, Cond, Harness};
use proptest::prelude::*;
use std::collections::VecDeque;
use tman_common::{Tuple, UpdateDescriptor, Value};
use tman_expr::IndexPlan;
use tman_predindex::OrgKind;
use triggerman::{Config, TriggerMan};

const SEED: [u8; 32] = *b"tman-window-oracle-seed-000001!!";
/// Active-shard width forced before chunk `j`.
const FORCED_ACTIVE: [usize; 5] = [1, 2, 8, 3, 4];
/// Tokens pushed per drain round; >1 sizes exercise the batched path.
const CHUNK_SIZES: [usize; 5] = [1, 3, 7, 2, 5];
/// Constant-set organization forced onto every signature before chunk `j`.
const FORCED_ORGS: [OrgKind; 5] = [
    OrgKind::MemList,
    OrgKind::MemListDenorm,
    OrgKind::MemIndex,
    OrgKind::DbTable,
    OrgKind::DbIndexed,
];

/// A selection the in-test model can evaluate itself.
#[derive(Debug, Clone)]
enum Pred {
    /// Pure window: `when count >= K within W`, no selection at all.
    Any,
    SymEq(u32),
    PriceGt(i64),
    /// Disjunctive selection: under tagged execution the arms become two
    /// entries sharing a tag, so this also proves claim-before-window
    /// ordering (one observation per matching token, not per arm).
    SymOr(u32, u32),
}

impl Pred {
    fn matches(&self, sym: u32, price: i64) -> bool {
        match *self {
            Pred::Any => true,
            Pred::SymEq(s) => sym == s,
            Pred::PriceGt(p) => price > p,
            Pred::SymOr(a, b) => sym == a || sym == b,
        }
    }
}

/// One windowed trigger: selection + threshold K + width in milliseconds.
#[derive(Debug, Clone)]
struct WindowDef {
    pred: Pred,
    k: u64,
    w_ms: u64,
}

impl WindowDef {
    fn ddl(&self, i: usize) -> String {
        let window = format!("count >= {} within {} ms", self.k, self.w_ms);
        let when = match &self.pred {
            Pred::Any => window,
            Pred::SymEq(s) => format!("q.sym = 'S{s}' {window}"),
            Pred::PriceGt(p) => format!("q.price > {p} {window}"),
            Pred::SymOr(a, b) => format!("q.sym = 'S{a}' or q.sym = 'S{b}' {window}"),
        };
        format!("create trigger w{i} from q when {when} do raise event T{i}(q.sym)")
    }
}

fn arb_window() -> impl Strategy<Value = WindowDef> {
    let pred = prop_oneof![
        1 => Just(Pred::Any),
        3 => (0u32..4).prop_map(Pred::SymEq),
        3 => (0i64..80).prop_map(Pred::PriceGt),
        2 => (0u32..4, 0u32..4).prop_map(|(a, b)| Pred::SymOr(a, b)),
    ];
    (pred, 1u64..=4, 1u64..=30).prop_map(|(pred, k, w_ms)| WindowDef { pred, k, w_ms })
}

/// `(sym, price, delta_ms)`: the delta advances a shared millisecond
/// cursor and may be negative, producing out-of-order explicit stamps.
fn arb_tok() -> impl Strategy<Value = (u32, i64, i64)> {
    (0u32..5, 0i64..100, -5i64..=20)
}

/// The reference: `WindowState`'s documented semantics, reimplemented
/// naively (clamp, half-open eviction, fire iff len >= K after push).
struct ModelWindow {
    k: u64,
    w_ns: u64,
    ring: VecDeque<u64>,
    last_ts: u64,
}

impl ModelWindow {
    fn new(def: &WindowDef) -> ModelWindow {
        ModelWindow {
            k: def.k,
            w_ns: def.w_ms * 1_000_000,
            ring: VecDeque::new(),
            last_ts: 0,
        }
    }

    fn observe(&mut self, ts: u64) -> bool {
        let eff = ts.max(self.last_ts);
        self.last_ts = eff;
        let cutoff = eff.saturating_sub(self.w_ns);
        while self.ring.front().is_some_and(|&t| t <= cutoff) {
            self.ring.pop_front();
        }
        self.ring.push_back(eff);
        self.ring.len() as u64 >= self.k
    }
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
    let mut runner = seeded_runner(&SEED, num_cases);
    let strategy = (
        proptest::collection::vec(arb_window(), 1..6),
        proptest::collection::vec(arb_tok(), 1..24),
    );
    let result = runner.run(&strategy, |(defs, toks)| {
        // `Harness::with_actions` takes one Cond per trigger; the DDL
        // template below ignores them and renders from `defs` instead.
        let conds: Vec<Cond> = (0..defs.len()).map(|_| Cond(String::new())).collect();
        let build = |label: &str, cfg: Config| {
            Harness::with_actions(label, cfg, &conds, |i, _| defs[i].ddl(i))
        };
        let mut engines = vec![build("windows s=1 b=1", shard_cfg(1, 1))];
        for (s, b) in [(2usize, 16usize), (4, 256), (8, 1)] {
            engines.push(build(&format!("windows s={s} b={b}"), shard_cfg(s, b)));
        }
        for (s, b) in [(2usize, 16usize), (4, 1), (1, 1)] {
            engines.push(build(
                &format!("windows partitioned s={s} b={b}"),
                partitioned_cfg(s, b),
            ));
        }
        let mut model: Vec<ModelWindow> = defs.iter().map(ModelWindow::new).collect();
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
            let width = FORCED_ACTIVE[chunk_no % FORCED_ACTIVE.len()];
            for h in &engines {
                force_org(h, org);
                h.tman.set_active_shards(width);
            }
            let mut chunk = Vec::with_capacity(size);
            let mut expected = Vec::new();
            for (i, &(s, p, delta)) in toks[pos..pos + size].iter().enumerate() {
                cursor_ms += delta;
                let ts_ns = cursor_ms.max(1) as u64 * 1_000_000;
                let new = q_tuple(s, p, 0);
                // Every third token updates the row before it.
                let mut tok = match prev.replace(new.clone()) {
                    Some(old) if (pos + i) % 3 == 2 => {
                        UpdateDescriptor::update(engines[0].src, old, new)
                    }
                    _ => UpdateDescriptor::insert(engines[0].src, new),
                };
                tok.ingest_unix_ns = ts_ns;
                chunk.push(tok);
                for (i, def) in defs.iter().enumerate() {
                    if def.pred.matches(s, p) && model[i].observe(ts_ns) {
                        expected.push(format!("T{i}"));
                    }
                }
            }
            expected.sort();
            for h in &engines {
                let fired = h.fire_chunk(&chunk);
                prop_assert_eq!(
                    &fired,
                    &expected,
                    "{} diverged from the window model on chunk {} ({} tokens, org {:?})",
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
/// the fires are visible in `tman_window_fires_total`, and aged-out
/// entries drain into `tman_window_evictions_total` at maintenance.
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
    assert_eq!(
        tman.window_evictions(),
        4,
        "the four pre-gap entries aged out and drained at maintenance"
    );
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
