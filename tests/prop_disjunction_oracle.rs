//! Differential oracle for indexed disjunctions (tagged execution).
//!
//! An OR-trigger whose disjuncts are all selectable registers one
//! predicate entry *per disjunct* — across multiple constant sets — with a
//! shared tag; a token that satisfies several disjuncts must still fire the
//! trigger exactly once, deduplicated by per-token tag claims. The
//! reference is `tman_baseline::NaiveEca`, which evaluates each OR
//! condition whole against every token, so any lost firing (a disjunct
//! entry dropped), duplicate firing (a claim missed), or phantom firing (a
//! branch residual mis-built) diverges the multisets.
//!
//! Each case sweeps the engines across drain batches (`drain_batch = 1`
//! is the one pipeline on a run of one, not separate code: it has its own
//! columns, partitioned and not), partitioned fan-out columns, forced
//! constant-set organization transitions mid-stream (mem list → mem index
//! → db table → db indexed, each by `set_org`), and OR-trigger
//! create/drop churn (tagged entry cleanup).
//!
//! A second property (`run_update_oracle`) streams `Update` and `Delete`
//! tokens of evolving rows past OR-selections that feed stored-memory
//! (TREAT) joins: an update first retracts its old image through its
//! retract steps — under their own claim set — and then claims its tags
//! afresh for the new image, and a later token on the
//! joined source reads the memory both must have left exact. The naive
//! reference has no joins yet, so this property's reference is the same
//! engine given every OR condition with one more arm, `q.vol <> q.vol`:
//! false on every generated token, and not selectable, so the decomposer
//! cannot split the condition and the engine registers it as one
//! residual-scan entry — the evaluation strategy tagging replaced.
//!
//! Deterministic: pinned seed; `DISJUNCTION_CASES` bounds the
//! case count (CI keeps it small; the `--ignored` variant runs more).
//!
//! ---------------------------------------------------------------------
//! Mutation kill list (design-level, in the spirit of DESIGN.md's
//! "mutation-tested" notes): each mutant below was checked by reasoning
//! against the pinned-seed case stream, and diverges from the reference
//! within the bounded case budget; the first, the fourth and the two
//! retraction mutants were also run.
//!
//! * `TriggerMan::admit`: drop the tag-claim check (always admit) —
//!   any token satisfying two overlapping disjuncts (`q.price > a or
//!   q.price > b` fires both arms for prices above `max(a, b)`) fires the
//!   trigger twice; the multiset gains a duplicate event name.
//! * `replay`'s claim: return `true` unconditionally — same double-fire
//!   as above; the deterministic unit test below also pins
//!   `tag_dedup_hits() == 1` and fails on zero.
//! * `decompose_disjunction`: emit only the bare atom instead of the full
//!   CNF with the OR-conjunct replaced — `(a or b) and residual` branch
//!   entries lose the residual conjunct and fire on tokens that fail it;
//!   phantom events vs the reference.
//! * `decompose_disjunction`: skip the last disjunct (off-by-one) —
//!   tokens matching only that arm never fire; lost events.
//! * `register_predicates`: reuse one `ExprId` for every branch — entries
//!   collide in the per-signature maps; single-arm matches lost.
//! * `register_predicates`: fresh tag per *branch* instead of per trigger
//!   — claims no longer dedupe across arms; duplicate firings.
//! * `register_predicates`: leave `ExprId::TAGGED` off the branch
//!   `ExprId`s — `admit` takes its one-branch exit; duplicates as in the
//!   first mutant.
//! * `PredicateIndex::remove_trigger`: skip the tagged decrement — the
//!   live-entry gauge (`tman_tagged_entries`) pinned by the unit test
//!   drifts from zero after the drop.
//! * `replay`: give each partition its own claim set (or the shared one
//!   empty instead of the replay's own claims) — partition tasks admit
//!   what the replay or a sibling partition already claimed; duplicates
//!   in the partitioned columns.
//! * `replay`'s retract steps: claim in the token's set instead of their
//!   own — the new image's match on the same tag reads as a duplicate
//!   and an update token that still satisfies the OR loses its fire
//!   (`run_update_oracle`); admit every retraction match instead — a row
//!   matching two disjuncts is retracted twice and the stored memory
//!   loses a second copy, which the next token on the joined source
//!   shows.
//! ---------------------------------------------------------------------

mod oracle_common;

use oracle_common::{
    arb_token, batch_cfg, env_cases, partitioned_cfg, q_tuple, seeded_runner, Cond, Harness, Naive,
};
use tman_check::prelude::*;
use tman_common::{Tuple, UpdateDescriptor, Value};
use tman_expr::IndexPlan;
use tman_predindex::OrgKind;
use triggerman::{Config, NetworkKind, TriggerMan};

const SEED: u64 = 0xD15_0001;
/// Tokens pushed per drain round; >1 sizes exercise the batched path.
const CHUNK_SIZES: [usize; 5] = [1, 3, 7, 2, 5];
/// Constant-set organization forced onto every signature before chunk `j`.
const FORCED_ORGS: [OrgKind; 4] = [
    OrgKind::MemList,
    OrgKind::MemIndex,
    OrgKind::DbTable,
    OrgKind::DbIndexed,
];

/// One selectable disjunct: a column-vs-constant comparison the
/// decomposer can register as its own entry.
fn sel_atom() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..6).prop_map(|s| format!("q.sym = 'S{s}'")),
        (0i64..100).prop_map(|p| format!("q.price > {p}")),
        (0i64..50).prop_map(|v| format!("q.vol = {v}")),
    ]
}

/// OR conditions: mostly decomposable (2–4 selectable arms, optionally an
/// AND residual the branch CNFs must retain), plus a slice that must NOT
/// decompose (a non-selectable arm), so the residual-scan fallback is
/// checked too.
fn arb_or_cond() -> impl Strategy<Value = Cond> {
    let arms = tman_check::collection::vec(sel_atom(), 2..=4);
    prop_oneof![
        4 => (arms, tman_check::option::weighted(0.4, 0i64..40)).prop_map(|(a, residual)| {
            let or = a.join(" or ");
            Cond(match residual {
                Some(v) => format!("({or}) and q.vol >= {v}"),
                None => or,
            })
        }),
        1 => (0u32..6, 0i64..50)
            .prop_map(|(s, v)| Cond(format!("q.sym <> 'S{s}' or q.vol = {v}"))),
    ]
}

/// `c` as the residual scan registers it: one more arm, false on every
/// generated token (`vol` is never NULL) and not selectable, so the
/// decomposer cannot split the disjunction.
fn unsplittable(c: &Cond) -> Cond {
    Cond(format!("({}) or q.vol <> q.vol", c.0))
}

/// Force every signature of one engine into `kind` with `set_org`. A
/// class with no index plan has no index to build and skips `MemIndex`.
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
        tman_check::collection::vec(arb_or_cond(), 1..10),
        tman_check::collection::vec(arb_token(), 1..24),
    );
    let result = runner.run(&strategy, |(conds, toks)| {
        let mut naive = Naive::new(&conds);
        // The engines: the batch sizes plus partitioned fan-out columns.
        let mut tagged: Vec<Harness> = [1usize, 16, 256]
            .iter()
            .map(|&b| Harness::new(&format!("tagged b={b}"), batch_cfg(b), &conds))
            .collect();
        for (p, b) in [(2usize, 16usize), (4, 1), (2, 1)] {
            tagged.push(Harness::new(
                &format!("tagged partitioned p={p} b={b}"),
                partitioned_cfg(p, b),
                &conds,
            ));
        }
        let mut names: Vec<String> = (0..conds.len()).map(|i| format!("p{i}")).collect();
        let mut next_churn = 0usize;
        let mut pos = 0usize;
        let mut chunk_no = 0usize;
        while pos < toks.len() {
            let size = CHUNK_SIZES[chunk_no % CHUNK_SIZES.len()].min(toks.len() - pos);
            // Force an organization migration and OR-trigger churn — the
            // churn identically in the reference.
            let org = FORCED_ORGS[chunk_no % FORCED_ORGS.len()];
            for h in &tagged {
                force_org(h, org);
            }
            if chunk_no % 3 == 1 {
                let name = format!("c{next_churn}");
                let event = format!("C{next_churn}");
                let cond = format!(
                    "q.sym = 'S{}' or q.vol = {}",
                    next_churn % 6,
                    (next_churn * 7) % 40
                );
                let cmd = format!(
                    "create trigger {name} from q when {cond} do raise event {event}(q.sym)"
                );
                for h in &tagged {
                    h.tman.execute_command(&cmd).unwrap();
                }
                naive.create(&name, &cond, &event);
                names.push(name);
                next_churn += 1;
            } else if chunk_no % 3 == 2 && names.len() > 1 {
                let victim = names.remove(chunk_no % names.len());
                let cmd = format!("drop trigger {victim}");
                for h in &tagged {
                    h.tman.execute_command(&cmd).unwrap();
                }
                naive.drop(&victim);
            }
            let chunk: Vec<UpdateDescriptor> = toks[pos..pos + size]
                .iter()
                .map(|(s, p, v)| UpdateDescriptor::insert(tagged[0].src, q_tuple(*s, *p, *v)))
                .collect();
            let expected = naive.fire_chunk(&chunk);
            for h in &tagged {
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
        panic!("disjunction oracle failed: {e}");
    }
}

/// One engine of the update oracle: stored-memory (TREAT) networks, the
/// single-variable OR triggers of `conds`, a second source `r`, and one
/// join trigger per `joins` whose `q` selection is the OR condition.
fn join_harness(label: &str, cfg: Config, conds: &[Cond], joins: &[Cond]) -> Harness {
    let cfg = Config {
        network: NetworkKind::Treat,
        ..cfg
    };
    let h = Harness::new(label, cfg, conds);
    h.tman
        .execute_command("define data source r (sym varchar(12))")
        .unwrap();
    for (i, c) in joins.iter().enumerate() {
        h.tman
            .execute_command(&format!(
                "create trigger j{i} from q, r when ({}) and q.sym = r.sym \
                 do raise event J{i}(q.sym)",
                c.0
            ))
            .unwrap();
    }
    h
}

fn run_update_oracle(num_cases: u32) {
    let mut runner = seeded_runner(SEED, num_cases);
    let strategy = (
        tman_check::collection::vec(arb_or_cond(), 1..6),
        tman_check::collection::vec(arb_or_cond(), 1..4),
        tman_check::collection::vec(arb_token(), 1..24),
    );
    let result = runner.run(&strategy, |(conds, joins, toks)| {
        let reference = join_harness(
            "residual b=1",
            batch_cfg(1),
            &conds.iter().map(unsplittable).collect::<Vec<_>>(),
            &joins.iter().map(unsplittable).collect::<Vec<_>>(),
        );
        // No partitioned column: a partition task activates the network
        // after later tokens of its drain were replayed, so an update of
        // a row inserted in the same drain would retract before the
        // insert — fan-out over stored memories has never ordered those.
        let tagged: Vec<Harness> = [1usize, 16, 256]
            .iter()
            .map(|&b| join_harness(&format!("tagged b={b}"), batch_cfg(b), &conds, &joins))
            .collect();
        // Fire one drain's worth: the chunk on `q`, then one `r` row per
        // symbol, which joins whatever the chunk left in the stored `q`
        // memories.
        let fire = |h: &Harness, chunk: &[UpdateDescriptor]| {
            for tok in chunk {
                h.tman.push_token(tok.clone()).unwrap();
            }
            let r = h.tman.source("r").unwrap().id;
            for sym in 0..8 {
                let row = Tuple::new(vec![Value::str(format!("S{sym}"))]);
                h.tman.push_token(UpdateDescriptor::insert(r, row)).unwrap();
            }
            h.fire_chunk(&[])
        };
        // One row of `q` evolving — insert, update, ..., delete, insert
        // again — beside a static copy of every image it takes, so that a
        // retraction always has two equal tuples before it and must take
        // exactly one.
        let src = reference.src;
        let mut row: Option<Tuple> = None;
        let mut pos = 0usize;
        let mut chunk_no = 0usize;
        while pos < toks.len() {
            let size = CHUNK_SIZES[chunk_no % CHUNK_SIZES.len()].min(toks.len() - pos);
            let mut chunk = Vec::with_capacity(3 * size);
            for (i, (s, p, v)) in toks[pos..pos + size].iter().enumerate() {
                let new = q_tuple(*s, *p, *v);
                chunk.push(UpdateDescriptor::insert(src, new.clone()));
                if (pos + i) % 5 == 4 {
                    chunk.extend(row.take().map(|old| UpdateDescriptor::delete(src, old)));
                }
                chunk.push(match row.replace(new.clone()) {
                    Some(old) => UpdateDescriptor::update(src, old, new),
                    None => UpdateDescriptor::insert(src, new),
                });
            }
            let expected = fire(&reference, &chunk);
            for h in &tagged {
                let fired = fire(h, &chunk);
                prop_assert_eq!(
                    &fired,
                    &expected,
                    "{} diverged from residual reference on chunk {} ({} tokens)",
                    h.label,
                    chunk_no,
                    size
                );
            }
            pos += size;
            chunk_no += 1;
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("disjunction update oracle failed: {e}");
    }
}

#[test]
fn update_tokens_retract_and_reclaim_like_the_residual_reference() {
    run_update_oracle(env_cases("DISJUNCTION_CASES", 24));
}

#[test]
fn tagged_disjunctions_match_naive_reference() {
    run_oracle(env_cases("DISJUNCTION_CASES", 24));
}

#[test]
#[ignore = "long disjunction oracle sweep; run with --ignored"]
fn tagged_disjunctions_match_naive_reference_long() {
    run_oracle(env_cases("DISJUNCTION_CASES", 24).max(96));
}

/// The acceptance pin, deterministically: an OR-trigger entering two
/// constant sets fires exactly once on a token matching both disjuncts,
/// the dedup is observable in `tman_tag_dedup_hits_total`, and dropping
/// the trigger returns the live tagged-entry gauge to zero.
#[test]
fn or_trigger_fires_once_per_token_and_cleans_up() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    let rx = tman.subscribe("Hit");
    tman.execute_command(
        "create trigger both from q when q.sym = 'S0' or q.price > 10 \
         do raise event Hit(q.sym)",
    )
    .unwrap();
    assert_eq!(
        tman.tagged_entries(),
        2,
        "one tagged entry per selectable disjunct"
    );
    let src = tman.source("q").unwrap().id;
    let push = |s: &str, p: f64| {
        tman.push_token(UpdateDescriptor::insert(
            src,
            Tuple::new(vec![Value::str(s), Value::Float(p), Value::Int(0)]),
        ))
        .unwrap();
    };
    // Matches both disjuncts: exactly one fire, one dedup hit.
    push("S0", 50.0);
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 1, "multi-disjunct match fired once");
    assert_eq!(tman.tag_dedup_hits(), 1);
    // Matches one disjunct each: one fire each, no new dedup hits.
    push("S0", 5.0);
    push("S9", 50.0);
    // Matches neither: no fire.
    push("S9", 5.0);
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 2);
    assert_eq!(tman.tag_dedup_hits(), 1);

    tman.execute_command("drop trigger both").unwrap();
    assert_eq!(tman.tagged_entries(), 0, "drop removes tagged entries");
    push("S0", 50.0);
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 0, "dropped trigger stays silent");
}

/// Multi-variable (join) triggers also decompose per tuple variable; the
/// stored-memory maintenance path must retract an updated row's old image
/// exactly once even when it matched several disjunct entries.
#[test]
fn multi_disjunct_join_trigger_retracts_old_image_once() {
    // TREAT: stored alpha memories, so the synthetic-delete maintenance
    // path (not on-the-fly recomputation) services the update.
    let tman = TriggerMan::open_memory(Config {
        network: NetworkKind::Treat,
        ..Config::default()
    })
    .unwrap();
    tman.run_sql("create table sp (spno int, name varchar(20), grade int)")
        .unwrap();
    tman.execute_command("define data source sp from table sp")
        .unwrap();
    tman.run_sql("create table h (hno int, spno int)").unwrap();
    tman.execute_command("define data source h from table h")
        .unwrap();
    let rx = tman.subscribe("Hit");
    // The sp selection is a decomposable OR; grade 7 satisfies both arms.
    tman.execute_command(
        "create trigger j on insert to h from sp s, h \
         when (s.name = 'Ann' or s.grade > 5) and s.spno = h.spno \
         do raise event Hit(h.hno)",
    )
    .unwrap();
    tman.run_sql("insert into sp values (1, 'Ann', 7)").unwrap();
    tman.run_sql("insert into h values (10, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 1, "double-matching row fired once");
    // Move the row out of the selection: the old image must leave the
    // stored memory (exactly once — a double retraction corrupts it).
    tman.run_sql("update sp set name = 'Bea', grade = 0 where spno = 1")
        .unwrap();
    tman.run_sql("insert into h values (11, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 0, "retracted row must not fire");
    // And back in via a single arm.
    tman.run_sql("update sp set grade = 9 where spno = 1")
        .unwrap();
    tman.run_sql("insert into h values (12, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 1, "re-admitted row fires again");
}

/// `drop_trigger` on a mixed population only removes the dropped
/// trigger's tagged entries (refcounted cleanup, not a blanket clear).
#[test]
fn tagged_entry_accounting_across_churn() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    tman.execute_command(
        "create trigger a from q when q.sym = 'S1' or q.sym = 'S2' or q.vol = 3 \
         do notify 'a'",
    )
    .unwrap();
    tman.execute_command("create trigger b from q when q.price > 1 or q.vol = 9 do notify 'b'")
        .unwrap();
    // Plain triggers contribute no tagged entries.
    tman.execute_command("create trigger c from q when q.vol = 5 do notify 'c'")
        .unwrap();
    assert_eq!(tman.tagged_entries(), 5);
    tman.execute_command("drop trigger a").unwrap();
    assert_eq!(tman.tagged_entries(), 2);
    tman.execute_command("drop trigger b").unwrap();
    assert_eq!(tman.tagged_entries(), 0);
}
