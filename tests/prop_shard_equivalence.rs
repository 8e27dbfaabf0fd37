//! Differential property test for the batch-draining engine and its
//! Figure-5 fan-out: for any trigger population and token stream, the
//! firings must be identical whether the engine drains 1, 16 or 256
//! tokens a pass, and whether a signature probe runs whole or split into
//! 2, 4 or 8 partition tasks. The reference is one token per drain pass,
//! unpartitioned, so the oracle catches every way batching can go wrong
//! (grouped probes visiting an entry twice or not at all, replay
//! reordering maintenance against matches, deferred acks dropping work)
//! and every way partitioning can lose or repeat a fire (the union over
//! partitions missing an entry or holding one twice). Claim sets shared
//! across partitions are `prop_disjunction_oracle`'s to hold.
//!
//! Unpartitioned columns are held to the reference's *sequence* of fires,
//! not only its multiset: the drain runs on the test thread and every
//! action runs where its match was replayed, so the order — token order,
//! then match order within a token — is a function of the stream alone,
//! whatever the batch size. Partitioned columns hand a token's matches to
//! tasks that run after the rest of the drain; they are compared as
//! multisets.
//!
//! A tracing axis rides along: a few columns are run twice, untraced and
//! with `TracingMode::Sampled(1)`. Tracing attaches spans to the one pipeline
//! instead of diverting traced tokens to another, so a traced engine must
//! deliver the same sequence of fires as its untraced twin, partitioned or
//! not.
//!
//! So does a driver axis: columns drained by their own live pool
//! (`start_drivers`, `num_cpus` 1, 2 and 4, one of them partitioned)
//! instead of by the test thread. Their drivers interleave as the
//! scheduler lets them, so they are compared as multisets, chunk by chunk.
//!
//! And a miss axis: columns whose trigger cache holds one or eight
//! descriptions, far below the population, so most pins miss and reload
//! from the catalog, evicting as they go, and the drain's read-only warm
//! pass meets triggers that are not resident. Drained on the test thread
//! they are held to the reference's sequence of fires; under a live pool
//! of two drivers, where pins race evictions, to its multiset.
//!
//! Each case interleaves trigger create/drop churn at fixed stream
//! positions — applied identically to every engine, so expectations stay
//! comparable while constant-set membership shifts under the drain loop.
//!
//! The reference column is itself checked against the naive reference
//! (`tman_baseline::NaiveEca`, the same churn applied), so a mistake made
//! identically in every configuration does not pass either.
//!
//! Deterministic: the property runner is seeded with a pinned seed. `SHARD_CASES` bounds the case count (CI keeps it small; the
//! `--ignored` variant runs more).

mod oracle_common;

use oracle_common::{
    arb_cond, arb_token, batch_cfg, env_cases, partitioned_cfg, q_tuple, seeded_runner, traced,
    Harness, Naive,
};
use tman_check::prelude::*;
use tman_common::UpdateDescriptor;
use triggerman::Config;

const SEED: u64 = 0x5A4D_0001;
const BATCHES: [usize; 3] = [1, 16, 256];
/// `(parts, batch)` of the partitioned columns.
const PARTITIONED: [(usize, usize); 4] = [(2, 1), (2, 16), (4, 256), (8, 1)];
/// `(trigger_cache_capacity, batch)` of the miss columns.
const MISSES: [(usize, usize); 3] = [(1, 1), (1, 16), (8, 256)];
/// Tokens pushed per drain round; >1 sizes exercise the batched path.
const CHUNK_SIZES: [usize; 5] = [1, 3, 7, 2, 5];

fn run_equivalence(num_cases: u32) {
    let mut runner = seeded_runner(SEED, num_cases);
    let strategy = (
        tman_check::collection::vec(arb_cond(), 1..16),
        tman_check::collection::vec(arb_token(), 1..28),
    );
    let result = runner.run(&strategy, |(conds, toks)| {
        // Index 0 is the reference: one token per drain pass, unsplit.
        let mut harnesses = vec![Harness::new("reference b=1", batch_cfg(1), &conds)];
        // `same_order_as[i]`: the column whose sequence of fires column
        // `i` must reproduce; `None` holds it to the reference's multiset.
        let mut same_order_as: Vec<Option<usize>> = vec![None];
        for &b in &BATCHES[1..] {
            harnesses.push(Harness::new(&format!("b={b}"), batch_cfg(b), &conds));
            same_order_as.push(Some(0));
        }
        for (p, b) in PARTITIONED {
            harnesses.push(Harness::new(
                &format!("partitioned p={p} b={b}"),
                partitioned_cfg(p, b),
                &conds,
            ));
            same_order_as.push(None);
        }
        // The tracing axis: traced twins of a few columns.
        for &b in &BATCHES {
            harnesses.push(Harness::new(
                &format!("traced b={b}"),
                traced(batch_cfg(b)),
                &conds,
            ));
            same_order_as.push(Some(0));
        }
        let untraced = harnesses
            .iter()
            .position(|h| h.label == "partitioned p=2 b=16")
            .unwrap();
        harnesses.push(Harness::new(
            "traced partitioned p=2 b=16",
            traced(partitioned_cfg(2, 16)),
            &conds,
        ));
        same_order_as.push(Some(untraced));
        // The miss axis.
        let missing = |cap: usize, cfg: Config| Config {
            trigger_cache_capacity: cap,
            ..cfg
        };
        for (cap, b) in MISSES {
            harnesses.push(Harness::new(
                &format!("miss cap={cap} b={b}"),
                missing(cap, batch_cfg(b)),
                &conds,
            ));
            same_order_as.push(Some(0));
        }
        // The driver axis: live pools.
        for (label, d, cfg) in [
            ("live d=1", 1, batch_cfg(16)),
            ("live d=2", 2, batch_cfg(16)),
            ("live d=4", 4, batch_cfg(16)),
            ("live partitioned d=2", 2, partitioned_cfg(2, 16)),
            ("live miss cap=1 d=2", 2, missing(1, batch_cfg(16))),
        ] {
            let cfg = Config {
                num_cpus: Some(d),
                ..cfg
            };
            harnesses.push(Harness::live(label, cfg, &conds));
            same_order_as.push(None);
        }
        let mut naive = Naive::new(&conds);
        let mut names: Vec<String> = (0..conds.len()).map(|i| format!("p{i}")).collect();
        let mut next_churn = 0usize;
        let mut pos = 0usize;
        let mut chunk_no = 0usize;
        while pos < toks.len() {
            let size = CHUNK_SIZES[chunk_no % CHUNK_SIZES.len()].min(toks.len() - pos);
            // DDL churn at fixed stream positions, identically everywhere.
            if chunk_no % 3 == 1 {
                let (name, event) = (format!("c{next_churn}"), format!("C{next_churn}"));
                let cond = format!("q.vol >= {}", (next_churn * 7) % 40);
                let cmd = format!(
                    "create trigger {name} from q when {cond} do raise event {event}(q.sym)"
                );
                for h in &harnesses {
                    h.tman.execute_command(&cmd).unwrap();
                }
                naive.create(&name, &cond, &event);
                names.push(name);
                next_churn += 1;
            } else if chunk_no % 3 == 2 && names.len() > 1 {
                let victim = names.remove(chunk_no % names.len());
                for h in &harnesses {
                    h.tman
                        .execute_command(&format!("drop trigger {victim}"))
                        .unwrap();
                }
                naive.drop(&victim);
            }
            let chunk: Vec<UpdateDescriptor> = toks[pos..pos + size]
                .iter()
                .map(|(s, p, v)| UpdateDescriptor::insert(harnesses[0].src, q_tuple(*s, *p, *v)))
                .collect();
            let in_order: Vec<Vec<String>> = harnesses
                .iter()
                .map(|h| h.fire_chunk_in_order(&chunk))
                .collect();
            let sorted = |fired: &Vec<String>| {
                let mut fired = fired.clone();
                fired.sort();
                fired
            };
            let expected = sorted(&in_order[0]);
            prop_assert_eq!(
                &expected,
                &naive.fire_chunk(&chunk),
                "{} diverged from the naive reference on chunk {} ({} tokens)",
                &harnesses[0].label,
                chunk_no,
                size
            );
            for (i, (h, fired)) in harnesses.iter().zip(&in_order).enumerate().skip(1) {
                match same_order_as[i] {
                    Some(other) => prop_assert_eq!(
                        fired,
                        &in_order[other],
                        "{} fired another sequence than {} on chunk {} ({} tokens)",
                        h.label,
                        harnesses[other].label,
                        chunk_no,
                        size
                    ),
                    None => prop_assert_eq!(
                        &sorted(fired),
                        &expected,
                        "{} diverged from reference on chunk {} ({} tokens)",
                        h.label,
                        chunk_no,
                        size
                    ),
                }
            }
            pos += size;
            chunk_no += 1;
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("batch/partition equivalence failed: {e}");
    }
}

#[test]
fn sharded_batched_firings_match_reference() {
    run_equivalence(env_cases("SHARD_CASES", 32));
}

#[test]
#[ignore = "long batch/partition equivalence sweep; run with --ignored"]
fn sharded_batched_firings_match_reference_long() {
    run_equivalence(env_cases("SHARD_CASES", 32).max(128));
}
