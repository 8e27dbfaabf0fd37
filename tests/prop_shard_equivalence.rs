//! Differential property test for the sharded, batch-draining engine: for
//! any trigger population and token stream, the firings must be identical
//! whether the engine runs with 1, 2, 4, or 8 shards and a drain batch of
//! 1, 16, or 256 tokens. The reference is one shard, one token per drain
//! pass, so the oracle catches every way batching can go wrong (grouped
//! probes visiting an entry twice or not at all, replay reordering
//! maintenance against matches, deferred acks dropping work) and every way
//! sharding can (fan-out tasks routed to a deactivated shard, steal scans
//! skipping a slot).
//!
//! Unpartitioned columns are held to the reference's *sequence* of fires,
//! not only its multiset: the drain runs on the test thread and every
//! action runs where its match was replayed, so the order — token order,
//! then match order within a token — is a function of the stream alone,
//! whatever the shard count or batch size. Partitioned columns hand a
//! token's matches to tasks, whose interleaving depends on placement; they
//! are compared as multisets.
//!
//! A tracing axis rides along: a few columns are run twice, untraced and
//! with `TracingMode::Full`. Tracing attaches spans to the one pipeline
//! instead of diverting traced tokens to another, so a traced engine must
//! deliver the same sequence of fires as its untraced twin, partitioned or
//! not.
//!
//! Each case also forces active-shard-width transitions *mid-stream* and
//! interleaves trigger create/drop churn at fixed stream positions —
//! applied identically to every engine, so expectations stay comparable
//! while placement and constant-set membership shift under the drain loop.
//!
//! Deterministic: the proptest runner is seeded with a pinned 32-byte
//! seed. `SHARD_CASES` bounds the case count (CI keeps it small; the
//! `--ignored` variant runs more).

mod oracle_common;

use oracle_common::{
    arb_cond, arb_token, env_cases, partitioned_cfg, q_tuple, seeded_runner, shard_cfg, traced,
    Harness,
};
use proptest::prelude::*;
use tman_common::UpdateDescriptor;

const SEED: [u8; 32] = *b"tman-shard-equivalence-seed-01!!";
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCHES: [usize; 3] = [1, 16, 256];
/// Active-shard width forced before chunk `j` — engage/widen/narrow
/// transitions, including widths the clamp must cut down on small sets.
const FORCED_ACTIVE: [usize; 5] = [1, 2, 8, 3, 4];
/// Tokens pushed per drain round; >1 sizes exercise the batched path.
const CHUNK_SIZES: [usize; 5] = [1, 3, 7, 2, 5];

fn run_equivalence(num_cases: u32) {
    let mut runner = seeded_runner(&SEED, num_cases);
    let strategy = (
        proptest::collection::vec(arb_cond(), 1..16),
        proptest::collection::vec(arb_token(), 1..28),
    );
    let result = runner.run(&strategy, |(conds, toks)| {
        // Index 0 is the reference: one shard, one token per drain pass.
        let mut harnesses = vec![Harness::new("reference s=1 b=1", shard_cfg(1, 1), &conds)];
        // `same_order_as[i]`: the column whose sequence of fires column
        // `i` must reproduce; `None` holds it to the reference's multiset.
        let mut same_order_as: Vec<Option<usize>> = vec![None];
        for &s in &SHARD_COUNTS {
            for &b in &BATCHES {
                if (s, b) == (1, 1) {
                    continue;
                }
                harnesses.push(Harness::new(
                    &format!("s={s} b={b}"),
                    shard_cfg(s, b),
                    &conds,
                ));
                same_order_as.push(Some(0));
            }
        }
        // A partitioned column: same widths, probes fanned out as tasks.
        for (s, b) in [(2, 16), (4, 256), (8, 1)] {
            harnesses.push(Harness::new(
                &format!("partitioned s={s} b={b}"),
                partitioned_cfg(s, b),
                &conds,
            ));
            same_order_as.push(None);
        }
        // The tracing axis: traced twins of a few columns.
        for (s, b) in [(1, 1), (2, 16), (4, 256)] {
            harnesses.push(Harness::new(
                &format!("traced s={s} b={b}"),
                traced(shard_cfg(s, b)),
                &conds,
            ));
            same_order_as.push(Some(0));
        }
        let untraced = harnesses
            .iter()
            .position(|h| h.label == "partitioned s=2 b=16")
            .unwrap();
        harnesses.push(Harness::new(
            "traced partitioned s=2 b=16",
            traced(partitioned_cfg(2, 16)),
            &conds,
        ));
        same_order_as.push(Some(untraced));
        let mut names: Vec<String> = (0..conds.len()).map(|i| format!("p{i}")).collect();
        let mut next_churn = 0usize;
        let mut pos = 0usize;
        let mut chunk_no = 0usize;
        while pos < toks.len() {
            let size = CHUNK_SIZES[chunk_no % CHUNK_SIZES.len()].min(toks.len() - pos);
            // Force a width transition on every sharded engine (the set
            // clamps to its own shard count).
            let width = FORCED_ACTIVE[chunk_no % FORCED_ACTIVE.len()];
            for h in &harnesses[1..] {
                h.tman.set_active_shards(width);
            }
            // DDL churn at fixed stream positions, identically everywhere.
            if chunk_no % 3 == 1 {
                let cmd = format!(
                    "create trigger c{next_churn} from q when q.vol >= {} \
                     do raise event C{next_churn}(q.sym)",
                    (next_churn * 7) % 40
                );
                for h in &harnesses {
                    h.tman.execute_command(&cmd).unwrap();
                }
                names.push(format!("c{next_churn}"));
                next_churn += 1;
            } else if chunk_no % 3 == 2 && names.len() > 1 {
                let victim = names.remove(chunk_no % names.len());
                for h in &harnesses {
                    h.tman
                        .execute_command(&format!("drop trigger {victim}"))
                        .unwrap();
                }
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
        panic!("shard/batch equivalence failed: {e}");
    }
}

#[test]
fn sharded_batched_firings_match_reference() {
    run_equivalence(env_cases("SHARD_CASES", 32));
}

#[test]
#[ignore = "long shard/batch equivalence sweep; run with --ignored"]
fn sharded_batched_firings_match_reference_long() {
    run_equivalence(env_cases("SHARD_CASES", 32).max(128));
}
