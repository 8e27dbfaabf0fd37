//! Differential property test for condition-level partitioning (Figure 5):
//! for any trigger population and token stream, the multiset of firings
//! must be identical whether a signature probe runs unpartitioned or
//! partitioned into 2/4/8 partition tasks. Partition assignment
//! hashes stable expression ids, so the union over partitions must be
//! exactly the unpartitioned candidate set — this harness catches
//! double-visited entries (duplicate firings) and dropped entries (lost
//! firings) alike.
//!
//! Deterministic: the proptest runner is seeded with a pinned 32-byte
//! seed, so every run explores the same cases. `PARTITION_CASES` bounds
//! the case count (CI keeps it small; the `--ignored` variant runs more).

mod oracle_common;

use oracle_common::{arb_cond, arb_token, env_cases, q_tuple, seeded_runner, static_cfg, Harness};
use proptest::prelude::*;
use tman_common::UpdateDescriptor;

const SEED: [u8; 32] = *b"tman-partition-equiv-seed-0001!!";
const FANOUTS: [usize; 3] = [2, 4, 8];

fn run_equivalence(num_cases: u32) {
    let mut runner = seeded_runner(&SEED, num_cases);
    let strategy = (
        proptest::collection::vec(arb_cond(), 1..24),
        proptest::collection::vec(arb_token(), 1..24),
    );
    let result = runner.run(&strategy, |(conds, toks)| {
        let reference = Harness::new("unpartitioned", static_cfg(1), &conds);
        let partitioned: Vec<Harness> = FANOUTS
            .iter()
            .map(|&p| Harness::new(&format!("p={p}"), static_cfg(p), &conds))
            .collect();

        for (j, (s, p, v)) in toks.iter().enumerate() {
            let tok = UpdateDescriptor::insert(reference.src, q_tuple(*s, *p, *v));
            let expected = reference.fire(&tok);
            for h in &partitioned {
                let fired = h.fire(&tok);
                prop_assert_eq!(
                    &fired,
                    &expected,
                    "{} diverged from unpartitioned on token {} {:?}",
                    h.label,
                    j,
                    (s, p, v)
                );
            }
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("partition equivalence failed: {e}");
    }
}

#[test]
fn partitioned_firing_multisets_match_unpartitioned() {
    run_equivalence(env_cases("PARTITION_CASES", 64));
}

#[test]
#[ignore = "long equivalence sweep; run with --ignored"]
fn partitioned_firing_multisets_match_unpartitioned_long() {
    run_equivalence(env_cases("PARTITION_CASES", 64).max(256));
}
