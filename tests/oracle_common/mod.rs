//! Shared scaffolding for the pinned-seed differential oracles.
//!
//! Every equivalence harness in `tests/` follows the same recipe: build a
//! deterministic proptest runner from a pinned 32-byte seed, generate a
//! trigger population over the canonical `q (sym, price, vol)` source,
//! stand up one engine per configuration under test, push identical token
//! streams through all of them, and compare sorted firing multisets
//! against a reference. This module holds the recipe once so each oracle
//! file carries only what it is actually proving.
//!
//! Not every oracle uses every helper (the predicate-index oracle drives
//! `PredicateIndex` directly and only borrows the runner builders), hence
//! the file-wide `dead_code` allowance.
#![allow(dead_code)]

use proptest::prelude::*;
use proptest::test_runner::{Config as PtConfig, RngAlgorithm, TestRng, TestRunner};
use std::sync::Arc;
use tman_common::{Tuple, UpdateDescriptor, Value};
use triggerman::{Config, TracingMode, TriggerMan};

/// Build a deterministic proptest runner: pinned ChaCha seed, no failure
/// persistence (CI replays by seed, not by regression file).
pub fn seeded_runner(seed: &[u8; 32], cases: u32) -> TestRunner {
    TestRunner::new_with_rng(
        PtConfig {
            cases,
            failure_persistence: None,
            ..PtConfig::default()
        },
        TestRng::from_seed(RngAlgorithm::ChaCha, seed),
    )
}

/// Case-count override from the environment: CI keeps the blocking runs
/// small, the nightly soaks raise them.
pub fn env_cases(var: &str, default: u32) -> u32 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One randomized selection condition over the shared `q` source.
#[derive(Debug, Clone)]
pub struct Cond(pub String);

/// The canonical condition mix: equalities (shared classes), ranges,
/// composites with residuals, a two-way disjunction, and a negation —
/// enough shape diversity to populate every organization and the tagged
/// disjunct path.
pub fn arb_cond() -> impl Strategy<Value = Cond> {
    let sym = 0u32..6;
    let price = 0i64..100;
    prop_oneof![
        sym.clone().prop_map(|s| Cond(format!("q.sym = 'S{s}'"))),
        price.clone().prop_map(|p| Cond(format!("q.price > {p}"))),
        (price.clone(), 1i64..30)
            .prop_map(|(p, w)| Cond(format!("q.price > {p} and q.price <= {}", p + w))),
        (sym.clone(), price.clone())
            .prop_map(|(s, p)| Cond(format!("q.sym = 'S{s}' and q.price >= {p}"))),
        (sym.clone(), sym.clone())
            .prop_map(|(a, b)| Cond(format!("q.sym = 'S{a}' or q.sym = 'S{b}'"))),
        (0i64..50).prop_map(|v| Cond(format!("q.vol = {v}"))),
        (sym, 0i64..50).prop_map(|(s, v)| Cond(format!("q.sym <> 'S{s}' and q.vol = {v}"))),
    ]
}

/// `(sym, price, vol)` draws, deliberately wider than the condition
/// constants so streams carry both matching and missing tokens.
pub fn arb_token() -> impl Strategy<Value = (u32, i64, i64)> {
    (0u32..8, 0i64..110, 0i64..55)
}

/// Materialize one `q` row.
pub fn q_tuple(s: u32, p: i64, v: i64) -> Tuple {
    Tuple::new(vec![
        Value::str(format!("S{s}")),
        Value::Float(p as f64),
        Value::Int(v),
    ])
}

/// One engine plus its firing tap.
pub struct Harness {
    pub label: String,
    pub tman: Arc<TriggerMan>,
    pub rx: crossbeam::channel::Receiver<triggerman::EventNotification>,
    pub src: tman_common::DataSourceId,
}

impl Harness {
    /// Open an engine on `cfg`, define the `q` source, and register one
    /// trigger `p{i} … raise event T{i}(q.sym)` per condition.
    pub fn new(label: &str, cfg: Config, conds: &[Cond]) -> Harness {
        Harness::with_actions(label, cfg, conds, |i, c| {
            format!(
                "create trigger p{i} from q when {} do raise event T{i}(q.sym)",
                c.0
            )
        })
    }

    /// [`Harness::new`] with a caller-supplied DDL template, for oracles
    /// whose triggers need windows or bespoke actions.
    pub fn with_actions(
        label: &str,
        cfg: Config,
        conds: &[Cond],
        ddl: impl Fn(usize, &Cond) -> String,
    ) -> Harness {
        let tman = TriggerMan::open_memory(cfg).unwrap();
        tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
            .unwrap();
        let rx = tman.events().subscribe_all();
        for (i, c) in conds.iter().enumerate() {
            tman.execute_command(&ddl(i, c)).unwrap();
        }
        let src = tman.source("q").unwrap().id;
        Harness {
            label: label.to_string(),
            tman,
            rx,
            src,
        }
    }

    /// Push one token, drain, and return the sorted firing multiset.
    pub fn fire(&self, tok: &UpdateDescriptor) -> Vec<String> {
        self.fire_chunk(std::slice::from_ref(tok))
    }

    /// Push a whole chunk before draining — with `drain_batch > 1` the
    /// engine pulls it as one batch — and return the sorted firing
    /// multiset.
    pub fn fire_chunk(&self, toks: &[UpdateDescriptor]) -> Vec<String> {
        let mut fired = self.fire_chunk_in_order(toks);
        fired.sort();
        fired
    }

    /// [`fire_chunk`](Self::fire_chunk), in delivery order: the drain runs
    /// on the calling thread and actions run inline, so the sequence is a
    /// function of the stream and of how matches are handed to tasks.
    pub fn fire_chunk_in_order(&self, toks: &[UpdateDescriptor]) -> Vec<String> {
        for tok in toks {
            let mut tok = tok.clone();
            tok.data_src = self.src;
            self.tman.push_token(tok).unwrap();
        }
        self.tman.run_until_quiescent().unwrap();
        assert!(
            self.tman.last_error().is_none(),
            "[{}] {:?}",
            self.label,
            self.tman.last_error()
        );
        self.rx.try_iter().map(|n| n.event.to_string()).collect()
    }
}

/// Unpartitioned probes: a drained batch is one run of the pipeline, its
/// probes grouped by repeated key — the path a lost or double-visited key
/// group would corrupt. `batch = 1` is the same pipeline on a run of one.
pub fn shard_cfg(shards: usize, batch: usize) -> Config {
    Config {
        shards: Some(shards),
        drain_batch: batch,
        ..Config::default()
    }
}

/// Partitioned probes: every eligible signature fans out as partition
/// tasks routed across the shards instead — the placement
/// and steal-scan path.
pub fn partitioned_cfg(shards: usize, batch: usize) -> Config {
    Config {
        condition_partitions: 2,
        partition_min: 1,
        ..shard_cfg(shards, batch)
    }
}

/// `cfg` with every token traced (`TracingMode::Full`): spans attach to
/// the pipeline, they must not change what it does.
pub fn traced(cfg: Config) -> Config {
    Config {
        tracing: TracingMode::Full,
        ..cfg
    }
}

/// Condition-level partitioning at a fixed fan-out.
pub fn static_cfg(parts: usize) -> Config {
    Config {
        condition_partitions: parts,
        partition_min: 1,
        ..Config::default()
    }
}

/// Indexed disjunctions off: OR trees stay one entry with the whole
/// disjunction as a residual test — the genuine pre-tagging evaluation
/// strategy, used as the reference side of the disjunction oracle.
pub fn residual_cfg(mut base: Config) -> Config {
    base.index.tagged_disjunctions = false;
    base
}
