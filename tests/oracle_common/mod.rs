//! Shared scaffolding for the pinned-seed differential oracles.
//!
//! Every equivalence harness in `tests/` follows the same recipe: build a
//! deterministic property runner from a pinned seed, generate a
//! trigger population over the canonical `q (sym, price, vol)` source,
//! stand up one engine per configuration under test, push identical token
//! streams through all of them, and compare sorted firing multisets
//! against a reference — [`Naive`], the naive ECA processor of
//! `tman-baseline`, which defines which trigger fires on which token. This
//! module holds the recipe once so each oracle file carries only what it
//! is actually proving.
//!
//! Not every oracle uses every helper (the predicate-index oracle drives
//! `PredicateIndex` directly and only borrows the runner builders), hence
//! the file-wide `dead_code` allowance.
#![allow(dead_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_baseline::NaiveEca;
use tman_check::prelude::*;
use tman_check::test_runner::{Config as PtConfig, TestRunner};
use tman_common::{
    DataSourceId, DataType, EventKind, Schema, TriggerId, Tuple, UpdateDescriptor, Value,
};
use triggerman::{Config, DriverPool, TracingMode, TriggerMan};

/// Build a deterministic property runner on a pinned seed: a failure
/// replays from the seed and case index it reports.
pub(crate) fn seeded_runner(seed: u64, cases: u32) -> TestRunner {
    TestRunner::new(PtConfig::with_cases(cases), seed)
}

/// Case-count override from the environment: CI keeps the blocking runs
/// small, the nightly soaks raise them.
pub(crate) fn env_cases(var: &str, default: u32) -> u32 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One randomized selection condition over the shared `q` source.
#[derive(Debug, Clone)]
pub(crate) struct Cond(pub String);

/// The canonical condition mix: equalities (shared classes), ranges,
/// composites with residuals, a two-way disjunction, an inequality and a
/// negation — enough shape diversity to populate every organization and
/// the tagged disjunct path.
pub(crate) fn arb_cond() -> impl Strategy<Value = Cond> {
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
        price.prop_map(|p| Cond(format!("not (q.price <= {p})"))),
    ]
}

/// `(sym, price, vol)` draws, deliberately wider than the condition
/// constants so streams carry both matching and missing tokens.
pub(crate) fn arb_token() -> impl Strategy<Value = (u32, i64, i64)> {
    (0u32..8, 0i64..110, 0i64..55)
}

/// Materialize one `q` row.
pub(crate) fn q_tuple(s: u32, p: i64, v: i64) -> Tuple {
    Tuple::new(vec![
        Value::str(format!("S{s}")),
        Value::Float(p as f64),
        Value::Int(v),
    ])
}

/// The source [`Naive`] registers its triggers on; it re-addresses every
/// token it is fed to it.
const NAIVE_SRC: DataSourceId = DataSourceId(1);

/// The naive reference under the harness's trigger names: trigger `name`
/// raises event `event`, and ids are issued in creation order.
pub(crate) struct Naive {
    pub eca: NaiveEca,
    /// `(name, event)` of every trigger created, by id.
    triggers: Vec<(String, String)>,
}

impl Naive {
    /// `p{i} … raise event T{i}` for each condition, as [`Harness::new`]
    /// defines them.
    pub(crate) fn new(conds: &[Cond]) -> Naive {
        let mut naive = Naive {
            eca: NaiveEca::new(),
            triggers: Vec::new(),
        };
        for (i, c) in conds.iter().enumerate() {
            naive.create(&format!("p{i}"), &c.0, &format!("T{i}"));
        }
        naive
    }

    /// Create trigger `name` on `q`, raising `event` when `cond` holds on an
    /// insert or an update (the engine's event when a trigger names none).
    pub(crate) fn create(&mut self, name: &str, cond: &str, event: &str) -> TriggerId {
        let id = TriggerId(self.triggers.len() as u64);
        let schema = Schema::from_pairs(&[
            ("sym", DataType::Varchar(12)),
            ("price", DataType::Float),
            ("vol", DataType::Int),
        ]);
        let any = EventKind::InsertOrUpdate;
        self.eca
            .add_trigger(id, NAIVE_SRC, any, "q", &schema, cond)
            .unwrap();
        self.triggers.push((name.to_string(), event.to_string()));
        id
    }

    /// Drop trigger `name`.
    pub(crate) fn drop(&self, name: &str) {
        let id = self.triggers.iter().rposition(|(n, _)| n == name);
        let id = TriggerId(id.expect("a trigger by that name") as u64);
        assert!(self.eca.remove_trigger(id), "{name} dropped twice");
    }

    /// Feed `toks` in order and return the sorted multiset of events they
    /// fire.
    pub(crate) fn fire_chunk(&self, toks: &[UpdateDescriptor]) -> Vec<String> {
        let mut fired = Vec::new();
        for tok in toks {
            let mut tok = tok.clone();
            tok.data_src = NAIVE_SRC;
            for id in self.eca.match_token(&tok).unwrap() {
                fired.push(self.triggers[id.raw() as usize].1.clone());
            }
        }
        fired.sort();
        fired
    }
}

/// One engine plus its firing tap.
pub(crate) struct Harness {
    pub label: String,
    pub tman: Arc<TriggerMan>,
    pub rx: tman_sync::channel::Receiver<triggerman::EventNotification>,
    pub src: tman_common::DataSourceId,
    /// The engine's own driver pool, when it drains a chunk ([`live`]);
    /// `None` drains on the calling thread.
    ///
    /// [`live`]: Self::live
    pool: Option<DriverPool>,
}

impl Harness {
    /// Open an engine on `cfg`, define the `q` source, and register one
    /// trigger `p{i} … raise event T{i}(q.sym)` per condition.
    pub(crate) fn new(label: &str, cfg: Config, conds: &[Cond]) -> Harness {
        Harness::with_actions(label, cfg, conds, |i, c| {
            format!(
                "create trigger p{i} from q when {} do raise event T{i}(q.sym)",
                c.0
            )
        })
    }

    /// [`Harness::new`] with a caller-supplied DDL template, for oracles
    /// whose triggers need windows or bespoke actions.
    pub(crate) fn with_actions(
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
            pool: None,
        }
    }

    /// [`Harness::new`] with `start_drivers` running: every chunk is
    /// drained by the live pool, `cfg.num_cpus` drivers interleaving as
    /// the scheduler lets them, so only the multiset of fires is a
    /// function of the stream.
    pub(crate) fn live(label: &str, cfg: Config, conds: &[Cond]) -> Harness {
        let mut h = Harness::new(label, cfg, conds);
        h.pool = Some(h.tman.start_drivers());
        h
    }

    /// Wait until the live pool has drained everything pushed: nothing is
    /// queued and every driver is parked. A driver parks only after a
    /// `tman_test` that found no work, and a dequeued token keeps its
    /// driver awake until the token's notifications are delivered, so no
    /// token is then in flight.
    fn wait_drained(&self, drivers: usize) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.tman.queue_len() > 0
            || self.tman.metrics_snapshot().driver.parked < drivers as i64
        {
            assert!(Instant::now() < deadline, "[{}] never drained", self.label);
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Push one token, drain, and return the sorted firing multiset.
    pub(crate) fn fire(&self, tok: &UpdateDescriptor) -> Vec<String> {
        self.fire_chunk(std::slice::from_ref(tok))
    }

    /// Push a whole chunk before draining — with `drain_batch > 1` the
    /// engine pulls it as one batch — and return the sorted firing
    /// multiset.
    pub(crate) fn fire_chunk(&self, toks: &[UpdateDescriptor]) -> Vec<String> {
        let mut fired = self.fire_chunk_in_order(toks);
        fired.sort();
        fired
    }

    /// [`fire_chunk`](Self::fire_chunk), in delivery order: without a live
    /// pool the drain runs on the calling thread and actions run inline,
    /// so the sequence is a function of the stream and of how matches are
    /// handed to tasks.
    pub(crate) fn fire_chunk_in_order(&self, toks: &[UpdateDescriptor]) -> Vec<String> {
        for tok in toks {
            let mut tok = tok.clone();
            tok.data_src = self.src;
            self.tman.push_token(tok).unwrap();
        }
        match &self.pool {
            Some(pool) => self.wait_drained(pool.len()),
            None => self.tman.run_until_quiescent().unwrap(),
        }
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
pub(crate) fn batch_cfg(batch: usize) -> Config {
    Config {
        drain_batch: batch,
        ..Config::default()
    }
}

/// Partitioned probes: every eligible signature fans out into `parts`
/// partition tasks on the task queue instead (Figure 5).
pub(crate) fn partitioned_cfg(parts: usize, batch: usize) -> Config {
    Config {
        condition_partitions: parts,
        partition_min: 1,
        ..batch_cfg(batch)
    }
}

/// `cfg` with every token traced (`TracingMode::Sampled(1)`): spans attach to
/// the pipeline, they must not change what it does.
pub(crate) fn traced(cfg: Config) -> Config {
    Config {
        tracing: TracingMode::Sampled(1),
        ..cfg
    }
}
