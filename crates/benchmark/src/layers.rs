//! The traced pass: per-layer numbers taken from outside the program.
//!
//! Nothing here edits product code or turns on `Config::tracing` (a traced
//! token is diverted to the per-token path, so the program's own spans
//! describe code production tokens never run). Instead, on one set-up
//! engine, the harness
//!
//! * stands in for the driver pool with its own loop around the public
//!   `tman_test_on` and runs an untraced window, then a traced window in
//!   which every `push_tokens`, `tman_test`, receive and wire flush is a
//!   harness span rooted at the batch that was pushed;
//! * differences the program's own counters (`metrics_snapshot`, table
//!   statistics) across the traced window;
//! * replays a fixed sample of the workload's tokens and commands through
//!   each inner layer's public function against the live engine's state
//!   (or a scratch instance loaded with the workload's population) and
//!   times it.

use crate::gen::{Cond, SOURCE};
use crate::load::{self, Drivers, Window, WindowResult};
use crate::spans::{self, NameTotals, Span, Spans};
use crate::stats::Slices;
use crate::workloads::{Engine, Load, Workload, FLUSH_TOKENS};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_common::{EventKind, ExprId, NodeId, TriggerId, UpdateDescriptor};
use tman_expr::cnf::{remap_var, to_cnf};
use tman_expr::signature::analyze_selection;
use tman_expr::{decompose_disjunction, BindCtx, IndexPlan};
use tman_lang::{parse_command, parse_expression, Command};
use tman_predindex::PredicateIndex;
use tman_sql::Database;
use tman_storage::{PageId, Wal, WalConfig, PAGE_SIZE};
use tman_wire::{decode_frame, encode_frame, Frame};
use triggerman::catalog::Catalog;
use triggerman::compile::compile_trigger;
use triggerman::queue::UpdateQueue;
use triggerman::{MetricsSnapshot, QueueMode, TriggerMan};

/// Tokens replayed through each layer.
const SAMPLE: u64 = 4_096;
/// Commands replayed through the parser and the signature analysis.
const COMMANDS: usize = 2_048;
/// Triggers removed from the scratch index (a removal walks every
/// signature of the source, so it costs a thousand times an add).
const REMOVALS: usize = 256;
/// Sample tokens are numbered from here, clear of any window's.
const SAMPLE_SEQ0: u64 = 1 << 40;
/// A `wire_e2e` ladder step passes when its tail latency is within this.
const LATENCY_LIMIT_US: f64 = 50_000.0;

pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    spans: Vec<Span>,
    /// Estimated nanoseconds per token spent in each group of layers.
    shares: Vec<(&'static str, f64)>,
}

impl LayerReport {
    /// The value of a per-layer metric; 0 for one that does not apply to
    /// the workload.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Write the harness spans as Chrome trace-event JSON and check the
    /// file with the program's own validator. Returns the span count.
    pub fn write_trace(&self, path: &Path) -> Result<usize, String> {
        let json = spans::chrome_trace(&self.spans);
        let events = tman_telemetry::trace::validate_chrome_trace(&json)
            .map_err(|e| format!("harness trace does not validate: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(events)
    }

    /// Each group of layers' share of the per-token time the replays and
    /// spans account for.
    pub fn print_shares(&self, workload: &str) {
        let total: f64 = self.shares.iter().map(|s| s.1).sum();
        let row: Vec<String> = self
            .shares
            .iter()
            .map(|(name, ns)| format!("{name} {:.1}% ({ns:.0} ns)", 100.0 * ns / total.max(1.0)))
            .collect();
        println!("{workload} layer shares per token: {}", row.join(", "));
    }
}

/// Whole seconds for the untraced and the traced window of a pass that
/// may take `seconds` in all.
fn window_seconds(seconds: u64) -> u64 {
    (seconds * 3 / 10).max(1)
}

pub fn run(w: &Workload, dir: &Path, seconds: u64, warm: Duration) -> Result<LayerReport, String> {
    let texts = w.create_texts();
    let (mut engine, _) = w.set_up(dir, &texts).map_err(|e| format!("set-up: {e}"))?;
    let tman = engine.tman.clone();
    let recorder = Spans::new();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut book = |r: &WindowResult, failures: &mut Vec<String>| {
        attempted += r.attempted;
        failed += r.failed;
        failures.extend(r.failures.iter().cloned());
    };

    // Where the end-to-end run measures in episodes, neither window is
    // longer than two of them: the slope must not become the measurement.
    let secs = match w.episode_s {
        Some(episode) => window_seconds(seconds).min(2 * episode),
        None => window_seconds(seconds),
    };
    // Untraced, then traced, on the same engine under the same harness
    // drivers; the only difference is the spans.
    let short_warm = Duration::from_millis(500);
    let (untraced_tps, before, traced, after, traced_wall) =
        load::with_harness_drivers(&tman, w.drivers(), &recorder, || {
            let drivers = || Drivers::Harness(&recorder);
            let window = |engine: &mut Engine, warm, seconds, rate| {
                load::run_window(
                    engine,
                    w,
                    Window {
                        warm,
                        seconds,
                        rate,
                    },
                    drivers(),
                )
            };
            let untraced_tps = match w.load {
                Load::Wire { ladder } => {
                    // The fixed rate ladder, each step on a drained engine.
                    let step_secs = (seconds / 5).max(1);
                    let steps: Vec<WindowResult> = ladder
                        .iter()
                        .map(|&rate| window(&mut engine, short_warm, step_secs, Some(rate)))
                        .collect();
                    let batch = FLUSH_TOKENS as u64;
                    let passes = |r: &WindowResult| {
                        r.failed == 0
                            && r.overall_tail_us() <= LATENCY_LIMIT_US
                            && r.backlog_end <= r.backlog_mid.saturating_add(batch)
                    };
                    for (rate, r) in ladder.iter().zip(&steps) {
                        println!(
                            "{} ladder step {rate} tokens/s: achieved {:.0}, p{} {:.0} us, backlog \
                             {} at mid-window and {} at the end, {} failed: {}",
                            w.name,
                            r.tokens_per_s(Slices::rate),
                            r.latency.tail() * 100.0,
                            r.overall_tail_us(),
                            r.backlog_mid,
                            r.backlog_end,
                            r.failed,
                            if passes(r) { "sustained" } else { "not sustained" }
                        );
                    }
                    let sustained = ladder
                        .iter()
                        .zip(&steps)
                        .filter(|(_, r)| passes(r))
                        .map(|(rate, _)| *rate)
                        .fold(0.0, f64::max);
                    v.insert("e2e.sustained_rate_tps", sustained);
                    v.insert("e2e.fires_per_s", steps[0].latency.rate());
                    v.insert(
                        "e2e.tokens_per_s_mean",
                        steps[0].tokens_per_s(Slices::mean_rate),
                    );
                    v.insert("e2e.fire_latency_p99_us", steps[0].latency_tail_us());
                    v.insert("generator.step2_p99_us", steps[1].overall_tail_us());
                    v.insert("generator.step3_p99_us", steps[2].overall_tail_us());
                    v.insert("e2e.disk_bytes_per_token", steps[0].disk_bytes_per_token);
                    // Above the sustainable rate a step is expected to
                    // queue, not to lose or invent fires.
                    steps.iter().for_each(|r| book(r, &mut failures));
                    steps[0].tokens_per_s(Slices::rate)
                }
                _ => {
                    let r = window(&mut engine, warm, secs, None);
                    v.insert("e2e.fires_per_s", r.latency.rate());
                    v.insert("e2e.tokens_per_s_mean", r.tokens_per_s(Slices::mean_rate));
                    v.insert("e2e.fire_latency_p99_us", r.latency_tail_us());
                    // Two commands to a pair.
                    v.insert("e2e.ddl_ops_per_s", 2.0 * r.ddl_pairs.rate());
                    v.insert("e2e.ddl_latency_p50_us", r.ddl_pairs.quantile_us(0.5));
                    v.insert(
                        "e2e.ddl_latency_p99_us",
                        r.ddl_pairs.tail_us(r.ddl_pairs.tail()),
                    );
                    if w.on_disk {
                        v.insert("e2e.disk_bytes_per_token", r.disk_bytes_per_token);
                    }
                    book(&r, &mut failures);
                    r.tokens_per_s(Slices::rate)
                }
            };
            let before = Counters::read(&tman);
            recorder.set_on(true);
            let began = Instant::now();
            let traced = window(&mut engine, short_warm, secs, None);
            let traced_wall = began.elapsed();
            recorder.set_on(false);
            (
                untraced_tps,
                before,
                traced,
                Counters::read(&tman),
                traced_wall,
            )
        });
    book(&traced, &mut failures);
    let all_spans = recorder.take();
    let by_name = spans::totals_by_name(&all_spans);
    let span = |name: &str| by_name.get(name).copied().unwrap_or_default();

    let tokens = (after.m.engine.tokens - before.m.engine.tokens).max(1) as f64;
    let fires = (after.m.engine.actions - before.m.engine.actions).max(1) as f64;
    let fires_per_token = fires / tokens;
    let per = |a: u64, b: u64, of: f64| (b - a) as f64 / of;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (a, b) = (&before.m, &after.m);

    v.insert(
        "trace.overhead_ratio",
        untraced_tps / traced.tokens_per_s(Slices::rate).max(1e-9),
    );
    v.insert("generator.lag_p99_us", traced.generator_lag_p99_us);
    if !matches!(w.load, Load::Closed { .. }) {
        let tail = traced.latency.tail();
        let worst = traced
            .latency
            .per_second_us(tail)
            .into_iter()
            .fold(0.0, f64::max);
        v.insert("generator.worst_slice_p99_us", worst);
    }

    // engine.driver: the harness's own spans around tman_test.
    let driver = span("engine.driver.tman_test");
    let n_drivers = w.drivers().max(1) as f64;
    v.insert(
        "engine.driver.tman_test_self_ns_per_token",
        driver.self_ns as f64 / tokens,
    );
    v.insert(
        "engine.driver.busy_share",
        driver.total_ns as f64 / (traced_wall.as_nanos() as f64 * n_drivers),
    );
    v.insert(
        "engine.driver.tokens_per_call",
        tokens / (b.driver.tman_test_calls - a.driver.tman_test_calls).max(1) as f64,
    );
    let per_shard: Vec<f64> = b
        .driver
        .shards
        .iter()
        .zip(&a.driver.shards)
        .map(|(b, a)| (b.tokens - a.tokens) as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    v.insert(
        "engine.driver.shard_skew",
        per_shard.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );

    // predindex, cache, action, events: counters across the traced window.
    v.insert(
        "predindex.residual_pass_ratio",
        ratio(
            b.index.matches - a.index.matches,
            b.index.residual_tests - a.index.residual_tests,
        ),
    );
    v.insert(
        "predindex.tag_dedup_per_token",
        per(a.index.tag_dedup_hits, b.index.tag_dedup_hits, tokens),
    );
    v.insert(
        "predindex.mem_bytes_per_entry",
        ratio(b.index.memory_bytes as u64, b.index.entries as u64),
    );
    v.insert(
        "engine.cache.hit_ratio",
        ratio(b.cache.hits - a.cache.hits, b.cache.pins - a.cache.pins),
    );
    v.insert(
        "engine.cache.evictions_per_token",
        per(a.cache.evictions, b.cache.evictions, tokens),
    );
    let action_ns = ratio(
        b.actions.latency_ns.sum - a.actions.latency_ns.sum,
        b.actions.latency_ns.count - a.actions.latency_ns.count,
    );
    v.insert("engine.action.ns_per_fire", action_ns);
    let recv = match w.load {
        Load::Wire { .. } => span("wire.client.recv"),
        _ => span("engine.events.recv"),
    };
    let recv_ns = ratio(recv.self_ns, recv.items);
    v.insert("engine.events.recv_self_ns_per_fire", recv_ns);
    v.insert(
        "engine.events.dropped",
        (b.actions.dropped - a.actions.dropped) as f64,
    );

    // engine.queue and storage: counters.
    v.insert(
        "engine.queue.rows_scanned_per_dequeued",
        ratio(
            after.queue_rows_scanned - before.queue_rows_scanned,
            b.queue.dequeued - a.queue.dequeued,
        ),
    );
    v.insert("engine.queue.wait_p50_us", b.queue.wait_ns.p50 as f64 / 1e3);
    v.insert("engine.queue.depth_max", traced.depth_max as f64);
    let (sa, sb) = (&a.storage, &b.storage);
    v.insert(
        "storage.wal.bytes_per_token",
        per(sa.wal_bytes, sb.wal_bytes, tokens),
    );
    v.insert(
        "storage.wal.fsyncs_per_ktoken",
        per(sa.wal_fsyncs, sb.wal_fsyncs, tokens / 1e3),
    );
    v.insert(
        "storage.wal.tokens_per_group_commit",
        ratio(tokens as u64, sb.wal_group_commits - sa.wal_group_commits),
    );
    v.insert(
        "storage.wal.group_commit_p50_us",
        sb.wal_group_commit_ns.p50 as f64 / 1e3,
    );
    v.insert(
        "storage.wal.checkpoints",
        (sb.wal_checkpoints - sa.wal_checkpoints) as f64,
    );
    v.insert(
        "storage.buffer.hit_ratio",
        ratio(
            sb.pool_hits - sa.pool_hits,
            (sb.pool_hits - sa.pool_hits) + (sb.pool_misses - sa.pool_misses),
        ),
    );
    v.insert(
        "storage.buffer.page_reads_per_token",
        per(sa.page_reads, sb.page_reads, tokens),
    );

    // wire: counters (all zero without a wire server).
    let (wa, wb) = (&a.wire, &b.wire);
    v.insert(
        "wire.server.tokens_per_batch",
        ratio(wb.tokens - wa.tokens, wb.batches - wa.batches),
    );
    v.insert(
        "wire.server.backpressure_events",
        (wb.backpressure - wa.backpressure) as f64,
    );
    v.insert(
        "wire.delivery.ingest_to_fire_p50_us",
        wb.ingest_to_fire_ns.p50 as f64 / 1e3,
    );
    v.insert(
        "wire.delivery.fire_to_ack_p50_us",
        wb.fire_to_ack_ns.p50 as f64 / 1e3,
    );
    v.insert(
        "wire.delivery.appends_per_fire",
        ratio(wb.delivery_appends - wa.delivery_appends, fires as u64),
    );
    v.insert(
        "wire.delivery.redelivery_suppressed",
        (wb.redelivery_suppressed - wa.redelivery_suppressed) as f64,
    );

    // Replays, on the quiescent engine.
    let sample: Vec<(UpdateDescriptor, u32)> = (0..SAMPLE)
        .map(|i| {
            let tok = w.domain.token(w.seed, SAMPLE_SEQ0 + i);
            (
                tok.descriptor(engine.src, SAMPLE_SEQ0 + i),
                w.reference.expected(&tok).entries,
            )
        })
        .collect();
    v.insert("lang.parse_ns_per_cmd", replay_parse(&texts)?);
    let analysed = replay_signature(&tman, &w.conds, &mut v)?;
    let probe_ns = replay_probe(&tman, &sample, &mut v, &mut failures, &mut failed);
    attempted += SAMPLE;
    replay_index_writes(w, &tman, analysed, &mut v)?;
    let pin_ns = replay_pins(&tman, &sample, &mut v)?;
    let queue_ns = replay_queue(w, dir, &sample, &mut v)?;
    v.insert("storage.wal.append_commit_ns_per_page", replay_wal(dir)?);
    let frame_ns = replay_frames(&sample, &mut v)?;
    engine.tear_down();
    if w.name == "select_hot" {
        v.insert(
            "engine.driver.speedup_2_over_1",
            driver_speedup(w, dir, &texts)?,
        );
    }

    // Per-token time by group of layers: what the README's share table
    // shows. The driver's own share is what its spans hold beyond the
    // layers replayed beneath it.
    let per_token = |t: NameTotals| t.self_ns as f64 / tokens;
    let beneath_driver = probe_ns + (pin_ns + action_ns) * fires_per_token;
    let wire_ns = match w.load {
        Load::Wire { .. } => frame_ns + per_token(span("wire.client.flush")) + per_token(recv),
        _ => 0.0,
    };
    let driver_rest = (driver.self_ns as f64 / tokens - beneath_driver - queue_ns).max(0.0);
    let shares = vec![
        ("predindex+engine.driver", probe_ns + driver_rest),
        ("engine.cache", pin_ns * fires_per_token),
        (
            "engine.action+events",
            (action_ns + recv_ns) * fires_per_token,
        ),
        ("storage.wal+engine.queue", queue_ns),
        ("wire", wire_ns),
    ];
    Ok(LayerReport {
        values: v,
        attempted,
        failed,
        failures,
        spans: all_spans,
        shares,
    })
}

/// The program's counters at one instant.
struct Counters {
    m: MetricsSnapshot,
    queue_rows_scanned: u64,
}

impl Counters {
    fn read(tman: &TriggerMan) -> Counters {
        Counters {
            m: tman.metrics_snapshot(),
            queue_rows_scanned: tman
                .database()
                .table(triggerman::queue::QUEUE_TABLE)
                .map_or(0, |t| t.stats().rows_scanned.get()),
        }
    }
}

fn ns_per(began: Instant, n: usize) -> f64 {
    began.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Passes a stateless replay makes; the median pass is reported.
const PASSES: usize = 3;

fn median_pass(mut pass: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let timings: Vec<f64> = (0..PASSES).map(|_| pass()).collect::<Result<_, _>>()?;
    Ok(crate::stats::median(&timings))
}

/// `tman_lang::parse_command` over the workload's create-trigger texts.
fn replay_parse(texts: &[String]) -> Result<f64, String> {
    median_pass(|| {
        let began = Instant::now();
        for text in texts.iter().cycle().take(COMMANDS) {
            black_box(parse_command(black_box(text)).is_ok());
        }
        Ok(ns_per(began, COMMANDS))
    })
}

/// One index entry ready to add: what bind → CNF → signature analysis
/// makes of a condition (an `or` gives one per arm, as in the engine).
type Analysed = (
    tman_expr::signature::SelectionSignature,
    Vec<tman_common::Value>,
);

/// Bind → `to_cnf` → `analyze_selection` over the workload's conditions.
/// Returns every condition's entries for the index-write replay.
fn replay_signature(
    tman: &TriggerMan,
    conds: &[Cond],
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<Vec<Analysed>>, String> {
    let source = tman.source(SOURCE).map_err(|e| e.to_string())?;
    let ctx = BindCtx::new(vec![(SOURCE.into(), &source.schema)]);
    let err = |e: tman_common::TmanError| format!("signature replay: {e}");
    let analyse = |expr: &tman_lang::Expr| -> Result<(tman_expr::Cnf, Analysed), String> {
        let cnf = to_cnf(&ctx.pred(expr).map_err(err)?).map_err(err)?;
        let canon = remap_var(&cnf, 0, 0, SOURCE);
        let whole = analyze_selection(&canon, source.id, EventKind::InsertOrUpdate, vec![]);
        Ok((canon, whole))
    };
    let exprs: Vec<tman_lang::Expr> = conds
        .iter()
        .map(|c| parse_expression(&c.text()).map_err(err))
        .collect::<Result<_, _>>()?;
    let ns = median_pass(|| {
        let began = Instant::now();
        for expr in exprs.iter().cycle().take(COMMANDS) {
            black_box(analyse(black_box(expr))?);
        }
        Ok(ns_per(began, COMMANDS))
    })?;
    v.insert("expr.signature_ns_per_cond", ns);
    let mut out = Vec::with_capacity(conds.len());
    for expr in &exprs {
        let (canon, whole) = analyse(expr)?;
        let arms = decompose_disjunction(&canon)
            .filter(|arms| matches!(whole.0.index_plan, IndexPlan::None) && arms.len() > 1);
        out.push(match arms {
            Some(arms) => arms
                .iter()
                .map(|arm| analyze_selection(arm, source.id, EventKind::InsertOrUpdate, vec![]))
                .collect(),
            None => vec![whole],
        });
    }
    Ok(out)
}

/// `match_token_vec` over the sample against the live index; the entries
/// it returns must be exactly the reference's.
fn replay_probe(
    tman: &TriggerMan,
    sample: &[(UpdateDescriptor, u32)],
    v: &mut BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
    failed: &mut u64,
) -> f64 {
    let index = tman.predicate_index();
    let mut matches = 0u64;
    let mut wrong = 0u64;
    let ns = median_pass(|| {
        (matches, wrong) = (0, 0);
        let began = Instant::now();
        for (token, want) in sample {
            let got = index
                .match_token_vec(black_box(token))
                .map_or(u32::MAX, |m| m.len() as u32);
            matches += got as u64;
            wrong += (got != *want) as u64;
        }
        Ok(ns_per(began, sample.len()))
    })
    .expect("a probe pass cannot fail");
    if wrong > 0 {
        *failed += wrong;
        failures.push(format!(
            "{wrong} sample tokens matched entries other than the reference's"
        ));
    }
    v.insert("predindex.probe_ns_per_token", ns);
    v.insert(
        "predindex.matches_per_token",
        matches as f64 / sample.len() as f64,
    );
    ns
}

/// `add_predicate` of the whole population into a scratch index, then
/// `remove_trigger` of the first [`REMOVALS`] triggers.
fn replay_index_writes(
    w: &Workload,
    tman: &TriggerMan,
    analysed: Vec<Vec<Analysed>>,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let source = tman.source(SOURCE).map_err(|e| e.to_string())?;
    let scratch = PredicateIndex::new(w.config.index.clone());
    let triggers = analysed.len();
    let mut entries = 0u64;
    let began = Instant::now();
    for (trigger, parts) in analysed.into_iter().enumerate() {
        for (sig, consts) in parts {
            entries += 1;
            scratch
                .add_predicate(
                    source.id,
                    &source.schema,
                    sig,
                    consts,
                    ExprId(entries),
                    TriggerId(trigger as u64 + 1),
                    NodeId(0),
                )
                .map_err(|e| format!("index-write replay: {e}"))?;
        }
    }
    v.insert(
        "predindex.add_ns_per_entry",
        ns_per(began, entries as usize),
    );
    let removed = triggers.min(REMOVALS);
    let began = Instant::now();
    for trigger in 0..removed {
        scratch
            .remove_trigger(TriggerId(trigger as u64 + 1))
            .map_err(|e| format!("index-write replay: {e}"))?;
    }
    v.insert("predindex.remove_ns_per_trigger", ns_per(began, removed));
    Ok(())
}

/// `trigger_cache().pin_report` over the triggers the sample matches,
/// with the engine's own miss path as the loader: catalog row by id,
/// parse, compile.
fn replay_pins(
    tman: &Arc<TriggerMan>,
    sample: &[(UpdateDescriptor, u32)],
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let err = |e: tman_common::TmanError| format!("pin replay: {e}");
    let mut ids: Vec<TriggerId> = Vec::new();
    for (token, _) in sample {
        let matched = tman.predicate_index().match_token_vec(token).map_err(err)?;
        ids.extend(matched.iter().map(|m| m.trigger_id));
        if ids.len() >= SAMPLE as usize {
            break;
        }
    }
    let catalog = Catalog::open(tman.database()).map_err(err)?;
    let began = Instant::now();
    let mut pinned_ids = 0;
    for &id in &ids {
        // A miss costs a catalog scan: a cold cache gets a second of pins,
        // not the whole sample.
        if began.elapsed() > Duration::from_secs(1) {
            break;
        }
        pinned_ids += 1;
        let pinned = tman.trigger_cache().pin_report(id, || {
            let row = catalog
                .trigger_by_id(id)?
                .ok_or_else(|| tman_common::TmanError::NotFound(format!("trigger {id}")))?;
            let Command::CreateTrigger(stmt) = parse_command(&row.text)? else {
                return Err(tman_common::TmanError::Internal(
                    "not a create trigger".into(),
                ));
            };
            let compiled = compile_trigger(
                &stmt,
                row.id,
                row.set,
                &row.text,
                tman.config().network,
                &|name| tman.source(name),
            )?;
            Ok(Arc::new(compiled.trigger))
        });
        black_box(pinned.map_err(err)?);
    }
    let ns = ns_per(began, pinned_ids);
    v.insert("engine.cache.pin_ns_per_fire", ns);
    Ok(ns)
}

/// `enqueue_batch`, `dequeue_tracked` and `ack_batch` on a scratch queue
/// of the workload's mode holding the workload's backlog. Returns the
/// three together, per token.
fn replay_queue(
    w: &Workload,
    dir: &Path,
    sample: &[(UpdateDescriptor, u32)],
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let err = |e: tman_common::TmanError| format!("queue replay: {e}");
    let path = dir.join("scratch_queue.db");
    let db;
    let queue = match w.config.queue_mode {
        QueueMode::Volatile => UpdateQueue::volatile(),
        QueueMode::Persistent => {
            db = Database::open_file_opts(
                &path,
                w.config.pool_pages,
                None,
                WalConfig {
                    checkpoint_bytes: w.config.wal_checkpoint_bytes,
                },
            )
            .map_err(err)?;
            UpdateQueue::persistent(&db).map_err(err)?
        }
    };
    let tokens: Vec<UpdateDescriptor> = sample.iter().map(|s| s.0.clone()).collect();
    let backlog = match w.load {
        Load::Closed { backlog, .. } => backlog as usize,
        _ => 256,
    };
    for chunk in tokens
        .iter()
        .cycle()
        .take(backlog)
        .cloned()
        .collect::<Vec<_>>()
        .chunks(256)
    {
        queue.enqueue_batch(chunk).map_err(err)?;
    }
    let drain = w.config.drain_batch;
    let (mut enq, mut deq, mut ack) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut moved = 0usize;
    for chunk in tokens.chunks(drain) {
        let t0 = Instant::now();
        queue.enqueue_batch(chunk).map_err(err)?;
        let t1 = Instant::now();
        let items = queue.dequeue_tracked(drain).map_err(err)?;
        let t2 = Instant::now();
        let seqs: Vec<i64> = items.iter().filter_map(|i| i.seq).collect();
        queue.ack_batch(&seqs).map_err(err)?;
        let t3 = Instant::now();
        enq += t1 - t0;
        deq += t2 - t1;
        ack += t3 - t2;
        moved += items.len();
    }
    let per = |d: Duration| d.as_nanos() as f64 / moved.max(1) as f64;
    v.insert("engine.queue.enqueue_ns_per_token", per(enq));
    v.insert("engine.queue.dequeue_ns_per_token", per(deq));
    v.insert("engine.queue.ack_ns_per_token", per(ack));
    drop(queue);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("scratch_queue.db.wal"));
    Ok(per(enq) + per(deq) + per(ack))
}

/// `Wal::append_page` + `commit_stage` + `make_durable` on a scratch log.
fn replay_wal(dir: &Path) -> Result<f64, String> {
    let err = |e: tman_common::TmanError| format!("wal replay: {e}");
    let path = dir.join("scratch.wal");
    let wal = Wal::open(&path, None, WalConfig::default()).map_err(err)?;
    let mut page = [0u8; PAGE_SIZE];
    let pages = 64;
    let began = Instant::now();
    for i in 0..pages {
        page[(i * 61) % PAGE_SIZE] = i as u8 + 1;
        wal.append_page(PageId(i as u32 % 8), &page).map_err(err)?;
        let seq = wal.commit_stage().map_err(err)?;
        wal.make_durable(seq).map_err(err)?;
    }
    let ns = ns_per(began, pages);
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok(ns)
}

/// `encode_frame` and `decode_frame` over the sample as the feeder's
/// 64-token `UpdateBatch`es. Returns the two together, per token.
fn replay_frames(
    sample: &[(UpdateDescriptor, u32)],
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let err = |e: tman_common::TmanError| format!("frame replay: {e}");
    let encoded: Vec<Vec<u8>> = sample.iter().map(|s| s.0.encode()).collect();
    let frames: Vec<Frame<'_>> = encoded
        .chunks(FLUSH_TOKENS)
        .map(|chunk| Frame::UpdateBatch {
            descriptors: chunk.iter().map(|d| Cow::Borrowed(d.as_slice())).collect(),
            trace_ids: vec![0; chunk.len()],
            sent_unix_ns: 1,
        })
        .collect();
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let encode_ns = median_pass(|| {
        wire.clear();
        let began = Instant::now();
        for frame in &frames {
            let mut out = Vec::with_capacity(8 * 1024);
            encode_frame(black_box(frame), &mut out).map_err(err)?;
            wire.push(out);
        }
        Ok(ns_per(began, sample.len()))
    })?;
    let decode_ns = median_pass(|| {
        let began = Instant::now();
        for bytes in &wire {
            black_box(decode_frame(black_box(bytes)).map_err(err)?.is_some());
        }
        Ok(ns_per(began, sample.len()))
    })?;
    let bytes: usize = wire.iter().map(Vec::len).sum();
    v.insert("wire.frame.encode_ns_per_token", encode_ns);
    v.insert("wire.frame.decode_ns_per_token", decode_ns);
    v.insert(
        "wire.frame.bytes_per_token",
        bytes as f64 / sample.len() as f64,
    );
    Ok(encode_ns + decode_ns)
}

/// `select_hot` with the program's own drivers on two CPUs against one:
/// the single-threaded run of the same job as the baseline.
fn driver_speedup(w: &Workload, dir: &Path, texts: &[String]) -> Result<f64, String> {
    let mut rates = [0.0; 2];
    for (slot, cpus) in [1usize, 2].into_iter().enumerate() {
        let mut one = Workload::new(w.name, w.seed).expect("same workload");
        one.config.num_cpus = Some(cpus);
        let (mut engine, _) = one.set_up(dir, texts).map_err(|e| format!("set-up: {e}"))?;
        let window = Window {
            warm: Duration::from_millis(300),
            seconds: 1,
            rate: None,
        };
        rates[slot] = load::run_window(&mut engine, &one, window, Drivers::Program)
            .tokens_per_s(Slices::rate);
        engine.tear_down();
    }
    Ok(rates[1] / rates[0].max(1e-9))
}
