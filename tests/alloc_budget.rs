//! Allocation budgets of the drain hot path, of a `create trigger`, and of
//! an event-bus drop storm.
//!
//! Its own test binary so that the counting `#[global_allocator]` touches
//! nothing else. Counts are taken on the test thread only (a thread-local
//! switch), so the harness's other threads — there are none while a count
//! is open — and the test runner cannot disturb them: the numbers repeat
//! exactly from run to run.
//!
//! The budget: a `select_hot`-shaped population (2 000 triggers: `sym =`,
//! `sym = and price >`, `vol =`, price bands, one tenth two-arm `or`, one
//! tenth `sym = and vol =` — a composite key over columns that are not
//! adjacent, which a probe must hash and compare where they lie), 4 096
//! tokens pushed 256 at a time and drained by `tman_test` on this thread,
//! must cost at most [`BUDGET`] heap allocations per token inside
//! `tman_test` (52.3 before the drain became one pipeline over a published
//! match plan). What remains is per fire: the notification's `values`
//! vector and the channel's node — and nothing else is, which the second
//! population shows: drawn from a tenth of the domain it fires ten times
//! as many triggers a token, and each extra fire may cost [`PER_FIRE`]
//! allocations. The outbox, the grouping of a run into stretches and the
//! delivery routine allocate by the run.
//!
//! The same population, created one `create trigger` at a time, must cost
//! at most [`CREATE_BUDGET`] allocations per create, of which parsing the
//! command may take [`PARSE_BUDGET`]: a create pays for its own trigger —
//! its AST, its description, its index entry and its catalog row — and not
//! again for the class it joins.
//!
//! A windowed `create trigger` and its `drop trigger` pay for their own
//! window: the bytes the pair allocates do not grow with the number of
//! windowed triggers already defined.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tman_common::rng::SplitMix64;
use tman_common::{Tuple, UpdateDescriptor, Value};
use triggerman::{Config, EventBus, EventNotification, Outbox, Registry, TriggerMan};

struct Counting;

thread_local! {
    /// (counting?, allocations counted, bytes they asked for)
    static COUNT: Cell<(bool, u64, u64)> = const { Cell::new((false, 0, 0)) };
}

fn note_alloc(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = COUNT.try_with(|c| {
        let (on, n, b) = c.get();
        if on {
            c.set((on, n + 1, b + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (r, n, _) = allocated_in(f);
    (r, n)
}

/// Allocations this thread makes while `f` runs, and the bytes they ask
/// for (a `realloc` counts its new size).
fn allocated_in<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    COUNT.with(|c| c.set((true, 0, 0)));
    let r = f();
    let (_, n, bytes) = COUNT.with(|c| c.replace((false, 0, 0)));
    (r, n, bytes)
}

/// Allocations per token the drain may make, at about four fires a token.
const BUDGET: f64 = 4.52;
/// Allocations one more fire may add: the `values` vector, and the event
/// channel's share. `tman_sync`'s channel is a deque that grows by
/// doubling, so a message adds well under one allocation.
const PER_FIRE: f64 = 1.05;

/// Allocations one `create trigger` of the population may make, on
/// average (152.7 before a create stopped paying for its class).
const CREATE_BUDGET: f64 = 76.3;
/// Allocations `parse_command` may make on one of its texts (35.6 before
/// the lexer borrowed from the command).
const PARSE_BUDGET: f64 = 17.8;

const TRIGGERS: u32 = 2_000;
const TOKENS: u64 = 4_096;
const BATCH: u64 = 256;
const SEED: u64 = 7;
const PRICES: u32 = 100_000;
/// The `(sym, vol)` of every 128th token.
const HOT_PAIR: (u32, u32) = (1, 2);

/// A value in `[0, n)` from the top 32 bits of a draw, by multiply-high:
/// the mapping the budgets' populations were measured with.
fn below(rng: &mut SplitMix64, n: u32) -> u32 {
    (((rng.next_u64() >> 32) * n as u64) >> 32) as u32
}

/// How many triggers of each form a token fires, in closed form: table
/// lookups and binary searches over the population's constants.
#[derive(Default)]
struct Reference {
    sym_eq: HashMap<u32, u64>,
    sym_price: HashMap<u32, Vec<u32>>,
    vol_eq: HashMap<u32, u64>,
    band_lo: Vec<u32>,
    band_hi: Vec<u32>,
    or_sym: HashMap<u32, u64>,
    or_vol: HashMap<u32, u64>,
    or_both: HashMap<(u32, u32), u64>,
    sym_vol: HashMap<(u32, u32), u64>,
}

impl Reference {
    /// Prices are `k + 0.5`, so `price > c` is `k >= c` for an integer `c`.
    fn fires(&self, sym: u32, price_k: u32, vol: u32) -> u64 {
        let at_most_k = |sorted: &[u32]| sorted.partition_point(|&c| c <= price_k) as u64;
        let count = |m: &HashMap<u32, u64>, k: u32| m.get(&k).copied().unwrap_or(0);
        count(&self.sym_eq, sym)
            + self.sym_price.get(&sym).map_or(0, |v| at_most_k(v))
            + count(&self.vol_eq, vol)
            + (at_most_k(&self.band_lo) - at_most_k(&self.band_hi))
            + count(&self.or_sym, sym)
            + count(&self.or_vol, vol)
            - self.or_both.get(&(sym, vol)).copied().unwrap_or(0)
            + self.sym_vol.get(&(sym, vol)).copied().unwrap_or(0)
    }
}

/// Symbols and volumes are drawn from this many values: at `fan` 1 a token
/// meets about one trigger of each equality form, at `fan` 10 ten.
fn domain(fan: u32) -> u32 {
    TRIGGERS / 4 / fan
}

/// The population's `when` clauses and the reference that counts them. A
/// token fires about `4 * fan` of them.
fn population(fan: u32) -> (Vec<String>, Reference) {
    let mut rng = SplitMix64::new(SEED);
    let mut r = Reference::default();
    let width = fan * PRICES / (TRIGGERS / 4);
    let conds = (0..TRIGGERS)
        .map(|i| {
            let (sym, vol) = (below(&mut rng, domain(fan)), below(&mut rng, domain(fan)));
            let price = below(&mut rng, PRICES - width);
            if i % 10 == 9 {
                *r.or_sym.entry(sym).or_default() += 1;
                *r.or_vol.entry(vol).or_default() += 1;
                *r.or_both.entry((sym, vol)).or_default() += 1;
                return format!("q.sym = 'S{sym}' or q.vol = {vol}");
            }
            if i % 10 == 4 {
                // Some of these on the pair every 128th token carries, so
                // that the key is met as well as missed.
                let (sym, vol) = if i % 400 == 4 { HOT_PAIR } else { (sym, vol) };
                *r.sym_vol.entry((sym, vol)).or_default() += 1;
                return format!("q.sym = 'S{sym}' and q.vol = {vol}");
            }
            match i % 4 {
                0 => {
                    *r.sym_eq.entry(sym).or_default() += 1;
                    format!("q.sym = 'S{sym}'")
                }
                1 => {
                    r.sym_price.entry(sym).or_default().push(price);
                    format!("q.sym = 'S{sym}' and q.price > {price}")
                }
                2 => {
                    *r.vol_eq.entry(vol).or_default() += 1;
                    format!("q.vol = {vol}")
                }
                _ => {
                    r.band_lo.push(price);
                    r.band_hi.push(price + width);
                    format!("q.price > {price} and q.price <= {}", price + width)
                }
            }
        })
        .collect();
    r.sym_price.values_mut().for_each(|v| v.sort_unstable());
    r.band_lo.sort_unstable();
    r.band_hi.sort_unstable();
    (conds, r)
}

/// The population's `create trigger` commands.
fn create_texts(conds: &[String]) -> Vec<String> {
    let create =
        |(i, cond)| format!("create trigger t{i} from q when {cond} do raise event Matched(q.seq)");
    conds.iter().enumerate().map(create).collect()
}

/// Drain [`TOKENS`] tokens through a population of fan-out `fan`, every
/// fire checked against the closed-form count: (allocations inside
/// `tman_test`, fires).
fn drain(fan: u32) -> (u64, u64) {
    let tman = TriggerMan::open_memory(Config {
        trigger_cache_capacity: 4_096,
        ..Config::default()
    })
    .unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int, seq int)")
        .unwrap();
    let (conds, reference) = population(fan);
    for text in create_texts(&conds) {
        tman.execute_command(&text).unwrap();
    }
    let src = tman.source("q").unwrap().id;
    let rx = tman.subscribe("Matched");

    let mut rng = SplitMix64::new(SEED ^ 0xD6E8_FEB8_6659_FD93);
    let (mut expected, mut received, mut in_drain) = (0u64, 0u64, 0u64);
    for first in (0..TOKENS).step_by(BATCH as usize) {
        let batch: Vec<UpdateDescriptor> = (first..first + BATCH)
            .map(|seq| {
                let (mut sym, price_k, mut vol) = (
                    below(&mut rng, domain(fan)),
                    below(&mut rng, PRICES),
                    below(&mut rng, domain(fan)),
                );
                if seq % 128 == 0 {
                    (sym, vol) = HOT_PAIR;
                }
                expected += reference.fires(sym, price_k, vol);
                UpdateDescriptor::insert(
                    src,
                    Tuple::new(vec![
                        Value::Str(format!("S{sym}")),
                        Value::Float(price_k as f64 + 0.5),
                        Value::Int(vol as i64),
                        Value::Int(seq as i64),
                    ]),
                )
            })
            .collect();
        tman.push_tokens(batch).unwrap();
        let ((), n) = allocations_in(|| {
            tman.tman_test(Duration::from_secs(3600));
        });
        in_drain += n;
        // Received outside the count: freeing is not allocating, but the
        // mailbox must not grow without bound either.
        received += rx.try_iter().count() as u64;
    }
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(tman.stats().tokens.get(), TOKENS);
    assert_eq!(received, expected, "fires against the closed-form count");
    println!(
        "fan {fan}: {in_drain} allocations in tman_test for {TOKENS} tokens, {expected} fires: \
         {:.2} per token, {:.2} per fire",
        in_drain as f64 / TOKENS as f64,
        in_drain as f64 / expected as f64
    );
    (in_drain, expected)
}

#[test]
fn drain_stays_within_the_allocation_budget() {
    let (low, low_fires) = drain(1);
    assert!(
        low_fires > 3 * TOKENS,
        "the mix fires about four triggers a token"
    );
    let per_token = low as f64 / TOKENS as f64;
    assert!(
        per_token <= BUDGET,
        "{per_token:.2} allocations per token inside tman_test, budget {BUDGET}"
    );

    // Ten times the fires on the same tokens: what is added is added by
    // the fire, and a fire adds its `values` vector.
    let (high, high_fires) = drain(10);
    assert!(high_fires > 8 * low_fires, "{high_fires} fires");
    let per_fire = (high - low) as f64 / (high_fires - low_fires) as f64;
    println!("{per_fire:.3} allocations per extra fire");
    assert!(
        per_fire <= PER_FIRE,
        "{per_fire:.3} allocations per extra fire, budget {PER_FIRE}"
    );
}

#[test]
fn create_stays_within_the_allocation_budget() {
    let tman = TriggerMan::open_memory(Config {
        trigger_cache_capacity: 4_096,
        ..Config::default()
    })
    .unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int, seq int)")
        .unwrap();
    let texts = create_texts(&population(1).0);
    let (mut parsing, mut creating) = (0u64, 0u64);
    for text in &texts {
        let (parsed, n) = allocations_in(|| tman_lang::parse_command(text));
        parsing += n;
        drop(parsed.unwrap());
        let (created, n) = allocations_in(|| tman.execute_command(text));
        creating += n;
        created.unwrap();
    }
    assert_eq!(tman.trigger_names().len(), TRIGGERS as usize);
    let per_parse = parsing as f64 / TRIGGERS as f64;
    let per_create = creating as f64 / TRIGGERS as f64;
    println!("{per_create:.1} allocations per create trigger, {per_parse:.1} per parse_command");
    assert!(
        per_parse <= PARSE_BUDGET,
        "{per_parse:.1} allocations per parse_command, budget {PARSE_BUDGET}"
    );
    assert!(
        per_create <= CREATE_BUDGET,
        "{per_create:.1} allocations per create trigger, budget {CREATE_BUDGET}"
    );
}

/// Bytes one windowed `create trigger` and its `drop trigger` allocate,
/// on average over [`PAIRS`] pairs, beside `defined` windowed triggers.
fn windowed_pair_bytes(defined: u32) -> u64 {
    const PAIRS: u64 = 32;
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12))")
        .unwrap();
    let create = |name: &str, i: u64| {
        tman.execute_command(&format!(
            "create trigger {name} from q when q.sym = 'S{i}' count >= 3 within 100 ms \
             do raise event E(q.sym)"
        ))
        .unwrap();
    };
    for i in 0..defined {
        create(&format!("w{i}"), i.into());
    }
    // One pair first: what a pair makes once and keeps is not its cost.
    let mut bytes = 0;
    for pair in 0..=PAIRS {
        let name = format!("x{pair}");
        let ((), _, n) = allocated_in(|| {
            create(&name, pair);
            tman.execute_command(&format!("drop trigger {name}"))
                .unwrap();
        });
        if pair > 0 {
            bytes += n;
        }
    }
    assert_eq!(tman.trigger_names().len(), defined as usize);
    bytes / PAIRS
}

/// A windowed create and drop edit their one window in place: at 16 000
/// windowed triggers the pair allocates within twice what it does at
/// 1 000 (copying every window on each of them made it about sixteen
/// times).
#[test]
fn a_windowed_create_and_drop_allocate_for_one_window() {
    let few = windowed_pair_bytes(1_000);
    let many = windowed_pair_bytes(16_000);
    println!("windowed create + drop: {few} bytes at 1 000 windows, {many} at 16 000");
    assert!(
        many <= 2 * few,
        "{many} bytes a windowed create and drop at 16 000 windows, {few} at 1 000"
    );
}

/// A subscriber 65 536 notifications behind is dropped to on every fire by
/// every driver. After the first drop resolved the subscriber's labelled
/// counter in the registry, a drop neither allocates (formatting the id,
/// building the label set) nor goes back to the registry: a storm of
/// drops costs what its runs cost — the delivery routine's scratch, once a
/// run — however many notifications a run holds.
#[test]
fn a_drop_storm_allocates_nothing_per_drop() {
    let registry = Arc::new(Registry::new());
    let mut bus = EventBus::new();
    bus.attach_telemetry(&registry);
    let stalled = bus.subscribe("x");
    let note = || EventNotification {
        event: "x".into(),
        trigger: "t".into(),
        values: Vec::new(),
        message: None,
        token_seq: None,
        trace: Default::default(),
        ingest_unix_ns: 0,
    };
    for _ in 0..triggerman::events::SLOW_CHANNEL_DEPTH {
        bus.publish(note());
    }
    assert_eq!(bus.dropped(), 0);
    bus.publish(note()); // the first drop: one registry lookup
    let key: Arc<str> = "x".into();
    let (runs, run_len) = (10u64, 1_000u64);
    let mut outboxes: Vec<Outbox> = (0..runs)
        .map(|_| {
            let mut run = Outbox::with_capacity(run_len as usize);
            (0..run_len).for_each(|_| run.push(key.clone(), 0, note()));
            run
        })
        .collect();
    let ((), n) = allocations_in(|| {
        for run in &mut outboxes {
            assert_eq!(bus.deliver(run), 0);
        }
    });
    assert!(
        n <= runs,
        "{n} allocations in {runs} runs of {run_len} drops"
    );
    assert_eq!(bus.dropped(), runs * run_len + 1);
    // Every drop went to the one series the first drop resolved.
    let labelled = registry.counter("tman_notifications_dropped_total", &[("subscriber", "1")]);
    assert_eq!(labelled.get(), runs * run_len + 1);
    assert_eq!(stalled.len(), triggerman::events::SLOW_CHANNEL_DEPTH);
}
