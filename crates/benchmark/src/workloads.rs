//! The six workloads: what population each creates, what its tokens are
//! drawn from, how the engine is configured and how load is applied.
//!
//! Every engine runs `Config::default()` apart from the fields stated
//! here. One field is stated for all six: `driver_period` is 1 ms, not the
//! default 250 ms, because an idle driver sleeps a whole period before it
//! looks at the queue again and open-loop latency would otherwise measure
//! that constant and nothing else.

use crate::gen::{self, Cond, Reference, Rng, TokenDomain, SOURCE, SOURCE_COLUMNS};
use crossbeam::channel::Receiver;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_common::{DataSourceId, Result};
use tman_wire::{RemoteClient, RemoteDataSource, RemoteSubscriber, WireServer};
use triggerman::{Config, EventNotification, QueueMode, TriggerMan};

/// How load is applied.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// The sender keeps at most `backlog` tokens unprocessed, pushing
    /// `batch` at a time through `push_tokens`; a second thread receives.
    /// With `sender_drains` there is no driver pool: whenever the backlog
    /// is full the sender itself calls `tman_test` for one drain batch, so
    /// pushing and draining strictly alternate on one thread.
    Closed {
        backlog: u64,
        batch: u64,
        sender_drains: bool,
    },
    /// Tokens fall due at a rate from `ladder` whatever the program does.
    /// One feeder and one subscriber connection over loopback TCP; the
    /// feeder flushes every `FLUSH_TOKENS` tokens or `FLUSH_EVERY`, the
    /// subscriber acks every `ACK_EVERY`. End-to-end numbers are taken at
    /// the first rate.
    Wire { ladder: [f64; 3] },
    /// One thread creates and drops triggers back to back while a second
    /// pushes tokens due at `rate` and polls the receiver. `churn` of the
    /// population's triggers are the ones replaced.
    DdlChurn { rate: f64, churn: u64 },
}

pub const FLUSH_TOKENS: usize = 64;
pub const FLUSH_EVERY: Duration = Duration::from_millis(2);
pub const ACK_EVERY: u64 = 256;
/// Name of the durable wire subscription.
const SUBSCRIBER: &str = "bench";
pub const EVENT: &str = "Matched";

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    /// The static population, created at set-up (for `ddl_churn`, minus
    /// the churned share, which [`Workload::churn_cond`] supplies).
    pub conds: Vec<Cond>,
    pub domain: TokenDomain,
    pub reference: Reference,
    pub config: Config,
    /// File-backed store (in the run's scratch directory) or memory.
    pub on_disk: bool,
    pub load: Load,
    /// Measure in episodes of this many seconds, each on a store set up
    /// afresh, instead of in one window: for a workload whose speed depends
    /// on how many tokens the store has ever held (see [`Workload::new`]).
    pub episode_s: Option<u64>,
}

fn base_config() -> Config {
    Config {
        driver_period: Duration::from_millis(1),
        ..Config::default()
    }
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        let mut config = base_config();
        let mut on_disk = false;
        let mut episode_s = None;
        let name = crate::spec::all_workloads().find(|w| w.name == name)?.name;
        let ((conds, domain), load) = match name {
            "select_hot" => {
                config.trigger_cache_capacity = 65_536;
                (
                    gen::selection_mix(50_000, 1, &mut rng),
                    Load::Closed {
                        backlog: 4_096,
                        batch: 256,
                        sender_drains: false,
                    },
                )
            }
            "fanout_heavy" => {
                config.trigger_cache_capacity = 32_768;
                (
                    gen::fanout_population(20_000, 5_000, 200, &mut rng),
                    Load::Closed {
                        backlog: 256,
                        batch: 2,
                        sender_drains: false,
                    },
                )
            }
            "cache_cold" => {
                config.trigger_cache_capacity = 1_024;
                (
                    gen::one_per_volume(20_000),
                    // Small batches: at some 850 tokens/s a 256-token
                    // batch is a third of a second's work in one push.
                    Load::Closed {
                        backlog: 1_024,
                        batch: 32,
                        sender_drains: false,
                    },
                )
            }
            "durable_drain" => {
                config.queue_mode = QueueMode::Persistent;
                on_disk = true;
                // At the seed commit a dequeue walks every page the queue
                // table has ever had (emptied pages stay chained), so the
                // drain slows with every token queued since the store was
                // opened — 18k tokens/s fresh, 12k after 100k tokens — and
                // falls to 500 tokens/s once the chain outgrows the buffer
                // pool, at about 130k. One long window would measure how
                // far down that slope it got; episodes on a fresh store
                // all cover the same stretch of it.
                episode_s = Some(1);
                (
                    gen::selection_mix(500, 4, &mut rng),
                    // No driver pool: at the seed commit a producer that
                    // enqueues on a WAL-backed store while a driver acks
                    // deadlocks (see `Workload::drivers`), so the sender
                    // alternates pushing and draining.
                    Load::Closed {
                        backlog: 4_096,
                        batch: 256,
                        sender_drains: true,
                    },
                )
            }
            "wire_e2e" => {
                // A file store but the default volatile queue: the wire
                // thread enqueuing on the persistent queue while drivers
                // ack and append delivery rows meets the same deadlock.
                on_disk = true;
                (
                    // Fires on the top tenth of the price range.
                    (
                        vec![Cond::PriceAbove(gen::PRICE_RANGE / 10 * 9)],
                        TokenDomain::new(100, 1_000, 0.0),
                    ),
                    Load::Wire {
                        ladder: WIRE_LADDER,
                    },
                )
            }
            "ddl_churn" => {
                config.trigger_cache_capacity = 32_768;
                let churn = 1_000;
                (
                    gen::selection_mix(20_000 - churn as u32, 1, &mut rng),
                    Load::DdlChurn {
                        rate: 5_000.0,
                        churn,
                    },
                )
            }
            _ => unreachable!("{name} is in the spec and has no definition"),
        };
        Some(Workload {
            name,
            seed,
            reference: Reference::new(&conds),
            conds,
            domain,
            config,
            on_disk,
            load,
            episode_s,
        })
    }

    /// Driver threads a window needs: the program's `num_drivers`, or none
    /// when the sender drains.
    ///
    /// Why `durable_drain` has none. `BufferPool::flush_all` (every
    /// `pool.sync()`: each persistent `enqueue_batch` and `ack_batch`)
    /// holds the pool mutex while it takes each dirty page's lock;
    /// `HeapFile::insert_framed` holds the tail page's write lock while it
    /// asks the pool for a new page. One thread enqueuing while another
    /// acks therefore deadlocks within seconds at the seed commit. With one
    /// thread alternating the two, the same code runs and cannot.
    pub fn drivers(&self) -> usize {
        match self.load {
            Load::Closed {
                sender_drains: true,
                ..
            } => 0,
            _ => self.config.num_drivers(),
        }
    }

    /// The `i`-th trigger `ddl_churn` creates beside the static population
    /// (the first `churn` of them at set-up): a condition no token meets.
    pub fn churn_cond(&self, i: u64) -> Cond {
        gen::unmatched_cond(i, &self.domain)
    }

    /// Every `create trigger` command of set-up, in order.
    pub fn create_texts(&self) -> Vec<String> {
        let mut texts: Vec<String> = self
            .conds
            .iter()
            .enumerate()
            .map(|(i, c)| c.create_text(&format!("t{i}")))
            .collect();
        if let Load::DdlChurn { churn, .. } = self.load {
            texts.extend((0..churn).map(|i| self.churn_cond(i).create_text(&format!("c{i}"))));
        }
        texts
    }

    /// Open the engine, define the source and create the population: what
    /// `setup_s` times, up to the point where a first token can be pushed
    /// (for `wire_e2e`, with the server up and both connections open).
    pub fn set_up(&self, dir: &Path, texts: &[String]) -> Result<(Engine, Duration)> {
        let db_path = self.on_disk.then(|| dir.join(format!("{}.db", self.name)));
        if let Some(p) = &db_path {
            remove_db(p);
        }
        let start = Instant::now();
        let tman = match &db_path {
            Some(p) => TriggerMan::open_file(p, self.config.clone())?,
            None => TriggerMan::open_memory(self.config.clone())?,
        };
        tman.execute_command(&format!("define data source {SOURCE} ({SOURCE_COLUMNS})"))?;
        for text in texts {
            tman.execute_command(text)?;
        }
        let wire = match self.load {
            Load::Wire { .. } => Some(WireSide::start(&tman)?),
            _ => None,
        };
        // One in-process subscription per engine, made here: a receiver
        // dropped between windows would be pruned by the event bus and
        // counted as a dropped notification.
        let events = wire.is_none().then(|| tman.subscribe(EVENT));
        let took = start.elapsed();
        let src = tman.source(SOURCE)?.id;
        let next_churn = match self.load {
            Load::DdlChurn { churn, .. } => churn,
            _ => 0,
        };
        Ok((
            Engine {
                tman,
                src,
                db_path,
                wire,
                events,
                next_seq: 0,
                next_churn,
            },
            took,
        ))
    }
}

/// Token rates of the `wire_e2e` ladder, tokens/s. Calibrated on the seed
/// commit (see the README) so that the first step passes with a wide
/// margin and the last one fails. End-to-end numbers are taken at the
/// first: at the higher rates five busy threads share two cores and tail
/// latency stops repeating from run to run.
pub const WIRE_LADDER: [f64; 3] = [40_000.0, 160_000.0, 640_000.0];

/// The wire tier of a `wire_e2e` engine: the server in this process and
/// the two client connections, kept open across windows so the durable
/// subscription is the same one throughout.
pub struct WireSide {
    pub server: WireServer,
    pub feeder: RemoteDataSource,
    pub subscriber: RemoteSubscriber,
}

impl WireSide {
    fn start(tman: &Arc<TriggerMan>) -> Result<WireSide> {
        let server = WireServer::start(tman.clone(), "127.0.0.1:0")?;
        let client = RemoteClient::new(server.local_addr().to_string());
        Ok(WireSide {
            feeder: client.data_source(SOURCE)?,
            subscriber: client.subscribe(SUBSCRIBER, EVENT, 0)?,
            server,
        })
    }
}

/// One set-up engine.
pub struct Engine {
    pub tman: Arc<TriggerMan>,
    pub src: DataSourceId,
    pub db_path: Option<PathBuf>,
    pub wire: Option<WireSide>,
    /// The in-process subscription to [`EVENT`] (none beside a wire tier,
    /// where the subscriber connection receives instead).
    pub events: Option<Receiver<EventNotification>>,
    /// Sequence number of the next token; windows on one engine continue
    /// the same stream.
    pub next_seq: u64,
    /// Index of the next trigger `ddl_churn` creates.
    pub next_churn: u64,
}

impl Engine {
    /// Size of the store's page file. (The log file is truncated at every
    /// checkpoint; what was appended to it is the `wal_bytes` counter.)
    pub fn page_file_bytes(&self) -> u64 {
        self.db_path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    }

    /// Stop the wire tier and delete the store's files.
    pub fn tear_down(mut self) {
        if let Some(mut w) = self.wire.take() {
            let _ = w.feeder.close();
            let _ = w.subscriber.close();
            w.server.stop();
        }
        self.tman.shutdown();
        let path = self.db_path.take();
        drop(self);
        if let Some(p) = path {
            remove_db(&p);
        }
    }
}

fn wal_path(db: &Path) -> PathBuf {
    let mut s = db.as_os_str().to_owned();
    s.push(".wal");
    PathBuf::from(s)
}

fn remove_db(db: &Path) {
    let _ = std::fs::remove_file(db);
    let _ = std::fs::remove_file(wal_path(db));
}

/// Set the workload up `reps` times (more for a set-up so short that three
/// would be noise: until `min_total` has been spent, sixty-four at most),
/// tearing each engine down before the next. Returns the fastest set-up,
/// every sample, and the last engine. The fastest, because a set-up is the
/// same work every time and what the host's other tenants do only ever
/// adds to it: the median of a 6-ms set-up moved by 27 % between two sets
/// of ten runs an hour apart, the fastest by 10 %.
pub fn set_up_repeatedly(
    w: &Workload,
    dir: &Path,
    reps: usize,
    min_total: Duration,
) -> Result<(Engine, f64, Vec<f64>)> {
    let texts = w.create_texts();
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let (engine, took) = w.set_up(dir, &texts)?;
        samples.push(took.as_secs_f64());
        let enough =
            samples.len() >= reps && (started.elapsed() >= min_total || samples.len() >= 64);
        if enough {
            let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
            return Ok((engine, fastest, samples));
        }
        engine.tear_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Tok;
    use crate::spec;

    #[test]
    fn every_workload_in_the_spec_builds_and_no_other() {
        for w in spec::all_workloads() {
            let built = Workload::new(w.name, 1).unwrap_or_else(|| panic!("{}", w.name));
            assert_eq!(built.name, w.name);
            assert!(!built.conds.is_empty());
        }
        assert!(Workload::new("join_net", 1).is_none());
    }

    /// The closed-form reference against the program's own index: the
    /// entries `match_token_vec` returns for 1 000 random tokens, on a
    /// population with every condition form in it.
    #[test]
    fn reference_agrees_with_the_predicate_index() {
        let mut w = Workload::new("select_hot", 11).unwrap();
        let (mut conds, domain) = gen::selection_mix(1_500, 1, &mut Rng::new(11));
        conds.extend((0..100).map(|i| Cond::PriceAbove(i * 1_000)));
        w.reference = Reference::new(&conds);
        w.conds = conds;
        w.domain = domain;
        let dir = std::env::temp_dir();
        let (engine, _) = w.set_up(&dir, &w.create_texts()).unwrap();
        let mut fires = 0;
        for seq in 0..1_000 {
            let tok: Tok = w.domain.token(11, seq);
            let want = w.reference.expected(&tok);
            let got = engine
                .tman
                .predicate_index()
                .match_token_vec(&tok.descriptor(engine.src, seq))
                .unwrap();
            assert_eq!(got.len() as u32, want.entries, "token {tok:?}");
            fires += want.fires;
        }
        assert!(fires > 1_000, "{fires}");
        engine.tear_down();
    }
}
