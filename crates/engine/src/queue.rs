//! The update-descriptor queue (§3, Figure 1).
//!
//! Captured updates are parked here until a driver's `tman_test` call
//! consumes them. Two modes:
//!
//! * **Persistent** — the paper's "table acting as a queue", kept as a
//!   sequence-addressed record log ([`tman_storage::SeqLog`]) in the
//!   engine's store, so descriptors survive restarts (the paper's "safety
//!   of persistent update queuing"). A descriptor's qid *is* its log
//!   sequence number.
//! * **Volatile** — the planned "main-memory queue ... faster, but the
//!   safety ... will be lost": a lock-free in-memory queue.
//!
//! Telemetry: the queue owns a depth gauge, enqueue/dequeue counters, an
//! enqueue→dequeue wait-time histogram ([`QueueTelemetry`]), its corrupt
//! record and watermark-flush counters and, on the persistent backend, the
//! `tman_queue_watermark` level; [`UpdateQueue::attach_telemetry`]
//! registers them all. Wait time
//! is measured on the volatile backend by stamping each descriptor with its
//! enqueue instant (skipped entirely when no telemetry is attached). The
//! persistent backend prefixes each record with the enqueue wall-clock
//! time (8 bytes, UNIX-epoch nanoseconds, little-endian) so the wait
//! histogram survives the store round trip — and even a restart, since
//! wall-clock stamps stay meaningful across processes.
//!
//! # Crash tolerance
//!
//! Nothing is scanned and nothing is deleted. Consumers use
//! [`UpdateQueue::dequeue_tracked`], which advances an in-memory cursor
//! over the log and reads only the records it hands out, and
//! [`UpdateQueue::ack_batch`] after the rule actions have run. An ack only
//! folds into an in-memory set: it writes nothing and syncs nothing. The
//! *delivery watermark* — the highest qid with every descriptor at or
//! below it fully processed — is the log's truncation point, and it moves
//! at the next **durability barrier**: the next
//! [`enqueue_batch`](UpdateQueue::enqueue_batch) group commit, or
//! [`commit_acks`](UpdateQueue::commit_acks), which a driver calls before
//! it reports an empty queue and a checkpoint calls first. The barrier
//! reads the set's contiguous prefix, flushes every dirty page, and only
//! then writes the watermark into the log's meta page, so the store's log
//! holds whatever a fire appended (a delivery-log record, a window) ahead
//! of the ack that retires its token, and one fsync covers the lot.
//!
//! The watermark is the **only** durable ack state. After a crash every
//! record above it is redelivered: one acked above a gap the crash left
//! open, and one acked since the last barrier — at most one push's worth
//! under load, none once a driver has gone idle (at-least-once; each
//! record still at most once per restart). A record that fails validation
//! is classified as [`TmanError::Corrupt`], counted, skipped and acked
//! like a processed one instead of wedging the cursor.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use tman_common::stats::Counter;
use tman_common::{Result, TmanError, UpdateDescriptor};
use tman_sql::Database;
use tman_storage::{BufferPool, SeqLog};
use tman_sync::Mutex;
use tman_sync::SegQueue;
use tman_telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Registry};

/// Name of the persistent queue. Its log is the store object
/// `log_update_queue`; a store from before the log kept a table of this
/// name instead, which [`UpdateQueue::persistent`] refuses to open.
pub const QUEUE_TABLE: &str = "update_queue";

/// Bytes of enqueue stamp in front of each persistent record.
const STAMP: usize = 8;

/// Wall-clock now in UNIX-epoch nanoseconds (persistent-queue wait stamps).
fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Pre-resolved queue instruments.
#[derive(Clone, Default)]
pub struct QueueTelemetry {
    /// `tman_queue_depth`: descriptors currently queued.
    pub depth: GaugeHandle,
    /// `tman_queue_enqueued_total`.
    pub enqueued: CounterHandle,
    /// `tman_queue_dequeued_total`.
    pub dequeued: CounterHandle,
    /// `tman_queue_wait_ns`: enqueue→dequeue latency (volatile mode).
    pub wait_ns: HistogramHandle,
}

impl QueueTelemetry {
    /// Resolve the queue instrument family from a registry.
    pub fn from_registry(registry: &Registry) -> QueueTelemetry {
        QueueTelemetry {
            depth: registry.gauge("tman_queue_depth", &[]),
            enqueued: registry.counter("tman_queue_enqueued_total", &[]),
            dequeued: registry.counter("tman_queue_dequeued_total", &[]),
            wait_ns: registry.histogram("tman_queue_wait_ns", &[]),
        }
    }
}

/// Consumer-side state of the persistent backend, under one lock so two
/// tracked dequeues cannot hand out the same record.
struct Consumer {
    /// Qid the next dequeue starts at. Everything between the log's
    /// watermark and the cursor has been handed out and not yet covered.
    cursor: u64,
    /// Acked qids above the watermark, waiting for the prefix to close.
    acked: BTreeSet<u64>,
}

#[allow(clippy::large_enum_variant)] // one queue per engine; size is moot
enum Backend {
    Volatile(SegQueue<(Option<Instant>, UpdateDescriptor)>),
    Persistent {
        /// `Arc` so the registry's `tman_queue_watermark` read can hold it.
        log: Arc<SeqLog>,
        consumer: Mutex<Consumer>,
        /// Buffer pool backing the log, for the durability barriers of
        /// [`UpdateQueue::enqueue_batch`] and [`UpdateQueue::commit_acks`].
        pool: Arc<BufferPool>,
    },
}

/// A descriptor handed out by [`UpdateQueue::dequeue_tracked`]: the token
/// plus the persistent sequence number to pass to
/// [`UpdateQueue::ack_batch`] once its rule actions have completed (`None`
/// on the volatile backend, where delivery is not tracked).
#[derive(Debug)]
pub struct QueueItem {
    /// Persistent sequence number (qid), if tracked.
    pub seq: Option<i64>,
    /// The captured update.
    pub token: UpdateDescriptor,
}

/// FIFO of update descriptors awaiting processing.
pub struct UpdateQueue {
    backend: Backend,
    telemetry: QueueTelemetry,
    /// Records that failed descriptor validation (skipped, watermarked).
    corrupt_rows: Arc<Counter>,
    /// Barriers that moved the watermark — at most one per group commit,
    /// however many batches were acked in between.
    wm_flushes: Arc<Counter>,
}

impl UpdateQueue {
    fn with_backend(backend: Backend) -> UpdateQueue {
        UpdateQueue {
            backend,
            telemetry: QueueTelemetry::default(),
            corrupt_rows: Arc::new(Counter::default()),
            wm_flushes: Arc::new(Counter::default()),
        }
    }

    /// In-memory queue.
    pub fn volatile() -> UpdateQueue {
        Self::with_backend(Backend::Volatile(SegQueue::new()))
    }

    /// Log-backed queue; creates (or reopens) the queue's log in `db`'s
    /// store and resumes delivery just above the durable watermark.
    pub fn persistent(db: &Database) -> Result<UpdateQueue> {
        if db.has_table(QUEUE_TABLE) {
            return Err(TmanError::Storage(format!(
                "this store keeps its update queue in a '{QUEUE_TABLE}' table, \
                 a format this build no longer reads"
            )));
        }
        let storage = db.storage();
        let name = format!("log_{QUEUE_TABLE}");
        let log = if storage.dir().exists(&name)? {
            storage.open_seqlog(&name)?
        } else {
            storage.create_seqlog(&name)?
        };
        let consumer = Consumer {
            cursor: log.watermark() + 1,
            acked: BTreeSet::new(),
        };
        Ok(Self::with_backend(Backend::Persistent {
            log: Arc::new(log),
            consumer: Mutex::new(consumer),
            pool: storage.pool().clone(),
        }))
    }

    /// The delivery watermark (`None` on the volatile backend): every qid
    /// at or below it has been fully processed and, once the barrier that
    /// moved it has synced, will not be delivered again, whatever happens.
    /// Acks since the last barrier are not in it yet.
    pub fn watermark(&self) -> Option<i64> {
        match &self.backend {
            Backend::Volatile(_) => None,
            Backend::Persistent { log, .. } => Some(log.watermark() as i64),
        }
    }

    /// Records that failed validation at dequeue (skipped, watermarked).
    pub fn corrupt_rows(&self) -> &Arc<Counter> {
        &self.corrupt_rows
    }

    /// Barriers that moved the watermark.
    pub fn wm_flushes(&self) -> &Arc<Counter> {
        &self.wm_flushes
    }

    /// Register the queue's series in `registry` and record through them.
    /// Initializes the depth gauge from the current length, so a
    /// persistent queue recovered with records already in it reports them.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        let telemetry = QueueTelemetry::from_registry(registry);
        telemetry.depth.add(self.len() as i64);
        self.telemetry = telemetry;
        registry.register_counter(
            "tman_queue_corrupt_rows_total",
            &[],
            self.corrupt_rows.clone(),
        );
        // Barriers that moved the watermark: acks only record, so this is
        // at most one per group commit (a push, an idle driver's barrier,
        // a checkpoint), not one per drained batch.
        registry.register_counter("tman_queue_wm_flushes_total", &[], self.wm_flushes.clone());
        if let Backend::Persistent { log, .. } = &self.backend {
            let log = log.clone();
            registry.register_gauge_fn("tman_queue_watermark", &[], move || log.watermark() as i64);
        }
    }

    /// The instruments the queue records through.
    pub(crate) fn telemetry(&self) -> &QueueTelemetry {
        &self.telemetry
    }

    fn volatile_stamp(&self) -> Option<Instant> {
        self.telemetry.wait_ns.is_enabled().then(Instant::now)
    }

    /// Append `batch` to the log, each record as `stamp u64 | descriptor`.
    /// Stamps unconditionally: the record format must not depend on
    /// whether telemetry happens to be attached. Returns the last qid.
    fn append_all(log: &SeqLog, batch: &[UpdateDescriptor]) -> Result<Option<i64>> {
        let stamp = unix_now_ns().to_le_bytes();
        let mut rec = Vec::with_capacity(128);
        let mut last = None;
        for d in batch {
            rec.clear();
            rec.extend_from_slice(&stamp);
            d.encode_into(&mut rec);
            last = Some(log.append(&rec)? as i64);
        }
        Ok(last)
    }

    /// Append a descriptor.
    pub fn enqueue(&self, d: UpdateDescriptor) -> Result<()> {
        match &self.backend {
            Backend::Volatile(q) => q.push((self.volatile_stamp(), d)),
            Backend::Persistent { log, .. } => {
                Self::append_all(log, std::slice::from_ref(&d))?;
            }
        }
        self.telemetry.enqueued.bump();
        self.telemetry.depth.inc();
        Ok(())
    }

    /// Append a batch of descriptors under one durability barrier (group
    /// commit, §3's "safety of persistent update queuing" at wire-tier
    /// rates). On the persistent backend every record is appended first,
    /// the acks recorded since the last barrier move the watermark, and a
    /// single [`BufferPool::sync`] makes the batch and the acks durable —
    /// one fsync amortized over `batch.len()` descriptors and every drain
    /// since the last push, where per-token [`enqueue`](Self::enqueue)
    /// relies on the next checkpoint instead.
    /// On a WAL-backed store that barrier is a log group commit: dirty
    /// pages become redo records, one `fsync` of the log covers the batch,
    /// and concurrent `enqueue_batch` callers share the same fsync (the
    /// WAL's committer/piggybacker protocol), so syncs stay ≪ tokens even
    /// with many wire connections committing at once.
    /// Returns the persistent qid of the *last* descriptor in the batch
    /// (`None` for an empty batch or the volatile backend).
    pub fn enqueue_batch(&self, batch: &[UpdateDescriptor]) -> Result<Option<i64>> {
        if batch.is_empty() {
            return Ok(None);
        }
        let last = match &self.backend {
            Backend::Volatile(q) => {
                let stamp = self.volatile_stamp();
                for d in batch {
                    q.push((stamp, d.clone()));
                }
                None
            }
            Backend::Persistent {
                log,
                consumer,
                pool,
            } => {
                let last = Self::append_all(log, batch)?;
                self.apply_acks(log, consumer, pool)?;
                pool.sync()?;
                last
            }
        };
        self.telemetry.enqueued.add(batch.len() as u64);
        self.telemetry.depth.add(batch.len() as i64);
        Ok(last)
    }

    /// Return up to `max` descriptors in FIFO order, advancing the cursor
    /// past them; their records stay in the log. Each item carries its
    /// sequence number; the caller must pass it to
    /// [`ack_batch`](Self::ack_batch) after the descriptor has been fully
    /// processed, at which point the delivery watermark may advance.
    /// Un-acked items are redelivered after a restart (at-least-once).
    /// Records that fail validation are counted in `corrupt_rows`, skipped
    /// and acked on the spot — they never abort the batch.
    pub fn dequeue_tracked(&self, max: usize) -> Result<Vec<QueueItem>> {
        match &self.backend {
            Backend::Volatile(q) => {
                let mut out = Vec::new();
                while out.len() < max {
                    match q.pop() {
                        Some((stamp, d)) => {
                            if let Some(t0) = stamp {
                                self.telemetry
                                    .wait_ns
                                    .record(t0.elapsed().as_nanos() as u64);
                            }
                            out.push(QueueItem {
                                seq: None,
                                token: d,
                            });
                        }
                        None => break,
                    }
                }
                // The pop is the removal: account for it here.
                self.telemetry.dequeued.add(out.len() as u64);
                self.telemetry.depth.add(-(out.len() as i64));
                Ok(out)
            }
            Backend::Persistent { log, consumer, .. } => {
                let mut c = consumer.lock();
                let now = unix_now_ns();
                let pending = log.next_seq().saturating_sub(c.cursor);
                let mut out = Vec::with_capacity(pending.min(max as u64) as usize);
                let mut corrupt = Vec::new();
                c.cursor = log.read_from(c.cursor, max, |seq, rec| {
                    let decoded = rec.split_first_chunk::<STAMP>().and_then(|(stamp, body)| {
                        let token = UpdateDescriptor::decode(body).ok()?;
                        Some((u64::from_le_bytes(*stamp), token))
                    });
                    match decoded {
                        Some((stamp, token)) => {
                            self.telemetry.wait_ns.record(now.saturating_sub(stamp));
                            out.push(QueueItem {
                                seq: Some(seq as i64),
                                token,
                            });
                        }
                        None => corrupt.push(seq),
                    }
                })?;
                if !corrupt.is_empty() {
                    // Damaged records deliver nothing; ack them so the
                    // watermark can pass.
                    self.corrupt_rows.add(corrupt.len() as u64);
                    self.telemetry.depth.add(-(corrupt.len() as i64));
                    c.acked.extend(corrupt);
                }
                Ok(out)
            }
        }
    }

    /// Move the log's watermark over the contiguous acked prefix, ahead of
    /// a sync. The prefix is read *before* the flush: every page a fire
    /// dirtied before its token was acked is dirty (or already in the
    /// store's log) by then, so the flush puts it in the log ahead of the
    /// meta page that [`SeqLog::truncate_through`] writes through. Returns
    /// whether the watermark moved.
    fn apply_acks(
        &self,
        log: &SeqLog,
        consumer: &Mutex<Consumer>,
        pool: &BufferPool,
    ) -> Result<bool> {
        let wm = {
            let c = consumer.lock();
            let mut wm = log.watermark();
            while c.acked.contains(&(wm + 1)) {
                wm += 1;
            }
            wm
        };
        if wm <= log.watermark() {
            return Ok(false);
        }
        pool.flush_dirty()?;
        log.truncate_through(wm)?;
        let mut c = consumer.lock();
        c.acked = c.acked.split_off(&(wm + 1));
        self.wm_flushes.bump();
        Ok(true)
    }

    /// The durability barrier for acks alone: move the watermark over
    /// every ack recorded so far and sync, if it moves; free otherwise. A
    /// driver calls it before reporting an empty queue, so an idle
    /// engine's acks are durable. A no-op on the volatile backend.
    pub fn commit_acks(&self) -> Result<()> {
        if let Backend::Persistent {
            log,
            consumer,
            pool,
        } = &self.backend
        {
            if self.apply_acks(log, consumer, pool)? {
                pool.sync()?;
            }
        }
        Ok(())
    }

    /// Acknowledge a drained batch: every seq is folded into the acked set
    /// under one lock, and nothing else — no page is written and nothing
    /// syncs. The next durability barrier (the next
    /// [`enqueue_batch`](Self::enqueue_batch), or
    /// [`commit_acks`](Self::commit_acks)) moves the watermark over the
    /// set's contiguous prefix and makes it durable.
    ///
    /// Seqs not handed out, already covered by the watermark or already
    /// acked are skipped (idempotent). Returns the number of seqs newly
    /// acknowledged; a no-op returning 0 on the volatile backend.
    pub fn ack_batch(&self, seqs: &[i64]) -> Result<usize> {
        let Backend::Persistent { log, consumer, .. } = &self.backend else {
            return Ok(0);
        };
        let mut c = consumer.lock();
        let handed_out = log.watermark() + 1..c.cursor;
        let mut acked = 0usize;
        for seq in seqs.iter().filter_map(|s| u64::try_from(*s).ok()) {
            if handed_out.contains(&seq) && c.acked.insert(seq) {
                acked += 1;
            }
        }
        self.telemetry.dequeued.add(acked as u64);
        self.telemetry.depth.add(-(acked as i64));
        Ok(acked)
    }

    /// Remove and return up to `max` descriptors in FIFO order, acking
    /// them immediately and committing the acks (no redelivery tracking).
    #[cfg(test)]
    fn dequeue_batch(&self, max: usize) -> Result<Vec<UpdateDescriptor>> {
        let items = self.dequeue_tracked(max)?;
        let seqs: Vec<i64> = items.iter().filter_map(|it| it.seq).collect();
        self.ack_batch(&seqs)?;
        self.commit_acks()?;
        Ok(items.into_iter().map(|it| it.token).collect())
    }

    /// Number of queued descriptors not yet handed out.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Volatile(q) => q.len(),
            Backend::Persistent { log, consumer, .. } => {
                let cursor = consumer.lock().cursor;
                log.next_seq().saturating_sub(cursor) as usize
            }
        }
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_common::{DataSourceId, Tuple, Value};

    fn tok(i: i64) -> UpdateDescriptor {
        UpdateDescriptor::insert(DataSourceId(1), Tuple::new(vec![Value::Int(i)]))
    }

    fn log_of(q: &UpdateQueue) -> &SeqLog {
        match &q.backend {
            Backend::Persistent { log, .. } => log,
            Backend::Volatile(_) => panic!("volatile queue has no log"),
        }
    }

    /// Pages fetched from the pool so far, resident or not.
    fn fetches(db: &Database) -> u64 {
        let s = db.storage().pool().stats();
        s.pool_hits.get() + s.pool_misses.get()
    }

    #[test]
    fn volatile_fifo() {
        let q = UpdateQueue::volatile();
        for i in 0..5 {
            q.enqueue(tok(i)).unwrap();
        }
        assert_eq!(q.len(), 5);
        let batch = q.dequeue_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], tok(0));
        assert_eq!(q.dequeue_batch(10).unwrap().len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn persistent_fifo_and_recovery() {
        let db = Database::open_memory(128);
        {
            let q = UpdateQueue::persistent(&db).unwrap();
            for i in 0..4 {
                q.enqueue(tok(i)).unwrap();
            }
            let batch = q.dequeue_batch(2).unwrap();
            assert_eq!(batch, vec![tok(0), tok(1)]);
        }
        // "Restart": reopen over the same database — 2 descriptors remain,
        // and new qids don't collide.
        let q2 = UpdateQueue::persistent(&db).unwrap();
        assert_eq!(q2.len(), 2);
        q2.enqueue(tok(9)).unwrap();
        let batch = q2.dequeue_batch(10).unwrap();
        assert_eq!(batch, vec![tok(2), tok(3), tok(9)]);
    }

    #[test]
    fn telemetry_tracks_depth_throughput_and_wait() {
        let registry = Registry::new();
        let mut q = UpdateQueue::volatile();
        q.attach_telemetry(&registry);
        let t = QueueTelemetry::from_registry(&registry); // same series
        for i in 0..3 {
            q.enqueue(tok(i)).unwrap();
        }
        assert_eq!(t.depth.get(), 3);
        assert_eq!(t.enqueued.get(), 3);
        q.dequeue_batch(2).unwrap();
        assert_eq!(t.depth.get(), 1);
        assert_eq!(t.dequeued.get(), 2);
        assert_eq!(t.wait_ns.summary().count, 2);
        q.dequeue_batch(10).unwrap();
        assert_eq!(t.depth.get(), 0);
    }

    #[test]
    fn persistent_wait_histogram_is_populated() {
        let registry = Registry::new();
        let db = Database::open_memory(128);
        let mut q = UpdateQueue::persistent(&db).unwrap();
        q.attach_telemetry(&registry);
        let t = QueueTelemetry::from_registry(&registry);
        q.enqueue(tok(1)).unwrap();
        q.enqueue(tok(2)).unwrap();
        let batch = q.dequeue_batch(10).unwrap();
        assert_eq!(batch, vec![tok(1), tok(2)]);
        // The wall-clock stamp in the record survives the store round
        // trip, so persistent mode populates the wait histogram too.
        assert_eq!(t.wait_ns.summary().count, 2);
    }

    #[test]
    fn corrupt_records_are_skipped_not_fatal() {
        let db = Database::open_memory(128);
        let q = UpdateQueue::persistent(&db).unwrap();
        q.enqueue(tok(1)).unwrap();
        // Hand-plant damaged records between two good ones: a stamped but
        // truncated descriptor, and one too short to hold even the stamp.
        let mut truncated = 0u64.to_le_bytes().to_vec();
        truncated.extend_from_slice(&tok(2).encode()[..3]);
        log_of(&q).append(&truncated).unwrap();
        log_of(&q).append(b"zz").unwrap();
        q.enqueue(tok(4)).unwrap();
        // Both damaged records are consumed and counted; the good ones
        // come through and the batch never errors.
        let batch = q.dequeue_batch(10).unwrap();
        assert_eq!(batch, vec![tok(1), tok(4)]);
        assert_eq!(q.corrupt_rows().get(), 2);
        assert!(q.is_empty());
        // The watermark covered the damaged qids too, so nothing about
        // them survives a reopen.
        assert_eq!(q.watermark(), Some(4));
        let q2 = UpdateQueue::persistent(&db).unwrap();
        assert!(q2.is_empty());
        assert_eq!(q2.dequeue_batch(10).unwrap(), vec![]);
    }

    #[test]
    fn corrupt_record_at_the_head_does_not_wedge_the_cursor() {
        let db = Database::open_memory(128);
        let q = UpdateQueue::persistent(&db).unwrap();
        log_of(&q)
            .append(b"garbage, and no good record behind it")
            .unwrap();
        // Nothing to deliver, nothing left to do: the record is counted,
        // the cursor is past it, and so is the watermark at the barrier.
        assert!(q.dequeue_tracked(10).unwrap().is_empty());
        assert_eq!(q.corrupt_rows().get(), 1);
        assert_eq!(q.watermark(), Some(0));
        q.commit_acks().unwrap();
        assert_eq!(q.watermark(), Some(1));
        assert!(q.is_empty());
        q.enqueue(tok(2)).unwrap();
        assert_eq!(q.dequeue_batch(10).unwrap(), vec![tok(2)]);
        assert_eq!(q.watermark(), Some(2));
    }

    #[test]
    fn tracked_dequeue_redelivers_unacked_items() {
        let db = Database::open_memory(128);
        let q = UpdateQueue::persistent(&db).unwrap();
        for i in 0..3 {
            q.enqueue(tok(i)).unwrap();
        }
        let items = q.dequeue_tracked(2).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].seq, Some(1));
        // Records behind the cursor are not handed out twice.
        let more = q.dequeue_tracked(10).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].token, tok(2));
        // Ack only the first; the others stay above the watermark.
        assert_eq!(q.ack_batch(&[1]).unwrap(), 1);
        assert_eq!(q.ack_batch(&[1]).unwrap(), 0); // idempotent
        q.commit_acks().unwrap();
        assert_eq!(q.watermark(), Some(1));
        // "Crash" without acking the rest: a fresh queue over the same
        // database redelivers exactly the unacked descriptors.
        let q2 = UpdateQueue::persistent(&db).unwrap();
        assert_eq!(q2.watermark(), Some(1));
        assert_eq!(q2.dequeue_batch(10).unwrap(), vec![tok(1), tok(2)]);
    }

    #[test]
    fn ack_batch_pays_one_barrier_per_batch() {
        let db = Database::open_memory(128);
        let syncs = db.storage().pool().disk().stats().syncs.clone();
        let q = UpdateQueue::persistent(&db).unwrap();
        for i in 0..8 {
            q.enqueue(tok(i)).unwrap();
        }
        let before = syncs.get();
        // Two drained batches: their acks write nothing and sync nothing.
        for _ in 0..2 {
            let items = q.dequeue_tracked(4).unwrap();
            let seqs: Vec<i64> = items.iter().map(|it| it.seq.unwrap()).collect();
            assert_eq!(q.ack_batch(&seqs).unwrap(), 4);
            // Idempotent: re-acking (or acking unknown seqs) is a no-op.
            assert_eq!(q.ack_batch(&seqs).unwrap(), 0);
        }
        assert_eq!(q.ack_batch(&[999]).unwrap(), 0);
        assert_eq!(q.ack_batch(&[]).unwrap(), 0);
        assert_eq!(syncs.get(), before);
        assert_eq!(q.wm_flushes().get(), 0);
        assert_eq!(q.watermark(), Some(0));
        assert!(q.is_empty());
        // The next push's group commit is the one barrier, for its records
        // and for both batches' acks.
        q.enqueue_batch(&[tok(8), tok(9)]).unwrap();
        assert_eq!(syncs.get(), before + 1);
        assert_eq!(q.wm_flushes().get(), 1);
        assert_eq!(q.watermark(), Some(8));
        // A barrier with no new ack leaves the watermark alone, and an ack
        // barrier with nothing to move is free.
        q.enqueue_batch(&[tok(10)]).unwrap();
        assert_eq!(syncs.get(), before + 2);
        assert_eq!(q.wm_flushes().get(), 1);
        q.commit_acks().unwrap();
        assert_eq!(syncs.get(), before + 2);
    }

    #[test]
    fn ack_batch_gap_holds_watermark_then_closes() {
        let db = Database::open_memory(128);
        let q = UpdateQueue::persistent(&db).unwrap();
        for i in 0..4 {
            q.enqueue(tok(i)).unwrap();
        }
        let items = q.dequeue_tracked(4).unwrap();
        assert_eq!(items.len(), 4);
        // Ack 1, 3, 4 but not 2: the barrier stops the watermark at the gap.
        q.ack_batch(&[1, 3, 4]).unwrap();
        q.commit_acks().unwrap();
        assert_eq!(q.watermark(), Some(1));
        // Closing the gap advances over the out-of-order acks in one step,
        // at the next barrier.
        q.ack_batch(&[2]).unwrap();
        assert_eq!(q.watermark(), Some(1));
        q.commit_acks().unwrap();
        assert_eq!(q.watermark(), Some(4));
        assert_eq!(q.wm_flushes().get(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn ack_batch_crash_mid_gap_redelivers_everything_above_the_gap() {
        let db = Database::open_memory(128);
        {
            let q = UpdateQueue::persistent(&db).unwrap();
            for i in 0..4 {
                q.enqueue(tok(i)).unwrap();
            }
            q.dequeue_tracked(4).unwrap();
            q.ack_batch(&[1, 3, 4]).unwrap();
            q.commit_acks().unwrap();
        }
        // "Crash" without acking 2. The watermark is the only durable ack
        // state, so the acks of 3 and 4 died with the process: the
        // reopened queue redelivers everything above the gap, in order,
        // once.
        let q2 = UpdateQueue::persistent(&db).unwrap();
        assert_eq!(q2.watermark(), Some(1));
        assert_eq!(q2.len(), 3);
        assert_eq!(q2.dequeue_batch(10).unwrap(), vec![tok(1), tok(2), tok(3)]);
        assert!(q2.is_empty());
        assert_eq!(q2.watermark(), Some(4));
    }

    /// Acked, and no barrier since: a crash redelivers those tokens, each
    /// exactly once, and then they are gone.
    #[test]
    fn acks_since_the_last_barrier_are_redelivered_once() {
        let db = Database::open_memory(128);
        {
            let q = UpdateQueue::persistent(&db).unwrap();
            q.enqueue_batch(&(0..6).map(tok).collect::<Vec<_>>())
                .unwrap();
            assert_eq!(q.dequeue_batch(2).unwrap(), vec![tok(0), tok(1)]);
            let items = q.dequeue_tracked(4).unwrap();
            let seqs: Vec<i64> = items.iter().map(|it| it.seq.unwrap()).collect();
            assert_eq!(q.ack_batch(&seqs).unwrap(), 4);
            assert!(q.is_empty());
        }
        let q2 = UpdateQueue::persistent(&db).unwrap();
        assert_eq!(q2.watermark(), Some(2));
        assert_eq!(
            q2.dequeue_batch(10).unwrap(),
            (2..6).map(tok).collect::<Vec<_>>()
        );
        let q3 = UpdateQueue::persistent(&db).unwrap();
        assert!(q3.is_empty());
        assert_eq!(q3.dequeue_batch(10).unwrap(), vec![]);
    }

    /// A fresh file store's page file and log paths.
    fn store_files(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tman_queue_{tag}_{}.db", std::process::id()));
        let wal = dir.join(format!("tman_queue_{tag}_{}.db.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
        (path, wal)
    }

    /// `(pid, payload)` of every frame in the store's log from byte
    /// `from` on, in log order. Frame layout: `len u32 | body | crc u64`,
    /// body `kind u8 | pid u32 | seq u64 | payload`.
    fn log_frames(wal: &std::path::Path, from: u64) -> Vec<(u32, Vec<u8>)> {
        let bytes = std::fs::read(wal).unwrap();
        let mut off = from as usize;
        let mut out = Vec::new();
        while off + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            if len < 13 || off + 4 + len + 8 > bytes.len() {
                break;
            }
            let body = &bytes[off + 4..off + 4 + len];
            out.push((
                u32::from_le_bytes(body[1..5].try_into().unwrap()),
                body[13..].to_vec(),
            ));
            off += 4 + len + 8;
        }
        out
    }

    /// What a fire of token `qid` writes to the stand-in delivery log.
    fn fire(qid: u64) -> Vec<u8> {
        format!("fire of qid {qid}").into_bytes()
    }

    /// The barrier puts a page a fire dirtied before its token was acked
    /// into the store's log ahead of the queue's meta page that retires
    /// the token. So every commit point of the log — whichever thread's
    /// commit frame lands there — that holds the watermark holds the fire.
    #[test]
    fn a_barrier_logs_what_a_fire_wrote_ahead_of_the_ack() {
        let (path, wal) = store_files("order");
        {
            let db = Database::open_file(&path, 128).unwrap();
            let q = UpdateQueue::persistent(&db).unwrap();
            let fired = db.storage().create_seqlog("log_fired").unwrap();
            q.enqueue_batch(&[tok(1)]).unwrap();
            let seq = q.dequeue_tracked(1).unwrap()[0].seq.unwrap();
            fired.append(&fire(seq as u64)).unwrap();
            // The log's header is 32 bytes.
            let from = 32 + db.storage().pool().wal().unwrap().bytes();
            q.ack_batch(&[seq]).unwrap();
            q.commit_acks().unwrap();
            assert_eq!(q.watermark(), Some(seq));
            let frames = log_frames(&wal, from);
            let meta = log_of(&q).meta_page().0;
            let fire_at = frames
                .iter()
                .position(|(_, payload)| payload.windows(12).any(|w| w == &fire(1)[..12]));
            let ack_at = frames.iter().position(|(pid, _)| *pid == meta);
            let (fire_at, ack_at) = (fire_at.expect("fire logged"), ack_at.expect("ack logged"));
            assert!(fire_at < ack_at, "ack at frame {ack_at}, fire at {fire_at}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
    }

    /// Crash at every write of (dirty a page → ack → barrier → next push):
    /// after every reopen, each token under the watermark has its fire.
    #[test]
    fn a_crash_anywhere_around_the_barrier_keeps_every_acked_fire() {
        use tman_storage::{FaultConfig, FaultPlan};
        let mut advanced = 0;
        for crash_at in 1..=7u64 {
            let (path, wal) = store_files(&format!("sweep{crash_at}"));
            let plan = FaultPlan::new(FaultConfig {
                seed: crash_at,
                crash_after_writes: Some(crash_at),
                ..Default::default()
            });
            {
                let db = Database::open_file_with(&path, 128, Some(plan.clone())).unwrap();
                let q = UpdateQueue::persistent(&db).unwrap();
                let fired = db.storage().create_seqlog("log_fired").unwrap();
                q.enqueue_batch(&(0..4).map(tok).collect::<Vec<_>>())
                    .unwrap();
                plan.arm();
                let items = q.dequeue_tracked(4).unwrap();
                let seqs: Vec<i64> = items.iter().map(|it| it.seq.unwrap()).collect();
                for &seq in &seqs {
                    fired.append(&fire(seq as u64)).unwrap();
                }
                q.ack_batch(&seqs).unwrap();
                let _ = q.commit_acks();
                let _ = q.enqueue_batch(&[tok(9)]);
                assert!(plan.crashed(), "crash point {crash_at} never reached");
            }
            plan.reset_crash();
            plan.disarm();
            let db = Database::open_file(&path, 128).unwrap();
            let q = UpdateQueue::persistent(&db).unwrap();
            let fired = db.storage().open_seqlog("log_fired").unwrap();
            let mut logged = Vec::new();
            fired
                .read_from(1, usize::MAX, |_, r| logged.push(r.to_vec()))
                .unwrap();
            let wm = q.watermark().unwrap() as u64;
            for qid in 1..=wm {
                assert!(
                    logged.contains(&fire(qid)),
                    "crash point {crash_at}: qid {qid} under the watermark {wm}, its fire lost"
                );
            }
            advanced += usize::from(wm > 0);
            drop((q, fired, db));
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&wal);
        }
        // The sweep reaches both sides of the barrier's commit.
        assert!(
            (1..7).contains(&advanced),
            "{advanced} of 7 crash points advanced"
        );
    }

    #[test]
    fn ack_batch_volatile_is_noop() {
        let q = UpdateQueue::volatile();
        q.enqueue(tok(1)).unwrap();
        assert_eq!(q.ack_batch(&[1, 2, 3]).unwrap(), 0);
        assert_eq!(q.wm_flushes().get(), 0);
    }

    #[test]
    fn a_store_with_a_queue_table_is_refused_by_name() {
        use tman_common::{Column, DataType, Schema};
        let db = Database::open_memory(128);
        let schema = Schema::new(vec![Column::new("qid", DataType::Int)]).unwrap();
        db.create_table(QUEUE_TABLE, schema).unwrap();
        match UpdateQueue::persistent(&db) {
            Err(TmanError::Storage(msg)) => assert!(msg.contains("'update_queue'"), "{msg}"),
            Err(e) => panic!("wrong error class: {e}"),
            Ok(_) => panic!("queued rows in the old table would be silently ignored"),
        }
    }

    #[test]
    fn a_tuple_larger_than_a_page_round_trips() {
        let db = Database::open_memory(128);
        let q = UpdateQueue::persistent(&db).unwrap();
        let big = UpdateDescriptor::insert(
            DataSourceId(1),
            Tuple::new(vec![Value::Int(7), Value::str("x".repeat(10 * 1024))]),
        );
        q.enqueue_batch(&[tok(1), big.clone(), tok(3)]).unwrap();
        // Across a reopen too: the record spans three pages of the log.
        let q2 = UpdateQueue::persistent(&db).unwrap();
        assert_eq!(q2.dequeue_batch(10).unwrap(), vec![tok(1), big, tok(3)]);
        assert_eq!(q2.watermark(), Some(3));
    }

    /// The cost of a dequeue and the size of the store depend on the
    /// backlog, not on how many tokens the store has ever held.
    #[test]
    fn cost_and_size_are_independent_of_history() {
        const BACKLOG: i64 = 4_096;
        /// Push 256, drain 256 in four acked batches of 64.
        fn cycle(q: &UpdateQueue, next: &mut i64) {
            let batch: Vec<UpdateDescriptor> = (*next..*next + 256).map(tok).collect();
            q.enqueue_batch(&batch).unwrap();
            *next += 256;
            for _ in 0..4 {
                let items = q.dequeue_tracked(64).unwrap();
                assert_eq!(items.len(), 64);
                let seqs: Vec<i64> = items.iter().filter_map(|it| it.seq).collect();
                assert_eq!(q.ack_batch(&seqs).unwrap(), 64);
            }
        }
        let fill = |q: &UpdateQueue| {
            let backlog: Vec<UpdateDescriptor> = (0..BACKLOG).map(tok).collect();
            q.enqueue_batch(&backlog).unwrap();
        };
        // Worst of eight 64-token dequeues, so that where a batch happens
        // to straddle a page boundary does not decide the comparison.
        let dequeue_fetches = |db: &Database, q: &UpdateQueue| {
            let worst = (0..8).map(|_| {
                let before = fetches(db);
                assert_eq!(q.dequeue_tracked(64).unwrap().len(), 64);
                fetches(db) - before
            });
            worst.max().expect("eight dequeues")
        };

        let fresh_db = Database::open_memory(256);
        let fresh = UpdateQueue::persistent(&fresh_db).unwrap();
        fill(&fresh);
        let fresh_fetches = dequeue_fetches(&fresh_db, &fresh);

        let db = Database::open_memory(256);
        let q = UpdateQueue::persistent(&db).unwrap();
        fill(&q);
        let mut next = BACKLOG;
        while next < BACKLOG + 10_000 {
            cycle(&q, &mut next);
        }
        let pages_early = db.storage().pool().disk().num_pages();
        while next < BACKLOG + 300_000 {
            cycle(&q, &mut next);
        }
        assert_eq!(q.len(), BACKLOG as usize);
        assert_eq!(db.storage().pool().disk().num_pages(), pages_early);
        assert!(dequeue_fetches(&db, &q) <= fresh_fetches);
        // And it is the batch's own pages that a dequeue fetches: 64 small
        // tokens lie on one or two.
        assert!(fresh_fetches <= 2, "{fresh_fetches} pages for 64 tokens");
    }

    #[test]
    fn enqueue_batch_pays_one_sync_per_batch() {
        let db = Database::open_memory(128);
        // Memory stores carry no WAL, so the barrier is a plain disk sync.
        let syncs = db.storage().pool().disk().stats().syncs.clone();
        let q = UpdateQueue::persistent(&db).unwrap();
        let before = syncs.get();
        let batch: Vec<UpdateDescriptor> = (0..32).map(tok).collect();
        let last = q.enqueue_batch(&batch).unwrap();
        // 32 descriptors, exactly one durability barrier.
        assert_eq!(syncs.get(), before + 1);
        assert_eq!(last, Some(32));
        assert_eq!(q.len(), 32);
        // Per-token enqueue never syncs (checkpoint-based durability).
        q.enqueue(tok(99)).unwrap();
        assert_eq!(syncs.get(), before + 1);
        // Empty batches are free.
        assert_eq!(q.enqueue_batch(&[]).unwrap(), None);
        assert_eq!(syncs.get(), before + 1);
        // FIFO order is preserved across the batch boundary.
        let out = q.dequeue_batch(64).unwrap();
        assert_eq!(out.len(), 33);
        assert_eq!(out[0], tok(0));
        assert_eq!(out[32], tok(99));
    }

    #[test]
    fn enqueue_batch_group_commits_through_the_wal() {
        let (path, wal) = store_files("gc");
        {
            let db = Database::open_file(&path, 128).unwrap();
            let pool = db.storage().pool();
            let ws = pool.wal().expect("file store is WAL-backed").stats();
            let q = UpdateQueue::persistent(&db).unwrap();
            let (fsyncs0, page_syncs0) = (ws.fsyncs.get(), pool.disk().stats().syncs.get());
            let batch: Vec<UpdateDescriptor> = (0..32).map(tok).collect();
            q.enqueue_batch(&batch).unwrap();
            // The whole batch rides one log fsync; the page file is not
            // touched until a checkpoint (the WAL write ordering invariant).
            assert_eq!(ws.fsyncs.get(), fsyncs0 + 1);
            assert_eq!(pool.disk().stats().syncs.get(), page_syncs0);
            assert_eq!(q.len(), 32);
        }
        // Crash here (no checkpoint): replay must restore the batch.
        {
            let db = Database::open_file(&path, 128).unwrap();
            assert!(db.storage().was_recovered());
            let q = UpdateQueue::persistent(&db).unwrap();
            assert_eq!(q.len(), 32);
            assert_eq!(q.dequeue_batch(64).unwrap().len(), 32);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn enqueue_batch_volatile_is_plain_fifo() {
        let q = UpdateQueue::volatile();
        assert_eq!(
            q.enqueue_batch(&(0..4).map(tok).collect::<Vec<_>>())
                .unwrap(),
            None
        );
        assert_eq!(q.len(), 4);
        assert_eq!(q.dequeue_batch(10).unwrap()[0], tok(0));
    }

    #[test]
    fn recovered_persistent_depth_is_reported() {
        let registry = Registry::new();
        let db = Database::open_memory(128);
        {
            let q = UpdateQueue::persistent(&db).unwrap();
            q.enqueue(tok(1)).unwrap();
            q.enqueue(tok(2)).unwrap();
        }
        let mut q2 = UpdateQueue::persistent(&db).unwrap();
        q2.attach_telemetry(&registry);
        let t = QueueTelemetry::from_registry(&registry);
        assert_eq!(t.depth.get(), 2);
        q2.dequeue_batch(10).unwrap();
        assert_eq!(t.depth.get(), 0);
    }
}
