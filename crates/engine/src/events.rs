//! Event notification (\[Hans98\]): `raise event` in rule actions
//! communicates with the outside world; client applications "register for
//! events, receive event notifications when triggers fire".
//!
//! Delivery is by the *run*. A rule action builds its notification and
//! leaves it in the [`Outbox`] of the drain pass that fired it; the pass
//! hands the outbox to [`EventBus::deliver`], the one routine that reaches
//! subscribers, and what a run of notifications has in common is paid once
//! for the run instead of once per notification: the routing lock, the
//! route of a stretch of equal event keys, each subscriber's backlog, the
//! receiver's wake-up, the counters. [`EventBus::publish`] is a run of one.
//!
//! Delivery accounting is per-subscriber: every subscription carries a
//! stable id, and drops (dead or backlogged receivers) are counted both in
//! the aggregate `tman_notifications_dropped_total` series and in a
//! `subscriber`-labeled child of the same family, so one stalled client is
//! attributable instead of vanishing into a global counter. Dead receivers
//! are pruned *eagerly*: the delivery that detects the failure sends the
//! subscriber nothing more and sweeps it out of every routing table before
//! returning.
//!
//! [`NotificationSink`]s are synchronous observers invoked inside
//! [`EventBus::deliver`] *before* any channel fanout of the run — the wire
//! tier's durable delivery log hooks in here, so a notification is logged
//! before the publishing driver can acknowledge the token that produced
//! it.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tman_common::fxhash::FxHashMap;
use tman_common::Value;
use tman_telemetry::trace::{now_ns, ROOT_SPAN};
use tman_telemetry::{CounterHandle, HistogramHandle, Registry, SpanKind, TraceHandle};

/// A notification delivered to registered clients.
///
/// Equality ignores the [`trace`](Self::trace) handle and the
/// [`ingest_unix_ns`](Self::ingest_unix_ns) stamp — like their
/// counterparts on `UpdateDescriptor`, they are execution metadata riding
/// along with the notification, not part of its identity.
#[derive(Debug, Clone)]
pub struct EventNotification {
    /// Event name (`raise event Name(...)`), or `"notify"` for `do notify`
    /// messages. Shared with the compiled trigger: a fire copies no name.
    pub event: Arc<str>,
    /// Name of the trigger whose action raised it (shared likewise).
    pub trigger: Arc<str>,
    /// Evaluated event arguments.
    pub values: Vec<Value>,
    /// Message text (for `notify` actions).
    pub message: Option<String>,
    /// Durable origin of the token whose action raised this notification:
    /// its persistent-queue sequence number, when the engine runs a
    /// persistent queue (`None` on the volatile queue). Delivery tiers key
    /// crash-redelivery dedup on it.
    pub token_seq: Option<i64>,
    /// Trace lineage of the token whose action raised this notification
    /// (inert unless the engine is tracing). Delivery tiers record their
    /// append/write spans on it so the span tree extends past the engine.
    pub trace: TraceHandle,
    /// Wall-clock ingest stamp of the originating token (ns since the Unix
    /// epoch, 0 when unknown) — the basis for ingest→fire latency.
    pub ingest_unix_ns: u64,
}

impl PartialEq for EventNotification {
    fn eq(&self, other: &EventNotification) -> bool {
        self.event == other.event
            && self.trigger == other.trigger
            && self.values == other.values
            && self.message == other.message
            && self.token_seq == other.token_seq
    }
}

/// Synchronous observer of every published notification. Sinks run inside
/// [`EventBus::deliver`] on the publishing driver thread, one notification
/// at a time and in publication order, before any channel fanout of the
/// run — a sink that persists the notification therefore completes
/// *before* the token that produced it can be acknowledged to the update
/// queue, which is what makes at-least-once delivery compose end-to-end. A
/// sink runs under the bus's routing read lock and must not subscribe or
/// register on the bus it observes.
pub trait NotificationSink: Send + Sync {
    /// Observe one notification at publish time.
    fn on_publish(&self, n: &EventNotification);
}

/// Per-subscriber mailbox cap. The channels are unbounded, so "full" is a
/// policy decision: past this backlog a subscriber is considered stalled
/// and further notifications to it are counted drops instead of unbounded
/// memory growth.
pub const SLOW_CHANNEL_DEPTH: usize = 65_536;

/// One notification waiting for delivery.
struct Pending {
    /// The routing key: the event name lower-cased.
    key: Arc<str>,
    /// The `Action` span that built it, parent of its `Notify` span.
    span: u32,
    note: EventNotification,
}

/// Notifications built and not yet delivered, in publication order: what
/// one drain pass fired since it last called [`EventBus::deliver`].
#[derive(Default)]
pub struct Outbox {
    pending: Vec<Pending>,
}

impl Outbox {
    /// An outbox with room for `n` notifications.
    pub fn with_capacity(n: usize) -> Outbox {
        Outbox {
            pending: Vec::with_capacity(n),
        }
    }

    /// Append `note`, to be routed by `key` — `note.event` lower-cased,
    /// which a rule action takes from its compiled trigger. `action_span`
    /// is the trace span of the action that built it ([`ROOT_SPAN`] when
    /// there is none).
    pub fn push(&mut self, key: Arc<str>, action_span: u32, note: EventNotification) {
        self.pending.push(Pending {
            key,
            span: action_span,
            note,
        });
    }

    /// Notifications waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Is nothing waiting?
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// One subscription: a stable id (for labeled drop accounting), its
/// channel, and its `subscriber`-labeled drop counter, resolved in the
/// registry by the first drop and kept — a subscriber 65 536 behind is
/// dropped to by every driver on every run.
struct Sub {
    id: u64,
    tx: Sender<EventNotification>,
    dropped: OnceLock<CounterHandle>,
}

/// Who receives what: one lock, read once per delivered run.
#[derive(Default)]
struct Routes {
    /// Subscribers per lower-cased event name.
    by_event: FxHashMap<String, Vec<Sub>>,
    /// Subscribers to every event.
    all: Vec<Sub>,
    sinks: Vec<Arc<dyn NotificationSink>>,
}

/// Pub/sub hub connecting rule actions to client applications.
pub struct EventBus {
    routes: RwLock<Routes>,
    next_sub: AtomicU64,
    registry: Option<Arc<Registry>>,
    delivered: CounterHandle,
    dropped: CounterHandle,
    /// `tman_notify_fanout`: subscribers reached, per notification.
    fanout: HistogramHandle,
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl EventBus {
    /// Fresh bus. Delivery instruments are no-ops until
    /// [`attach_telemetry`](Self::attach_telemetry) resolves them against a
    /// registry.
    pub fn new() -> EventBus {
        EventBus {
            routes: RwLock::default(),
            next_sub: AtomicU64::new(1),
            registry: None,
            delivered: CounterHandle::noop(),
            dropped: CounterHandle::noop(),
            fanout: HistogramHandle::noop(),
        }
    }

    /// Resolve the delivery instruments in `registry`, so
    /// `tman_notifications_{delivered,dropped}_total` and
    /// `tman_notify_fanout` show up in `show stats` / the text exposition.
    /// The registry is retained so per-subscriber `subscriber`-labeled drop
    /// counters can be resolved lazily, the first time a given subscriber
    /// actually drops.
    pub fn attach_telemetry(&mut self, registry: &Arc<Registry>) {
        self.delivered = registry.counter("tman_notifications_delivered_total", &[]);
        self.dropped = registry.counter("tman_notifications_dropped_total", &[]);
        self.fanout = registry.histogram("tman_notify_fanout", &[]);
        self.registry = Some(registry.clone());
    }

    fn new_sub(&self) -> (Sub, Receiver<EventNotification>) {
        let (tx, rx) = unbounded();
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        let dropped = OnceLock::new();
        (Sub { id, tx, dropped }, rx)
    }

    /// Register for one named event.
    pub fn subscribe(&self, event: &str) -> Receiver<EventNotification> {
        let (sub, rx) = self.new_sub();
        let mut routes = self.routes.write();
        routes
            .by_event
            .entry(event.to_lowercase())
            .or_default()
            .push(sub);
        rx
    }

    /// Register for every event (console use).
    pub fn subscribe_all(&self) -> Receiver<EventNotification> {
        let (sub, rx) = self.new_sub();
        self.routes.write().all.push(sub);
        rx
    }

    /// Attach a synchronous sink observing every published notification.
    pub fn register_sink(&self, sink: Arc<dyn NotificationSink>) {
        self.routes.write().sinks.push(sink);
    }

    /// Count `n` drops against `sub`: the aggregate series plus the
    /// `subscriber`-labeled child of the same family.
    fn count_drops(&self, sub: &Sub, n: u64) {
        self.dropped.add(n);
        if let Some(r) = &self.registry {
            sub.dropped
                .get_or_init(|| {
                    r.counter(
                        "tman_notifications_dropped_total",
                        &[("subscriber", sub.id.to_string().as_str())],
                    )
                })
                .add(n);
        }
    }

    /// Deliver one notification to all matching subscribers, returning the
    /// number actually delivered (the fanout): a run of one through
    /// [`deliver`](Self::deliver).
    pub fn publish(&self, n: EventNotification) -> usize {
        let mut run = Outbox::with_capacity(1);
        run.push(n.event.to_lowercase().into(), ROOT_SPAN, n);
        self.deliver(&mut run)
    }

    /// Deliver a run of notifications — everything in `outbox`, which is
    /// left empty — in publication order, returning how many deliveries
    /// were made (the sum of the fanouts).
    ///
    /// Sinks see the whole run first (see [`NotificationSink`]). The run
    /// then goes out a *stretch* at a time, a stretch being consecutive
    /// notifications with one event key: its route is resolved and each
    /// subscriber's backlog read once, and the subscriber is sent as much
    /// of the stretch as fits under [`SLOW_CHANNEL_DEPTH`], back to back —
    /// a receiver asleep on its channel is woken by the first send and
    /// finds the rest waiting. What does not fit is dropped for that
    /// subscriber only and counted under its id; the subscriber stays
    /// registered. A disconnected receiver is counted one drop, sent
    /// nothing more, and pruned out of every routing table before this
    /// call returns.
    ///
    /// Hot path note: drain passes deliver from every driver thread
    /// concurrently, so a run goes out under one *read* lock; the write
    /// lock is only taken to prune when a send actually failed. A
    /// notification is cloned for every receiver but the last that has
    /// room, which gets the original. Nothing here allocates per
    /// notification: the scratch below is sized by the route and reused
    /// from stretch to stretch.
    pub fn deliver(&self, outbox: &mut Outbox) -> usize {
        if outbox.is_empty() {
            return 0;
        }
        let mut delivered = 0;
        let mut dead: Vec<u64> = Vec::new();
        // How much of the current stretch each subscriber of its route got.
        let mut takes: Vec<usize> = Vec::new();
        // The traced notifications of the current stretch: position, trace
        // and `Action` span, kept past the send that gives the note away.
        let mut traced: Vec<(usize, TraceHandle, u32)> = Vec::new();
        {
            let routes = self.routes.read();
            for p in &outbox.pending {
                for s in &routes.sinks {
                    s.on_publish(&p.note);
                }
            }
            let mut run = outbox.pending.drain(..);
            loop {
                let rest = run.as_slice();
                let Some(first) = rest.first() else { break };
                let k = rest.iter().take_while(|p| p.key == first.key).count();
                let stretch = &rest[..k];
                let named = routes.by_event.get(&*first.key);
                let subs = || named.into_iter().flatten().chain(&routes.all);
                traced.extend(
                    stretch
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.note.trace.is_active())
                        .map(|(at, p)| (at, p.note.trace.clone(), p.span)),
                );
                let began = if traced.is_empty() { 0 } else { now_ns() };

                takes.clear();
                takes.extend(subs().map(|sub| {
                    if dead.contains(&sub.id) {
                        return 0;
                    }
                    let room = SLOW_CHANNEL_DEPTH.saturating_sub(sub.tx.len());
                    if room < k {
                        // Stalled subscriber: its mailbox is "full" under
                        // the backlog policy from here on.
                        self.count_drops(sub, (k - room) as u64);
                    }
                    room.min(k)
                }));
                // The last subscriber with room is given the originals,
                // after every other one has had its clones.
                let last = takes.iter().rposition(|&take| take > 0);
                for (i, sub) in subs().enumerate() {
                    if Some(i) == last {
                        continue;
                    }
                    let sent = stretch[..takes[i]]
                        .iter()
                        .take_while(|p| sub.tx.send(p.note.clone()).is_ok())
                        .count();
                    if sent < takes[i] {
                        self.count_drops(sub, 1);
                        dead.push(sub.id);
                        takes[i] = sent;
                    }
                }
                let mut moved = 0;
                if let Some(i) = last {
                    let sub = subs().nth(i).expect("counted above");
                    while moved < takes[i] {
                        let p = run.next().expect("inside the stretch");
                        moved += 1;
                        if sub.tx.send(p.note).is_err() {
                            self.count_drops(sub, 1);
                            dead.push(sub.id);
                            takes[i] = moved - 1;
                            break;
                        }
                    }
                }
                run.by_ref().take(k - moved).for_each(drop);

                // Notification `at` of the stretch reached every subscriber
                // that took more than `at` of it: the fanout is constant
                // between one subscriber's share and the next larger.
                let fanout = |at: usize| takes.iter().filter(|&&take| take > at).count() as u64;
                let mut at = 0;
                while at < k {
                    let until = takes.iter().copied().filter(|&take| take > at).min();
                    let until = until.unwrap_or(k);
                    self.fanout.record_n(fanout(at), (until - at) as u64);
                    at = until;
                }
                for (at, trace, span) in traced.drain(..) {
                    let dur = now_ns().saturating_sub(began);
                    trace.record_complete(SpanKind::Notify, span, began, dur, 0, fanout(at));
                }
                delivered += takes.iter().sum::<usize>();
            }
        }
        self.delivered.add(delivered as u64);
        if !dead.is_empty() {
            let mut routes = self.routes.write();
            for subs in routes.by_event.values_mut() {
                subs.retain(|s| !dead.contains(&s.id));
            }
            routes.by_event.retain(|_, subs| !subs.is_empty());
            routes.all.retain(|s| !dead.contains(&s.id));
        }
        delivered
    }

    /// Notifications successfully delivered (0 until a registry is
    /// attached).
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Notifications dropped on dead or stalled subscribers (0 until a
    /// registry is attached).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(event: &str) -> EventNotification {
        EventNotification {
            event: event.into(),
            trigger: "t".into(),
            values: vec![Value::Int(1)],
            message: None,
            token_seq: None,
            trace: TraceHandle::none(),
            ingest_unix_ns: 0,
        }
    }

    #[test]
    fn routed_by_event_name_case_insensitively() {
        let bus = EventBus::new();
        let rx_a = bus.subscribe("NewHouse");
        let rx_b = bus.subscribe("other");
        bus.publish(note("newhouse"));
        assert_eq!(&*rx_a.try_recv().unwrap().event, "newhouse");
        assert!(rx_b.try_recv().is_err());
    }

    #[test]
    fn subscribe_all_sees_everything() {
        let registry = Arc::new(Registry::new());
        let mut bus = EventBus::new();
        bus.attach_telemetry(&registry);
        let rx = bus.subscribe_all();
        bus.publish(note("a"));
        bus.publish(note("b"));
        assert_eq!(
            rx.iter().take(2).map(|n| n.event).collect::<Vec<_>>(),
            vec!["a".into(), "b".into()]
        );
        // The handles resolve into the registry, so both the bus getter and
        // the exposition see the deliveries.
        assert_eq!(bus.delivered(), 2);
        assert_eq!(
            registry
                .counter("tman_notifications_delivered_total", &[])
                .get(),
            2
        );
    }

    #[test]
    fn dead_subscribers_are_pruned() {
        let bus = EventBus::new();
        drop(bus.subscribe("x"));
        let live = bus.subscribe("x");
        bus.publish(note("x"));
        assert_eq!(&*live.try_recv().unwrap().event, "x");
        bus.publish(note("x"));
        assert_eq!(bus.routes.read().by_event.get("x").unwrap().len(), 1);
    }

    #[test]
    fn dead_subscribers_are_pruned_in_the_same_publish() {
        let registry = Arc::new(Registry::new());
        let mut bus = EventBus::new();
        bus.attach_telemetry(&registry);
        drop(bus.subscribe("x"));
        drop(bus.subscribe_all());
        let _live = bus.subscribe("x");
        bus.publish(note("x"));
        // The first (and only) publish already swept both routing tables.
        assert_eq!(bus.routes.read().by_event.get("x").unwrap().len(), 1);
        assert!(bus.routes.read().all.is_empty());
        assert_eq!(bus.dropped(), 2);
    }

    #[test]
    fn drops_are_attributed_per_subscriber() {
        let registry = Arc::new(Registry::new());
        let mut bus = EventBus::new();
        bus.attach_telemetry(&registry);
        let dead_rx = bus.subscribe("x");
        let id = bus.routes.read().by_event.get("x").unwrap()[0].id;
        drop(dead_rx);
        let _live = bus.subscribe("x");
        bus.publish(note("x"));
        let id_s = id.to_string();
        assert_eq!(
            registry
                .counter(
                    "tman_notifications_dropped_total",
                    &[("subscriber", id_s.as_str())]
                )
                .get(),
            1
        );
        // The aggregate series counts it too.
        assert_eq!(bus.dropped(), 1);
    }

    #[test]
    fn stalled_subscribers_drop_instead_of_growing_without_bound() {
        let registry = Arc::new(Registry::new());
        let mut bus = EventBus::new();
        bus.attach_telemetry(&registry);
        let rx = bus.subscribe("x");
        for _ in 0..SLOW_CHANNEL_DEPTH + 5 {
            bus.publish(note("x"));
        }
        // The mailbox stopped at the cap; the overflow was counted, and
        // the subscriber stayed registered (it is slow, not dead).
        assert_eq!(rx.len(), SLOW_CHANNEL_DEPTH);
        assert_eq!(bus.dropped(), 5);
        assert_eq!(bus.routes.read().by_event.get("x").unwrap().len(), 1);
        // Draining restores delivery.
        for _ in rx.try_iter() {}
        bus.publish(note("x"));
        assert_eq!(rx.len(), 1);
    }

    /// A run of `events`, each carrying its position in `values`.
    fn run_of(events: &[&str]) -> Outbox {
        let mut run = Outbox::default();
        for (at, event) in events.iter().enumerate() {
            let mut n = note(event);
            n.values = vec![Value::Int(at as i64)];
            run.push(event.to_lowercase().into(), ROOT_SPAN, n);
        }
        run
    }

    fn positions(rx: &Receiver<EventNotification>) -> Vec<i64> {
        let at = |n: EventNotification| match n.values[0] {
            Value::Int(at) => at,
            ref other => panic!("{other:?}"),
        };
        rx.try_iter().map(at).collect()
    }

    /// A stretch that straddles the cap is delivered exactly up to it, per
    /// subscriber, and the rest of it counted against that subscriber.
    #[test]
    fn a_stretch_that_straddles_the_cap_delivers_up_to_it() {
        let registry = Arc::new(Registry::new());
        let mut bus = EventBus::new();
        bus.attach_telemetry(&registry);
        let behind = bus.subscribe("x");
        let behind_id = bus.routes.read().by_event.get("x").unwrap()[0].id;
        for _ in 0..SLOW_CHANNEL_DEPTH - 3 {
            bus.publish(note("x"));
        }
        let fresh = bus.subscribe("x");
        let (delivered, fanouts) = (bus.delivered(), bus.fanout.summary());

        // Ten of `x`, then two of `y` nobody listens to, then one more `x`:
        // three stretches of one run.
        let events = [["x"; 10].as_slice(), &["y", "y", "X"]].concat();
        let mut run = run_of(&events);
        assert_eq!(bus.deliver(&mut run), 3 + 10 + 1);
        assert!(run.is_empty());
        assert_eq!(behind.len(), SLOW_CHANNEL_DEPTH, "up to the cap, not past");
        assert_eq!(positions(&fresh), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12]);
        let last_three: Vec<_> = behind.try_iter().skip(SLOW_CHANNEL_DEPTH - 3).collect();
        assert_eq!(last_three.len(), 3);
        assert_eq!(last_three[2].values, [Value::Int(2)]);

        assert_eq!(bus.delivered() - delivered, 14);
        assert_eq!(
            bus.dropped(),
            7 + 1,
            "seven of the first stretch, the last x"
        );
        let labelled = |id: u64| {
            let id = id.to_string();
            let labels = [("subscriber", id.as_str())];
            registry
                .counter("tman_notifications_dropped_total", &labels)
                .get()
        };
        assert_eq!(labelled(behind_id), 8);
        assert_eq!(labelled(behind_id + 1), 0);
        // One fanout sample per notification: 2 for the three both took, 1
        // for the eight only `fresh` took, 0 for the two of `y`.
        let f = bus.fanout.summary();
        assert_eq!(f.count - fanouts.count, 13);
        assert_eq!(f.sum - fanouts.sum, 3 * 2 + 8);
    }

    /// Two subscribers to one event and one to all events each receive a
    /// run in publication order, whichever of them is given the originals.
    #[test]
    fn every_subscriber_receives_a_run_in_publication_order() {
        let bus = EventBus::new();
        let (a, b, all) = (bus.subscribe("x"), bus.subscribe("X"), bus.subscribe_all());
        let mut run = run_of(&["x", "x", "y", "x", "y", "y", "x"]);
        assert_eq!(bus.deliver(&mut run), 4 * 3 + 3);
        assert_eq!(positions(&a), [0, 1, 3, 6]);
        assert_eq!(positions(&b), [0, 1, 3, 6]);
        assert_eq!(positions(&all), [0, 1, 2, 3, 4, 5, 6]);
        // A receiver that goes away mid-run is sent nothing more, counted
        // once and pruned by the call that found out.
        drop(all);
        let mut run = run_of(&["y", "x", "y"]);
        assert_eq!(bus.deliver(&mut run), 2);
        assert!(bus.routes.read().all.is_empty());
        assert_eq!((positions(&a), positions(&b)), (vec![1], vec![1]));
    }

    /// Sinks see every notification of a run, in order, before the first
    /// of them reaches a channel.
    #[test]
    fn sinks_observe_a_whole_run_before_its_fanout() {
        struct Probe {
            seen: parking_lot::Mutex<Vec<i64>>,
            rx: Receiver<EventNotification>,
        }
        impl NotificationSink for Probe {
            fn on_publish(&self, n: &EventNotification) {
                assert!(
                    self.rx.is_empty(),
                    "fanout began before the sinks were done"
                );
                let Value::Int(at) = n.values[0] else {
                    panic!("{:?}", n.values)
                };
                self.seen.lock().push(at);
            }
        }
        let bus = EventBus::new();
        let probe = Arc::new(Probe {
            seen: Default::default(),
            rx: bus.subscribe_all(),
        });
        bus.register_sink(probe.clone());
        bus.deliver(&mut run_of(&["x", "y", "x"]));
        assert_eq!(*probe.seen.lock(), [0, 1, 2]);
        assert_eq!(positions(&probe.rx), [0, 1, 2]);
    }

    #[test]
    fn sinks_observe_before_fanout() {
        struct Probe(AtomicU64);
        impl NotificationSink for Probe {
            fn on_publish(&self, n: &EventNotification) {
                assert_eq!(&*n.event, "x");
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let bus = EventBus::new();
        let probe = Arc::new(Probe(AtomicU64::new(0)));
        bus.register_sink(probe.clone());
        // No channel subscribers at all: sinks still see every publish.
        assert_eq!(bus.publish(note("x")), 0);
        assert_eq!(probe.0.load(Ordering::Relaxed), 1);
    }
}
