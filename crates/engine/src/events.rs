//! Event notification (\[Hans98\]): `raise event` in rule actions
//! communicates with the outside world; client applications "register for
//! events, receive event notifications when triggers fire".
//!
//! Delivery accounting is per-subscriber: every subscription carries a
//! stable id, and drops (dead or backlogged receivers) are counted both in
//! the aggregate `tman_notifications_dropped_total` series and in a
//! `subscriber`-labeled child of the same family, so one stalled client is
//! attributable instead of vanishing into a global counter. Dead receivers
//! are pruned *eagerly*: the publish that detects the failure sweeps the
//! subscriber out of every routing table before returning.
//!
//! [`NotificationSink`]s are synchronous observers invoked inside
//! [`EventBus::publish`] *before* channel fanout — the wire tier's durable
//! delivery log hooks in here, so a notification is logged before the
//! publishing driver can acknowledge the token that produced it.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tman_common::fxhash::FxHashMap;
use tman_common::Value;
use tman_telemetry::{CounterHandle, Registry, TraceHandle};

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
/// [`EventBus::publish`] on the publishing driver thread, before any
/// channel fanout — a sink that persists the notification therefore
/// completes *before* the token that produced it can be acknowledged to
/// the update queue, which is what makes at-least-once delivery compose
/// end-to-end. A sink runs under the bus's routing read lock and must not
/// subscribe or register on the bus it observes.
pub trait NotificationSink: Send + Sync {
    /// Observe one notification at publish time.
    fn on_publish(&self, n: &EventNotification);
}

/// Per-subscriber mailbox cap. The channels are unbounded, so "full" is a
/// policy decision: past this backlog a subscriber is considered stalled
/// and further notifications to it are counted drops instead of unbounded
/// memory growth.
pub const SLOW_CHANNEL_DEPTH: usize = 65_536;

/// One subscription: a stable id (for labeled drop accounting), its
/// channel, and its `subscriber`-labeled drop counter, resolved in the
/// registry by the first drop and kept — a subscriber 65 536 behind is
/// dropped to by every driver on every fire.
struct Sub {
    id: u64,
    tx: Sender<EventNotification>,
    dropped: OnceLock<CounterHandle>,
}

/// Who receives what: one lock, read once per publish.
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
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl EventBus {
    /// Fresh bus. Delivery counters are no-ops until
    /// [`attach_telemetry`](Self::attach_telemetry) resolves them against a
    /// registry.
    pub fn new() -> EventBus {
        EventBus {
            routes: RwLock::default(),
            next_sub: AtomicU64::new(1),
            registry: None,
            delivered: CounterHandle::noop(),
            dropped: CounterHandle::noop(),
        }
    }

    /// Resolve the delivery counters in `registry`, so
    /// `tman_notifications_{delivered,dropped}_total` show up in
    /// `show stats` / the text exposition. The registry is retained so
    /// per-subscriber `subscriber`-labeled drop counters can be resolved
    /// lazily, the first time a given subscriber actually drops.
    pub fn attach_telemetry(&mut self, registry: &Arc<Registry>) {
        self.delivered = registry.counter("tman_notifications_delivered_total", &[]);
        self.dropped = registry.counter("tman_notifications_dropped_total", &[]);
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

    /// Count one drop against `sub`: the aggregate series plus the
    /// `subscriber`-labeled child of the same family.
    fn count_drop(&self, sub: &Sub) {
        self.dropped.bump();
        if let Some(r) = &self.registry {
            sub.dropped
                .get_or_init(|| {
                    r.counter(
                        "tman_notifications_dropped_total",
                        &[("subscriber", sub.id.to_string().as_str())],
                    )
                })
                .bump();
        }
    }

    /// Deliver a notification to all matching subscribers, returning the
    /// number actually delivered (the fanout). Sinks run first (see
    /// [`NotificationSink`]). A subscriber whose mailbox has grown past
    /// [`SLOW_CHANNEL_DEPTH`] is treated as full: the notification is
    /// dropped for that subscriber and counted under its id. Disconnected
    /// receivers are counted the same way and pruned eagerly — out of
    /// every routing table before this call returns.
    pub fn publish(&self, n: EventNotification) -> usize {
        self.publish_keyed(&n.event.to_lowercase(), n)
    }

    /// [`publish`](Self::publish) for a caller that already holds the
    /// routing key, `n.event` lower-cased — rule actions take it from the
    /// compiled trigger.
    ///
    /// Hot path note: rule actions publish from every driver thread
    /// concurrently, so delivery runs under one *read* lock; the write
    /// lock is only taken to prune when a send actually failed. The
    /// notification is cloned for every receiver but the last, which gets
    /// the original.
    pub fn publish_keyed(&self, key: &str, n: EventNotification) -> usize {
        let mut fanout = 0usize;
        let mut dead: Vec<u64> = Vec::new();
        {
            let routes = self.routes.read();
            for s in &routes.sinks {
                s.on_publish(&n);
            }
            let named = routes.by_event.get(key).map_or(&[][..], Vec::as_slice);
            let mut subs = named.iter().chain(&routes.all).peekable();
            let mut n = Some(n);
            while let Some(sub) = subs.next() {
                if sub.tx.len() >= SLOW_CHANNEL_DEPTH {
                    // Stalled subscriber: mailbox is "full" under the
                    // backlog policy. Drop for this subscriber only; it
                    // stays registered.
                    self.count_drop(sub);
                    continue;
                }
                let note = match subs.peek() {
                    Some(_) => n.clone(),
                    None => n.take(),
                };
                match sub.tx.send(note.expect("taken by the last receiver only")) {
                    Ok(()) => {
                        self.delivered.bump();
                        fanout += 1;
                    }
                    Err(_) => {
                        self.count_drop(sub);
                        dead.push(sub.id);
                    }
                }
            }
        }
        if !dead.is_empty() {
            let mut routes = self.routes.write();
            for subs in routes.by_event.values_mut() {
                subs.retain(|s| !dead.contains(&s.id));
            }
            routes.by_event.retain(|_, subs| !subs.is_empty());
            routes.all.retain(|s| !dead.contains(&s.id));
        }
        fanout
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
