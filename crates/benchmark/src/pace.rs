//! Open-loop pacing: tokens are due on a fixed schedule whatever the
//! system under test does. A token is timed from the instant it was due,
//! not from when the sender got round to it, so a stall is charged to
//! every token it delayed; how late the sender itself ran is recorded
//! beside it.

use std::time::{Duration, Instant};

/// Where the pacer reads time and waits. The real clock sleeps; tests
/// step a fake one.
pub trait Clock {
    fn now(&self) -> Instant;
    fn sleep_until(&self, at: Instant);
}

pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep_until(&self, at: Instant) {
        // No spinning: on a two-core host a spinning sender would take a
        // core from the program. `sleep` overshoots by tens of microseconds;
        // the pacer hands over every token that fell due meanwhile and the
        // overshoot is reported as generator lag.
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
    }
}

/// A fixed-rate schedule starting at `start`: token `i` is due at
/// `start + i / rate`.
pub struct Pacer {
    start: Instant,
    interval_ns: f64,
    sent: u64,
    /// The schedule stops being extended here.
    end: Instant,
    /// Shortest sleep: a sender that batches anyway wakes this often and
    /// takes what fell due, instead of once per token.
    quantum: Duration,
}

impl Pacer {
    pub fn new(start: Instant, rate_per_s: f64, run: Duration) -> Pacer {
        Pacer {
            start,
            interval_ns: 1e9 / rate_per_s,
            sent: 0,
            end: start + run,
            quantum: Duration::ZERO,
        }
    }

    /// Sleep at least `quantum` at a time (see [`Pacer::take`]).
    pub fn coarse(mut self, quantum: Duration) -> Pacer {
        self.quantum = quantum;
        self
    }

    /// When token `i` of this schedule is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.interval_ns) as u64)
    }

    /// Tokens taken from the schedule so far.
    #[cfg(test)]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Wait for the next token to fall due (at least the pacer's quantum, at
    /// most `max_wait`), then take
    /// every token due by now, `max` at most. Returns the index of the
    /// first one taken, how many, and the current time; the count is 0
    /// when `max_wait` ran out first, and `None` once the schedule is over.
    /// A sender that was held up finds several tokens due and is handed
    /// them all, each still timed from its own due instant.
    pub fn take(
        &mut self,
        clock: &impl Clock,
        max: u64,
        max_wait: Duration,
    ) -> Option<(u64, u64, Instant)> {
        let next_due = self.due(self.sent);
        if next_due >= self.end {
            return None;
        }
        let mut now = clock.now();
        if next_due > now {
            clock.sleep_until(next_due.max(now + self.quantum).min(now + max_wait));
            now = clock.now();
            if next_due > now {
                return Some((self.sent, 0, now));
            }
        }
        let horizon = now.min(self.end);
        let due_by_now =
            (horizon.duration_since(self.start).as_nanos() as f64 / self.interval_ns) as u64 + 1;
        let n = (due_by_now - self.sent).clamp(1, max);
        let first = self.sent;
        self.sent += n;
        Some((first, n, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, or when slept on.
    struct FakeClock {
        now: Cell<Instant>,
        /// Extra delay added to every sleep: a sender that oversleeps.
        oversleep: Duration,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.now.get()
        }
        fn sleep_until(&self, at: Instant) {
            self.now.set(self.now.get().max(at) + self.oversleep);
        }
    }

    #[test]
    fn tokens_are_due_on_schedule_and_lateness_is_the_senders() {
        let t0 = Instant::now();
        let clock = FakeClock {
            now: Cell::new(t0),
            oversleep: Duration::from_micros(30),
        };
        // 10 000 tokens/s: one every 100 us.
        let mut pacer = Pacer::new(t0, 10_000.0, Duration::from_millis(10));
        let wait = Duration::from_secs(1);
        let (first, n, now) = pacer.take(&clock, 64, wait).unwrap();
        assert_eq!((first, n), (0, 1));
        assert_eq!(now, t0);
        let (first, n, now) = pacer.take(&clock, 64, wait).unwrap();
        assert_eq!((first, n), (1, 1));
        // Due at +100 us, sent at +130 us: the token's clock started at
        // +100 us and the 30 us is the generator's own lag.
        assert_eq!(pacer.due(1), t0 + Duration::from_micros(100));
        assert_eq!(now - pacer.due(1), Duration::from_micros(30));
    }

    #[test]
    fn a_stalled_sender_is_handed_everything_that_fell_due() {
        let t0 = Instant::now();
        let clock = FakeClock {
            now: Cell::new(t0),
            oversleep: Duration::ZERO,
        };
        let mut pacer = Pacer::new(t0, 10_000.0, Duration::from_millis(10));
        let wait = Duration::from_secs(1);
        assert_eq!(pacer.take(&clock, 64, wait).unwrap().1, 1);
        // The sender blocks for 1 ms (a flush waiting on credits, say).
        clock.now.set(t0 + Duration::from_millis(1));
        let (first, n, now) = pacer.take(&clock, 64, wait).unwrap();
        assert_eq!((first, n), (1, 10)); // tokens 1..=10 were due by +1 ms
                                         // The oldest of them has already waited 900 us.
        assert_eq!(now - pacer.due(first), Duration::from_micros(900));
        // `max` caps one take; the rest are still due and come next, at once.
        clock.now.set(t0 + Duration::from_millis(5));
        assert_eq!(pacer.take(&clock, 16, wait).unwrap().1, 16);
        assert_eq!(pacer.take(&clock, 64, wait).unwrap().1, 24);
        assert_eq!(pacer.sent(), 51);
    }

    #[test]
    fn a_bounded_wait_returns_empty_handed_and_the_schedule_ends() {
        let t0 = Instant::now();
        let clock = FakeClock {
            now: Cell::new(t0),
            oversleep: Duration::ZERO,
        };
        // 100 tokens/s: one every 10 ms, for 25 ms: tokens 0, 1 and 2.
        let mut pacer = Pacer::new(t0, 100.0, Duration::from_millis(25));
        assert_eq!(
            pacer.take(&clock, 8, Duration::from_millis(1)).unwrap().1,
            1
        );
        let (_, n, now) = pacer.take(&clock, 8, Duration::from_millis(1)).unwrap();
        assert_eq!((n, now), (0, t0 + Duration::from_millis(1)));
        let wait = Duration::from_secs(1);
        assert_eq!(pacer.take(&clock, 8, wait).unwrap().1, 1);
        assert_eq!(pacer.take(&clock, 8, wait).unwrap().1, 1);
        assert!(pacer.take(&clock, 8, wait).is_none());
        assert_eq!(pacer.sent(), 3);
    }
}
