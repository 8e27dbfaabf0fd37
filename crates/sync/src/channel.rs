//! An unbounded MPMC channel over a `Mutex<VecDeque>` and a `Condvar`.
//! Receivers are cloneable, and senders and receivers count their peers
//! for disconnect semantics.
//!
//! **One send is one lock.** [`Sender::send_up_to`] pushes a whole batch
//! under a single acquisition of the queue's lock: its items arrive in
//! order and contiguous (no other sender's item lands between them), and
//! it wakes at most one blocked receiver per item. [`Sender::send`] is
//! the same call with a batch of one.
//!
//! **The cap.** A batch send takes a backlog cap and pushes only while the
//! queue holds fewer items than the cap. The check and the push happen
//! under the one lock, so concurrent senders cannot both see the same room
//! and overshoot it; the call pulls no item it will not push, and returns
//! how many it pushed. The queue itself stays unbounded: the cap is the
//! caller's policy, per call. The backlog is read at the receiving end,
//! [`Receiver::len`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Chan<T> {
    q: Mutex<VecDeque<T>>,
    cv: Condvar,
    /// Receivers blocked on `cv` (changed only with `q` locked), so a
    /// send wakes one only when one waits: `Condvar::notify_one` is a
    /// system call whether or not anyone does.
    waiting: AtomicUsize,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

pub struct Sender<T>(Arc<Chan<T>>);
pub struct Receiver<T>(Arc<Chan<T>>);

#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        q: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        waiting: AtomicUsize::new(0),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender(chan.clone()), Receiver(chan))
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        Sender(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // A receiver reads `senders` under `q` and then waits on `cv`,
            // releasing `q` only once it sleeps. Taking `q` here orders
            // this notify after that wait (or the read after the
            // decrement), so no receiver misses the disconnect.
            drop(self.0.q.lock());
            self.0.cv.notify_all();
        }
    }
}

impl<T> Sender<T> {
    pub fn send(&self, t: T) -> Result<(), SendError<T>> {
        let mut one = Some(t).into_iter();
        match self.push_up_to(&mut one, usize::MAX) {
            Ok(_) => Ok(()),
            Err(SendError(())) => Err(SendError(
                one.next().expect("not pulled without a receiver"),
            )),
        }
    }

    /// Push `items`, in order, while the queue holds fewer than `cap`, and
    /// return how many were pushed: all of them, or as many as fit under
    /// the cap. One lock covers the cap check and every push, so the batch
    /// lands contiguous and the cap holds against concurrent senders.
    /// Iteration stops at the cap; the items past it are not pulled.
    ///
    /// With no receiver left this returns `Err` and still drains `items`,
    /// dropping them, so a caller walking a shared cursor ends where a
    /// successful call would have.
    ///
    /// `items` is advanced under the queue's lock: it must not touch this
    /// channel, and a panic in it poisons the channel.
    pub fn send_up_to<I>(&self, items: I, cap: usize) -> Result<usize, SendError<()>>
    where
        I: IntoIterator<Item = T>,
    {
        let mut items = items.into_iter();
        let sent = self.push_up_to(&mut items, cap);
        if sent.is_err() {
            items.for_each(drop);
        }
        sent
    }

    /// The one send path: without a receiver, pulls nothing from `items`.
    fn push_up_to(
        &self,
        items: &mut impl Iterator<Item = T>,
        cap: usize,
    ) -> Result<usize, SendError<()>> {
        if self.0.receivers.load(Ordering::SeqCst) == 0 {
            return Err(SendError(()));
        }
        let (sent, waiting) = {
            let mut q = self.0.q.lock().unwrap();
            let before = q.len();
            q.extend(items.take(cap.saturating_sub(before)));
            (q.len() - before, self.0.waiting.load(Ordering::Relaxed))
        };
        // Wake one waiting receiver per new item.
        match sent.min(waiting) {
            0 => {}
            n if n == waiting => self.0.cv.notify_all(),
            n => (0..n).for_each(|_| self.0.cv.notify_one()),
        }
        Ok(sent)
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.0.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.receivers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T> Receiver<T> {
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut q = self.0.q.lock().unwrap();
        match q.pop_front() {
            Some(t) => Ok(t),
            None if self.0.senders.load(Ordering::SeqCst) == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut q = self.0.q.lock().unwrap();
        loop {
            if let Some(t) = q.pop_front() {
                return Ok(t);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            self.0.waiting.fetch_add(1, Ordering::Relaxed);
            q = self.0.cv.wait(q).unwrap();
            self.0.waiting.fetch_sub(1, Ordering::Relaxed);
        }
    }
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut q = self.0.q.lock().unwrap();
        loop {
            if let Some(t) = q.pop_front() {
                return Ok(t);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            self.0.waiting.fetch_add(1, Ordering::Relaxed);
            let (guard, res) = self.0.cv.wait_timeout(q, deadline - now).unwrap();
            self.0.waiting.fetch_sub(1, Ordering::Relaxed);
            q = guard;
            if res.timed_out() && q.is_empty() {
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }
    pub fn len(&self) -> usize {
        self.0.q.lock().unwrap().len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter(self)
    }
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self)
    }
}

pub struct TryIter<'a, T>(&'a Receiver<T>);
impl<'a, T> Iterator for TryIter<'a, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.try_recv().ok()
    }
}

pub struct Iter<'a, T>(&'a Receiver<T>);
impl<'a, T> Iterator for Iter<'a, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn a_blocked_recv_returns_err_once_the_last_sender_drops() {
        // A drop that notified without taking the lock lost the wake-up
        // in rare rounds (one run of this test in ten), and the receiver
        // never returned; the deadline turns such a hang into a failure.
        for round in 0..4000 {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            let chan = tx.0.clone();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            thread::spawn(move || done_tx.send(rx.recv()));
            // Even rounds drop once the receiver has announced its wait;
            // odd rounds race the drop against its way there.
            if round % 2 == 0 {
                while chan.waiting.load(Ordering::Relaxed) == 0 {
                    thread::yield_now();
                }
            }
            drop(tx);
            drop(tx2);
            let got = done_rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(got, Ok(Err(RecvError)), "round {round}: lost wake-up");
        }
    }

    #[test]
    fn recv_timeout_tells_a_timeout_from_a_disconnect() {
        let (tx, rx) = unbounded();
        let short = Duration::from_millis(5);
        assert_eq!(rx.recv_timeout(short), Err(RecvTimeoutError::Timeout));
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(short), Ok(7));
        drop(tx);
        assert_eq!(rx.recv_timeout(short), Err(RecvTimeoutError::Disconnected));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_message_sent_before_the_disconnect_is_still_received() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn cloned_receivers_split_the_messages() {
        const N: u32 = 10_000;
        let (tx, rx) = unbounded();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.iter().collect::<Vec<u32>>())
            })
            .collect();
        drop(rx);
        for i in 0..N {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn len_is_visible_from_the_receiver() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        tx.send('a').unwrap();
        tx.send('b').unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_iter().collect::<String>(), "ab");
        assert_eq!(rx.len(), 0);
    }

    #[test]
    fn a_batch_arrives_in_order() {
        let (tx, rx) = unbounded();
        tx.send(0).unwrap();
        assert_eq!(tx.send_up_to(1..=5, usize::MAX), Ok(5));
        assert_eq!(tx.send_up_to(Vec::new(), usize::MAX), Ok(0));
        tx.send(6).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5, 6]);
    }

    /// Four producers each send batches tagged (producer, batch, item):
    /// the receiver sees every batch whole, and each producer's batches in
    /// the order it sent them.
    #[test]
    fn concurrent_batches_arrive_contiguous_and_in_producer_order() {
        const BATCHES: u32 = 2_000;
        const LEN: u32 = 7;
        let (tx, rx) = unbounded();
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for b in 0..BATCHES {
                        let batch = (0..LEN).map(|i| (p, b, i));
                        assert_eq!(tx.send_up_to(batch, usize::MAX), Ok(LEN as usize));
                    }
                })
            })
            .collect();
        drop(tx);
        let got: Vec<(u32, u32, u32)> = rx.iter().collect();
        producers.into_iter().for_each(|p| p.join().unwrap());
        assert_eq!(got.len(), (4 * BATCHES * LEN) as usize);
        let mut next_batch = [0u32; 4];
        for chunk in got.chunks(LEN as usize) {
            let (p, b, _) = chunk[0];
            let whole: Vec<_> = (0..LEN).map(|i| (p, b, i)).collect();
            assert_eq!(chunk, whole, "a batch was split");
            assert_eq!(b, next_batch[p as usize], "producer {p} out of order");
            next_batch[p as usize] += 1;
        }
    }

    /// Eight producers race batches at a cap from a barrier: the queue
    /// never passes the cap, and every item is either pushed or reported
    /// not pushed.
    #[test]
    fn the_cap_is_exact_under_concurrent_producers() {
        const CAP: usize = 1_000;
        for round in 0..200 {
            let (tx, rx) = unbounded();
            tx.send_up_to(0..CAP - 50, usize::MAX).unwrap();
            let barrier = Arc::new(std::sync::Barrier::new(8));
            let producers: Vec<_> = (0..8)
                .map(|_| {
                    let (tx, barrier) = (tx.clone(), barrier.clone());
                    thread::spawn(move || {
                        barrier.wait();
                        (0..5)
                            .map(|_| tx.send_up_to(0..13, CAP).unwrap())
                            .sum::<usize>()
                    })
                })
                .collect();
            let pushed: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
            assert_eq!(rx.len(), CAP, "round {round}");
            assert_eq!(pushed, 50, "round {round}");
        }
    }

    #[test]
    fn a_capped_send_stops_pulling_at_the_cap() {
        let (tx, rx) = unbounded();
        tx.send_up_to(0..3, usize::MAX).unwrap();
        let pulled = std::cell::Cell::new(0);
        let items = (0..10).inspect(|_| pulled.set(pulled.get() + 1));
        assert_eq!(tx.send_up_to(items, 5), Ok(2));
        assert_eq!(pulled.get(), 2, "an item past the cap was pulled");
        let items = (0..10).inspect(|_| pulled.set(pulled.get() + 1));
        assert_eq!(tx.send_up_to(items, 5), Ok(0));
        assert_eq!(pulled.get(), 2);
        assert_eq!(rx.len(), 5);
    }

    #[test]
    fn a_batch_with_no_receiver_fails_and_still_drains_its_items() {
        let (tx, rx) = unbounded();
        drop(rx);
        let mut cursor = 0..10;
        assert_eq!(
            tx.send_up_to(cursor.by_ref().take(4), 2),
            Err(SendError(()))
        );
        assert_eq!(cursor.next(), Some(4), "the batch was not consumed");
        let (tx, rx) = unbounded();
        drop(rx);
        let dropped = Arc::new(());
        let items = vec![dropped.clone(), dropped.clone()];
        assert!(tx.send_up_to(items, usize::MAX).is_err());
        assert_eq!(Arc::strong_count(&dropped), 1, "the items were not dropped");
    }

    /// Waits until `n` receivers are blocked on `tx`'s channel.
    fn until_waiting<T>(tx: &Sender<T>, n: usize) {
        while tx.0.waiting.load(Ordering::Relaxed) < n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_batch_wakes_blocked_receivers() {
        let (tx, rx) = unbounded();
        let blocked = thread::spawn(move || (rx.recv(), rx.recv_timeout(Duration::from_secs(60))));
        until_waiting(&tx, 1);
        tx.send_up_to([1], usize::MAX).unwrap();
        until_waiting(&tx, 1);
        tx.send_up_to([2], usize::MAX).unwrap();
        assert_eq!(blocked.join().unwrap(), (Ok(1), Ok(2)));

        // A batch of two wakes both of two blocked receivers.
        let (tx, rx) = unbounded();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let (rx, done_tx) = (rx.clone(), done_tx.clone());
                thread::spawn(move || done_tx.send(rx.recv_timeout(Duration::from_secs(60))))
            })
            .collect();
        until_waiting(&tx, 2);
        tx.send_up_to([1, 2], usize::MAX).unwrap();
        let mut got: Vec<_> = (0..2)
            .map(|_| {
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a receiver slept through")
            })
            .map(|got| got.expect("woken by the batch"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        receivers
            .into_iter()
            .for_each(|r| r.join().unwrap().unwrap());
    }

    #[test]
    fn send_fails_with_no_receiver() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(tx.send(1), Ok(()));
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }
}
