//! Minimal offline stand-in for the `crossbeam` crate: the
//! channel/queue subset the workspace uses, over std primitives.
//! Receivers are cloneable (MPMC), senders/receivers track peer counts
//! for disconnect semantics, and both ends expose `len()`.

pub mod channel {
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
                self.0.cv.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(t));
            }
            let waiting = {
                let mut q = self.0.q.lock().unwrap();
                q.push_back(t);
                self.0.waiting.load(Ordering::Relaxed) > 0
            };
            if waiting {
                self.0.cv.notify_one();
            }
            Ok(())
        }
        pub fn len(&self) -> usize {
            self.0.q.lock().unwrap().len()
        }
        pub fn is_empty(&self) -> bool {
            self.len() == 0
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
                None if self.0.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
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
}

pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    pub struct SegQueue<T>(Mutex<VecDeque<T>>);

    impl<T> SegQueue<T> {
        pub fn new() -> SegQueue<T> {
            SegQueue(Mutex::new(VecDeque::new()))
        }
        pub fn push(&self, t: T) {
            self.0.lock().unwrap().push_back(t);
        }
        pub fn pop(&self) -> Option<T> {
            self.0.lock().unwrap().pop_front()
        }
        pub fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> SegQueue<T> {
            SegQueue::new()
        }
    }
}
