//! Offline stand-in for the `crossbeam` crate.
//!
//! The workspace uses `crossbeam::thread::scope` + `Scope::spawn` +
//! `ScopedJoinHandle::join` (mapped onto `std::thread::scope`, stable
//! since 1.63) and, since the serving layer landed, the bounded MPMC
//! subset of `crossbeam::channel` (mapped onto a `Mutex<VecDeque>` +
//! two `Condvar`s). Differences from real crossbeam that are acceptable
//! here:
//!
//! * `scope` never returns `Err`: `std::thread::scope` propagates panics
//!   from un-joined child threads by resuming the panic in the parent, so
//!   every call site's `.expect(...)` simply never fires.
//! * `ScopedJoinHandle` exposes only `join`.
//! * `channel` exposes only `bounded` and the blocking/non-blocking/
//!   timed send-receive surface the serve daemon needs — no `select!`,
//!   no unbounded channels, no zero-capacity rendezvous channels.

#![forbid(unsafe_code)]

pub mod thread {
    use std::any::Any;

    /// A scope for spawning borrowing threads; mirrors
    /// `crossbeam::thread::Scope`.
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a scoped thread; mirrors
    /// `crossbeam::thread::ScopedJoinHandle`.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish, returning its result or the
        /// panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. As in crossbeam, the closure receives
        /// the scope again so it can spawn siblings.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = *self;
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(&scope)),
            }
        }
    }

    /// Creates a scope in which threads may borrow from the enclosing
    /// stack frame; all threads are joined before `scope` returns.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

pub mod channel {
    //! Bounded multi-producer multi-consumer channels, mirroring the
    //! `crossbeam-channel` API subset used by `absort-serve`: a fixed
    //! capacity ring with blocking `send`/`recv`, non-blocking
    //! `try_send`/`try_recv` (the load-shedding primitives), and a timed
    //! `recv_timeout` (the worker idle poll). Disconnection follows
    //! crossbeam semantics: a receiver drains buffered messages before
    //! reporting `Disconnected`, and senders fail fast once every
    //! receiver is gone.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: usize,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `not_empty` and senders blocked on
        /// `not_full`: a condvar is notified only when someone waits on
        /// it, so an uncontended send or receive makes no wake-up call.
        recv_waiting: usize,
        send_waiting: usize,
    }

    impl<T> Shared<T> {
        /// Enqueues under the held lock, then wakes one blocked receiver.
        fn push(&self, mut g: MutexGuard<'_, Inner<T>>, msg: T) {
            g.queue.push_back(msg);
            let wake = g.recv_waiting > 0;
            drop(g);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Dequeues under the held lock from a queue the caller found
        /// non-empty, then wakes one blocked sender.
        fn pop(&self, mut g: MutexGuard<'_, Inner<T>>) -> T {
            let msg = g.queue.pop_front().expect("caller checked the queue");
            let wake = g.send_waiting > 0;
            drop(g);
            if wake {
                self.not_full.notify_one();
            }
            msg
        }
    }

    /// Error for [`Sender::try_send`]: the message is handed back so a
    /// shedding caller can still answer it (e.g. with an `Overloaded`
    /// reply) instead of losing it.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(t) | TrySendError::Disconnected(t) => t,
            }
        }
    }

    /// Error for [`Sender::send`]: every receiver has been dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error for [`Receiver::recv`]: the channel is empty and every
    /// sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error for [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders still connected).
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// Error for [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// The sending half; clonable for multi-producer use.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clonable for multi-consumer (worker pool) use.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().expect("channel poisoned").senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .inner
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut g = self.shared.inner.lock().expect("channel poisoned");
            g.senders -= 1;
            if g.senders == 0 {
                // Wake blocked receivers so they can observe disconnection.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut g = self.shared.inner.lock().expect("channel poisoned");
            g.receivers -= 1;
            if g.receivers == 0 {
                // Wake blocked senders so they can observe disconnection.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Non-blocking send: enqueues, or reports `Full`/`Disconnected`
        /// immediately with the message handed back.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let g = self.shared.inner.lock().expect("channel poisoned");
            if g.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if g.queue.len() >= self.shared.capacity {
                return Err(TrySendError::Full(msg));
            }
            self.shared.push(g, msg);
            Ok(())
        }

        /// Blocking send: waits for space (or for disconnection).
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut g = self.shared.inner.lock().expect("channel poisoned");
            loop {
                if g.receivers == 0 {
                    return Err(SendError(msg));
                }
                if g.queue.len() < self.shared.capacity {
                    self.shared.push(g, msg);
                    return Ok(());
                }
                g.send_waiting += 1;
                g = self.shared.not_full.wait(g).expect("channel poisoned");
                g.send_waiting -= 1;
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.shared
                .inner
                .lock()
                .expect("channel poisoned")
                .queue
                .len()
        }

        /// True when nothing is buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive: drains buffered messages even after all
        /// senders dropped, then reports `RecvError`.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut g = self.shared.inner.lock().expect("channel poisoned");
            loop {
                if !g.queue.is_empty() {
                    return Ok(self.shared.pop(g));
                }
                if g.senders == 0 {
                    return Err(RecvError);
                }
                g.recv_waiting += 1;
                g = self.shared.not_empty.wait(g).expect("channel poisoned");
                g.recv_waiting -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let g = self.shared.inner.lock().expect("channel poisoned");
            if !g.queue.is_empty() {
                return Ok(self.shared.pop(g));
            }
            if g.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive with a deadline; used for idle polls that must still
        /// notice shutdown flags.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut g = self.shared.inner.lock().expect("channel poisoned");
            loop {
                if !g.queue.is_empty() {
                    return Ok(self.shared.pop(g));
                }
                if g.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                g.recv_waiting += 1;
                let (guard, res) = self
                    .shared
                    .not_empty
                    .wait_timeout(g, remaining)
                    .expect("channel poisoned");
                g = guard;
                g.recv_waiting -= 1;
                if res.timed_out() && g.queue.is_empty() {
                    if g.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.shared
                .inner
                .lock()
                .expect("channel poisoned")
                .queue
                .len()
        }

        /// True when nothing is buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Creates a bounded channel with space for `capacity` messages.
    /// A zero capacity is rounded up to one (this shim has no rendezvous
    /// channels; callers wanting "as small as possible" still make
    /// progress).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity.clamp(1, 1024)),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_borrows() {
        let data = [1u64, 2, 3, 4];
        let mut left = 0;
        let mut right = 0;
        super::thread::scope(|s| {
            let hl = s.spawn(|_| data[..2].iter().sum::<u64>());
            let hr = s.spawn(|_| data[2..].iter().sum::<u64>());
            left = hl.join().expect("left");
            right = hr.join().expect("right");
        })
        .expect("scope");
        assert_eq!(left + right, 10);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        let out = super::thread::scope(|s| {
            let h = s.spawn(|s2| {
                let inner = s2.spawn(|_| 21u32);
                inner.join().expect("inner") * 2
            });
            h.join().expect("outer")
        })
        .expect("scope");
        assert_eq!(out, 42);
    }

    mod channel {
        use crate::channel::*;
        use std::time::Duration;

        #[test]
        fn try_send_sheds_at_capacity() {
            let (tx, rx) = bounded::<u32>(2);
            assert_eq!(tx.try_send(1), Ok(()));
            assert_eq!(tx.try_send(2), Ok(()));
            match tx.try_send(3) {
                Err(TrySendError::Full(v)) => assert_eq!(v, 3),
                other => panic!("expected Full, got {other:?}"),
            }
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(tx.try_send(3), Ok(()));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Ok(3));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnection_drains_then_errors() {
            let (tx, rx) = bounded::<u32>(4);
            tx.try_send(7).unwrap();
            tx.try_send(8).unwrap();
            drop(tx);
            // Buffered messages survive sender disconnect…
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.try_recv(), Ok(8));
            // …then the disconnect is reported.
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_fails_fast_without_receivers() {
            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
            match tx.try_send(6) {
                Err(TrySendError::Disconnected(v)) => assert_eq!(v, 6),
                other => panic!("expected Disconnected, got {other:?}"),
            }
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.try_send(9).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        }

        #[test]
        fn mpmc_across_threads_delivers_everything() {
            let (tx, rx) = bounded::<u64>(8);
            let total: u64 = std::thread::scope(|s| {
                let mut sums = Vec::new();
                for _ in 0..3 {
                    let rx = rx.clone();
                    sums.push(s.spawn(move || {
                        let mut sum = 0u64;
                        while let Ok(v) = rx.recv() {
                            sum += v;
                        }
                        sum
                    }));
                }
                drop(rx);
                std::thread::scope(|p| {
                    for t in 0..4 {
                        let tx = tx.clone();
                        p.spawn(move || {
                            for i in 0..100u64 {
                                tx.send(t * 100 + i).unwrap();
                            }
                        });
                    }
                });
                drop(tx);
                sums.into_iter().map(|h| h.join().unwrap()).sum()
            });
            // 4 producers × sum over t*100+i for i in 0..100
            let expect: u64 = (0..4u64)
                .flat_map(|t| (0..100u64).map(move |i| t * 100 + i))
                .sum();
            assert_eq!(total, expect);
        }

        #[test]
        fn blocking_send_waits_for_space() {
            let (tx, rx) = bounded::<u32>(1);
            tx.try_send(1).unwrap();
            std::thread::scope(|s| {
                let h = s.spawn(|| tx.send(2));
                std::thread::sleep(Duration::from_millis(10));
                assert_eq!(rx.recv(), Ok(1));
                h.join().unwrap().unwrap();
                assert_eq!(rx.recv(), Ok(2));
            });
        }
    }
}
