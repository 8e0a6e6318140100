//! Offline subset of the `crossbeam` crate API (see `shims/README.md`).
//!
//! Provides `crossbeam::channel` with unbounded multi-producer
//! **multi-consumer** channels: cloneable receivers, which std's mpsc
//! cannot offer, and disconnect in both directions. Implemented as a
//! mutex-protected deque plus a condvar; the SEM daemon uses it for
//! its per-connection reply writers and the fault proxy for its
//! delayed-frame queues.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when a message arrives or the last sender leaves.
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Sending half of a channel. Cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel. Cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned when all receivers are gone; carries the message.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned when the channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails iff every receiver has been
        /// dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(value);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake receivers so they observe disconnect.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next message, blocking while the channel is
        /// empty; fails once it is empty *and* every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::unbounded;

    #[test]
    fn multi_consumer_fan_out() {
        let (tx, rx) = unbounded::<u32>();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += u64::from(v);
                    }
                    sum
                })
            })
            .collect();
        drop(rx);
        for v in 1..=100 {
            tx.send(v).unwrap();
        }
        drop(tx);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 5050);
    }

    #[test]
    fn disconnect_propagates_both_ways() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
        let (tx2, rx2) = unbounded::<u8>();
        tx2.send(9).unwrap();
        drop(tx2);
        assert_eq!(rx2.recv(), Ok(9));
        assert!(rx2.recv().is_err());
    }
}
