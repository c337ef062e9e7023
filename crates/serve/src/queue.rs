//! A bounded multi-producer/multi-consumer queue on `Mutex` + `Condvar`.
//!
//! `std::sync::mpsc` is single-consumer, so it cannot feed a pool of worker
//! threads from one acceptor; this is the few dozen lines that can. The
//! queue is the server's backpressure point: `try_push` fails immediately
//! when full (the acceptor turns that into a `503`), and `pop` blocks until
//! an item arrives or the queue is closed — draining remaining items first,
//! which is what makes shutdown complete in-flight work instead of dropping
//! it. Every critical section is one `VecDeque` push or pop or one flag
//! store, so the state stays valid if a holder panics and the lock recovers
//! a poisoned guard instead of failing every later call.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. Shared via `Arc`; all methods take `&self`.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
    /// Deepest the queue has ever been — the headroom gauge that tells an
    /// operator how close a load pattern came to the 503 bound.
    high_water: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Enqueue without blocking. Returns the item back on a full or closed
    /// queue so the caller can reject it (503) instead of stalling.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.closed || s.items.len() >= self.capacity {
            return Err(item);
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue, blocking until an item is available. Returns `None` only
    /// once the queue is closed **and** empty, so close + pop-until-None is
    /// a complete drain.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self
                .available
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: future pushes fail, poppers drain what remains and
    /// then observe `None`.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
    }

    /// Items currently waiting (for the queue-depth gauge).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_queue() {
        let q = BoundedQueue::new(4);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = q.state.lock();
                panic!("poison the queue lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(q.state.is_poisoned());
        assert!(q.try_push(7).is_ok());
        assert_eq!(q.len(), 1);
        q.close();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full_and_drains_on_close() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.high_water(), 2, "rejected pushes don't raise the mark");
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        // Close drains remaining items before reporting exhaustion.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn feeds_multiple_consumers_exactly_once() {
        let q = Arc::new(BoundedQueue::new(64));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut pushed = 0;
        while pushed < 200 {
            if q.try_push(pushed).is_ok() {
                pushed += 1;
            } else {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
