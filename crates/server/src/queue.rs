//! The daemon's bounded admission queue and the reactor's completion
//! mailbox.
//!
//! The reactor pushes parsed requests with [`BoundedQueue::try_push`],
//! which **fails immediately when the queue is full** — that failure is the admission-control
//! signal the caller turns into `503` + `Retry-After`. Workers block on
//! [`BoundedQueue::pop`]. Closing the queue lets workers drain what was
//! already admitted, then return `None` so they can exit.
//!
//! [`CompletionQueue`] carries finished work the other way: workers push
//! (then ring the reactor's wakeup eventfd), the reactor drains without ever
//! blocking. It is unbounded because its depth is already bounded by the
//! admission queue's capacity — every completion corresponds to an
//! admitted task.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item`, or give it back when the queue is full or closed.
    /// On success returns the queue depth after the push.
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.available.notify_one();
        Ok(depth)
    }

    /// Block until an item is available (`Some`) or the queue is closed
    /// *and* drained (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Close the queue: pending items stay poppable, new pushes fail, and
    /// blocked poppers wake up.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Nonblocking MPSC mailbox into a reactor: worker completions, and
/// connections another reactor placed on it.
pub struct CompletionQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> CompletionQueue<T> {
    pub fn new() -> Self {
        CompletionQueue {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Post one completion. The caller must separately wake the consumer
    /// (the queue itself never blocks or signals).
    pub fn push(&self, item: T) {
        self.items
            .lock()
            .expect("completions poisoned")
            .push_back(item);
    }

    /// Take the oldest pending completion, if any. Never blocks.
    pub fn pop(&self) -> Option<T> {
        self.items.lock().expect("completions poisoned").pop_front()
    }
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        CompletionQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn completion_queue_is_fifo_and_nonblocking() {
        let q = CompletionQueue::new();
        assert_eq!(q.pop(), None);
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        q.push(3);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(2));
    }

    #[test]
    fn close_drains_then_wakes() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue rejects");
        assert_eq!(q.pop(), Some(7), "admitted items drain after close");
        assert_eq!(q.pop(), None);

        // A popper blocked on an empty queue wakes on close.
        let q2 = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Err(2));
    }

    #[test]
    fn concurrent_hammer_loses_and_duplicates_nothing() {
        // Producers spin items through a tiny queue while consumers drain
        // it; after close-and-join, every pushed item must have been
        // popped exactly once.
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u32 = 500;

        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut item = p as u32 * PER_PRODUCER + i;
                        // Retry on full — admission control is the
                        // caller's concern here, losing items is not.
                        loop {
                            match q.try_push(item) {
                                Ok(_) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..PRODUCERS as u32 * PER_PRODUCER).collect();
        assert_eq!(all, expected, "items lost or duplicated under contention");
    }
}
