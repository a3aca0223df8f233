//! Thread-count-invariant work scheduling.
//!
//! The fan-out discipline used throughout the workspace: work items are
//! independent, each gets its own RNG derived from a base seed and its
//! index, and results come back in index order. Because no RNG is shared
//! across items, `threads = 1` and `threads = 32` produce bit-identical
//! output. Database profiling fans out over databases; the broker's
//! selection engine fans out over queries.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-item RNG: decorrelated from neighbours via SplitMix64-style
/// mixing of the index into the base seed.
pub fn db_rng(base_seed: u64, index: usize) -> StdRng {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Run `work(index)` for every index in `0..n` over `threads` scoped
/// threads, collecting the results in index order.
pub fn fan_out<T: Send>(n: usize, threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots_ptr = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let work = &work;
            handles.push(scope.spawn(move || {
                let mut produced = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return produced;
                    }
                    produced.push((i, work(i)));
                }
            }));
        }
        for handle in handles {
            let produced = handle.join().expect("fan_out worker panicked");
            let mut guard = slots_ptr.lock().expect("slot mutex poisoned");
            for (i, value) in produced {
                guard[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

/// Run `work(index)` for every index in `0..n` over at most `threads`
/// scoped threads, assigning each worker one *contiguous chunk* of
/// indices instead of pulling items one at a time off a shared counter.
///
/// Per-item dispatch (see [`fan_out`]) is the right discipline when item
/// costs vary wildly — database profiling — but for large batches of
/// cheap, similar items (query routing) the atomic claim per item and the
/// per-item result shuffling dominate. Chunking amortizes both to one
/// claim per worker. Results still come back in index order and, because
/// each item derives its own RNG from its index, the output is identical
/// to `fan_out`'s for the same `work`.
pub fn fan_out_chunks<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(&work).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Vec<T>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let work = &work;
                let start = w * chunk;
                let end = ((w + 1) * chunk).min(n);
                scope.spawn(move || (start..end).map(work).collect::<Vec<T>>())
            })
            .collect();
        for handle in handles {
            out.push(handle.join().expect("fan_out_chunks worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn fan_out_preserves_index_order() {
        let out = fan_out(100, 7, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_handles_empty_and_single() {
        assert!(fan_out(0, 4, |i| i).is_empty());
        assert_eq!(fan_out(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn fan_out_chunks_matches_fan_out() {
        for n in [0usize, 1, 5, 97, 100] {
            for threads in [1usize, 3, 8, 200] {
                assert_eq!(
                    fan_out_chunks(n, threads, |i| i * 7 + 1),
                    fan_out(n, threads, |i| i * 7 + 1),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn db_rng_streams_are_index_dependent_and_reproducible() {
        let mut a = db_rng(42, 3);
        let mut b = db_rng(42, 4);
        let mut a2 = db_rng(42, 3);
        let first_a = a.next_u64();
        assert_ne!(first_a, b.next_u64());
        assert_eq!(first_a, a2.next_u64());
    }
}
