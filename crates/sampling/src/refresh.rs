//! Refresh scheduling: which databases deserve this round's re-probe
//! budget.
//!
//! Content summaries are estimates from samples (Section 2 of the paper)
//! and decay as the underlying databases drift, so the serving tier
//! re-probes a few databases per round instead of re-freezing the world.
//! [`pick_round`] decides *which* few. The policy blends
//!
//! * **staleness** — chain generations since a database was last
//!   patched; every database eventually comes up (no starvation), and
//! * **uncertainty** — databases whose sample covers a smaller fraction
//!   of the estimated database size get priority, in the spirit of
//!   stratified utility sampling: the worse the current estimate, the
//!   more a probe buys.
//!
//! Ties break by database index, rotated by the seed and the chain
//! generation, so a cold start (all priorities equal) degrades to exact
//! round-robin coverage. A round's picks are a pure function of the
//! chain tip — its generation, the generation each database was last
//! patched at, the sample coverages — plus the seed, the budget and
//! which databases can be re-probed. Nothing is carried between rounds
//! but the chain itself, so `k` refresh runs of one round pick what one
//! run of `k` rounds picks, and a replayed refresh writes the same
//! deltas.

/// One database's standing when a round is picked.
#[derive(Debug, Clone, Copy)]
pub struct Standing {
    /// Generation of the last chain file that patched the database
    /// (0 for the base).
    pub patched_at: u64,
    /// Sample coverage — `sample_size / |D̂|`, or any other
    /// fraction-of-database-seen estimate. Clamped to `[0, 1]`; a
    /// non-finite value counts as full coverage (no uncertainty bonus).
    pub coverage: f64,
    /// Whether the caller can re-probe the database this round.
    pub eligible: bool,
}

/// Pick the round that would extend a chain at tip `generation`: the
/// `budget` eligible databases of highest priority `staleness × (2 −
/// coverage)`, where staleness is `generation + 1 − patched_at`. Ties
/// break by index, rotated so that `(seed + generation × budget) mod n`
/// comes first. Returned ascending by database index.
pub fn pick_round(dbs: &[Standing], generation: u64, budget: usize, seed: u64) -> Vec<usize> {
    let n = dbs.len();
    if n == 0 || budget == 0 {
        return Vec::new();
    }
    let start = (u128::from(seed) + u128::from(generation) * budget as u128) % n as u128;
    let rotated = |db: usize| (db + n - start as usize) % n;
    let priority = |db: usize| {
        let s = &dbs[db];
        let coverage = if s.coverage.is_finite() {
            s.coverage.clamp(0.0, 1.0)
        } else {
            1.0
        };
        ((generation + 1).saturating_sub(s.patched_at)) as f64 * (2.0 - coverage)
    };
    let mut picks: Vec<usize> = (0..n).filter(|&db| dbs[db].eligible).collect();
    picks.sort_by(|&a, &b| {
        priority(b)
            .total_cmp(&priority(a))
            .then_with(|| rotated(a).cmp(&rotated(b)))
    });
    picks.truncate(budget);
    picks.sort_unstable();
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives [`pick_round`] the way `dbselect refresh` does: every round
    /// that picks something appends a generation and records it as the
    /// picks' `patched_at`.
    struct Chain {
        dbs: Vec<Standing>,
        generation: u64,
        budget: usize,
        seed: u64,
    }

    impl Chain {
        fn new(n: usize, budget: usize, seed: u64) -> Chain {
            let fresh = Standing {
                patched_at: 0,
                coverage: 0.0,
                eligible: true,
            };
            Chain {
                dbs: vec![fresh; n],
                generation: 0,
                budget,
                seed,
            }
        }

        fn next_round(&mut self) -> Vec<usize> {
            let picks = pick_round(&self.dbs, self.generation, self.budget, self.seed);
            if !picks.is_empty() {
                self.generation += 1;
                for &db in &picks {
                    self.dbs[db].patched_at = self.generation;
                }
            }
            picks
        }
    }

    #[test]
    fn cold_start_is_exact_round_robin() {
        let mut s = Chain::new(5, 2, 0);
        let mut seen = Vec::new();
        for _ in 0..5 {
            let picks = s.next_round();
            assert_eq!(picks.len(), 2);
            seen.extend(picks);
        }
        // 10 picks over 5 dbs with equal priorities: every db exactly twice.
        for db in 0..5 {
            assert_eq!(seen.iter().filter(|&&d| d == db).count(), 2, "db {db}");
        }
        // And the first three rounds (6 picks) already cover every db —
        // nothing waits out a full extra cycle.
        let first_cycle: std::collections::BTreeSet<_> = seen[..6].iter().copied().collect();
        assert_eq!(first_cycle.len(), 5);
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let run = |seed| {
            let mut s = Chain::new(7, 3, seed);
            (0..4).map(|_| s.next_round()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        // A different seed rotates the tie-break differently on the first
        // (all-ties) round.
        assert_ne!(run(0)[0], run(3)[0]);
    }

    #[test]
    fn low_coverage_jumps_the_queue() {
        let mut s = Chain::new(4, 1, 0);
        // db 3 has seen almost none of its database; the rest are fully
        // covered. Staleness ties, so uncertainty decides.
        for db in 0..3 {
            s.dbs[db].coverage = 1.0;
        }
        s.dbs[3].coverage = 0.01;
        assert_eq!(s.next_round(), vec![3]);
        // Once refreshed, its staleness resets and the stale full-coverage
        // databases overtake it again.
        assert_eq!(s.next_round(), vec![1]);
        // Out-of-range and non-finite coverages are clamped: below zero
        // counts as zero, NaN as full coverage.
        let standing = |coverage| Standing {
            patched_at: 0,
            coverage,
            eligible: true,
        };
        let dbs = [standing(f64::NAN), standing(-3.0), standing(0.0)];
        assert_eq!(pick_round(&dbs, 0, 2, 0), vec![1, 2]);
        let dbs = [standing(0.0), standing(f64::INFINITY), standing(1.0)];
        assert_eq!(pick_round(&dbs, 0, 1, 1), vec![0]);
    }

    #[test]
    fn ineligible_databases_are_never_picked() {
        let mut s = Chain::new(3, 3, 0);
        s.dbs[1].eligible = false;
        for _ in 0..5 {
            assert!(!s.next_round().contains(&1));
        }
    }

    #[test]
    fn no_starvation_under_skewed_coverage() {
        let mut s = Chain::new(6, 1, 1);
        s.dbs[0].coverage = 0.0; // permanently most-uncertain
        for db in 1..6 {
            s.dbs[db].coverage = 0.9;
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..30 {
            for db in s.next_round() {
                seen.insert(db);
            }
        }
        // Staleness grows without bound, so even well-covered databases
        // eventually outrank the uncertain favourite.
        assert_eq!(seen.len(), 6, "every database refreshed at least once");
    }

    #[test]
    fn empty_and_zero_budget_schedulers_yield_nothing() {
        assert!(Chain::new(0, 4, 9).next_round().is_empty());
        assert!(Chain::new(4, 0, 9).next_round().is_empty());
        let mut s = Chain::new(3, 8, 0);
        assert_eq!(s.next_round(), vec![0, 1, 2], "budget beyond n picks all");
        s.dbs.iter_mut().for_each(|db| db.eligible = false);
        assert!(s.next_round().is_empty(), "nothing eligible picks nothing");
    }
}
