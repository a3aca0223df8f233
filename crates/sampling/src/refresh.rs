//! Refresh scheduling: which databases deserve this round's re-probe
//! budget.
//!
//! Content summaries are estimates from samples (Section 2 of the paper)
//! and decay as the underlying databases drift, so the serving tier
//! re-probes a few databases per round instead of re-freezing the world.
//! The scheduler decides *which* few. The policy blends
//!
//! * **staleness** — rounds since a database was last re-probed; every
//!   database eventually comes up (no starvation), and
//! * **uncertainty** — databases whose sample covers a smaller fraction
//!   of the estimated database size get priority, in the spirit of
//!   stratified utility sampling: the worse the current estimate, the
//!   more a probe buys.
//!
//! Ties break round-robin from a rotating cursor, so a cold start (all
//! priorities equal) degrades to exact round-robin coverage. The whole
//! schedule is a pure function of `(seed, budget, coverage inputs)` —
//! no RNG is consumed here, the seed only rotates the starting cursor —
//! so a replayed refresh run picks the same databases in the same order,
//! which is what keeps delta chains reproducible.

/// Deterministic, budgeted picker of databases to re-probe.
#[derive(Debug, Clone)]
pub struct RefreshScheduler {
    /// Databases re-probed per round (at most).
    budget: usize,
    /// Round-robin tie-break cursor; rotated past each round's picks.
    cursor: usize,
    /// Rounds issued so far; `next_round` pre-increments, so the first
    /// round is 1 and `last[db] == 0` means "never re-probed".
    round: u64,
    /// Round each database was last picked (0 = never).
    last: Vec<u64>,
    /// Sample coverage estimate per database, clamped to `[0, 1]`;
    /// lower coverage → higher priority.
    coverage: Vec<f64>,
    /// Databases the caller can actually re-probe (has a probe source).
    eligible: Vec<bool>,
    /// This round's picks with the round each was last picked before it,
    /// so a probe that fails can be [`deferred`](Self::defer).
    previous: Vec<(usize, u64)>,
}

impl RefreshScheduler {
    /// A scheduler over `n` databases picking at most `budget` per
    /// round. The seed only chooses where the round-robin cursor starts,
    /// so two runs with the same seed replay the same schedule.
    pub fn new(n: usize, budget: usize, seed: u64) -> RefreshScheduler {
        let cursor = if n == 0 {
            0
        } else {
            (seed % n as u64) as usize
        };
        RefreshScheduler {
            budget,
            cursor,
            round: 0,
            last: vec![0; n],
            coverage: vec![0.0; n],
            eligible: vec![true; n],
            previous: Vec::new(),
        }
    }

    /// Number of databases under management.
    pub fn len(&self) -> usize {
        self.last.len()
    }

    /// True when the scheduler manages no databases.
    pub fn is_empty(&self) -> bool {
        self.last.is_empty()
    }

    /// Rounds issued so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Mark whether `db` can be re-probed at all (defaults to true).
    pub fn set_eligible(&mut self, db: usize, eligible: bool) {
        self.eligible[db] = eligible;
    }

    /// Record `db`'s sample coverage — `sample_size / |D̂|`, or any
    /// other fraction-of-database-seen estimate. Non-finite values are
    /// treated as full coverage (no uncertainty bonus).
    pub fn set_coverage(&mut self, db: usize, coverage: f64) {
        self.coverage[db] = if coverage.is_finite() {
            coverage.clamp(0.0, 1.0)
        } else {
            1.0
        };
    }

    /// The priority `db` would carry in the *next* round: staleness
    /// scaled up by estimate uncertainty. Strictly positive, strictly
    /// increasing in rounds-since-refresh.
    pub fn priority(&self, db: usize) -> f64 {
        let staleness = (self.round + 1 - self.last[db]) as f64;
        staleness * (2.0 - self.coverage[db])
    }

    /// Pick this round's databases: the `budget` highest-priority
    /// eligible databases, ties broken round-robin from the cursor.
    /// Returned ascending by database index. Picked databases have
    /// their staleness reset; the cursor rotates past the picks.
    pub fn next_round(&mut self) -> Vec<usize> {
        self.round += 1;
        let n = self.len();
        if n == 0 || self.budget == 0 {
            return Vec::new();
        }
        let rotated = |db: usize| (db + n - self.cursor) % n;
        // `self.round` is already the round being scheduled, so staleness
        // is `round - last` here (a database picked last round carries 1).
        let prio = |db: usize| ((self.round - self.last[db]) as f64) * (2.0 - self.coverage[db]);
        let mut order: Vec<usize> = (0..n).filter(|&db| self.eligible[db]).collect();
        order.sort_by(|&a, &b| {
            prio(b)
                .partial_cmp(&prio(a))
                .expect("priorities are finite")
                .then_with(|| rotated(a).cmp(&rotated(b)))
        });
        order.truncate(self.budget);
        let mut picks = order;
        if let Some(&next_cursor) = picks.iter().max_by_key(|&&db| rotated(db)) {
            self.cursor = (next_cursor + 1) % n;
        }
        self.previous.clear();
        for &db in &picks {
            self.previous.push((db, self.last[db]));
            self.last[db] = self.round;
        }
        picks.sort_unstable();
        picks
    }

    /// Undo this round's pick of `db` because its probe failed: its
    /// staleness is restored and keeps growing, so it stays eligible and
    /// comes up again with the priority it had earned. No-op for a
    /// database this round did not pick.
    pub fn defer(&mut self, db: usize) {
        if let Some(&(_, last)) = self.previous.iter().find(|&&(d, _)| d == db) {
            self.last[db] = last;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_is_exact_round_robin() {
        let mut s = RefreshScheduler::new(5, 2, 0);
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
            let mut s = RefreshScheduler::new(7, 3, seed);
            (0..4).map(|_| s.next_round()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        // A different seed rotates the cursor differently on the first
        // (all-ties) round.
        assert_ne!(run(0)[0], run(3)[0]);
    }

    #[test]
    fn low_coverage_jumps_the_queue() {
        let mut s = RefreshScheduler::new(4, 1, 0);
        // db 3 has seen almost none of its database; the rest are fully
        // covered. Staleness ties, so uncertainty decides.
        for db in 0..3 {
            s.set_coverage(db, 1.0);
        }
        s.set_coverage(3, 0.01);
        assert_eq!(s.next_round(), vec![3]);
        // Once refreshed, its staleness resets and the stale full-coverage
        // databases overtake it again.
        assert_eq!(s.next_round(), vec![0]);
    }

    #[test]
    fn a_deferred_pick_keeps_aging() {
        let mut s = RefreshScheduler::new(3, 1, 0);
        assert_eq!(s.next_round(), vec![0]);
        s.defer(0);
        // Database 0's probe failed: it is as stale as everything else
        // and, ties breaking past the cursor, waits its turn...
        assert_eq!(s.next_round(), vec![1]);
        assert_eq!(s.next_round(), vec![2]);
        // ...but with two rounds more staleness than the others it comes
        // up next, where a completed pick would have waited a full cycle.
        assert!((s.priority(0) - 4.0 * 2.0).abs() < 1e-12);
        assert_eq!(s.next_round(), vec![0]);
        s.defer(2); // not picked this round: nothing to undo
        assert!((s.priority(2) - 2.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn ineligible_databases_are_never_picked() {
        let mut s = RefreshScheduler::new(3, 3, 0);
        s.set_eligible(1, false);
        for _ in 0..5 {
            assert!(!s.next_round().contains(&1));
        }
    }

    #[test]
    fn no_starvation_under_skewed_coverage() {
        let mut s = RefreshScheduler::new(6, 1, 1);
        s.set_coverage(0, 0.0); // permanently most-uncertain
        for db in 1..6 {
            s.set_coverage(db, 0.9);
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
        assert!(RefreshScheduler::new(0, 4, 9).next_round().is_empty());
        assert!(RefreshScheduler::new(4, 0, 9).next_round().is_empty());
        let mut s = RefreshScheduler::new(3, 8, 0);
        assert_eq!(s.next_round(), vec![0, 1, 2], "budget beyond n picks all");
    }
}
