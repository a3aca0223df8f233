//! The reactor's timer wheel: absolute per-connection deadlines (request
//! deadline, idle timeout, write grace, linger bound) hashed into coarse
//! slots so arming, firing, and lazy cancellation are all O(1).
//!
//! Cancellation is lazy by design: the wheel never removes an entry
//! before it is due. The reactor keeps one live entry per slab slot,
//! tokened by the slot index and tagged with the slot's `timer_gen`; an
//! earlier due pushes a new entry and bumps the generation, and a firing
//! entry whose generation no longer matches is simply dropped. A later
//! due pushes nothing: when the live entry fires, the reactor finds the
//! slot's connection — possibly a later one than the entry was pushed
//! for — wanting a later time, and re-arms for it. A timer due
//! beyond one wheel rotation parks in its slot and is re-armed on each
//! visit until its absolute due time arrives (implicit rounds), so no
//! separate overflow list is needed.

use std::time::{Duration, Instant};

#[derive(Debug)]
struct Entry {
    due: Instant,
    token: u64,
    gen: u64,
}

/// A fixed-slot timer wheel over `Instant`s.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    tick: Duration,
    /// Slot `advance` will drain next.
    cursor: usize,
    /// Wall-clock time at which `cursor`'s slot is due to drain.
    boundary: Instant,
    live: usize,
}

impl TimerWheel {
    /// A wheel of `slots` ticks of `tick` each, anchored at `now`.
    pub fn new(tick: Duration, slots: usize, now: Instant) -> TimerWheel {
        let slots = slots.max(2);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick: tick.max(Duration::from_millis(1)),
            cursor: 0,
            boundary: now + tick,
            live: 0,
        }
    }

    /// Arm a timer firing at `due` for `(token, gen)`. A `due` already in
    /// the past fires on the next tick — never synchronously, so callers
    /// can arm from any state without re-entrancy.
    pub fn arm(&mut self, due: Instant, token: u64, gen: u64, _now: Instant) {
        // The `cursor` slot drains when `boundary` passes, slot
        // `cursor + k` when `boundary + k·tick` does; pick the first
        // draining at or after `due` (rounded up). Entries further out
        // than one rotation wrap and ride implicit rounds — `advance`
        // re-arms them on each premature visit.
        let ticks = {
            let past_boundary = due.saturating_duration_since(self.boundary);
            (past_boundary.as_nanos().div_ceil(self.tick.as_nanos())) as usize
        };
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push(Entry { due, token, gen });
        self.live += 1;
    }

    /// Drain every slot whose boundary has passed, appending fired
    /// `(token, gen)` pairs to `expired`. Entries visited before their
    /// absolute due time (wheel wrap-around) are re-armed, not fired.
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<(u64, u64)>) {
        while self.boundary <= now {
            let drained = std::mem::take(&mut self.slots[self.cursor]);
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.boundary += self.tick;
            for entry in drained {
                if entry.due <= now {
                    self.live -= 1;
                    expired.push((entry.token, entry.gen));
                } else {
                    self.live -= 1; // re-arm re-increments
                    self.arm(entry.due, entry.token, entry.gen, now);
                }
            }
        }
    }

    /// How long `wait` may block before the next slot is due, or `None`
    /// when no timers are armed (block indefinitely).
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.live == 0 {
            return None;
        }
        Some(self.boundary.saturating_duration_since(now))
    }

    /// Number of armed (live) entries, stale generations included.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(wheel: &mut TimerWheel, now: Instant) -> Vec<(u64, u64)> {
        let mut expired = Vec::new();
        wheel.advance(now, &mut expired);
        expired
    }

    #[test]
    fn fires_at_the_right_tick_and_not_before() {
        let t0 = Instant::now();
        let tick = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(tick, 16, t0);
        wheel.arm(t0 + Duration::from_millis(35), 1, 1, t0);

        assert!(fired(&mut wheel, t0 + Duration::from_millis(30)).is_empty());
        assert_eq!(wheel.len(), 1);
        assert_eq!(fired(&mut wheel, t0 + Duration::from_millis(41)), [(1, 1)]);
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_timeout(t0), None);
    }

    #[test]
    fn entries_beyond_one_rotation_wait_their_turn() {
        let t0 = Instant::now();
        let tick = Duration::from_millis(10);
        // 4 slots → 40ms rotation; arm 95ms out: two wrap-arounds.
        let mut wheel = TimerWheel::new(tick, 4, t0);
        wheel.arm(t0 + Duration::from_millis(95), 9, 3, t0);

        assert!(fired(&mut wheel, t0 + Duration::from_millis(50)).is_empty());
        assert!(fired(&mut wheel, t0 + Duration::from_millis(90)).is_empty());
        assert_eq!(wheel.len(), 1, "parked entry must stay live");
        assert_eq!(fired(&mut wheel, t0 + Duration::from_millis(101)), [(9, 3)]);
    }

    #[test]
    fn past_due_arms_fire_on_the_next_tick() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, t0);
        wheel.arm(t0, 2, 1, t0); // already due
        assert!(
            wheel.next_timeout(t0).unwrap() <= Duration::from_millis(10),
            "past-due entry must make the wheel wake within one tick"
        );
        assert_eq!(fired(&mut wheel, t0 + Duration::from_millis(11)), [(2, 1)]);
    }

    #[test]
    fn implicit_rounds_survive_many_rotations_and_slot_sharing() {
        let t0 = Instant::now();
        let tick = Duration::from_millis(10);
        // 4 slots → 40ms rotation. 410ms out = 10+ full rotations of
        // parking; it lands in the same slot as a 10ms timer, and the
        // short one must fire on time without dislodging the parked one.
        let mut wheel = TimerWheel::new(tick, 4, t0);
        wheel.arm(t0 + Duration::from_millis(410), 1, 1, t0);
        wheel.arm(t0 + Duration::from_millis(10), 2, 1, t0);

        assert_eq!(fired(&mut wheel, t0 + Duration::from_millis(11)), [(2, 1)]);
        // Walk whole rotations one tick at a time: the parked entry must
        // ride every premature visit without firing or leaking.
        let mut now = t0 + Duration::from_millis(11);
        while now + tick < t0 + Duration::from_millis(410) {
            now += tick;
            assert!(fired(&mut wheel, now).is_empty(), "early fire at {now:?}");
            assert_eq!(wheel.len(), 1, "parked entry must stay live");
            assert!(
                wheel.next_timeout(now).is_some(),
                "a parked entry must keep the wheel waking"
            );
        }
        assert_eq!(fired(&mut wheel, t0 + Duration::from_millis(421)), [(1, 1)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn stale_generation_of_a_fired_timer_stays_inert() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, t0);
        // Generation 1 fires; the reactor then re-arms the same token
        // with a bumped generation (lazy cancellation of gen 1). The
        // fired gen-1 entry is gone from the wheel — it must not fire
        // again, and it must not block or corrupt gen 2.
        wheel.arm(t0 + Duration::from_millis(15), 7, 1, t0);
        assert_eq!(fired(&mut wheel, t0 + Duration::from_millis(21)), [(7, 1)]);
        assert!(wheel.is_empty());

        let now = t0 + Duration::from_millis(21);
        wheel.arm(now + Duration::from_millis(15), 7, 2, now);
        let late = now + Duration::from_millis(100);
        assert_eq!(
            fired(&mut wheel, late),
            [(7, 2)],
            "only the live generation fires; the fired one never repeats"
        );
        assert!(wheel.is_empty());
        // Lazy cancellation the other way: two generations armed at
        // once. The wheel reports both (it cannot know which is stale);
        // each carries its own gen so the reactor can drop the old one.
        wheel.arm(late + Duration::from_millis(5), 9, 3, late);
        wheel.arm(late + Duration::from_millis(5), 9, 4, late);
        let mut pairs = fired(&mut wheel, late + Duration::from_millis(11));
        pairs.sort_unstable();
        assert_eq!(pairs, [(9, 3), (9, 4)]);
        assert!(wheel.is_empty(), "stale generations must not leak `live`");
    }

    #[test]
    fn mass_expiry_drains_in_a_single_advance() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 16, t0);
        // Thousands of deadlines landing in the same tick — the
        // stalled-accept recovery shape. One `advance` must drain them
        // all, leave the wheel empty, and stop asking for wakeups.
        const N: u64 = 5000;
        for i in 0..N {
            wheel.arm(t0 + Duration::from_millis(7), i, i ^ 0x5a, t0);
        }
        assert_eq!(wheel.len(), N as usize);
        let mut expired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(20), &mut expired);
        assert_eq!(expired.len(), N as usize, "everything fires in one call");
        let mut tokens: Vec<u64> = expired.iter().map(|&(t, _)| t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..N).collect::<Vec<_>>());
        assert!(expired.iter().all(|&(t, g)| g == t ^ 0x5a));
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_timeout(t0 + Duration::from_millis(20)), None);
    }

    #[test]
    fn many_timers_fire_exactly_once_in_due_order_windows() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(5), 8, t0);
        for i in 0..100u64 {
            wheel.arm(t0 + Duration::from_millis(3 * i + 1), i, i * 7, t0);
        }
        assert_eq!(wheel.len(), 100);
        let mut all = Vec::new();
        let mut now = t0;
        for _ in 0..70 {
            now += Duration::from_millis(5);
            wheel.advance(now, &mut all);
        }
        assert_eq!(all.len(), 100, "every timer fires exactly once");
        let mut tokens: Vec<u64> = all.iter().map(|&(t, _)| t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..100).collect::<Vec<_>>());
        assert!(all.iter().all(|&(t, g)| g == t * 7), "gens travel intact");
        assert!(wheel.is_empty());
    }
}
