//! The refresh writer beside the readers: refresh rounds on a fixed
//! schedule while a phase runs, and when each round's new catalog became
//! visible to the readers.

use std::time::{Duration, Instant};

use crate::layers::{Refresher, Round};
use crate::load::Sample;

/// A round starts no later than this before its phase ends, so the swap
/// it triggers can still be seen by that phase's readers.
const LAST_ROUND_MARGIN: Duration = Duration::from_millis(250);

/// How many rounds [`beside`] fits into a phase of `duration`.
pub fn rounds_in(duration: Duration, period: Duration) -> usize {
    (0..)
        .take_while(|&r| round_offset(r, period) + LAST_ROUND_MARGIN <= duration)
        .count()
}

/// Rounds fall mid-period: at 0.5, 1.5, 2.5 … periods into the phase.
fn round_offset(round: usize, period: Duration) -> Duration {
    period.mul_f64(round as f64 + 0.5)
}

/// Run `phase` with the refresh writer beside it: one round every
/// `period` for the phase's nominal `duration`. Returns the phase's
/// result and the rounds performed.
pub fn beside<T>(
    refresher: &mut Refresher,
    period: Duration,
    duration: Duration,
    phase: impl FnOnce() -> T,
) -> (T, std::io::Result<Vec<Round>>) {
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let start = Instant::now();
            let mut rounds = Vec::new();
            for r in 0..rounds_in(duration, period) {
                let due = start + round_offset(r, period);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                rounds.push(refresher.round()?);
            }
            Ok(rounds)
        });
        let out = phase();
        (out, writer.join().expect("refresh writer panicked"))
    })
}

/// For each round: milliseconds from `append_round` returning to the due
/// time of the first reader request answered from a newer generation than
/// any answer completed before the append. `None` for a round no reader
/// saw swap in.
pub fn swap_visible_ms(rounds: &[Round], samples: &[Sample]) -> Vec<Option<f64>> {
    let mut by_done: Vec<&Sample> = samples.iter().filter(|s| s.generation.is_some()).collect();
    by_done.sort_by_key(|s| s.done);
    let mut by_due = by_done.clone();
    by_due.sort_by_key(|s| s.due);
    rounds
        .iter()
        .map(|round| {
            let answered_before = by_done.partition_point(|s| s.done <= round.appended);
            let newest_before = by_done[..answered_before]
                .iter()
                .filter_map(|s| s.generation)
                .max()?;
            by_due
                .iter()
                .find(|s| s.done > round.appended && s.generation > Some(newest_before))
                .map(|s| {
                    s.due
                        .saturating_duration_since(round.appended)
                        .as_secs_f64()
                        * 1e3
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(origin: Instant, due_ms: u64, generation: u64) -> Sample {
        let due = origin + Duration::from_millis(due_ms);
        Sample {
            due,
            done: due + Duration::from_millis(1),
            late_ns: 0,
            generation: Some(generation),
        }
    }

    fn round(origin: Instant, appended_ms: u64) -> Round {
        let appended = origin + Duration::from_millis(appended_ms);
        Round {
            started: appended - Duration::from_millis(5),
            appended,
            apply_ns: 4_000_000,
            append_ns: 1_000_000,
            delta_bytes: 1,
        }
    }

    #[test]
    fn swap_is_visible_at_the_first_answer_from_a_newer_generation() {
        let origin = Instant::now();
        // Readers every 10 ms; generation 2 appears at 140 ms, 3 at 330 ms.
        let samples: Vec<Sample> = (0..50)
            .map(|i| {
                let at = i * 10;
                sample(
                    origin,
                    at,
                    if at < 140 {
                        1
                    } else if at < 330 {
                        2
                    } else {
                        3
                    },
                )
            })
            .collect();
        let rounds = [round(origin, 75), round(origin, 255), round(origin, 480)];
        let visible = swap_visible_ms(&rounds, &samples);
        assert_eq!(visible[0], Some(65.0));
        assert_eq!(visible[1], Some(75.0));
        assert_eq!(visible[2], None, "no reader saw the last swap");
    }

    #[test]
    fn schedule_leaves_room_for_the_last_swap() {
        let period = Duration::from_millis(300);
        assert_eq!(rounds_in(Duration::from_millis(3600), period), 11);
        assert_eq!(rounds_in(Duration::from_millis(399), period), 0);
        assert_eq!(rounds_in(Duration::from_millis(400), period), 1);
    }
}
