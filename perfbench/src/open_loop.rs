//! The open-loop generator: requests are sent on a fixed schedule whether or
//! not earlier ones have been answered, and each is timed from the instant
//! it was *due*, so a stall is charged to every request queued behind it.
//!
//! `threads` generator threads share the schedule round-robin; each sends
//! its next request when it falls due, or at once when it is already late.
//! The generator checks itself: lateness (send minus due) is reported, and
//! [`lateness_growth_ms`] tells a backlog that builds over the run — a
//! generator or service that cannot keep up — from steady jitter.

use std::time::{Duration, Instant};

use crate::stats::median;

/// One request of the schedule, as handed to the call.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Index into the schedule.
    pub index: usize,
    /// When the request was due.
    pub due: Instant,
}

/// When one request was due, sent and answered, relative to the run start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Schedule offset.
    pub due: Duration,
    /// Send offset (never before `due`).
    pub sent: Duration,
    /// Reply offset.
    pub done: Duration,
}

impl Timing {
    /// Latency from due time to reply, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Send lateness (send minus due), in ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// A uniform schedule of `count` requests at `rate` per second.
pub fn uniform_schedule(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Drive `call` over the schedule with `threads` generator threads and
/// return one [`Timing`] and reply per request, in schedule order. Replies
/// are judged by the caller afterwards, outside the timed interval.
pub fn run<T, F>(schedule: &[Duration], threads: usize, call: F) -> Vec<(Timing, T)>
where
    T: Send,
    F: Fn(Slot) -> T + Sync,
{
    let threads = threads.max(1);
    let start = Instant::now();
    let mut timings: Vec<Option<(Timing, T)>> = (0..schedule.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let call = &call;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for index in (t..schedule.len()).step_by(threads) {
                        let due = start + schedule[index];
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now().max(due);
                        let reply = call(Slot { index, due });
                        let done = Instant::now();
                        let timing = Timing {
                            due: schedule[index],
                            sent: sent - start,
                            done: done - start,
                        };
                        mine.push((index, (timing, reply)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (index, entry) in handle.join().expect("generator thread panicked") {
                timings[index] = Some(entry);
            }
        }
    });
    timings
        .into_iter()
        .map(|t| t.expect("every scheduled request ran"))
        .collect()
}

/// How much the median send lateness of the last quarter of the schedule
/// exceeds that of the first quarter, in ms. A generator that keeps up shows
/// jitter around zero; a growing backlog shows as a positive drift.
pub fn lateness_growth_ms(timings: &[Timing]) -> f64 {
    let quarter = (timings.len() / 4).max(1);
    if timings.len() < 2 * quarter {
        return 0.0;
    }
    let lateness =
        |part: &[Timing]| median(&part.iter().map(Timing::lateness_ms).collect::<Vec<_>>());
    lateness(&timings[timings.len() - quarter..]) - lateness(&timings[..quarter])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handler_stall_inflates_the_requests_queued_behind_it() {
        // One generator thread, a request due every millisecond, and a
        // 40 ms stall on the first request: the next requests are sent late,
        // and their latency from due time carries the wait.
        let schedule = uniform_schedule(1000.0, 30);
        let timings: Vec<Timing> = run(&schedule, 1, |slot| {
            if slot.index == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
        })
        .into_iter()
        .map(|(t, ())| t)
        .collect();
        for (i, t) in timings.iter().enumerate().take(20).skip(1) {
            let waited = 40.0 - i as f64;
            assert!(
                t.latency_ms() >= waited - 1.0,
                "request {i} due {i} ms after the stalled one must wait ~{waited} ms, saw {:.2}",
                t.latency_ms()
            );
            assert!(t.lateness_ms() >= waited - 1.0);
            // Its own service time was tiny: only the from-due view shows it.
            assert!((t.done - t.sent).as_secs_f64() < 0.005);
        }
    }

    #[test]
    fn a_steady_generator_shows_no_lateness_growth() {
        let schedule = uniform_schedule(500.0, 100);
        let timings: Vec<Timing> = run(&schedule, 2, |slot| slot.index)
            .into_iter()
            .enumerate()
            .map(|(i, (t, index))| {
                assert_eq!(i, index, "replies come back in schedule order");
                t
            })
            .collect();
        assert_eq!(timings.len(), 100);
        assert!(timings.iter().all(|t| t.sent >= t.due));
        assert!(lateness_growth_ms(&timings) < 5.0);
    }

    #[test]
    fn a_backlog_that_builds_is_detected() {
        // Every call takes 3 ms but requests are due every millisecond: the
        // send lateness grows linearly over the run.
        let schedule = uniform_schedule(1000.0, 40);
        let timings: Vec<Timing> = run(&schedule, 1, |_| {
            std::thread::sleep(Duration::from_millis(3));
        })
        .into_iter()
        .map(|(t, ())| t)
        .collect();
        assert!(lateness_growth_ms(&timings) > 30.0);
    }
}
