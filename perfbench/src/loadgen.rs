//! The benchmark's open-loop load generator.
//!
//! Arrivals are a seeded Poisson process per stream, merged by due time.
//! The schedule is computed before the run and does not depend on how fast
//! the system answers, so a faster program gets the same load. Each request
//! is timed from its *due* time: a stall in the generator or the system
//! shows up as latency on every later request, and how late the generator
//! itself ran is reported separately.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so a schedule depends on
/// the seed alone and on no library version.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// One arrival stream: a tenant sending at a fixed mean rate.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Mean arrival rate (requests per second).
    pub rate: f64,
    /// Distinct frames the stream draws its inputs from.
    pub frames: usize,
    /// Distinct affinity keys (patients) the stream spreads over.
    pub patients: u64,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the run.
    pub due: Duration,
    /// Index of the stream that sent it.
    pub stream: usize,
    /// Which distinct frame it carries.
    pub frame: usize,
    /// Affinity key (patient id).
    pub affinity: u64,
}

/// Poisson arrivals of every stream over `horizon`, merged by due time.
/// Each stream draws from its own generator, derived from `seed` and the
/// stream index, so adding a stream leaves the others' arrivals unchanged.
pub fn poisson_schedule(seed: u64, streams: &[Stream], horizon: Duration) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (i, s) in streams.iter().enumerate() {
        assert!(s.rate > 0.0 && s.frames > 0 && s.patients > 0, "degenerate stream {i}");
        let mut rng = SplitMix64::new(seed ^ (0xA24B_AED4_963E_E407u64.wrapping_mul(i as u64 + 1)));
        let mut t = 0.0f64;
        loop {
            // Exponential gap; 1 - u is in (0, 1], so the log is finite.
            t += -(1.0 - rng.next_f64()).ln() / s.rate;
            if t >= horizon.as_secs_f64() {
                break;
            }
            out.push(Arrival {
                due: Duration::from_secs_f64(t),
                stream: i,
                frame: rng.below(s.frames as u64) as usize,
                affinity: rng.below(s.patients),
            });
        }
    }
    out.sort_by(|a, b| a.due.cmp(&b.due).then(a.stream.cmp(&b.stream)));
    out
}

/// What the generator saw for one request.
#[derive(Debug)]
pub struct Sent<R> {
    /// How late the generator made its first attempt, relative to its due
    /// time.
    pub late: Duration,
    /// From the first attempt to the start of the attempt that was sent:
    /// zero unless the request was turned away and retried.
    pub waited: Duration,
    /// Attempts turned away before the one that was sent.
    pub retries: u32,
    /// Time spent inside the submit call that was sent.
    pub submit: Duration,
    /// The resolved outcome.
    pub outcome: R,
}

/// When the generator tries a turned-away request again.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Pause before the next attempt.
    pub after: Duration,
    /// Attempts after which the last refusal is sent on as the outcome.
    pub limit: u32,
}

/// A turned-away request waiting for its next attempt.
struct Again {
    at: Instant,
    index: usize,
    tries: u32,
    first: Instant,
    late: Duration,
}

/// Drives `schedule` open-loop and returns one record per arrival, in
/// schedule order, plus the wall time from the start to the last
/// resolution.
///
/// The calling thread is the generator: it sleeps until each due time and
/// calls `submit` with the arrival's index, which must not block on the
/// response. When `turned_away` says an attempt was refused for now, the
/// generator drops it and tries again `retry.after` later, without holding
/// up later arrivals; after `retry.limit` attempts the refusal is sent on.
/// One collector thread calls `resolve` on each sent request in send
/// order; `resolve` may block. So the generator uses two threads in all.
pub fn run_open_loop<P: Send, R: Send>(
    schedule: &[Arrival],
    retry: RetryPolicy,
    mut submit: impl FnMut(usize, &Arrival) -> P,
    turned_away: impl Fn(&Arrival, &P) -> bool,
    resolve: impl Fn(&Arrival, P) -> R + Sync,
) -> (Vec<Sent<R>>, Duration) {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Sent<P>)>();
    let resolved = std::thread::scope(|scope| {
        let resolve = &resolve;
        let collector = scope.spawn(move || {
            let mut done: Vec<(usize, Sent<R>)> = Vec::with_capacity(schedule.len());
            for (i, s) in rx {
                let Sent { late, waited, retries, submit, outcome } = s;
                let outcome = resolve(&schedule[i], outcome);
                done.push((i, Sent { late, waited, retries, submit, outcome }));
            }
            (done, start.elapsed())
        });
        // Retries are due in the order they were queued (one fixed pause).
        let mut again: VecDeque<Again> = VecDeque::new();
        let mut next = 0;
        while next < schedule.len() || !again.is_empty() {
            let fresh = schedule.get(next).map(|a| start + a.due);
            let (at, job) = match (fresh, again.front()) {
                (Some(f), Some(r)) if r.at < f => (r.at, again.pop_front()),
                (Some(f), _) => (f, None),
                (None, Some(r)) => (r.at, again.pop_front()),
                (None, None) => unreachable!("loop condition"),
            };
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let t0 = Instant::now();
            let job = job.unwrap_or_else(|| {
                next += 1;
                Again { at, index: next - 1, tries: 0, first: t0, late: t0 - at }
            });
            let a = &schedule[job.index];
            let pending = submit(job.index, a);
            let submit_time = t0.elapsed();
            if job.tries + 1 < retry.limit && turned_away(a, &pending) {
                drop(pending);
                again.push_back(Again {
                    at: Instant::now() + retry.after,
                    tries: job.tries + 1,
                    ..job
                });
                continue;
            }
            let sent = Sent {
                late: job.late,
                waited: t0 - job.first,
                retries: job.tries,
                submit: submit_time,
                outcome: pending,
            };
            tx.send((job.index, sent)).expect("collector is alive");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let (mut done, wall) = resolved;
    done.sort_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, s)| s).collect(), wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams() -> [Stream; 2] {
        [
            Stream { rate: 200.0, frames: 16, patients: 64 },
            Stream { rate: 50.0, frames: 16, patients: 64 },
        ]
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, &streams(), Duration::from_secs(5));
        let b = poisson_schedule(7, &streams(), Duration::from_secs(5));
        assert_eq!(a, b);
        let c = poisson_schedule(8, &streams(), Duration::from_secs(5));
        assert_ne!(a, c, "another seed gives other arrivals");
    }

    #[test]
    fn schedule_is_sorted_and_inside_the_horizon() {
        let h = Duration::from_secs(3);
        let s = poisson_schedule(1, &streams(), h);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.iter().all(|a| a.due < h && a.frame < 16 && a.affinity < 64));
    }

    #[test]
    fn rates_match_their_means() {
        let h = Duration::from_secs(200);
        let s = poisson_schedule(3, &streams(), h);
        for (i, st) in streams().iter().enumerate() {
            let n = s.iter().filter(|a| a.stream == i).count() as f64;
            let expect = st.rate * h.as_secs_f64();
            // Poisson: sd = sqrt(mean); 5 sd is a loose, non-flaky bound.
            assert!((n - expect).abs() < 5.0 * expect.sqrt(), "stream {i}: {n} vs {expect}");
        }
    }

    #[test]
    fn adding_a_stream_keeps_the_others() {
        let h = Duration::from_secs(2);
        let one = poisson_schedule(9, &streams()[..1], h);
        let two = poisson_schedule(9, &streams(), h);
        let kept: Vec<Arrival> = two.into_iter().filter(|a| a.stream == 0).collect();
        assert_eq!(one, kept);
    }

    #[test]
    fn open_loop_resolves_every_arrival_in_order() {
        let sched = poisson_schedule(5, &streams(), Duration::from_millis(100));
        let (sent, wall) = run_open_loop(
            &sched,
            NO_RETRY,
            |_, a| a.frame,
            |_, _| false,
            |a, p: usize| (a.stream, p),
        );
        assert_eq!(sent.len(), sched.len());
        for (a, s) in sched.iter().zip(&sent) {
            assert_eq!(s.outcome, (a.stream, a.frame));
            assert_eq!((s.retries, s.waited), (0, Duration::ZERO));
        }
        assert!(wall >= sched.last().map_or(Duration::ZERO, |a| a.due));
    }

    const NO_RETRY: RetryPolicy = RetryPolicy { after: Duration::ZERO, limit: 1 };

    #[test]
    fn turned_away_requests_are_sent_again_until_admitted() {
        let sched = poisson_schedule(6, &streams(), Duration::from_millis(100));
        let after = Duration::from_millis(1);
        let mut tries = vec![0u32; sched.len()];
        // Stream 1 is admitted on its third attempt, stream 0 on its first.
        let (sent, _) = run_open_loop(
            &sched,
            RetryPolicy { after, limit: 10 },
            |i, _| {
                tries[i] += 1;
                tries[i]
            },
            |a, &attempt| a.stream == 1 && attempt < 3,
            |_, attempt: u32| attempt,
        );
        assert_eq!(sent.len(), sched.len());
        for (a, s) in sched.iter().zip(&sent) {
            let expect = if a.stream == 1 { 3 } else { 1 };
            assert_eq!(s.outcome, expect);
            assert_eq!(s.retries, expect - 1);
            assert!(s.waited >= after * s.retries);
        }
    }

    #[test]
    fn the_retry_limit_sends_the_last_refusal_on() {
        let sched = poisson_schedule(2, &streams(), Duration::from_millis(50));
        let (sent, _) = run_open_loop(
            &sched,
            RetryPolicy { after: Duration::ZERO, limit: 4 },
            |_, _| "refused",
            |_, _| true,
            |_, p: &str| p,
        );
        assert_eq!(sent.len(), sched.len());
        assert!(sent.iter().all(|s| s.retries == 3 && s.outcome == "refused"));
    }
}
