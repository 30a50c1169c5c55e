//! The open-loop generator behind `churn`.
//!
//! Request `i` is due at `i × period` from the start, whether or not
//! earlier requests have been answered. One sender thread sends each
//! request at its due time, or at once if it is already late. Latency is
//! measured from the *due* time, so a stall is charged to every request
//! that queued up behind it, not only to the one that hit it.

use std::time::{Duration, Instant};

/// Time as seen by the generator; a fake clock drives the tests.
pub trait Clock {
    /// Time since the generator's start.
    fn now(&self) -> Duration;
    /// Block until [`Clock::now`] reaches `t`.
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, started at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }

    /// The clock's reading at `t`.
    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.0)
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    /// Sleeps to within [`SPIN`] of `t`, then spins: a sleep alone wakes
    /// about 0.1 ms late, and that lateness would be charged to the
    /// request as latency.
    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// How long before a due time [`WallClock::sleep_until`] stops sleeping
/// and starts to spin.
pub const SPIN: Duration = Duration::from_micros(300);

/// When one request was due, sent and answered, from the generator's start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
}

impl Timing {
    /// Latency charged to the request: answer time minus due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Send request `i` at `i × period` for every due time before `until`,
/// returning each request's timing with what `send` returned for it.
pub fn open_loop<C: Clock, R>(
    clock: &C,
    period: Duration,
    until: Duration,
    mut send: impl FnMut(usize) -> R,
) -> Vec<(Timing, R)> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = period * i as u32;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let r = send(i);
        let done = clock.now();
        out.push((Timing { due, sent, done }, r));
    }
    out
}

/// A send later than this counts as a late send.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

/// How far behind its schedule a generator ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lateness {
    /// Tail of send − due in nanoseconds (see [`crate::stats::tail`]).
    pub tail: crate::stats::Pct,
    /// Sends more than [`LATE_AFTER`] behind their due time.
    pub late_sends: usize,
}

/// Lateness of a set of timings; `None` when too few to support a tail.
pub fn lateness(timings: &[Timing]) -> Option<Lateness> {
    let late_ns = timings.iter().map(|t| t.late().as_nanos() as u64).collect();
    Some(Lateness {
        tail: crate::stats::tail(&crate::stats::sorted(late_ns), 99.0)?,
        late_sends: timings.iter().filter(|t| t.late() > LATE_AFTER).count(),
    })
}
