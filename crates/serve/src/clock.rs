//! The gateway's single source of time.
//!
//! Every timestamp the gateway reads — arrival stamps, batch deadlines,
//! service sleeps, decision boundaries — flows through the [`Clock`]
//! trait, in *virtual seconds*. [`WallClock`] is the live implementation:
//! virtual time is real elapsed time multiplied by a configurable `scale`
//! (speedup), so a 24-hour trace can be replayed in minutes with every
//! timeout, service time and decision interval compressed consistently.
//! The deterministic replay (see `replay`) needs no clock: it runs the
//! offline window walk, whose stamps are the arrivals and deadlines
//! themselves.
//!
//! Live sleeps and timed parks are only as punctual as the kernel's
//! timers: `precise_timers` is what each serving thread calls so they
//! are.

use std::time::{Duration, Instant};

/// Longest real duration ever returned by [`Clock::real_duration_until`]
/// (keeps a far-off or non-finite deadline inside what the OS timers
/// accept; every caller re-checks its deadline after the wait).
const MAX_REAL_WAIT: Duration = Duration::from_secs(86_400);

/// Drop the calling thread's kernel timer slack to the minimum.
///
/// Linux rounds every timed sleep and timed futex wait of a normal thread
/// up by a per-thread slack (50 µs by default) so it can coalesce timer
/// interrupts. The serving threads sleep a modelled service time and park
/// to a window deadline, and that slack lands on every request as latency
/// the optimiser's `T` and `s(M, B)` know nothing about — so each thread
/// the gateway owns, and each load-generator pacer, calls this once when
/// it starts. The setting is per thread and lasts for the thread's life.
/// No-op on other platforms (and on failure: the sleeps are then merely
/// as late as before).
pub(crate) fn precise_timers() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        const PR_SET_TIMERSLACK: c_int = 29;
        extern "C" {
            // `int prctl(int option, ...)` from the libc std links.
            fn prctl(option: c_int, ...) -> c_int;
        }
        // SAFETY: `PR_SET_TIMERSLACK` takes one integer argument (the
        // slack in nanoseconds, passed as the `unsigned long` the kernel
        // reads), touches no memory of ours, and only changes how the
        // kernel rounds this thread's own timers.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// A monotonic source of virtual time (seconds since the clock's origin).
pub trait Clock: Send + Sync {
    /// Current virtual time in seconds. Monotonically non-decreasing.
    fn now(&self) -> f64;

    /// Block the caller until `now() >= deadline` (virtual seconds).
    fn sleep_until(&self, deadline: f64);

    /// Block for `duration_s` virtual seconds from now.
    fn sleep(&self, duration_s: f64) {
        self.sleep_until(self.now() + duration_s);
    }

    /// The *real* duration a thread should wait (e.g. in a
    /// `Condvar::wait_timeout`) for the virtual `deadline` to be reached.
    /// Zero when the deadline already passed.
    fn real_duration_until(&self, deadline: f64) -> Duration {
        let d = deadline - self.now();
        if d <= 0.0 || !d.is_finite() {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(d).min(MAX_REAL_WAIT)
    }
}

/// Real time, optionally scaled. With `scale = s`, one real second is `s`
/// virtual seconds, so timeouts, service sleeps and decision intervals
/// all compress by the same factor — the load generator's "time-scale"
/// knob lives entirely here.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: Instant,
    scale: f64,
}

impl WallClock {
    /// Real time, unscaled.
    pub fn new() -> Self {
        WallClock::with_speedup(1.0)
    }

    /// `speedup` virtual seconds per real second (must be finite, > 0).
    pub fn with_speedup(speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be finite and positive"
        );
        WallClock {
            origin: Instant::now(),
            scale: speedup,
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * self.scale
    }

    fn sleep_until(&self, deadline: f64) {
        loop {
            let remaining = (deadline - self.now()) / self.scale;
            if remaining <= 0.0 {
                return;
            }
            std::thread::sleep(Duration::from_secs_f64(remaining).min(MAX_REAL_WAIT));
        }
    }

    fn real_duration_until(&self, deadline: f64) -> Duration {
        let d = (deadline - self.now()) / self.scale;
        if d <= 0.0 || !d.is_finite() {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(d).min(MAX_REAL_WAIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_scales_time() {
        let c = WallClock::with_speedup(100.0);
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(20));
        let dt = c.now() - t0;
        // 20 ms real at 100x is 2 s virtual (allow generous slack for CI).
        assert!(dt >= 1.9, "scaled elapsed {dt} too small");
    }

    #[test]
    fn wall_clock_sleep_until_reaches_deadline() {
        let c = WallClock::with_speedup(50.0);
        let target = c.now() + 0.5; // 10 ms real
        c.sleep_until(target);
        assert!(c.now() >= target);
        assert_eq!(c.real_duration_until(c.now() - 1.0), Duration::ZERO);
    }

    /// The slack is per thread: a fresh thread starts at the default and
    /// reads back 1 ns after the call. Skipped where procfs does not
    /// expose it.
    #[cfg(target_os = "linux")]
    #[test]
    fn precise_timers_drops_the_calling_threads_slack() {
        let slack = std::thread::spawn(|| {
            precise_timers();
            // "/proc/thread-self" -> "<pid>/task/<tid>"; per-thread slack
            // is published under "/proc/<tid>".
            let task = std::fs::read_link("/proc/thread-self").ok()?;
            let tid = task.file_name()?.to_str()?.to_owned();
            std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")).ok()
        })
        .join()
        .expect("probe thread panicked");
        if let Some(ns) = slack {
            assert_eq!(ns.trim(), "1");
        }
    }

    #[test]
    #[should_panic(expected = "speedup")]
    fn zero_speedup_rejected() {
        WallClock::with_speedup(0.0);
    }
}
