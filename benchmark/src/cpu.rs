//! Where the harness's threads run. The box is a few vCPUs of a shared
//! host, and two things there are the host's and not the program's:
//!
//! * a thread fan-out over all the vCPUs finishes when the *slowest* one
//!   does, so a neighbour on one vCPU sets the time of every operation.
//!   The single-operation workloads therefore run on one CPU
//!   ([`pin_to_one_cpu`]); `std::thread::available_parallelism` follows the
//!   affinity mask, so the program takes its one-core path;
//! * a vCPU that goes idle is halted, and waking it costs a trip through
//!   the hypervisor that is longer, and far less steady, than the wake-up
//!   path of the program. The timer-driven workload therefore keeps every
//!   CPU awake with a `SCHED_IDLE` spinner ([`KeepAwake`]), which any
//!   runnable thread of the program preempts at once: what `idle=poll`
//!   does for a latency measurement on a machine of one's own.
//!
//! Both are best effort: where the kernel refuses, the run goes on
//! unpinned and says so.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];
const SCHED_IDLE: i32 = 5;

// From the C library std already links; `pid` 0 is the calling thread.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable cpu_set_t of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

fn cpus_of(set: &CpuSet) -> Vec<usize> {
    (0..1024)
        .filter(|cpu| (set[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    affinity().map_or(Vec::new(), |set| cpus_of(&set))
}

/// The calling thread, and every thread it spawns meanwhile, stays on one
/// CPU until this is dropped.
pub struct Pinned {
    before: Option<CpuSet>,
}

/// Pin to the last CPU the thread may run on; the first one takes most of
/// the interrupts.
pub fn pin_to_one_cpu() -> Pinned {
    let before = affinity();
    let last = before.and_then(|set| cpus_of(&set).pop());
    match last {
        Some(cpu) if set_affinity(&only(cpu)) => {
            println!("cpu: pinned to CPU {cpu}");
            Pinned { before }
        }
        _ => {
            println!("cpu: NOT pinned, the kernel refused");
            Pinned { before: None }
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(set) = self.before {
            set_affinity(&set);
        }
    }
}

/// One `SCHED_IDLE` spinner per allowed CPU, until dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners: Vec<_> = allowed()
            .into_iter()
            .map(|cpu| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // SAFETY: the parameter is a readable sched_param,
                    // whose one field is the (here unused) priority.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &0) == 0 };
                    // A spinner that could not step down to SCHED_IDLE, or
                    // is not on a CPU of its own, would compete with the
                    // program: better none.
                    if !(idle && set_affinity(&only(cpu))) {
                        println!("cpu: no spinner on CPU {cpu}, the kernel refused");
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        println!("cpu: {} CPU(s) kept awake", spinners.len());
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            let _ = s.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_what_the_program_sees_as_parallelism_until_dropped() {
        // On a thread of its own: the pin must not leak into other tests.
        std::thread::spawn(|| {
            let before = allowed();
            assert!(!before.is_empty());
            let pinned = pin_to_one_cpu();
            assert_eq!(allowed(), vec![*before.last().unwrap()]);
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            drop(pinned);
            assert_eq!(allowed(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn spinners_stop_when_dropped() {
        let awake = KeepAwake::start();
        assert_eq!(awake.spinners.len(), allowed().len());
        drop(awake);
    }
}
