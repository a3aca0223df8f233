//! One core for the whole process, and never an idle one.
//!
//! Daemon and load generator share two virtual cores here, and where the
//! scheduler happens to put the reactor, the worker and the senders
//! decides whether a round trip pays cross-core wake-ups: unpinned, the
//! same seed's closed-loop throughput flips between ~10k and ~21k rps.
//! Pinned to one core, every hand-off is a context switch on that core
//! and the numbers repeat. Threads inherit the mask, so one call before
//! the first spawn covers the daemon's threads too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Restrict the calling thread — and every thread it later spawns — to
/// the highest-numbered core it may run on. Returns that core, or `None`
/// when the mask could not be read or set (the run goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Option<usize> {
    // glibc's cpu_set_t: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; `allowed` is a live, writable
    // buffer of exactly the size passed, which is all the call requires.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let core = word * 64 + (63 - allowed[word].leading_zeros() as usize);
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (core % 64);
    // SAFETY: as above, with a readable buffer; the kernel copies the mask
    // and keeps no pointer to it.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(core)
}

/// Set the timer slack of the calling thread — and of every thread it
/// later spawns — to the minimum. By default the kernel may fire a
/// thread's timers up to 50 us late to batch wake-ups; an open-loop
/// sender sleeping until a request is due would send every request that
/// much late, and at `never-k10`'s 40 us round trip that lateness was most
/// of the latency reported. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn precise_timers() -> bool {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and touches no memory of ours.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn precise_timers() -> bool {
    false
}

/// A thread of scheduling class `SCHED_IDLE` that spins for as long as
/// the guard lives, so the (virtual) core never goes idle.
///
/// An idle virtual core is halted; every wake-up from that state — the
/// sender's timer, the reactor's `epoll`, the worker's futex — is a trip
/// through the hypervisor whose length depends on what the host is doing.
/// In the open loop the core is idle most of the time, and those trips
/// were the largest source of run-to-run spread (same seed, `never-k10`:
/// p50 0.16–0.22 ms without, 0.115–0.130 ms with). An idle-class thread
/// runs only when nothing else wants the core and is preempted at once
/// by any wake-up, so it takes nothing from the daemon or the senders.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl KeepAwake {
    /// Start spinning. If the thread cannot enter the idle class it exits
    /// at once: a spinner of normal priority would take half the core.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            if !enter_idle_class() {
                return;
            }
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        KeepAwake {
            stop,
            spinner: Some(spinner),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        // `Relaxed`: the flag publishes nothing but itself.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}

/// Move the calling thread to `SCHED_IDLE`; lowering one's own priority
/// needs no privilege.
#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    const SCHED_IDLE: i32 = 5;
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling thread and `param` is a live
    // `struct sched_param`, read only during the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pinning_leaves_exactly_one_allowed_core() {
        // On a thread of its own, so the test harness's other tests keep
        // their cores.
        std::thread::spawn(|| {
            let core = super::pin_to_one_core().expect("affinity can be set here");
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap()
                .trim()
                .to_string();
            assert_eq!(list, core.to_string());
        })
        .join()
        .unwrap();
    }
}
