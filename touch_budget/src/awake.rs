//! Keep the CPUs out of idle states while the benchmark measures.
//!
//! A closed loop with two clients leaves the machine idle most of the time
//! (a client waits up to 20 ms for the acceptor's poll at every session
//! open). An idle virtual CPU is descheduled by the host and wakes slowly
//! and unevenly: on the reference box the same commit's `gesture_p50_us`
//! moved by 14 % from run to run, and by 1 % with the CPUs kept awake. So,
//! like booting with `idle=poll`, one thread per CPU spins at `SCHED_IDLE`
//! priority: it runs only when the CPU would otherwise idle and is preempted
//! the moment any thread of the program wakes. If the policy cannot be set
//! the thread exits instead of competing with the workload, and the run is
//! merely noisier.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

/// Spinner threads, stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
    active: usize,
}

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` with pid 0 changes the policy of the
    // calling thread only; `param` is a live, correctly laid out
    // `struct sched_param` for the duration of the call, and the function
    // keeps no pointer to it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

impl KeepAwake {
    /// One spinner per CPU this process may run on.
    pub fn start() -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(Barrier::new(cpus + 1));
        let spinners = (0..cpus)
            .map(|_| {
                let (stop, entered, ready) =
                    (Arc::clone(&stop), Arc::clone(&entered), Arc::clone(&ready));
                std::thread::spawn(move || {
                    let idle = enter_idle_class();
                    if idle {
                        entered.fetch_add(1, Ordering::SeqCst);
                    }
                    ready.wait();
                    // A plain loop, not `spin_loop()`: under a hypervisor a
                    // run of PAUSE instructions triggers pause-loop exits,
                    // and the host then deschedules the virtual CPU the
                    // spinner is meant to keep awake.
                    while idle && !stop.load(Ordering::Relaxed) {}
                })
            })
            .collect();
        ready.wait();
        KeepAwake {
            stop,
            spinners,
            active: entered.load(Ordering::SeqCst),
        }
    }

    /// Spinners that entered the idle class and are running.
    pub fn active(&self) -> usize {
        self.active
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report from a destructor.
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop() {
        let awake = KeepAwake::start();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(awake.active() <= cpus);
        drop(awake); // joins: a spinner that ignored `stop` would hang here
    }
}
