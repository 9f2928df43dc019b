//! Choose the CPU a stretch of measuring runs on. The program under
//! test is untouched; this is what `taskset -c N` does from outside.
//!
//! Two uses. A request to the serve tier is a ping-pong between a
//! client thread and a server worker; on a small virtual machine the
//! wake-up across cores costs several times the request itself and
//! swings by a fifth between identical runs, while the same ping-pong
//! on one core is steady. `serve_live` is there to price the request
//! path, not the hypervisor's inter-processor interrupts, so the
//! threads of a leg share a core. And the pins take the allowed CPUs
//! in turn — each serve lap, each batch pass and set-up on the next
//! one — because what slows this sandbox's host down does so per
//! virtual CPU, for seconds at a time and not in step (README,
//! "Bounds"): a run that visits every CPU finds a quiet stretch on one
//! of them far more often than a run the scheduler leaves on one.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Whose turn it is: counts the pins taken by this process.
static TURN: AtomicUsize = AtomicUsize::new(0);

/// Holds the calling thread — and every thread it spawns meanwhile — on
/// one CPU until dropped.
pub struct Pinned {
    before: imp::Mask,
    pub cpu: usize,
}

impl Pinned {
    /// Pin to the next CPU in turn of those this thread may run on,
    /// highest-numbered first (interrupts tend to land on the lowest).
    /// `None` where the platform has no such call or it fails; the
    /// stretch then runs unpinned and says so. Not to be nested: a
    /// pinned thread may run on one CPU only.
    pub fn to_next_cpu() -> Option<Pinned> {
        let before = imp::get()?;
        let allowed: Vec<usize> =
            (0..imp::BITS).rev().filter(|cpu| before[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
        let turn = TURN.fetch_add(1, Ordering::Relaxed);
        let cpu = *allowed.get(turn % allowed.len().max(1))?;
        let mut one = [0u64; imp::WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        imp::set(&one).then_some(Pinned { before, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        imp::set(&self.before);
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// The kernel's `cpu_set_t`: 1024 bits.
    pub const WORDS: usize = 16;
    pub const BITS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // the call only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub const WORDS: usize = 16;
    pub const BITS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pin_holds_spawned_threads_and_restores_on_drop() {
        // On its own thread: affinity is per thread, and the other
        // tests must not run pinned.
        std::thread::spawn(|| {
            let before = imp::get().expect("affinity is readable on Linux");
            let pinned = Pinned::to_next_cpu().expect("an allowed CPU can be pinned to");
            let during = imp::get().unwrap();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(during[pinned.cpu / 64], 1 << (pinned.cpu % 64));
            let child = std::thread::spawn(|| imp::get().unwrap()).join().unwrap();
            assert_eq!(child, during, "threads spawned while pinned inherit the pin");
            let first = pinned.cpu;
            drop(pinned);
            assert_eq!(imp::get().unwrap(), before);
            // The next pin takes the next allowed CPU (the same one
            // where there is only one). Other tests pin too, so only
            // "some allowed CPU" can be asserted of which.
            let next = Pinned::to_next_cpu().expect("pins again");
            assert!(before[next.cpu / 64] >> (next.cpu % 64) & 1 == 1, "{first} then {}", next.cpu);
            drop(next);
            assert_eq!(imp::get().unwrap(), before);
        })
        .join()
        .unwrap();
    }
}
