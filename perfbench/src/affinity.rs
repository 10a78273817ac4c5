//! Rotating a timed phase over the CPUs it may run on.
//!
//! On a virtual machine each vCPU is slowed by whatever shares its physical
//! core, independently of the other vCPUs and for seconds at a time. A
//! phase that stays on one vCPU measures that vCPU's neighbours as much as
//! the program. Pinning block `k` to the `k`-th allowed CPU (round robin)
//! spreads every run evenly over all of them.
//!
//! A single-threaded phase pins the calling thread ([`Rotation::pin`]).
//! The served workload pins every thread of the process to the same CPU
//! ([`Rotation::pin_process`]): client, event loop and workers then hand
//! each request over on one CPU, and no hand-over waits for another vCPU
//! to be woken up, which on a shared host can take a millisecond.
//!
//! The rotation also adds up the steal time of each CPU while a phase is
//! pinned to it ([`Rotation::stolen_s`]), the time the host ran something
//! else instead.

use std::cell::Cell;

use crate::clock;

/// The CPU set the process started with, restored on drop.
pub struct Rotation {
    #[cfg(target_os = "linux")]
    original: linux::CpuSet,
    cpus: Vec<usize>,
    /// The CPU pinned to last and its steal time then, ns.
    pinned: Cell<Option<(usize, u64)>>,
    stolen_ns: Cell<u64>,
}

impl Rotation {
    /// Remember the CPUs the calling thread may run on.
    pub fn new() -> Rotation {
        #[cfg(target_os = "linux")]
        {
            let original = linux::get().unwrap_or([0; linux::WORDS]);
            let cpus = (0..linux::WORDS * 64)
                .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
                .collect();
            Rotation {
                original,
                cpus,
                pinned: Cell::new(None),
                stolen_ns: Cell::new(0),
            }
        }
        #[cfg(not(target_os = "linux"))]
        Rotation {
            cpus: Vec::new(),
            pinned: Cell::new(None),
            stolen_ns: Cell::new(0),
        }
    }

    /// Steal time, in seconds, of the CPU pinned to, summed over every
    /// pin so far (0 where affinity or steal time is unavailable).
    pub fn stolen_s(&self) -> f64 {
        self.account(None);
        self.stolen_ns.get() as f64 / 1e9
    }

    /// Add the steal time of the CPU pinned to since it was last read,
    /// and go on counting on `next` (or on the same CPU).
    fn account(&self, next: Option<usize>) {
        let steal = clock::steal_ns();
        let at = |cpu: usize| steal.get(cpu).copied().unwrap_or(0);
        if let Some((cpu, since)) = self.pinned.get() {
            let stolen = at(cpu).saturating_sub(since);
            self.stolen_ns.set(self.stolen_ns.get() + stolen);
        }
        let cpu = next.or(self.pinned.get().map(|(cpu, _)| cpu));
        self.pinned.set(cpu.map(|cpu| (cpu, at(cpu))));
    }

    /// Pin the calling thread to the CPU for block `block` (a no-op where
    /// affinity is unavailable). Threads it starts afterwards inherit the
    /// pin.
    pub fn pin(&self, block: usize) {
        #[cfg(target_os = "linux")]
        if let Some((cpu, set)) = self.set_for(block) {
            linux::set(0, &set);
            self.account(Some(cpu));
        }
        #[cfg(not(target_os = "linux"))]
        let _ = block;
    }

    /// Pin every thread of the process to the CPU for block `block`.
    pub fn pin_process(&self, block: usize) {
        #[cfg(target_os = "linux")]
        if let Some((cpu, set)) = self.set_for(block) {
            for tid in linux::threads() {
                linux::set(tid, &set);
            }
            self.account(Some(cpu));
        }
        #[cfg(not(target_os = "linux"))]
        let _ = block;
    }

    #[cfg(target_os = "linux")]
    fn set_for(&self, block: usize) -> Option<(usize, linux::CpuSet)> {
        let cpu = *self.cpus.get(block % self.cpus.len().max(1))?;
        let mut set = [0; linux::WORDS];
        set[cpu / 64] = 1 << (cpu % 64);
        Some((cpu, set))
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if !self.cpus.is_empty() {
            for tid in linux::threads() {
                linux::set(tid, &self.original);
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// `cpu_set_t`: 1024 CPU bits.
    pub const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set.
    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; WORDS];
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restrict thread `tid` (0: the calling thread) to `set`; a refusal
    /// leaves it where it was, which only costs the rotation.
    pub fn set(tid: i32, set: &CpuSet) {
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // an unknown or exited `tid` only makes the call fail.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }

    /// The ids of this process's threads.
    pub fn threads() -> Vec<i32> {
        std::fs::read_dir("/proc/self/task")
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                    .collect()
            })
            .unwrap_or_default()
    }
}
