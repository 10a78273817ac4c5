//! The clocks the benchmark times with.
//!
//! On a shared virtual machine the host takes a vCPU away now and then
//! (steal time): on a 2-vCPU test VM, in bursts of 10-30 ms that added up
//! to 15% of some 30-second runs and to nothing in others. The wall clock
//! counts those bursts as if the program had been slow. So:
//!
//! * an in-process op is timed on the calling thread's CPU clock, and a
//!   served round trip on the process's CPU clock (the served workload
//!   keeps the whole process on one CPU with one request in flight, so
//!   everything that CPU does during the round trip is that request's
//!   work). With Linux's paravirtual steal accounting neither clock counts
//!   steal; on an unshared CPU both equal the wall time of the call;
//! * set-up is timed on the process's CPU clock;
//! * throughput divides by the wall time of the timed phase minus the
//!   steal time of the CPU it was pinned to ([`steal_ns`]), so a wait the
//!   program itself adds (a sleep, a timer) still counts against it.

/// Nanoseconds of CPU time the calling thread has used.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds of CPU time all threads of the process have used.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// Steal time of every CPU so far, in nanoseconds, indexed by CPU number
/// (from `/proc/stat`, in clock ticks; empty where it cannot be read).
pub fn steal_ns() -> Vec<u64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    let ns_per_tick = 1_000_000_000 / sys::clock_ticks_per_second();
    let mut out = Vec::new();
    for line in stat.lines() {
        let mut fields = line.split_ascii_whitespace();
        let Some(cpu) = fields
            .next()
            .and_then(|name| name.strip_prefix("cpu"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        // user nice system idle iowait irq softirq steal
        let steal = fields
            .nth(7)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if out.len() <= cpu {
            out.resize(cpu + 1, 0);
        }
        out[cpu] = steal * ns_per_tick;
    }
    out
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = sys::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets this builds for) and `clock` is one of the
    // two CPU-time clock ids, which every Linux kernel provides.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    const SC_CLK_TCK: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    /// `USER_HZ`, the unit of `/proc/stat`.
    pub fn clock_ticks_per_second() -> u64 {
        // SAFETY: sysconf only reads a configuration value.
        let hz = unsafe { sysconf(SC_CLK_TCK) };
        u64::try_from(hz).ok().filter(|&hz| hz > 0).unwrap_or(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_but_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_ns() - t0 < 10_000_000);
        // Read in nesting order, so the thread's interval lies inside the
        // process's.
        let (p1, t1) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        while thread_cpu_ns() - t1 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
        // The process clock holds this thread's work (and other threads').
        let (t2, p2) = (thread_cpu_ns(), process_cpu_ns());
        assert!(p2 - p1 >= t2 - t1);
    }

    #[test]
    fn steal_is_read_for_every_cpu() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(steal_ns().len() >= cpus);
    }
}
