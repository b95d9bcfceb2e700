//! Host-side probes: clocks that cross process boundaries, process CPU
//! time, parent-death signalling, peak resident memory, and a
//! runtime-gated counting allocator.
//!
//! Linux only: the benchmark reads `/proc` and calls `clock_gettime` and
//! `prctl`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::os::raw::{c_int, c_long, c_ulong};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

const CLOCK_MONOTONIC: c_int = 1;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[allow(unsafe_code)]
fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and clock_gettime writes only through
    // that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `CLOCK_MONOTONIC` in nanoseconds. The clock is system-wide, so a
/// parent and its child can subtract each other's readings (`Instant`
/// cannot be sent across a process boundary).
pub(crate) fn mono_ns() -> u64 {
    clock_ns(CLOCK_MONOTONIC)
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used. Read from `CLOCK_PROCESS_CPUTIME_ID` rather than
/// `/proc/self/stat`, whose 10 ms ticks are a visible share of the
/// shortest workload.
pub(crate) fn cpu_s() -> f64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;

/// Ask the kernel to kill this process when the thread that spawned it
/// exits, so a benchmark parent stopped from outside leaves no child
/// running behind it.
#[allow(unsafe_code)]
pub fn die_with_parent() {
    // SAFETY: PR_SET_PDEATHSIG takes one unsigned-long signal number and
    // touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) };
    assert_eq!(rc, 0, "prctl(PR_SET_PDEATHSIG) failed");
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host CPUs available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// One thread's share of the allocation counters, on a cache line of its
/// own: pool threads allocating at once (the oracle allocates millions of
/// times a second) would otherwise bounce one shared line between cores
/// and inflate the traced run's host time.
#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static SLOTS: [Slot; 8] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; 8];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so reading it inside
    // the allocator never allocates and never fails.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator plus allocation counters that only run while
/// [`count_allocations`] is on, so untraced runs pay one relaxed load
/// per allocation and traced runs get the `alloc.*` ledger.
pub(crate) struct GatedCountingAlloc;

#[allow(unsafe_code)]
// SAFETY: every method delegates to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the counters are atomics and a const-initialized thread-local, none of
// which allocate or unwind.
unsafe impl GlobalAlloc for GatedCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let i = SLOT
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS.len());
                }
                s.get()
            })
            .unwrap_or(0);
        SLOTS[i].allocs.fetch_add(1, Ordering::Relaxed);
        SLOTS[i].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: GatedCountingAlloc = GatedCountingAlloc;

/// Turn allocation counting on or off for the whole process.
pub(crate) fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted while counting was on, every thread's
/// share summed.
pub(crate) fn alloc_counters() -> (u64, u64) {
    SLOTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_rss_is_positive() {
        let (m0, c0) = (mono_ns(), cpu_s());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(mono_ns() > m0);
        assert!(cpu_s() > c0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
