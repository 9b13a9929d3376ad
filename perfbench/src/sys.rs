//! Process CPU time and peak memory from `getrusage(2)`.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn usage(who: i32) -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two values the call accepts.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    u
}

fn cpu(u: &Rusage) -> f64 {
    (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 * 1e-6
}

/// User + system CPU seconds of this process and of every child it has
/// waited for (reaped `--isolate` workers).
pub fn cpu_seconds() -> f64 {
    cpu(&usage(RUSAGE_SELF)) + cpu(&usage(RUSAGE_CHILDREN))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    usage(RUSAGE_SELF).longs[0] as f64 / 1024.0
}
