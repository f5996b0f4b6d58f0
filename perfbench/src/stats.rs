//! Small statistics helpers and the process peak-RSS probe.

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice. Sorts `v` in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an ascending slice; the default value
/// when empty.
pub fn quantile_sorted<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank quantile `q` — the guide asks
/// for at least ten behind any reported percentile.
pub fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// Peak resident set size of this process in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s followed by
    // fourteen `long` counters, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, and `getrusage` writes only within
    // that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    usage.maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500);
        assert_eq!(quantile_sorted(&v, 0.999), 999);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1000, 0.999), 1);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }
}
