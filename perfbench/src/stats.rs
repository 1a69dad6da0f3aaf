//! Small measurement helpers: medians, quantiles, repetition and memory.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank `q`-quantile of `values` (which it sorts); 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Runs `setup` at least 3 times and until 0.2 s have gone by, and
/// returns the last result with the median wall time in seconds. Cheap
/// set-ups thus repeat hundreds of times, which keeps their median steady
/// from run to run. Earlier results are dropped before the next
/// repetition starts, so memory stays at one set-up's worth.
pub(crate) fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < 3 || start.elapsed().as_secs_f64() < 0.2 {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), median(&times))
}

/// Calls `pass` until about `seconds` have gone by: at least once, and
/// again only while the longest pass so far still fits in the time left.
/// Returns each pass's result.
pub(crate) fn repeat_for<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !out.is_empty() && elapsed + longest > seconds {
            return out;
        }
        let t0 = Instant::now();
        out.push(pass());
        longest = longest.max(t0.elapsed().as_secs_f64());
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
