//! Shared measurement core: closed- and open-loop load generators, latency
//! summaries, failure accounting, process memory and I/O counters, and the
//! machine fingerprint printed with every result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One operation issued by a load generator: its position in the generated input
/// stream, its latency, and whatever the operation returned.
pub struct Timed<R> {
    pub index: usize,
    pub latency_ms: f64,
    /// Open loop only: how long after its due time the operation was sent.
    pub late_ms: f64,
    pub result: R,
}

/// Closed loop: `clients` threads each issue their next operation a think
/// time after their previous one returns, for `window`. Operations draw
/// consecutive indices from one shared counter, and the think time is a
/// function of the index, so the stream of inputs is the same whatever the
/// interleaving. Returns the operations in index order and the wall time
/// from start until the last in-flight operation returned.
pub fn closed_loop<R: Send>(
    clients: usize,
    window: Duration,
    think: impl Fn(usize) -> Duration + Sync,
    op: impl Fn(usize) -> R + Sync,
) -> (Vec<Timed<R>>, f64) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Timed<R>>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                while start.elapsed() < window {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let result = op(index);
                    local.push(Timed {
                        index,
                        latency_ms: ms(sent.elapsed()),
                        late_ms: 0.0,
                        result,
                    });
                    std::thread::sleep(think(index));
                }
                done.lock().expect("a client panicked").extend(local);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("a client panicked");
    done.sort_by_key(|t| t.index);
    (done, wall)
}

/// Open loop on the calling thread: operation `i` is due at
/// `start + schedule[i]` and every operation is issued, in order, however
/// late. Latency is timed from the due time, so a stall is charged to every
/// operation it delays; `late_ms` records how far behind schedule the
/// generator itself ran.
pub fn open_loop<R>(
    start: Instant,
    schedule: &[Duration],
    mut op: impl FnMut(usize) -> R,
) -> Vec<Timed<R>> {
    let mut done = Vec::new();
    for (index, offset) in schedule.iter().enumerate() {
        let due = start + *offset;
        // Sleep to just short of the due time, then spin: a timer wake-up
        // alone runs tens of microseconds late, which would dominate the
        // latency of a cache hit.
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let late_ms = ms(Instant::now().duration_since(due));
        let result = op(index);
        done.push(Timed {
            index,
            latency_ms: ms(Instant::now().duration_since(due)),
            late_ms,
            result,
        });
    }
    done
}

const SPIN: Duration = Duration::from_micros(300);

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values; 0 when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, or `None` below 20 samples.
pub fn supported_tail(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// A latency line for the human-readable report: the median and the
/// highest supported percentile, with the sample count.
pub fn describe_latency(label: &str, values: &[f64]) -> String {
    match supported_tail(values.len()) {
        Some(p) => format!(
            "{label}: p50 {:.3} ms, p{p} {:.3} ms (n = {})",
            median(values),
            percentile(values, p),
            values.len()
        ),
        None => format!(
            "{label}: p50 {:.3} ms, max {:.3} ms (n = {}; too few samples for a tail percentile)",
            median(values),
            percentile(values, 100.0),
            values.len()
        ),
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Bytes this process has passed to `write`-family system calls so far
/// (`wchar` of `/proc/self/io`).
pub fn written_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("wchar:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result depends on besides the code: cores, the fast-scan kernel
/// the index selected, and the environment switches the engine reads.
pub fn fingerprint() -> String {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    format!(
        "nproc={} fastscan_kernel={} LOVO_DISABLE_SIMD={} LOVO_MMAP={}",
        nproc(),
        lovo_index::FastScanKernel::detect().name(),
        env(lovo_index::DISABLE_SIMD_ENV),
        env("LOVO_MMAP"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(19), None);
    }
}
