//! Shared set-up: the EM configuration every workload runs under, a seeded
//! generator for query mixes and schedules, and small statistics helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use maxrs::{EmConfig, EngineOptions, ExactMaxRsOptions, MaxRsEngine, Rect, StorageBackend};

/// Disk block size: the paper's 4 KB.
pub const BLOCK_BYTES: usize = 4096;
/// The EM buffer `M`: 256 KB, the paper's Table 3 real-data default.  It
/// holds 6,553 `RectRecord`s, the in-memory cut-off of strategy selection.
pub const BUFFER_BYTES: usize = 256 * 1024;
/// Worker cap of every engine: the parallel slab stage runs two workers
/// whatever the host's core count, so figures from different hosts compare
/// the same program.
pub const ENGINE_WORKERS: usize = 2;
/// Side of the square space the generators draw coordinates from.
pub const EXTENT: f64 = 1_000_000.0;

/// The EM configuration of every dataset in the benchmark.
pub fn em_config(backend: StorageBackend) -> EmConfig {
    EmConfig::new(BLOCK_BYTES, BUFFER_BYTES)
        .expect("the benchmark's buffer holds far more than two blocks")
        .with_backend(backend)
}

/// An engine over [`em_config`] with `workers` slab-stage workers.
pub fn engine(backend: StorageBackend, workers: usize) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: em_config(backend),
        exact: ExactMaxRsOptions {
            parallelism: workers,
            ..ExactMaxRsOptions::default()
        },
        force_strategy: None,
    })
}

/// The whole coordinate space, the domain of whole-space MinRS queries.
pub fn whole_domain() -> Rect {
    Rect::new(0.0, EXTENT, 0.0, EXTENT)
}

/// SplitMix64: a small seeded generator for query orders and arrival
/// schedules (the datasets themselves come from `maxrs::datagen`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other uses of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// Nearest-rank `q`-quantile of `values` (unsorted); 0 when empty.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times and returns the median wall time in seconds
/// together with the last result; earlier results are dropped as soon as
/// they are timed so every repetition starts from the same state.
pub fn repeated_setup<T, E>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(f64, T), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

/// Whether each distinct query cost the same blocks every time it ran in
/// this run — the I/O repeatability report (logical I/O should be exact).
pub fn io_repeat_note(io_seen: &BTreeMap<usize, Vec<u64>>) -> String {
    let drifting: Vec<String> = io_seen
        .iter()
        .filter_map(|(i, v)| {
            let (lo, hi) = (v.iter().min()?, v.iter().max()?);
            (lo != hi).then(|| format!("query #{i}: {lo}..{hi} blocks"))
        })
        .collect();
    if drifting.is_empty() {
        "io repeat within run: exact for every distinct query".to_string()
    } else {
        format!("io repeat within run: DRIFT {}", drifting.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(nearest_rank(&v, 0.5), 20.0);
        assert_eq!(nearest_rank(&v, 0.9), 40.0);
        assert_eq!(nearest_rank(&v, 0.0), 10.0);
        assert_eq!(median(&v), 25.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
