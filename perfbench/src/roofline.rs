//! Same-run roofline ceilings: a fused-multiply-add peak loop and a
//! streaming-read bandwidth loop, both single-threaded (the local dense
//! solve they bound runs on one thread per task).

use std::hint::black_box;
use std::time::Instant;

/// The two measured ceilings and the sizes they were measured at.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Peak double-precision FMA rate of one core, GFLOP/s.
    pub peak_gflops: f64,
    /// Sustained streaming-read bandwidth of one core, GB/s.
    pub stream_gbs: f64,
    /// Which FMA loop ran (`avx512f`, `avx2+fma` or `portable`).
    pub fma_isa: &'static str,
    /// Last-level cache size in bytes, as the OS reports it.
    pub llc_bytes: Option<usize>,
    /// Size of the bandwidth array in bytes.
    pub array_bytes: usize,
}

impl Ceilings {
    /// Measure both ceilings, streaming over an array of `array_bytes`.
    pub fn measure(array_bytes: usize) -> Self {
        let (peak_gflops, fma_isa) = fma_peak_gflops();
        Self {
            peak_gflops,
            stream_gbs: stream_read_gbs(array_bytes),
            fma_isa,
            llc_bytes: last_level_cache_bytes(),
            array_bytes,
        }
    }

    /// The roofline bound at `flops_per_byte`: the lower of the compute
    /// peak and bandwidth times arithmetic intensity.
    pub fn attainable_gflops(&self, flops_per_byte: f64) -> f64 {
        self.peak_gflops.min(self.stream_gbs * flops_per_byte)
    }
}

/// The largest cache level's size from sysfs (`None` when unreadable).
pub fn last_level_cache_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for index in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

fn parse_size(text: &str) -> Option<usize> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * scale)
}

/// Best-of-three streaming read of `bytes` of `f64`s, GB/s.
pub fn stream_read_gbs(bytes: usize) -> f64 {
    let data = vec![1.0_f64; (bytes / 8).max(8)];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        black_box(sum8(black_box(&data)));
        best = best.min(start.elapsed().as_secs_f64());
    }
    (data.len() * 8) as f64 / best / 1e9
}

/// Eight independent accumulators, so the loop is bound by memory and
/// not by the latency of one add chain.
fn sum8(x: &[f64]) -> f64 {
    let mut acc = [0.0_f64; 8];
    for chunk in x.chunks_exact(8) {
        for k in 0..8 {
            acc[k] += chunk[k];
        }
    }
    acc.iter().sum()
}

/// Best-of-three FMA peak of one core, GFLOP/s, with the widest FMA the
/// CPU offers.
pub fn fma_peak_gflops() -> (f64, &'static str) {
    const ITERS: usize = 10_000_000;
    let mut best = 0.0_f64;
    let mut isa = "portable";
    for _ in 0..3 {
        let start = Instant::now();
        let (flops, name) = fma_loop(ITERS);
        let seconds = start.elapsed().as_secs_f64();
        best = best.max(flops / seconds / 1e9);
        isa = name;
    }
    (best, isa)
}

/// Run the FMA loop once; returns (flops performed, ISA used).
fn fma_loop(iters: usize) -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F (checked just above).
            black_box(unsafe { fma_avx512(iters) });
            return ((iters * 16 * 8 * 2) as f64, "avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU supports AVX2 and FMA (checked just above).
            black_box(unsafe { fma_avx2(iters) });
            return ((iters * 16 * 4 * 2) as f64, "avx2+fma");
        }
    }
    black_box(fma_portable(iters));
    ((iters * 16 * 2) as f64, "portable")
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm512_set1_pd(black_box(0.999_999_9));
    let add = _mm512_set1_pd(black_box(1e-7));
    let mut acc = [_mm512_set1_pd(1.0); 16];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm512_fmadd_pd(*a, mul, add);
        }
    }
    let mut sum = _mm512_setzero_pd();
    for a in acc {
        sum = _mm512_add_pd(sum, a);
    }
    _mm512_reduce_add_pd(sum)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_pd(black_box(0.999_999_9));
    let add = _mm256_set1_pd(black_box(1e-7));
    let mut acc = [_mm256_set1_pd(1.0); 16];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, mul, add);
        }
    }
    let mut lanes = [0.0_f64; 4];
    for a in acc {
        let mut v = [0.0_f64; 4];
        // SAFETY: `v` is four writable f64s; the store is unaligned.
        unsafe { _mm256_storeu_pd(v.as_mut_ptr(), a) };
        for k in 0..4 {
            lanes[k] += v[k];
        }
    }
    lanes.iter().sum()
}

fn fma_portable(iters: usize) -> f64 {
    let mul = black_box(0.999_999_9);
    let add = black_box(1e-7);
    let mut acc = [1.0_f64; 16];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * mul + add;
        }
    }
    acc.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn ceilings_are_positive() {
        let c = Ceilings::measure(1 << 20);
        assert!(c.peak_gflops > 0.0 && c.stream_gbs > 0.0);
        assert_eq!(c.attainable_gflops(0.0), 0.0);
        assert_eq!(c.attainable_gflops(f64::INFINITY), c.peak_gflops);
    }
}
