//! Offline stand-in for `criterion`.
//!
//! Implements the API subset the workspace's benches use — benchmark
//! groups with `sample_size` / `warm_up_time` / `measurement_time` /
//! `throughput`, `bench_function` / `bench_with_input`, `Bencher::iter` /
//! `iter_batched` — on a simple wall-clock harness: a warm-up phase
//! calibrates the per-iteration cost, then `sample_size` samples are
//! timed and the mean / median / throughput are printed. There is no
//! statistical outlier analysis, HTML report, or saved baseline; numbers
//! are for order-of-magnitude cost comparisons (the paper's "LR trains in
//! milliseconds, NN-E in seconds" claims), not micro-optimization.
//!
//! `--bench` and benchmark-name filter arguments passed by `cargo bench`
//! are accepted; a filter restricts which benchmarks run, as upstream.
//!
//! Two environment hooks support scripted runs (`scripts/bench.sh`),
//! both read once when the [`Criterion`] is built:
//!
//! - `CRITERION_QUICK` (set to anything but `0`): clamp every group's
//!   warm-up, measurement budget, and sample count to smoke-test values
//!   so a full bench binary finishes in seconds — for CI, where only
//!   "did it run without panicking" matters, not timing fidelity.
//! - `CRITERION_JSON_LINES=<path>`: append one JSON object per finished
//!   benchmark (`bench`, `mean_ns`, `median_ns`, `samples`,
//!   `iters_per_sample`) to `<path>`, alongside the human-readable line.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Top-level harness state, mirroring `criterion::Criterion`.
pub struct Criterion {
    filter: Option<String>,
    /// Smoke-test timing budgets (`CRITERION_QUICK`).
    quick: bool,
    /// Where to append one JSON record per benchmark
    /// (`CRITERION_JSON_LINES`).
    json_lines: Option<PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench passes `--bench` plus any user filter string.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            filter,
            quick: std::env::var_os("CRITERION_QUICK").is_some_and(|v| !v.is_empty() && v != "0"),
            json_lines: std::env::var_os("CRITERION_JSON_LINES").map(PathBuf::from),
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            warm_up_time: Duration::from_millis(500),
            measurement_time: Duration::from_secs(3),
            throughput: None,
        }
    }
}

/// Throughput annotation for per-element/byte rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch sizing for `iter_batched` (ignored by this harness).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// Fresh input for every routine call.
    PerIteration,
}

/// A parameterized benchmark identifier.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id carrying only a parameter value.
    pub fn from_parameter(p: impl Display) -> Self {
        BenchmarkId { id: p.to_string() }
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, p: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), p),
        }
    }
}

/// A group of benchmarks sharing timing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warm-up duration before measurement.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.id, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Close the group (kept for API parity).
    pub fn finish(&mut self) {}

    fn run(&self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Quick mode overrides whatever the group configured: the goal is
        // a bounded-wall-clock smoke pass, so clamps beat setters.
        let (sample_size, warm_up_time, measurement_time) = if self.criterion.quick {
            (
                self.sample_size.min(5),
                self.warm_up_time.min(Duration::from_millis(50)),
                self.measurement_time.min(Duration::from_millis(150)),
            )
        } else {
            (self.sample_size, self.warm_up_time, self.measurement_time)
        };
        let mut b = Bencher {
            mode: Mode::WarmUp {
                until: Instant::now() + warm_up_time,
            },
            samples: Vec::new(),
            sample_size,
            measurement_time,
        };
        f(&mut b);
        b.report(&full, self.throughput, self.criterion.json_lines.as_deref());
    }
}

enum Mode {
    WarmUp { until: Instant },
    Measure { per_sample: u64 },
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    mode: Mode,
    samples: Vec<Duration>,
    sample_size: usize,
    measurement_time: Duration,
}

impl Bencher {
    /// Time a routine.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Time a routine with a per-call setup excluded from measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm-up: run until the warm-up clock expires to estimate cost.
        let (warm_iters, warm_elapsed) = {
            let Mode::WarmUp { until } = self.mode else {
                unreachable!("bencher driven twice");
            };
            let started = Instant::now();
            let mut iters = 0u64;
            while Instant::now() < until {
                let input = setup();
                let t = Instant::now();
                std::hint::black_box(routine(input));
                let _ = t.elapsed();
                iters += 1;
            }
            (iters.max(1), started.elapsed())
        };
        let per_iter = warm_elapsed / warm_iters as u32;
        let budget_iters = if per_iter.is_zero() {
            1000
        } else {
            (self.measurement_time.as_nanos() / per_iter.as_nanos().max(1)) as u64
        };
        let per_sample = (budget_iters / self.sample_size as u64).max(1);
        self.mode = Mode::Measure { per_sample };

        for _ in 0..self.sample_size {
            let mut elapsed = Duration::ZERO;
            for _ in 0..per_sample {
                let input = setup();
                let t = Instant::now();
                std::hint::black_box(routine(input));
                elapsed += t.elapsed();
            }
            self.samples.push(elapsed / per_sample as u32);
        }
    }

    fn report(&self, name: &str, throughput: Option<Throughput>, json_lines: Option<&Path>) {
        if self.samples.is_empty() {
            println!("{name:<40} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let mean = self.samples.iter().sum::<Duration>() / self.samples.len() as u32;
        let per_sample = match self.mode {
            Mode::Measure { per_sample } => per_sample,
            Mode::WarmUp { .. } => 0,
        };
        let rate = match throughput {
            Some(Throughput::Elements(n)) if !mean.is_zero() => {
                format!("  {:>12.0} elem/s", n as f64 / mean.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if !mean.is_zero() => {
                format!("  {:>12.0} B/s", n as f64 / mean.as_secs_f64())
            }
            _ => String::new(),
        };
        println!(
            "{name:<40} mean {mean:>12.3?}  median {median:>12.3?}  ({} samples x {per_sample} iters){rate}",
            self.samples.len(),
        );
        if let Some(path) = json_lines {
            let line = format!(
                "{{\"bench\":\"{}\",\"mean_ns\":{},\"median_ns\":{},\"samples\":{},\"iters_per_sample\":{}}}\n",
                json_escape(name),
                mean.as_nanos(),
                median.as_nanos(),
                self.samples.len(),
                per_sample,
            );
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
            if let Err(e) = written {
                eprintln!("criterion: cannot append to {}: {e}", path.display());
            }
        }
    }
}

/// Escape a benchmark name for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Collect benchmark functions into a runnable group, as upstream.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_and_reports() {
        let mut c = Criterion {
            filter: None,
            quick: false,
            json_lines: None,
        };
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(5));
        group.measurement_time(Duration::from_millis(20));
        group.throughput(Throughput::Elements(100));
        let mut ran = 0u32;
        group.bench_function("spin", |b| {
            ran += 1;
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        group.finish();
        assert_eq!(ran, 1);
    }

    #[test]
    fn quick_mode_and_json_lines_emit_records() {
        let path =
            std::env::temp_dir().join(format!("criterion-jsonl-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut c = Criterion {
            filter: None,
            quick: true,
            json_lines: Some(path.clone()),
        };
        let mut group = c.benchmark_group("jsonl");
        // Quick mode must clamp even a deliberately long configuration.
        group.measurement_time(Duration::from_secs(60));
        group.warm_up_time(Duration::from_secs(60));
        group.sample_size(50);
        let started = Instant::now();
        group.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.finish();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "quick mode ignored"
        );
        let body = std::fs::read_to_string(&path).expect("json-lines file written");
        let line = body
            .lines()
            .find(|l| l.contains("\"bench\":\"jsonl/spin\""))
            .expect("record for jsonl/spin");
        assert!(line.contains("\"mean_ns\":"), "missing mean: {line}");
        assert!(line.contains("\"median_ns\":"), "missing median: {line}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
            quick: false,
            json_lines: None,
        };
        let mut group = c.benchmark_group("g");
        let mut ran = false;
        group.bench_function("x", |b| {
            ran = true;
            b.iter(|| ())
        });
        assert!(!ran);
    }
}
