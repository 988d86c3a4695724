//! The batched inference engine.
//!
//! Requests flow through four stages:
//!
//! 1. **Admission** — a bounded queue (capacity [`ServeConfig::queue_cap`])
//!    pulls parsed requests from the reader. When the queue is full the
//!    engine stops reading until a window drains: backpressure reaches
//!    the producer as an unread pipe instead of unbounded memory.
//! 2. **Cache probe** — each admitted window of up to
//!    [`ServeConfig::window`] requests is checked against the LRU
//!    surrogate cache ([`crate::cache`]); hits never touch the model.
//! 3. **Batch predict** — cache misses are *deduplicated by canonical
//!    key* (a window full of the same config costs one forward pass)
//!    and run through the compiled predictor in one pass, sharded
//!    across a scoped worker pool.
//! 4. **Ordered response** — predictions are written back by request
//!    index, so output order equals input order and is byte-identical
//!    for any worker count: sharding is by row range, every row's
//!    arithmetic is independent of its batch neighbours, and the f64 →
//!    JSON rendering is the shortest round-trip form.
//!
//! The engine never retrains anything — a replay of 10⁴ requests against
//! a cached-heavy workload is pure lookups plus a handful of forward
//! passes, which is the economic argument of the paper made operational.

use crate::cache::LruCache;
use crate::compiled::{compile_with, CompiledModel, Precision};
use crate::core::predict_window;
use crate::request::{parse_request_line, Request};
use fault::{Error, Result};
use mlmodels::ModelArtifact;
use std::io::{BufRead, Write};
use std::time::Instant;
use telemetry::json::{self, JsonObject};
use telemetry::Histogram;

/// Engine tuning knobs. Defaults fit the CI smoke workload; the CLI maps
/// `--window/--queue/--workers/--cache` onto them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-window size: requests predicted per batch.
    pub window: usize,
    /// Admission-queue capacity; the reader stalls when it is full.
    pub queue_cap: usize,
    /// Worker threads for batch prediction (1 = in-line).
    pub workers: usize,
    /// LRU cache capacity in distinct configurations.
    pub cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: 256,
            queue_cap: 1024,
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            cache_cap: 4096,
        }
    }
}

impl ServeConfig {
    fn validated(&self) -> Result<()> {
        if self.window == 0 {
            return Err(Error::invalid("serve window must be at least 1"));
        }
        if self.queue_cap < self.window {
            return Err(Error::invalid(format!(
                "serve queue capacity {} is smaller than the window {}",
                self.queue_cap, self.window
            )));
        }
        if self.workers == 0 {
            return Err(Error::invalid("serve worker count must be at least 1"));
        }
        Ok(())
    }
}

/// Counters and latency summary for one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests served.
    pub requests: u64,
    /// Requests answered from the LRU cache.
    pub cache_hits: u64,
    /// Requests that missed the cache.
    pub cache_misses: u64,
    /// Distinct configurations actually predicted (misses after
    /// in-window dedup).
    pub predictions: u64,
    /// Prediction batches run.
    pub batches: u64,
    /// Highest admission-queue depth observed (the queue-depth
    /// high-water mark the soak gate reads).
    pub max_queue_depth: u64,
    /// Requests load-shed at admission with a typed `Overloaded`
    /// response. Always 0 for the one-shot replay engine, whose
    /// backpressure stalls the reader instead of shedding.
    pub shed: u64,
    /// Admitted requests whose deadline expired before the predict path
    /// reached them; each got a typed `DeadlineExceeded` response and
    /// no (late) prediction — the fail-closed contract.
    pub deadline_misses: u64,
    /// Cache misses rejected while the daemon was in degraded
    /// (cache-hits-only) mode, each with a typed error response.
    pub degraded_rejects: u64,
    /// Median request latency (admission → response), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Worst single request latency, milliseconds.
    pub max_ms: f64,
    /// End-to-end replay throughput, requests per second.
    pub requests_per_sec: f64,
}

impl ServeStats {
    /// Render as a single JSON object (the CLI's `serve` summary line,
    /// and the artifact the soak gate and `perf-report` both read).
    /// Existing fields keep their exact names and rendering; the
    /// daemon-era counters (`shed`, `deadline_misses`,
    /// `degraded_rejects`) are appended after `max_queue_depth`.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .uint("requests", self.requests)
            .uint("cache_hits", self.cache_hits)
            .uint("cache_misses", self.cache_misses)
            .uint("predictions", self.predictions)
            .uint("batches", self.batches)
            .uint("max_queue_depth", self.max_queue_depth)
            .uint("shed", self.shed)
            .uint("deadline_misses", self.deadline_misses)
            .uint("degraded_rejects", self.degraded_rejects)
            .num("p50_ms", self.p50_ms)
            .num("p95_ms", self.p95_ms)
            .num("p99_ms", self.p99_ms)
            .num("max_ms", self.max_ms)
            .num("requests_per_sec", self.requests_per_sec)
            .finish()
    }
}

struct Admitted {
    index: u64,
    request: Request,
    admitted_at: Instant,
}

/// The batched prediction engine: a compiled artifact, its cache, and
/// the replay loop.
pub struct Engine {
    model: CompiledModel,
    config: ServeConfig,
    cache: LruCache<Vec<u64>, f64>,
}

impl Engine {
    /// Build an engine over a loaded artifact, compiling it into its
    /// topology-specialized f64 predictor.
    pub fn new(artifact: ModelArtifact, config: ServeConfig) -> Result<Engine> {
        config.validated()?;
        let model = compile_with(artifact, Precision::F64)?;
        let cache = LruCache::new(config.cache_cap);
        Ok(Engine {
            model,
            config,
            cache,
        })
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.model.artifact
    }

    /// Serve one window of admitted requests, appending ordered response
    /// lines to `out`. The probe/dedup/predict work is the shared
    /// [`crate::core::predict_window`]; this wrapper owns replay
    /// bookkeeping and the ordered emit.
    fn serve_window(
        &mut self,
        window: &[Admitted],
        out: &mut dyn Write,
        stats: &mut ServeStats,
        latency: &mut Histogram,
    ) -> Result<()> {
        let requests: Vec<&Request> = window.iter().map(|adm| &adm.request).collect();
        let outcome = predict_window(&self.model, &mut self.cache, self.config.workers, &requests);
        stats.cache_hits += outcome.hits;
        stats.cache_misses += window.len() as u64 - outcome.hits;
        stats.predictions += outcome.predictions;
        stats.batches += outcome.batches;
        // Emit responses in admission order.
        for (adm, &(prediction, cached)) in window.iter().zip(&outcome.results) {
            let line = JsonObject::new()
                .str("id", &adm.request.id)
                .raw("prediction", &json::number(prediction))
                .bool("cached", cached)
                .finish();
            out.write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .map_err(|e| Error::io("<serve output>", e))?;
            latency.observe_ns(adm.admitted_at.elapsed());
            stats.requests += 1;
        }
        Ok(())
    }

    /// Replay a JSONL request stream, writing one ordered JSONL response
    /// line per request. Invalid request lines abort the replay with a
    /// typed error (exit code 2 at the CLI).
    pub fn serve(&mut self, input: &mut dyn BufRead, out: &mut dyn Write) -> Result<ServeStats> {
        let _span = telemetry::span!(
            "serve/replay",
            model = self.model.artifact.model.kind.abbrev()
        );
        let started = Instant::now();
        let mut stats = ServeStats::default();
        let mut latency = Histogram::new();
        let mut queue: std::collections::VecDeque<Admitted> =
            std::collections::VecDeque::with_capacity(self.config.queue_cap);
        let mut line = String::new();
        let mut line_no = 0u64;
        let mut eof = false;
        while !eof || !queue.is_empty() {
            // Admit until the queue is full or the reader runs dry —
            // the bounded queue is what pushes back on the producer.
            while !eof && queue.len() < self.config.queue_cap {
                line.clear();
                let n = input
                    .read_line(&mut line)
                    .map_err(|e| Error::io("<serve input>", e))?;
                if n == 0 {
                    eof = true;
                    break;
                }
                line_no += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let request = parse_request_line(&self.model.artifact.schema, trimmed, line_no)?;
                queue.push_back(Admitted {
                    index: line_no,
                    request,
                    admitted_at: Instant::now(),
                });
            }
            stats.max_queue_depth = stats.max_queue_depth.max(queue.len() as u64);
            telemetry::gauge_max("serve/queue_depth", queue.len() as f64);
            if queue.is_empty() {
                break;
            }
            let take = self.config.window.min(queue.len());
            let window: Vec<Admitted> = queue.drain(..take).collect();
            debug_assert!(window.windows(2).all(|w| w[0].index < w[1].index));
            self.serve_window(&window, out, &mut stats, &mut latency)?;
        }
        let elapsed = started.elapsed().as_secs_f64();
        // The streaming histogram replaces the old sort-the-Vec
        // percentile pass: O(1) memory for any replay length, and the
        // same bucket layout the manifest and perf-report consume.
        let ms = |ns: u64| ns as f64 / 1e6;
        stats.p50_ms = ms(latency.quantile(0.50));
        stats.p95_ms = ms(latency.quantile(0.95));
        stats.p99_ms = ms(latency.quantile(0.99));
        stats.max_ms = ms(latency.max());
        stats.requests_per_sec = if elapsed > 0.0 {
            stats.requests as f64 / elapsed
        } else {
            0.0
        };
        telemetry::gauge_set("serve/p50_ms", stats.p50_ms);
        telemetry::gauge_set("serve/p95_ms", stats.p95_ms);
        telemetry::gauge_set("serve/p99_ms", stats.p99_ms);
        telemetry::gauge_set("serve/max_ms", stats.max_ms);
        telemetry::gauge_set("serve/requests_per_sec", stats.requests_per_sec);
        telemetry::hist_merge("serve/latency_ns", &latency);
        Ok(stats)
    }
}

/// Convenience entry point: replay `input` (JSONL request text) against
/// an artifact and return `(response JSONL, stats)`.
pub fn serve_jsonl(
    artifact: ModelArtifact,
    config: ServeConfig,
    input: &str,
) -> Result<(String, ServeStats)> {
    let mut engine = Engine::new(artifact, config)?;
    let mut out = Vec::new();
    let stats = engine.serve(&mut input.as_bytes(), &mut out)?;
    let text = String::from_utf8(out).map_err(|e| {
        Error::artifact("<serve output>", format!("non-UTF-8 response buffer: {e}"))
    })?;
    Ok((text, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmodels::{train, ModelKind, Table};

    fn artifact(kind: ModelKind) -> ModelArtifact {
        let n = 96;
        let speeds: Vec<f64> = (0..n).map(|i| 1000.0 + (i % 8) as f64 * 200.0).collect();
        let smt: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let bpred: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 0.01 * speeds[i] + if smt[i] { 1.5 } else { 0.0 } + bpred[i] as f64)
            .collect();
        let mut t = Table::new();
        t.add_numeric("speed", speeds)
            .add_flag("smt", smt)
            .add_categorical(
                "bpred",
                bpred,
                vec!["perfect".into(), "bimodal".into(), "gshare".into()],
            )
            .set_target(y);
        ModelArtifact::from_training(train(kind, &t, 11), &t)
    }

    fn requests(n: usize, distinct: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            let d = i % distinct;
            s.push_str(&format!(
                "{{\"id\":\"q{i}\",\"speed\":{},\"smt\":{},\"bpred\":\"{}\"}}\n",
                1000 + (d % 8) * 200,
                d.is_multiple_of(2),
                ["perfect", "bimodal", "gshare"][d % 3],
            ));
        }
        s
    }

    fn cfg(workers: usize) -> ServeConfig {
        ServeConfig {
            window: 16,
            queue_cap: 64,
            workers,
            cache_cap: 256,
        }
    }

    #[test]
    fn replay_is_ordered_and_cache_heavy_workloads_hit() {
        let input = requests(500, 10);
        let (out, stats) = serve_jsonl(artifact(ModelKind::LrB), cfg(2), &input).expect("serve");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 500);
        for (i, l) in lines.iter().enumerate() {
            assert!(l.contains(&format!("\"id\":\"q{i}\"")), "line {i}: {l}");
        }
        assert_eq!(stats.requests, 500);
        assert_eq!(stats.cache_hits + stats.cache_misses, 500);
        assert!(stats.cache_hits >= 480, "10 distinct configs: {stats:?}");
        assert_eq!(stats.predictions, 10);
    }

    #[test]
    fn output_is_byte_identical_across_worker_counts() {
        let input = requests(200, 40);
        for kind in [ModelKind::LrE, ModelKind::NnQ] {
            let (one, _) = serve_jsonl(artifact(kind), cfg(1), &input).expect("1 worker");
            for workers in [2, 3, 8] {
                let (many, _) =
                    serve_jsonl(artifact(kind), cfg(workers), &input).expect("N workers");
                assert_eq!(one, many, "{} with {workers} workers", kind.abbrev());
            }
        }
    }

    #[test]
    fn predictions_match_direct_model_calls() {
        let art = artifact(ModelKind::NnS);
        let mut t = Table::new();
        t.add_numeric("speed", vec![1400.0])
            .add_flag("smt", vec![true])
            .add_categorical(
                "bpred",
                vec![2],
                vec!["perfect".into(), "bimodal".into(), "gshare".into()],
            )
            .set_target(vec![0.0]);
        let direct = art.model.predict(&t)[0];
        let input = "{\"speed\":1400,\"smt\":true,\"bpred\":\"gshare\"}\n";
        let (out, _) = serve_jsonl(art, cfg(1), input).expect("serve");
        assert!(
            out.contains(&format!("\"prediction\":{}", json::number(direct))),
            "{out}"
        );
    }

    /// Serving has one predict path per model. For an LR-B and an NN-E
    /// artifact, every prediction a 1-worker replay emits is bit-equal
    /// to the interpreted `TrainedModel::try_predict` over the batch
    /// table, and to the same replay under the scalar kernels.
    #[test]
    fn replay_matches_interpreted_model_and_scalar_kernels_bitwise() {
        for kind in [ModelKind::LrB, ModelKind::NnE] {
            let art = artifact(kind);
            let input =
                crate::workload::generate_requests(&art.schema, 400, 100, 0x5E2).expect("workload");
            let (out, _) = serve_jsonl(art.clone(), cfg(1), &input).expect("replay");
            let (scalar, _) = simd::with_backend(simd::Backend::Scalar, || {
                serve_jsonl(art.clone(), cfg(1), &input)
            })
            .expect("scalar-kernel replay");
            assert_eq!(
                out,
                scalar,
                "{}: scalar kernels changed the replay",
                kind.abbrev()
            );
            let requests: Vec<Request> = input
                .lines()
                .enumerate()
                .map(|(i, l)| parse_request_line(&art.schema, l, i as u64 + 1).expect("valid"))
                .collect();
            let refs: Vec<&Request> = requests.iter().collect();
            let table = crate::request::batch_table(&art.schema, &refs);
            let oracle = art.model.try_predict(&table).expect("interpreted predict");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), oracle.len());
            for (i, (line, want)) in lines.iter().zip(&oracle).enumerate() {
                let got = json::parse(line)
                    .ok()
                    .and_then(|v| v.get("prediction").and_then(|p| p.as_f64()))
                    .unwrap_or_else(|| panic!("no prediction in {line}"));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} request {i}: served {got} vs interpreted {want}",
                    kind.abbrev()
                );
            }
        }
    }

    #[test]
    fn within_window_duplicates_predict_once() {
        let art = artifact(ModelKind::LrE);
        let mut input = String::new();
        for i in 0..16 {
            input.push_str(&format!(
                "{{\"id\":\"{i}\",\"speed\":1200,\"smt\":false,\"bpred\":\"bimodal\"}}\n"
            ));
        }
        let (_, stats) = serve_jsonl(art, cfg(1), &input).expect("serve");
        assert_eq!(stats.predictions, 1, "{stats:?}");
        assert_eq!(stats.cache_misses, 16);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn invalid_request_aborts_with_typed_error() {
        let art = artifact(ModelKind::LrE);
        let input = "{\"speed\":1200,\"smt\":false,\"bpred\":\"bimodal\"}\n{\"speed\":\"bad\"}\n";
        let err = serve_jsonl(art, cfg(1), input).expect_err("invalid");
        assert_eq!(err.kind(), "invalid");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        let art = artifact(ModelKind::LrE);
        for bad in [
            ServeConfig {
                window: 0,
                ..cfg(1)
            },
            ServeConfig {
                queue_cap: 1,
                ..cfg(1)
            },
            ServeConfig {
                workers: 0,
                ..cfg(1)
            },
        ] {
            let err = Engine::new(art.clone(), bad).err().expect("rejected");
            assert_eq!(err.kind(), "invalid");
        }
    }

    #[test]
    fn queue_depth_is_bounded_by_capacity() {
        let input = requests(1000, 5);
        let (_, stats) = serve_jsonl(artifact(ModelKind::LrB), cfg(4), &input).expect("serve");
        assert!(
            stats.max_queue_depth <= 64,
            "queue exceeded capacity: {stats:?}"
        );
        assert!(stats.max_queue_depth > 0);
    }

    #[test]
    fn latency_summary_is_ordered_and_rendered() {
        let input = requests(300, 12);
        let (_, stats) = serve_jsonl(artifact(ModelKind::LrB), cfg(2), &input).expect("serve");
        assert!(stats.p50_ms > 0.0, "{stats:?}");
        assert!(stats.p95_ms >= stats.p50_ms, "{stats:?}");
        assert!(stats.p99_ms >= stats.p95_ms, "{stats:?}");
        assert!(stats.max_ms >= stats.p99_ms, "{stats:?}");
        let json = stats.to_json();
        for key in ["\"p50_ms\":", "\"p95_ms\":", "\"p99_ms\":", "\"max_ms\":"] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn blank_lines_are_skipped_not_errors() {
        let art = artifact(ModelKind::LrE);
        let input = "\n{\"speed\":1200,\"smt\":false,\"bpred\":\"bimodal\"}\n\n";
        let (out, stats) = serve_jsonl(art, cfg(1), input).expect("serve");
        assert_eq!(out.lines().count(), 1);
        assert_eq!(stats.requests, 1);
    }
}
