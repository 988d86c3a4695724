//! The serving step of `dse_applu`: the selected model served by a
//! `serve::Daemon`.
//!
//! A fresh daemon with the model preloaded answers a fixed batch of
//! requests from `serve::generate_requests` (a pool of n/4 distinct
//! configurations, so most repeats hit the cache), with a `reload`
//! control frame after every `RELOAD_EVERY` requests so registry writes
//! sit beside reads. The step is closed-loop: the sender keeps up to
//! `IN_FLIGHT` frames unanswered and sends more as answers come back, so
//! it lasts as long as the daemon takes to work through the batch and
//! its share of the pass wall grows with the cost of serving.

use crate::metrics::Outcome;
use crate::spans::{SpanId, Tracer};
use crate::stats;
use fault::{Error, Result};
use mlmodels::artifact::ColumnSchema;
use mlmodels::{ModelArtifact, Table, TableSchema, TrainedModel};
use serve::request::Cell;
use serve::{Daemon, DaemonConfig, DaemonStats, Registry, RegistryConfig, Request};
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use telemetry::json::{self, Value};

/// Requests in one serving step.
const REQUESTS: usize = 20_000;
/// A `reload` control frame follows every this many requests.
const RELOAD_EVERY: usize = 1_000;
/// Admission-queue capacity.
const QUEUE_CAP: usize = 1024;
/// Requests sent but not yet answered, at most: half the admission queue,
/// so nothing is shed. The sender tops the daemon up in chunks of half
/// this once no more than half of it is unanswered.
const IN_FLIGHT: usize = QUEUE_CAP / 2;
/// Give up on the daemon when no frame is answered for this long.
const STALL: Duration = Duration::from_secs(30);
const MODEL: &str = "m";

/// The served model and where its artifact lives.
pub(crate) struct Served {
    model: TrainedModel,
    schema: TableSchema,
    path: String,
}

impl Served {
    pub(crate) fn load(path: &str) -> Result<Served> {
        let artifact = ModelArtifact::load(path)?;
        Ok(Served {
            model: artifact.model,
            schema: artifact.schema,
            path: path.to_string(),
        })
    }
}

/// The daemon's input: frames handed over by the sender.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                // The sender hung up: end of stream.
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// The daemon's output: every byte written, and for each response line
/// the time it was completed and where it ends. Every completed line
/// wakes the sender.
struct ResponseSink {
    bytes: Vec<u8>,
    ends: Vec<(Instant, usize)>,
    answered: Arc<Condvar>,
}

impl Write for ResponseSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let base = self.bytes.len();
        self.bytes.extend_from_slice(buf);
        for (i, _) in buf.iter().enumerate().filter(|&(_, &b)| b == b'\n') {
            self.ends.push((now, base + i + 1));
            self.answered.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one serving step measured.
pub(crate) struct Step {
    /// Latency of each answered prediction from when it was sent, ms.
    pub(crate) lat_ms: Vec<f64>,
    /// Requests refused, rejected or left unanswered.
    pub(crate) failed: u64,
    pub(crate) stats: DaemonStats,
}

/// The requests of one serving step and the prediction served for each.
pub(crate) struct Answers {
    /// The request lines, as `serve::generate_requests` wrote them.
    requests: String,
    predictions: Vec<Option<f64>>,
}

fn daemon_workers() -> usize {
    // The sender keeps one core; the daemon's predict workers get the rest.
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .saturating_sub(1)
        .max(1)
}

fn id_index(id: &str, prefix: char) -> Option<usize> {
    id.strip_prefix(prefix)?.parse().ok()
}

/// Serve `REQUESTS` requests through a fresh daemon with the artifact
/// preloaded, keeping at most `IN_FLIGHT` frames unanswered.
pub(crate) fn replay(
    served: &Served,
    seed: u64,
    tr: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> Result<(Step, Answers)> {
    let n = REQUESTS;
    let text = serve::generate_requests(&served.schema, n, n / 4, seed)?;
    let requests: Vec<&str> = text.lines().collect();
    let mut registry = Registry::new(RegistryConfig::default());
    registry.load(MODEL, &served.path)?;
    let config = DaemonConfig {
        workers: daemon_workers(),
        queue_cap: QUEUE_CAP,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(config, registry)?;
    let answered = Arc::new(Condvar::new());
    let sink = Arc::new(Mutex::new(ResponseSink {
        bytes: Vec::new(),
        ends: Vec::new(),
        answered: Arc::clone(&answered),
    }));
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let reader = ChannelReader {
        rx,
        buf: Vec::new(),
        pos: 0,
    };

    let mut sent_at = vec![None; n];
    let mut reloads = 0usize;
    let daemon_stats = std::thread::scope(|s| {
        let writer = Arc::clone(&sink);
        let serving = s.spawn(move || daemon.run(reader, writer));
        let (mut next, mut frames) = (0usize, 0usize);
        while next < n {
            // Wait until at most half the in-flight limit is unanswered.
            let mut written = sink.lock().expect("response sink lock poisoned");
            let mut stalled = false;
            while written.ends.len() + IN_FLIGHT / 2 < frames && !stalled {
                let (guard, wait) = answered
                    .wait_timeout(written, STALL)
                    .expect("response sink lock poisoned");
                written = guard;
                stalled = wait.timed_out();
            }
            drop(written);
            if stalled {
                break; // The unanswered frames are counted below.
            }
            let now = Instant::now();
            let mut chunk = Vec::new();
            let stop = (next + IN_FLIGHT / 2).min(n);
            while next < stop {
                sent_at[next] = Some(now);
                chunk.extend_from_slice(requests[next].as_bytes());
                chunk.push(b'\n');
                next += 1;
                frames += 1;
                if next % RELOAD_EVERY == 0 {
                    chunk.extend_from_slice(
                        format!(
                            "{{\"id\":\"r{reloads}\",\"op\":\"reload\",\"model\":\"{MODEL}\"}}\n"
                        )
                        .as_bytes(),
                    );
                    reloads += 1;
                    frames += 1;
                }
            }
            if tx.send(chunk).is_err() {
                break; // The daemon stopped early; its result says why.
            }
        }
        drop(tx);
        serving
            .join()
            .map_err(|_| Error::invalid("daemon thread panicked"))?
    })?;

    let (bytes, ends) = {
        let mut written = sink.lock().expect("response sink lock poisoned");
        (
            std::mem::take(&mut written.bytes),
            std::mem::take(&mut written.ends),
        )
    };
    let mut predictions = vec![None; n];
    let mut answers = vec![0u32; n];
    let mut reload_acks = vec![0u32; reloads];
    let mut lat_ms = Vec::with_capacity(n);
    let mut start = 0;
    for &(at, end) in &ends {
        let text = String::from_utf8_lossy(&bytes[start..end]);
        start = end;
        let v = json::parse(text.trim_end())
            .map_err(|e| Error::invalid(format!("response {text:?}: {e}")))?;
        let id = v.get("id").and_then(Value::as_str).unwrap_or("");
        let request = id_index(id, 'g').and_then(|i| Some((i, sent_at.get(i).copied().flatten()?)));
        if let Some((i, sent)) = request {
            answers[i] += 1;
            if let Some(p) = v.get("prediction").and_then(Value::as_f64) {
                predictions[i] = Some(p);
                lat_ms.push(at.saturating_duration_since(sent).as_secs_f64() * 1e3);
                tr.record("serve.request", parent, i as u64, sent, at);
            }
        } else if let Some(k) = id_index(id, 'r').filter(|&k| k < reloads) {
            reload_acks[k] += 1;
            let ok = v.get("ok") == Some(&Value::Bool(true));
            out.check(ok, || format!("reload {k} failed: {text}"));
        } else {
            out.check(false, || format!("response for an unknown frame: {text}"));
        }
    }
    let once = answers.iter().chain(&reload_acks).all(|&c| c == 1);
    out.check(once, || {
        let missing = answers.iter().filter(|&&c| c == 0).count();
        let extra = answers.iter().filter(|&&c| c > 1).count();
        format!("{missing} requests unanswered, {extra} answered twice")
    });
    let answered = predictions.iter().filter(|p| p.is_some()).count();
    out.attempted += (n + reloads) as u64;
    let failed = (n - answered) as u64;
    out.failed += failed;
    if failed > 0 {
        out.note(format!(
            "{failed} of {n} requests failed (shed {} deadline {} degraded {} invalid {})",
            daemon_stats.shed,
            daemon_stats.deadline_misses,
            daemon_stats.degraded_rejects,
            daemon_stats.invalid
        ));
    }
    let step = Step {
        lat_ms,
        failed,
        stats: daemon_stats,
    };
    let answers = Answers {
        requests: text,
        predictions,
    };
    Ok((step, answers))
}

/// Parse request lines against the served schema.
fn parse_all(schema: &TableSchema, text: &str) -> Result<Vec<Request>> {
    text.lines()
        .enumerate()
        .map(|(i, l)| serve::parse_request_line(schema, l, i as u64 + 1))
        .collect()
}

/// The requests as a prediction table, in schema column order.
fn request_table(schema: &TableSchema, requests: &[Request]) -> Table {
    let mut table = Table::new();
    for (j, col) in schema.columns.iter().enumerate() {
        let cells = requests.iter().map(|r| &r.cells[j]);
        match col {
            ColumnSchema::Numeric { name, .. } => {
                let v = cells.map(|c| if let Cell::Num(x) = c { *x } else { f64::NAN });
                table.add_numeric(name.clone(), v.collect());
            }
            ColumnSchema::Flag { name } => {
                let v = cells.map(|c| matches!(c, Cell::Flag(true)));
                table.add_flag(name.clone(), v.collect());
            }
            ColumnSchema::Categorical { name, levels } => {
                let v = cells.map(|c| if let Cell::Code(k) = c { *k } else { 0 });
                table.add_categorical(name.clone(), v.collect(), levels.clone());
            }
        }
    }
    table.set_target(vec![1.0; requests.len()]);
    table
}

/// Every served prediction must equal `TrainedModel::predict` on the
/// same configuration, bit for bit.
pub(crate) fn check_predictions(served: &Served, step: Answers, out: &mut Outcome) -> Result<()> {
    let parsed = parse_all(&served.schema, &step.requests)?;
    let want = served
        .model
        .predict(&request_table(&served.schema, &parsed));
    let wrong = step
        .predictions
        .iter()
        .zip(&want)
        .filter(|(got, want)| got.is_some_and(|g| g.to_bits() != want.to_bits()))
        .count();
    out.check(wrong == 0, || {
        format!("{wrong} served predictions differ from TrainedModel::predict")
    });
    Ok(())
}

/// Per-layer serve metrics: the daemon's own counts for the traced
/// steps, then each layer's public function timed alone.
pub(crate) fn serve_layers(
    served: &Served,
    steps: &[Step],
    seed: u64,
    tr: &Tracer,
    out: &mut Outcome,
) -> Result<()> {
    let sum = |f: fn(&DaemonStats) -> u64| steps.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    out.set(
        "serve.cache_hit_ratio",
        sum(|s| s.cache_hits) / sum(|s| s.requests).max(1.0),
    );
    out.set(
        "serve.batch_rows",
        sum(|s| s.predictions) / sum(|s| s.batches).max(1.0),
    );
    out.set(
        "serve.max_queue_depth",
        steps
            .iter()
            .map(|s| s.stats.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("serve.shed", sum(|s| s.shed));
    out.set("serve.degraded_rejects", sum(|s| s.degraded_rejects));

    let probe = tr.enter("bench.probe", SpanId::ROOT);
    let n = REQUESTS;
    let text = serve::generate_requests(&served.schema, n, n / 4, seed)?;
    let t = Instant::now();
    let requests = {
        let _g = tr.enter("serve.parse", probe.id());
        parse_all(&served.schema, &text)?
    };
    out.set(
        "serve.parse_us_per_req",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
    );

    let compiled = serve::compile_with(ModelArtifact::load(&served.path)?, serve::Precision::F64)?;
    let window = DaemonConfig::default().window;
    let refs: Vec<&Request> = requests.iter().collect();
    let t = Instant::now();
    for batch in refs.chunks(window) {
        let _g = tr.enter("serve.predict", probe.id());
        std::hint::black_box(compiled.predict_requests(batch));
    }
    out.set(
        "serve.predict_us_per_row",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
    );

    let mut registry = Registry::new(RegistryConfig::default());
    let mut reload_ms = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let _g = tr.enter("serve.reload", probe.id());
        registry.load(MODEL, &served.path)?;
        reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("serve.reload_ms", stats::median(&reload_ms));
    Ok(())
}
