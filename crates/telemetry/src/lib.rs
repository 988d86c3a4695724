//! Observability layer for the perfpredict workspace.
//!
//! Nothing here depends on external crates: spans, counters, progress,
//! and both sinks are built on `std` only, so the telemetry layer works
//! in the offline build environment and adds a single relaxed atomic
//! load of overhead when no run is installed.
//!
//! # Model
//!
//! A *run* is installed process-globally with [`install`]; while it is
//! active, [`span!`] guards time hierarchical stages, [`counter_add`] /
//! [`gauge_set`] / [`gauge_max`] accumulate named metrics (counters are
//! sharded for rayon-parallel callers), [`hist_observe_ns`] /
//! [`hist_merge`] feed bounded-memory streaming latency histograms
//! ([`hist`]), [`point!`] records instantaneous events, and
//! [`Progress`] throttles per-item ticks to decile updates. With
//! [`TelemetryConfig::profile`] enabled, closing spans also feed a
//! per-path self/total-time profile ([`profile`]), and the
//! [`report`] module compares a finished manifest against committed
//! `BENCH_*.json` baselines (`perfpredict perf-report`).
//! Every event is fanned out to the configured [`Sink`]s: a console sink
//! whose verbosity comes from `PERFPREDICT_LOG` (or the CLI `--trace`
//! flag) and a JSON-lines manifest sink (`--metrics-out <path>`).
//! [`RunHandle::finish`] tears the run down and returns a [`RunSummary`]
//! with wall time and metric rollups for one-line end-of-run reports.
//!
//! ```
//! let run = telemetry::install(telemetry::TelemetryConfig::new("demo")).unwrap();
//! {
//!     let _outer = telemetry::span!("sweep");
//!     let _inner = telemetry::span!("simulate", config_id = 7);
//!     telemetry::counter_add("sim/windows", 3);
//! }
//! let summary = run.finish();
//! assert_eq!(summary.counters, vec![("sim/windows".to_string(), 3)]);
//! ```
//!
//! When no run is installed every entry point returns immediately, so
//! instrumented hot loops (the simulator window loop, NN epochs) cost a
//! branch on an atomic bool.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

pub mod hist;
pub mod json;
pub mod profile;
pub mod report;

mod counters;
mod progress;
mod sink;
mod span;

pub(crate) use counters::{Gauge, ShardedCounter};
pub use hist::{AtomicHistogram, Histogram};
pub use profile::ProfileEntry;
pub use progress::Progress;
pub use sink::{ConsoleLevel, Event, RunSummary};
pub(crate) use sink::{ConsoleSink, JsonlSink, Sink};
pub use span::{SpanContext, SpanGuard};

struct Global {
    enabled: AtomicBool,
    run: RwLock<Option<Arc<RunState>>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        enabled: AtomicBool::new(false),
        run: RwLock::new(None),
    })
}

struct RunState {
    label: String,
    start: Instant,
    sinks: Vec<Box<dyn Sink>>,
    counters: RwLock<HashMap<String, Arc<ShardedCounter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    hists: RwLock<HashMap<String, Arc<AtomicHistogram>>>,
    profiler: Option<profile::Profiler>,
}

impl RunState {
    fn counter(&self, name: &str) -> Arc<ShardedCounter> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(ShardedCounter::new())),
        )
    }

    fn gauge(&self, name: &str, initial: f64) -> Arc<Gauge> {
        if let Some(g) = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new(initial))),
        )
    }

    fn hist(&self, name: &str) -> Arc<AtomicHistogram> {
        if let Some(h) = self
            .hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self.hists.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        )
    }
}

fn current_run() -> Option<Arc<RunState>> {
    if !enabled() {
        return None;
    }
    global()
        .run
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// True while a telemetry run is installed. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Fan one event out to the installed run's sinks (no-op when disabled).
pub fn emit(event: &Event<'_>) {
    let Some(run) = current_run() else {
        return;
    };
    if let (Some(profiler), Event::SpanClose { path, wall_ns, .. }) = (&run.profiler, event) {
        profiler.record(path, *wall_ns);
    }
    let t_ms = run.start.elapsed().as_secs_f64() * 1e3;
    for sink in &run.sinks {
        sink.record(t_ms, event);
    }
}

/// Implementation target of the [`point!`] macro.
#[doc(hidden)]
pub fn emit_point(name: &str, attrs: &[(&'static str, String)]) {
    emit(&Event::Point { name, attrs });
}

/// Add `delta` to the named counter (no-op when disabled).
pub fn counter_add(name: &str, delta: u64) {
    if let Some(run) = current_run() {
        run.counter(name).add(delta);
    }
}

/// Overwrite the named gauge (no-op when disabled).
pub fn gauge_set(name: &str, value: f64) {
    if let Some(run) = current_run() {
        run.gauge(name, value).set(value);
    }
}

/// Raise the named gauge to `value` if larger (no-op when disabled).
pub fn gauge_max(name: &str, value: f64) {
    if let Some(run) = current_run() {
        run.gauge(name, value).max(value);
    }
}

/// Record one observation into the named streaming histogram (no-op
/// when disabled). Histograms are registered on first use, like
/// counters, and emitted as `histogram` manifest records at run end.
pub fn hist_observe(name: &str, value: u64) {
    if let Some(run) = current_run() {
        run.hist(name).observe(value);
    }
}

/// Record a duration into the named histogram as saturating whole
/// nanoseconds (no-op when disabled).
pub fn hist_observe_ns(name: &str, d: std::time::Duration) {
    if let Some(run) = current_run() {
        run.hist(name).observe_ns(d);
    }
}

/// Fold a locally-accumulated [`Histogram`] (e.g. one per worker
/// shard) into the named registry histogram (no-op when disabled).
/// Bucket addition commutes, so merge order never changes quantiles.
pub fn hist_merge(name: &str, h: &Histogram) {
    if let Some(run) = current_run() {
        run.hist(name).merge_from(h);
    }
}

/// Configuration for [`install`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Run label used in console output and the manifest meta line.
    pub label: String,
    /// Console verbosity (defaults to `PERFPREDICT_LOG`).
    pub console: ConsoleLevel,
    /// Where to write the JSON-lines run manifest, if anywhere.
    pub jsonl_path: Option<PathBuf>,
    /// Aggregate closing spans into a per-path self/total-time profile
    /// (the CLI `--profile` flag), reported in the [`RunSummary`] and
    /// as `profile` manifest records.
    pub profile: bool,
    /// Extra key/value pairs for the manifest meta line (seed, options…).
    pub meta: Vec<(String, String)>,
}

impl TelemetryConfig {
    /// A config with console level from the environment and no manifest.
    pub fn new(label: impl Into<String>) -> Self {
        TelemetryConfig {
            label: label.into(),
            console: ConsoleLevel::from_env(),
            jsonl_path: None,
            profile: false,
            meta: Vec::new(),
        }
    }

    /// Enable (or disable) the span profiler for this run.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Override the console verbosity (e.g. for a `--trace` flag).
    pub fn console(mut self, level: ConsoleLevel) -> Self {
        self.console = level;
        self
    }

    /// Write a JSON-lines manifest to `path`.
    pub fn jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl_path = Some(path.into());
        self
    }

    /// Attach one meta key/value to the manifest header.
    pub fn meta(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Self {
        self.meta.push((key.into(), value.to_string()));
        self
    }
}

/// Handle to the installed run; call [`RunHandle::finish`] to tear it
/// down and collect the [`RunSummary`]. Dropping the handle without
/// finishing uninstalls silently (used on early-error paths).
#[must_use = "telemetry stays installed until the handle is finished or dropped"]
pub struct RunHandle {
    finished: bool,
}

/// Install a process-global telemetry run.
///
/// Returns an error only if the manifest file cannot be created. A
/// second install replaces the previous run (its sinks are dropped
/// without a summary); in-process tests that install telemetry must run
/// in separate processes or serialize themselves.
pub fn install(config: TelemetryConfig) -> io::Result<RunHandle> {
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if config.console > ConsoleLevel::Off {
        sinks.push(Box::new(ConsoleSink::new(config.console)));
    }
    if let Some(path) = &config.jsonl_path {
        sinks.push(Box::new(JsonlSink::create(
            path,
            &config.label,
            &config.meta,
        )?));
    }
    let state = Arc::new(RunState {
        label: config.label,
        start: Instant::now(),
        sinks,
        counters: RwLock::new(HashMap::new()),
        gauges: RwLock::new(HashMap::new()),
        hists: RwLock::new(HashMap::new()),
        profiler: config.profile.then(profile::Profiler::new),
    });
    let g = global();
    *g.run.write().unwrap_or_else(|e| e.into_inner()) = Some(state);
    g.enabled.store(true, Ordering::Relaxed);
    Ok(RunHandle { finished: false })
}

fn uninstall() -> Option<Arc<RunState>> {
    let g = global();
    g.enabled.store(false, Ordering::Relaxed);
    g.run.write().unwrap_or_else(|e| e.into_inner()).take()
}

impl RunHandle {
    /// Tear down the run, flush sinks, and return the metric rollup.
    pub fn finish(mut self) -> RunSummary {
        self.finished = true;
        let Some(run) = uninstall() else {
            // Replaced by a later install; report an empty summary.
            return RunSummary {
                label: String::new(),
                wall: std::time::Duration::ZERO,
                counters: Vec::new(),
                gauges: Vec::new(),
                hists: Vec::new(),
                profile: Vec::new(),
            };
        };
        let mut counters: Vec<(String, u64)> = run
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, c)| (k.clone(), c.value()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = run
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hists: Vec<(String, Histogram)> = run
            .hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let profile = run
            .profiler
            .as_ref()
            .map(|p| p.snapshot())
            .unwrap_or_default();
        let summary = RunSummary {
            label: run.label.clone(),
            wall: run.start.elapsed(),
            counters,
            gauges,
            hists,
            profile,
        };
        for sink in &run.sinks {
            sink.run_end(&summary);
        }
        summary
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        if !self.finished {
            let _ = uninstall();
        }
    }
}
