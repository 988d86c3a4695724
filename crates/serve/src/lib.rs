//! `serve` — the batched prediction service over exported model artifacts.
//!
//! The paper's pay-off (§4.2) is that a surrogate trained on 1–5 % of a
//! design space answers for the rest of it; this crate is where those
//! answers are actually served. It replays JSONL configuration requests
//! against a [`mlmodels::ModelArtifact`] with the throughput posture of a
//! real inference tier:
//!
//! * [`request`] — parse JSONL requests and validate each configuration
//!   against the artifact's [`mlmodels::TableSchema`] (typed
//!   `InvalidInput` errors naming the offending line and field, never a
//!   panic deep in the preprocessor).
//! * [`cache`] — a bounded LRU surrogate cache keyed on canonicalized
//!   configuration vectors; design-space replays are heavily repetitive,
//!   so hot configs skip the model entirely.
//! * [`engine`] — the batched engine: a bounded admission queue applies
//!   backpressure to the reader, cache misses are deduplicated and
//!   predicted in matrix form, and a scoped worker pool shards each
//!   batch by row index so output is bit-identical whether one thread
//!   runs or eight do. Responses come back in request order.
//! * [`workload`] — a seeded request generator that samples the schema's
//!   observed value domains, for smoke tests and benchmarks.
//!
//! Telemetry: every batch is a `serve/batch` span, and the engine
//! maintains `serve/requests`, `serve/cache_hits`, `serve/cache_misses`,
//! `serve/predictions`, and queue-depth / latency gauges alongside the
//! [`engine::ServeStats`] it returns.

pub(crate) mod admission;
pub mod cache;
pub mod compiled;
pub(crate) mod core;
pub mod daemon;
pub mod engine;
pub mod registry;
pub mod request;
pub mod workload;

pub use admission::AdmissionQueue;
pub use cache::LruCache;
pub use compiled::{compile_with, CompiledModel, Precision};
pub use daemon::{Daemon, DaemonConfig, DaemonStats};
pub use engine::{serve_jsonl, Engine, ServeConfig, ServeStats};
pub use registry::{Registry, RegistryConfig};
pub use request::{parse_request_line, Request};
pub use workload::generate_requests;
