//! menda-server: the resident multi-tenant simulation service.
//!
//! The batch `repro` binary answers one question per process; this crate
//! keeps a daemon resident so many tenants can share one simulator
//! deployment. Jobs — a matrix source or generator seed, a kernel, a
//! backend, and config overrides — arrive as line-delimited JSON over
//! TCP ([`protocol`]), pass through the same validated
//! [`JobSpec`](menda_core::JobSpec) path as the CLI, wait in a bounded
//! queue, and fan out across a worker pool ([`server`]). Clients stream
//! back `accepted`/`started`/`result` events; results embed the
//! deterministic [`JobOutcome`](menda_core::JobOutcome) stats JSON plus
//! an FNV-1a digest so a wire-submitted job can be proven bit-identical
//! to the same job run through the batch path.
//!
//! [`loadgen`] is the offline load driver: it replays hundreds of queued
//! jobs against a daemon, retries backpressure rejections, spot-checks
//! wire results against local batch re-execution, and reports throughput
//! plus p50/p90/p99 latency (persisted as `results/SERVER_8.json`).
//!
//! Start a daemon with the `menda-server` binary (or `repro serve`), and
//! drive it with the `loadgen` binary (or `repro serve-bench`):
//!
//! ```text
//! $ menda-server --addr 127.0.0.1:7870 --workers 4 --queue 64
//! $ loadgen --addr 127.0.0.1:7870 --jobs 500 --connections 4
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod loadgen;
pub mod protocol;
pub mod server;

pub use loadgen::{LoadgenOptions, LoadgenReport};
pub use protocol::{RejectReason, Request, Response, StatusSnapshot, MAX_LINE_BYTES};
pub use server::{ServerConfig, ServerHandle};
