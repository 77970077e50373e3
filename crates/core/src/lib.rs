//! MeNDA: a near-memory multi-way merge accelerator for sparse
//! transposition and dataflows — cycle-level simulator.
//!
//! This crate implements the paper's contribution end to end:
//!
//! * [`Packet`] — the 97-bit data packet (valid + 32-bit row + 32-bit
//!   column + 32-bit value) with the end-of-line signal of §3.3,
//! * [`MergeTree`] — the structural hardware merge tree of Fig. 5: `l-1`
//!   processing elements in `log2 l` levels connected by 2-entry FIFOs,
//!   popping one packet per cycle and propagating end-of-line signals for
//!   seamless back-to-back merge sort (the Fig. 6 pipeline),
//! * [`PrefetchBuffer`] — per-leaf multi-bank-SRAM prefetch buffers with
//!   the stall-reducing prefetching policy of §3.4,
//! * [`CoalescingQueue`] — the CAM-equipped read request queue that merges
//!   duplicate block loads (§3.4),
//! * [`ProcessingUnit`] — one PU beside one DRAM rank: controller FSM,
//!   request queues, memory interface unit backed by the cycle-level
//!   [`menda_dram`] simulator, and the multi-iteration merge-sort
//!   transposition dataflow of §3.1 with COO intermediates,
//! * [`MendaSystem`] — the multi-PU system with the NNZ-balanced
//!   input-operand co-location of §3.5 (one PU per rank, no inter-PU
//!   communication),
//! * [`Engine`] — the unified execution engine all three kernels dispatch
//!   through: a [`KernelSpec`] maps the kernel onto per-PU [`PuJob`]s and
//!   assembles the results; PUs share nothing, so the engine can simulate
//!   them on multiple host threads ([`SimOptions::threads`]) with
//!   bit-identical output,
//! * [`spmv`] — the SpMV adaptation of §3.6 (auxiliary pointer array,
//!   vector staging in the prefetch buffers, delay buffer, floating-point
//!   reduction at the root),
//! * [`spgemm`] — an extension demonstrating the paper's extensibility
//!   claim: the merge phase of outer-product SpGEMM on the same tree,
//! * [`host`] — the heterogeneous programming model of §4
//!   (`alloc → transpose → wait → addr_of`),
//! * [`energy`] — the area/power/EDP model calibrated to the paper's 40 nm
//!   synthesis results (§6.2, §6.7).
//!
//! # Quick start
//!
//! ```
//! use menda_core::{MendaConfig, MendaSystem};
//! use menda_sparse::gen;
//!
//! let matrix = gen::uniform(256, 2048, 42);
//! let mut system = MendaSystem::new(MendaConfig::small_test());
//! let result = system.transpose(&matrix);
//! assert_eq!(result.output, matrix.to_csc());
//! assert!(result.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
pub mod checkpoint;
mod coalesce;
mod config;
pub mod energy;
mod engine;
pub mod host;
mod job;
pub mod jobspec;
mod layout;
mod merge_tree;
pub mod pim;
mod prefetch;
mod pu;
pub mod spgemm;
pub mod spmv;
mod stats;
mod system;

pub use backend::{AcceleratorBackend, BackendKind, MendaBackend};
pub use checkpoint::{
    config_fingerprint, SnapshotError, SnapshotOutcome, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use coalesce::CoalescingQueue;
pub use config::{MendaConfig, PimConfig, PuConfig, SimOptions};
pub use engine::{Engine, KernelSpec};
pub use job::{transpose_job, FinalOutput, IntermediateFormat, JobRun, JobSource, PuJob};
pub use jobspec::{
    Digest, DramProfile, JobError, JobKernel, JobOutcome, JobProgress, JobSpec, MatrixSource,
    PuSummary,
};
pub use layout::{AddressLayout, BLOCK_BYTES, IDX_BYTES, PTR_BYTES, VAL_BYTES};
pub use merge_tree::{LeafSource, MergeTree, Packet, SliceLeafSource};
pub use pim::PimBackend;
pub use prefetch::{PrefetchBuffer, StreamDescriptor, StreamKind};
pub use pu::{ProcessingUnit, PtrGate, PuResult};
pub use stats::{IterationStats, PuStats, RunStats};
pub use system::{MendaSystem, TransposeResult, TransposeSpec};
// Convenience re-exports so downstream users can configure and consume
// instrumentation without naming `menda-trace` directly.
pub use menda_trace::{TraceConfig, TraceMode, TraceReport};
