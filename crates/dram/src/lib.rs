//! Cycle-level DDR4 DRAM simulator — the Ramulator-equivalent substrate of
//! the MeNDA reproduction.
//!
//! The MeNDA paper models its memory system with Ramulator configured as
//! `DDR4_2400R`, `4Gb_x8`, 32-entry read/write queues and the
//! `FRFCFS_PriorHit` scheduler (Table 1). No mature Rust DRAM simulator
//! exists, so this crate rebuilds that functionality from scratch:
//!
//! * [`DramConfig`] — organization (channels / ranks / bank groups / banks /
//!   rows / columns) and the full DDR4 timing set of Table 1,
//! * [`AddressMapper`] — physical-address → DRAM-coordinate decoding with
//!   several interleaving schemes,
//! * bank/rank state machines with every timing constraint the evaluation
//!   depends on (`tRCD`, `tCL`, `tRP`, `tRC`, `tCCD_S/L`, `tRRD_S/L`,
//!   `tFAW`, `tWTR`, write recovery, refresh),
//! * [`MemorySystem`] — multi-channel front end with per-channel FR-FCFS
//!   row-hit-first scheduling, 32-entry read/write queues, write draining
//!   and response delivery,
//! * [`CacheHierarchy`] — the L1/L2/L3 cache model of Table 1 used by the
//!   trace-driven CPU mode,
//! * [`cpu_mode`] — multi-core trace replay with barrier synchronization,
//!   used for the paper's §2.2 characterization experiments,
//! * [`DramStats`] — row hits/misses/conflicts, bandwidth utilization and
//!   latency statistics,
//! * [`ProtocolChecker`] — an independent shadow-state verifier that
//!   re-derives every JEDEC constraint over the issued command stream,
//!   live (behind [`DramConfig::check_protocol`]) or offline.
//!
//! # Example
//!
//! ```
//! use menda_dram::{DramConfig, MemorySystem, MemRequest};
//!
//! let mut mem = MemorySystem::new(DramConfig::ddr4_2400r());
//! assert!(mem.try_enqueue(MemRequest::read(0x40, 1)));
//! let mut done = None;
//! for _ in 0..1000 {
//!     mem.tick();
//!     if let Some(resp) = mem.pop_response() {
//!         done = Some(resp);
//!         break;
//!     }
//! }
//! let resp = done.expect("read must complete");
//! assert_eq!(resp.id, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod bank;
mod cache;
mod channel;
pub mod checker;
pub mod command;
mod config;
pub mod cpu_mode;
pub mod power;
mod request;
mod scheduler;
pub mod snap;
mod stats;
mod system;
mod trace;

pub use address::{AddressMapper, DramCoord, MappingScheme};
pub use bank::{Bank, BankArray, BankState};
pub use cache::{Cache, CacheConfig, CacheHierarchy};
pub use channel::ChannelController;
pub use checker::{ProtocolChecker, ProtocolViolation, REFRESH_DEADLINE_INTERVALS};
pub use command::{validate_trace, CommandKind, CommandRecord, TimingViolation};
pub use config::{set_check_protocol_default, DramConfig, DramTiming, Organization, RowPolicy};
pub use request::{MemRequest, MemResponse, ReqKind};
pub use scheduler::{FrfcfsPriorHit, SchedCounters};
pub use snap::{fnv1a, Decoder, Encoder, Fixed, Snap, SnapError};
pub use stats::DramStats;
pub use system::MemorySystem;
// Convenience re-exports so downstream crates can configure tracing
// without naming `menda-trace` directly.
pub use menda_trace::{TraceConfig, TraceMode, TraceReport};
