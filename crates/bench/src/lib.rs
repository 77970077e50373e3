//! Experiment harness regenerating every table and figure of the MeNDA
//! paper's evaluation.
//!
//! Each `figNN`/`tabN` module produces the same rows/series the paper
//! reports, printed as text tables by the `repro` binary:
//!
//! ```text
//! cargo run -p menda-bench --release --bin repro -- all
//! cargo run -p menda-bench --release --bin repro -- fig10 --scale 64
//! ```
//!
//! Matrices are scaled down by `Scale` (default 64) because the substrate
//! is a cycle-accurate simulator, not the authors' testbed; the *shapes*
//! (who wins, by what factor, where crossovers fall) are preserved, and
//! every experiment reports the paper's reference values next to the
//! measured ones (see EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod experiments;
pub mod util;

pub use util::Scale;
