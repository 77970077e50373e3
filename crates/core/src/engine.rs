//! The unified execution engine: maps a kernel onto per-unit jobs, runs
//! them (optionally on multiple host threads), and hands the aggregated
//! results back to the kernel for assembly.
//!
//! Per-rank accelerator units share nothing — each owns one rank and its
//! partition (§3.5) — so the simulation of a kernel launch is
//! embarrassingly parallel on the host: unit `p`'s result depends only on
//! job `p`. [`Engine::run`] exploits that with `std::thread::scope`
//! workers pulling unit indices from a shared queue; results are
//! reassembled in unit order, so the output is bit-identical to a serial
//! run for any thread count ([`crate::SimOptions::threads`] picks the
//! count).
//!
//! The engine is generic over the [`AcceleratorBackend`] being simulated;
//! [`Engine::new`] keeps the MeNDA merge-tree PU as the default and
//! [`Engine::with_backend`] swaps in another design (e.g. the SparseP-
//! style PIM model in [`crate::pim`]). Each unit simulates under the
//! execution discipline selected by [`crate::SimOptions::fast_forward`]:
//! the event-driven core (default) skips quiescent spans and runs busy
//! spans on wakeups, while `false` keeps the per-cycle poll-everything
//! reference; the two are bit-identical in output, cycle count and
//! statistics (see the fast-forward differential suites).

use std::sync::Mutex;

use menda_trace::TraceReport;

use crate::backend::{AcceleratorBackend, MendaBackend};
use crate::config::MendaConfig;
use crate::job::PuJob;
use crate::pu::PuResult;
use crate::stats::RunStats;

/// A kernel's mapping onto the engine: how to build PU `p`'s job and how
/// to assemble the per-PU results into the kernel's output.
///
/// Implementations must be `Sync` because jobs are built inside the
/// worker threads (partition extraction and format conversion parallelize
/// along with the simulation). Both `make_job` and `assemble` must be
/// deterministic functions of their arguments — the engine calls
/// `make_job` in arbitrary order but assembles results in PU order.
pub trait KernelSpec: Sync {
    /// The assembled kernel result.
    type Output;

    /// Builds the job for PU `p` (`0 <= p < config.num_pus()`).
    fn make_job(&self, p: usize) -> PuJob;

    /// Combines the per-PU results (indexed by PU id) and the aggregated
    /// run statistics into the kernel's output.
    fn assemble(&self, results: Vec<PuResult>, run: RunStats) -> Self::Output;
}

/// Executes kernels on a configured near-memory system, one simulated
/// accelerator unit per rank. Generic over the [`AcceleratorBackend`];
/// defaults to the MeNDA merge-tree PU.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'a, B: AcceleratorBackend = MendaBackend> {
    config: &'a MendaConfig,
    backend: B,
}

impl<'a> Engine<'a> {
    /// Creates an engine for `config` with the default MeNDA backend.
    ///
    /// # Panics
    ///
    /// Panics if the PU configuration is invalid.
    pub fn new(config: &'a MendaConfig) -> Self {
        config.pu.validate();
        Self {
            config,
            backend: MendaBackend,
        }
    }
}

impl<'a, B: AcceleratorBackend> Engine<'a, B> {
    /// Creates an engine for `config` simulating `backend` in place of
    /// the MeNDA PU beside each rank.
    pub fn with_backend(config: &'a MendaConfig, backend: B) -> Self {
        Self { config, backend }
    }

    /// The configuration this engine simulates under (used by the
    /// checkpoint entry points in [`crate::checkpoint`]).
    pub(crate) fn config(&self) -> &'a MendaConfig {
        self.config
    }

    /// The backend this engine drives.
    pub(crate) fn backend(&self) -> &B {
        &self.backend
    }

    /// Host worker threads for one launch of this engine's units.
    pub(crate) fn unit_threads(&self) -> usize {
        self.config.sim.effective_threads(self.config.num_pus())
    }

    /// Runs one kernel launch: builds and executes one job per unit, then
    /// assembles. With more than one worker thread the unit simulations
    /// run concurrently; outputs and statistics are identical to a serial
    /// run because units are independent.
    pub fn run<S: KernelSpec>(&self, spec: &S) -> S::Output {
        let outcomes = fan_out(self.unit_threads(), 0..self.config.num_pus(), |p| {
            let mut unit = self.backend.build_unit(self.config);
            let result = self.backend.execute_job(&mut unit, spec.make_job(p)).into();
            (result, self.backend.take_trace_report(&mut unit))
        });
        let (results, reports): (Vec<PuResult>, Vec<Option<TraceReport>>) =
            outcomes.into_iter().unzip();
        // Aggregate per-unit trace reports in unit order so counters merge
        // deterministically and Chrome pids identify the unit.
        let mut aggregated: Option<TraceReport> = None;
        for (p, report) in reports.into_iter().enumerate() {
            if let Some(report) = report {
                aggregated
                    .get_or_insert_with(TraceReport::default)
                    .absorb_as(report, p as u32);
            }
        }
        self.assemble(spec, results, aggregated)
    }

    /// Rolls per-unit results (in unit order) up into [`RunStats`] and
    /// hands both to the kernel for assembly.
    pub(crate) fn assemble<S: KernelSpec>(
        &self,
        spec: &S,
        results: Vec<PuResult>,
        trace: Option<TraceReport>,
    ) -> S::Output {
        let mut run = RunStats::collect(
            self.backend.frequency_mhz(self.config),
            results.iter().map(|r| r.stats.clone()).collect(),
        );
        run.backend = self.backend.name();
        run.trace = trace;
        spec.assemble(results, run)
    }
}

/// Maps `f` over `items` and returns the results in item order: serially
/// when `threads <= 1`, otherwise on `threads` scoped workers that each
/// pull the next item off a shared queue. The one fan-out every per-unit
/// step of a launch goes through, straight-through or checkpointed.
pub(crate) fn fan_out<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: Iterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    if threads <= 1 {
        return items.map(f).collect();
    }
    let queue = Mutex::new(items.enumerate());
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("unit queue").next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("PU worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::transpose_job;
    use menda_sparse::gen;
    use menda_sparse::partition::RowPartition;
    use menda_sparse::CsrMatrix;

    /// A bare transposition spec that returns the raw per-PU results.
    struct RawTranspose<'m> {
        matrix: &'m CsrMatrix,
        partition: RowPartition,
    }

    impl KernelSpec for RawTranspose<'_> {
        type Output = (Vec<PuResult>, RunStats);

        fn make_job(&self, p: usize) -> PuJob {
            transpose_job(
                self.partition.extract(self.matrix, p),
                self.partition.range(p).start,
            )
        }

        fn assemble(&self, results: Vec<PuResult>, run: RunStats) -> Self::Output {
            (results, run)
        }
    }

    fn raw_run(cfg: &MendaConfig, m: &CsrMatrix) -> (Vec<PuResult>, RunStats) {
        let spec = RawTranspose {
            matrix: m,
            partition: RowPartition::by_nnz(m, cfg.num_pus()),
        };
        Engine::new(cfg).run(&spec)
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let m = gen::rmat(128, 1024, gen::RmatParams::PAPER, 77);
        let base = MendaConfig::small_test().with_ranks_per_channel(4);
        let (serial, run_s) = raw_run(&base.clone().with_threads(1), &m);
        for threads in [2, 4, 8] {
            let (par, run_p) = raw_run(&base.clone().with_threads(threads), &m);
            assert_eq!(serial, par, "threads={threads}");
            assert_eq!(run_s, run_p, "threads={threads}");
        }
    }

    #[test]
    fn results_are_in_pu_order() {
        let m = gen::uniform(64, 512, 5);
        let cfg = MendaConfig::small_test().with_ranks_per_channel(4);
        let (results, run) = raw_run(&cfg, &m);
        assert_eq!(results.len(), 4);
        assert_eq!(run.pu_stats.len(), 4);
        // Partition p's minors are global rows within partition p's range.
        let partition = RowPartition::by_nnz(&m, 4);
        for (p, r) in results.iter().enumerate() {
            let range = partition.range(p);
            assert!(r
                .minors
                .iter()
                .all(|&row| (range.start as u32..range.end as u32).contains(&row)));
            assert_eq!(r.stats, run.pu_stats[p]);
        }
    }
}
