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
//! Every launch drives each unit through the same steps — build the unit
//! and start its job, advance it, finish it into its result and trace
//! report — whether it runs straight through ([`Engine::run`]) or is held
//! live across pause points by the checkpoint layer
//! ([`crate::checkpoint`]).
//!
//! The engine is generic over the [`AcceleratorBackend`] being simulated;
//! [`Engine::new`] keeps the MeNDA merge-tree PU as the default and
//! [`Engine::with_backend`] swaps in another design (e.g. the SparseP-
//! style PIM model in [`crate::pim`]). Drivers that pick the backend at
//! run time name it with a [`BackendKind`]; one private dispatch turns
//! that into a backend for every such launch. Each unit simulates under the
//! execution discipline selected by [`crate::SimOptions::fast_forward`]:
//! the event-driven core (default) skips quiescent spans and runs busy
//! spans on wakeups, while `false` keeps the per-cycle poll-everything
//! reference; the two are bit-identical in output, cycle count and
//! statistics (see the fast-forward differential suites).

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Mutex;

use menda_trace::TraceReport;

use crate::backend::{AcceleratorBackend, BackendKind, MendaBackend};
use crate::checkpoint::SnapshotError;
use crate::config::MendaConfig;
use crate::job::PuJob;
use crate::pim::PimBackend;
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

    /// Runs one kernel launch: builds, runs and drops each unit inside
    /// its own fan-out item, so only as many units are live as there are
    /// worker threads, then assembles. With more than one worker thread
    /// the unit simulations run concurrently; outputs and statistics are
    /// identical to a serial run because units are independent.
    pub fn run<S: KernelSpec>(&self, spec: &S) -> S::Output {
        let finished = fan_out(self.unit_threads(), 0..self.config.num_pus(), |p| {
            let mut unit = self.start_unit(spec, p);
            unit.advance(&self.backend, None);
            unit.finish(&self.backend)
        });
        self.assemble(spec, finished)
    }

    /// Builds unit `p` and starts its job without advancing it.
    pub(crate) fn start_unit<S: KernelSpec>(&self, spec: &S, p: usize) -> LiveUnit<B> {
        let unit = self.backend.build_unit(self.config);
        let run = self.backend.start_job(&unit, spec.make_job(p));
        LiveUnit {
            unit,
            run,
            done: false,
        }
    }

    /// Merges the finished units' trace reports in unit order, so counters
    /// merge deterministically and Chrome pids identify the unit, rolls
    /// their results up into [`RunStats`] and hands both to the kernel.
    pub(crate) fn assemble<S: KernelSpec>(
        &self,
        spec: &S,
        finished: Vec<(PuResult, Option<TraceReport>)>,
    ) -> S::Output {
        let mut results = Vec::with_capacity(finished.len());
        let mut trace: Option<TraceReport> = None;
        for (p, (result, report)) in finished.into_iter().enumerate() {
            results.push(result);
            if let Some(report) = report {
                trace
                    .get_or_insert_with(TraceReport::default)
                    .absorb_as(report, p as u32);
            }
        }
        let mut run = RunStats::collect(
            self.backend.frequency_mhz(self.config),
            results.iter().map(|r| r.stats.clone()).collect(),
        );
        run.backend = self.backend.name();
        run.trace = trace;
        spec.assemble(results, run)
    }
}

/// One unit of a launch: the backend's device model and its in-flight
/// run.
pub(crate) struct LiveUnit<B: AcceleratorBackend> {
    pub(crate) unit: B::Unit,
    pub(crate) run: B::Run,
    /// The run has finished; further advances are no-ops.
    pub(crate) done: bool,
}

impl<B: AcceleratorBackend> LiveUnit<B> {
    /// Advances the run until it finishes or its job-relative cycle count
    /// reaches `pause_at` (`None` runs to completion). Returns whether it
    /// has finished.
    pub(crate) fn advance(&mut self, backend: &B, pause_at: Option<u64>) -> bool {
        self.done = self.done || backend.advance(&mut self.unit, &mut self.run, pause_at);
        self.done
    }

    /// Consumes a finished unit into its result and its trace report.
    pub(crate) fn finish(mut self, backend: &B) -> (PuResult, Option<TraceReport>) {
        let result = backend.finish_run(&self.unit, self.run);
        (result, backend.take_trace_report(&mut self.unit))
    }
}

/// How a launch whose backend is picked at run time is driven once
/// [`dispatch`] has built its engine: to the kernel's output
/// (`Continue`) or to an early stop (`Break`).
pub(crate) trait Drive {
    /// What a launch that stops early ends with.
    type Stop;

    fn drive<B: AcceleratorBackend, S: KernelSpec>(
        &mut self,
        engine: &Engine<'_, B>,
        spec: &S,
    ) -> Result<ControlFlow<Self::Stop, S::Output>, SnapshotError>;
}

/// Uninterrupted execution: [`Engine::run`].
pub(crate) struct Straight;

impl Drive for Straight {
    type Stop = Infallible;

    fn drive<B: AcceleratorBackend, S: KernelSpec>(
        &mut self,
        engine: &Engine<'_, B>,
        spec: &S,
    ) -> Result<ControlFlow<Infallible, S::Output>, SnapshotError> {
        Ok(ControlFlow::Continue(engine.run(spec)))
    }
}

/// Runs `drive` on the backend `kind` names — the one place a
/// [`BackendKind`] becomes a backend.
pub(crate) fn dispatch<D: Drive, S: KernelSpec>(
    config: &MendaConfig,
    kind: BackendKind,
    spec: &S,
    drive: &mut D,
) -> Result<ControlFlow<D::Stop, S::Output>, SnapshotError> {
    match kind {
        BackendKind::Menda => drive.drive(&Engine::with_backend(config, MendaBackend), spec),
        BackendKind::Pim => drive.drive(&Engine::with_backend(config, PimBackend), spec),
    }
}

/// Runs `spec` to completion on the backend `kind` names.
pub(crate) fn run_kind<S: KernelSpec>(
    config: &MendaConfig,
    kind: BackendKind,
    spec: &S,
) -> S::Output {
    let Ok(ControlFlow::Continue(output)) = dispatch(config, kind, spec, &mut Straight) else {
        unreachable!("a straight run neither stops nor fails")
    };
    output
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
