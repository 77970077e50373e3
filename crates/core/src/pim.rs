//! A SparseP-style UPMEM PIM backend (arXiv:2204.00900).
//!
//! Where the MeNDA PU is a hardware merge tree beside the rank, SparseP's
//! substrate is a commodity UPMEM rank: many in-order DPU cores, each with
//! a small WRAM scratchpad, computing only on rank-local DRAM. This module
//! models that design on the *same* cycle-level [`menda_dram`] rank and
//! executes the same backend-agnostic [`PuJob`] descriptions, so the two
//! architectures are compared under identical memory timing, statistics
//! and energy accounting.
//!
//! The execution model is the natural SparseP mapping of the multi-way
//! merge kernels (1D partitioning across cores, local compute, host-free
//! rank-level combine):
//!
//! * **Phase A — stream-in and local sort.** The job's streams are
//!   1D-partitioned contiguously across the rank's DPUs, balanced by
//!   element count. Each DPU streams its partitions' blocks from rank
//!   DRAM (pointer/vector blocks of a gated job are streamed first by the
//!   rank dispatcher), ingests elements at [`PimConfig::elem_cpi`], merge-
//!   sorts them locally (`n·ceil(log2 n)·sort_cpi`; sorts that overflow
//!   WRAM pay extra MRAM-resident passes), then writes its sorted run to
//!   the intermediate region.
//! * **Phase B — rank-level merge and write-back.** The sorted runs are
//!   streamed back and combined by a `d`-way merge at
//!   [`PimConfig::merge_cpi`] cycles per input element (reducing equal
//!   keys when the job asks for it), and the merged result is written in
//!   the job's final output format.
//!
//! Differences from the MeNDA PU worth knowing when reading numbers:
//! DPUs have no inter-core request coalescing, so blocks shared by
//! adjacent stream partitions are fetched once per consumer
//! (`loads_coalesced` stays 0); floating-point reduction order is
//! per-run-then-merge rather than the root's global order, so reducing
//! kernels (SpMV/SpGEMM) match MeNDA to tolerance while transposition is
//! bit-identical; and concurrent host traffic
//! ([`crate::PuConfig::host_read_interval`]) does not apply — a UPMEM
//! rank is not host-accessible while kernels run.
//!
//! Both the per-cycle reference and the event-driven fast-forward path
//! ([`crate::SimOptions::fast_forward`]) are supported with bit-identical
//! results, using the same quiescence-skip bound as the PU.

use menda_dram::{Decoder, DramStats, Encoder, MemRequest, MemorySystem, ReqKind, Snap, SnapError};
use menda_trace::TraceReport;

use crate::backend::AcceleratorBackend;
use crate::config::{MendaConfig, PimConfig};
use crate::job::{FinalOutput, IntermediateFormat, PuJob};
use crate::layout::{AddressLayout, BLOCK_BYTES, PTR_BYTES};
use crate::merge_tree::Packet;
use crate::prefetch::{StreamDescriptor, StreamKind};
use crate::pu::PuResult;
use crate::stats::{IterationStats, PuStats};

/// Bytes of one sorted-run element resident in WRAM during a local sort.
const COO_ELEM_BYTES: u64 = 12;
/// Cost multiplier of a sort pass whose working set lives in MRAM rather
/// than WRAM (streaming MRAM accesses on a DPU are several times slower
/// than WRAM; SparseP §3).
const MRAM_PASS_FACTOR: u64 = 4;

/// The SparseP-style UPMEM PIM design as an [`AcceleratorBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PimBackend;

impl AcceleratorBackend for PimBackend {
    type Unit = PimUnit;
    type Run = PimRun;

    fn name(&self) -> &'static str {
        "pim"
    }

    fn frequency_mhz(&self, config: &MendaConfig) -> u64 {
        config.pim.frequency_mhz
    }

    fn build_unit(&self, config: &MendaConfig) -> PimUnit {
        PimUnit::new(config)
    }

    fn start_job(&self, unit: &PimUnit, job: PuJob) -> PimRun {
        PimRun::new(unit, job)
    }

    fn advance(&self, unit: &mut PimUnit, run: &mut PimRun, pause_at: Option<u64>) -> bool {
        run.run_until(unit, pause_at)
    }

    fn finish_run(&self, unit: &PimUnit, run: PimRun) -> PuResult {
        run.finish(unit)
    }

    fn take_trace_report(&self, unit: &mut PimUnit) -> Option<TraceReport> {
        unit.take_trace_report()
    }

    fn save_run(&self, run: &PimRun, enc: &mut Encoder) {
        run.save(enc);
    }

    /// The run's progress anchors must point into the restored unit's
    /// past, the bound a fresh run takes from it.
    fn restore_run(
        &self,
        unit: &PimUnit,
        job: PuJob,
        dec: &mut Decoder<'_>,
    ) -> Result<PimRun, SnapError> {
        let mut run = PimRun::new(unit, job);
        run.load(dec)?;
        if run.drive_id_base > unit.next_req_id
            || run.start_cycle > unit.cycles
            || run.phase_b_start > unit.cycles
        {
            return Err(SnapError::BadValue);
        }
        Ok(run)
    }
}

/// One simulated UPMEM-style rank: `dpus_per_rank` DPU cores beside one
/// cycle-level DRAM rank, plus the rank-level dispatcher/merge engine.
#[derive(Debug)]
pub struct PimUnit {
    cfg: PimConfig,
    /// DRAM bus cycles per DPU cycle as a (numerator, denominator) ratio.
    ticks: (u64, u64),
    layout: AddressLayout,
    mem: MemorySystem,
    dram_tick_accum: u64,
    next_req_id: u64,
    /// DPU-clock cycles elapsed across every job run on this unit.
    cycles: u64,
    fast_forward: bool,
    /// Whether to emit a [`TraceReport`]; counters live on the unit.
    traced: bool,
    trace_loads: u64,
    trace_stores: u64,
    trace_sorted: u64,
    trace_merged: u64,
}

menda_dram::snap_fields!(PimUnit {
    cycles,
    dram_tick_accum,
    next_req_id,
    trace_loads,
    trace_stores,
    trace_sorted,
    trace_merged,
    mem,
} after restored);

impl PimUnit {
    /// Creates a PIM rank with its own single-rank memory system,
    /// mirroring [`crate::ProcessingUnit::new`]'s per-rank scoping.
    ///
    /// # Panics
    ///
    /// Panics if the PIM configuration is invalid.
    pub fn new(config: &MendaConfig) -> Self {
        config.pim.validate();
        let mut dram = config.dram.clone().with_channels(1).with_ranks(1);
        dram.trace = config.trace;
        Self {
            cfg: config.pim.clone(),
            ticks: (config.dram.clock_mhz, config.pim.frequency_mhz),
            layout: AddressLayout::rank_default(),
            mem: MemorySystem::new(dram),
            dram_tick_accum: 0,
            next_req_id: 0,
            cycles: 0,
            fast_forward: config.sim.fast_forward,
            traced: config.trace.enabled(),
            trace_loads: 0,
            trace_stores: 0,
            trace_sorted: 0,
            trace_merged: 0,
        }
    }

    /// The rank's DRAM command log (empty unless
    /// [`menda_dram::DramConfig::log_commands`] is set) — mirrors
    /// [`crate::ProcessingUnit::dram_command_log`] so differential suites
    /// can compare command streams across backends and restore points.
    pub fn dram_command_log(&self) -> &[menda_dram::CommandRecord] {
        self.mem.command_log(0)
    }

    /// Ends instrumentation and returns this rank's trace report (DPU
    /// counters plus the rank's DRAM events), or `None` when tracing is
    /// off.
    pub fn take_trace_report(&mut self) -> Option<TraceReport> {
        if !self.traced {
            return None;
        }
        self.traced = false;
        let mut report = TraceReport::default();
        report.add_counter("pim.cycles", self.cycles);
        report.add_counter("pim.blocks_loaded", self.trace_loads);
        report.add_counter("pim.blocks_stored", self.trace_stores);
        report.add_counter("pim.elems_sorted", self.trace_sorted);
        report.add_counter("pim.elems_merged", self.trace_merged);
        if let Some(dram) = self.mem.take_trace_report() {
            report.merge(dram);
        }
        Some(report)
    }

    /// DPU cycles to merge-sort `n` resident elements:
    /// `n·ceil(log2 n)·sort_cpi`, with passes whose working set exceeds
    /// half the WRAM (double-buffered) charged [`MRAM_PASS_FACTOR`]×.
    fn local_sort_cycles(&self, n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        let passes = ceil_log2(n);
        let chunk = (self.cfg.wram_bytes as u64 / COO_ELEM_BYTES / 2).max(1);
        let chunks = n.div_ceil(chunk);
        let spill = if chunks > 1 { ceil_log2(chunks) } else { 0 };
        let wram = passes - spill;
        n * wram * self.cfg.sort_cpi + n * spill * self.cfg.sort_cpi * MRAM_PASS_FACTOR
    }

    /// Block addresses of `total` intermediate-format elements in
    /// ping-pong region 0, arrays interleaved (all tagged 0).
    fn intermediate_blocks(&self, fmt: IntermediateFormat, total: u64) -> Vec<(u64, usize)> {
        let region = &self.layout.coo[0];
        let bases: &[u64] = match fmt {
            IntermediateFormat::Coo => &region[..],
            IntermediateFormat::Pair => &[region[0], region[2]],
        };
        let lists = bases
            .iter()
            .map(|&b| {
                self.layout
                    .elem_blocks(b, 0, total)
                    .map(|a| (a, 0))
                    .collect()
            })
            .collect();
        round_robin(lists)
    }

    /// Block addresses of the final output: CSC index/value arrays plus
    /// the column pointer array, or the dense vector (all tagged 0).
    fn output_blocks(&self, out: FinalOutput, n_out: u64) -> Vec<(u64, usize)> {
        let l = &self.layout;
        match out {
            FinalOutput::Csc { ncols } => {
                let idx = l.elem_blocks(l.out_idx, 0, n_out).map(|a| (a, 0)).collect();
                let val = l.elem_blocks(l.out_val, 0, n_out).map(|a| (a, 0)).collect();
                let entries_per_block = BLOCK_BYTES / PTR_BYTES;
                let ptr = (0..(ncols + 1).div_ceil(entries_per_block))
                    .map(|b| (l.out_ptr + b * BLOCK_BYTES, 0))
                    .collect();
                round_robin(vec![idx, val, ptr])
            }
            FinalOutput::Dense { rows } => {
                l.elem_blocks(l.out_val, 0, rows).map(|a| (a, 0)).collect()
            }
        }
    }

    /// Advances to DPU cycle `cycle` during a compute-only span. The rank
    /// is idle here, so the tick-exact [`MemorySystem::advance`] is
    /// bit-identical to per-cycle ticking in both execution disciplines
    /// (and to any split of the span — the tick accumulator carries the
    /// remainder, so `advance_to(a); advance_to(b)` equals
    /// `advance_to(b)` by the floor-division identity).
    fn advance_to(&mut self, cycle: u64) {
        if cycle <= self.cycles {
            return;
        }
        let (num, den) = self.ticks;
        let ticks = self.dram_tick_accum + (cycle - self.cycles) * num;
        self.mem.advance(ticks / den);
        self.dram_tick_accum = ticks % den;
        self.cycles = cycle;
    }

    /// Post-load check: the clock-ratio accumulator is a remainder.
    fn restored(&mut self) -> Result<(), SnapError> {
        if self.dram_tick_accum >= self.ticks.1 {
            return Err(SnapError::BadValue);
        }
        Ok(())
    }
}

/// Where a [`PimRun`] stands in the two-phase execution pipeline. The
/// declaration order is the serialized tag order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PimPhase {
    /// Phase A stream-in: DPU partition blocks plus the dispatcher's
    /// pointer/vector stream.
    LoadStreams,
    /// Phase A compute: element ingest + local merge sorts, gated by the
    /// slowest core.
    SortBarrier,
    /// Phase A write-back of the sorted runs to the intermediate region.
    WriteRuns,
    /// Phase B read-back of the runs into the rank merge engine.
    ReadRuns,
    /// Phase B merge compute span.
    MergeBarrier,
    /// Phase B final-output write-back.
    WriteOut,
    /// Everything finished; [`PimRun::finish`] may consume the run.
    Done,
}

/// A tagged enum: one tag byte in declaration order.
impl Snap for PimPhase {
    const MIN_BYTES: usize = 1;

    fn save(&self, enc: &mut Encoder) {
        enc.u8(*self as u8);
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        use PimPhase::*;
        *self = *[
            LoadStreams,
            SortBarrier,
            WriteRuns,
            ReadRuns,
            MergeBarrier,
            WriteOut,
            Done,
        ]
        .get(dec.u8()? as usize)
        .ok_or(SnapError::BadValue)?;
        Ok(())
    }
}

/// An in-flight PIM job: phase A (stream-in + local sorts) then phase B
/// (rank-level merge + write-back) as a phase machine that can pause at
/// an arbitrary DPU cycle and serialize. A job with no streams finishes
/// immediately with empty output and zero iterations, matching the MeNDA
/// PU's empty-work accounting.
///
/// Everything that is a pure function of the job and the configuration —
/// the decoded stream elements, the 1D partitioning, the per-DPU compute
/// costs, the sorted runs, the merged output and all four request lists —
/// is recomputed at restore. Only the dynamic state (phase, drive
/// progress, arrival times, per-phase statistics, clock anchors) is
/// serialized.
///
/// Public only to serve as [`AcceleratorBackend::Run`] for
/// [`PimBackend`]; drive it through the [`crate::Engine`].
#[derive(Debug)]
pub struct PimRun {
    // ---- derived from the job at construction and restore ----
    trivial: bool,
    d: usize,
    reads: Vec<(u64, usize)>,
    run_blocks: Vec<(u64, usize)>,
    read_back: Vec<(u64, usize)>,
    out_blocks: Vec<(u64, usize)>,
    /// Per-DPU ingest+sort cycles (0 for cores with no elements).
    compute: Vec<u64>,
    active: u64,
    total_run_elems: u64,
    runs_count: u64,
    merged: (Vec<u32>, Vec<u32>, Vec<f32>),
    // ---- dynamic state ----
    phase: PimPhase,
    /// Next request index within the current drive phase.
    next: usize,
    /// `next_req_id` at entry of the current drive phase (maps response
    /// ids back to request-list indices).
    drive_id_base: u64,
    /// Last read-arrival cycle per tag: DPUs `0..d`, dispatcher `d`.
    arrivals: Vec<u64>,
    /// Single-tag arrival slot of the phase B drives.
    merge_arrival: Vec<u64>,
    it_a: IterationStats,
    it_b: IterationStats,
    start_cycle: u64,
    phase_b_start: u64,
    /// DRAM stats at the start of the phase group currently accumulating
    /// (phase A until `WriteRuns` completes, then phase B).
    dram_before: DramStats,
}

// Everything derived from the job comes from the fresh run, and a
// trivial run has no arrival slots.
menda_dram::snap_fields!(PimRun {
    phase,
    next,
    drive_id_base,
    arrivals: fixed,
    merge_arrival: fixed,
    it_a,
    it_b,
    start_cycle,
    phase_b_start,
    dram_before,
} after restored);

impl PimRun {
    /// Prepares a job for execution on `unit` without consuming cycles:
    /// decodes streams, partitions, computes the sorted runs and the
    /// merged output, and builds all request lists.
    pub(crate) fn new(unit: &PimUnit, job: PuJob) -> Self {
        let d = unit.cfg.dpus_per_rank;
        if job.descriptors.is_empty() {
            return Self {
                trivial: true,
                d,
                reads: Vec::new(),
                run_blocks: Vec::new(),
                read_back: Vec::new(),
                out_blocks: Vec::new(),
                compute: Vec::new(),
                active: 0,
                total_run_elems: 0,
                runs_count: 0,
                merged: (Vec::new(), Vec::new(), Vec::new()),
                phase: PimPhase::Done,
                next: 0,
                drive_id_base: unit.next_req_id,
                arrivals: Vec::new(),
                merge_arrival: vec![0; 1],
                it_a: IterationStats::default(),
                it_b: IterationStats::default(),
                start_cycle: unit.cycles,
                phase_b_start: unit.cycles,
                dram_before: unit.mem.stats(),
            };
        }

        // 1D partitioning: contiguous stream ranges per DPU, balanced by
        // element count (SparseP's equal-nnz 1D scheme).
        let lens: Vec<u64> = job.descriptors.iter().map(|s| s.end - s.start).collect();
        let parts = partition_streams(&lens, d);

        // The dispatcher (tag `d`) streams pointer/vector blocks of a
        // gated job; each DPU (tag `i`) streams its partitions' arrays.
        // Requests interleave round-robin across cores at the rank port.
        let mut lists: Vec<Vec<(u64, usize)>> = Vec::with_capacity(d + 1);
        for (i, part) in parts.iter().enumerate() {
            let mut list = Vec::new();
            for desc in &job.descriptors[part.clone()] {
                push_stream_blocks(&unit.layout, desc, i, &mut list);
            }
            lists.push(list);
        }
        let mut gate_list = Vec::new();
        if let Some(gate) = &job.gate {
            for &b in &gate.blocks {
                gate_list.push((gate.ptr_base + b * BLOCK_BYTES, d));
                if let Some(vb) = gate.vector_base {
                    gate_list.push((vb + b * BLOCK_BYTES, d));
                }
            }
        }
        lists.push(gate_list);
        let reads = round_robin(lists);

        // Per-DPU compute cost: elements ingested at `elem_cpi` plus the
        // local merge sort; the phase barrier is the slowest active core.
        let mut compute = Vec::with_capacity(d);
        let mut active = 0u64;
        for part in &parts {
            let n: u64 = lens[part.clone()].iter().sum();
            if n == 0 {
                compute.push(0);
            } else {
                active += 1;
                compute.push(n * unit.cfg.elem_cpi + unit.local_sort_cycles(n));
            }
        }

        // Local sorts: one run per non-empty DPU, in core order, laid end
        // to end in one buffer. Stream contents are decoded here, before
        // any cycle runs; the DRAM simulator provides timing, `IterSource`
        // provides data (same split as the PU).
        let source = job.source.iter_source();
        let mut scratch = Vec::new();
        let mut runs: Vec<(u32, u32, f32)> = Vec::with_capacity(lens.iter().sum::<u64>() as usize);
        let mut run = Vec::new();
        let mut runs_count = 0u64;
        for part in &parts {
            for desc in &job.descriptors[part.clone()] {
                source.materialize_into(desc, desc.start..desc.end, &mut scratch);
                run.extend(scratch.iter().map(|p| match *p {
                    Packet::Nz {
                        major,
                        minor,
                        value,
                    } => (major, minor, value),
                    Packet::Eol => unreachable!("materialized streams carry no EOL"),
                }));
            }
            if run.is_empty() {
                continue;
            }
            run.sort_by_key(|&(ma, mi, _)| (ma, mi));
            if job.reduce {
                reduce_sorted(&mut run);
            }
            runs.append(&mut run);
            runs_count += 1;
        }
        let total_run_elems = runs.len() as u64;
        let merged = rank_merge(runs, job.reduce);

        let run_blocks = unit.intermediate_blocks(job.intermediate, total_run_elems);
        let read_back: Vec<(u64, usize)> = run_blocks.iter().map(|&(addr, _)| (addr, 0)).collect();
        let out_blocks = unit.output_blocks(job.final_out, merged.0.len() as u64);

        Self {
            trivial: false,
            d,
            reads,
            run_blocks,
            read_back,
            out_blocks,
            compute,
            active,
            total_run_elems,
            runs_count,
            merged,
            phase: PimPhase::LoadStreams,
            next: 0,
            drive_id_base: unit.next_req_id,
            arrivals: vec![unit.cycles; d + 1],
            merge_arrival: vec![0; 1],
            it_a: IterationStats::default(),
            it_b: IterationStats::default(),
            start_cycle: unit.cycles,
            phase_b_start: unit.cycles,
            dram_before: unit.mem.stats(),
        }
    }

    /// The slowest active core's completion cycle for the sort barrier
    /// (`advance_to` caps it below at the current cycle).
    fn sort_barrier_target(&self) -> u64 {
        let dispatch_done = self.arrivals[self.d];
        let mut barrier = 0u64;
        for (i, &c) in self.compute.iter().enumerate() {
            if c > 0 {
                barrier = barrier.max(self.arrivals[i].max(dispatch_done) + c);
            }
        }
        barrier
    }

    /// Enters a drive phase: resets the request cursor and anchors the
    /// response-id mapping at the unit's current request id.
    fn enter_drive(&mut self, unit: &PimUnit, phase: PimPhase) {
        self.phase = phase;
        self.next = 0;
        self.drive_id_base = unit.next_req_id;
    }

    /// Advances the run until it finishes (`true`) or the job-relative
    /// cycle count reaches `pause_at` (`false`). Resumable: calling again
    /// continues exactly where the previous call stopped, bit-identically
    /// to an unbounded run.
    pub(crate) fn run_until(&mut self, unit: &mut PimUnit, pause_at: Option<u64>) -> bool {
        let pause_abs = pause_at.map(|t| self.start_cycle.saturating_add(t));
        loop {
            match self.phase {
                PimPhase::Done => return true,
                PimPhase::LoadStreams => {
                    if !drive_until(
                        unit,
                        &self.reads,
                        false,
                        &mut self.it_a,
                        &mut self.arrivals,
                        &mut self.next,
                        self.drive_id_base,
                        pause_abs,
                    ) {
                        return false;
                    }
                    self.phase = PimPhase::SortBarrier;
                    self.next = 0;
                }
                PimPhase::SortBarrier => {
                    if !advance_to_until(unit, self.sort_barrier_target(), pause_abs) {
                        return false;
                    }
                    unit.trace_sorted += self.total_run_elems;
                    self.enter_drive(unit, PimPhase::WriteRuns);
                }
                PimPhase::WriteRuns => {
                    if !drive_until(
                        unit,
                        &self.run_blocks,
                        true,
                        &mut self.it_a,
                        &mut self.arrivals,
                        &mut self.next,
                        self.drive_id_base,
                        pause_abs,
                    ) {
                        return false;
                    }
                    self.it_a.cycles = unit.cycles - self.start_cycle;
                    self.it_a.rounds = self.active;
                    self.it_a.nz_emitted = self.total_run_elems;
                    set_dram_delta(&mut self.it_a, &self.dram_before, &unit.mem.stats());
                    self.phase_b_start = unit.cycles;
                    self.dram_before = unit.mem.stats();
                    self.merge_arrival = vec![unit.cycles; 1];
                    self.enter_drive(unit, PimPhase::ReadRuns);
                }
                PimPhase::ReadRuns => {
                    if !drive_until(
                        unit,
                        &self.read_back,
                        false,
                        &mut self.it_b,
                        &mut self.merge_arrival,
                        &mut self.next,
                        self.drive_id_base,
                        pause_abs,
                    ) {
                        return false;
                    }
                    unit.trace_merged += self.merged.0.len() as u64;
                    self.phase = PimPhase::MergeBarrier;
                    self.next = 0;
                }
                PimPhase::MergeBarrier => {
                    let target = self.merge_arrival[0] + self.total_run_elems * unit.cfg.merge_cpi;
                    if !advance_to_until(unit, target, pause_abs) {
                        return false;
                    }
                    self.enter_drive(unit, PimPhase::WriteOut);
                }
                PimPhase::WriteOut => {
                    if !drive_until(
                        unit,
                        &self.out_blocks,
                        true,
                        &mut self.it_b,
                        &mut self.merge_arrival,
                        &mut self.next,
                        self.drive_id_base,
                        pause_abs,
                    ) {
                        return false;
                    }
                    self.it_b.cycles = unit.cycles - self.phase_b_start;
                    self.it_b.rounds = self.runs_count;
                    self.it_b.nz_emitted = self.merged.0.len() as u64;
                    set_dram_delta(&mut self.it_b, &self.dram_before, &unit.mem.stats());
                    self.phase = PimPhase::Done;
                    self.next = 0;
                }
            }
        }
    }

    /// Consumes a finished run and produces the rank result: iteration 0
    /// of its statistics is phase A (stream-in + local sort), iteration 1
    /// phase B (rank merge + write-back).
    pub(crate) fn finish(self, unit: &PimUnit) -> PuResult {
        debug_assert!(self.phase == PimPhase::Done, "finish on an unfinished run");
        let mut stats = PuStats::default();
        if !self.trivial {
            stats.iterations.push(self.it_a);
            stats.iterations.push(self.it_b);
        }
        stats.dram = unit.mem.stats();
        let (majors, minors, values) = self.merged;
        PuResult {
            majors,
            minors,
            values,
            stats,
        }
    }

    /// Post-load check: a trivial run is done, and the request cursor
    /// lies within the current phase's request list.
    fn restored(&mut self) -> Result<(), SnapError> {
        let cursor_limit = match self.phase {
            PimPhase::LoadStreams => self.reads.len(),
            PimPhase::WriteRuns => self.run_blocks.len(),
            PimPhase::ReadRuns => self.read_back.len(),
            PimPhase::WriteOut => self.out_blocks.len(),
            PimPhase::SortBarrier | PimPhase::MergeBarrier | PimPhase::Done => 0,
        };
        if (self.trivial && self.phase != PimPhase::Done) || self.next > cursor_limit {
            return Err(SnapError::BadValue);
        }
        Ok(())
    }
}

/// Issues `reqs` through the rank port in order, one per DPU cycle when
/// the channel accepts, ticking DRAM at the clock ratio, until every
/// request has been issued and the rank is idle (`true`) or the unit's
/// cycle count reaches `pause_abs` (`false`). Records each read's
/// completion cycle in `arrivals[tag]` (last arrival wins — callers key
/// tags so that the *latest* arrival is what gates compute). With
/// fast-forwarding on, provably event-free spans are skipped with the
/// same bound as the PU (capped at the pause target); results are
/// bit-identical across pause points and execution disciplines.
#[allow(clippy::too_many_arguments)]
fn drive_until(
    unit: &mut PimUnit,
    reqs: &[(u64, usize)],
    write: bool,
    it: &mut IterationStats,
    arrivals: &mut [u64],
    next: &mut usize,
    id_base: u64,
    pause_abs: Option<u64>,
) -> bool {
    let (num, den) = unit.ticks;
    loop {
        if *next >= reqs.len() && unit.mem.is_idle() {
            return true;
        }
        if let Some(t) = pause_abs {
            if unit.cycles >= t {
                return false;
            }
        }
        if unit.fast_forward {
            let can_issue = *next < reqs.len() && {
                let probe_id = unit.next_req_id;
                let probe = if write {
                    MemRequest::write(reqs[*next].0, probe_id)
                } else {
                    MemRequest::read(reqs[*next].0, probe_id)
                };
                unit.mem.can_accept(&probe)
            };
            let resp_ready = unit
                .mem
                .next_response_at()
                .is_some_and(|t| t <= unit.mem.now());
            if !can_issue && !resp_ready {
                // Longest skip that keeps the DRAM side unobserved (same
                // bound as the PU's quiescence skip), shortened to land
                // exactly on the pause target when one is set.
                let ev = unit
                    .mem
                    .next_event_cycle()
                    .expect("PIM deadlock suspected: quiescent with no pending events");
                let span = (ev - unit.mem.now()) * den;
                let mut n = 1 + (span - 1 - unit.dram_tick_accum) / num;
                if let Some(t) = pause_abs {
                    n = n.min(t - unit.cycles);
                }
                let ticks = unit.dram_tick_accum + n * num;
                unit.mem.advance(ticks / den);
                unit.dram_tick_accum = ticks % den;
                unit.cycles += n;
                continue;
            }
        }
        unit.cycles += 1;
        // 1. Responses that completed by now. The id lookup is bounds-
        //    checked so a corrupt restored queue cannot panic; in-range
        //    execution behaves identically to direct indexing.
        while let Some(resp) = unit.mem.pop_response() {
            if resp.kind == ReqKind::Read {
                if let Some(&(_, tag)) = reqs.get(resp.id.wrapping_sub(id_base) as usize) {
                    if let Some(slot) = arrivals.get_mut(tag) {
                        *slot = unit.cycles;
                    }
                }
            }
        }
        // 2. Issue the next request if the channel accepts it.
        if *next < reqs.len() {
            let (addr, _) = reqs[*next];
            let req = if write {
                MemRequest::write(addr, unit.next_req_id)
            } else {
                MemRequest::read(addr, unit.next_req_id)
            };
            // Probe before enqueueing so a full queue is not counted as a
            // rejection (the fast-forward path never attempts one;
            // statistics must match it bit for bit).
            if unit.mem.can_accept(&req) && unit.mem.try_enqueue(req) {
                unit.next_req_id += 1;
                *next += 1;
                if write {
                    it.stores_issued += 1;
                    unit.trace_stores += 1;
                } else {
                    it.loads_issued += 1;
                    unit.trace_loads += 1;
                }
            }
        }
        // 3. DRAM clock (bus runs num : den faster than the DPUs).
        unit.dram_tick_accum += num;
        while unit.dram_tick_accum >= den {
            unit.mem.tick();
            unit.dram_tick_accum -= den;
        }
    }
}

/// Pausable compute-span advance: runs [`PimUnit::advance_to`] up to
/// `target` or the pause point, whichever comes first. Splitting the span
/// is bit-identical to one jump because the tick accumulator carries the
/// division remainder across calls.
fn advance_to_until(unit: &mut PimUnit, target: u64, pause_abs: Option<u64>) -> bool {
    let stop = pause_abs.map_or(target, |t| t.min(target));
    unit.advance_to(stop);
    stop >= target
}

/// Ceiling of log2 for `n >= 1`.
fn ceil_log2(n: u64) -> u64 {
    (64 - (n - 1).leading_zeros() as u64).max(1) * u64::from(n > 1)
}

/// Contiguous stream ranges per DPU, balanced by cumulative element
/// count; the last core takes any remainder.
fn partition_streams(lens: &[u64], d: usize) -> Vec<std::ops::Range<usize>> {
    let total: u64 = lens.iter().sum();
    let mut parts = Vec::with_capacity(d);
    let mut s = 0usize;
    let mut acc = 0u64;
    for k in 0..d {
        let start = s;
        let target = total * (k as u64 + 1) / d as u64;
        while s < lens.len() && (acc < target || k + 1 == d) {
            acc += lens[s];
            s += 1;
        }
        parts.push(start..s);
    }
    parts
}

/// Appends the block loads of one stream (arrays interleaved) tagged with
/// the consuming DPU. Mirrors the PU prefetcher's per-kind array bases.
fn push_stream_blocks(
    layout: &AddressLayout,
    desc: &StreamDescriptor,
    tag: usize,
    out: &mut Vec<(u64, usize)>,
) {
    let bases: Vec<u64> = match desc.kind {
        StreamKind::CsrRow { .. } | StreamKind::SpmvCol { .. } => {
            vec![layout.col_idx, layout.values]
        }
        StreamKind::Coo { region } => layout.coo[region as usize].to_vec(),
        StreamKind::Pair { region } => {
            let r = &layout.coo[region as usize];
            vec![r[0], r[2]]
        }
    };
    let lists = bases
        .iter()
        .map(|&b| {
            layout
                .elem_blocks(b, desc.start, desc.end)
                .map(|a| (a, tag))
                .collect()
        })
        .collect();
    out.extend(round_robin(lists));
}

/// Interleaves several request lists one entry at a time — the rank port
/// services cores (or arrays) round-robin.
fn round_robin(lists: Vec<Vec<(u64, usize)>>) -> Vec<(u64, usize)> {
    let mut iters: Vec<_> = lists.into_iter().map(|l| l.into_iter()).collect();
    let mut out = Vec::new();
    loop {
        let mut any = false;
        for it in &mut iters {
            if let Some(x) = it.next() {
                out.push(x);
                any = true;
            }
        }
        if !any {
            return out;
        }
    }
}

/// Sums adjacent elements with equal (major, minor) keys in a sorted run,
/// in run order, keeping the first element of each key.
fn reduce_sorted(run: &mut Vec<(u32, u32, f32)>) {
    run.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 += next.2;
        }
        same
    });
}

/// Stable `d`-way merge by (major, minor) of the sorted runs laid end to
/// end in `runs`: equal keys keep run order, so reduction order is
/// deterministic for any thread count. The stable sort finds the
/// pre-sorted runs and merges them.
fn rank_merge(mut runs: Vec<(u32, u32, f32)>, reduce: bool) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    runs.sort_by_key(|&(ma, mi, _)| (ma, mi));
    if reduce {
        reduce_sorted(&mut runs);
    }
    let n = runs.len();
    let mut merged = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for (ma, mi, v) in runs {
        merged.0.push(ma);
        merged.1.push(mi);
        merged.2.push(v);
    }
    merged
}

/// Stores the phase's DRAM row-locality deltas into `it` (the same
/// per-iteration accounting the PU keeps).
fn set_dram_delta(
    it: &mut IterationStats,
    before: &menda_dram::DramStats,
    after: &menda_dram::DramStats,
) {
    it.dram_row_hits = after.row_hits - before.row_hits;
    it.dram_row_misses = after.row_misses - before.row_misses;
    it.dram_row_conflicts = after.row_conflicts - before.row_conflicts;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::transpose_job;
    use menda_sparse::gen;

    fn pim_transpose(cfg: &MendaConfig, m: &menda_sparse::CsrMatrix) -> PuResult {
        let mut unit = PimUnit::new(cfg);
        let mut run = PimRun::new(&unit, transpose_job(m.clone(), 0));
        assert!(run.run_until(&mut unit, None));
        run.finish(&unit)
    }

    #[test]
    fn transpose_output_matches_csc_order() {
        let m = gen::rmat(64, 512, gen::RmatParams::PAPER, 11);
        let cfg = MendaConfig::small_test();
        let r = pim_transpose(&cfg, &m);
        let csc = m.to_csc();
        // Flatten the expected CSC into (col, row, val) triples.
        let mut expect = Vec::new();
        for c in 0..m.ncols() {
            for e in csc.col_ptr()[c]..csc.col_ptr()[c + 1] {
                expect.push((c as u32, csc.row_idx()[e], csc.values()[e]));
            }
        }
        let got: Vec<(u32, u32, f32)> = r
            .majors
            .iter()
            .zip(&r.minors)
            .zip(&r.values)
            .map(|((&ma, &mi), &v)| (ma, mi, v))
            .collect();
        assert_eq!(got, expect);
        assert!(r.stats.total_cycles() > 0);
        assert_eq!(r.stats.num_iterations(), 2);
        assert!(r.stats.total_traffic_bytes() > 0);
    }

    #[test]
    fn empty_job_is_free() {
        let cfg = MendaConfig::small_test();
        let r = pim_transpose(&cfg, &menda_sparse::CsrMatrix::zeros(16, 16));
        assert!(r.majors.is_empty());
        assert_eq!(r.stats.num_iterations(), 0);
        assert_eq!(r.stats.total_cycles(), 0);
    }

    #[test]
    fn fast_forward_is_bit_identical() {
        let m = gen::rmat(64, 768, gen::RmatParams::PAPER, 23);
        let base = MendaConfig::small_test();
        let ff = pim_transpose(&base.clone().with_fast_forward(true), &m);
        let reference = pim_transpose(&base.clone().with_fast_forward(false), &m);
        assert_eq!(ff, reference);
    }

    #[test]
    fn more_dpus_do_not_change_the_output() {
        let m = gen::uniform(48, 600, 5);
        let base = MendaConfig::small_test();
        let a = pim_transpose(
            &base.clone().with_pim(PimConfig::small_test().with_dpus(2)),
            &m,
        );
        let b = pim_transpose(
            &base.clone().with_pim(PimConfig::small_test().with_dpus(16)),
            &m,
        );
        assert_eq!(a.majors, b.majors);
        assert_eq!(a.minors, b.minors);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn partition_is_contiguous_and_complete() {
        let lens = [5u64, 0, 9, 1, 1, 7, 3];
        let parts = partition_streams(&lens, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, lens.len());
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn sort_cost_charges_wram_spills() {
        let cfg = MendaConfig::small_test();
        let unit = PimUnit::new(&cfg);
        assert_eq!(unit.local_sort_cycles(1), 0);
        let small = unit.local_sort_cycles(1000);
        assert_eq!(small, 1000 * 10 * cfg.pim.sort_cpi);
        // 10_000 elements exceed the 64 KiB WRAM working set, so some
        // passes pay the MRAM factor.
        let big = unit.local_sort_cycles(10_000);
        assert!(big > 10_000 * 14 * cfg.pim.sort_cpi);
    }

    #[test]
    fn rank_merge_reduces_across_runs() {
        let runs = vec![(1, 1, 1.0), (2, 0, 2.0), (1, 1, 3.0), (3, 0, 4.0)];
        let (ma, mi, v) = rank_merge(runs.clone(), true);
        assert_eq!(ma, vec![1, 2, 3]);
        assert_eq!(mi, vec![1, 0, 0]);
        assert_eq!(v, vec![4.0, 2.0, 4.0]);
        let (ma, _, v) = rank_merge(runs, false);
        assert_eq!(ma, vec![1, 1, 2, 3]);
        assert_eq!(v, vec![1.0, 3.0, 2.0, 4.0]);
    }

    /// Reference for `rank_merge`: an O(n·d) merge in which every output
    /// element scans the heads of all runs and takes the smallest key,
    /// the earliest run on ties, summing equal adjacent keys when
    /// `reduce` is set.
    fn rank_merge_scan(
        runs: &[Vec<(u32, u32, f32)>],
        reduce: bool,
    ) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        let mut pos = vec![0usize; runs.len()];
        let (mut majors, mut minors, mut values) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let mut best: Option<(u32, u32, usize)> = None;
            for (r, run) in runs.iter().enumerate() {
                if let Some(&(ma, mi, _)) = run.get(pos[r]) {
                    if best.is_none_or(|(bma, bmi, _)| (ma, mi) < (bma, bmi)) {
                        best = Some((ma, mi, r));
                    }
                }
            }
            let Some((ma, mi, r)) = best else {
                return (majors, minors, values);
            };
            let v = runs[r][pos[r]].2;
            pos[r] += 1;
            if reduce && majors.last() == Some(&ma) && minors.last() == Some(&mi) {
                *values.last_mut().expect("non-empty on duplicate key") += v;
            } else {
                majors.push(ma);
                minors.push(mi);
                values.push(v);
            }
        }
    }

    #[test]
    fn rank_merge_matches_the_scan_merge_bit_for_bit() {
        let mut rng = menda_sparse::rng::StdRng::seed_from_u64(0x4A4E);
        for case in 0..200 {
            // Few distinct keys, so runs share keys and repeat them, and
            // values of mixed magnitude, so any change in summation
            // order shows in the bits.
            let d = rng.random_range(1..65);
            let keys = rng.random_range(1..40) as u32;
            let runs: Vec<Vec<(u32, u32, f32)>> = (0..d)
                .map(|_| {
                    let len = rng.random_range(0..30);
                    let mut run: Vec<(u32, u32, f32)> = (0..len)
                        .map(|_| {
                            let scale = [1e-4f32, 1.0, 3e3][rng.random_range(0..3)];
                            let v = (rng.random::<f32>() - 0.5) * scale;
                            (
                                rng.random_range(0..4) as u32,
                                rng.random_range(0..keys as usize) as u32,
                                v,
                            )
                        })
                        .collect();
                    run.sort_by_key(|&(ma, mi, _)| (ma, mi));
                    run
                })
                .collect();
            for reduce in [false, true] {
                let want = rank_merge_scan(&runs, reduce);
                let got = rank_merge(runs.concat(), reduce);
                assert_eq!(
                    (&got.0, &got.1),
                    (&want.0, &want.1),
                    "case {case} reduce {reduce}"
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.2), bits(&want.2), "case {case} reduce {reduce}");
            }
        }
    }
}
