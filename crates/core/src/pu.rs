//! One MeNDA processing unit (Fig. 5): merge tree + prefetch buffers +
//! controller FSM + request queues + memory interface unit, attached to
//! one DRAM rank simulated cycle-accurately by [`menda_dram`].

use std::collections::VecDeque;

use menda_dram::{MemRequest, MemorySystem, ReqKind, SnapError};
use menda_sparse::CsrMatrix;
use menda_trace::{Histogram, TraceConfig, TraceReport, Tracer};

use crate::coalesce::{CoalescingQueue, EnqueueOutcome};
use crate::config::{MendaConfig, PuConfig};
use crate::layout::{AddressLayout, BLOCK_BYTES};
use crate::merge_tree::{ActiveSet, LeafSource, MergeTree, Packet};
use crate::prefetch::{FetchPlan, PrefetchBuffer, StreamDescriptor, StreamKind};
use crate::stats::{IterationStats, PuStats};

/// Reserved waiter id for controller pointer-array reads.
const PTR_WAITER: u32 = u32::MAX;
/// Reserved waiter id for SpMV vector reads (traffic only).
const VEC_WAITER: u32 = u32::MAX - 1;
/// Request-id bit marking concurrent host traffic (§4); responses with
/// this bit are dropped (the host consumes them, not the PU).
const HOST_REQ_BIT: u64 = 1 << 63;

/// The data backing an iteration's streams, used to decode fetched blocks
/// into packets (the DRAM simulator provides timing; contents live here).
#[derive(Debug, Clone, Copy)]
pub enum IterSource<'a> {
    /// Iteration-0 transposition: CSR column indices and values.
    Csr {
        /// Column index array.
        cols: &'a [u32],
        /// Value array.
        vals: &'a [f32],
    },
    /// Intermediate COO runs.
    Coo {
        /// Row index array.
        rows: &'a [u32],
        /// Column index array.
        cols: &'a [u32],
        /// Value array.
        vals: &'a [f32],
    },
    /// SpMV iteration-0: CSC row indices and values (values are scaled by
    /// the per-column vector element embedded in the stream descriptor).
    ScaledCsc {
        /// Row index array.
        rows: &'a [u32],
        /// Value array.
        vals: &'a [f32],
    },
    /// SpMV intermediate (index, value) pairs.
    Pair {
        /// Index array.
        idx: &'a [u32],
        /// Value array.
        vals: &'a [f32],
    },
}

impl IterSource<'_> {
    /// Decodes elements `range` of stream `desc` into `out` (cleared
    /// first; the caller's buffer keeps its allocation across chunks).
    /// Shared by every backend that consumes [`crate::job::PuJob`]s: the
    /// DRAM simulator provides timing, this provides contents.
    pub(crate) fn materialize_into(
        &self,
        desc: &StreamDescriptor,
        range: std::ops::Range<u64>,
        out: &mut Vec<Packet>,
    ) {
        out.clear();
        out.reserve((range.end - range.start) as usize);
        match (self, desc.kind) {
            (IterSource::Csr { cols, vals }, StreamKind::CsrRow { row }) => {
                for e in range {
                    out.push(Packet::nz(cols[e as usize], row, vals[e as usize]));
                }
            }
            (IterSource::Coo { rows, cols, vals }, StreamKind::Coo { .. }) => {
                for e in range {
                    out.push(Packet::nz(
                        cols[e as usize],
                        rows[e as usize],
                        vals[e as usize],
                    ));
                }
            }
            (IterSource::ScaledCsc { rows, vals }, StreamKind::SpmvCol { scale }) => {
                for e in range {
                    out.push(Packet::nz(rows[e as usize], 0, vals[e as usize] * scale));
                }
            }
            (IterSource::Pair { idx, vals }, StreamKind::Pair { .. }) => {
                for e in range {
                    out.push(Packet::nz(idx[e as usize], 0, vals[e as usize]));
                }
            }
            _ => panic!("stream kind does not match iteration source"),
        }
    }
}

/// Pointer-array read gating for iteration 0 (§3.2's controller FSM): the
/// controller streams the pointer array from memory and only then knows
/// each stream's start/end addresses.
#[derive(Debug, Clone)]
pub struct PtrGate {
    /// Base address of the pointer array.
    pub ptr_base: u64,
    /// Ascending block indices (within the pointer array) to read. For
    /// SpMV this is pre-filtered by the auxiliary pointer array (§3.6).
    pub blocks: Vec<u64>,
    /// For descriptor `i`, how many of `blocks` must have arrived before
    /// its addresses are known (non-decreasing).
    pub release_after: Vec<usize>,
    /// Also fetch the input-vector block alongside each pointer block
    /// (SpMV; adds traffic, data is functional).
    pub vector_base: Option<u64>,
}

/// How an iteration's root output is stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputMode {
    /// COO runs into ping-pong `region` (12 B per nonzero, three arrays).
    Intermediate {
        /// Destination ping-pong region.
        region: u8,
    },
    /// SpMV (index, value) runs into `region` (8 B per nonzero).
    IntermediatePair {
        /// Destination ping-pong region.
        region: u8,
    },
    /// Final CSC output: index + value arrays (8 B per nonzero) plus the
    /// column pointer array (`ncols + 1` entries, paced by column cursor).
    FinalCsc {
        /// Columns in the output pointer array.
        ncols: u64,
    },
    /// Final dense SpMV vector (4 B per output row, paced by row cursor).
    FinalDense {
        /// Rows of the output vector partition.
        rows: u64,
    },
}

/// Emitted output of one iteration: `(minor keys, major keys, values)`.
pub type EmittedTriples = (Vec<u32>, Vec<u32>, Vec<f32>);

/// Borrowed view of one iteration's inputs, shared by every step of
/// [`ProcessingUnit::iter_loop`]. It borrows the descriptor slice, so the
/// job runner keeps descriptors alive across pause/resume without cloning
/// per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterParams<'a> {
    /// Stream descriptors in assignment order.
    pub(crate) descriptors: &'a [StreamDescriptor],
    /// Backing data.
    pub(crate) source: IterSource<'a>,
    /// Pointer-read gating, if the controller must read pointers first.
    pub(crate) gate: Option<&'a PtrGate>,
    /// Output mode.
    pub(crate) out: OutputMode,
    /// Merge packets with equal (major, minor) keys at the root.
    pub(crate) reduce: bool,
}

/// The complete mutable state of one in-flight iteration of
/// [`ProcessingUnit::iter_loop`] — every loop local lives here so an
/// iteration can pause at a cycle boundary, serialize, and resume
/// bit-identically. Fields are grouped into *derived geometry*
/// (recomputed by [`IterState::new`] from the params, never serialized)
/// and *dynamic state* (the checkpoint payload).
#[derive(Debug)]
pub(crate) struct IterState {
    // --- Derived geometry (recomputable from the params). ---
    /// Number of real stream descriptors.
    pub(crate) n_streams: usize,
    /// Merge rounds this iteration runs (`ceil(n_streams / leaves)`).
    pub(crate) total_rounds: usize,
    /// `total_rounds * leaves`: descriptor slots including padding.
    pub(crate) padded: usize,
    /// Output bytes per emitted element.
    pub(crate) elem_bytes: u64,
    /// Base addresses of the output arrays.
    pub(crate) out_bases: Vec<u64>,
    /// `u128` words per parked-bucket bitmask.
    pub(crate) pw: usize,
    /// Largest parked-bucket index (read-queue capacity).
    pub(crate) need_cap: usize,
    /// No streams at all: the iteration is a no-op.
    pub(crate) trivially_done: bool,
    // --- Dynamic state (serialized by the checkpoint layer). ---
    pub(crate) tree: MergeTree,
    pub(crate) buffers: Vec<PrefetchBuffer>,
    pub(crate) read_q: CoalescingQueue,
    pub(crate) write_q: VecDeque<u64>,
    pub(crate) next_release: usize,
    pub(crate) ptr_blocks_arrived: usize,
    pub(crate) ptr_arrived_set: Vec<bool>,
    pub(crate) ptr_next_issue: usize,
    pub(crate) ptr_outstanding: usize,
    pub(crate) out_minor: Vec<u32>,
    pub(crate) out_major: Vec<u32>,
    pub(crate) out_val: Vec<f32>,
    pub(crate) boundaries: Vec<usize>,
    pub(crate) bytes_accum: u64,
    pub(crate) stored_nzs: u64,
    pub(crate) ptr_cursor: u64,
    pub(crate) final_flush_pushed: usize,
    pub(crate) pending_ptr_blocks: u64,
    pub(crate) buf_active: ActiveSet,
    pub(crate) parked_buckets: Vec<u128>,
    pub(crate) parked_union: Vec<u128>,
    pub(crate) parked_need: Vec<u32>,
    pub(crate) parked_count: usize,
    pub(crate) union_avail: usize,
    /// Scratch allocations reused every cycle (contents are dead between
    /// cycles, so the checkpoint layer skips them).
    pub(crate) buf_scratch: Vec<u32>,
    pub(crate) popped_scratch: Vec<u32>,
    pub(crate) packet_scratch: Vec<Packet>,
    pub(crate) waiter_scratch: Vec<u32>,
    pub(crate) cycles: u64,
    pub(crate) last_key_in_run: Option<(u32, u32)>,
    pub(crate) it: IterationStats,
    pub(crate) dram_before: menda_dram::DramStats,
}

// The dynamic state of a paused iteration. Derived geometry and the
// per-cycle scratch vectors are not written: geometry comes from the
// fresh state `IterState::new` derives from the job, and the scratch
// contents are dead between cycles (the loop only pauses at the top).
menda_dram::snap_fields!(IterState {
    tree,
    buffers: fixed,
    read_q,
    write_q,
    next_release,
    ptr_blocks_arrived,
    ptr_arrived_set: fixed,
    ptr_next_issue,
    ptr_outstanding,
    out_minor,
    out_major,
    out_val,
    boundaries,
    bytes_accum,
    stored_nzs,
    ptr_cursor,
    final_flush_pushed,
    pending_ptr_blocks,
    buf_active,
    parked_buckets: fixed,
    parked_need: fixed,
    cycles,
    last_key_in_run,
    it,
    dram_before,
} after restored);

impl IterState {
    /// Fresh start-of-iteration state for `pu` under `p`, mirroring what
    /// the original monolithic loop set up before its first cycle.
    pub(crate) fn new(pu: &ProcessingUnit, p: &IterParams<'_>) -> Self {
        let pu_cfg = &pu.pu_cfg;
        let l = pu_cfg.leaves;
        let layout = pu.layout;
        let n_streams = p.descriptors.len();
        let total_rounds = n_streams
            .div_ceil(l)
            .max(if n_streams == 0 { 0 } else { 1 });
        let elem_bytes: u64 = match p.out {
            OutputMode::Intermediate { .. } => 12,
            OutputMode::IntermediatePair { .. } | OutputMode::FinalCsc { .. } => 8,
            OutputMode::FinalDense { .. } => 4,
        };
        let out_bases: Vec<u64> = match p.out {
            OutputMode::Intermediate { region } => layout.coo[region as usize].to_vec(),
            OutputMode::IntermediatePair { region } => vec![
                layout.coo[region as usize][0],
                layout.coo[region as usize][2],
            ],
            OutputMode::FinalCsc { .. } => vec![layout.out_idx, layout.out_val],
            OutputMode::FinalDense { .. } => vec![layout.out_val],
        };
        let pw = l.div_ceil(128);
        let need_cap = pu_cfg.read_queue_entries;
        Self {
            n_streams,
            total_rounds,
            padded: total_rounds * l,
            elem_bytes,
            out_bases,
            pw,
            need_cap,
            trivially_done: n_streams == 0,
            tree: MergeTree::new(l, pu_cfg.fifo_entries),
            buffers: (0..l)
                .map(|i| {
                    PrefetchBuffer::new(
                        i as u32,
                        pu_cfg.prefetch_buffer_entries,
                        pu_cfg.stall_reducing_prefetch,
                        layout,
                    )
                })
                .collect(),
            read_q: CoalescingQueue::new(pu_cfg.read_queue_entries, pu_cfg.request_coalescing),
            write_q: VecDeque::new(),
            next_release: 0,
            ptr_blocks_arrived: 0,
            ptr_arrived_set: p
                .gate
                .map(|g| vec![false; g.blocks.len()])
                .unwrap_or_default(),
            ptr_next_issue: 0,
            ptr_outstanding: 0,
            out_minor: Vec::new(),
            out_major: Vec::new(),
            out_val: Vec::new(),
            boundaries: Vec::new(),
            bytes_accum: 0,
            stored_nzs: 0,
            ptr_cursor: 0,
            final_flush_pushed: 0,
            pending_ptr_blocks: 0,
            buf_active: ActiveSet::new(l),
            parked_buckets: vec![0; (need_cap + 1) * pw],
            parked_union: vec![0; pw],
            parked_need: vec![0; l],
            parked_count: 0,
            union_avail: usize::MAX,
            buf_scratch: Vec::with_capacity(l),
            popped_scratch: Vec::with_capacity(l),
            packet_scratch: Vec::new(),
            waiter_scratch: Vec::new(),
            cycles: 0,
            last_key_in_run: None,
            it: IterationStats::default(),
            dram_before: pu.mem.stats(),
        }
    }

    /// Post-load checks and rebuilds: every cursor, count and output
    /// index is validated against the derived geometry, so corrupt bytes
    /// yield a typed error rather than a later panic. The parked-member
    /// count comes from the restored buckets, and the union cache starts
    /// invalid (the next use rebuilds it from the buckets — same words
    /// either way).
    fn restored(&mut self) -> Result<(), SnapError> {
        let arrived = self.ptr_arrived_set.len();
        let outputs = self.out_major.len();
        if self.next_release > self.padded
            || self.ptr_blocks_arrived > arrived
            || self.ptr_next_issue > arrived
            || self.ptr_outstanding > self.ptr_next_issue
            || self.out_minor.len() != outputs
            || self.out_val.len() != outputs
            || self.boundaries.iter().any(|&b| b > outputs)
            || self.final_flush_pushed > self.out_bases.len()
            || self.parked_need.iter().any(|&n| n as usize > self.need_cap)
        {
            return Err(SnapError::BadValue);
        }
        self.parked_count = self.parked_need.iter().filter(|&&n| n != 0).count();
        self.union_avail = usize::MAX;
        Ok(())
    }
}

/// Result of one full PU execution (all iterations of one partition).
#[derive(Debug, Clone, PartialEq)]
pub struct PuResult {
    /// Output major keys (column indices for transposition), sorted.
    pub majors: Vec<u32>,
    /// Output minor keys (row indices for transposition).
    pub minors: Vec<u32>,
    /// Output values.
    pub values: Vec<f32>,
    /// Execution statistics.
    pub stats: PuStats,
}

struct BufferPorts<'a> {
    buffers: &'a mut [PrefetchBuffer],
    popped: Vec<u32>,
    /// Fast-forward mode: suppress wakeups that provably cannot lead to
    /// a fetch (see [`LeafSource::pop`] below).
    event_driven: bool,
    /// When set (tracing on), classify each leaf pop as fed/starved.
    count_feed: bool,
    /// Pops after which the buffer still had a packet ready (or the
    /// stream was complete) — the prefetcher kept the leaf fed.
    fed: u64,
    /// Pops that drained the buffer mid-stream — the leaf will bubble
    /// until the next block arrives from memory.
    starved: u64,
}

/// Read-only [`LeafSource`] view over the prefetch buffers, used by the
/// fast-forward path to probe [`MergeTree::is_quiescent`] without taking a
/// mutable borrow.
struct PeekPorts<'a>(&'a [PrefetchBuffer]);

impl LeafSource for PeekPorts<'_> {
    fn peek(&self, port: usize) -> Option<Packet> {
        self.0[port].peek()
    }

    fn pop(&mut self, _port: usize) {
        unreachable!("quiescence probing never pops")
    }
}

impl LeafSource for BufferPorts<'_> {
    fn peek(&self, port: usize) -> Option<Packet> {
        self.buffers[port].peek()
    }

    fn pop(&mut self, port: usize) {
        self.buffers[port].pop();
        if self.count_feed {
            if self.buffers[port].peek().is_some() || self.buffers[port].is_done() {
                self.fed += 1;
            } else {
                self.starved += 1;
            }
        }
        // Event-driven mode skips re-polling a buffer on pops that provably
        // cannot unblock its fetch planner: a chunk is still in flight (the
        // completion re-activates the buffer via the response path), or less
        // space has freed up than the planner's last refusal demanded. The
        // reference path keeps the poll-every-pop behavior; both are proven
        // bit-identical by the fast-forward differential suite.
        if !self.event_driven || self.buffers[port].fetch_ready() {
            self.popped.push(port as u32);
        }
    }
}

/// Instrumentation state of one PU (see the `menda-trace` crate): a
/// cycle-stamped tracer on track 0 plus occupancy histograms and counters
/// maintained by purely observational hooks in
/// [`ProcessingUnit::iter_loop`]. Built only when
/// [`MendaConfig::trace`] enables a sink, so untraced runs pay nothing.
#[derive(Debug)]
struct PuTraceState {
    tracer: Tracer,
    interval: u64,
    /// Global PU cycle at the start of the current iteration (each
    /// iteration restarts its local cycle counter).
    cycle_base: u64,
    tree_fill: Histogram,
    read_q_occ: Histogram,
    write_q_occ: Histogram,
    prefetch_held: Histogram,
    coalesce_width: Histogram,
    prefetch_hits: u64,
    prefetch_misses: u64,
    queue_coalesced: u64,
    nz_emitted: u64,
    loads_issued: u64,
    stores_issued: u64,
    iterations: u64,
}

impl PuTraceState {
    fn new(cfg: &TraceConfig, pu: &PuConfig) -> Option<Self> {
        let tracer = cfg.make_tracer(0)?;
        let l = pu.leaves as u64;
        Some(Self {
            tracer,
            interval: cfg.sample_interval,
            cycle_base: 0,
            tree_fill: Histogram::for_range((l - 1) * 2 * pu.fifo_entries as u64),
            read_q_occ: Histogram::up_to(pu.read_queue_entries as u64),
            write_q_occ: Histogram::up_to(pu.write_queue_entries as u64),
            prefetch_held: Histogram::for_range(l * pu.prefetch_buffer_entries as u64),
            coalesce_width: Histogram::up_to(64),
            prefetch_hits: 0,
            prefetch_misses: 0,
            queue_coalesced: 0,
            nz_emitted: 0,
            loads_issued: 0,
            stores_issued: 0,
            iterations: 0,
        })
    }

    fn into_report(self) -> TraceReport {
        let mut report = TraceReport {
            sink: self.tracer.finish(),
            ..Default::default()
        };
        report.add_counter("pu.cycles", self.cycle_base);
        report.add_counter("pu.iterations", self.iterations);
        report.add_counter("pu.nz_emitted", self.nz_emitted);
        report.add_counter("pu.loads_issued", self.loads_issued);
        report.add_counter("pu.stores_issued", self.stores_issued);
        report.add_counter("pu.queue_coalesced", self.queue_coalesced);
        report.add_counter("pu.prefetch.hits", self.prefetch_hits);
        report.add_counter("pu.prefetch.misses", self.prefetch_misses);
        report.set_histogram("pu.tree_fill", self.tree_fill);
        report.set_histogram("pu.read_queue", self.read_q_occ);
        report.set_histogram("pu.write_queue", self.write_q_occ);
        report.set_histogram("pu.prefetch_held", self.prefetch_held);
        report.set_histogram("pu.coalesce_width", self.coalesce_width);
        report
    }
}

/// One near-memory processing unit beside one DRAM rank.
#[derive(Debug)]
pub struct ProcessingUnit {
    pu_cfg: PuConfig,
    /// DRAM bus cycles per PU cycle as a (numerator, denominator) ratio.
    ticks: (u64, u64),
    layout: AddressLayout,
    mem: MemorySystem,
    dram_tick_accum: u64,
    next_req_id: u64,
    /// Event-driven fast-forwarding (see [`crate::config::SimOptions`]):
    /// when set, `iter_loop` jumps over provably no-op cycle spans.
    /// Results are bit-identical either way.
    fast_forward: bool,
    /// Instrumentation state; `None` when tracing is off. Purely
    /// observational — it never feeds back into the simulation.
    trace: Option<PuTraceState>,
}

menda_dram::snap_fields!(ProcessingUnit {
    dram_tick_accum,
    next_req_id,
    mem,
} after restored);

impl ProcessingUnit {
    /// Creates a PU with its own single-rank memory system. Only the
    /// per-PU parts of `config` are kept (the PU parameters and the rank's
    /// DRAM configuration); the system-level fields stay with the caller.
    pub fn new(config: &MendaConfig) -> Self {
        config.pu.validate();
        let mut dram = config.dram.clone().with_channels(1).with_ranks(1);
        // The system-level trace knob governs the rank's DRAM tracing too,
        // so `MendaConfig::with_trace` works without touching `dram`.
        dram.trace = config.trace;
        Self {
            layout: AddressLayout::rank_default(),
            mem: MemorySystem::new(dram),
            dram_tick_accum: 0,
            next_req_id: 0,
            fast_forward: config.sim.fast_forward,
            trace: PuTraceState::new(&config.trace, &config.pu),
            pu_cfg: config.pu.clone(),
            ticks: config.dram_ticks_ratio(),
        }
    }

    /// Post-load check: the clock-ratio accumulator is a remainder (the
    /// fast-forward skip bound subtracts it from a span of at least one
    /// DRAM cycle).
    fn restored(&mut self) -> Result<(), SnapError> {
        if self.dram_tick_accum >= self.ticks.1 {
            return Err(SnapError::BadValue);
        }
        Ok(())
    }

    /// Merge-tree leaf count of this PU.
    pub(crate) fn leaves(&self) -> usize {
        self.pu_cfg.leaves
    }

    /// Current DRAM-side statistics of this PU's rank.
    pub(crate) fn dram_stats(&self) -> menda_dram::DramStats {
        self.mem.stats()
    }

    /// Ends instrumentation and returns this PU's trace report (track 0
    /// carries PU-cycle events, track 1 the rank's DRAM bus-cycle
    /// events), or `None` when tracing is off. The PU records nothing
    /// afterwards.
    pub fn take_trace_report(&mut self) -> Option<TraceReport> {
        let state = self.trace.take()?;
        let mut report = state.into_report();
        if let Some(dram) = self.mem.take_trace_report() {
            report.merge(dram);
        }
        Some(report)
    }

    /// The DRAM command stream of this PU's rank (empty unless
    /// `config.dram.log_commands` is set). Feed it to
    /// [`menda_dram::validate_trace`] to check protocol compliance.
    pub fn dram_command_log(&self) -> &[menda_dram::CommandRecord] {
        self.mem.command_log(0)
    }

    /// Transposes `part` (a horizontal partition whose local row 0 is
    /// global row `row_offset`), returning the partition's nonzeros in
    /// CSC order (sorted by column, then global row) plus statistics.
    ///
    /// Builds the transposition job ([`crate::job::transpose_job`]) and
    /// runs it to completion on this PU.
    pub fn transpose(&mut self, part: &CsrMatrix, row_offset: usize) -> PuResult {
        let job = crate::job::transpose_job(part.clone(), row_offset);
        let mut run = crate::job::JobRun::new(self.pu_cfg.leaves as u64, job);
        run.run_until(self, None);
        run.finish(self)
    }

    /// Opens the `pu.iteration` trace span for an iteration about to run
    /// (no-op when tracing is off). Paired with the close in
    /// [`ProcessingUnit::finish_iteration`].
    pub(crate) fn begin_iteration_trace(&mut self) {
        if let Some(ts) = self.trace.as_mut() {
            ts.tracer.begin(ts.cycle_base, "pu.iteration");
        }
    }

    /// Advances one iteration's merge loop until it completes (returns
    /// `true`) or, when `pause_at` is set, until `st.cycles` reaches that
    /// local cycle count (returns `false` with the state parked exactly at
    /// the top of the loop — the only point at which [`IterState`] is
    /// serialized, so a restored state resumes bit-identically).
    ///
    /// This is the heart of the simulator: per PU cycle it
    /// 1. delivers DRAM responses (pointer blocks to the controller FSM,
    ///    data blocks to every coalesced waiter),
    /// 2. issues one read and one write from the PU queues to the rank,
    /// 3. lets the controller issue pointer reads and release stream
    ///    descriptors to the prefetch buffers,
    /// 4. lets active prefetch buffers plan and enqueue block loads
    ///    (coalescing duplicates, §3.4),
    /// 5. ticks the merge tree one cycle and handles the root pop
    ///    (output-buffer accounting, store requests, pointer-write pacing,
    ///    optional SpMV reduction),
    /// 6. advances the rank's DRAM clock by 1.5 bus cycles.
    pub(crate) fn iter_loop(
        &mut self,
        p: &IterParams<'_>,
        st: &mut IterState,
        pause_at: Option<u64>,
    ) -> bool {
        let pu_cfg = self.pu_cfg.clone();
        let l = pu_cfg.leaves;
        let layout = self.layout;
        let count_feed = self.trace.is_some();
        let n_streams = st.n_streams;
        let total_rounds = st.total_rounds;
        let padded = st.padded;
        let elem_bytes = st.elem_bytes;
        let pw = st.pw;
        let need_cap = st.need_cap;
        let (dram_num, dram_den) = self.ticks;
        let max_cycles: u64 = 20_000_000_000;

        loop {
            // Termination: all rounds merged and all output flushed. This
            // check runs before the pause check so a pause target at or
            // past completion still reports "done".
            if st.tree.rounds_completed() as usize >= total_rounds
                && st.bytes_accum == 0
                && st.pending_ptr_blocks == 0
                && st.write_q.is_empty()
                && self.mem.is_idle()
            {
                return true;
            }
            if let Some(target) = pause_at {
                if st.cycles >= target {
                    return false;
                }
            }
            // Fast-forward: when every pipeline stage is provably unable
            // to act (the PU is *quiescent*), jump over the longest span
            // of cycles in which that stays true — bounded by the next
            // DRAM-side event the PU could observe and by the next host
            // injection cycle — bulk-accounting the stall statistics and
            // trace samples the per-cycle path would have produced. The
            // skipped cycles are bit-identical no-ops: every quiescence
            // input (queues, buffers, tree, controller state) is frozen
            // until one of those two bounds, so re-running them one by one
            // would change nothing. `SimOptions::fast_forward = false`
            // keeps the per-cycle reference path; the differential suite
            // proves both produce identical results.
            let rounds_done = st.tree.rounds_completed() as usize >= total_rounds;
            if self.fast_forward {
                let root_space = usize::from(
                    st.bytes_accum + elem_bytes <= pu_cfg.output_buffer_bytes as u64
                        && st.pending_ptr_blocks < 16
                        && st.write_q.len() < pu_cfg.write_queue_entries,
                );
                let wq_full = st.write_q.len() >= pu_cfg.write_queue_entries;
                // Short-circuit order: O(1) checks that are false on most
                // busy cycles come first, so the per-cycle overhead of the
                // probe is a couple of branches; the queue scans at the end
                // only run on cycles that are already nearly quiescent.
                let quiescent = st.buf_active.is_empty()
                    // Tree has no scheduled PE and the root cannot merge.
                    && st.tree.is_quiescent(&PeekPorts(&st.buffers), root_space)
                    // Step 1 would deliver nothing: no response is ready.
                    && self
                        .mem
                        .next_response_at()
                        .is_none_or(|t| t > self.mem.now())
                    // Step 5's post-tree drains would push nothing.
                    && (st.pending_ptr_blocks == 0 || wq_full)
                    // The final flush would push nothing.
                    && (!rounds_done
                        || ((st.bytes_accum == 0 || wq_full)
                            && !(st.pending_ptr_blocks == 0
                                && matches!(p.out, OutputMode::FinalCsc { ncols }
                                    if st.ptr_cursor < (ncols + 1).div_ceil(8)))))
                    // Step 3 would neither issue pointer reads nor release
                    // descriptors.
                    && p.gate.is_none_or(|g| {
                        !(st.ptr_outstanding < pu_cfg.pointer_read_depth
                            && st.ptr_next_issue < g.blocks.len()
                            && !st.read_q.is_full())
                    })
                    && (st.next_release >= padded
                        || (st.next_release < n_streams
                            && p.gate.is_some_and(
                                |g| g.release_after[st.next_release] > st.ptr_blocks_arrived,
                            )))
                    // Step 2 would issue nothing: both issue slots blocked.
                    && st
                        .read_q
                        .next_to_issue()
                        .is_none_or(|b| !self.mem.can_accept(&MemRequest::read(b, 0)))
                    && st
                        .write_q
                        .front()
                        .is_none_or(|&b| !self.mem.can_accept(&MemRequest::write(b, 0)));
                if quiescent {
                    // Longest skip that keeps the DRAM side unobserved:
                    // PU cycle `cycles + j` sees memory time
                    // `M + (accum + (j-1)*num) / den`, which must stay
                    // below the next memory event.
                    let n_mem = match self.mem.next_event_cycle() {
                        Some(ev) => {
                            let span = (ev - self.mem.now()) * dram_den;
                            1 + (span - 1 - self.dram_tick_accum) / dram_num
                        }
                        None => u64::MAX,
                    };
                    // Host injections run on exact PU cycles: never skip
                    // one.
                    let host_cap = match pu_cfg.host_read_interval {
                        Some(interval) if !rounds_done => {
                            (st.cycles / interval + 1) * interval - st.cycles - 1
                        }
                        _ => u64::MAX,
                    };
                    assert!(
                        n_mem != u64::MAX || host_cap != u64::MAX,
                        "PU deadlock suspected: quiescent with no pending events"
                    );
                    let mut n = n_mem.min(host_cap);
                    // A pause target caps the skip too, so the loop pauses
                    // exactly at the requested cycle: the split bulk
                    // advance stays bit-identical because the tick
                    // accumulator arithmetic below is associative over `n`.
                    if let Some(target) = pause_at {
                        n = n.min(target - st.cycles);
                    }
                    if n > 0 {
                        if root_space == 0 {
                            st.it.output_stall_cycles += n;
                        } else if !rounds_done {
                            st.it.root_stall_cycles += n;
                        }
                        if let Some(ts) = self.trace.as_mut() {
                            // checked_div: sampling is off when the
                            // interval is 0.
                            if let Some(q) = st.cycles.checked_div(ts.interval) {
                                // No leaf pops occur in the window, so
                                // fed/starved stay put; emit the interval
                                // samples with the frozen occupancies.
                                let fill = st.tree.occupancy() as u64;
                                let held: usize = st.buffers.iter().map(|b| b.held()).sum();
                                let mut c = (q + 1) * ts.interval;
                                while c <= st.cycles + n {
                                    let now = ts.cycle_base + c;
                                    ts.tree_fill.record(fill);
                                    ts.read_q_occ.record(st.read_q.len() as u64);
                                    ts.write_q_occ.record(st.write_q.len() as u64);
                                    ts.prefetch_held.record(held as u64);
                                    ts.tracer.counter(now, "pu.tree_fill", fill);
                                    ts.tracer
                                        .counter(now, "pu.read_queue", st.read_q.len() as u64);
                                    ts.tracer.counter(
                                        now,
                                        "pu.write_queue",
                                        st.write_q.len() as u64,
                                    );
                                    ts.tracer.counter(now, "pu.prefetch_held", held as u64);
                                    c += ts.interval;
                                }
                            }
                        }
                        // Replicate `n` iterations of step 6 in bulk.
                        let ticks = self.dram_tick_accum + n * dram_num;
                        self.mem.advance(ticks / dram_den);
                        self.dram_tick_accum = ticks % dram_den;
                        st.cycles += n;
                        assert!(st.cycles < max_cycles, "PU deadlock suspected");
                        continue;
                    }
                }
            }
            st.cycles += 1;
            assert!(st.cycles < max_cycles, "PU deadlock suspected");

            // 1. DRAM responses.
            while let Some(resp) = self.mem.pop_response() {
                if resp.kind == ReqKind::Write || resp.id & HOST_REQ_BIT != 0 {
                    continue;
                }
                let block = resp.addr;
                st.waiter_scratch.clear();
                st.read_q.complete_into(block, &mut st.waiter_scratch);
                if let Some(ts) = self.trace.as_mut() {
                    // One completed block feeds `waiters.len()` requests —
                    // the merge width achieved by request coalescing.
                    ts.coalesce_width.record(st.waiter_scratch.len() as u64);
                }
                let mut waiters = std::mem::take(&mut st.waiter_scratch);
                for &w in &waiters {
                    match w {
                        PTR_WAITER => {
                            if let Some(g) = p.gate {
                                // Which gate block is this?
                                let rel =
                                    (block - AddressLayout::block_of(g.ptr_base)) / BLOCK_BYTES;
                                if let Ok(pos) = g.blocks.binary_search(&rel) {
                                    st.ptr_arrived_set[pos] = true;
                                    while st.ptr_blocks_arrived < st.ptr_arrived_set.len()
                                        && st.ptr_arrived_set[st.ptr_blocks_arrived]
                                    {
                                        st.ptr_blocks_arrived += 1;
                                    }
                                    st.ptr_outstanding = st.ptr_outstanding.saturating_sub(1);
                                }
                            }
                        }
                        VEC_WAITER => {}
                        buf_id => {
                            let b = buf_id as usize;
                            if let Some((desc, range, ended)) = st.buffers[b].block_arrived(block) {
                                p.source
                                    .materialize_into(&desc, range, &mut st.packet_scratch);
                                st.buffers[b].deliver(&mut st.packet_scratch, ended);
                                st.tree.wake_port(b);
                                st.buf_active.insert(b);
                            } else if !self.fast_forward {
                                // Chunk still awaiting other blocks: its
                                // plan call is a guaranteed no-op, so the
                                // fast path defers re-activation to the
                                // completing block. The reference path
                                // keeps its retry-every-cycle shape.
                                st.buf_active.insert(b);
                            }
                        }
                    }
                }
                waiters.clear();
                st.waiter_scratch = waiters;
            }

            // 2. Memory interface: one read and one write per cycle.
            if let Some(block) = st.read_q.next_to_issue() {
                let req = MemRequest::read(block, self.next_req_id);
                if self.mem.can_accept(&req) && self.mem.try_enqueue(req) {
                    self.next_req_id += 1;
                    st.read_q.mark_issued(block);
                    st.it.loads_issued += 1;
                }
            }
            // 2b. Concurrent host access (§4): inject a host read into the
            // shared rank at the configured rate, after the PU's own issue
            // so the host cannot monopolize queue slots and livelock the
            // PU (the host-side controller of [11] arbitrates similarly).
            if let Some(interval) = pu_cfg.host_read_interval {
                // Only while the PU is actually working — otherwise the
                // endless host stream would keep the memory system busy
                // and the iteration could never drain to completion.
                if st.cycles.is_multiple_of(interval)
                    && (st.tree.rounds_completed() as usize) < total_rounds
                {
                    let addr =
                        0xC000_0000u64 + (st.cycles / interval).wrapping_mul(0x9E37) % (64 << 20);
                    let req = MemRequest::read(addr & !63, HOST_REQ_BIT | st.cycles);
                    if self.mem.can_accept(&req) {
                        let _ = self.mem.try_enqueue(req);
                    }
                }
            }
            if let Some(&block) = st.write_q.front() {
                let req = MemRequest::write(block, self.next_req_id);
                if self.mem.can_accept(&req) && self.mem.try_enqueue(req) {
                    self.next_req_id += 1;
                    st.write_q.pop_front();
                    st.it.stores_issued += 1;
                }
            }

            // 3. Controller FSM: pointer reads + descriptor release.
            if let Some(g) = p.gate {
                while st.ptr_outstanding < pu_cfg.pointer_read_depth
                    && st.ptr_next_issue < g.blocks.len()
                    && !st.read_q.is_full()
                {
                    let block = AddressLayout::block_of(g.ptr_base)
                        + g.blocks[st.ptr_next_issue] * BLOCK_BYTES;
                    match st.read_q.enqueue(block, PTR_WAITER) {
                        EnqueueOutcome::Full => break,
                        _ => {
                            // SpMV: fetch the matching vector block too.
                            if let Some(vb) = g.vector_base {
                                let vblock = AddressLayout::block_of(
                                    vb + g.blocks[st.ptr_next_issue] * BLOCK_BYTES,
                                );
                                let _ = st.read_q.enqueue(vblock, VEC_WAITER);
                            }
                            st.ptr_next_issue += 1;
                            st.ptr_outstanding += 1;
                        }
                    }
                }
            }
            while st.next_release < padded {
                if st.next_release < n_streams {
                    if let Some(g) = p.gate {
                        if g.release_after[st.next_release] > st.ptr_blocks_arrived {
                            break;
                        }
                    }
                    let desc = p.descriptors[st.next_release];
                    let b = st.next_release % l;
                    st.buffers[b].assign_streams([desc]);
                    st.buf_active.insert(b);
                    st.tree.wake_port(b);
                } else {
                    let b = st.next_release % l;
                    st.buffers[b].assign_streams([StreamDescriptor::empty()]);
                    st.buf_active.insert(b);
                    st.tree.wake_port(b);
                }
                st.next_release += 1;
            }

            // 4. Prefetch buffers plan fetches, in ascending buffer order.
            // The worklist swaps with a retained-capacity scratch Vec so
            // re-activations pushed below land in a buffer that never
            // reallocates in steady state. On the fast path the worklist
            // merges with the parked buffers whose refused plan size the
            // *live* queue length could now satisfy: the walk unions only
            // the reachable need-buckets, and both sources are consumed in
            // ascending id order, so the attempts happen exactly where the
            // reference path's retry-every-cycle loop would have made them
            // succeed (every attempt it skips is a provable no-op).
            let mut work = std::mem::take(&mut st.buf_scratch);
            st.buf_active.drain_into(&mut work);
            let mut wi = 0usize;
            let mut scan_from = 0usize;
            loop {
                let avail = pu_cfg.read_queue_entries - st.read_q.len();
                let next_active = work.get(wi).map(|&x| x as usize);
                let next_parked = if self.fast_forward
                    && st.parked_count > 0
                    && avail >= PrefetchBuffer::MIN_FETCH_SLOTS
                {
                    if avail != st.union_avail {
                        st.union_avail = avail;
                        let hi = avail.min(need_cap);
                        let buckets = &st.parked_buckets;
                        for (w, u) in st.parked_union.iter_mut().enumerate() {
                            *u = (PrefetchBuffer::MIN_FETCH_SLOTS..=hi)
                                .map(|n| buckets[n * pw + w])
                                .fold(0, |a, x| a | x);
                        }
                    }
                    next_set_bit(&st.parked_union, scan_from)
                } else {
                    None
                };
                let b = match (next_active, next_parked) {
                    (None, None) => break,
                    (Some(a), None) => {
                        wi += 1;
                        a
                    }
                    (None, Some(q)) => {
                        scan_from = q + 1;
                        q
                    }
                    (Some(a), Some(q)) => {
                        if a <= q {
                            wi += 1;
                            if a == q {
                                scan_from = q + 1;
                            }
                            a
                        } else {
                            scan_from = q + 1;
                            q
                        }
                    }
                };
                // A parked candidate only surfaces once its plan could fit,
                // so it re-plans for real below; clear its bucket bit.
                if st.parked_need[b] != 0
                    && (Some(b) == next_parked || avail >= st.parked_need[b] as usize)
                {
                    let nbkt = st.parked_need[b] as usize;
                    st.parked_buckets[nbkt * pw + (b >> 7)] &= !(1u128 << (b & 127));
                    st.parked_need[b] = 0;
                    st.parked_count -= 1;
                    st.union_avail = usize::MAX;
                }
                // Conservative slot budget so the whole chunk enqueues
                // atomically (coalesced blocks would not even need slots,
                // but partial enqueue must never happen).
                // A plan refused for queue pressure can only grow while the
                // buffer's stream stands still (pops free space, nothing
                // else changes), so the size from its last refusal is a
                // valid lower bound until the next real plan call.
                let need = (st.parked_need[b] as usize).max(PrefetchBuffer::MIN_FETCH_SLOTS);
                if self.fast_forward
                    && avail < need
                    && (st.parked_need[b] != 0 || st.buffers[b].plan_is_noop_without_slots())
                {
                    // The queue cannot fit this buffer's plan and the
                    // attempt could not change simulated state (it is not
                    // at a stream boundary, so no EOL emission is due).
                    // Park, keeping the tightest threshold known. Buffers
                    // with a chunk in flight are re-activated by the
                    // completing response instead.
                    if st.parked_need[b] == 0 && !st.buffers[b].has_pending() {
                        st.parked_buckets[need * pw + (b >> 7)] |= 1u128 << (b & 127);
                        st.parked_need[b] = need as u32;
                        st.parked_count += 1;
                        st.union_avail = usize::MAX;
                    }
                    continue;
                }
                let had_head = st.buffers[b].peek().is_some();
                match st.buffers[b].plan_fetch(avail) {
                    FetchPlan::Planned { .. } => {
                        for &blk in st.buffers[b].pending_blocks() {
                            match st.read_q.enqueue(blk, b as u32) {
                                EnqueueOutcome::Full => {
                                    unreachable!("slot pre-check guarantees space")
                                }
                                EnqueueOutcome::Coalesced => st.it.loads_coalesced += 1,
                                EnqueueOutcome::Queued => {}
                            }
                        }
                    }
                    FetchPlan::Blocked { blocks } if self.fast_forward => {
                        // Queue pressure: park until the queue could fit a
                        // plan of this size. The plan can only grow while
                        // parked (pops free space, nothing else changes),
                        // so earlier attempts would re-plan and discard —
                        // provably the same simulated behavior as the
                        // reference path's retry-every-cycle below.
                        let nbkt = blocks.clamp(PrefetchBuffer::MIN_FETCH_SLOTS, need_cap);
                        st.parked_buckets[nbkt * pw + (b >> 7)] |= 1u128 << (b & 127);
                        st.parked_need[b] = nbkt as u32;
                        st.parked_count += 1;
                        st.union_avail = usize::MAX;
                    }
                    FetchPlan::Blocked { .. } => {
                        // Queue pressure: retry next cycle.
                        st.buf_active.insert(b);
                    }
                    FetchPlan::None => {}
                }
                if !had_head && st.buffers[b].peek().is_some() {
                    st.tree.wake_port(b);
                }
            }
            work.clear();
            st.buf_scratch = work;

            // 5. Merge tree.
            let root_space = usize::from(
                st.bytes_accum + elem_bytes <= pu_cfg.output_buffer_bytes as u64
                    && st.pending_ptr_blocks < 16
                    && st.write_q.len() < pu_cfg.write_queue_entries,
            );
            if root_space == 0 {
                st.it.output_stall_cycles += 1;
            }
            let mut ports = BufferPorts {
                buffers: &mut st.buffers,
                popped: std::mem::take(&mut st.popped_scratch),
                event_driven: self.fast_forward,
                count_feed,
                fed: 0,
                starved: 0,
            };
            let popped = st.tree.tick(&mut ports, root_space);
            let mut awoken = std::mem::take(&mut ports.popped);
            let (fed, starved) = (ports.fed, ports.starved);
            for &port in &awoken {
                st.buf_active.insert(port as usize);
            }
            awoken.clear();
            st.popped_scratch = awoken;
            if let Some(ts) = self.trace.as_mut() {
                ts.prefetch_hits += fed;
                ts.prefetch_misses += starved;
                if st.cycles.is_multiple_of(ts.interval) {
                    let now = ts.cycle_base + st.cycles;
                    let fill = st.tree.occupancy() as u64;
                    let held: usize = st.buffers.iter().map(|b| b.held()).sum();
                    ts.tree_fill.record(fill);
                    ts.read_q_occ.record(st.read_q.len() as u64);
                    ts.write_q_occ.record(st.write_q.len() as u64);
                    ts.prefetch_held.record(held as u64);
                    ts.tracer.counter(now, "pu.tree_fill", fill);
                    ts.tracer
                        .counter(now, "pu.read_queue", st.read_q.len() as u64);
                    ts.tracer
                        .counter(now, "pu.write_queue", st.write_q.len() as u64);
                    ts.tracer.counter(now, "pu.prefetch_held", held as u64);
                }
            }
            match popped {
                Some(Packet::Nz {
                    major,
                    minor,
                    value,
                }) => {
                    st.it.nz_emitted += 1;
                    let merged = p.reduce && st.last_key_in_run == Some((major, minor));
                    if merged {
                        let lv = st.out_val.last_mut().expect("reduce has prior element");
                        *lv += value;
                    } else {
                        // Pointer-write pacing for FinalCsc output.
                        if let OutputMode::FinalCsc { .. } = p.out {
                            let group = major as u64 / 8; // 8 ptr entries per block
                            if group > st.ptr_cursor {
                                st.pending_ptr_blocks += group - st.ptr_cursor;
                                st.ptr_cursor = group;
                            }
                        }
                        st.out_major.push(major);
                        st.out_minor.push(minor);
                        st.out_val.push(value);
                        st.bytes_accum += elem_bytes;
                        st.last_key_in_run = Some((major, minor));
                        // Issue stores at block granularity per output
                        // array (16 4-byte elements per block).
                        let emitted = st.out_major.len() as u64;
                        if emitted - st.stored_nzs >= 16 {
                            let off = st.stored_nzs * 4;
                            for base in &st.out_bases {
                                st.write_q.push_back(AddressLayout::block_of(base + off));
                            }
                            st.stored_nzs += 16;
                            st.bytes_accum = st.bytes_accum.saturating_sub(16 * elem_bytes);
                        }
                    }
                }
                Some(Packet::Eol) => {
                    st.boundaries.push(st.out_major.len());
                    st.last_key_in_run = None;
                }
                None => {
                    if root_space == 1 && (st.tree.rounds_completed() as usize) < total_rounds {
                        st.it.root_stall_cycles += 1;
                    }
                }
            }
            // Drain one pending pointer-block store per cycle.
            if st.pending_ptr_blocks > 0 && st.write_q.len() < pu_cfg.write_queue_entries {
                st.write_q.push_back(AddressLayout::block_of(
                    layout.out_ptr + (st.ptr_cursor - st.pending_ptr_blocks) * BLOCK_BYTES,
                ));
                st.pending_ptr_blocks -= 1;
            }
            // Final flush when merging finished: one partial-block store
            // per cycle so even a tiny write queue drains it.
            if st.tree.rounds_completed() as usize >= total_rounds {
                if st.bytes_accum > 0 && st.write_q.len() < pu_cfg.write_queue_entries {
                    let off = st.stored_nzs * 4;
                    st.write_q.push_back(AddressLayout::block_of(
                        st.out_bases[st.final_flush_pushed] + off,
                    ));
                    st.final_flush_pushed += 1;
                    if st.final_flush_pushed == st.out_bases.len() {
                        st.bytes_accum = 0;
                    }
                }
                // Trailing pointer blocks of the output CSC pointer array
                // (the dense SpMV output is fully covered by the per-16
                // element stores above).
                if st.pending_ptr_blocks == 0 {
                    if let OutputMode::FinalCsc { ncols } = p.out {
                        let total_groups = (ncols + 1).div_ceil(8);
                        if st.ptr_cursor < total_groups {
                            st.pending_ptr_blocks += total_groups - st.ptr_cursor;
                            st.ptr_cursor = total_groups;
                        }
                    }
                }
            }

            // 6. DRAM clock (bus runs dram_num : dram_den faster).
            // Routed through `advance` rather than raw ticks: it is
            // tick-exact by contract, and the channel-side event cache
            // turns the bus cycles where the controller provably cannot
            // act (most of them, even under load — commands issue every
            // few cycles at best) into O(1) skips.
            self.dram_tick_accum += dram_num;
            if self.dram_tick_accum >= dram_den {
                self.mem.advance(self.dram_tick_accum / dram_den);
                self.dram_tick_accum %= dram_den;
            }
        }
    }

    /// Finalizes one iteration driven through [`ProcessingUnit::iter_loop`]:
    /// stamps the cycle/round counters and DRAM deltas into the iteration
    /// statistics, closes the trace span, and hands back the emitted
    /// triples and run boundaries.
    pub(crate) fn finish_iteration(
        &mut self,
        mut st: IterState,
    ) -> (EmittedTriples, Vec<usize>, IterationStats) {
        st.it.cycles = st.cycles;
        st.it.rounds = st.total_rounds as u64;
        let dram_after = self.mem.stats();
        st.it.dram_row_hits = dram_after.row_hits - st.dram_before.row_hits;
        st.it.dram_row_misses = dram_after.row_misses - st.dram_before.row_misses;
        st.it.dram_row_conflicts = dram_after.row_conflicts - st.dram_before.row_conflicts;
        if let Some(ts) = self.trace.as_mut() {
            let end = ts.cycle_base + st.cycles;
            ts.tracer.end(end, "pu.iteration");
            ts.cycle_base = end;
            ts.iterations += 1;
            ts.nz_emitted += st.it.nz_emitted;
            ts.loads_issued += st.it.loads_issued;
            ts.stores_issued += st.it.stores_issued;
            ts.queue_coalesced += st.it.loads_coalesced;
        }
        (
            (st.out_minor, st.out_major, st.out_val),
            st.boundaries,
            st.it,
        )
    }
}

/// First set bit at index `>= from` across the `u128` words, if any.
/// Backs the parked-buffer walk of `iter_loop` step 4.
fn next_set_bit(words: &[u128], from: usize) -> Option<usize> {
    let mut wi = from >> 7;
    if wi >= words.len() {
        return None;
    }
    let mut w = words[wi] & (u128::MAX << (from & 127));
    loop {
        if w != 0 {
            return Some((wi << 7) + w.trailing_zeros() as usize);
        }
        wi += 1;
        if wi >= words.len() {
            return None;
        }
        w = words[wi];
    }
}

/// Number of merge iterations to reduce `streams` sorted streams with an
/// `l`-leaf tree (`ceil(log_l streams)`, minimum 1 when there is anything
/// to sort — §3.1).
pub fn iterations_needed(streams: u64, l: u64) -> u32 {
    if streams == 0 {
        return 0;
    }
    let mut iters = 0;
    let mut s = streams;
    while s > 1 || iters == 0 {
        s = s.div_ceil(l);
        iters += 1;
        if s == 1 {
            break;
        }
    }
    iters
}

/// Converts the previous iteration's run boundaries into COO stream
/// descriptors over `region`.
pub fn runs_to_descriptors(boundaries: &[usize], region: u8) -> Vec<StreamDescriptor> {
    let mut descs = Vec::new();
    let mut start = 0usize;
    for &end in boundaries {
        if end > start {
            descs.push(StreamDescriptor {
                start: start as u64,
                end: end as u64,
                kind: StreamKind::Coo { region },
            });
        }
        start = end;
    }
    descs
}

/// Converts run boundaries into (index, value) pair stream descriptors
/// over `region` (the 8-byte SpMV intermediates of §3.6).
pub fn pair_runs_to_descriptors(boundaries: &[usize], region: u8) -> Vec<StreamDescriptor> {
    let mut descs = Vec::new();
    let mut start = 0usize;
    for &end in boundaries {
        if end > start {
            descs.push(StreamDescriptor {
                start: start as u64,
                end: end as u64,
                kind: StreamKind::Pair { region },
            });
        }
        start = end;
    }
    descs
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_sparse::gen;

    fn small_config() -> MendaConfig {
        MendaConfig::small_test()
    }

    #[test]
    fn restore_rejects_a_tick_accumulator_past_the_clock_ratio() {
        use menda_dram::{Decoder, Encoder, Snap};
        let restore = |accum: u64| {
            let mut pu = ProcessingUnit::new(&small_config());
            pu.dram_tick_accum = accum;
            let mut enc = Encoder::new();
            pu.save(&mut enc);
            let bytes = enc.into_bytes();
            ProcessingUnit::new(&small_config()).load(&mut Decoder::new(&bytes))
        };
        let den = ProcessingUnit::new(&small_config()).ticks.1;
        assert_eq!(restore(den - 1), Ok(()));
        assert_eq!(restore(den), Err(SnapError::BadValue));
    }

    fn check_transpose(m: &CsrMatrix) {
        let mut pu = ProcessingUnit::new(&small_config());
        let result = pu.transpose(m, 0);
        let golden = m.to_csc();
        assert_eq!(result.values.len(), golden.nnz(), "nnz mismatch");
        let mut k = 0;
        for c in 0..golden.ncols() {
            let (rows, vals) = golden.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                assert_eq!(result.majors[k], c as u32, "col at {k}");
                assert_eq!(result.minors[k], r, "row at {k}");
                assert_eq!(result.values[k], v, "val at {k}");
                k += 1;
            }
        }
    }

    #[test]
    fn transposes_fig1_matrix() {
        let m = CsrMatrix::new(
            8,
            7,
            vec![0, 2, 4, 7, 9, 12, 14, 17, 17],
            vec![0, 2, 1, 4, 0, 4, 6, 3, 5, 0, 2, 5, 1, 3, 2, 5, 6],
            (1..=17).map(|v| v as f32).collect(),
        )
        .unwrap();
        check_transpose(&m);
    }

    #[test]
    fn transposes_uniform_random() {
        check_transpose(&gen::uniform(64, 512, 3));
    }

    #[test]
    fn transposes_power_law() {
        check_transpose(&gen::rmat(128, 1024, gen::RmatParams::PAPER, 5));
    }

    #[test]
    fn multi_iteration_when_rows_exceed_leaves() {
        // 64 non-empty rows on a 16-leaf tree: 2 iterations.
        let m = gen::uniform(64, 512, 7);
        let mut pu = ProcessingUnit::new(&small_config());
        let result = pu.transpose(&m, 0);
        assert_eq!(result.stats.num_iterations(), 2);
        check_transpose(&m);
    }

    #[test]
    fn single_iteration_when_rows_fit() {
        let m = gen::uniform(12, 100, 9);
        let mut pu = ProcessingUnit::new(&small_config());
        let result = pu.transpose(&m, 0);
        assert_eq!(result.stats.num_iterations(), 1);
    }

    #[test]
    fn row_offset_shifts_minors() {
        let m = gen::uniform(8, 32, 1);
        let mut pu = ProcessingUnit::new(&small_config());
        let r = pu.transpose(&m, 100);
        assert!(r.minors.iter().all(|&x| (100..108).contains(&x)));
    }

    #[test]
    fn iterations_needed_formula() {
        assert_eq!(iterations_needed(0, 16), 0);
        assert_eq!(iterations_needed(1, 16), 1);
        assert_eq!(iterations_needed(16, 16), 1);
        assert_eq!(iterations_needed(17, 16), 2);
        assert_eq!(iterations_needed(256, 16), 2);
        assert_eq!(iterations_needed(257, 16), 3);
        assert_eq!(iterations_needed(1024 * 1024, 1024), 2);
    }

    #[test]
    fn runs_to_descriptors_skips_empty_runs() {
        let descs = runs_to_descriptors(&[3, 3, 10], 1);
        assert_eq!(descs.len(), 2);
        assert_eq!(descs[0].start, 0);
        assert_eq!(descs[0].end, 3);
        assert_eq!(descs[1].start, 3);
        assert_eq!(descs[1].end, 10);
    }

    #[test]
    fn empty_matrix_finishes_immediately() {
        let m = CsrMatrix::zeros(16, 16);
        let mut pu = ProcessingUnit::new(&small_config());
        let r = pu.transpose(&m, 0);
        assert!(r.majors.is_empty());
        assert_eq!(r.stats.num_iterations(), 0);
    }

    #[test]
    fn coalescing_reduces_issued_loads_on_short_rows() {
        // Many 1-NZ rows share blocks: coalescing should fire.
        let m = gen::uniform(256, 256, 11);
        let run = |coal: bool| {
            let mut cfg = small_config();
            cfg.pu.request_coalescing = coal;
            let mut pu = ProcessingUnit::new(&cfg);
            let r = pu.transpose(&m, 0);
            (
                r.stats.iterations[0].loads_issued,
                r.stats.total_coalesced(),
            )
        };
        let (issued_on, coalesced_on) = run(true);
        let (issued_off, coalesced_off) = run(false);
        assert_eq!(coalesced_off, 0);
        assert!(coalesced_on > 0, "no coalescing observed");
        assert!(
            issued_on < issued_off,
            "coalescing did not reduce traffic: {issued_on} vs {issued_off}"
        );
    }

    #[test]
    fn stats_traffic_accounts_loads_and_stores() {
        let m = gen::uniform(32, 256, 13);
        let mut pu = ProcessingUnit::new(&small_config());
        let r = pu.transpose(&m, 0);
        let it = &r.stats.iterations[0];
        assert!(it.loads_issued > 0);
        assert!(it.stores_issued > 0);
        assert!(it.cycles > 0);
        // At minimum the NZ data must be read: 256 NZs * 8 B / 64 B.
        assert!(it.loads_issued >= 256 * 8 / 64);
    }
}
