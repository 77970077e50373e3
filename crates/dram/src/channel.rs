use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use menda_trace::TraceReport;

use crate::bank::RankState;
use crate::checker::ProtocolChecker;
use crate::command::{CommandKind, CommandRecord};
use crate::config::RowPolicy;
use crate::scheduler::{Candidate, NeededCommand};
use crate::trace::ChannelTracer;
use crate::{
    BankArray, BankState, DramConfig, DramCoord, DramStats, MemRequest, MemResponse, ReqKind,
};

/// CAS traffic to a rank is cut off once its pending refresh has been
/// postponed this many `tREFI` intervals (the JEDEC budget of 8), so the
/// refresh always beats the checker's 9-interval deadline.
const REFRESH_POSTPONE_INTERVALS: u64 = 8;

/// A request resident in a channel queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    coord: DramCoord,
    enq_at: u64,
    /// Monotonic per-queue arrival number; the queue stays sorted by it
    /// (requests enter at the back and leave from arbitrary positions),
    /// which lets the per-bank index map a winner back to its position.
    seq: u64,
    /// Whether the row hit/miss/conflict outcome was already recorded.
    classified: bool,
}

/// Per-bank request index for one queue (read or write).
///
/// Replaces the per-cycle O(queue × banks) FR-FCFS candidate scan with
/// O(occupied banks) work: every resident request is keyed by its arrival
/// sequence number, each flat bank keeps its residents oldest-first, and
/// a cached sublist of the residents hitting the bank's currently open
/// row is rebuilt only when the bank's row state changes (ACT / PRE /
/// auto-precharge / refresh PRE) instead of being rederived every cycle.
#[derive(Debug)]
struct QueueIndex {
    /// Per flat bank: `(seq, row)` of resident requests, oldest first.
    by_bank: Vec<VecDeque<(u64, usize)>>,
    /// Per flat bank: seqs of requests hitting the open row, oldest
    /// first. Empty for closed banks.
    hits: Vec<VecDeque<u64>>,
    /// Flat banks with at least one resident request (unordered).
    occupied: Vec<usize>,
    next_seq: u64,
}

impl QueueIndex {
    fn new(banks: usize) -> Self {
        Self {
            by_bank: vec![VecDeque::new(); banks],
            hits: vec![VecDeque::new(); banks],
            occupied: Vec::new(),
            next_seq: 0,
        }
    }

    /// Registers an arriving request on `flat` targeting `row`; returns
    /// the sequence number assigned to it.
    fn push(&mut self, flat: usize, row: usize, open_row: Option<usize>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.by_bank[flat].is_empty() {
            self.occupied.push(flat);
        }
        self.by_bank[flat].push_back((seq, row));
        if open_row == Some(row) {
            self.hits[flat].push_back(seq);
        }
        seq
    }

    /// Removes a retired request.
    fn remove(&mut self, flat: usize, seq: u64) {
        let list = &mut self.by_bank[flat];
        if let Some(pos) = list.iter().position(|&(s, _)| s == seq) {
            list.remove(pos);
        }
        let hits = &mut self.hits[flat];
        if let Some(pos) = hits.iter().position(|&s| s == seq) {
            hits.remove(pos);
        }
        if self.by_bank[flat].is_empty() {
            if let Some(pos) = self.occupied.iter().position(|&b| b == flat) {
                self.occupied.swap_remove(pos);
            }
        }
    }

    /// Re-registers a resident with its *original* sequence number during
    /// state restore. Callers feed residents in queue order (globally
    /// seq-sorted), which keeps each bank's list oldest-first — the same
    /// invariant `push` maintains.
    fn reinsert(&mut self, flat: usize, seq: u64, row: usize, open_row: Option<usize>) {
        if self.by_bank[flat].is_empty() {
            self.occupied.push(flat);
        }
        self.by_bank[flat].push_back((seq, row));
        if open_row == Some(row) {
            self.hits[flat].push_back(seq);
        }
    }

    /// Rebuilds the open-row hit cache of `flat` after its row state
    /// changed.
    fn on_row_change(&mut self, flat: usize, open_row: Option<usize>) {
        let hits = &mut self.hits[flat];
        hits.clear();
        if let Some(row) = open_row {
            for &(seq, r) in &self.by_bank[flat] {
                if r == row {
                    hits.push_back(seq);
                }
            }
        }
    }
}

/// One memory channel: read/write queues, per-bank and per-rank state, the
/// FR-FCFS-PriorHit scheduler, refresh management and response delivery.
///
/// The controller issues at most one DRAM command per bus cycle and models
/// the shared data bus at burst granularity.
#[derive(Debug)]
pub struct ChannelController {
    config: DramConfig,
    banks: BankArray,
    ranks: Vec<RankState>,
    refresh_pending: Vec<bool>,
    read_q: VecDeque<Queued>,
    write_q: VecDeque<Queued>,
    read_ix: QueueIndex,
    write_ix: QueueIndex,
    /// Earliest `refresh_due` across ranks; lets `service_refresh` skip
    /// its per-rank scan entirely between tREFI windows.
    refresh_next_due: u64,
    /// Number of ranks with `refresh_pending` set.
    refresh_pending_count: usize,
    responses: BinaryHeap<Reverse<(u64, u64)>>,
    response_data: Vec<Option<MemResponse>>,
    response_seq: u64,
    now: u64,
    bus_free_at: u64,
    draining_writes: bool,
    stats: DramStats,
    command_log: Vec<CommandRecord>,
    /// Live protocol verifier (present when `config.check_protocol`).
    checker: Option<ProtocolChecker>,
    /// Instrumentation hooks (present when `config.trace` is enabled).
    /// Purely observational: never feeds back into scheduling or timing.
    tracer: Option<ChannelTracer>,
    /// Auto-precharges (RDA/WRA under `RowPolicy::ClosedPage`) whose
    /// effective cycle has not been reached yet; emitted into the command
    /// log / checker when `now` catches up so the stream stays
    /// cycle-monotonic.
    pending_autopre: Vec<CommandRecord>,
    /// Sched-sleep cache: a failed scheduling scan stores the earliest
    /// cycle either queue's *timing* constraints could admit any command
    /// ([`Self::queue_issue_event`], which ignores refresh vetoes — they
    /// only delay, so the bound is conservative). Until that cycle the
    /// per-tick scans are provably fruitless and are skipped in O(1).
    /// Every scheduler-state mutation (enqueue, issued command, refresh
    /// activity) resets the cache to 0.
    sched_sleep_until: u64,
    /// Cached [`Self::next_active_event_cycle`] lower bound, valid until
    /// the next state mutation. The PU model advances the bus clock one
    /// or two ticks per PU cycle; without this cache every such
    /// [`Self::advance_to`] call would re-derive the bound (a scan over
    /// every occupied bank) only to learn again that nothing can happen
    /// for dozens of cycles. Maintained by [`Self::tick`] itself: a tick
    /// that acts resets it to 0, a non-issuing tick refreshes it from
    /// the scheduling scan it already paid for plus the O(1)
    /// bookkeeping terms. Enqueues tighten it incrementally; response
    /// pops only *remove* event terms, so the
    /// bound stays a valid lower bound across them. Derived state: not
    /// serialized, reset on restore.
    event_bound: u64,
    /// Flat bank index → `(rank, bank_group)`, precomputed from the
    /// organization. [`Self::rank_bg_of`] sits inside every per-bank
    /// term of the scheduling scans; a table load replaces two integer
    /// divisions there. Derived from config, never serialized.
    bank_coord: Vec<(u16, u16)>,
}

impl ChannelController {
    /// Creates a controller for one channel of `config`.
    pub fn new(config: DramConfig) -> Self {
        let nbanks = config.org.ranks * config.org.banks_per_rank();
        let ranks: Vec<RankState> = (0..config.org.ranks)
            .map(|_| RankState::new(&config.timing))
            .collect();
        let refresh_next_due = ranks
            .iter()
            .map(|r| r.refresh_due)
            .min()
            .unwrap_or(u64::MAX);
        Self {
            banks: BankArray::new(nbanks),
            ranks,
            refresh_pending: vec![false; config.org.ranks],
            read_q: VecDeque::with_capacity(config.read_queue),
            write_q: VecDeque::with_capacity(config.write_queue),
            read_ix: QueueIndex::new(nbanks),
            write_ix: QueueIndex::new(nbanks),
            refresh_next_due,
            refresh_pending_count: 0,
            responses: BinaryHeap::new(),
            response_data: Vec::new(),
            response_seq: 0,
            now: 0,
            bus_free_at: 0,
            draining_writes: false,
            stats: DramStats::new(),
            command_log: Vec::new(),
            checker: config.check_protocol.then(|| ProtocolChecker::new(&config)),
            tracer: ChannelTracer::new(
                &config.trace,
                1,
                nbanks,
                config.read_queue,
                config.write_queue,
            ),
            pending_autopre: Vec::new(),
            sched_sleep_until: 0,
            event_bound: 0,
            bank_coord: (0..nbanks)
                .map(|flat| {
                    let bpr = config.org.banks_per_rank();
                    (
                        (flat / bpr) as u16,
                        ((flat % bpr) / config.org.banks_per_group) as u16,
                    )
                })
                .collect(),
            config,
        }
    }

    /// Moves this channel's trace events to `track` (the owning memory
    /// system assigns track `1 + channel index`; track 0 is the PU clock).
    pub fn set_trace_track(&mut self, track: u32) {
        if let Some(t) = self.tracer.as_mut() {
            t.set_track(track);
        }
    }

    /// Ends instrumentation and returns this channel's trace report, or
    /// `None` when tracing is off. The channel records nothing afterwards.
    pub fn take_trace_report(&mut self) -> Option<TraceReport> {
        self.tracer.take().map(|t| t.into_report(self.now))
    }

    /// Current bus cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Read queue occupancy.
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Write queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// Whether all queues are empty and no responses are pending.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.responses.is_empty()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The recorded command stream (empty unless
    /// [`DramConfig::log_commands`] is set).
    pub fn command_log(&self) -> &[CommandRecord] {
        &self.command_log
    }

    /// Records `kind` at `cycle` in the command log and feeds it to the
    /// live protocol checker.
    ///
    /// # Panics
    ///
    /// Panics when [`DramConfig::check_protocol`] is set and the command
    /// violates a protocol rule — the simulation result would be wrong.
    fn emit(&mut self, cycle: u64, kind: CommandKind, coord: DramCoord) {
        let record = CommandRecord { cycle, kind, coord };
        if self.config.log_commands {
            self.command_log.push(record);
        }
        if let Some(checker) = self.checker.as_mut() {
            if let Err(v) = checker.observe(&record) {
                panic!("DRAM protocol violation: {v}");
            }
        }
    }

    /// Emits pending auto-precharges whose effective cycle has arrived,
    /// oldest first, keeping the observable command stream monotonic.
    fn flush_pending_autopre(&mut self) {
        if self.pending_autopre.is_empty() {
            return;
        }
        self.pending_autopre.sort_by_key(|r| r.cycle);
        while self
            .pending_autopre
            .first()
            .is_some_and(|r| r.cycle <= self.now)
        {
            let r = self.pending_autopre.remove(0);
            self.emit(r.cycle, r.kind, r.coord);
        }
    }

    /// Time-based liveness checks: refresh postpone deadlines and request
    /// retirement bounds (queues are age-ordered, so the fronts are the
    /// oldest requests).
    ///
    /// # Panics
    ///
    /// Panics on refresh starvation or an over-age request.
    fn check_liveness(&self) {
        let Some(checker) = self.checker.as_ref() else {
            return;
        };
        if let Err(v) = checker.advance(self.now) {
            panic!("DRAM protocol violation: {v}");
        }
        for front in [self.read_q.front(), self.write_q.front()]
            .into_iter()
            .flatten()
        {
            if let Err(v) = checker.check_request_age(front.enq_at, self.now) {
                panic!("DRAM protocol violation: {v}");
            }
        }
    }

    /// Attempts to enqueue a request already decoded to `coord` (which must
    /// belong to this channel). Returns `false` when the target queue is
    /// full.
    ///
    /// Reads that match a queued write's line are served by store-to-load
    /// forwarding and complete on the next cycle without a DRAM access.
    pub fn try_enqueue(&mut self, req: MemRequest, coord: DramCoord) -> bool {
        let line_mask = !(self.config.org.transaction_bytes as u64 - 1);
        let addr = req.addr & line_mask;
        match req.kind {
            ReqKind::Read => {
                if self.write_q.iter().any(|w| w.req.addr & line_mask == addr) {
                    // Forwarded reads complete without a DRAM access but
                    // are still served requests: count them (and their
                    // one-cycle latency) so bandwidth totals include them.
                    self.stats.reads += 1;
                    self.stats.forwarded_reads += 1;
                    self.stats.read_latency_sum += 1;
                    self.stats.read_latency_max = self.stats.read_latency_max.max(1);
                    self.push_response(MemResponse {
                        id: req.id,
                        addr,
                        kind: ReqKind::Read,
                        done_at: self.now + 1,
                    });
                    return true;
                }
                if self.read_q.len() >= self.config.read_queue {
                    self.stats.queue_full_rejections += 1;
                    return false;
                }
                let flat = self.flat_bank(&coord);
                let seq = self.read_ix.push(flat, coord.row, self.open_row(flat));
                // Tighten the scheduler sleep bound with just this bank's
                // term: every other bank's earliest-issue estimate is
                // untouched by the push (timing state is frozen while no
                // command issues), so the incremental min equals a full
                // re-scan.
                let ev = self.bank_issue_event(&self.read_ix, flat, true);
                self.sched_sleep_until = self.sched_sleep_until.min(ev);
                self.event_bound = self.event_bound.min(ev);
                self.read_q.push_back(Queued {
                    req: MemRequest { addr, ..req },
                    coord,
                    enq_at: self.now,
                    seq,
                    classified: false,
                });
                true
            }
            ReqKind::Write => {
                if self.write_q.len() >= self.config.write_queue {
                    self.stats.queue_full_rejections += 1;
                    return false;
                }
                let flat = self.flat_bank(&coord);
                let seq = self.write_ix.push(flat, coord.row, self.open_row(flat));
                let ev = self.bank_issue_event(&self.write_ix, flat, false);
                self.sched_sleep_until = self.sched_sleep_until.min(ev);
                self.event_bound = self.event_bound.min(ev);
                self.write_q.push_back(Queued {
                    req: MemRequest { addr, ..req },
                    coord,
                    enq_at: self.now,
                    seq,
                    classified: false,
                });
                true
            }
        }
    }

    /// Pops the next completed response, if any has finished by now.
    pub fn pop_response(&mut self) -> Option<MemResponse> {
        if let Some(&Reverse((done_at, seq))) = self.responses.peek() {
            if done_at <= self.now {
                self.responses.pop();
                let resp = self.response_data[seq as usize].take();
                // Compact the backing store when fully drained.
                if self.responses.is_empty() && self.response_data.len() > 1024 {
                    self.response_data.clear();
                    self.response_seq = 0;
                }
                return resp;
            }
        }
        None
    }

    fn push_response(&mut self, resp: MemResponse) {
        let seq = self.response_seq;
        self.response_seq += 1;
        self.response_data.push(Some(resp));
        self.responses.push(Reverse((resp.done_at, seq)));
    }

    /// Earliest `done_at` among in-flight responses.
    pub fn next_response_at(&self) -> Option<u64> {
        self.responses.peek().map(|&Reverse((done_at, _))| done_at)
    }

    /// The earliest bus cycle strictly after `now` at which this channel's
    /// observable state can change.
    ///
    /// This is a *conservative lower bound*: the controller may wake at
    /// that cycle and find it still cannot act (a pending refresh vetoes
    /// CAS/ACT, say — vetoes are deliberately ignored because they only
    /// delay), but it never sleeps through a cycle where `tick()` would
    /// have issued a command, matured a response, emitted a buffered
    /// auto-precharge, or run refresh bookkeeping. `None` means the
    /// channel is fully inert (no residents, no responses, refresh
    /// disabled), so any jump is safe.
    pub fn next_event_cycle(&self) -> Option<u64> {
        // The tick-maintained skip bound is itself a conservative lower
        // bound on the next active event (see `event_bound`'s field
        // docs); while it is ahead of `now`, reuse it instead of paying
        // the per-bank scan — the PU quiescence calculus probes this on
        // every candidate skip, and an early wake-up is merely a no-op
        // re-probe (the skip machinery is split-invariant). A bound at
        // or behind `now` (the last tick acted, or none ran yet) falls
        // back to the full derivation.
        let mut ev = if self.event_bound > self.now {
            self.event_bound
        } else {
            self.next_active_event_cycle()
        };
        // Responses mature at `done_at` (observable via `pop_response`).
        if let Some(&Reverse((done_at, _))) = self.responses.peek() {
            ev = ev.min(done_at);
        }
        (ev != u64::MAX).then_some(ev.max(self.now + 1))
    }

    /// The *active* subset of [`Self::next_event_cycle`]: the earliest
    /// cycle a real [`Self::tick`] must run because the controller itself
    /// acts — a command could issue, a refresh could fire, a starved
    /// front crosses its deadline, or a buffered auto-precharge falls
    /// due. Response maturation is deliberately excluded: a response is
    /// passive state (its `done_at` is fixed at push time and
    /// [`Self::pop_response`] gates on `done_at <= now` no matter how
    /// `now` got there), so the clock may fast-forward across it. This is
    /// the bound [`Self::advance_to`] skips on.
    fn next_active_event_cycle(&self) -> u64 {
        let mut ev = self.bookkeeping_event_cycle();
        ev = ev.min(self.queue_issue_event(&self.read_ix, true));
        ev = ev.min(self.queue_issue_event(&self.write_ix, false));
        ev
    }

    /// The O(1)-ish terms of [`Self::next_active_event_cycle`] — every
    /// active event *except* command issuability: buffered
    /// auto-precharges falling due, refresh activity, and starvation
    /// deadlines. A non-issuing [`Self::tick`] combines this with the
    /// issue bound its scheduling scan already produced to refresh
    /// [`Self::event_bound`] without a second per-bank pass.
    fn bookkeeping_event_cycle(&self) -> u64 {
        let mut ev = u64::MAX;
        for r in &self.pending_autopre {
            ev = ev.min(r.cycle);
        }
        if self.config.refresh_enabled {
            ev = ev.min(self.refresh_event());
        }
        for front in [self.read_q.front(), self.write_q.front()]
            .into_iter()
            .flatten()
        {
            ev = ev.min(front.enq_at + self.config.timing.t_refi + 1);
        }
        ev
    }

    /// Earliest cycle at which `service_refresh` could act: a new rank
    /// becoming due, a pending rank's first closable open bank, or — all
    /// banks closed — the last bank's `tRP` expiring so REF can fire.
    fn refresh_event(&self) -> u64 {
        let mut ev = self.refresh_next_due;
        if self.refresh_pending_count == 0 {
            return ev;
        }
        let banks_per_rank = self.config.org.banks_per_rank();
        for rank in 0..self.ranks.len() {
            if !self.refresh_pending[rank] {
                continue;
            }
            let base = rank * banks_per_rank;
            let mut any_open = false;
            let mut pre_at = u64::MAX;
            let mut act_ready = 0u64;
            for b in base..base + banks_per_rank {
                match self.banks.state(b) {
                    BankState::Opened(_) => {
                        any_open = true;
                        pre_at = pre_at.min(self.banks.next_pre(b));
                    }
                    BankState::Closed => act_ready = act_ready.max(self.banks.next_act(b)),
                }
            }
            ev = ev.min(if any_open { pre_at } else { act_ready });
        }
        ev
    }

    /// Earliest cycle any command on behalf of `ix`'s residents could
    /// become issuable. Refresh vetoes are ignored (they only delay;
    /// `refresh_event` bounds their expiry), so this is a lower bound.
    /// All timing inputs (bank/rank state, `bus_free_at`, queue
    /// contents) are frozen while no command issues, which is exactly
    /// the window this bound protects.
    fn queue_issue_event(&self, ix: &QueueIndex, is_read: bool) -> u64 {
        let mut ev = u64::MAX;
        for &flat in &ix.occupied {
            ev = ev.min(self.bank_issue_event(ix, flat, is_read));
        }
        ev
    }

    /// The single-bank term of [`Self::queue_issue_event`]: the earliest
    /// cycle any command serving `ix`'s residents of bank `flat` could
    /// become issuable. Factored out so `try_enqueue` can tighten the
    /// scheduler sleep bound incrementally — pushing a request changes
    /// only its own bank's term, so re-scanning every occupied bank on
    /// each enqueue is wasted work.
    fn bank_issue_event(&self, ix: &QueueIndex, flat: usize, is_read: bool) -> u64 {
        let t = &self.config.timing;
        let cas_lat = if is_read { t.t_cl } else { t.t_cwl };
        let (rank_idx, bg) = self.rank_bg_of(flat);
        let rank = &self.ranks[rank_idx];
        let mut ev = u64::MAX;
        match self.banks.state(flat) {
            BankState::Closed => {
                ev = ev.min(self.banks.next_act(flat).max(rank.act_allowed_at(bg, t)));
            }
            BankState::Opened(_) => {
                let oldest_hit = ix.hits[flat].front().copied();
                if oldest_hit.is_some() {
                    let bank_ready = if is_read {
                        self.banks.next_rd(flat)
                    } else {
                        self.banks.next_wr(flat)
                    };
                    ev = ev.min(
                        bank_ready
                            .max(rank.cas_allowed_at(bg, is_read, t))
                            .max(self.bus_free_at.saturating_sub(cas_lat)),
                    );
                }
                let &(oldest_seq, _) = ix.by_bank[flat]
                    .front()
                    .expect("occupied bank has residents");
                if oldest_hit != Some(oldest_seq) {
                    ev = ev.min(self.banks.next_pre(flat));
                }
            }
        }
        ev
    }

    /// Jumps directly to bus cycle `target` without simulating the
    /// intermediate cycles, which the caller guarantees (via
    /// `next_active_event_cycle`) are controller no-ops: no
    /// command can issue, no refresh bookkeeping runs. Responses *may*
    /// mature inside the span — maturation is passive (see
    /// `next_active_event_cycle`). Skipped cycles are
    /// bulk-accounted into the stats and the trace samples the per-cycle
    /// path would have produced are emitted at each sampling interval;
    /// the liveness check runs once at the target (equivalent for clean
    /// runs — its deadline comparisons are monotone in `now`).
    pub fn fast_forward_to(&mut self, target: u64) {
        if target <= self.now {
            return;
        }
        debug_assert!(
            self.next_active_event_cycle().max(self.now + 1) > target,
            "fast-forward across a channel event"
        );
        if let Some(t) = self.tracer.as_mut() {
            t.on_idle_span(self.now, target, self.read_q.len(), self.write_q.len());
        }
        self.now = target;
        self.stats.cycles = self.now;
        self.check_liveness();
    }

    /// Advances this channel to bus cycle `end`, fast-forwarding across
    /// spans where the controller provably does nothing. Tick-exact: the
    /// resulting observable state (commands and their cycles, stats,
    /// responses, trace) is bit-identical to calling [`Self::tick`]
    /// `end - now` times.
    ///
    /// The skip bound is the cached `next_active_event_cycle`
    /// (see [`Self::event_bound`'s field docs]): across the one-or-two
    /// tick spans the PU model advances per PU cycle, the cache makes the
    /// common "nothing can happen yet" case O(1) instead of a scan over
    /// every occupied bank. The cache may be stale-*tight* (a popped
    /// response removed its event term), in which case the cycle it names
    /// runs through a real `tick` that does nothing — identical to the
    /// per-cycle path — and the bound is re-derived.
    pub fn advance_to(&mut self, end: u64) {
        while self.now < end {
            // Skip to just before the next active event (the event cycle
            // itself must run through `tick` so the controller can act).
            // `tick` maintains the bound itself — an issuing tick resets
            // it to 0 (forcing the next cycle through `tick`), a
            // non-issuing tick derives it from the scheduling scan it
            // already paid for — so no separate bound scan runs here.
            if self.event_bound > self.now + 1 {
                self.fast_forward_to((self.event_bound - 1).min(end));
                if self.now >= end {
                    break;
                }
            }
            self.tick();
        }
    }

    /// Advances one bus cycle: handles refresh, schedules at most one
    /// command, and retires finished bursts.
    pub fn tick(&mut self) {
        // Pessimistic default: a tick that acts (issues a command, fires
        // refresh, runs starvation recovery) creates new — possibly
        // earlier — events, so the skip bound resets and the next cycle
        // runs through `tick` again. The non-issuing exits below restore
        // a real bound from the scan they already performed.
        self.event_bound = 0;
        self.now += 1;
        self.stats.cycles = self.now;
        if let Some(t) = self.tracer.as_mut() {
            t.on_tick(self.now, self.read_q.len(), self.write_q.len());
        }
        self.flush_pending_autopre();
        self.check_liveness();

        if self.config.refresh_enabled && self.service_refresh() {
            // Refresh PRE/REF touched bank state; re-derive the sleep
            // bound on the next scan.
            self.sched_sleep_until = 0;
            return;
        }

        // Starvation recovery: a front-of-queue request that has waited a
        // full refresh interval gets the channel to itself until it
        // retires — no row-hit jumping, no other-queue fallback. FR-FCFS
        // hit priority plus write draining can otherwise monopolize a
        // bank indefinitely (younger requests keep re-opening it on other
        // rows faster than the victim's ACT window comes around), and a
        // lone write under a perpetual row-hit read stream has its
        // turnaround (tCL+tBL+2-tCWL) re-armed faster than it expires.
        let read_age = self.read_q.front().map_or(0, |r| self.now - r.enq_at);
        let write_age = self.write_q.front().map_or(0, |w| self.now - w.enq_at);
        if read_age.max(write_age) > self.config.timing.t_refi {
            let kind = if read_age >= write_age {
                ReqKind::Read
            } else {
                ReqKind::Write
            };
            self.schedule_front(kind);
            return;
        }

        // Sched-sleep gate: while `now` is below the cached bound no
        // command can possibly issue from either queue (the bound is a
        // timing lower bound over every resident, and every timing input
        // is frozen while nothing issues), so the candidate scans are
        // skipped outright. The starvation check above still runs every
        // cycle — its deadline is not part of the bound.
        if self.now < self.sched_sleep_until {
            #[cfg(debug_assertions)]
            {
                // Shadow check: the full reference scan must agree that
                // neither queue has an issuable candidate this cycle.
                self.assert_matches_reference_scan(ReqKind::Read, None);
                self.assert_matches_reference_scan(ReqKind::Write, None);
            }
            self.event_bound = self.sched_sleep_until.min(self.bookkeeping_event_cycle());
            return;
        }

        // Read-priority scheduling: writes are served when the read queue
        // is empty, or forced when the write queue crosses its high
        // watermark (reads would otherwise starve the write drain and the
        // requester's store path back-pressures anyway).
        let hi = (self.config.write_queue * 3) / 4;
        self.draining_writes = self.write_q.len() >= hi;
        let serve_writes =
            !self.write_q.is_empty() && (self.draining_writes || self.read_q.is_empty());

        // Opportunistic fallback: if the preferred queue cannot issue any
        // command this cycle, give the other queue the command slot. A
        // failed attempt hands back the queue's issue-event bound from
        // the same per-bank pass (`u64::MAX` for a queue never scanned
        // because it is empty — exactly the bound an explicit scan of an
        // empty index would produce; an enqueue resets the cache).
        let (mut ev_read, mut ev_write) = (u64::MAX, u64::MAX);
        let issued = if serve_writes {
            match self.schedule_queue(ReqKind::Write) {
                None => true,
                Some(w) => {
                    ev_write = w;
                    !self.read_q.is_empty()
                        && match self.schedule_queue(ReqKind::Read) {
                            None => true,
                            Some(r) => {
                                ev_read = r;
                                false
                            }
                        }
                }
            }
        } else if !self.read_q.is_empty() {
            match self.schedule_queue(ReqKind::Read) {
                None => true,
                Some(r) => {
                    ev_read = r;
                    !self.write_q.is_empty()
                        && match self.schedule_queue(ReqKind::Write) {
                            None => true,
                            Some(w) => {
                                ev_write = w;
                                false
                            }
                        }
                }
            }
        } else {
            false
        };
        if !issued {
            // Nothing could issue: sleep until the earliest cycle the
            // timing constraints could admit any command. The bounds fell
            // out of the scheduling scans above, so a non-issuing tick
            // pays one per-bank pass per non-empty queue, not two.
            self.sched_sleep_until = ev_read.min(ev_write);
            self.event_bound = self.sched_sleep_until.min(self.bookkeeping_event_cycle());
        }
    }

    /// Serves only the front (oldest) request of `kind`'s queue: issues its
    /// next needed command as soon as it is legal, bypassing row-hit
    /// priority. Used for starvation recovery.
    fn schedule_front(&mut self, kind: ReqKind) -> bool {
        let queue = match kind {
            ReqKind::Read => &self.read_q,
            ReqKind::Write => &self.write_q,
        };
        let Some(q) = queue.front().copied() else {
            return false;
        };
        let flat = self.flat_bank(&q.coord);
        let needed = match self.banks.state(flat) {
            BankState::Opened(r) if r == q.coord.row => NeededCommand::Cas,
            BankState::Opened(_) => NeededCommand::Precharge,
            BankState::Closed => NeededCommand::Activate,
        };
        let issuable = match needed {
            NeededCommand::Cas => self.cas_issuable(&q),
            NeededCommand::Activate => self.act_issuable(&q),
            NeededCommand::Precharge => self.now >= self.banks.next_pre(flat),
        };
        if !issuable {
            return false;
        }
        self.issue(
            kind,
            Candidate {
                queue_pos: 0,
                needed,
                issuable_now: true,
            },
        );
        true
    }

    /// Handles due refreshes. Returns `true` if this cycle's command slot
    /// was consumed by refresh management.
    ///
    /// Every rank is examined each cycle: a rank stuck waiting on an open
    /// bank's `tRTP`/`tWR` window or on `tRP` must not stall the due
    /// refreshes of the other ranks.
    fn service_refresh(&mut self) -> bool {
        // Between tREFI windows nothing is due and nothing is pending:
        // skip the per-rank/bank scan (it used to run every cycle). The
        // cached deadline is the min over ranks, so the scan resumes on
        // exactly the cycle the first rank's refresh becomes due.
        if self.refresh_pending_count == 0 && self.now < self.refresh_next_due {
            return false;
        }
        let t = self.config.timing;
        let banks_per_rank = self.config.org.banks_per_rank();
        for rank in 0..self.ranks.len() {
            if self.now >= self.ranks[rank].refresh_due && !self.refresh_pending[rank] {
                self.refresh_pending[rank] = true;
                self.refresh_pending_count += 1;
            }
            if !self.refresh_pending[rank] {
                continue;
            }
            let base = rank * banks_per_rank;
            // Precharge the first open bank that may close (one PRE per
            // cycle). If banks are open but none can close yet, let the
            // other ranks use this cycle's command slot.
            let mut any_open = false;
            for b in 0..banks_per_rank {
                let flat = base + b;
                if let BankState::Opened(row) = self.banks.state(flat) {
                    if self.now >= self.banks.next_pre(flat) {
                        self.banks.do_precharge(flat, self.now, &t);
                        self.stats.precharges += 1;
                        self.on_bank_row_change(flat);
                        self.emit(
                            self.now,
                            CommandKind::Pre,
                            DramCoord {
                                channel: 0,
                                rank,
                                bank_group: b / self.config.org.banks_per_group,
                                bank: b % self.config.org.banks_per_group,
                                row,
                                column: 0,
                            },
                        );
                        return true;
                    }
                    any_open = true;
                }
            }
            if any_open {
                continue;
            }
            // All banks closed; wait for tRP to elapse on every bank.
            let ready = (0..banks_per_rank).all(|b| self.now >= self.banks.next_act(base + b));
            if ready {
                self.ranks[rank].record_refresh(self.now, &t);
                let blocked_until = self.now + t.t_rfc;
                for b in 0..banks_per_rank {
                    self.banks.delay_act_until(base + b, blocked_until);
                }
                self.refresh_pending[rank] = false;
                self.refresh_pending_count -= 1;
                self.refresh_next_due = self
                    .ranks
                    .iter()
                    .map(|r| r.refresh_due)
                    .min()
                    .unwrap_or(u64::MAX);
                self.stats.refreshes += 1;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.on_refresh(self.now);
                }
                self.emit(
                    self.now,
                    CommandKind::Ref,
                    DramCoord {
                        channel: 0,
                        rank,
                        bank_group: 0,
                        bank: 0,
                        row: 0,
                        column: 0,
                    },
                );
                return true;
            }
        }
        false
    }

    /// FR-FCFS-PriorHit over the per-bank index. Returns `None` when a
    /// command was issued; otherwise `Some(bound)` — the earliest cycle
    /// any command on behalf of this queue's residents could become
    /// issuable (`u64::MAX` for an empty queue), computed in the same
    /// per-bank pass so a non-issuing `tick` does not rescan via
    /// [`Self::queue_issue_event`].
    ///
    /// Per occupied bank at most two candidates exist — the bank's oldest
    /// open-row hit (CAS) and the bank's oldest resident (ACT on a closed
    /// bank; PRE on an open one, legal only when that oldest resident is
    /// not itself a hit, since a PRE for a younger request must never
    /// close a row an older request still hits). Issuability of each
    /// command kind is uniform across a bank's residents, so the oldest
    /// issuable CAS across banks — else the oldest issuable ACT/PRE — is
    /// exactly the request the full-queue scan used to select (the
    /// debug-build shadow check below re-derives it the old way).
    ///
    /// Each candidate's readiness cycle is the term [`Self::bank_issue_event`]
    /// derives for that bank, and issuability this cycle is exactly
    /// `now >= readiness` plus the refresh vetoes — which the returned
    /// bound deliberately ignores, matching `bank_issue_event` (vetoes
    /// only delay; [`Self::refresh_event`] bounds their expiry).
    fn schedule_queue(&mut self, kind: ReqKind) -> Option<u64> {
        let t = &self.config.timing;
        let is_read = kind == ReqKind::Read;
        let cas_lat = if is_read { t.t_cl } else { t.t_cwl };
        let ix = match kind {
            ReqKind::Read => &self.read_ix,
            ReqKind::Write => &self.write_ix,
        };
        let mut best_cas: Option<u64> = None;
        let mut best_other: Option<(u64, NeededCommand)> = None;
        let mut bound = u64::MAX;
        for &flat in &ix.occupied {
            let &(oldest_seq, _) = ix.by_bank[flat]
                .front()
                .expect("occupied bank has residents");
            let (rank_idx, bg) = self.rank_bg_of(flat);
            let rank = &self.ranks[rank_idx];
            match self.banks.state(flat) {
                BankState::Closed => {
                    let ready = self.banks.next_act(flat).max(rank.act_allowed_at(bg, t));
                    bound = bound.min(ready);
                    if best_other.is_none_or(|(s, _)| oldest_seq < s)
                        && self.now >= ready
                        && !self.refresh_pending[rank_idx]
                    {
                        best_other = Some((oldest_seq, NeededCommand::Activate));
                    }
                }
                BankState::Opened(_) => {
                    let oldest_hit = ix.hits[flat].front().copied();
                    if let Some(h) = oldest_hit {
                        let bank_ready = if is_read {
                            self.banks.next_rd(flat)
                        } else {
                            self.banks.next_wr(flat)
                        };
                        let ready = bank_ready
                            .max(rank.cas_allowed_at(bg, is_read, t))
                            .max(self.bus_free_at.saturating_sub(cas_lat));
                        bound = bound.min(ready);
                        if best_cas.is_none_or(|s| h < s)
                            && self.now >= ready
                            && !(self.refresh_pending[rank_idx]
                                && rank.refresh_overdue(self.now, t, REFRESH_POSTPONE_INTERVALS))
                        {
                            best_cas = Some(h);
                        }
                    }
                    if oldest_hit != Some(oldest_seq) {
                        let ready = self.banks.next_pre(flat);
                        bound = bound.min(ready);
                        if best_other.is_none_or(|(s, _)| oldest_seq < s) && self.now >= ready {
                            best_other = Some((oldest_seq, NeededCommand::Precharge));
                        }
                    }
                }
            }
        }
        let (seq, needed) = match (best_cas, best_other) {
            (Some(s), _) => (s, NeededCommand::Cas),
            (None, Some(o)) => o,
            (None, None) => {
                #[cfg(debug_assertions)]
                self.assert_matches_reference_scan(kind, None);
                debug_assert_eq!(bound, self.queue_issue_event(ix, is_read));
                return Some(bound);
            }
        };
        let queue = match kind {
            ReqKind::Read => &self.read_q,
            ReqKind::Write => &self.write_q,
        };
        let queue_pos = queue
            .binary_search_by_key(&seq, |q| q.seq)
            .expect("indexed request resident in queue");
        let choice = Candidate {
            queue_pos,
            needed,
            issuable_now: true,
        };
        #[cfg(debug_assertions)]
        self.assert_matches_reference_scan(kind, Some(choice));
        self.issue(kind, choice);
        None
    }

    /// Debug-only cross-check: re-derives the scheduling decision with
    /// the original full-queue scan and asserts the indexed selection
    /// matches it exactly. Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn assert_matches_reference_scan(&self, kind: ReqKind, choice: Option<Candidate>) {
        let queue = match kind {
            ReqKind::Read => &self.read_q,
            ReqKind::Write => &self.write_q,
        };
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut older_hit = vec![false; self.banks.len()];
        for (pos, q) in queue.iter().enumerate() {
            let flat = self.flat_bank(&q.coord);
            let needed = match self.banks.state(flat) {
                BankState::Opened(r) if r == q.coord.row => NeededCommand::Cas,
                BankState::Opened(_) => NeededCommand::Precharge,
                BankState::Closed => NeededCommand::Activate,
            };
            let issuable = match needed {
                NeededCommand::Cas => self.cas_issuable(q),
                NeededCommand::Activate => self.act_issuable(q),
                NeededCommand::Precharge => {
                    !older_hit[flat] && self.now >= self.banks.next_pre(flat)
                }
            };
            if needed == NeededCommand::Cas {
                older_hit[flat] = true;
            }
            candidates.push(Candidate {
                queue_pos: pos,
                needed,
                issuable_now: issuable,
            });
        }
        let reference = crate::FrfcfsPriorHit::new().select(&candidates);
        assert_eq!(
            choice.map(|c| (c.queue_pos, c.needed)),
            reference.map(|c| (c.queue_pos, c.needed)),
            "indexed scheduler diverged from reference scan at cycle {}",
            self.now
        );
    }

    /// Serializes the channel's complete dynamic state: bank/rank timing
    /// shadow, refresh bookkeeping, both request queues (with their index
    /// sequence counters), in-flight responses in retirement order, stats,
    /// command log, buffered auto-precharges, live-checker shadow state and
    /// the scheduler sleep cache. Everything config-derived (mapper,
    /// queue capacities, tracer) is rebuilt from the config at restore.
    pub fn save_state(&self, enc: &mut crate::snap::Encoder) {
        self.banks.save_state(enc);
        enc.seq(self.ranks.len());
        for r in &self.ranks {
            enc.u64s(&r.faw_window);
            save_opt_pair(enc, r.last_act);
            save_opt_pair(enc, r.last_cas);
            enc.u64(r.next_rd);
            enc.u64(r.next_wr);
            enc.u64(r.refresh_due);
            enc.u64(r.ready_at);
        }
        enc.seq(self.refresh_pending.len());
        for &p in &self.refresh_pending {
            enc.bool(p);
        }
        enc.u64(self.refresh_next_due);
        enc.usize(self.refresh_pending_count);
        save_queue(enc, &self.read_q);
        enc.u64(self.read_ix.next_seq);
        save_queue(enc, &self.write_q);
        enc.u64(self.write_ix.next_seq);
        // Responses leave in (done_at, seq) order; serializing them in that
        // order lets restore re-assign dense sequence numbers 0..n while
        // preserving the exact tie-breaking the original heap would use.
        let mut heap = self.responses.clone();
        enc.seq(heap.len());
        while let Some(Reverse((_, seq))) = heap.pop() {
            let resp = self.response_data[seq as usize].expect("heap entry has data");
            enc.u64(resp.id);
            enc.u64(resp.addr);
            enc.u8((resp.kind == ReqKind::Write) as u8);
            enc.u64(resp.done_at);
        }
        enc.u64(self.now);
        enc.u64(self.bus_free_at);
        enc.bool(self.draining_writes);
        self.stats.save_state(enc);
        enc.seq(self.command_log.len());
        for r in &self.command_log {
            save_record(enc, r);
        }
        enc.seq(self.pending_autopre.len());
        for r in &self.pending_autopre {
            save_record(enc, r);
        }
        match &self.checker {
            Some(c) => {
                enc.bool(true);
                c.save_state(enc);
            }
            None => enc.bool(false),
        }
        enc.u64(self.sched_sleep_until);
    }

    /// Restores state saved by [`ChannelController::save_state`] onto a
    /// controller freshly built from the *same* config. The per-bank
    /// queue indexes are rebuilt from the restored queues (selection is
    /// min-over-seq, so index-internal ordering is behavior-neutral).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::snap::SnapError`] on truncated or out-of-domain
    /// bytes (including coordinates that don't fit this config's
    /// organization, and structural inconsistencies like unsorted queue
    /// sequence numbers). On error the controller is left unspecified and
    /// must be discarded — no partial restore is ever used.
    pub fn restore_state(
        &mut self,
        dec: &mut crate::snap::Decoder<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        self.banks.restore_state(dec)?;
        let n_ranks = dec.len_capped(1)?;
        if n_ranks != self.ranks.len() {
            return Err(SnapError::BadValue);
        }
        for r in &mut self.ranks {
            let faw = dec.u64s()?;
            if faw.len() > 4 {
                return Err(SnapError::BadValue);
            }
            r.faw_window = faw;
            r.last_act = load_opt_pair(dec)?;
            r.last_cas = load_opt_pair(dec)?;
            r.next_rd = dec.u64()?;
            r.next_wr = dec.u64()?;
            r.refresh_due = dec.u64()?;
            r.ready_at = dec.u64()?;
        }
        let n_rp = dec.len_capped(1)?;
        if n_rp != self.refresh_pending.len() {
            return Err(SnapError::BadValue);
        }
        for p in &mut self.refresh_pending {
            *p = dec.bool()?;
        }
        self.refresh_next_due = dec.u64()?;
        self.refresh_pending_count = dec.usize()?;
        if self.refresh_pending_count > self.ranks.len() {
            return Err(SnapError::BadValue);
        }
        self.read_q = self.load_queue(dec)?;
        let read_next_seq = dec.u64()?;
        self.write_q = self.load_queue(dec)?;
        let write_next_seq = dec.u64()?;
        let nbanks = self.banks.len();
        self.read_ix = QueueIndex::new(nbanks);
        self.read_ix.next_seq = read_next_seq;
        self.write_ix = QueueIndex::new(nbanks);
        self.write_ix.next_seq = write_next_seq;
        for i in 0..self.read_q.len() {
            let q = self.read_q[i];
            if i > 0 && self.read_q[i - 1].seq >= q.seq || q.seq >= read_next_seq {
                return Err(SnapError::BadValue);
            }
            let flat = self.flat_bank(&q.coord);
            let open = self.banks.open_row(flat);
            self.read_ix.reinsert(flat, q.seq, q.coord.row, open);
        }
        for i in 0..self.write_q.len() {
            let q = self.write_q[i];
            if i > 0 && self.write_q[i - 1].seq >= q.seq || q.seq >= write_next_seq {
                return Err(SnapError::BadValue);
            }
            let flat = self.flat_bank(&q.coord);
            let open = self.banks.open_row(flat);
            self.write_ix.reinsert(flat, q.seq, q.coord.row, open);
        }
        let n_resp = dec.len_capped(25)?;
        self.responses = BinaryHeap::new();
        self.response_data = Vec::new();
        self.response_seq = 0;
        for _ in 0..n_resp {
            let id = dec.u64()?;
            let addr = dec.u64()?;
            let kind = match dec.u8()? {
                0 => ReqKind::Read,
                1 => ReqKind::Write,
                _ => return Err(SnapError::BadValue),
            };
            let done_at = dec.u64()?;
            self.push_response(MemResponse {
                id,
                addr,
                kind,
                done_at,
            });
        }
        self.now = dec.u64()?;
        self.bus_free_at = dec.u64()?;
        self.draining_writes = dec.bool()?;
        self.stats.restore_state(dec)?;
        let n_log = dec.len_capped(57)?;
        self.command_log = Vec::with_capacity(n_log);
        for _ in 0..n_log {
            let r = self.load_record(dec)?;
            self.command_log.push(r);
        }
        let n_ap = dec.len_capped(57)?;
        self.pending_autopre = Vec::with_capacity(n_ap);
        for _ in 0..n_ap {
            let r = self.load_record(dec)?;
            self.pending_autopre.push(r);
        }
        if dec.bool()? != self.checker.is_some() {
            return Err(SnapError::BadValue);
        }
        if let Some(c) = self.checker.as_mut() {
            c.restore_state(dec)?;
        }
        self.sched_sleep_until = dec.u64()?;
        // Derived skip-bound cache: re-derive lazily rather than persist.
        self.event_bound = 0;
        Ok(())
    }

    /// Decodes one queue, validating every coordinate against this
    /// config's organization (out-of-range coordinates would panic on
    /// later bank/rank indexing, which corrupt bytes must never do).
    fn load_queue(
        &self,
        dec: &mut crate::snap::Decoder<'_>,
    ) -> Result<VecDeque<Queued>, crate::snap::SnapError> {
        use crate::snap::SnapError;
        let n = dec.len_capped(82)?;
        let mut q = VecDeque::with_capacity(n);
        for _ in 0..n {
            let addr = dec.u64()?;
            let kind = match dec.u8()? {
                0 => ReqKind::Read,
                1 => ReqKind::Write,
                _ => return Err(SnapError::BadValue),
            };
            let id = dec.u64()?;
            let coord = self.load_coord(dec)?;
            q.push_back(Queued {
                req: MemRequest { addr, kind, id },
                coord,
                enq_at: dec.u64()?,
                seq: dec.u64()?,
                classified: dec.bool()?,
            });
        }
        Ok(q)
    }

    /// Decodes a coordinate, rejecting anything outside this config's
    /// organization.
    fn load_coord(
        &self,
        dec: &mut crate::snap::Decoder<'_>,
    ) -> Result<DramCoord, crate::snap::SnapError> {
        let c = DramCoord {
            channel: dec.usize()?,
            rank: dec.usize()?,
            bank_group: dec.usize()?,
            bank: dec.usize()?,
            row: dec.usize()?,
            column: dec.usize()?,
        };
        if c.rank >= self.ranks.len()
            || c.bank_group >= self.config.org.banks_per_rank() / self.config.org.banks_per_group
            || c.bank >= self.config.org.banks_per_group
            || self.flat_bank(&c) >= self.banks.len()
        {
            return Err(crate::snap::SnapError::BadValue);
        }
        Ok(c)
    }

    /// Decodes one command record with coordinate validation.
    fn load_record(
        &self,
        dec: &mut crate::snap::Decoder<'_>,
    ) -> Result<CommandRecord, crate::snap::SnapError> {
        let cycle = dec.u64()?;
        let kind = match dec.u8()? {
            0 => CommandKind::Act,
            1 => CommandKind::Pre,
            2 => CommandKind::Rd,
            3 => CommandKind::Wr,
            4 => CommandKind::Ref,
            _ => return Err(crate::snap::SnapError::BadValue),
        };
        let coord = self.load_coord(dec)?;
        Ok(CommandRecord { cycle, kind, coord })
    }

    fn flat_bank(&self, c: &DramCoord) -> usize {
        c.rank * self.config.org.banks_per_rank()
            + c.bank_group * self.config.org.banks_per_group
            + c.bank
    }

    /// The rank and bank-group indices of flat bank `flat`.
    #[inline]
    fn rank_bg_of(&self, flat: usize) -> (usize, usize) {
        let (r, bg) = self.bank_coord[flat];
        (r as usize, bg as usize)
    }

    /// The row currently open on flat bank `flat`, if any.
    fn open_row(&self, flat: usize) -> Option<usize> {
        self.banks.open_row(flat)
    }

    /// Re-syncs both queues' open-row hit caches after `flat`'s row state
    /// changed (ACT, PRE, auto-precharge, refresh PRE).
    fn on_bank_row_change(&mut self, flat: usize) {
        let open_row = self.open_row(flat);
        self.read_ix.on_row_change(flat, open_row);
        self.write_ix.on_row_change(flat, open_row);
    }

    fn cas_issuable(&self, q: &Queued) -> bool {
        self.cas_issuable_at(self.flat_bank(&q.coord), q.req.is_read())
    }

    /// Whether a CAS may issue this cycle on flat bank `flat` (uniform
    /// for every resident of one queue: they share rank, bank group and
    /// direction).
    fn cas_issuable_at(&self, flat: usize, is_read: bool) -> bool {
        let t = &self.config.timing;
        let (rank_idx, bg) = self.rank_bg_of(flat);
        let rank = &self.ranks[rank_idx];
        // A rank whose pending refresh has exhausted its postpone budget
        // takes no more CAS traffic: every CAS extends `next_pre`
        // (tRTP/write recovery), so a row-hit stream would defer REF
        // forever.
        if self.refresh_pending[rank_idx]
            && rank.refresh_overdue(self.now, t, REFRESH_POSTPONE_INTERVALS)
        {
            return false;
        }
        let bank_ready = if is_read {
            self.now >= self.banks.next_rd(flat)
        } else {
            self.now >= self.banks.next_wr(flat)
        };
        let rank_ready = self.now >= rank.cas_allowed_at(bg, is_read, t);
        let burst_start = self.now + if is_read { t.t_cl } else { t.t_cwl };
        bank_ready && rank_ready && burst_start >= self.bus_free_at
    }

    fn act_issuable(&self, q: &Queued) -> bool {
        self.act_issuable_at(self.flat_bank(&q.coord))
    }

    /// Whether an ACT may issue this cycle on flat bank `flat`.
    fn act_issuable_at(&self, flat: usize) -> bool {
        let t = &self.config.timing;
        let (rank_idx, bg) = self.rank_bg_of(flat);
        !self.refresh_pending[rank_idx]
            && self.now >= self.banks.next_act(flat)
            && self.now >= self.ranks[rank_idx].act_allowed_at(bg, t)
    }

    fn issue(&mut self, kind: ReqKind, choice: Candidate) {
        // Any issued command mutates bank/rank/bus timing state.
        self.sched_sleep_until = 0;
        let t = self.config.timing;
        let queue = match kind {
            ReqKind::Read => &mut self.read_q,
            ReqKind::Write => &mut self.write_q,
        };
        let entry = queue[choice.queue_pos];
        let flat = self.flat_bank(&entry.coord);
        // First command on behalf of this request classifies it.
        if !entry.classified {
            match choice.needed {
                NeededCommand::Cas => self.stats.row_hits += 1,
                NeededCommand::Activate => self.stats.row_misses += 1,
                NeededCommand::Precharge => self.stats.row_conflicts += 1,
            }
            if let Some(t) = self.tracer.as_mut() {
                t.on_classify(flat, choice.needed);
            }
            match kind {
                ReqKind::Read => self.read_q[choice.queue_pos].classified = true,
                ReqKind::Write => self.write_q[choice.queue_pos].classified = true,
            }
        }
        match choice.needed {
            NeededCommand::Precharge => {
                // Log the row being closed, not the requested row.
                let open_row = self.banks.open_row(flat).unwrap_or(entry.coord.row);
                self.banks.do_precharge(flat, self.now, &t);
                self.stats.precharges += 1;
                self.on_bank_row_change(flat);
                self.emit(
                    self.now,
                    CommandKind::Pre,
                    DramCoord {
                        row: open_row,
                        ..entry.coord
                    },
                );
            }
            NeededCommand::Activate => {
                self.banks.do_activate(flat, self.now, entry.coord.row, &t);
                self.ranks[entry.coord.rank].record_act(self.now, entry.coord.bank_group);
                self.stats.activates += 1;
                self.on_bank_row_change(flat);
                self.emit(self.now, CommandKind::Act, entry.coord);
            }
            NeededCommand::Cas => {
                let is_read = entry.req.is_read();
                let cas_lat = if is_read {
                    self.banks.do_read(flat, self.now, &t);
                    t.t_cl
                } else {
                    self.banks.do_write(flat, self.now, &t);
                    t.t_cwl
                };
                self.emit(
                    self.now,
                    if is_read {
                        CommandKind::Rd
                    } else {
                        CommandKind::Wr
                    },
                    entry.coord,
                );
                self.ranks[entry.coord.rank].record_cas(
                    self.now,
                    entry.coord.bank_group,
                    is_read,
                    &t,
                );
                let done_at = self.now + cas_lat + t.t_bl;
                self.bus_free_at = done_at;
                self.stats.bus_busy_cycles += t.t_bl;
                if is_read {
                    self.stats.reads += 1;
                    let latency = done_at - entry.enq_at;
                    self.stats.read_latency_sum += latency;
                    self.stats.read_latency_max = self.stats.read_latency_max.max(latency);
                } else {
                    self.stats.writes += 1;
                }
                self.push_response(MemResponse {
                    id: entry.req.id,
                    addr: entry.req.addr,
                    kind: entry.req.kind,
                    done_at,
                });
                if self.config.row_policy == RowPolicy::ClosedPage {
                    // Auto-precharge (RDA/WRA): takes effect at the
                    // earliest legal precharge time the bank now carries.
                    // The record is buffered until that cycle arrives so
                    // the observable command stream stays monotonic.
                    let pre_at = self.banks.next_pre(flat);
                    self.banks.do_precharge(flat, pre_at, &t);
                    self.stats.precharges += 1;
                    if self.config.log_commands || self.checker.is_some() {
                        self.pending_autopre.push(CommandRecord {
                            cycle: pre_at,
                            kind: CommandKind::Pre,
                            coord: entry.coord,
                        });
                    }
                }
                match kind {
                    ReqKind::Read => {
                        self.read_q.remove(choice.queue_pos);
                        self.read_ix.remove(flat, entry.seq);
                    }
                    ReqKind::Write => {
                        self.write_q.remove(choice.queue_pos);
                        self.write_ix.remove(flat, entry.seq);
                    }
                }
                // The CAS closed the bank under ClosedPage (and the row
                // state seen by the hit caches changed); the retired
                // request itself was already dropped from both indexes.
                if self.config.row_policy == RowPolicy::ClosedPage {
                    self.on_bank_row_change(flat);
                }
            }
        }
    }
}

fn save_opt_pair(enc: &mut crate::snap::Encoder, v: Option<(u64, usize)>) {
    match v {
        Some((a, b)) => {
            enc.bool(true);
            enc.u64(a);
            enc.usize(b);
        }
        None => enc.bool(false),
    }
}

fn load_opt_pair(
    dec: &mut crate::snap::Decoder<'_>,
) -> Result<Option<(u64, usize)>, crate::snap::SnapError> {
    Ok(match dec.bool()? {
        true => Some((dec.u64()?, dec.usize()?)),
        false => None,
    })
}

fn save_coord(enc: &mut crate::snap::Encoder, c: &DramCoord) {
    enc.usize(c.channel);
    enc.usize(c.rank);
    enc.usize(c.bank_group);
    enc.usize(c.bank);
    enc.usize(c.row);
    enc.usize(c.column);
}

fn save_record(enc: &mut crate::snap::Encoder, r: &CommandRecord) {
    enc.u64(r.cycle);
    enc.u8(match r.kind {
        CommandKind::Act => 0,
        CommandKind::Pre => 1,
        CommandKind::Rd => 2,
        CommandKind::Wr => 3,
        CommandKind::Ref => 4,
    });
    save_coord(enc, &r.coord);
}

fn save_queue(enc: &mut crate::snap::Encoder, q: &VecDeque<Queued>) {
    enc.seq(q.len());
    for e in q {
        enc.u64(e.req.addr);
        enc.u8((e.req.kind == ReqKind::Write) as u8);
        enc.u64(e.req.id);
        save_coord(enc, &e.coord);
        enc.u64(e.enq_at);
        enc.u64(e.seq);
        enc.bool(e.classified);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddressMapper;

    fn controller() -> (ChannelController, AddressMapper) {
        let mut cfg = DramConfig::ddr4_2400r();
        cfg.refresh_enabled = false;
        let mapper = AddressMapper::new(cfg.org, cfg.mapping);
        (ChannelController::new(cfg), mapper)
    }

    fn run_until_response(ctrl: &mut ChannelController, max: u64) -> Option<MemResponse> {
        for _ in 0..max {
            ctrl.tick();
            if let Some(r) = ctrl.pop_response() {
                return Some(r);
            }
        }
        None
    }

    #[test]
    fn cold_read_latency_is_rcd_plus_cl_plus_bl() {
        let (mut ctrl, map) = controller();
        assert!(ctrl.try_enqueue(MemRequest::read(0, 1), map.decode(0)));
        let resp = run_until_response(&mut ctrl, 200).unwrap();
        // ACT at cycle 1, RD at 1+tRCD=17, data done 17+tCL+tBL=37.
        assert_eq!(resp.done_at, 37);
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_read_is_faster() {
        let (mut ctrl, map) = controller();
        assert!(ctrl.try_enqueue(MemRequest::read(0, 1), map.decode(0)));
        let first = run_until_response(&mut ctrl, 200).unwrap();
        assert!(ctrl.try_enqueue(MemRequest::read(64, 2), map.decode(64)));
        let second = run_until_response(&mut ctrl, 200).unwrap();
        // Second access hits the open row: latency tCL + tBL only.
        assert_eq!(second.done_at - first.done_at, 16 + 4 + 1);
        assert_eq!(ctrl.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_requires_pre_act() {
        let (mut ctrl, map) = controller();
        // Two reads to the same bank, different rows.
        let row_stride = 64 * 128 * 16; // columns * banks (RoBaRaCoCh: row above bank bits)
        assert!(ctrl.try_enqueue(MemRequest::read(0, 1), map.decode(0)));
        let _ = run_until_response(&mut ctrl, 200).unwrap();
        let addr2 = row_stride as u64;
        let c2 = map.decode(addr2);
        assert_eq!(
            c2.flat_bank(map.organization()),
            map.decode(0).flat_bank(map.organization())
        );
        assert_ne!(c2.row, map.decode(0).row);
        assert!(ctrl.try_enqueue(MemRequest::read(addr2, 2), c2));
        let _ = run_until_response(&mut ctrl, 400).unwrap();
        assert_eq!(ctrl.stats().row_conflicts, 1);
        assert!(ctrl.stats().precharges >= 1);
    }

    #[test]
    fn queue_rejects_when_full() {
        let (mut ctrl, map) = controller();
        for i in 0..32 {
            assert!(ctrl.try_enqueue(
                MemRequest::read((i * 4096) as u64, i as u64),
                map.decode((i * 4096) as u64)
            ));
        }
        assert!(!ctrl.try_enqueue(MemRequest::read(1 << 20, 99), map.decode(1 << 20)));
        assert_eq!(ctrl.stats().queue_full_rejections, 1);
    }

    #[test]
    fn store_to_load_forwarding() {
        let (mut ctrl, map) = controller();
        assert!(ctrl.try_enqueue(MemRequest::write(256, 1), map.decode(256)));
        assert!(ctrl.try_enqueue(MemRequest::read(256, 2), map.decode(256)));
        ctrl.tick();
        let resp = ctrl.pop_response().unwrap();
        assert_eq!(resp.id, 2);
        assert_eq!(resp.done_at, 1);
    }

    #[test]
    fn writes_complete() {
        let (mut ctrl, map) = controller();
        assert!(ctrl.try_enqueue(MemRequest::write(0, 7), map.decode(0)));
        let resp = run_until_response(&mut ctrl, 200).unwrap();
        assert_eq!(resp.kind, ReqKind::Write);
        assert_eq!(ctrl.stats().writes, 1);
    }

    #[test]
    fn streaming_reads_saturate_bus() {
        let (mut ctrl, map) = controller();
        // 64 sequential lines in the same row: after warm-up, one burst per
        // tCCD_S-to-tBL cycles. Feed continuously.
        let mut sent = 0u64;
        let mut got = 0u64;
        let mut cycles = 0u64;
        while got < 64 {
            if sent < 64 {
                let addr = sent * 64;
                if ctrl.try_enqueue(MemRequest::read(addr, sent), map.decode(addr)) {
                    sent += 1;
                }
            }
            ctrl.tick();
            cycles += 1;
            while ctrl.pop_response().is_some() {
                got += 1;
            }
            assert!(cycles < 4000, "deadlock");
        }
        // 64 bursts of 4 cycles = 256 busy cycles; utilization should be
        // high once warm (allow generous margin for the fill phase).
        assert!(cycles < 450, "took {cycles} cycles for 64 streaming reads");
        assert_eq!(ctrl.stats().row_hits, 63);
    }

    #[test]
    fn refresh_eventually_issues() {
        let mut cfg = DramConfig::ddr4_2400r();
        cfg.refresh_enabled = true;
        let map = AddressMapper::new(cfg.org, cfg.mapping);
        let mut ctrl = ChannelController::new(cfg);
        // Idle past one tREFI.
        for _ in 0..11_000 {
            ctrl.tick();
        }
        assert!(ctrl.stats().refreshes >= 1);
        // Requests still complete after refresh.
        assert!(ctrl.try_enqueue(MemRequest::read(0, 1), map.decode(0)));
        assert!(run_until_response(&mut ctrl, 1000).is_some());
    }

    #[test]
    fn refresh_closes_open_rows() {
        let mut cfg = DramConfig::ddr4_2400r();
        cfg.refresh_enabled = true;
        let map = AddressMapper::new(cfg.org, cfg.mapping);
        let mut ctrl = ChannelController::new(cfg);
        assert!(ctrl.try_enqueue(MemRequest::read(0, 1), map.decode(0)));
        let _ = run_until_response(&mut ctrl, 200);
        // Run past refresh; the PRE for the open row counts.
        for _ in 0..11_000 {
            ctrl.tick();
        }
        assert!(ctrl.stats().refreshes >= 1);
        assert!(ctrl.stats().precharges >= 1);
    }

    #[test]
    fn write_drain_hysteresis_prioritizes_writes() {
        let (mut ctrl, map) = controller();
        // Fill write queue to high watermark with same-row writes.
        for i in 0..24u64 {
            assert!(ctrl.try_enqueue(MemRequest::write(i * 64, i), map.decode(i * 64)));
        }
        assert!(ctrl.try_enqueue(MemRequest::read(1 << 22, 100), map.decode(1 << 22)));
        // Drain: writes should start completing before the read finishes its
        // ACT+CAS (writes were enqueued first and drain mode is on).
        let mut first_done: Option<ReqKind> = None;
        for _ in 0..400 {
            ctrl.tick();
            if let Some(r) = ctrl.pop_response() {
                first_done = Some(r.kind);
                break;
            }
        }
        assert_eq!(first_done, Some(ReqKind::Write));
    }

    #[test]
    fn is_idle_reflects_state() {
        let (mut ctrl, map) = controller();
        assert!(ctrl.is_idle());
        ctrl.try_enqueue(MemRequest::read(0, 1), map.decode(0));
        assert!(!ctrl.is_idle());
        let _ = run_until_response(&mut ctrl, 200);
        assert!(ctrl.is_idle());
    }
}
