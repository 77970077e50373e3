use crate::DramTiming;

/// Row-buffer state of a DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows precharged.
    Closed,
    /// The given row is open in the row buffer.
    Opened(usize),
}

/// One DRAM bank: row-buffer state plus the earliest bus cycle at which
/// each command class may next be issued to it.
///
/// Timing is maintained in the "earliest allowed" style: issuing a command
/// pushes forward the earliest-allowed times of the commands it constrains
/// (`ACT→CAS` via `tRCD`, `ACT→PRE` via `tRAS`, `CAS→PRE` via `tRTP`/write
/// recovery, `PRE→ACT` via `tRP`, `ACT→ACT` via `tRC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    /// Current row-buffer state.
    pub state: BankState,
    /// Earliest cycle an ACT may issue.
    pub next_act: u64,
    /// Earliest cycle a RD may issue.
    pub next_rd: u64,
    /// Earliest cycle a WR may issue.
    pub next_wr: u64,
    /// Earliest cycle a PRE may issue.
    pub next_pre: u64,
}

impl Bank {
    /// A freshly precharged bank with no timing debt.
    pub fn new() -> Self {
        Self {
            state: BankState::Closed,
            next_act: 0,
            next_rd: 0,
            next_wr: 0,
            next_pre: 0,
        }
    }

    /// Whether `row` is open in the row buffer.
    pub fn is_open(&self, row: usize) -> bool {
        self.state == BankState::Opened(row)
    }

    /// Applies the timing effects of an ACT issued at `now`.
    pub fn do_activate(&mut self, now: u64, row: usize, t: &DramTiming) {
        debug_assert_eq!(self.state, BankState::Closed, "ACT to open bank");
        debug_assert!(now >= self.next_act, "ACT violates tRC/tRP");
        self.state = BankState::Opened(row);
        self.next_rd = self.next_rd.max(now + t.t_rcd);
        self.next_wr = self.next_wr.max(now + t.t_rcd);
        self.next_pre = self.next_pre.max(now + t.t_ras);
        self.next_act = self.next_act.max(now + t.t_rc);
    }

    /// Applies the timing effects of a PRE issued at `now`.
    pub fn do_precharge(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(now >= self.next_pre, "PRE violates tRAS/tRTP/tWR");
        self.state = BankState::Closed;
        self.next_act = self.next_act.max(now + t.t_rp);
    }

    /// Applies the timing effects of a RD issued at `now`.
    pub fn do_read(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(
            matches!(self.state, BankState::Opened(_)),
            "RD to closed bank"
        );
        debug_assert!(now >= self.next_rd, "RD violates tRCD/tCCD");
        self.next_pre = self.next_pre.max(now + t.t_rtp);
    }

    /// Applies the timing effects of a WR issued at `now`.
    pub fn do_write(&mut self, now: u64, t: &DramTiming) {
        debug_assert!(
            matches!(self.state, BankState::Opened(_)),
            "WR to closed bank"
        );
        debug_assert!(now >= self.next_wr, "WR violates tRCD/tCCD");
        // Write recovery: data lands at now + tCWL + tBL, row must stay open
        // tWR beyond that.
        self.next_pre = self.next_pre.max(now + t.t_cwl + t.t_bl + t.t_wr);
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

/// Struct-of-arrays bank state for one channel.
///
/// The scheduler's per-cycle scans (`queue_issue_event`, FR-FCFS candidate
/// selection, refresh bookkeeping) each touch only one or two timing
/// fields of many banks, so each field lives in its own densely packed
/// array instead of an array of [`Bank`] structs — a scan over 16–64
/// banks then walks one cache line per field instead of one 40-byte
/// struct per bank. Transitions replicate [`Bank`]'s "earliest-allowed"
/// updates exactly; the unit tests drive both layouts with the same
/// command sequences and assert identical state.
#[derive(Debug, Clone)]
pub struct BankArray {
    /// Open row per bank, or [`CLOSED_ROW`] when precharged.
    open_row: Vec<usize>,
    next_act: Vec<u64>,
    next_rd: Vec<u64>,
    next_wr: Vec<u64>,
    next_pre: Vec<u64>,
}

/// Sentinel in [`BankArray::open_row`] marking a precharged bank. Real
/// row indices are bounded by the organization's rows-per-bank and never
/// reach it.
const CLOSED_ROW: usize = usize::MAX;

impl BankArray {
    /// `banks` freshly precharged banks with no timing debt.
    pub fn new(banks: usize) -> Self {
        Self {
            open_row: vec![CLOSED_ROW; banks],
            next_act: vec![0; banks],
            next_rd: vec![0; banks],
            next_wr: vec![0; banks],
            next_pre: vec![0; banks],
        }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// Whether the array holds no banks.
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// Row-buffer state of bank `b`.
    #[inline]
    pub fn state(&self, b: usize) -> BankState {
        match self.open_row[b] {
            CLOSED_ROW => BankState::Closed,
            row => BankState::Opened(row),
        }
    }

    /// The row open on bank `b`, if any.
    #[inline]
    pub fn open_row(&self, b: usize) -> Option<usize> {
        match self.open_row[b] {
            CLOSED_ROW => None,
            row => Some(row),
        }
    }

    /// Earliest cycle an ACT may issue to bank `b`.
    #[inline]
    pub fn next_act(&self, b: usize) -> u64 {
        self.next_act[b]
    }

    /// Earliest cycle a RD may issue to bank `b`.
    #[inline]
    pub fn next_rd(&self, b: usize) -> u64 {
        self.next_rd[b]
    }

    /// Earliest cycle a WR may issue to bank `b`.
    #[inline]
    pub fn next_wr(&self, b: usize) -> u64 {
        self.next_wr[b]
    }

    /// Earliest cycle a PRE may issue to bank `b`.
    #[inline]
    pub fn next_pre(&self, b: usize) -> u64 {
        self.next_pre[b]
    }

    /// Pushes bank `b`'s earliest-allowed ACT out to at least `cycle`
    /// (refresh `tRFC` blackout).
    pub fn delay_act_until(&mut self, b: usize, cycle: u64) {
        self.next_act[b] = self.next_act[b].max(cycle);
    }

    /// Applies the timing effects of an ACT issued at `now` to bank `b`.
    pub fn do_activate(&mut self, b: usize, now: u64, row: usize, t: &DramTiming) {
        debug_assert_eq!(self.open_row[b], CLOSED_ROW, "ACT to open bank");
        debug_assert!(now >= self.next_act[b], "ACT violates tRC/tRP");
        debug_assert_ne!(row, CLOSED_ROW);
        self.open_row[b] = row;
        self.next_rd[b] = self.next_rd[b].max(now + t.t_rcd);
        self.next_wr[b] = self.next_wr[b].max(now + t.t_rcd);
        self.next_pre[b] = self.next_pre[b].max(now + t.t_ras);
        self.next_act[b] = self.next_act[b].max(now + t.t_rc);
    }

    /// Applies the timing effects of a PRE issued at `now` to bank `b`.
    pub fn do_precharge(&mut self, b: usize, now: u64, t: &DramTiming) {
        debug_assert!(now >= self.next_pre[b], "PRE violates tRAS/tRTP/tWR");
        self.open_row[b] = CLOSED_ROW;
        self.next_act[b] = self.next_act[b].max(now + t.t_rp);
    }

    /// Applies the timing effects of a RD issued at `now` to bank `b`.
    pub fn do_read(&mut self, b: usize, now: u64, t: &DramTiming) {
        debug_assert_ne!(self.open_row[b], CLOSED_ROW, "RD to closed bank");
        debug_assert!(now >= self.next_rd[b], "RD violates tRCD/tCCD");
        self.next_pre[b] = self.next_pre[b].max(now + t.t_rtp);
    }

    /// Applies the timing effects of a WR issued at `now` to bank `b`.
    pub fn do_write(&mut self, b: usize, now: u64, t: &DramTiming) {
        debug_assert_ne!(self.open_row[b], CLOSED_ROW, "WR to closed bank");
        debug_assert!(now >= self.next_wr[b], "WR violates tRCD/tCCD");
        self.next_pre[b] = self.next_pre[b].max(now + t.t_cwl + t.t_bl + t.t_wr);
    }
}

// Every array keeps the organization's bank count.
crate::snap_fields!(BankArray {
    open_row: fixed,
    next_act: fixed,
    next_rd: fixed,
    next_wr: fixed,
    next_pre: fixed,
});

/// Per-rank shared timing state: `tRRD`/`tFAW` activation throttling,
/// CAS-to-CAS (`tCCD`) spacing, write-to-read turnaround and refresh
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct RankState {
    /// Issue cycles of the last four ACTs (for `tFAW`).
    pub faw_window: Vec<u64>,
    /// Time and bank group of the last ACT (for `tRRD_S/L`).
    pub last_act: Option<(u64, usize)>,
    /// Time and bank group of the last CAS (for `tCCD_S/L`).
    pub last_cas: Option<(u64, usize)>,
    /// Earliest cycle a RD may issue (write-to-read turnaround).
    pub next_rd: u64,
    /// Earliest cycle a WR may issue (read-to-write turnaround).
    pub next_wr: u64,
    /// Cycle at which the next refresh becomes due.
    pub refresh_due: u64,
    /// Earliest cycle any command may issue (set while refreshing).
    pub ready_at: u64,
}

impl RankState {
    /// Fresh rank state with the first refresh due after one `tREFI`.
    pub fn new(t: &DramTiming) -> Self {
        Self {
            faw_window: Vec::with_capacity(4),
            last_act: None,
            last_cas: None,
            next_rd: 0,
            next_wr: 0,
            refresh_due: t.t_refi,
            ready_at: 0,
        }
    }

    /// Earliest cycle an ACT to `bank_group` may issue under
    /// `tRRD`/`tFAW`/refresh constraints (bank-level constraints excluded).
    pub fn act_allowed_at(&self, bank_group: usize, t: &DramTiming) -> u64 {
        let mut at = self.ready_at;
        if let Some((when, bg)) = self.last_act {
            let gap = if bg == bank_group {
                t.t_rrd_l
            } else {
                t.t_rrd_s
            };
            at = at.max(when + gap);
        }
        if self.faw_window.len() == 4 {
            at = at.max(self.faw_window[0] + t.t_faw);
        }
        at
    }

    /// Earliest cycle a CAS (RD/WR) to `bank_group` may issue under
    /// `tCCD`/turnaround/refresh constraints.
    pub fn cas_allowed_at(&self, bank_group: usize, is_read: bool, t: &DramTiming) -> u64 {
        let mut at = self
            .ready_at
            .max(if is_read { self.next_rd } else { self.next_wr });
        if let Some((when, bg)) = self.last_cas {
            let gap = if bg == bank_group {
                t.t_ccd_l
            } else {
                t.t_ccd_s
            };
            at = at.max(when + gap);
        }
        at
    }

    /// Records an ACT issued at `now` to `bank_group`.
    pub fn record_act(&mut self, now: u64, bank_group: usize) {
        if self.faw_window.len() == 4 {
            self.faw_window.remove(0);
        }
        self.faw_window.push(now);
        self.last_act = Some((now, bank_group));
    }

    /// Records a CAS issued at `now` to `bank_group`.
    pub fn record_cas(&mut self, now: u64, bank_group: usize, is_read: bool, t: &DramTiming) {
        self.last_cas = Some((now, bank_group));
        if is_read {
            // Read-to-write turnaround: the write burst must not collide
            // with the read burst on the shared bus.
            let rtw = (t.t_cl + t.t_bl + 2).saturating_sub(t.t_cwl);
            self.next_wr = self.next_wr.max(now + rtw);
        } else {
            // Write-to-read turnaround (tWTR after the write data lands).
            self.next_rd = self.next_rd.max(now + t.t_cwl + t.t_bl + t.t_wtr);
        }
    }

    /// Records a refresh starting at `now`; the rank is blocked for `tRFC`.
    pub fn record_refresh(&mut self, now: u64, t: &DramTiming) {
        self.ready_at = now + t.t_rfc;
        self.refresh_due += t.t_refi;
    }

    /// Whether the pending refresh (due at [`RankState::refresh_due`]) has
    /// been postponed by at least `intervals` refresh intervals at `now`.
    ///
    /// The channel controller uses this to stop feeding CAS traffic to a
    /// rank whose refresh has exhausted its postpone budget — otherwise a
    /// row-hit stream keeps extending `next_pre` and defers REF forever.
    pub fn refresh_overdue(&self, now: u64, t: &DramTiming, intervals: u64) -> bool {
        now >= self.refresh_due + intervals * t.t_refi
    }

    /// Post-load check: the `tFAW` window holds at most four ACTs.
    fn restored(&mut self) -> Result<(), crate::snap::SnapError> {
        if self.faw_window.len() > 4 {
            return Err(crate::snap::SnapError::BadValue);
        }
        Ok(())
    }
}

crate::snap_fields!(RankState {
    faw_window,
    last_act,
    last_cas,
    next_rd,
    next_wr,
    refresh_due,
    ready_at,
} after restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr4_2400r()
    }

    #[test]
    fn activate_sets_rcd_ras_rc() {
        let mut b = Bank::new();
        b.do_activate(100, 7, &t());
        assert!(b.is_open(7));
        assert_eq!(b.next_rd, 100 + 16);
        assert_eq!(b.next_pre, 100 + 39);
        assert_eq!(b.next_act, 100 + 55);
    }

    #[test]
    fn precharge_sets_rp() {
        let mut b = Bank::new();
        b.do_activate(0, 3, &t());
        b.do_precharge(39, &t());
        assert_eq!(b.state, BankState::Closed);
        assert_eq!(b.next_act, 55); // tRC dominates tRAS + tRP here
    }

    #[test]
    fn read_extends_pre_window() {
        let mut b = Bank::new();
        b.do_activate(0, 1, &t());
        b.do_read(40, &t());
        assert_eq!(b.next_pre, 49); // 40 + tRTP=9 > tRAS=39
    }

    #[test]
    fn write_recovery_extends_pre() {
        let mut b = Bank::new();
        b.do_activate(0, 1, &t());
        b.do_write(16, &t());
        // 16 + tCWL(12) + tBL(4) + tWR(18) = 50
        assert_eq!(b.next_pre, 50);
    }

    #[test]
    fn rrd_same_group_is_longer() {
        let mut r = RankState::new(&t());
        r.record_act(100, 2);
        assert_eq!(r.act_allowed_at(2, &t()), 106); // tRRD_L
        assert_eq!(r.act_allowed_at(1, &t()), 104); // tRRD_S
    }

    #[test]
    fn faw_limits_fifth_activate() {
        let mut r = RankState::new(&t());
        for (i, cyc) in [0u64, 4, 8, 12].iter().enumerate() {
            r.record_act(*cyc, i % 4);
        }
        // Fifth ACT must wait until first + tFAW = 26.
        assert_eq!(r.act_allowed_at(0, &t()).max(12 + 4), 26);
    }

    #[test]
    fn ccd_same_group_is_longer() {
        let mut r = RankState::new(&t());
        r.record_cas(50, 1, true, &t());
        assert_eq!(r.cas_allowed_at(1, true, &t()), 56); // tCCD_L
        assert_eq!(r.cas_allowed_at(0, true, &t()), 54); // tCCD_S
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut r = RankState::new(&t());
        r.record_cas(10, 0, false, &t());
        // 10 + tCWL(12) + tBL(4) + tWTR(9) = 35
        assert_eq!(r.cas_allowed_at(0, true, &t()).max(10 + 6), 35);
    }

    /// Drives a [`Bank`] array and a [`BankArray`] with the same legal
    /// command sequence and asserts every field stays identical — the SoA
    /// layout must be a pure re-arrangement of the reference struct.
    #[test]
    fn bank_array_matches_struct_layout() {
        let timing = t();
        let nbanks = 8;
        let mut aos: Vec<Bank> = vec![Bank::new(); nbanks];
        let mut soa = BankArray::new(nbanks);
        // Deterministic LCG; no external RNG in this crate.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut now = 0u64;
        for _ in 0..2000 {
            let b = rng() % nbanks;
            now += (rng() % 4) as u64;
            match aos[b].state {
                BankState::Closed => {
                    let row = rng() % 4096;
                    let at = now.max(aos[b].next_act);
                    aos[b].do_activate(at, row, &timing);
                    soa.do_activate(b, at, row, &timing);
                    now = at;
                }
                BankState::Opened(_) => match rng() % 4 {
                    0 => {
                        let at = now.max(aos[b].next_pre);
                        aos[b].do_precharge(at, &timing);
                        soa.do_precharge(b, at, &timing);
                        now = at;
                    }
                    1 => {
                        let at = now.max(aos[b].next_wr);
                        aos[b].do_write(at, &timing);
                        soa.do_write(b, at, &timing);
                        now = at;
                    }
                    2 => {
                        let until = now + (rng() % 400) as u64;
                        aos[b].next_act = aos[b].next_act.max(until);
                        soa.delay_act_until(b, until);
                    }
                    _ => {
                        let at = now.max(aos[b].next_rd);
                        aos[b].do_read(at, &timing);
                        soa.do_read(b, at, &timing);
                        now = at;
                    }
                },
            }
            for (i, bank) in aos.iter().enumerate() {
                assert_eq!(soa.state(i), bank.state, "bank {i} state");
                assert_eq!(soa.next_act(i), bank.next_act, "bank {i} next_act");
                assert_eq!(soa.next_rd(i), bank.next_rd, "bank {i} next_rd");
                assert_eq!(soa.next_wr(i), bank.next_wr, "bank {i} next_wr");
                assert_eq!(soa.next_pre(i), bank.next_pre, "bank {i} next_pre");
            }
        }
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut r = RankState::new(&t());
        let due = r.refresh_due;
        r.record_refresh(due, &t());
        assert_eq!(r.ready_at, due + 313);
        assert_eq!(r.refresh_due, 2 * due);
        assert!(r.act_allowed_at(0, &t()) >= due + 313);
    }
}
