//! Independent DDR4 protocol checker.
//!
//! [`ProtocolChecker`] consumes the issued command stream of **one
//! channel** — live (behind [`crate::DramConfig::check_protocol`]) or
//! offline (from [`crate::ChannelController::command_log`]) — and
//! re-derives every JEDEC constraint from scratch with its own shadow
//! state. It deliberately shares **no** code with the controller's
//! "earliest-allowed" bookkeeping in [`crate::Bank`] (`bank.rs`): the
//! controller decides issuability from the same state its debug asserts
//! check, so a forgotten constraint there is self-certifying. The checker
//! exists to break that circularity.
//!
//! Checked rules:
//!
//! * **per bank** — `tRCD` (ACT→CAS), `tRAS` (ACT→PRE), `tRP` (PRE→ACT),
//!   `tRC` (ACT→ACT), `tRTP` (RD→PRE), write recovery
//!   (`tCWL + tBL + tWR`, WR→PRE);
//! * **per rank** — `tRRD_S/L` and `tFAW` activation throttling,
//!   `tCCD_S/L` CAS spacing, `tWTR` write-to-read turnaround, `tRFC`
//!   (no command to a refreshing rank, REF→REF spacing);
//! * **data bus** — RD/WR burst windows (`issue + tCL/tCWL` for `tBL`
//!   cycles) must never overlap, including across ranks;
//! * **state machine** — no ACT to an open bank, no CAS to a closed bank
//!   or a mismatching row, no REF with an open bank, cycle-monotonic
//!   command streams;
//! * **liveness** — every due refresh is serviced within the JEDEC
//!   postpone budget ([`REFRESH_DEADLINE_INTERVALS`]`×tREFI`), and — in
//!   live mode, where the controller reports queue ages — every request
//!   retires within [`ProtocolChecker::request_age_bound`] cycles.
//!
//! Unlike [`crate::validate_trace`] (which post-processes a finished
//! trace), the checker is incremental: the controller feeds it one
//! command at a time, so a violation aborts the simulation at the cycle
//! it happens with the full constraint name in the panic message.

use crate::command::{CommandKind, CommandRecord};
use crate::{DramConfig, DramTiming};

/// A refresh must be serviced within this many `tREFI` of becoming due
/// (JEDEC DDR4 allows postponing at most 8 `tREFI`; the deadline for the
/// pending refresh is therefore 9 intervals after the previous one).
pub const REFRESH_DEADLINE_INTERVALS: u64 = 9;

/// A detected protocol or liveness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Violated rule (e.g. `"tRCD"`, `"bus-collision"`,
    /// `"refresh-starvation"`).
    pub rule: &'static str,
    /// Bus cycle at which the violation was detected.
    pub cycle: u64,
    /// Human-readable context (command indices, required vs observed
    /// separations, coordinates).
    pub message: String,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at cycle {}: {}", self.rule, self.cycle, self.message)
    }
}

impl std::error::Error for ProtocolViolation {}

/// Shadow row-buffer and command-history state of one bank.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowBank {
    open_row: Option<usize>,
    last_act: Option<u64>,
    last_pre: Option<u64>,
    last_rd: Option<u64>,
    last_wr: Option<u64>,
}

/// Shadow per-rank state: activation window, CAS history and refresh
/// bookkeeping.
#[derive(Debug, Clone, Default)]
struct ShadowRank {
    /// Up to the last four ACTs: `(cycle, flat_bank, bank_group)`.
    acts: Vec<(u64, usize, usize)>,
    /// Last CAS: `(cycle, bank_group)`.
    last_cas: Option<(u64, usize)>,
    /// Last WR CAS cycle (for `tWTR`).
    last_wr_cas: Option<u64>,
    /// Refreshes observed so far.
    refs_done: u64,
    /// Last REF cycle (for REF→REF `tRFC` spacing).
    last_ref: Option<u64>,
    /// Rank is busy refreshing until this cycle.
    ref_busy_until: u64,
}

impl ShadowRank {
    /// Post-load check: the activation window holds at most four ACTs.
    fn restored(&mut self) -> Result<(), crate::snap::SnapError> {
        if self.acts.len() > 4 {
            return Err(crate::snap::SnapError::BadValue);
        }
        Ok(())
    }
}

crate::snap_fields!(ShadowBank {
    open_row,
    last_act,
    last_pre,
    last_rd,
    last_wr,
});

crate::snap_fields!(ShadowRank {
    acts,
    last_cas,
    last_wr_cas,
    refs_done,
    last_ref,
    ref_busy_until,
} after restored);

/// Incremental shadow-state checker for one channel's command stream.
///
/// Construct with [`ProtocolChecker::new`], then feed every command in
/// issue order to [`ProtocolChecker::observe`]; call
/// [`ProtocolChecker::advance`] on idle cycles so refresh deadlines are
/// still enforced, and [`ProtocolChecker::finish`] at end of simulation.
/// For recorded traces, [`ProtocolChecker::check_trace`] does all of the
/// above in one call.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    t: DramTiming,
    banks_per_rank: usize,
    banks_per_group: usize,
    refresh_enabled: bool,
    request_age_bound: u64,
    banks: Vec<ShadowBank>,
    ranks: Vec<ShadowRank>,
    /// End (exclusive) of the last data burst on the channel bus.
    bus_busy_until: u64,
    /// Start of the last data burst (bursts must also start in order).
    last_burst_start: u64,
    last_cycle: u64,
    /// Commands observed so far (used in violation messages).
    observed: usize,
}

// The config-derived constants come from the freshly built checker.
crate::snap_fields!(ProtocolChecker {
    banks: fixed,
    ranks: fixed,
    bus_busy_until,
    last_burst_start,
    last_cycle,
    observed,
});

impl ProtocolChecker {
    /// Creates a checker for one channel of `config`, with fresh shadow
    /// state (all banks precharged, first refresh due after one `tREFI`).
    pub fn new(config: &DramConfig) -> Self {
        let t = config.timing;
        let queue_depth = (config.read_queue + config.write_queue) as u64;
        Self {
            t,
            banks_per_rank: config.org.banks_per_rank(),
            banks_per_group: config.org.banks_per_group,
            refresh_enabled: config.refresh_enabled,
            // Worst case: every queued predecessor pays a full row cycle,
            // plus a refresh catch-up burst after a postponed refresh.
            request_age_bound: queue_depth * (t.t_rc + t.t_bl)
                + 2 * t.t_refi
                + (REFRESH_DEADLINE_INTERVALS + 1) * t.t_rfc,
            banks: vec![ShadowBank::default(); config.org.ranks * config.org.banks_per_rank()],
            ranks: vec![ShadowRank::default(); config.org.ranks],
            bus_busy_until: 0,
            last_burst_start: 0,
            last_cycle: 0,
            observed: 0,
        }
    }

    /// Cycles within which every request must retire (see `liveness` in
    /// the module docs). Derived from queue depths and refresh timing.
    pub fn request_age_bound(&self) -> u64 {
        self.request_age_bound
    }

    /// Checks the age of an outstanding request against
    /// [`Self::request_age_bound`].
    ///
    /// # Errors
    ///
    /// Returns a `request-starvation` violation when the bound is
    /// exceeded.
    pub fn check_request_age(&self, enq_at: u64, now: u64) -> Result<(), ProtocolViolation> {
        let age = now.saturating_sub(enq_at);
        if age > self.request_age_bound {
            return Err(ProtocolViolation {
                rule: "request-starvation",
                cycle: now,
                message: format!(
                    "request enqueued at cycle {enq_at} still outstanding after {age} cycles \
                     (bound {})",
                    self.request_age_bound
                ),
            });
        }
        Ok(())
    }

    /// Verifies time-based liveness up to `now` without observing a
    /// command: every rank's pending refresh must still be within its
    /// postpone deadline.
    ///
    /// # Errors
    ///
    /// Returns a `refresh-starvation` violation when a rank's refresh is
    /// overdue past [`REFRESH_DEADLINE_INTERVALS`]`×tREFI`.
    pub fn advance(&self, now: u64) -> Result<(), ProtocolViolation> {
        if !self.refresh_enabled {
            return Ok(());
        }
        for (rank, r) in self.ranks.iter().enumerate() {
            let due = (r.refs_done + 1) * self.t.t_refi;
            let deadline = due + REFRESH_DEADLINE_INTERVALS * self.t.t_refi;
            if now > deadline {
                return Err(ProtocolViolation {
                    rule: "refresh-starvation",
                    cycle: now,
                    message: format!(
                        "rank {rank} refresh #{} due at cycle {due} not serviced by its \
                         deadline {deadline} ({REFRESH_DEADLINE_INTERVALS}x tREFI postpone limit)",
                        r.refs_done + 1
                    ),
                });
            }
        }
        Ok(())
    }

    /// End-of-simulation hook: runs the liveness checks at `now`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::advance`].
    pub fn finish(&self, now: u64) -> Result<(), ProtocolViolation> {
        self.advance(now)
    }

    fn viol(
        &self,
        rule: &'static str,
        cycle: u64,
        message: String,
    ) -> Result<(), ProtocolViolation> {
        Err(ProtocolViolation {
            rule,
            cycle,
            message: format!("command #{}: {message}", self.observed),
        })
    }

    fn gap(
        &self,
        rule: &'static str,
        earlier: Option<u64>,
        cycle: u64,
        required: u64,
    ) -> Result<(), ProtocolViolation> {
        if let Some(when) = earlier {
            if cycle < when + required {
                return self.viol(
                    rule,
                    cycle,
                    format!(
                        "need {required} cycles after cycle {when}, got {}",
                        cycle - when
                    ),
                );
            }
        }
        Ok(())
    }

    /// Observes one issued command, updating shadow state and checking
    /// every constraint it participates in.
    ///
    /// # Errors
    ///
    /// Returns the violated rule; the checker state is then unspecified
    /// (one violation is terminal — the simulation is wrong).
    pub fn observe(&mut self, cmd: &CommandRecord) -> Result<(), ProtocolViolation> {
        if cmd.cycle < self.last_cycle {
            return self.viol(
                "non-monotonic-trace",
                cmd.cycle,
                format!(
                    "command issued at cycle {} after cycle {}",
                    cmd.cycle, self.last_cycle
                ),
            );
        }
        self.last_cycle = cmd.cycle;
        self.advance(cmd.cycle)?;

        let t = self.t;
        let rank = cmd.coord.rank;
        let flat = rank * self.banks_per_rank
            + cmd.coord.bank_group * self.banks_per_group
            + cmd.coord.bank;
        // REF targets a rank; every other command targets a bank and must
        // not land inside the rank's tRFC window.
        if cmd.kind != CommandKind::Ref && cmd.cycle < self.ranks[rank].ref_busy_until {
            return self.viol(
                "tRFC",
                cmd.cycle,
                format!(
                    "{:?} to rank {rank} while refreshing until cycle {}",
                    cmd.kind, self.ranks[rank].ref_busy_until
                ),
            );
        }
        match cmd.kind {
            CommandKind::Act => {
                let b = self.banks[flat];
                if let Some(row) = b.open_row {
                    return self.viol(
                        "ACT-on-open-bank",
                        cmd.cycle,
                        format!("bank {flat} already has row {row} open"),
                    );
                }
                self.gap("tRC", b.last_act, cmd.cycle, t.t_rc)?;
                self.gap("tRP", b.last_pre, cmd.cycle, t.t_rp)?;
                for &(when, other_flat, bg) in self.ranks[rank].acts.iter().rev() {
                    if other_flat == flat {
                        continue; // same bank is governed by tRC
                    }
                    let (rule, required) = if bg == cmd.coord.bank_group {
                        ("tRRD_L", t.t_rrd_l)
                    } else {
                        ("tRRD_S", t.t_rrd_s)
                    };
                    self.gap(rule, Some(when), cmd.cycle, required)?;
                }
                if self.ranks[rank].acts.len() == 4 {
                    self.gap("tFAW", Some(self.ranks[rank].acts[0].0), cmd.cycle, t.t_faw)?;
                }
                self.banks[flat].open_row = Some(cmd.coord.row);
                self.banks[flat].last_act = Some(cmd.cycle);
                let r = &mut self.ranks[rank];
                if r.acts.len() == 4 {
                    r.acts.remove(0);
                }
                r.acts.push((cmd.cycle, flat, cmd.coord.bank_group));
            }
            CommandKind::Pre => {
                let b = self.banks[flat];
                if b.open_row.is_some() {
                    self.gap("tRAS", b.last_act, cmd.cycle, t.t_ras)?;
                    self.gap("tRTP", b.last_rd, cmd.cycle, t.t_rtp)?;
                    self.gap("tWR", b.last_wr, cmd.cycle, t.t_cwl + t.t_bl + t.t_wr)?;
                }
                // PRE to an already-precharged bank is a JEDEC no-op.
                self.banks[flat].open_row = None;
                self.banks[flat].last_pre = Some(cmd.cycle);
            }
            CommandKind::Rd | CommandKind::Wr => {
                let is_read = cmd.kind == CommandKind::Rd;
                let b = self.banks[flat];
                match b.open_row {
                    None => {
                        return self.viol(
                            "CAS-on-closed-bank",
                            cmd.cycle,
                            format!("{:?} to precharged bank {flat}", cmd.kind),
                        );
                    }
                    Some(row) if row != cmd.coord.row => {
                        return self.viol(
                            "CAS-row-mismatch",
                            cmd.cycle,
                            format!(
                                "{:?} to row {} but bank {flat} has row {row} open",
                                cmd.kind, cmd.coord.row
                            ),
                        );
                    }
                    _ => {}
                }
                self.gap("tRCD", b.last_act, cmd.cycle, t.t_rcd)?;
                if let Some((when, bg)) = self.ranks[rank].last_cas {
                    let (rule, required) = if bg == cmd.coord.bank_group {
                        ("tCCD_L", t.t_ccd_l)
                    } else {
                        ("tCCD_S", t.t_ccd_s)
                    };
                    self.gap(rule, Some(when), cmd.cycle, required)?;
                }
                if is_read {
                    self.gap(
                        "tWTR",
                        self.ranks[rank].last_wr_cas,
                        cmd.cycle,
                        t.t_cwl + t.t_bl + t.t_wtr,
                    )?;
                }
                // Data-bus occupancy: the burst must start at or after the
                // end of the previous burst, whatever rank issued it.
                let start = cmd.cycle + if is_read { t.t_cl } else { t.t_cwl };
                if start < self.bus_busy_until || start < self.last_burst_start {
                    return self.viol(
                        "bus-collision",
                        cmd.cycle,
                        format!(
                            "burst [{start}, {}) overlaps bus busy until {} \
                             (previous burst started at {})",
                            start + t.t_bl,
                            self.bus_busy_until,
                            self.last_burst_start
                        ),
                    );
                }
                self.last_burst_start = start;
                self.bus_busy_until = start + t.t_bl;
                if is_read {
                    self.banks[flat].last_rd = Some(cmd.cycle);
                } else {
                    self.banks[flat].last_wr = Some(cmd.cycle);
                    self.ranks[rank].last_wr_cas = Some(cmd.cycle);
                }
                self.ranks[rank].last_cas = Some((cmd.cycle, cmd.coord.bank_group));
            }
            CommandKind::Ref => {
                let base = rank * self.banks_per_rank;
                for b in 0..self.banks_per_rank {
                    if let Some(row) = self.banks[base + b].open_row {
                        return self.viol(
                            "REF-with-open-bank",
                            cmd.cycle,
                            format!("rank {rank} bank {b} still has row {row} open"),
                        );
                    }
                }
                let last_ref = self.ranks[rank].last_ref;
                self.gap("tRFC", last_ref, cmd.cycle, t.t_rfc)?;
                let r = &mut self.ranks[rank];
                r.refs_done += 1;
                r.last_ref = Some(cmd.cycle);
                r.ref_busy_until = cmd.cycle + t.t_rfc;
            }
        }
        self.observed += 1;
        Ok(())
    }

    /// Validates a complete recorded command stream of one channel,
    /// including refresh-deadline liveness between commands.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_trace(
        trace: &[CommandRecord],
        config: &DramConfig,
    ) -> Result<(), ProtocolViolation> {
        let mut checker = Self::new(config);
        for cmd in trace {
            checker.observe(cmd)?;
        }
        checker.finish(trace.last().map_or(0, |c| c.cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramCoord;

    fn cfg() -> DramConfig {
        let mut c = DramConfig::ddr4_2400r();
        c.refresh_enabled = false;
        c
    }

    fn coord(bank: usize, row: usize, column: usize) -> DramCoord {
        DramCoord {
            channel: 0,
            rank: 0,
            bank_group: bank / 4,
            bank: bank % 4,
            row,
            column,
        }
    }

    fn cmd(cycle: u64, kind: CommandKind, c: DramCoord) -> CommandRecord {
        CommandRecord {
            cycle,
            kind,
            coord: c,
        }
    }

    #[test]
    fn legal_sequence_passes() {
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(16, CommandKind::Rd, coord(0, 5, 0)),
            cmd(22, CommandKind::Rd, coord(0, 5, 1)),
            cmd(61, CommandKind::Pre, coord(0, 5, 0)),
            cmd(77, CommandKind::Act, coord(0, 6, 0)),
        ];
        ProtocolChecker::check_trace(&trace, &cfg()).expect("legal");
    }

    #[test]
    fn non_monotonic_trace_is_rejected() {
        let trace = vec![
            cmd(20, CommandKind::Act, coord(0, 5, 0)),
            cmd(10, CommandKind::Act, coord(1, 5, 0)),
        ];
        let v = ProtocolChecker::check_trace(&trace, &cfg()).unwrap_err();
        assert_eq!(v.rule, "non-monotonic-trace");
    }

    #[test]
    fn bus_collision_across_ranks_is_detected() {
        // Two reads on different ranks 2 cycles apart: tCCD does not apply
        // (per-rank), but the data bursts overlap on the shared bus.
        let mut c = cfg();
        c.org.ranks = 2;
        let r1 = DramCoord {
            rank: 1,
            ..coord(0, 5, 0)
        };
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(1, CommandKind::Act, r1),
            cmd(17, CommandKind::Rd, coord(0, 5, 0)),
            cmd(19, CommandKind::Rd, r1),
        ];
        let v = ProtocolChecker::check_trace(&trace, &c).unwrap_err();
        assert_eq!(v.rule, "bus-collision");
    }

    #[test]
    fn command_during_trfc_is_detected() {
        let mut c = cfg();
        c.refresh_enabled = true;
        let t = c.timing;
        let trace = vec![
            cmd(t.t_refi, CommandKind::Ref, coord(0, 0, 0)),
            cmd(t.t_refi + 10, CommandKind::Act, coord(0, 5, 0)),
        ];
        let v = ProtocolChecker::check_trace(&trace, &c).unwrap_err();
        assert_eq!(v.rule, "tRFC");
    }

    #[test]
    fn back_to_back_refreshes_violate_trfc() {
        let mut c = cfg();
        c.refresh_enabled = true;
        let t = c.timing;
        let trace = vec![
            cmd(t.t_refi, CommandKind::Ref, coord(0, 0, 0)),
            cmd(t.t_refi + 1, CommandKind::Ref, coord(0, 0, 0)),
        ];
        let v = ProtocolChecker::check_trace(&trace, &c).unwrap_err();
        assert_eq!(v.rule, "tRFC");
    }

    #[test]
    fn refresh_with_open_bank_is_detected() {
        let mut c = cfg();
        c.refresh_enabled = true;
        let t = c.timing;
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(t.t_refi, CommandKind::Ref, coord(0, 0, 0)),
        ];
        let v = ProtocolChecker::check_trace(&trace, &c).unwrap_err();
        assert_eq!(v.rule, "REF-with-open-bank");
    }

    #[test]
    fn overdue_refresh_is_starvation() {
        let mut c = cfg();
        c.refresh_enabled = true;
        let t = c.timing;
        // A command far past the first refresh deadline with no REF seen.
        let late = t.t_refi * (REFRESH_DEADLINE_INTERVALS + 2);
        let trace = vec![cmd(late, CommandKind::Act, coord(0, 5, 0))];
        let v = ProtocolChecker::check_trace(&trace, &c).unwrap_err();
        assert_eq!(v.rule, "refresh-starvation");
        // `finish` alone catches it too (e.g. a fully idle starved rank).
        let checker = ProtocolChecker::new(&c);
        assert_eq!(checker.finish(late).unwrap_err().rule, "refresh-starvation");
    }

    #[test]
    fn timely_refreshes_satisfy_liveness() {
        let mut c = cfg();
        c.refresh_enabled = true;
        let t = c.timing;
        let trace: Vec<_> = (1..6)
            .map(|i| cmd(i * t.t_refi, CommandKind::Ref, coord(0, 0, 0)))
            .collect();
        ProtocolChecker::check_trace(&trace, &c).expect("on-schedule refreshes are clean");
    }

    #[test]
    fn request_age_bound_is_enforced() {
        let checker = ProtocolChecker::new(&cfg());
        let bound = checker.request_age_bound();
        checker.check_request_age(0, bound).expect("within bound");
        let v = checker.check_request_age(0, bound + 1).unwrap_err();
        assert_eq!(v.rule, "request-starvation");
    }

    #[test]
    fn structural_rules_match_validator() {
        let double_act = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(100, CommandKind::Act, coord(0, 6, 0)),
        ];
        assert_eq!(
            ProtocolChecker::check_trace(&double_act, &cfg())
                .unwrap_err()
                .rule,
            "ACT-on-open-bank"
        );
        let cas_closed = vec![cmd(0, CommandKind::Rd, coord(0, 5, 0))];
        assert_eq!(
            ProtocolChecker::check_trace(&cas_closed, &cfg())
                .unwrap_err()
                .rule,
            "CAS-on-closed-bank"
        );
        let wrong_row = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(20, CommandKind::Rd, coord(0, 7, 0)),
        ];
        assert_eq!(
            ProtocolChecker::check_trace(&wrong_row, &cfg())
                .unwrap_err()
                .rule,
            "CAS-row-mismatch"
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = ProtocolViolation {
            rule: "tRCD",
            cycle: 42,
            message: "need 16 cycles, got 10".into(),
        };
        let s = v.to_string();
        assert!(s.contains("tRCD") && s.contains("42") && s.contains("16"));
    }
}
