//! DRAM command records and an independent timing validator.
//!
//! When [`crate::DramConfig::log_commands`] is set, every command a channel
//! issues is recorded. [`validate_trace`] then re-checks the full DDR4
//! protocol over the recorded stream with logic completely separate from
//! the scheduler's issue checks — a strong end-to-end guarantee that the
//! simulator never emits a timing-violating schedule, used by the test
//! suite on randomized workloads.

use crate::{DramCoord, DramTiming, Organization};

/// A DRAM command kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Row activate.
    #[default]
    Act,
    /// Precharge.
    Pre,
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// Rank refresh.
    Ref,
}

/// A tagged enum: one tag byte in declaration order.
impl crate::snap::Snap for CommandKind {
    const MIN_BYTES: usize = 1;

    fn save(&self, enc: &mut crate::snap::Encoder) {
        enc.u8(*self as u8);
    }

    fn load(&mut self, dec: &mut crate::snap::Decoder<'_>) -> Result<(), crate::snap::SnapError> {
        use CommandKind::*;
        *self = *[Act, Pre, Rd, Wr, Ref]
            .get(dec.u8()? as usize)
            .ok_or(crate::snap::SnapError::BadValue)?;
        Ok(())
    }
}

/// One issued command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandRecord {
    /// Bus cycle of issue.
    pub cycle: u64,
    /// Command kind.
    pub kind: CommandKind,
    /// Target coordinates (row/column meaningful per kind; `Ref` targets a
    /// whole rank).
    pub coord: DramCoord,
}

crate::snap_fields!(CommandRecord { cycle, kind, coord });

/// A detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    /// Constraint name (e.g. `"tRCD"`).
    pub constraint: &'static str,
    /// Index of the earlier command in the trace.
    pub first: usize,
    /// Index of the violating command.
    pub second: usize,
    /// Required minimum separation in cycles.
    pub required: u64,
    /// Observed separation.
    pub observed: u64,
}

impl std::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violated between commands {} and {}: need {} cycles, got {}",
            self.constraint, self.first, self.second, self.required, self.observed
        )
    }
}

impl std::error::Error for TimingViolation {}

#[derive(Debug, Clone, Copy, Default)]
struct BankCheck {
    open_row: Option<usize>,
    last_act: Option<(u64, usize)>,
    last_pre: Option<(u64, usize)>,
    last_rd: Option<(u64, usize)>,
    last_wr: Option<(u64, usize)>,
}

/// Re-checks a recorded command stream of **one channel** against the DDR4
/// constraints.
///
/// Validated rules: same-bank `tRC`, `tRCD`, `tRP`, `tRAS`, `tRTP`, write
/// recovery; same-rank `tRRD_S/L`, `tFAW`, `tCCD_S/L`, write-to-read
/// turnaround; structural legality (no ACT on an open bank, no CAS to a
/// closed or mismatching row, refresh only with all banks of the rank
/// precharged).
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_trace(
    trace: &[CommandRecord],
    t: &DramTiming,
    org: &Organization,
) -> Result<(), TimingViolation> {
    let banks_per_rank = org.banks_per_rank();
    let nbanks = org.ranks * banks_per_rank;
    let mut banks: Vec<BankCheck> = vec![BankCheck::default(); nbanks];
    // Per-rank state.
    let mut acts: Vec<Vec<(u64, usize, usize)>> = vec![Vec::new(); org.ranks]; // (cycle, idx, bg)
    let mut cas: Vec<Vec<(u64, usize, usize, bool)>> = vec![Vec::new(); org.ranks];

    let viol =
        |constraint: &'static str, first: usize, second: usize, required: u64, observed: u64| {
            Err(TimingViolation {
                constraint,
                first,
                second,
                required,
                observed,
            })
        };

    for (i, cmd) in trace.iter().enumerate() {
        let rank = cmd.coord.rank;
        let flat =
            rank * banks_per_rank + cmd.coord.bank_group * org.banks_per_group + cmd.coord.bank;
        match cmd.kind {
            CommandKind::Act => {
                let b = banks[flat];
                if b.open_row.is_some() {
                    return viol("ACT-on-open-bank", i, i, 0, 0);
                }
                if let Some((when, j)) = b.last_act {
                    if cmd.cycle < when + t.t_rc {
                        return viol("tRC", j, i, t.t_rc, cmd.cycle - when);
                    }
                }
                if let Some((when, j)) = b.last_pre {
                    if cmd.cycle < when + t.t_rp {
                        return viol("tRP", j, i, t.t_rp, cmd.cycle - when);
                    }
                }
                for &(when, j, bg) in acts[rank].iter().rev().take(8) {
                    if bg == cmd.coord.bank_group && cmd.cycle < when + t.t_rrd_l {
                        // Same bank is governed by tRC (checked above).
                        if flat
                            != trace[j].coord.rank * banks_per_rank
                                + trace[j].coord.bank_group * org.banks_per_group
                                + trace[j].coord.bank
                        {
                            return viol("tRRD_L", j, i, t.t_rrd_l, cmd.cycle - when);
                        }
                    } else if bg != cmd.coord.bank_group && cmd.cycle < when + t.t_rrd_s {
                        return viol("tRRD_S", j, i, t.t_rrd_s, cmd.cycle - when);
                    }
                }
                // tFAW: this and the three preceding ACTs to the rank.
                let n = acts[rank].len();
                if n >= 4 {
                    let (w0, j, _) = acts[rank][n - 4];
                    if cmd.cycle < w0 + t.t_faw {
                        return viol("tFAW", j, i, t.t_faw, cmd.cycle - w0);
                    }
                }
                banks[flat].open_row = Some(cmd.coord.row);
                banks[flat].last_act = Some((cmd.cycle, i));
                acts[rank].push((cmd.cycle, i, cmd.coord.bank_group));
            }
            CommandKind::Pre => {
                let b = banks[flat];
                if let Some((when, j)) = b.last_act {
                    if cmd.cycle < when + t.t_ras {
                        return viol("tRAS", j, i, t.t_ras, cmd.cycle - when);
                    }
                }
                if let Some((when, j)) = b.last_rd {
                    if cmd.cycle < when + t.t_rtp {
                        return viol("tRTP", j, i, t.t_rtp, cmd.cycle - when);
                    }
                }
                if let Some((when, j)) = b.last_wr {
                    let wr_recovery = t.t_cwl + t.t_bl + t.t_wr;
                    if cmd.cycle < when + wr_recovery {
                        return viol("tWR", j, i, wr_recovery, cmd.cycle - when);
                    }
                }
                banks[flat].open_row = None;
                banks[flat].last_pre = Some((cmd.cycle, i));
            }
            CommandKind::Rd | CommandKind::Wr => {
                let is_read = cmd.kind == CommandKind::Rd;
                let b = banks[flat];
                match b.open_row {
                    None => return viol("CAS-on-closed-bank", i, i, 0, 0),
                    Some(r) if r != cmd.coord.row => return viol("CAS-row-mismatch", i, i, 0, 0),
                    _ => {}
                }
                if let Some((when, j)) = b.last_act {
                    if cmd.cycle < when + t.t_rcd {
                        return viol("tRCD", j, i, t.t_rcd, cmd.cycle - when);
                    }
                }
                if let Some(&(when, j, bg, prev_read)) = cas[rank].last() {
                    let gap = if bg == cmd.coord.bank_group {
                        t.t_ccd_l
                    } else {
                        t.t_ccd_s
                    };
                    if cmd.cycle < when + gap {
                        return viol(
                            if bg == cmd.coord.bank_group {
                                "tCCD_L"
                            } else {
                                "tCCD_S"
                            },
                            j,
                            i,
                            gap,
                            cmd.cycle - when,
                        );
                    }
                    if is_read && !prev_read {
                        let wtr = t.t_cwl + t.t_bl + t.t_wtr;
                        if cmd.cycle < when + wtr {
                            return viol("tWTR", j, i, wtr, cmd.cycle - when);
                        }
                    }
                }
                if is_read {
                    banks[flat].last_rd = Some((cmd.cycle, i));
                } else {
                    banks[flat].last_wr = Some((cmd.cycle, i));
                }
                cas[rank].push((cmd.cycle, i, cmd.coord.bank_group, is_read));
            }
            CommandKind::Ref => {
                let base = rank * banks_per_rank;
                for b in 0..banks_per_rank {
                    if banks[base + b].open_row.is_some() {
                        return viol("REF-with-open-bank", i, i, 0, 0);
                    }
                }
                // Block the rank for tRFC: model as an ACT-blocking window
                // by faking a precharge time on every bank.
                for b in 0..banks_per_rank {
                    banks[base + b].last_pre = Some((cmd.cycle + t.t_rfc - t.t_rp, i));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramCoord;

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

    fn t() -> DramTiming {
        DramTiming::ddr4_2400r()
    }

    fn org() -> Organization {
        Organization::ddr4_4gb_x8()
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
        validate_trace(&trace, &t(), &org()).expect("legal");
    }

    #[test]
    fn trcd_violation_detected() {
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(10, CommandKind::Rd, coord(0, 5, 0)),
        ];
        let v = validate_trace(&trace, &t(), &org()).unwrap_err();
        assert_eq!(v.constraint, "tRCD");
    }

    #[test]
    fn trp_violation_detected() {
        // Precharge late enough that tRC is satisfied but tRP is not.
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(60, CommandKind::Pre, coord(0, 5, 0)),
            cmd(70, CommandKind::Act, coord(0, 6, 0)),
        ];
        let v = validate_trace(&trace, &t(), &org()).unwrap_err();
        assert_eq!(v.constraint, "tRP");
    }

    #[test]
    fn tras_violation_detected() {
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(20, CommandKind::Pre, coord(0, 5, 0)),
        ];
        let v = validate_trace(&trace, &t(), &org()).unwrap_err();
        assert_eq!(v.constraint, "tRAS");
    }

    #[test]
    fn faw_violation_detected() {
        // Five ACTs to distinct banks within tFAW.
        let trace: Vec<_> = (0..5)
            .map(|i| cmd(i as u64 * 6, CommandKind::Act, coord(i, 1, 0)))
            .collect();
        let v = validate_trace(&trace, &t(), &org()).unwrap_err();
        assert_eq!(v.constraint, "tFAW");
    }

    #[test]
    fn ccd_violation_detected() {
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(16, CommandKind::Rd, coord(0, 5, 0)),
            cmd(19, CommandKind::Rd, coord(0, 5, 1)),
        ];
        let v = validate_trace(&trace, &t(), &org()).unwrap_err();
        assert_eq!(v.constraint, "tCCD_L");
    }

    #[test]
    fn structural_violations_detected() {
        let double_act = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(100, CommandKind::Act, coord(0, 6, 0)),
        ];
        assert_eq!(
            validate_trace(&double_act, &t(), &org())
                .unwrap_err()
                .constraint,
            "ACT-on-open-bank"
        );
        let cas_closed = vec![cmd(0, CommandKind::Rd, coord(0, 5, 0))];
        assert_eq!(
            validate_trace(&cas_closed, &t(), &org())
                .unwrap_err()
                .constraint,
            "CAS-on-closed-bank"
        );
        let wrong_row = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(20, CommandKind::Rd, coord(0, 7, 0)),
        ];
        assert_eq!(
            validate_trace(&wrong_row, &t(), &org())
                .unwrap_err()
                .constraint,
            "CAS-row-mismatch"
        );
    }

    #[test]
    fn write_to_read_turnaround_detected() {
        let trace = vec![
            cmd(0, CommandKind::Act, coord(0, 5, 0)),
            cmd(16, CommandKind::Wr, coord(0, 5, 0)),
            cmd(26, CommandKind::Rd, coord(0, 5, 1)),
        ];
        let v = validate_trace(&trace, &t(), &org()).unwrap_err();
        assert_eq!(v.constraint, "tWTR");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = TimingViolation {
            constraint: "tRCD",
            first: 0,
            second: 1,
            required: 16,
            observed: 10,
        };
        let s = v.to_string();
        assert!(s.contains("tRCD") && s.contains("16") && s.contains("10"));
    }
}
