use std::sync::atomic::{AtomicU8, Ordering};

use menda_trace::TraceConfig;

use crate::MappingScheme;

/// Process-wide default for [`DramConfig::check_protocol`]:
/// 0 = follow the `MENDA_CHECK_PROTOCOL` environment variable,
/// 1 = forced off, 2 = forced on.
static CHECK_PROTOCOL_DEFAULT: AtomicU8 = AtomicU8::new(0);

/// Overrides the default value of [`DramConfig::check_protocol`] for
/// configurations constructed afterwards in this process.
///
/// `Some(true)`/`Some(false)` force the default on/off; `None` restores
/// the environment-driven behaviour (`MENDA_CHECK_PROTOCOL` set to a
/// non-`"0"` value enables checking — the hook CI uses to run the whole
/// suite under live protocol verification).
pub fn set_check_protocol_default(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    CHECK_PROTOCOL_DEFAULT.store(v, Ordering::Relaxed);
}

fn check_protocol_default() -> bool {
    match CHECK_PROTOCOL_DEFAULT.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => std::env::var("MENDA_CHECK_PROTOCOL").is_ok_and(|v| !v.is_empty() && v != "0"),
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave the row open after a CAS (FR-FCFS exploits hits) — the policy
    /// the paper's `FRFCFS_PriorHit` configuration implies.
    #[default]
    OpenPage,
    /// Auto-precharge after every CAS; each access pays ACT+CAS but row
    /// conflicts disappear. Useful for random-access ablations.
    ClosedPage,
}

/// DRAM device organization: how many channels, ranks, bank groups, banks,
/// rows and columns the simulated memory has.
///
/// The defaults model the paper's `4Gb_x8` DDR4 organization: 4 bank
/// groups × 4 banks, 32K rows (scaled), 1K columns, 8-byte bus with burst
/// length 8 (64-byte transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organization {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Column *cache lines* per row (row buffer size / transaction size).
    pub columns: usize,
    /// Bytes per transaction (bus width × burst length); 64 B for DDR4 x64.
    pub transaction_bytes: usize,
}

impl Organization {
    /// The `4Gb_x8` DDR4 organization of Table 1 (one channel, one rank by
    /// default — the MeNDA system scales channels and ranks explicitly).
    pub fn ddr4_4gb_x8() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 32_768,
            columns: 128, // 8KB row buffer / 64B lines
            transaction_bytes: 64,
        }
    }

    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Total addressable bytes across all channels.
    pub fn capacity_bytes(&self) -> usize {
        self.channels
            * self.ranks
            * self.banks_per_rank()
            * self.rows
            * self.columns
            * self.transaction_bytes
    }
}

/// DDR4 timing parameters, in DRAM *bus-clock* cycles.
///
/// The names and nominal values follow Table 1 of the paper
/// (`DDR4_2400R`): `tRC=55, tRCD=16, tCL=16, tRP=16, tBL=4, tCCDS=4,
/// tCCDL=6, tRRDS=4, tRRDL=6, tFAW=26`. Parameters the table omits but the
/// protocol requires (`tRAS`, `tCWL`, `tWR`, `tWTR`, `tRTP`, refresh) use
/// standard DDR4-2400 values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// ACT-to-ACT delay, same bank (row cycle).
    pub t_rc: u64,
    /// ACT-to-RD/WR delay (RAS-to-CAS).
    pub t_rcd: u64,
    /// RD-to-first-data delay (CAS latency).
    pub t_cl: u64,
    /// WR command to first data (CAS write latency).
    pub t_cwl: u64,
    /// PRE-to-ACT delay (row precharge).
    pub t_rp: u64,
    /// ACT-to-PRE minimum (row active time).
    pub t_ras: u64,
    /// Data burst duration on the bus (BL8 = 4 bus cycles).
    pub t_bl: u64,
    /// CAS-to-CAS, different bank group.
    pub t_ccd_s: u64,
    /// CAS-to-CAS, same bank group.
    pub t_ccd_l: u64,
    /// ACT-to-ACT, different bank, different bank group.
    pub t_rrd_s: u64,
    /// ACT-to-ACT, different bank, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window per rank.
    pub t_faw: u64,
    /// Write-to-read turnaround (same rank, after last write data).
    pub t_wtr: u64,
    /// Write recovery (last write data to PRE).
    pub t_wr: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time (rank blocked).
    pub t_rfc: u64,
}

impl DramTiming {
    /// The `DDR4_2400R` timing set of Table 1 (bus clock 1200 MHz,
    /// tCK = 0.833 ns).
    pub fn ddr4_2400r() -> Self {
        Self {
            t_rc: 55,
            t_rcd: 16,
            t_cl: 16,
            t_cwl: 12,
            t_rp: 16,
            t_ras: 39, // tRC - tRP
            t_bl: 4,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
            t_wtr: 9,
            t_wr: 18,
            t_rtp: 9,
            t_refi: 9363, // 7.8 us at 0.833 ns
            t_rfc: 313,   // 260 ns for a 4Gb device
        }
    }
}

/// Complete DRAM simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Device organization.
    pub org: Organization,
    /// Timing parameters in bus-clock cycles.
    pub timing: DramTiming,
    /// Physical-address interleaving scheme.
    pub mapping: MappingScheme,
    /// Read queue capacity per channel (Table 1: 32).
    pub read_queue: usize,
    /// Write queue capacity per channel (Table 1: 32).
    pub write_queue: usize,
    /// Bus clock frequency in MHz (data rate is 2×).
    pub clock_mhz: u64,
    /// Whether periodic refresh is simulated.
    pub refresh_enabled: bool,
    /// Record every issued command (see [`crate::command::validate_trace`]).
    pub log_commands: bool,
    /// Re-check every issued command live against the full DDR4 protocol
    /// with an independent [`crate::ProtocolChecker`]; a violation panics
    /// at the offending cycle. Defaults to the `MENDA_CHECK_PROTOCOL`
    /// environment variable (see [`set_check_protocol_default`]).
    pub check_protocol: bool,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Instrumentation settings (see [`menda_trace::TraceConfig`]). Off by
    /// default; defaults to the `MENDA_TRACE` environment variable.
    pub trace: TraceConfig,
}

impl DramConfig {
    /// The paper's Table 1 configuration: `DDR4_2400R`, `4Gb_x8`, 32-entry
    /// queues, `FRFCFS_PriorHit` scheduling (the scheduler itself lives in
    /// [`crate::FrfcfsPriorHit`]).
    pub fn ddr4_2400r() -> Self {
        Self {
            org: Organization::ddr4_4gb_x8(),
            timing: DramTiming::ddr4_2400r(),
            mapping: MappingScheme::RoBaRaCoCh,
            read_queue: 32,
            write_queue: 32,
            clock_mhz: 1200,
            refresh_enabled: true,
            log_commands: false,
            check_protocol: check_protocol_default(),
            row_policy: RowPolicy::OpenPage,
            trace: TraceConfig::from_env(),
        }
    }

    /// An HBM2-class pseudo-channel configuration (64-byte transactions on
    /// a 64-bit pseudo-channel at 1000 MHz ≈ 16 GB/s each; Sadi et al.'s
    /// four stacks expose 64 such pseudo-channels). Timings follow HBM2's
    /// tighter core parameters.
    pub fn hbm2_pseudo_channel() -> Self {
        let mut cfg = Self::ddr4_2400r();
        cfg.clock_mhz = 1000;
        cfg.org.bank_groups = 4;
        cfg.org.banks_per_group = 4;
        cfg.org.rows = 16_384;
        cfg.org.columns = 32; // 2 KB row buffer per pseudo-channel
        cfg.timing = DramTiming {
            t_rc: 47,
            t_rcd: 14,
            t_cl: 14,
            t_cwl: 7,
            t_rp: 14,
            t_ras: 33,
            t_bl: 4,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 16,
            t_wtr: 8,
            t_wr: 16,
            t_rtp: 5,
            t_refi: 3900,
            t_rfc: 260,
        };
        cfg
    }

    /// An LPDDR4-3200-class configuration (one 16-bit channel pair modeled
    /// as an 8-byte bus at 1600 MHz, 25.6 GB/s) — the memory of
    /// Transmuter-class substrates used by the CoSPARSE integration study.
    pub fn lpddr4_3200() -> Self {
        let mut cfg = Self::ddr4_2400r();
        cfg.clock_mhz = 1600;
        cfg.timing = DramTiming {
            t_rc: 97,
            t_rcd: 29,
            t_cl: 28,
            t_cwl: 14,
            t_rp: 29,
            t_ras: 68,
            t_bl: 4,
            t_ccd_s: 8,
            t_ccd_l: 8,
            t_rrd_s: 16,
            t_rrd_l: 16,
            t_faw: 64,
            t_wtr: 16,
            t_wr: 29,
            t_rtp: 12,
            t_refi: 6240,
            t_rfc: 448,
        };
        cfg
    }

    /// Same as [`DramConfig::ddr4_2400r`] with a given channel count.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.org.channels = channels;
        self
    }

    /// Same configuration with a given rank count per channel.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.org.ranks = ranks;
        self
    }

    /// Theoretical peak bandwidth in bytes per second across all channels
    /// (data rate × 8 bytes × channels).
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        (self.clock_mhz as f64) * 1e6 * 2.0 * 8.0 * self.org.channels as f64
    }

    /// Theoretical peak bandwidth in GB/s.
    ///
    /// One DDR4-2400 channel provides 19.2 GB/s; the paper's 4-channel host
    /// system peaks at 76.8 GB/s (Fig. 3b's green line).
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.peak_bandwidth_bytes_per_sec() / 1e9
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2400r()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_timing_values() {
        let t = DramTiming::ddr4_2400r();
        assert_eq!(t.t_rc, 55);
        assert_eq!(t.t_rcd, 16);
        assert_eq!(t.t_cl, 16);
        assert_eq!(t.t_rp, 16);
        assert_eq!(t.t_bl, 4);
        assert_eq!(t.t_ccd_s, 4);
        assert_eq!(t.t_ccd_l, 6);
        assert_eq!(t.t_rrd_s, 4);
        assert_eq!(t.t_rrd_l, 6);
        assert_eq!(t.t_faw, 26);
        assert_eq!(t.t_ras + t.t_rp, t.t_rc);
    }

    #[test]
    fn peak_bandwidth_matches_paper() {
        let one = DramConfig::ddr4_2400r();
        assert!((one.peak_bandwidth_gbs() - 19.2).abs() < 0.01);
        let four = one.with_channels(4);
        assert!((four.peak_bandwidth_gbs() - 76.8).abs() < 0.01);
    }

    #[test]
    fn organization_counts() {
        let org = Organization::ddr4_4gb_x8();
        assert_eq!(org.banks_per_rank(), 16);
        // 16 banks * 32768 rows * 128 cols * 64B = 4 GiB per rank
        assert_eq!(org.capacity_bytes(), 4 << 30);
    }

    #[test]
    fn queue_sizes_match_table1() {
        let c = DramConfig::ddr4_2400r();
        assert_eq!(c.read_queue, 32);
        assert_eq!(c.write_queue, 32);
    }

    #[test]
    fn builders_adjust_org() {
        let c = DramConfig::ddr4_2400r().with_channels(2).with_ranks(4);
        assert_eq!(c.org.channels, 2);
        assert_eq!(c.org.ranks, 4);
    }
}
