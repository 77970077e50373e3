use menda_dram::DramStats;
use menda_trace::TraceReport;

/// Statistics of one merge-sort iteration on one PU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationStats {
    /// PU cycles spent in this iteration.
    pub cycles: u64,
    /// Nonzeros emitted by the root.
    pub nz_emitted: u64,
    /// Merge rounds executed.
    pub rounds: u64,
    /// Block load requests issued (post coalescing).
    pub loads_issued: u64,
    /// Load requests merged into an existing queue entry by coalescing.
    pub loads_coalesced: u64,
    /// Block store requests issued.
    pub stores_issued: u64,
    /// Cycles the root wanted to pop but no packet was ready.
    pub root_stall_cycles: u64,
    /// Cycles the root was blocked by output-buffer back-pressure.
    pub output_stall_cycles: u64,
    /// DRAM row hits during this iteration (delta of the rank's stats).
    pub dram_row_hits: u64,
    /// DRAM row misses during this iteration.
    pub dram_row_misses: u64,
    /// DRAM row conflicts during this iteration — the §6.7 metric behind
    /// the N6-vs-N7 discussion.
    pub dram_row_conflicts: u64,
}

impl IterationStats {
    /// Bytes moved to/from memory this iteration (64 B per block request).
    pub fn traffic_bytes(&self) -> u64 {
        (self.loads_issued + self.stores_issued) * 64
    }

    /// Fraction of this iteration's DRAM accesses that were row conflicts.
    pub fn row_conflict_rate(&self) -> f64 {
        let total = self.dram_row_hits + self.dram_row_misses + self.dram_row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.dram_row_conflicts as f64 / total as f64
    }

    /// Serializes every counter for checkpointing.
    pub(crate) fn save_state(&self, enc: &mut menda_dram::Encoder) {
        enc.u64(self.cycles);
        enc.u64(self.nz_emitted);
        enc.u64(self.rounds);
        enc.u64(self.loads_issued);
        enc.u64(self.loads_coalesced);
        enc.u64(self.stores_issued);
        enc.u64(self.root_stall_cycles);
        enc.u64(self.output_stall_cycles);
        enc.u64(self.dram_row_hits);
        enc.u64(self.dram_row_misses);
        enc.u64(self.dram_row_conflicts);
    }

    /// Restores counters saved by [`IterationStats::save_state`].
    pub(crate) fn restore_state(
        dec: &mut menda_dram::Decoder<'_>,
    ) -> Result<Self, menda_dram::SnapError> {
        Ok(Self {
            cycles: dec.u64()?,
            nz_emitted: dec.u64()?,
            rounds: dec.u64()?,
            loads_issued: dec.u64()?,
            loads_coalesced: dec.u64()?,
            stores_issued: dec.u64()?,
            root_stall_cycles: dec.u64()?,
            output_stall_cycles: dec.u64()?,
            dram_row_hits: dec.u64()?,
            dram_row_misses: dec.u64()?,
            dram_row_conflicts: dec.u64()?,
        })
    }
}

/// Statistics of a complete multi-iteration execution on one PU.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PuStats {
    /// Per-iteration breakdown.
    pub iterations: Vec<IterationStats>,
    /// DRAM-side statistics of the PU's rank.
    pub dram: DramStats,
}

impl PuStats {
    /// Total PU cycles across iterations.
    pub fn total_cycles(&self) -> u64 {
        self.iterations.iter().map(|i| i.cycles).sum()
    }

    /// Total memory traffic in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.iterations.iter().map(|i| i.traffic_bytes()).sum()
    }

    /// Total loads merged by request coalescing.
    pub fn total_coalesced(&self) -> u64 {
        self.iterations.iter().map(|i| i.loads_coalesced).sum()
    }

    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }
}

/// Aggregated statistics of one engine run across all PUs — the shared
/// reduction every kernel driver previously reimplemented: execution time
/// is the *maximum* over PUs (they run concurrently, §3.5), traffic is the
/// *sum*, and the per-PU breakdown is kept for reporting.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Execution time in device cycles (maximum over PUs).
    pub cycles: u64,
    /// Execution time in seconds at the backend's device clock.
    pub seconds: f64,
    /// The backend's device clock in MHz, which `seconds` is based on.
    pub frequency_mhz: u64,
    /// The accelerator backend that produced these statistics (see
    /// [`crate::backend::AcceleratorBackend::name`]; `"menda"` for the
    /// default merge-tree PU).
    pub backend: &'static str,
    /// Per-PU statistics, indexed by PU id.
    pub pu_stats: Vec<PuStats>,
    /// Aggregated instrumentation report across PUs, present only when
    /// [`crate::MendaConfig::trace`] enables a sink. Chrome pids identify
    /// the originating PU.
    pub trace: Option<TraceReport>,
}

/// Equality over the *simulated* results only — the `trace` field is
/// deliberately excluded so the differential test suite can assert that
/// traced and untraced runs produce identical statistics.
impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.seconds == other.seconds
            && self.backend == other.backend
            && self.pu_stats == other.pu_stats
    }
}

impl Default for RunStats {
    fn default() -> Self {
        Self::collect(800, Vec::new())
    }
}

impl RunStats {
    /// Aggregates per-PU statistics at the given device clock frequency.
    /// The backend label defaults to `"menda"`; the engine overwrites it
    /// with the executing backend's name.
    pub fn collect(frequency_mhz: u64, pu_stats: Vec<PuStats>) -> Self {
        let cycles = pu_stats.iter().map(|s| s.total_cycles()).max().unwrap_or(0);
        let seconds = cycles as f64 / (frequency_mhz as f64 * 1e6);
        Self {
            cycles,
            seconds,
            frequency_mhz,
            backend: "menda",
            pu_stats,
            trace: None,
        }
    }

    /// Total memory traffic across PUs, in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.pu_stats.iter().map(|s| s.total_traffic_bytes()).sum()
    }

    /// The largest number of iterations any PU needed.
    pub fn max_iterations(&self) -> usize {
        self.pu_stats
            .iter()
            .map(|s| s.num_iterations())
            .max()
            .unwrap_or(0)
    }

    /// Throughput in `units` per second (0 when no time elapsed).
    pub fn throughput(&self, units: u64) -> f64 {
        if self.seconds > 0.0 {
            units as f64 / self.seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_counts_loads_and_stores() {
        let it = IterationStats {
            loads_issued: 10,
            stores_issued: 5,
            ..Default::default()
        };
        assert_eq!(it.traffic_bytes(), 15 * 64);
    }

    #[test]
    fn conflict_rate_handles_zero_and_counts() {
        assert_eq!(IterationStats::default().row_conflict_rate(), 0.0);
        let it = IterationStats {
            dram_row_hits: 6,
            dram_row_misses: 1,
            dram_row_conflicts: 3,
            ..Default::default()
        };
        assert!((it.row_conflict_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn totals_aggregate_iterations() {
        let stats = PuStats {
            iterations: vec![
                IterationStats {
                    cycles: 100,
                    loads_issued: 4,
                    loads_coalesced: 1,
                    ..Default::default()
                },
                IterationStats {
                    cycles: 50,
                    stores_issued: 2,
                    loads_coalesced: 2,
                    ..Default::default()
                },
            ],
            dram: DramStats::default(),
        };
        assert_eq!(stats.total_cycles(), 150);
        assert_eq!(stats.total_traffic_bytes(), 6 * 64);
        assert_eq!(stats.total_coalesced(), 3);
        assert_eq!(stats.num_iterations(), 2);
    }

    #[test]
    fn run_stats_take_max_cycles_and_sum_traffic() {
        let pu = |cycles: u64, loads: u64| PuStats {
            iterations: vec![IterationStats {
                cycles,
                loads_issued: loads,
                ..Default::default()
            }],
            dram: DramStats::default(),
        };
        let run = RunStats::collect(800, vec![pu(100, 2), pu(400, 3), pu(250, 1)]);
        assert_eq!(run.cycles, 400);
        assert!((run.seconds - 400.0 / 800e6).abs() < 1e-15);
        assert_eq!(run.total_traffic_bytes(), 6 * 64);
        assert_eq!(run.max_iterations(), 1);
        assert!(run.throughput(800) > 0.0);
    }

    #[test]
    fn run_stats_equality_ignores_trace() {
        let base = RunStats::collect(800, Vec::new());
        let mut traced = base.clone();
        traced.trace = Some(TraceReport::default());
        assert_eq!(base, traced);
    }

    #[test]
    fn run_stats_empty_is_zero() {
        let run = RunStats::collect(800, Vec::new());
        assert_eq!(run.cycles, 0);
        assert_eq!(run.seconds, 0.0);
        assert_eq!(run.throughput(100), 0.0);
        assert_eq!(run.max_iterations(), 0);
    }
}
