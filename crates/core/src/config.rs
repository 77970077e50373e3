use menda_dram::DramConfig;
use menda_trace::TraceConfig;

/// Configuration of one MeNDA processing unit (Table 1, bottom).
#[derive(Debug, Clone, PartialEq)]
pub struct PuConfig {
    /// PU clock frequency in MHz (nominal 800).
    pub frequency_mhz: u64,
    /// Number of merge-tree leaves, i.e. input ports / prefetch buffers
    /// (nominal 1024). Must be a power of two ≥ 2.
    pub leaves: usize,
    /// Entries per inter-PE FIFO (nominal 2).
    pub fifo_entries: usize,
    /// Nonzeros a prefetch buffer can hold (nominal 32).
    pub prefetch_buffer_entries: usize,
    /// PU-side read request queue entries (nominal 32).
    pub read_queue_entries: usize,
    /// PU-side write request queue entries (nominal 32).
    pub write_queue_entries: usize,
    /// Stall-reducing prefetching (§3.4) enabled.
    pub stall_reducing_prefetch: bool,
    /// Request coalescing (§3.4) enabled.
    pub request_coalescing: bool,
    /// Output buffer capacity in bytes (stores are sent at 64 B
    /// granularity).
    pub output_buffer_bytes: usize,
    /// Maximum outstanding pointer-array block reads held by the
    /// controller FSM.
    pub pointer_read_depth: usize,
    /// Concurrent host access (§4): when set, the host injects one 64 B
    /// read into this PU's rank every `N` PU cycles while the PU runs.
    /// The paper supports concurrent access (via \[11\]) but warns that a
    /// memory-intensive co-runner hurts both tasks — this knob lets the
    /// harness quantify that.
    pub host_read_interval: Option<u64>,
}

impl PuConfig {
    /// The paper's nominal PU: 800 MHz, 1024 leaves, 2-entry FIFOs,
    /// 32-entry prefetch buffers and request queues, both optimizations on.
    pub fn paper() -> Self {
        Self {
            frequency_mhz: 800,
            leaves: 1024,
            fifo_entries: 2,
            prefetch_buffer_entries: 32,
            read_queue_entries: 32,
            write_queue_entries: 32,
            stall_reducing_prefetch: true,
            request_coalescing: true,
            output_buffer_bytes: 256,
            pointer_read_depth: 8,
            host_read_interval: None,
        }
    }

    /// A small PU for fast unit tests (16 leaves).
    pub fn small_test() -> Self {
        Self {
            leaves: 16,
            ..Self::paper()
        }
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two ≥ 2, or any queue/FIFO
    /// capacity is zero.
    pub fn validate(&self) {
        assert!(
            self.leaves.is_power_of_two() && self.leaves >= 2,
            "leaves must be a power of two >= 2, got {}",
            self.leaves
        );
        assert!(self.fifo_entries > 0, "fifo_entries must be positive");
        assert!(
            self.prefetch_buffer_entries > 0,
            "prefetch_buffer_entries must be positive"
        );
        assert!(self.read_queue_entries > 0);
        assert!(self.write_queue_entries > 0);
        assert!(self.output_buffer_bytes >= 64);
        assert!(self.pointer_read_depth > 0);
    }

    /// Number of merge-tree levels (`log2 leaves`).
    pub fn levels(&self) -> u32 {
        self.leaves.trailing_zeros()
    }

    /// With or without stall-reducing prefetching.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.stall_reducing_prefetch = on;
        self
    }

    /// With or without request coalescing.
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.request_coalescing = on;
        self
    }

    /// With a different leaf count.
    pub fn with_leaves(mut self, leaves: usize) -> Self {
        self.leaves = leaves;
        self
    }

    /// With a different prefetch buffer capacity.
    pub fn with_buffer_entries(mut self, entries: usize) -> Self {
        self.prefetch_buffer_entries = entries;
        self
    }

    /// With a different clock frequency.
    pub fn with_frequency(mut self, mhz: u64) -> Self {
        self.frequency_mhz = mhz;
        self
    }

    /// With concurrent host reads every `interval` PU cycles (§4).
    pub fn with_host_interference(mut self, interval: u64) -> Self {
        self.host_read_interval = Some(interval.max(1));
        self
    }
}

impl Default for PuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Configuration of the SparseP-style UPMEM PIM backend
/// ([`crate::pim::PimBackend`]): many DPU-like cores beside one rank,
/// each with a local scratchpad, 1D stream partitioning and a rank-level
/// merge engine. Ignored by the MeNDA backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimConfig {
    /// DPU clock frequency in MHz (UPMEM DPUs run at ~350 MHz).
    pub frequency_mhz: u64,
    /// DPU-like cores per rank (a UPMEM rank hosts 64 DPUs).
    pub dpus_per_rank: usize,
    /// Per-DPU scratchpad (WRAM) capacity in bytes (64 KiB on UPMEM).
    pub wram_bytes: usize,
    /// DPU cycles to ingest and process one element (scale/compare plus
    /// loop overhead on the in-order pipeline).
    pub elem_cpi: u64,
    /// DPU cycles per element per local merge-sort pass
    /// (`n·ceil(log2 n)` passes total).
    pub sort_cpi: u64,
    /// Rank-level merge engine cycles per merged output element.
    pub merge_cpi: u64,
}

impl PimConfig {
    /// A full UPMEM-style rank: 64 DPUs at 350 MHz with 64 KiB WRAM.
    pub fn upmem_rank() -> Self {
        Self {
            frequency_mhz: 350,
            dpus_per_rank: 64,
            wram_bytes: 64 << 10,
            elem_cpi: 4,
            sort_cpi: 2,
            merge_cpi: 2,
        }
    }

    /// A small PIM configuration for fast unit tests (8 DPUs).
    pub fn small_test() -> Self {
        Self {
            dpus_per_rank: 8,
            ..Self::upmem_rank()
        }
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if any capacity, core count or cost parameter is zero.
    pub fn validate(&self) {
        assert!(self.frequency_mhz > 0, "frequency_mhz must be positive");
        assert!(self.dpus_per_rank > 0, "dpus_per_rank must be positive");
        assert!(self.wram_bytes >= 1024, "wram_bytes must be at least 1 KiB");
        assert!(self.elem_cpi > 0, "elem_cpi must be positive");
        assert!(self.sort_cpi > 0, "sort_cpi must be positive");
        assert!(self.merge_cpi > 0, "merge_cpi must be positive");
    }

    /// With a different DPU count per rank.
    pub fn with_dpus(mut self, dpus: usize) -> Self {
        self.dpus_per_rank = dpus;
        self
    }

    /// With a different DPU clock frequency.
    pub fn with_frequency(mut self, mhz: u64) -> Self {
        self.frequency_mhz = mhz;
        self
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        Self::upmem_rank()
    }
}

/// Host-simulation options — knobs of the *simulator*, not the modeled
/// hardware. They never change simulated results, only how fast the host
/// computes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Worker threads the execution engine uses to simulate PUs
    /// concurrently. `None` (the default) picks
    /// `min(available_parallelism, num_pus)`; `Some(n)` clamps `n` to
    /// `[1, num_pus]`. PUs share nothing (§3.5), so any thread count
    /// produces bit-identical outputs and statistics.
    pub threads: Option<usize>,
    /// Event-driven fast-forwarding: the PU and DRAM models jump over
    /// provably event-free cycle spans instead of simulating them one by
    /// one (on by default). Results are bit-identical either way — the
    /// differential suites in `crates/core/tests/fast_forward_equivalence.rs`
    /// and `crates/dram/tests/fast_forward.rs` enforce it; `false` keeps
    /// the per-cycle reference path.
    pub fast_forward: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            threads: None,
            fast_forward: true,
        }
    }
}

impl SimOptions {
    /// The worker-thread count to use for a run over `pus` PUs.
    pub fn effective_threads(&self, pus: usize) -> usize {
        let cap = pus.max(1);
        match self.threads {
            Some(n) => n.clamp(1, cap),
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(cap),
        }
    }
}

/// Configuration of a complete MeNDA system: one PU per DRAM rank.
#[derive(Debug, Clone, PartialEq)]
pub struct MendaConfig {
    /// Per-PU configuration (the MeNDA backend).
    pub pu: PuConfig,
    /// Per-rank PIM configuration (the SparseP-style backend,
    /// [`crate::pim::PimBackend`]). Ignored unless that backend is
    /// selected.
    pub pim: PimConfig,
    /// Memory channels populated with MeNDA DIMMs.
    pub channels: usize,
    /// Ranks (and therefore PUs) per channel.
    pub ranks_per_channel: usize,
    /// DRAM configuration of each rank (one PU sees one rank's worth of
    /// DDR4-2400 bandwidth through the DIMM buffer chip).
    pub dram: DramConfig,
    /// Host-simulation options (threading of the execution engine).
    pub sim: SimOptions,
    /// Instrumentation configuration (see `menda-trace`). Purely
    /// observational: changing it never changes simulated results, only
    /// whether a [`crate::stats::RunStats::trace`] report is produced.
    /// Defaults to the `MENDA_TRACE` environment variable (off when
    /// unset).
    pub trace: TraceConfig,
}

impl MendaConfig {
    /// The paper's evaluation system: 4 channels × 2 ranks = 8 PUs with
    /// nominal PU parameters.
    pub fn paper() -> Self {
        Self {
            pu: PuConfig::paper(),
            pim: PimConfig::upmem_rank(),
            channels: 4,
            ranks_per_channel: 2,
            dram: DramConfig::ddr4_2400r(),
            sim: SimOptions::default(),
            trace: TraceConfig::from_env(),
        }
    }

    /// A small configuration for fast unit tests: 2 PUs with 16-leaf trees
    /// and refresh disabled.
    pub fn small_test() -> Self {
        let mut dram = DramConfig::ddr4_2400r();
        dram.refresh_enabled = false;
        Self {
            pu: PuConfig::small_test(),
            pim: PimConfig::small_test(),
            channels: 1,
            ranks_per_channel: 2,
            dram,
            sim: SimOptions::default(),
            trace: TraceConfig::from_env(),
        }
    }

    /// Total number of PUs (= total ranks).
    pub fn num_pus(&self) -> usize {
        self.channels * self.ranks_per_channel
    }

    /// With a different channel count (the Fig. 13 sweep).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// With a different per-channel rank count.
    pub fn with_ranks_per_channel(mut self, ranks: usize) -> Self {
        self.ranks_per_channel = ranks;
        self
    }

    /// With an explicit engine worker-thread count (`1` = serial host
    /// simulation). Outputs are identical for every setting; only the
    /// host's wall-clock time changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.sim.threads = Some(threads);
        self
    }

    /// With event-driven fast-forwarding on (`true`, the default) or the
    /// per-cycle reference simulation path (`false`). Simulated results
    /// are bit-identical for both settings; only host wall-clock time
    /// changes.
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.sim.fast_forward = on;
        self
    }

    /// With a different PIM backend configuration.
    pub fn with_pim(mut self, pim: PimConfig) -> Self {
        self.pim = pim;
        self
    }

    /// With a specific instrumentation configuration (overrides the
    /// `MENDA_TRACE` default).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Aggregate internal memory bandwidth exposed to the PUs, in GB/s
    /// (each rank's PU sees a full DDR4-2400 interface).
    pub fn internal_bandwidth_gbs(&self) -> f64 {
        19.2 * self.num_pus() as f64
    }

    /// DRAM bus cycles per PU cycle numerator/denominator
    /// (bus 1200 MHz : PU 800 MHz = 3 : 2 at nominal frequency).
    pub fn dram_ticks_ratio(&self) -> (u64, u64) {
        (self.dram.clock_mhz, self.pu.frequency_mhz)
    }
}

impl Default for MendaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table1() {
        let c = PuConfig::paper();
        assert_eq!(c.frequency_mhz, 800);
        assert_eq!(c.leaves, 1024);
        assert_eq!(c.fifo_entries, 2);
        assert_eq!(c.prefetch_buffer_entries, 32);
        assert_eq!(c.read_queue_entries, 32);
        assert_eq!(c.write_queue_entries, 32);
        assert_eq!(c.levels(), 10);
        c.validate();
    }

    #[test]
    fn system_pu_count() {
        let s = MendaConfig::paper();
        assert_eq!(s.num_pus(), 8);
        assert!((s.internal_bandwidth_gbs() - 153.6).abs() < 0.1);
        assert_eq!(s.with_channels(1).num_pus(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_leaves_rejected() {
        PuConfig::paper().with_leaves(48).validate();
    }

    #[test]
    fn builders_compose() {
        let c = PuConfig::paper()
            .with_prefetch(false)
            .with_coalescing(false)
            .with_leaves(64)
            .with_buffer_entries(16)
            .with_frequency(600);
        assert!(!c.stall_reducing_prefetch);
        assert!(!c.request_coalescing);
        assert_eq!(c.leaves, 64);
        assert_eq!(c.prefetch_buffer_entries, 16);
        assert_eq!(c.frequency_mhz, 600);
        c.validate();
    }

    #[test]
    fn dram_tick_ratio_nominal() {
        let c = MendaConfig::paper();
        assert_eq!(c.dram_ticks_ratio(), (1200, 800));
    }

    #[test]
    fn trace_knob_defaults_off_and_overrides() {
        // The test environment never sets MENDA_TRACE, so the default is
        // off and tracing costs nothing.
        assert!(!MendaConfig::small_test().trace.enabled());
        let c = MendaConfig::small_test().with_trace(TraceConfig::counting());
        assert!(c.trace.enabled());
    }

    #[test]
    fn thread_knob_clamps_to_pu_count() {
        let c = MendaConfig::paper().with_threads(64);
        assert_eq!(c.sim.effective_threads(8), 8);
        assert_eq!(c.sim.effective_threads(1), 1);
        let c = MendaConfig::paper().with_threads(0);
        assert_eq!(c.sim.effective_threads(8), 1);
        // Auto mode never exceeds the PU count either.
        let auto = SimOptions::default();
        assert!(auto.effective_threads(2) <= 2);
        assert!(auto.effective_threads(1) == 1);
    }

    #[test]
    fn fast_forward_defaults_on_and_toggles() {
        assert!(SimOptions::default().fast_forward);
        assert!(MendaConfig::small_test().sim.fast_forward);
        let c = MendaConfig::small_test().with_fast_forward(false);
        assert!(!c.sim.fast_forward);
        assert!(c.with_fast_forward(true).sim.fast_forward);
    }
}
