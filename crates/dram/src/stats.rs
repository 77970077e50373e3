/// Counters collected by the DRAM simulator.
///
/// Per-channel controllers keep their own copy; [`crate::MemorySystem`]
/// aggregates them on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Bus cycles elapsed.
    pub cycles: u64,
    /// Read transactions completed (data delivered), including reads
    /// served by store-to-load forwarding from the write queue.
    pub reads: u64,
    /// Reads served by store-to-load forwarding (no DRAM access; subset
    /// of [`DramStats::reads`]).
    pub forwarded_reads: u64,
    /// Write transactions completed (data transferred).
    pub writes: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// CAS commands that hit an open row.
    pub row_hits: u64,
    /// Requests that found their bank closed.
    pub row_misses: u64,
    /// Requests that found a different row open (needs PRE + ACT).
    pub row_conflicts: u64,
    /// Sum of read latencies (enqueue → data completion), in bus cycles.
    pub read_latency_sum: u64,
    /// Maximum observed read latency.
    pub read_latency_max: u64,
    /// Cycles during which a data burst occupied the bus.
    pub bus_busy_cycles: u64,
    /// Enqueue attempts rejected because a queue was full.
    pub queue_full_rejections: u64,
}

crate::snap_fields!(DramStats {
    cycles,
    reads,
    forwarded_reads,
    writes,
    activates,
    precharges,
    refreshes,
    row_hits,
    row_misses,
    row_conflicts,
    read_latency_sum,
    read_latency_max,
    bus_busy_cycles,
    queue_full_rejections,
});

impl DramStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes moved over the data bus (64 B per completed transaction).
    pub fn bytes_transferred(&self, transaction_bytes: usize) -> u64 {
        (self.reads + self.writes) * transaction_bytes as u64
    }

    /// Achieved bandwidth in GB/s over the elapsed cycles, given the bus
    /// clock in MHz and transaction size.
    pub fn utilized_bandwidth_gbs(&self, clock_mhz: u64, transaction_bytes: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / (clock_mhz as f64 * 1e6);
        self.bytes_transferred(transaction_bytes) as f64 / seconds / 1e9
    }

    /// Fraction of CAS accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    /// Fraction of requests that conflicted with an open row.
    pub fn row_conflict_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_conflicts as f64 / total as f64
    }

    /// Mean read latency in bus cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.read_latency_sum as f64 / self.reads as f64
    }

    /// Fraction of cycles the data bus carried a burst.
    pub fn bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bus_busy_cycles as f64 / self.cycles as f64
    }

    /// Accumulates `other` into `self` (cycle counts take the max, event
    /// counts add), used to aggregate per-channel stats.
    pub fn merge(&mut self, other: &DramStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.reads += other.reads;
        self.forwarded_reads += other.forwarded_reads;
        self.writes += other.writes;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.read_latency_sum += other.read_latency_sum;
        self.read_latency_max = self.read_latency_max.max(other.read_latency_max);
        self.bus_busy_cycles += other.bus_busy_cycles;
        self.queue_full_rejections += other.queue_full_rejections;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_computation() {
        let s = DramStats {
            cycles: 1200,
            reads: 100,
            writes: 0,
            ..Default::default()
        };
        // 1200 cycles at 1200 MHz = 1 us; 6400 B / 1 us = 6.4 GB/s.
        let bw = s.utilized_bandwidth_gbs(1200, 64);
        assert!((bw - 6.4).abs() < 1e-9, "{bw}");
    }

    #[test]
    fn rates_handle_zero() {
        let s = DramStats::new();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.bus_utilization(), 0.0);
        assert_eq!(s.utilized_bandwidth_gbs(1200, 64), 0.0);
    }

    #[test]
    fn hit_rate() {
        let s = DramStats {
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 1,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.row_conflict_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_events_and_maxes_cycles() {
        let mut a = DramStats {
            cycles: 100,
            reads: 5,
            read_latency_max: 40,
            ..Default::default()
        };
        let b = DramStats {
            cycles: 80,
            reads: 7,
            read_latency_max: 60,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.reads, 12);
        assert_eq!(a.read_latency_max, 60);
    }
}
