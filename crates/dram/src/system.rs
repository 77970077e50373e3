use crate::snap::Snap;
use crate::{AddressMapper, ChannelController, DramConfig, DramStats, MemRequest, MemResponse};

/// The multi-channel memory system front end.
///
/// Routes requests to per-channel [`ChannelController`]s through an
/// [`AddressMapper`], ticks all channels in lock step on the bus clock, and
/// delivers responses.
///
/// # Example
///
/// ```
/// use menda_dram::{DramConfig, MemorySystem, MemRequest};
///
/// let mut mem = MemorySystem::new(DramConfig::ddr4_2400r().with_channels(2));
/// mem.try_enqueue(MemRequest::read(0, 0));
/// mem.try_enqueue(MemRequest::read(64, 1)); // lands on the other channel
/// for _ in 0..100 { mem.tick(); }
/// assert_eq!(mem.drain_responses().len(), 2);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelController>,
    rr_next: usize,
}

crate::snap_fields!(MemorySystem { channels: fixed, rr_next } after restored);

impl MemorySystem {
    /// Creates a memory system with `config.org.channels` channels.
    pub fn new(config: DramConfig) -> Self {
        let mapper = AddressMapper::new(config.org, config.mapping);
        let channels = (0..config.org.channels)
            .map(|ch| {
                let mut ctrl = ChannelController::new(config.clone());
                // Track 0 is the PU clock domain; channel `ch` traces on
                // track 1 + ch so multi-channel timelines stay distinct.
                ctrl.set_trace_track(1 + ch as u32);
                ctrl
            })
            .collect();
        Self {
            config,
            mapper,
            channels,
            rr_next: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapper in effect.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Current bus cycle.
    pub fn now(&self) -> u64 {
        self.channels[0].now()
    }

    /// Attempts to enqueue `req`; returns `false` if the owning channel's
    /// queue is full.
    pub fn try_enqueue(&mut self, req: MemRequest) -> bool {
        let coord = self.mapper.decode(req.addr);
        self.channels[coord.channel].try_enqueue(req, coord)
    }

    /// Whether the owning channel currently has room for `req`.
    pub fn can_accept(&self, req: &MemRequest) -> bool {
        let ch = match self.channels.as_slice() {
            [only] => only,
            all => &all[self.mapper.decode(req.addr).channel],
        };
        if req.is_read() {
            ch.read_queue_len() < self.config.read_queue
        } else {
            ch.write_queue_len() < self.config.write_queue
        }
    }

    /// Advances every channel one bus cycle.
    pub fn tick(&mut self) {
        for ch in &mut self.channels {
            ch.tick();
        }
    }

    /// The earliest bus cycle strictly after `now` at which any channel's
    /// observable state can change (see
    /// [`ChannelController::next_event_cycle`]). `None` means every
    /// channel is inert, so any jump is safe.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.channels
            .iter()
            .filter_map(|c| c.next_event_cycle())
            .min()
    }

    /// Earliest `done_at` among in-flight responses on any channel.
    pub fn next_response_at(&self) -> Option<u64> {
        self.channels
            .iter()
            .filter_map(|c| c.next_response_at())
            .min()
    }

    /// Advances `ticks` bus cycles, jumping over provably event-free
    /// spans instead of simulating them cycle by cycle. Tick-exact: the
    /// resulting state (commands issued and their cycles, stats, trace
    /// samples, responses) is bit-identical to calling [`Self::tick`]
    /// `ticks` times, as long as no requests are enqueued and no
    /// responses popped in between — which is how the PU model drives it.
    ///
    /// Channels share no state, so each advances independently with its
    /// *own* event bound (tighter than the old lock-step global minimum:
    /// one channel's event no longer forces the others through a real
    /// tick). The skip bound is cached channel-side (see
    /// [`ChannelController::advance_to`]), so the short spans the PU model
    /// requests cycle by cycle don't each pay a bound re-derivation.
    pub fn advance(&mut self, ticks: u64) {
        let end = self.now() + ticks;
        for ch in &mut self.channels {
            ch.advance_to(end);
        }
    }

    /// Pops one completed response, round-robin across channels.
    pub fn pop_response(&mut self) -> Option<MemResponse> {
        let n = self.channels.len();
        for i in 0..n {
            let idx = (self.rr_next + i) % n;
            if let Some(resp) = self.channels[idx].pop_response() {
                self.rr_next = (idx + 1) % n;
                return Some(resp);
            }
        }
        None
    }

    /// Drains every response completed so far.
    pub fn drain_responses(&mut self) -> Vec<MemResponse> {
        let mut out = Vec::new();
        while let Some(r) = self.pop_response() {
            out.push(r);
        }
        out
    }

    /// Whether every channel is idle (queues empty, no in-flight bursts).
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> DramStats {
        let mut agg = DramStats::new();
        for ch in &self.channels {
            agg.merge(ch.stats());
        }
        agg
    }

    /// Statistics of one channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_stats(&self, channel: usize) -> &DramStats {
        self.channels[channel].stats()
    }

    /// The recorded command stream of one channel (empty unless
    /// [`DramConfig::log_commands`] is set).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn command_log(&self, channel: usize) -> &[crate::CommandRecord] {
        self.channels[channel].command_log()
    }

    /// Re-validates every channel's recorded command stream offline with
    /// an independent [`crate::ProtocolChecker`] (requires
    /// [`DramConfig::log_commands`]).
    ///
    /// # Errors
    ///
    /// Returns the first violation found, tagged with its channel.
    pub fn verify_command_logs(&self) -> Result<(), (usize, crate::ProtocolViolation)> {
        for (ch, controller) in self.channels.iter().enumerate() {
            crate::ProtocolChecker::check_trace(controller.command_log(), &self.config)
                .map_err(|v| (ch, v))?;
        }
        Ok(())
    }

    /// Ends instrumentation and returns the merged trace report of all
    /// channels, or `None` when tracing is off (see
    /// [`crate::DramConfig::trace`]). Channels record nothing afterwards.
    pub fn take_trace_report(&mut self) -> Option<menda_trace::TraceReport> {
        let mut merged: Option<menda_trace::TraceReport> = None;
        for ch in &mut self.channels {
            if let Some(report) = ch.take_trace_report() {
                merged.get_or_insert_with(Default::default).merge(report);
            }
        }
        merged
    }

    /// Serializes the full dynamic state of every channel plus the
    /// response round-robin cursor: the system's [`Snap`] encoding.
    pub fn save_state(&self, enc: &mut crate::snap::Encoder) {
        self.save(enc);
    }

    /// Restores state saved by [`MemorySystem::save_state`] onto a system
    /// freshly constructed from the *same* config.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::snap::SnapError`] on truncated or out-of-domain
    /// bytes; the system must then be discarded (no partial restore).
    pub fn restore_state(
        &mut self,
        dec: &mut crate::snap::Decoder<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        self.load(dec)
    }

    /// Post-load check: the round-robin cursor names a channel.
    fn restored(&mut self) -> Result<(), crate::snap::SnapError> {
        if self.rr_next >= self.channels.len() {
            return Err(crate::snap::SnapError::BadValue);
        }
        Ok(())
    }

    /// Achieved bandwidth in GB/s over the simulation so far.
    pub fn utilized_bandwidth_gbs(&self) -> f64 {
        self.stats()
            .utilized_bandwidth_gbs(self.config.clock_mhz, self.config.org.transaction_bytes)
    }

    /// Fraction of data-bus cycles carrying a burst, averaged over
    /// channels (the aggregated [`DramStats::bus_utilization`] sums busy
    /// cycles across channels and would exceed 1.0 on multi-channel
    /// systems).
    pub fn bus_utilization(&self) -> f64 {
        let s = self.stats();
        if s.cycles == 0 {
            return 0.0;
        }
        s.bus_busy_cycles as f64 / (s.cycles as f64 * self.channels.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReqKind;

    fn no_refresh(channels: usize) -> DramConfig {
        let mut c = DramConfig::ddr4_2400r().with_channels(channels);
        c.refresh_enabled = false;
        c
    }

    #[test]
    fn requests_route_to_channels() {
        let mut mem = MemorySystem::new(no_refresh(2));
        assert!(mem.try_enqueue(MemRequest::read(0, 0)));
        assert!(mem.try_enqueue(MemRequest::read(64, 1)));
        assert_eq!(mem.channel_stats(0).cycles, 0);
        for _ in 0..100 {
            mem.tick();
        }
        let resp = mem.drain_responses();
        assert_eq!(resp.len(), 2);
        assert!(mem.is_idle());
    }

    #[test]
    fn two_channels_double_throughput() {
        let run = |channels: usize| -> u64 {
            let mut mem = MemorySystem::new(no_refresh(channels));
            let total = 256u64;
            let mut sent = 0u64;
            let mut got = 0u64;
            let mut cycles = 0u64;
            while got < total {
                while sent < total {
                    // Stride across rows to create bank parallelism.
                    let addr = sent * 64;
                    if mem.try_enqueue(MemRequest::read(addr, sent)) {
                        sent += 1;
                    } else {
                        break;
                    }
                }
                mem.tick();
                cycles += 1;
                while mem.pop_response().is_some() {
                    got += 1;
                }
                assert!(cycles < 100_000, "deadlock");
            }
            cycles
        };
        let one = run(1);
        let two = run(2);
        assert!(
            (two as f64) < 0.7 * one as f64,
            "2ch {two} cycles not much faster than 1ch {one}"
        );
    }

    #[test]
    fn bandwidth_is_bounded_by_peak() {
        let mut mem = MemorySystem::new(no_refresh(1));
        let mut sent = 0u64;
        for _ in 0..5000 {
            let addr = sent * 64;
            if mem.try_enqueue(MemRequest::read(addr, sent)) {
                sent += 1;
            }
            mem.tick();
            while mem.pop_response().is_some() {}
        }
        let bw = mem.utilized_bandwidth_gbs();
        assert!(bw > 5.0, "streaming bandwidth too low: {bw}");
        assert!(bw <= mem.config().peak_bandwidth_gbs() + 1e-9);
    }

    /// Phased random traffic on four channels driven two ways —
    /// per-cycle `tick` and event-skipping `advance` — must produce
    /// identical responses, stats and per-channel command logs.
    #[test]
    fn multi_channel_advance_matches_per_tick_stepping() {
        let mk = || {
            let mut c = DramConfig::ddr4_2400r().with_channels(4);
            c.log_commands = true;
            MemorySystem::new(c)
        };
        let mut ticked = mk();
        let mut advanced = mk();
        let mut id = 0u64;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for phase in 0..40u64 {
            for _ in 0..8 {
                let addr = (rng() % (1 << 26)) & !63;
                let req = if rng() % 3 == 0 {
                    MemRequest::write(addr, id)
                } else {
                    MemRequest::read(addr, id)
                };
                id += 1;
                assert_eq!(ticked.try_enqueue(req), advanced.try_enqueue(req));
            }
            let span = 50 + (phase % 7) * 37;
            for _ in 0..span {
                ticked.tick();
            }
            advanced.advance(span);
            assert_eq!(
                ticked.drain_responses(),
                advanced.drain_responses(),
                "advance diverged in phase {phase}"
            );
        }
        assert_eq!(ticked.stats(), advanced.stats());
        for ch in 0..4 {
            assert_eq!(ticked.command_log(ch), advanced.command_log(ch));
        }
    }

    /// Snapshot a system mid-flight (requests queued, bursts in the air,
    /// refresh counters running, live checker on), restore onto a fresh
    /// system, and run both to quiescence: responses, stats and command
    /// logs must match bit for bit.
    #[test]
    fn save_restore_mid_flight_is_bit_identical() {
        let mut c = DramConfig::ddr4_2400r().with_channels(2);
        c.log_commands = true;
        c.check_protocol = true;
        let mut sys = MemorySystem::new(c.clone());
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for id in 0..48u64 {
            let addr = (rng() % (1 << 26)) & !63;
            let req = if rng() % 3 == 0 {
                MemRequest::write(addr, id)
            } else {
                MemRequest::read(addr, id)
            };
            sys.try_enqueue(req);
            if id % 6 == 5 {
                for _ in 0..7 {
                    sys.tick();
                }
            }
        }
        // Mid-burst, queues non-empty.
        assert!(!sys.is_idle());
        let mut enc = crate::snap::Encoder::new();
        sys.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = MemorySystem::new(c);
        let mut dec = crate::snap::Decoder::new(&bytes);
        restored.restore_state(&mut dec).expect("clean restore");
        assert!(dec.is_empty(), "trailing bytes after restore");
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for _ in 0..20_000 {
            sys.tick();
            restored.tick();
            got_a.extend(sys.drain_responses());
            got_b.extend(restored.drain_responses());
        }
        assert!(sys.is_idle());
        assert!(!got_a.is_empty());
        assert_eq!(got_a, got_b);
        assert_eq!(sys.stats(), restored.stats());
        for ch in 0..2 {
            assert_eq!(sys.command_log(ch), restored.command_log(ch));
        }
        sys.verify_command_logs().expect("original log clean");
        restored.verify_command_logs().expect("restored log clean");
    }

    /// Corrupting any single byte of a snapshot must yield a typed error
    /// or a decode that still never panics — no partial-restore crashes.
    #[test]
    fn corrupt_restore_never_panics() {
        let mut c = DramConfig::ddr4_2400r();
        c.log_commands = true;
        let mut sys = MemorySystem::new(c.clone());
        for id in 0..16u64 {
            sys.try_enqueue(MemRequest::read(id * 4096, id));
        }
        for _ in 0..40 {
            sys.tick();
        }
        let mut enc = crate::snap::Encoder::new();
        sys.save_state(&mut enc);
        let bytes = enc.into_bytes();
        // Truncations at every length.
        for cut in 0..bytes.len() {
            let mut fresh = MemorySystem::new(c.clone());
            let mut dec = crate::snap::Decoder::new(&bytes[..cut]);
            let _ = fresh.restore_state(&mut dec);
        }
        // Single-byte flips at a stride (full sweep is slow in debug).
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            let mut fresh = MemorySystem::new(c.clone());
            let mut dec = crate::snap::Decoder::new(&bad);
            let _ = fresh.restore_state(&mut dec);
        }
    }

    #[test]
    fn can_accept_tracks_occupancy() {
        let mut mem = MemorySystem::new(no_refresh(1));
        let probe = MemRequest::read(0, 999);
        assert!(mem.can_accept(&probe));
        for i in 0..32u64 {
            mem.try_enqueue(MemRequest::read(i << 20, i));
        }
        assert!(!mem.can_accept(&probe));
        assert!(mem.can_accept(&MemRequest::write(0, 1000)));
    }

    #[test]
    fn writes_and_reads_complete_in_mixed_stream() {
        let mut mem = MemorySystem::new(no_refresh(1));
        let mut reads = 0;
        let mut writes = 0;
        let mut sent = 0u64;
        while reads + writes < 100 {
            if sent < 100 {
                let req = if sent.is_multiple_of(2) {
                    MemRequest::read(sent * 4096, sent)
                } else {
                    MemRequest::write(sent * 4096 + 2048, sent)
                };
                if mem.try_enqueue(req) {
                    sent += 1;
                }
            }
            mem.tick();
            while let Some(r) = mem.pop_response() {
                match r.kind {
                    ReqKind::Read => reads += 1,
                    ReqKind::Write => writes += 1,
                }
            }
        }
        assert_eq!(reads, 50);
        assert_eq!(writes, 50);
    }
}
