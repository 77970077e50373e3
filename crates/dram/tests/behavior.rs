//! Behavioral tests of scheduler and cache-scaling details that the unit
//! tests do not reach.

use menda_dram::cpu_mode::{CoreTrace, CpuMode, CpuModeConfig};
use menda_dram::{DramConfig, MemRequest, MemorySystem, ReqKind};

fn no_refresh() -> DramConfig {
    let mut c = DramConfig::ddr4_2400r();
    c.refresh_enabled = false;
    c
}

/// FR-FCFS-PriorHit at the system level: a younger row hit overtakes an
/// older row miss.
#[test]
fn younger_row_hit_overtakes_older_miss() {
    let mut mem = MemorySystem::new(no_refresh());
    // Warm a row.
    assert!(mem.try_enqueue(MemRequest::read(0, 0)));
    loop {
        mem.tick();
        if mem.pop_response().is_some() {
            break;
        }
    }
    // Older request: different row in the same bank (miss). Younger: the
    // warm row (hit).
    let row_stride = 64 * 128 * 16;
    assert!(mem.try_enqueue(MemRequest::read(row_stride as u64, 1)));
    assert!(mem.try_enqueue(MemRequest::read(64, 2)));
    let mut order = Vec::new();
    while order.len() < 2 {
        mem.tick();
        while let Some(r) = mem.pop_response() {
            order.push(r.id);
        }
    }
    assert_eq!(order, vec![2, 1], "row hit should complete first");
}

/// Writes never starve: even under a continuous read stream, queued
/// writes eventually retire.
#[test]
fn writes_retire_under_read_pressure() {
    let mut mem = MemorySystem::new(no_refresh());
    for i in 0..24u64 {
        assert!(mem.try_enqueue(MemRequest::write((1 << 26) + i * 64, 1000 + i)));
    }
    let mut reads_sent = 0u64;
    let mut writes_done = 0;
    let mut cycles = 0u64;
    while writes_done < 24 {
        // Saturating read stream.
        if mem.try_enqueue(MemRequest::read(reads_sent * 64, reads_sent)) {
            reads_sent += 1;
        }
        mem.tick();
        cycles += 1;
        while let Some(r) = mem.pop_response() {
            if r.kind == ReqKind::Write {
                writes_done += 1;
            }
        }
        assert!(cycles < 500_000, "writes starved");
    }
}

/// Store-to-load forwarding returns the line before the write itself has
/// drained to the array.
#[test]
fn forwarding_beats_write_completion() {
    let mut mem = MemorySystem::new(no_refresh());
    assert!(mem.try_enqueue(MemRequest::write(4096, 1)));
    assert!(mem.try_enqueue(MemRequest::read(4096 + 16, 2))); // same line
    let mut first = None;
    for _ in 0..200 {
        mem.tick();
        if let Some(r) = mem.pop_response() {
            first = Some(r);
            break;
        }
    }
    let first = first.expect("response");
    assert_eq!(first.id, 2);
    assert_eq!(first.kind, ReqKind::Read);
}

/// Scaling the caches down makes a repeated-sweep trace slower (its
/// working set stops fitting), while leaving a tiny-working-set trace
/// unaffected.
#[test]
fn cache_scale_controls_working_set_fit() {
    let sweep = |lines: u64| -> CoreTrace {
        let mut t = CoreTrace::new();
        for _ in 0..4 {
            for i in 0..lines {
                t.access(2, i * 64, false);
            }
        }
        t
    };
    // 1024 lines = 64 KB: fits the full L2+L3, not the 1/64-scaled ones.
    let big = sweep(1024);
    let full = CpuMode::new(no_refresh(), CpuModeConfig::default()).run(vec![big.clone()]);
    let scaled = CpuMode::new(no_refresh(), CpuModeConfig::with_cache_scale(64)).run(vec![big]);
    assert!(
        scaled.dram.reads > 2 * full.dram.reads,
        "scaled caches {} reads vs full {}",
        scaled.dram.reads,
        full.dram.reads
    );
    // 8 lines always fit (minimum cache is ways * block).
    let tiny = sweep(8);
    let full_t = CpuMode::new(no_refresh(), CpuModeConfig::default()).run(vec![tiny.clone()]);
    let scaled_t = CpuMode::new(no_refresh(), CpuModeConfig::with_cache_scale(64)).run(vec![tiny]);
    assert_eq!(full_t.dram.reads, scaled_t.dram.reads);
}
