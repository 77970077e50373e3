//! Host facts read from the operating system (64-bit Linux only).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the Linux process CPU clock: build it on 64-bit Linux");

/// C `struct timespec` on 64-bit Linux: two 64-bit fields.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, exited
/// threads included.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value with the layout of the C
    // `struct timespec` on 64-bit Linux (enforced by the cfg gate above),
    // and `CLOCK_PROCESS_CPUTIME_ID` is a clock id Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds [`reference_seconds`] takes on the reference host. Host times
/// are reported as they would read there: `seconds * REFERENCE_S /
/// reference`, with `reference` timed next to the measured work.
pub const REFERENCE_S: f64 = 0.010;

/// Times a fixed cache-bound reference kernel: sort 256 Ki seeded 64-bit
/// keys (2 MiB, one core's L2) and count every fourth key's high bits in a
/// hash table. Other tenants' cache contention slows it much as it slows
/// the simulator, while it never changes with the program, so dividing
/// by it cancels most of the host's slow and fast phases.
pub fn reference_seconds() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..1 << 18)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    keys.sort_unstable();
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(keys.len() / 4, BuildHasherDefault::default());
    for k in keys.iter().step_by(4) {
        *counts.entry(k >> 20).or_insert(0) += 1;
    }
    black_box((counts.len(), keys[keys.len() / 2]));
    t.elapsed().as_secs_f64()
}

/// Host seconds as they would read on the reference host.
pub fn normalize(seconds: f64, reference: f64) -> f64 {
    seconds * REFERENCE_S / reference
}

/// Where traced runs write their Chrome traces and layer tables.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_read() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_seconds() > before, "{x}");
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }

    #[test]
    fn normalization_cancels_a_uniform_slowdown() {
        assert!(reference_seconds() > 0.0);
        let quiet = normalize(0.5, REFERENCE_S);
        let slow = normalize(0.5 * 1.4, REFERENCE_S * 1.4);
        assert!((quiet - 0.5).abs() < 1e-12);
        assert!((slow - quiet).abs() < 1e-12);
    }
}
