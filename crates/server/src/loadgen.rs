//! Offline load driver for the simulation service.
//!
//! Replays a queue of synthetic jobs against a running daemon over a set
//! of concurrent connections with windowed pipelining, retries
//! backpressure rejections, and reports throughput plus end-to-end
//! latency percentiles. A configurable fraction of completed jobs is
//! re-executed in-process through the batch path and compared
//! bit-for-bit against the wire result — the differential check the
//! service's correctness contract rests on.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use menda_core::{BackendKind, Digest, JobKernel, JobSpec, MatrixSource};
use menda_trace::json::{self, Object};

/// Load-driver knobs.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Daemon address, e.g. `127.0.0.1:7870`.
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total jobs to complete across all connections.
    pub jobs: usize,
    /// In-flight jobs per connection (pipelining window).
    pub window: usize,
    /// Matrix scale forwarded to each job (rows per generated matrix).
    pub scale: usize,
    /// Optional per-job deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Re-execute every `verify_every`-th completed job locally and
    /// compare digests (0 disables the differential check).
    pub verify_every: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7870".into(),
            connections: 4,
            jobs: 500,
            window: 4,
            scale: 512,
            deadline_ms: None,
            verify_every: 25,
        }
    }
}

/// The sixteen Table-3 matrices (codes N1–N8, P1–P8) paired with
/// alternating kernels: a deterministic mixed workload that exercises
/// generation, transpose and SpMV paths without any one job dominating
/// wall time.
const JOB_MATRICES: [&str; 16] = [
    "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
];

/// Builds the `i`-th job of the deterministic mix.
pub fn job_for_index(i: usize, scale: usize) -> JobSpec {
    let name = JOB_MATRICES[i % JOB_MATRICES.len()];
    let mut spec = JobSpec::new(MatrixSource::Table3(name.to_string()));
    spec.scale = scale;
    spec.seed = 1 + (i as u64 / JOB_MATRICES.len() as u64);
    spec.kernel = if (i / JOB_MATRICES.len()).is_multiple_of(2) {
        JobKernel::Transpose
    } else {
        JobKernel::Spmv
    };
    spec.backend = BackendKind::Menda;
    // Small PU array: load tests measure service scheduling, not
    // simulator scaling, and each job must stay in the tens of ms.
    spec.channels = 1;
    spec.ranks_per_channel = 2;
    spec.leaves = 64;
    spec.threads = Some(1);
    spec
}

/// Outcome of one driven job.
#[derive(Debug, Clone)]
struct JobRecord {
    latency_ms: f64,
    retries: u64,
}

/// Aggregated load-test report.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Jobs that returned a `result` line.
    pub completed: u64,
    /// Jobs that returned a `failed` line.
    pub failed: u64,
    /// Backpressure rejections that were retried (not failures).
    pub retried: u64,
    /// Differential checks run.
    pub verified: u64,
    /// Differential checks that mismatched (must be zero).
    pub diverged: u64,
    /// Total wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Completed jobs per second.
    pub throughput: f64,
    /// End-to-end latency percentiles in milliseconds.
    pub p50_ms: f64,
    /// 90th percentile latency.
    pub p90_ms: f64,
    /// 99th percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Connections used.
    pub connections: usize,
    /// Jobs requested.
    pub jobs: usize,
    /// Pipelining window per connection.
    pub window: usize,
    /// Matrix scale.
    pub scale: usize,
}

impl LoadgenReport {
    /// Serializes the report for `results/SERVER_8.json`.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"experiment\":\"server_load\",\"jobs\":{},\"connections\":{},",
                "\"window\":{},\"scale\":{},\"completed\":{},\"failed\":{},",
                "\"retried\":{},\"verified\":{},\"diverged\":{},",
                "\"wall_seconds\":{:.3},\"throughput_jobs_per_s\":{:.2},",
                "\"latency_ms\":{{\"p50\":{:.2},\"p90\":{:.2},\"p99\":{:.2},\"mean\":{:.2}}}}}"
            ),
            self.jobs,
            self.connections,
            self.window,
            self.scale,
            self.completed,
            self.failed,
            self.retried,
            self.verified,
            self.diverged,
            self.wall_seconds,
            self.throughput,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.mean_ms,
        )
    }
}

/// One in-flight submission on a connection.
struct Inflight {
    index: usize,
    submitted_at: Instant,
    retries: u64,
    job_id: Option<u64>,
}

/// Runs the load test. Connections run on threads; each keeps up to
/// `window` jobs in flight, resubmitting on `queue_full`.
///
/// # Errors
///
/// Returns a message when the daemon is unreachable or the protocol is
/// violated (missing fields, unparseable lines).
pub fn run(options: &LoadgenOptions) -> Result<LoadgenReport, String> {
    if options.connections == 0 || options.jobs == 0 || options.window == 0 {
        return Err("connections, jobs and window must all be nonzero".into());
    }
    let started = Instant::now();
    let mut handles = Vec::new();
    for conn in 0..options.connections {
        // Jobs are partitioned round-robin so the mix stays deterministic
        // regardless of scheduling.
        let indices: Vec<usize> = (0..options.jobs)
            .filter(|i| i % options.connections == conn)
            .collect();
        let options = options.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{conn}"))
                .spawn(move || drive_connection(&options, &indices))
                .map_err(|e| format!("spawn loadgen thread: {e}"))?,
        );
    }
    let mut records = Vec::with_capacity(options.jobs);
    let mut failed = 0;
    let mut verified = 0;
    let mut diverged = 0;
    for handle in handles {
        let part = handle
            .join()
            .map_err(|_| "loadgen connection thread panicked".to_string())??;
        records.extend(part.records);
        failed += part.failed;
        verified += part.verified;
        diverged += part.diverged;
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * (latencies.len() as f64 - 1.0)).round() as usize;
        latencies[rank.min(latencies.len() - 1)]
    };
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    Ok(LoadgenReport {
        completed: records.len() as u64,
        failed,
        retried: records.iter().map(|r| r.retries).sum(),
        verified,
        diverged,
        wall_seconds,
        throughput: records.len() as f64 / wall_seconds.max(1e-9),
        p50_ms: pct(50.0),
        p90_ms: pct(90.0),
        p99_ms: pct(99.0),
        mean_ms,
        connections: options.connections,
        jobs: options.jobs,
        window: options.window,
        scale: options.scale,
    })
}

struct ConnectionResult {
    records: Vec<JobRecord>,
    failed: u64,
    verified: u64,
    diverged: u64,
}

fn drive_connection(
    options: &LoadgenOptions,
    indices: &[usize],
) -> Result<ConnectionResult, String> {
    let stream =
        TcpStream::connect(&options.addr).map_err(|e| format!("connect {}: {e}", options.addr))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut result = ConnectionResult {
        records: Vec::with_capacity(indices.len()),
        failed: 0,
        verified: 0,
        diverged: 0,
    };
    let mut next = 0usize;
    let mut inflight: Vec<Inflight> = Vec::new();

    let submit = |writer: &mut TcpStream, index: usize, options: &LoadgenOptions| {
        let spec = job_for_index(index, options.scale);
        let deadline = options
            .deadline_ms
            .map_or(String::new(), |ms| format!(",\"deadline_ms\":{ms}"));
        let line = format!(
            "{{\"op\":\"submit\",\"tag\":\"job-{index}\",\"job\":{}{deadline}}}\n",
            spec.to_json()
        );
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("submit write: {e}"))
    };

    while result.records.len() + result.failed as usize + result.diverged as usize != indices.len()
        || !inflight.is_empty()
    {
        while inflight.len() < options.window && next < indices.len() {
            let index = indices[next];
            next += 1;
            submit(&mut writer, index, options)?;
            inflight.push(Inflight {
                index,
                submitted_at: Instant::now(),
                retries: 0,
                job_id: None,
            });
        }
        if inflight.is_empty() {
            break;
        }
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed connection with jobs in flight".into());
        }
        let raw = line.trim().to_string();
        let value = json::parse(&raw)
            .map_err(|(pos, msg)| format!("bad response line at byte {pos}: {msg}"))?;
        let response = Object::new(&value).ok_or("response is not a JSON object")?;
        let kind = response.str("type")?.ok_or("response missing \"type\"")?;
        let job_id = response.u64("job_id")?.ok_or("response missing \"job_id\"");
        match kind {
            "accepted" => {
                // Oldest submission without an id is the one just acked:
                // requests on one connection are answered in order.
                let id = job_id?;
                let slot = inflight
                    .iter_mut()
                    .find(|f| f.job_id.is_none())
                    .ok_or("accepted with no pending submit")?;
                slot.job_id = Some(id);
            }
            "rejected" => {
                let reason = response
                    .str("reason")?
                    .ok_or("response missing \"reason\"")?;
                let slot_pos = inflight
                    .iter()
                    .position(|f| f.job_id.is_none())
                    .ok_or("rejected with no pending submit")?;
                if reason == "queue_full" {
                    // Backpressure: retry the same job after a short
                    // backoff; retries are reported, not counted failed.
                    let index = inflight[slot_pos].index;
                    let retries = inflight[slot_pos].retries + 1;
                    inflight.remove(slot_pos);
                    if retries > 10_000 {
                        return Err("job retried 10k times; queue never drained".into());
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    submit(&mut writer, index, options)?;
                    inflight.push(Inflight {
                        index,
                        submitted_at: Instant::now(),
                        retries,
                        job_id: None,
                    });
                } else {
                    inflight.remove(slot_pos);
                    result.failed += 1;
                }
            }
            "started" => {}
            "result" if response.bool("ok") == Ok(Some(true)) => {
                let id = job_id?;
                let pos = inflight
                    .iter()
                    .position(|f| f.job_id == Some(id))
                    .ok_or_else(|| format!("result for unknown job {id}"))?;
                let flight = inflight.remove(pos);
                let latency_ms = flight.submitted_at.elapsed().as_secs_f64() * 1e3;
                if options.verify_every > 0 && flight.index.is_multiple_of(options.verify_every) {
                    result.verified += 1;
                    if !wire_matches_batch(&raw, response, flight.index, options.scale)? {
                        result.diverged += 1;
                        continue;
                    }
                }
                result.records.push(JobRecord {
                    latency_ms,
                    retries: flight.retries,
                });
            }
            "result" => {
                let id = job_id?;
                if let Some(pos) = inflight.iter().position(|f| f.job_id == Some(id)) {
                    inflight.remove(pos);
                }
                result.failed += 1;
            }
            "error" => {
                return Err(format!("protocol error from server: {raw}"));
            }
            other => return Err(format!("unexpected response type {other:?}")),
        }
    }
    Ok(result)
}

/// Differential check: re-executes the job locally through the batch
/// path and compares the FNV digest advertised on the wire plus the
/// embedded stats JSON (byte-for-byte, against the raw wire line).
fn wire_matches_batch(
    raw_line: &str,
    response: Object<'_>,
    index: usize,
    scale: usize,
) -> Result<bool, String> {
    let wire_digest = response
        .str("stats_digest")?
        .ok_or("response missing \"stats_digest\"")?;
    let spec = job_for_index(index, scale);
    let outcome = spec
        .execute()
        .map_err(|e| format!("local re-execution failed: {e}"))?;
    let local_stats = outcome.to_json();
    let local_digest = format!("{:016x}", Digest::of(local_stats.as_bytes()));
    Ok(wire_digest == local_digest && raw_line.contains(&local_stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_deterministic_and_valid() {
        for i in 0..40 {
            let a = job_for_index(i, 512);
            let b = job_for_index(i, 512);
            assert_eq!(a.to_json(), b.to_json());
            a.validate().expect("mix job validates");
        }
        // Kernel alternates per full rotation of the matrix list.
        assert_eq!(job_for_index(0, 512).kernel, JobKernel::Transpose);
        assert_eq!(job_for_index(16, 512).kernel, JobKernel::Spmv);
    }

    #[test]
    fn report_json_parses() {
        let report = LoadgenReport {
            completed: 500,
            failed: 0,
            retried: 12,
            verified: 20,
            diverged: 0,
            wall_seconds: 10.0,
            throughput: 50.0,
            p50_ms: 20.0,
            p90_ms: 40.0,
            p99_ms: 80.0,
            mean_ms: 25.0,
            connections: 4,
            jobs: 500,
            window: 4,
            scale: 512,
        };
        let parsed = json::parse(&report.to_json()).expect("report JSON parses");
        let report = Object::new(&parsed).expect("report is an object");
        assert_eq!(report.str("experiment"), Ok(Some("server_load")));
    }
}
