//! Server preemption seam: a job paused at quantum boundaries — live in
//! memory, or checkpointed and restored — must finish with a
//! [`JobOutcome`] byte-identical (JSON serialization and output digest)
//! to the uninterrupted run, both through the library seam
//! ([`JobSpec::execute_in_quanta`]) and through a live daemon
//! whose workers run with [`ServerConfig::preemption_quantum`] set. A
//! daemon with a quantum also stops an overdue job at the first quantum
//! boundary past its deadline.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::time::Duration;

use menda_core::{BackendKind, JobKernel, JobProgress, JobSpec, MatrixSource};
use menda_server::{ServerConfig, ServerHandle};
use menda_trace::json::{self, JsonValue};

fn base_spec() -> JobSpec {
    let mut spec = JobSpec::new(MatrixSource::Rmat { dim: 96, nnz: 768 });
    spec.channels = 1;
    spec.ranks_per_channel = 2;
    spec.leaves = 16;
    spec.prefetch_buffer_entries = 4;
    spec.threads = Some(1);
    spec.seed = 33;
    spec
}

/// The seam proof: quantum-sliced execution equals one-shot execution,
/// byte for byte, across kernels, backends and engine thread counts.
#[test]
fn preempted_outcome_is_byte_identical() {
    for threads in [1, 2] {
        for kernel in [JobKernel::Transpose, JobKernel::Spmv, JobKernel::Spgemm] {
            for backend in [BackendKind::Menda, BackendKind::Pim] {
                let mut spec = base_spec();
                spec.threads = Some(threads);
                spec.kernel = kernel;
                spec.backend = backend;
                let what = format!("{kernel:?}/{backend:?}/threads={threads}");
                let straight = spec.execute().expect("uninterrupted run");
                // A small quantum forces many pause/continue steps.
                let preempted = match spec.execute_in_quanta(400, |_| ControlFlow::Continue(())) {
                    Ok(ControlFlow::Continue(outcome)) => outcome,
                    other => panic!("{what}: preempted run did not finish: {other:?}"),
                };
                assert_eq!(
                    straight.to_json(),
                    preempted.to_json(),
                    "{what}: outcome JSON diverged across preemption"
                );
                assert_eq!(
                    straight.digest(),
                    preempted.digest(),
                    "{what}: outcome digest diverged across preemption"
                );
            }
        }
    }
}

/// The snapshot is a real externalizable artifact: pause, carry the
/// bytes across engine instances, resume, and chain further pauses.
#[test]
fn snapshot_round_trips_through_pause_chain() {
    let spec = base_spec();
    let straight = spec.execute().expect("uninterrupted run");
    let mut progress = spec.execute_to_cycle(300).expect("first quantum");
    let mut pause_at = 300;
    let mut hops = 0u32;
    let resumed = loop {
        match progress {
            JobProgress::Finished(outcome) => break outcome,
            JobProgress::Paused(snapshot) => {
                hops += 1;
                pause_at += 300;
                progress = spec
                    .resume_to_cycle(&snapshot, pause_at)
                    .expect("resume hop");
            }
        }
    };
    assert!(hops >= 2, "job too short to exercise chained pauses");
    assert_eq!(straight.to_json(), resumed.to_json());
}

/// A snapshot from one job must not restore into another.
#[test]
fn snapshot_rejected_for_different_job() {
    let spec = base_spec();
    let other = {
        let mut s = base_spec();
        s.seed = 34;
        s
    };
    let JobProgress::Paused(snapshot) = spec.execute_to_cycle(300).expect("pause") else {
        panic!("job finished before the pause target");
    };
    let err = other.resume(&snapshot).expect_err("must reject");
    assert!(
        err.to_string().contains("snapshot"),
        "unexpected error: {err}"
    );
    // The owning job still resumes fine.
    assert!(spec.resume(&snapshot).is_ok());
}

/// A daemon with the preemption quantum set serves byte-identical
/// results to the batch path.
#[test]
fn daemon_with_quantum_matches_batch() {
    let server = ServerHandle::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            preemption_quantum: Some(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");

    let spec = base_spec();
    let batch = spec.execute().expect("batch run");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{{\"op\":\"submit\",\"job\":{}}}\n", spec.to_json()).as_bytes())
        .expect("send");

    let result = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("recv") > 0, "hangup");
        let value = json::parse(line.trim()).expect("response parses");
        match value.get("type").and_then(JsonValue::as_str) {
            Some("result") => break value,
            Some(_) => continue,
            None => panic!("response missing 'type': {value:?}"),
        }
    };
    assert!(
        matches!(result.get("ok"), Some(JsonValue::Bool(true))),
        "job failed over the wire: {result:?}"
    );
    // The wire digest is computed over the outcome-JSON bytes, so
    // equality here is byte-identity of the full preempted outcome
    // against the batch outcome.
    let wire_digest = result
        .get("stats_digest")
        .and_then(JsonValue::as_str)
        .expect("stats_digest")
        .to_string();
    assert_eq!(wire_digest, format!("{:016x}", batch.digest()));
    let stats = result.get("stats").expect("stats object");
    let wire_cycles = stats
        .get("cycles")
        .and_then(JsonValue::as_num)
        .expect("cycles") as u64;
    assert_eq!(wire_cycles, batch.cycles);

    let mut server = server;
    server.shutdown(true);
    server.join();
}

/// Counting instrumentation runs in quanta too: a traced job on a daemon
/// with a preemption quantum returns the batch outcome byte for byte,
/// `trace_events` included.
#[test]
fn daemon_with_quantum_runs_traced_jobs_in_quanta() {
    let mut server = ServerHandle::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            preemption_quantum: Some(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut spec = base_spec();
    spec.trace_counting = true;
    let batch = spec.execute().expect("batch run");
    let events = batch.trace_events.expect("traced batch run counts events");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{{\"op\":\"submit\",\"job\":{}}}\n", spec.to_json()).as_bytes())
        .expect("send");
    let result = BufReader::new(stream)
        .lines()
        .map(|line| json::parse(&line.expect("recv")).expect("response parses"))
        .find(|v| v.get("type").and_then(JsonValue::as_str) == Some("result"))
        .expect("result line before hangup");
    // The digest covers the outcome-JSON bytes, `trace_events` included.
    let digest = format!("{:016x}", batch.digest());
    assert_eq!(
        result.get("stats_digest").and_then(JsonValue::as_str),
        Some(digest.as_str()),
        "traced job diverged over the wire: {result:?}"
    );
    let wire_events = result.get("stats").and_then(|s| s.get("trace_events"));
    assert_eq!(wire_events.and_then(JsonValue::as_num), Some(events as f64));

    server.shutdown(true);
    server.join();
}

/// A running job's deadline is enforced between quanta: a job whose
/// uninterrupted run takes far longer than its deadline (about 2 s and
/// 3M cycles in release on a 2-core Xeon, against 50 ms) fails mid-run at
/// a quantum boundary instead of running to completion, and the worker
/// serves the next job.
#[test]
fn daemon_stops_overdue_job_at_a_quantum_boundary() {
    const QUANTUM: u64 = 1000;
    let mut server = ServerHandle::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            preemption_quantum: Some(QUANTUM),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");

    let mut long = JobSpec::new(MatrixSource::Uniform {
        dim: 32_768,
        nnz: 524_288,
    });
    long.channels = 1;
    long.ranks_per_channel = 1;
    long.leaves = 64;
    long.threads = Some(1);
    long.fast_forward = false;

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut submit = |spec: &JobSpec, deadline: &str| {
        writer
            .write_all(
                format!(
                    "{{\"op\":\"submit\",\"job\":{}{deadline}}}\n",
                    spec.to_json()
                )
                .as_bytes(),
            )
            .expect("send");
    };
    let mut next_result = || loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("recv") > 0, "hangup");
        let value = json::parse(line.trim()).expect("response parses");
        if value.get("type").and_then(JsonValue::as_str) == Some("result") {
            break value;
        }
    };

    submit(&long, ",\"deadline_ms\":50");
    let failed = next_result();
    assert!(
        matches!(failed.get("ok"), Some(JsonValue::Bool(false))),
        "overdue job must fail: {failed:?}"
    );
    let error = failed
        .get("error")
        .and_then(JsonValue::as_str)
        .expect("error string");
    let cycle: u64 = error
        .strip_prefix("deadline_exceeded: stopped at cycle ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("job must stop mid-run, got: {error}"));
    assert!(
        cycle > 0 && cycle.is_multiple_of(QUANTUM),
        "must stop at a quantum boundary, got cycle {cycle}"
    );

    // The worker is free again and serves the next job to completion.
    submit(&base_spec(), "");
    let served = next_result();
    assert!(
        matches!(served.get("ok"), Some(JsonValue::Bool(true))),
        "follow-up job failed: {served:?}"
    );

    server.shutdown(true);
    server.join();
}
