//! End-to-end tests for the simulation service: every protocol error
//! path answers with a structured error and the daemon keeps serving;
//! a wire-submitted job is bit-identical to the batch path; shutdown
//! drains cleanly; `loadgen` completes a small load test.
//!
//! Wire taxonomy (see `menda_server::protocol`): every response carries
//! `type` and `ok`; job terminations are `type: "result"` with
//! `ok: true` (stats) or `ok: false` (error string).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use menda_core::{Digest, JobKernel, JobSpec, MatrixSource};
use menda_server::{loadgen, LoadgenOptions, ServerConfig, ServerHandle, MAX_LINE_BYTES};
use menda_trace::json::{self, JsonValue, Object};

/// A test client: line-in/line-out over one connection. `recv` keeps the
/// raw line around for byte-level assertions.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    last_line: String,
}

impl Client {
    fn connect(server: &ServerHandle) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
            last_line: String::new(),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send");
    }

    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed connection unexpectedly");
        let value = json::parse(line.trim()).expect("response parses as JSON");
        self.last_line = line.trim().to_string();
        value
    }

    /// Receives lines until one has `type == kind`, skipping others
    /// (e.g. `started` progress lines).
    fn recv_type(&mut self, kind: &str) -> JsonValue {
        for _ in 0..100 {
            let value = self.recv();
            if type_of(&value) == kind {
                return value;
            }
        }
        panic!("never received a {kind:?} response");
    }

    /// Submits `spec`, waits through accepted/started, returns the
    /// terminal `result` line (ok or failed).
    fn run_job(&mut self, spec: &JobSpec) -> JsonValue {
        self.send(&format!("{{\"op\":\"submit\",\"job\":{}}}", spec.to_json()));
        let ack = self.recv();
        assert_eq!(type_of(&ack), "accepted", "submit not accepted: {ack:?}");
        self.recv_type("result")
    }
}

fn type_of(value: &JsonValue) -> String {
    value
        .get("type")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("response missing 'type': {value:?}"))
        .to_string()
}

fn is_ok(value: &JsonValue) -> bool {
    matches!(value.get("ok"), Some(JsonValue::Bool(true)))
}

fn start_server(config: ServerConfig) -> ServerHandle {
    ServerHandle::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

fn tiny_spec() -> JobSpec {
    let mut spec = JobSpec::new(MatrixSource::Uniform { dim: 64, nnz: 512 });
    spec.channels = 1;
    spec.ranks_per_channel = 1;
    spec.leaves = 16;
    spec.threads = Some(1);
    spec
}

#[test]
fn ping_status_and_roundtrip() {
    let mut server = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    client.send("{\"op\":\"ping\"}");
    assert_eq!(type_of(&client.recv()), "pong");

    let result = client.run_job(&tiny_spec());
    assert!(is_ok(&result), "job failed: {result:?}");
    assert!(Object::new(&result)
        .unwrap()
        .u64("run_ms")
        .unwrap()
        .is_some());

    client.send("{\"op\":\"status\"}");
    let status = client.recv_type("status");
    let status = Object::new(&status).unwrap();
    assert_eq!(status.u64("completed"), Ok(Some(1)));
    assert_eq!(status.u64("failed"), Ok(Some(0)));
    server.shutdown(true);
    server.join();
}

#[test]
fn wire_result_is_bit_identical_to_batch_path() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut spec = tiny_spec();
    spec.kernel = JobKernel::Spmv;
    spec.seed = 7;

    // Batch path: the same validated JobSpec executed in-process.
    let batch = spec.execute().expect("batch execution");
    let batch_stats = batch.to_json();
    let batch_digest = format!("{:016x}", Digest::of(batch_stats.as_bytes()));

    // Wire path: submitted over TCP to the daemon.
    let mut client = Client::connect(&server);
    let result = client.run_job(&spec);
    assert!(is_ok(&result), "wire job failed: {result:?}");
    let wire_digest = Object::new(&result).unwrap().str("stats_digest");
    assert_eq!(wire_digest, Ok(Some(batch_digest.as_str())));
    // The raw wire line embeds the batch stats JSON byte-for-byte.
    assert!(
        client.last_line.contains(&batch_stats),
        "wire stats must be byte-identical to the batch path:\nwire: {}\nbatch: {batch_stats}",
        client.last_line
    );
    server.shutdown(true);
    server.join();
}

#[test]
fn malformed_lines_get_structured_errors_and_daemon_survives() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    let bad_lines = [
        "this is not json",
        "{\"op\":\"submit\"}",
        "{\"op\":\"warp\"}",
        "{\"no_op_at_all\":1}",
        "[1,2,3]",
        "{\"op\":\"submit\",\"job\":{\"matrix\":{\"source\":\"uniform\",\"dim\":64,\"nnz\":512},\"kernel\":\"fft\"}}",
        "{\"op\":\"submit\",\"job\":{\"matrix\":{\"source\":\"uniform\",\"dim\":64,\"nnz\":512},\"backend\":\"gpu\"}}",
        "{\"op\":\"submit\",\"job\":{\"matrix\":{\"source\":\"table3\",\"name\":\"Z9\"}}}",
        "{\"op\":\"submit\",\"job\":{\"matrix\":{\"source\":\"uniform\",\"dim\":64,\"nnz\":512},\"bogus_field\":1}}",
        "{\"op\":\"cancel\"}",
    ];
    // Nesting just under the line cap: the parser's depth limit must
    // answer it before the connection thread's stack overflows.
    let deep = "[".repeat(MAX_LINE_BYTES - 1);
    for line in bad_lines.into_iter().chain([deep.as_str()]) {
        client.send(line);
        let response = client.recv();
        let shown = &line[..line.len().min(120)];
        assert_eq!(
            type_of(&response),
            "error",
            "line {shown:?} must answer a structured error, got {response:?}"
        );
        let message = Object::new(&response).unwrap().str("message");
        assert!(message.unwrap().is_some_and(|m| !m.is_empty()));
    }
    // Daemon still serves real work afterwards.
    let result = client.run_job(&tiny_spec());
    assert!(is_ok(&result));
    server.shutdown(true);
    server.join();
}

#[test]
fn oversized_job_and_bad_deadline_are_rejected() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        max_job_nnz: 1_000,
        max_deadline_ms: 10_000,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);

    let mut big = tiny_spec();
    big.matrix = MatrixSource::Uniform {
        dim: 4096,
        nnz: 100_000,
    };
    client.send(&format!("{{\"op\":\"submit\",\"job\":{}}}", big.to_json()));
    let response = client.recv();
    assert_eq!(type_of(&response), "rejected");
    let reason = Object::new(&response).unwrap().str("reason");
    assert_eq!(reason, Ok(Some("too_large")));

    client.send(&format!(
        "{{\"op\":\"submit\",\"job\":{},\"deadline_ms\":999999}}",
        tiny_spec().to_json()
    ));
    let response = client.recv();
    assert_eq!(type_of(&response), "rejected");
    let reason = Object::new(&response).unwrap().str("reason");
    assert_eq!(reason, Ok(Some("bad_deadline")));

    // Deadline of 1 ms expires in the queue behind real jobs: the
    // worker fails it without running it.
    for _ in 0..3 {
        client.send(&format!(
            "{{\"op\":\"submit\",\"job\":{}}}",
            tiny_spec().to_json()
        ));
    }
    client.send(&format!(
        "{{\"op\":\"submit\",\"job\":{},\"deadline_ms\":1}}",
        tiny_spec().to_json()
    ));
    let mut saw_deadline_failure = false;
    for _ in 0..30 {
        let value = client.recv();
        if type_of(&value) == "result" && !is_ok(&value) {
            let error = Object::new(&value).unwrap().str("error");
            assert!(error
                .unwrap()
                .is_some_and(|e| e.contains("deadline_exceeded")));
            saw_deadline_failure = true;
            break;
        }
    }
    assert!(saw_deadline_failure, "1 ms deadline job must fail");
    server.shutdown(true);
    server.join();
}

#[test]
fn queue_full_rejects_and_recovers() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    // Burst far past capacity: worker 1 + queue 1 can hold 2; the rest
    // of an 8-job burst must see queue_full at least once.
    let spec = tiny_spec();
    for _ in 0..8 {
        client.send(&format!("{{\"op\":\"submit\",\"job\":{}}}", spec.to_json()));
    }
    let mut accepted = 0;
    let mut queue_full = 0;
    let mut results = 0;
    while results < accepted || accepted + queue_full < 8 {
        let value = client.recv();
        match type_of(&value).as_str() {
            "accepted" => accepted += 1,
            "rejected" => {
                let reason = Object::new(&value).unwrap().str("reason");
                assert_eq!(reason, Ok(Some("queue_full")));
                queue_full += 1;
            }
            "result" => {
                assert!(is_ok(&value), "burst job failed: {value:?}");
                results += 1;
            }
            "started" => {}
            other => panic!("unexpected response type {other:?}"),
        }
    }
    assert!(queue_full > 0, "burst must hit backpressure");
    assert_eq!(results, accepted, "every accepted job must complete");

    // Recovery: queue drains, a fresh submit is accepted again.
    let result = client.run_job(&spec);
    assert!(is_ok(&result));
    server.shutdown(true);
    server.join();
}

#[test]
fn cancel_removes_queued_job_and_unknown_cancel_is_rejected() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    // Occupy the single worker with a job big enough to outlast the
    // cancel round-trip, then queue a tiny victim job behind it.
    let mut blocker = tiny_spec();
    blocker.matrix = MatrixSource::Uniform {
        dim: 2048,
        nnz: 65_536,
    };
    client.send(&format!(
        "{{\"op\":\"submit\",\"job\":{}}}",
        blocker.to_json()
    ));
    let first = client.recv_type("accepted");
    let first_id = Object::new(&first).unwrap().u64("job_id").unwrap().unwrap();
    client.send(&format!(
        "{{\"op\":\"submit\",\"job\":{}}}",
        tiny_spec().to_json()
    ));
    let second = client.recv_type("accepted");
    let victim_id = Object::new(&second)
        .unwrap()
        .u64("job_id")
        .unwrap()
        .unwrap();

    client.send(&format!("{{\"op\":\"cancel\",\"job_id\":{victim_id}}}"));
    // The cancel ack (type "accepted"), the victim's failure line and
    // job 1's result interleave; collect until all three are observed —
    // leaving the ack unread would desync the next round-trip below.
    let mut cancelled = false;
    let mut first_done = false;
    let mut acked = false;
    for _ in 0..20 {
        let value = client.recv();
        match type_of(&value).as_str() {
            "result" if !is_ok(&value) => {
                let value = Object::new(&value).unwrap();
                assert_eq!(value.u64("job_id"), Ok(Some(victim_id)));
                assert!(value
                    .str("error")
                    .unwrap()
                    .is_some_and(|e| e.contains("cancelled")));
                cancelled = true;
            }
            "result" => {
                assert_eq!(
                    Object::new(&value).unwrap().u64("job_id"),
                    Ok(Some(first_id))
                );
                first_done = true;
            }
            "accepted" => {
                assert_eq!(
                    Object::new(&value).unwrap().u64("job_id"),
                    Ok(Some(victim_id))
                );
                acked = true;
            }
            "started" => {}
            other => panic!("unexpected response type {other:?}"),
        }
        if cancelled && first_done && acked {
            break;
        }
    }
    assert!(cancelled && first_done && acked);

    client.send("{\"op\":\"cancel\",\"job_id\":424242}");
    let response = client.recv();
    assert_eq!(type_of(&response), "rejected");
    let reason = Object::new(&response).unwrap().str("reason");
    assert_eq!(reason, Ok(Some("not_queued")));
    server.shutdown(true);
    server.join();
}

#[test]
fn client_disconnect_mid_job_does_not_kill_daemon() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    {
        let mut doomed = Client::connect(&server);
        // Big enough that the job is still running when the dropped
        // socket's EOF has torn the connection down — a tiny job can
        // finish (and deliver) before the disconnect propagates.
        let mut orphan = tiny_spec();
        orphan.matrix = MatrixSource::Uniform {
            dim: 2048,
            nnz: 65_536,
        };
        doomed.send(&format!(
            "{{\"op\":\"submit\",\"job\":{}}}",
            orphan.to_json()
        ));
        doomed.recv_type("accepted");
        // Drop both halves: the client vanishes while its job runs.
    }
    // A second client still gets full service; the orphaned result is
    // absorbed into the undeliverable counter.
    let mut client = Client::connect(&server);
    let result = client.run_job(&tiny_spec());
    assert!(is_ok(&result));
    for _ in 0..200 {
        client.send("{\"op\":\"status\"}");
        let status = client.recv_type("status");
        let status = Object::new(&status).unwrap();
        if status.u64("undeliverable").unwrap() >= Some(1) && status.u64("running") == Ok(Some(0)) {
            server.shutdown(true);
            server.join();
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("orphaned job never accounted as undeliverable");
}

#[test]
fn oversized_line_is_rejected_without_closing_connection() {
    let mut server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(2 << 20));
    client.send(&huge);
    let response = client.recv();
    assert_eq!(type_of(&response), "error");
    let message = Object::new(&response).unwrap().str("message");
    assert!(message.unwrap().is_some_and(|m| m.contains("exceeds")));
    client.send("{\"op\":\"ping\"}");
    assert_eq!(type_of(&client.recv()), "pong");
    server.shutdown(true);
    server.join();
}

#[test]
fn shutdown_drains_queued_work_then_stops_accepting() {
    let server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    for _ in 0..3 {
        client.send(&format!(
            "{{\"op\":\"submit\",\"job\":{}}}",
            tiny_spec().to_json()
        ));
    }
    // A job can finish before the next one is admitted, so results that
    // arrive among the acceptances count toward the three checked below.
    let (mut accepted, mut results) = (0, 0);
    while accepted < 3 {
        let value = client.recv();
        match type_of(&value).as_str() {
            "accepted" => accepted += 1,
            "result" => {
                assert!(is_ok(&value));
                results += 1;
            }
            _ => {}
        }
    }
    // Drain from a second connection while jobs are queued.
    let mut admin = Client::connect(&server);
    admin.send("{\"op\":\"shutdown\",\"drain\":true}");
    let ack = admin.recv_type("shutdown");
    let completed = Object::new(&ack).unwrap().u64("completed");
    assert_eq!(completed, Ok(Some(3)), "drain must finish all 3");
    // All three results were delivered to the submitting client.
    for _ in 0..20 {
        if results == 3 {
            break;
        }
        let value = client.recv();
        if type_of(&value) == "result" {
            assert!(is_ok(&value));
            results += 1;
        }
    }
    assert_eq!(results, 3);
    server.join();
}

#[test]
fn submits_after_drain_are_rejected_shutting_down() {
    let server = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Hold the worker busy, start a drain, then try to submit.
    let mut client = Client::connect(&server);
    client.send(&format!(
        "{{\"op\":\"submit\",\"job\":{}}}",
        tiny_spec().to_json()
    ));
    client.recv_type("accepted");

    let admin = std::thread::spawn({
        let addr = server.local_addr();
        move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            writer
                .write_all(b"{\"op\":\"shutdown\",\"drain\":true}\n")
                .expect("send shutdown");
            let mut line = String::new();
            reader.read_line(&mut line).expect("ack");
        }
    });
    // Give the drain a moment to flip `accepting`.
    std::thread::sleep(Duration::from_millis(50));
    client.send(&format!(
        "{{\"op\":\"submit\",\"job\":{}}}",
        tiny_spec().to_json()
    ));
    let mut saw_reject = false;
    for _ in 0..10 {
        let value = client.recv();
        if type_of(&value) == "rejected" {
            let reason = Object::new(&value).unwrap().str("reason");
            assert_eq!(reason, Ok(Some("shutting_down")));
            saw_reject = true;
            break;
        }
    }
    assert!(saw_reject, "submit during drain must be rejected");
    admin.join().expect("admin thread");
    server.join();
}

/// `loadgen` end to end: an in-process daemon serves 24 jobs of the
/// deterministic mix over four pipelined connections, and the load
/// test's differential re-executions match the batch path. This checks
/// the wiring, not throughput; the CI server job runs 500 jobs against
/// the standalone daemon with the `loadgen` binary.
#[test]
fn loadgen_completes_a_small_load_test() {
    let mut server = start_server(ServerConfig {
        workers: 0, // one per core
        queue_capacity: 32,
        ..ServerConfig::default()
    });
    let report = loadgen::run(&LoadgenOptions {
        addr: server.local_addr().to_string(),
        connections: 4,
        jobs: 24,
        window: 4,
        scale: 512,
        deadline_ms: None,
        verify_every: 25,
    });
    server.shutdown(true);
    server.join();
    let report = report.expect("load test runs");
    let json = report.to_json();
    assert!(json.contains("\"completed\":24"), "bad report: {json}");
    assert!(json.contains("\"failed\":0"), "jobs failed: {json}");
    assert!(json.contains("\"diverged\":0"), "divergence: {json}");
    assert!(report.verified > 0, "no differential check ran: {json}");
}
