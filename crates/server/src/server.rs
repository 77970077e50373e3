//! The resident daemon: acceptor, bounded job queue, worker pool.
//!
//! ```text
//!           TCP clients (line-delimited JSON)
//!                │ reader thread per connection
//!                ▼
//!   admission (parse → validate → cost/deadline caps)
//!                │ try_push
//!                ▼
//!        bounded FIFO queue ──▶ rejected{queue_full} when at capacity
//!                │ pop
//!                ▼
//!        worker pool (N threads) — JobSpec::execute (or, with a
//!        preemption quantum, JobSpec::execute_in_quanta), panics caught
//!                │ per-connection mpsc
//!                ▼
//!        writer thread per connection ──▶ client (one write per line,
//!                                           TCP_NODELAY)
//! ```
//!
//! Robustness rules:
//!
//! * **No untrusted panic paths.** Requests are parsed and validated by
//!   the non-panicking [`JobSpec`] path; the execution itself runs under
//!   `catch_unwind` so even a simulator bug fails one job, not the
//!   daemon.
//! * **Backpressure is explicit.** A full queue answers
//!   `rejected{queue_full}` immediately; clients retry. Nothing blocks
//!   the reader thread on queue space.
//! * **Deadlines are enforced at dispatch, between quanta and at
//!   completion.** A job whose deadline expired while queued is failed
//!   without running. With [`ServerConfig::preemption_quantum`] set, the
//!   worker runs every job in quanta, traced ones included, checks the
//!   deadline at every quantum boundary and stops an overdue job there,
//!   naming the cycle it stopped at. A job that finishes past its
//!   deadline is reported `deadline_exceeded` and its result discarded;
//!   without a quantum that is the only check a running job gets.
//! * **Cancellation is queue-level.** `cancel` removes a queued job; a
//!   running job is not cancelled and the cancel is rejected.
//! * **Disconnects are absorbed.** If the submitting client is gone when
//!   a result is ready, delivery fails silently into the `undeliverable`
//!   counter and the worker moves on.
//! * **Shutdown drains.** `shutdown` (drain mode) stops admission,
//!   finishes queued work, then stops workers and the acceptor;
//!   `drain: false` cancels the queue first.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use menda_core::JobSpec;

use crate::protocol::{RejectReason, Request, Response, StatusSnapshot, MAX_LINE_BYTES};

/// Tuning knobs of a server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing jobs (`0` = one per available core).
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it are rejected.
    pub queue_capacity: usize,
    /// Per-job size cap in simulated nonzeros
    /// ([`JobSpec::cost_nnz`]); larger jobs are rejected `too_large`.
    pub max_job_nnz: u64,
    /// Largest accepted `deadline_ms`.
    pub max_deadline_ms: u64,
    /// When set, workers execute every job in quanta of this many device
    /// cycles ([`JobSpec::execute_in_quanta`]) instead of one
    /// uninterrupted [`JobSpec::execute`]. The simulator state stays live
    /// in memory between quanta; each boundary is where the worker checks
    /// the job's deadline and stops it if overdue. Outcomes, trace event
    /// counts included, are byte-identical either way (the preemption
    /// suite asserts it).
    pub preemption_quantum: Option<u64>,
    /// Engine worker threads applied at admission to jobs that leave
    /// `threads` unset (`None` keeps the engine's own auto default).
    /// Simulated outcomes are bit-identical at every thread count —
    /// the per-PU fan-out only changes the wall clock — so
    /// this is purely a throughput knob.
    pub default_threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            max_job_nnz: 64_000_000,
            max_deadline_ms: 3_600_000,
            preemption_quantum: None,
            default_threads: None,
        }
    }
}

impl ServerConfig {
    /// The effective worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Lifetime counters (a superset of [`StatusSnapshot`]'s).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    cancelled: u64,
    undeliverable: u64,
}

/// One queued job.
struct QueuedJob {
    id: u64,
    tag: Option<String>,
    spec: JobSpec,
    deadline: Option<Duration>,
    enqueued_at: Instant,
    reply: mpsc::Sender<String>,
}

/// Mutex-guarded scheduler state.
struct QueueState {
    queue: VecDeque<QueuedJob>,
    /// New submits accepted.
    accepting: bool,
    /// Workers must exit once the queue is empty.
    stopping: bool,
    running: usize,
    next_job_id: u64,
    counters: Counters,
}

struct Shared {
    config: ServerConfig,
    state: Mutex<QueueState>,
    /// Signals workers that a job (or stop) is available.
    work: Condvar,
    /// Signals the drainer that queue+running hit zero.
    idle: Condvar,
}

impl Shared {
    fn snapshot(&self) -> StatusSnapshot {
        let s = self.state.lock().expect("state lock");
        StatusSnapshot {
            queued: s.queue.len(),
            running: s.running,
            submitted: s.counters.submitted,
            completed: s.counters.completed,
            failed: s.counters.failed,
            rejected: s.counters.rejected,
            cancelled: s.counters.cancelled,
            undeliverable: s.counters.undeliverable,
            workers: self.config.effective_workers(),
            queue_capacity: self.config.queue_capacity,
            draining: !s.accepting,
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown`] (or send a `shutdown` request) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the acceptor and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity),
                accepting: true,
                stopping: false,
                running: 0,
                next_job_id: 1,
                counters: Counters::default(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            config,
        });

        let workers = (0..shared.config.effective_workers())
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("menda-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("menda-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current status counters.
    pub fn status(&self) -> StatusSnapshot {
        self.shared.snapshot()
    }

    /// Initiates shutdown from the hosting process: drains if asked, then
    /// stops workers and the acceptor. Blocks until the drain completes.
    pub fn shutdown(&mut self, drain: bool) {
        initiate_shutdown(&self.shared, drain, self.addr);
    }

    /// Waits for the server to stop (after [`ServerHandle::shutdown`] or
    /// a client `shutdown` request).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Stops admission, optionally drains, then stops all threads. Returns
/// the number of jobs cancelled (non-drain mode).
fn initiate_shutdown(shared: &Arc<Shared>, drain: bool, addr: SocketAddr) -> u64 {
    let mut cancelled = 0;
    {
        let mut s = shared.state.lock().expect("state lock");
        s.accepting = false;
        if !drain {
            while let Some(job) = s.queue.pop_front() {
                let line = Response::Failed {
                    job_id: job.id,
                    tag: job.tag,
                    error: "cancelled: server shutting down".into(),
                }
                .serialize();
                let _ = job.reply.send(line);
                s.counters.cancelled += 1;
                cancelled += 1;
            }
        }
        while !s.queue.is_empty() || s.running > 0 {
            s = shared.idle.wait(s).expect("idle wait");
        }
        s.stopping = true;
        shared.work.notify_all();
    }
    // Unblock the acceptor's blocking accept() with a throwaway
    // connection; it observes `stopping` and exits.
    let _ = TcpStream::connect(addr);
    cancelled
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.state.lock().expect("state lock").stopping {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let addr = listener.local_addr().expect("listener addr");
        // Connection reader threads are detached: they exit when the
        // client disconnects or the shutdown ack is delivered.
        let _ = std::thread::Builder::new()
            .name("menda-conn".into())
            .spawn(move || handle_connection(stream, &shared, addr));
    }
}

/// Reads one `\n`-terminated line with a hard cap on its raw bytes.
/// Returns `Ok(None)` on EOF and `Err(())` when the line exceeds the cap
/// (the oversized remainder is drained so the connection can continue).
/// The bytes are decoded once the line is complete, so a multi-byte
/// character split across two reads survives intact.
fn read_line_capped(reader: &mut impl BufRead) -> Result<Option<String>, ()> {
    let mut bytes = Vec::new();
    let mut truncated = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(_) => return Ok(None),
        };
        if available.is_empty() {
            if bytes.is_empty() && !truncated {
                return Ok(None);
            }
            break;
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if !truncated && bytes.len() + take <= MAX_LINE_BYTES {
            bytes.extend_from_slice(&available[..take]);
        } else {
            truncated = true;
        }
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    if truncated {
        return Err(());
    }
    Ok(Some(String::from_utf8_lossy(&bytes).into_owned()))
}

/// In-band close marker from reader to writer: never a valid JSON line,
/// so it cannot collide with a real response.
const CLOSE_SENTINEL: &str = "\0";

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, addr: SocketAddr) {
    // Every response line goes out in one write; with Nagle on, a short
    // line could wait behind the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    // Dedicated writer: workers and the reader both enqueue lines. The
    // reader ends the writer with a sentinel when the client hangs up —
    // dropping the receiver — so a worker delivering a result to a gone
    // client gets a failed send and counts it undeliverable instead of
    // writing into a dead socket's kernel buffer.
    let writer = std::thread::Builder::new()
        .name("menda-conn-writer".into())
        .spawn(move || {
            let mut out = write_half;
            for mut line in rx {
                if line == CLOSE_SENTINEL {
                    return;
                }
                line.push('\n');
                if out.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
        })
        .expect("spawn writer");

    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_capped(&mut reader) {
            Ok(None) => break,
            Err(()) => {
                let resp = Response::Error {
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                };
                if tx.send(resp.serialize()).is_err() {
                    break;
                }
                continue;
            }
            Ok(Some(line)) => line,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let shutdown = handle_request(trimmed, shared, &tx, addr);
        if shutdown {
            break;
        }
    }
    let _ = tx.send(CLOSE_SENTINEL.to_string());
    drop(tx);
    let _ = writer.join();
}

/// Handles one request line; returns `true` when the connection should
/// close (after a shutdown ack).
fn handle_request(
    line: &str,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<String>,
    addr: SocketAddr,
) -> bool {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(message) => {
            let _ = tx.send(Response::Error { message }.serialize());
            return false;
        }
    };
    match request {
        Request::Ping => {
            let _ = tx.send(Response::Pong.serialize());
        }
        Request::Status => {
            let _ = tx.send(Response::Status(shared.snapshot()).serialize());
        }
        Request::Submit {
            job,
            tag,
            deadline_ms,
        } => {
            // admit() sends the accepted/rejected line itself before
            // waking a worker, so a fast job's `started` event cannot
            // overtake the acceptance on the wire.
            admit(shared, *job, tag, deadline_ms, tx);
        }
        Request::Cancel { job_id } => {
            let response = cancel(shared, job_id);
            let _ = tx.send(response.serialize());
        }
        Request::Shutdown { drain } => {
            let cancelled = initiate_shutdown(shared, drain, addr);
            let completed = shared.state.lock().expect("state lock").counters.completed;
            let _ = tx.send(
                Response::ShutdownAck {
                    completed,
                    cancelled,
                }
                .serialize(),
            );
            return true;
        }
    }
    false
}

fn admit(
    shared: &Arc<Shared>,
    mut spec: JobSpec,
    tag: Option<String>,
    deadline_ms: Option<u64>,
    tx: &mpsc::Sender<String>,
) {
    // The server-wide thread default applies only when the job didn't
    // choose; an explicit `threads` in the submission always wins.
    if spec.threads.is_none() {
        spec.threads = shared.config.default_threads;
    }
    let reject = |reason: RejectReason, detail: String, shared: &Arc<Shared>| {
        shared.state.lock().expect("state lock").counters.rejected += 1;
        let _ = tx.send(Response::Rejected { reason, detail }.serialize());
    };
    let cost = spec.cost_nnz();
    if cost > shared.config.max_job_nnz {
        return reject(
            RejectReason::TooLarge,
            format!(
                "job simulates {cost} nonzeros, cap is {}",
                shared.config.max_job_nnz
            ),
            shared,
        );
    }
    if let Some(ms) = deadline_ms {
        if ms == 0 || ms > shared.config.max_deadline_ms {
            return reject(
                RejectReason::BadDeadline,
                format!(
                    "deadline_ms must be in [1, {}], got {ms}",
                    shared.config.max_deadline_ms
                ),
                shared,
            );
        }
    }
    let mut s = shared.state.lock().expect("state lock");
    if !s.accepting {
        s.counters.rejected += 1;
        let _ = tx.send(
            Response::Rejected {
                reason: RejectReason::ShuttingDown,
                detail: "server is draining".into(),
            }
            .serialize(),
        );
        return;
    }
    if s.queue.len() >= shared.config.queue_capacity {
        s.counters.rejected += 1;
        let _ = tx.send(
            Response::Rejected {
                reason: RejectReason::QueueFull,
                detail: format!("queue at capacity ({})", shared.config.queue_capacity),
            }
            .serialize(),
        );
        return;
    }
    let job_id = s.next_job_id;
    s.next_job_id += 1;
    s.counters.submitted += 1;
    s.queue.push_back(QueuedJob {
        id: job_id,
        tag,
        spec,
        deadline: deadline_ms.map(Duration::from_millis),
        enqueued_at: Instant::now(),
        reply: tx.clone(),
    });
    let queued = s.queue.len();
    // The acceptance must be on the writer's channel before any worker
    // can emit `started` for this job: send it while still holding the
    // state lock, then wake a worker.
    let _ = tx.send(Response::Accepted { job_id, queued }.serialize());
    shared.work.notify_one();
}

fn cancel(shared: &Arc<Shared>, job_id: u64) -> Response {
    let mut s = shared.state.lock().expect("state lock");
    let Some(pos) = s.queue.iter().position(|j| j.id == job_id) else {
        s.counters.rejected += 1;
        return Response::Rejected {
            reason: RejectReason::NotQueued,
            detail: format!("job {job_id} is not queued (unknown, running or finished)"),
        };
    };
    let job = s.queue.remove(pos).expect("position just found");
    s.counters.cancelled += 1;
    let queued = s.queue.len();
    drop(s);
    // The submitter (possibly a different connection) learns via a
    // failed line; the canceller gets an ack.
    let line = Response::Failed {
        job_id: job.id,
        tag: job.tag,
        error: "cancelled".into(),
    }
    .serialize();
    let _ = job.reply.send(line);
    Response::Accepted { job_id, queued }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut s = shared.state.lock().expect("state lock");
            loop {
                if let Some(job) = s.queue.pop_front() {
                    s.running += 1;
                    break job;
                }
                if s.stopping {
                    return;
                }
                s = shared.work.wait(s).expect("work wait");
            }
        };
        let queue_wait = job.enqueued_at.elapsed();
        let response = if job.deadline.is_some_and(|d| queue_wait > d) {
            Response::Failed {
                job_id: job.id,
                tag: job.tag.clone(),
                error: format!(
                    "deadline_exceeded: waited {} ms in queue",
                    queue_wait.as_millis()
                ),
            }
        } else {
            let _ = job
                .reply
                .send(Response::Started { job_id: job.id }.serialize());
            let run_started = Instant::now();
            let result = match shared.config.preemption_quantum {
                Some(quantum) => job.spec.execute_in_quanta(quantum, |_| {
                    if job.deadline.is_some_and(|d| job.enqueued_at.elapsed() > d) {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                }),
                None => job.spec.execute().map(ControlFlow::Continue),
            };
            let run_wall = run_started.elapsed();
            let total = job.enqueued_at.elapsed();
            match result {
                Ok(ControlFlow::Break(cycle)) => Response::Failed {
                    job_id: job.id,
                    tag: job.tag.clone(),
                    error: format!(
                        "deadline_exceeded: stopped at cycle {cycle} after {} ms",
                        total.as_millis()
                    ),
                },
                Ok(ControlFlow::Continue(outcome)) => {
                    if job.deadline.is_some_and(|d| total > d) {
                        Response::Failed {
                            job_id: job.id,
                            tag: job.tag.clone(),
                            error: format!(
                                "deadline_exceeded: finished after {} ms",
                                total.as_millis()
                            ),
                        }
                    } else {
                        Response::from_outcome(
                            job.id,
                            job.tag.clone(),
                            queue_wait.as_millis() as u64,
                            run_wall.as_millis() as u64,
                            &outcome,
                        )
                    }
                }
                Err(err) => Response::from_job_error(job.id, job.tag.clone(), &err),
            }
        };
        let failed = matches!(response, Response::Failed { .. });
        let delivered = job.reply.send(response.serialize()).is_ok();
        let mut s = shared.state.lock().expect("state lock");
        s.running -= 1;
        if failed {
            s.counters.failed += 1;
        } else {
            s.counters.completed += 1;
        }
        if !delivered {
            s.counters.undeliverable += 1;
        }
        if s.queue.is_empty() && s.running == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that, like a socket delivering a line in many small
    /// reads, hands out one byte per `fill_buf`.
    fn byte_at_a_time(text: &str) -> BufReader<&[u8]> {
        BufReader::with_capacity(1, text.as_bytes())
    }

    #[test]
    fn split_multibyte_characters_survive_line_reads() {
        let mut reader = byte_at_a_time("{\"tag\":\"é→😀\"}\nnext");
        let line = read_line_capped(&mut reader).expect("under the cap");
        assert_eq!(line.as_deref(), Some("{\"tag\":\"é→😀\"}\n"));
        let tail = read_line_capped(&mut reader).expect("under the cap");
        assert_eq!(tail.as_deref(), Some("next"));
        assert_eq!(read_line_capped(&mut reader), Ok(None));

        let long = format!("{}\nok\n", "é".repeat(MAX_LINE_BYTES));
        let mut reader = byte_at_a_time(&long);
        assert_eq!(read_line_capped(&mut reader), Err(()));
        assert_eq!(read_line_capped(&mut reader), Ok(Some("ok\n".into())));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.queue_capacity > 0);
        assert!(c.effective_workers() >= 1);
        assert!(ServerConfig { workers: 3, ..c }.effective_workers() == 3);
    }
}
