//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests name an `op`; the server answers every line it receives —
//! malformed input gets a structured `error` response, never silence and
//! never a dead daemon. Responses carry a `type` plus an `ok` flag so
//! thin clients can switch on two fields only.
//!
//! ```text
//! → {"op": "ping"}
//! ← {"ok": true, "type": "pong"}
//! → {"op": "submit", "job": {"matrix": {"source": "table3", "name": "N1"}, "scale": 512}}
//! ← {"ok": true, "type": "accepted", "job_id": 1, "queued": 1}
//! ← {"ok": true, "type": "started", "job_id": 1}
//! ← {"ok": true, "type": "result", "job_id": 1, ..., "stats": {...}}
//! ```
//!
//! The `stats` object inside a successful `result` is the deterministic
//! [`JobOutcome::to_json`](menda_core::JobOutcome::to_json) serialization
//! and `stats_digest` is its FNV-1a digest: a wire-submitted job is
//! byte-identical to the same job run through `repro job`, and the digest
//! is the compact witness clients compare.

use menda_core::{Digest, JobError, JobOutcome, JobSpec};
use menda_trace::json::{escape, one_of, parse, Object};

/// Longest request line the server accepts, in bytes. Longer lines are
/// answered with an `error` response and skipped.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job for execution.
    Submit {
        /// The validated job description.
        job: Box<JobSpec>,
        /// Client-chosen label echoed back in the result.
        tag: Option<String>,
        /// Relative deadline in milliseconds (queue wait + execution).
        deadline_ms: Option<u64>,
    },
    /// Cancel a queued job by id (running jobs cannot be preempted).
    Cancel {
        /// The id returned by `accepted`.
        job_id: u64,
    },
    /// Server status snapshot.
    Status,
    /// Stop the server. `drain` (default) finishes queued jobs first;
    /// otherwise the queue is cancelled.
    Shutdown {
        /// Finish queued work before stopping.
        drain: bool,
    },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, unknown ops,
    /// missing/unknown fields, or an invalid embedded job description.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value =
            parse(line).map_err(|(pos, msg)| format!("malformed JSON: {msg} at byte {pos}"))?;
        let obj = Object::new(&value).ok_or("request must be a JSON object")?;
        let Ok(Some(name)) = obj.str("op") else {
            return Err("request must have a string 'op' field".into());
        };
        let Some((_, fields, build)) = OPS.iter().find(|(op, ..)| *op == name) else {
            let expected = one_of(OPS.iter().map(|(op, ..)| *op));
            return Err(format!("unknown op '{name}' (expected {expected})"));
        };
        obj.check(|key| key == "op" || fields.contains(&key))
            .map_err(|key| format!("unknown field '{key}' for op '{name}'"))?;
        build(obj)
    }
}

/// A request constructor: reads an op's fields from a request whose keys
/// are already checked.
type Build = fn(Object<'_>) -> Result<Request, String>;

/// Every op the daemon serves, in the order error messages list them:
/// its name, the fields it takes besides `op`, and its constructor.
const OPS: &[(&str, &[&str], Build)] = &[
    ("ping", &[], |_| Ok(Request::Ping)),
    ("submit", &["job", "tag", "deadline_ms"], |obj| {
        let job = obj.get("job").ok_or("submit requires a 'job' object")?;
        Ok(Request::Submit {
            job: Box::new(JobSpec::from_json(job).map_err(|e| e.to_string())?),
            tag: obj.str("tag")?.map(str::to_string),
            deadline_ms: obj.u64("deadline_ms")?,
        })
    }),
    ("cancel", &["job_id"], |obj| {
        let job_id = obj.u64("job_id")?.ok_or("cancel requires 'job_id'")?;
        Ok(Request::Cancel { job_id })
    }),
    ("status", &[], |_| Ok(Request::Status)),
    ("shutdown", &["drain"], |obj| {
        let drain = obj.bool("drain")?.unwrap_or(true);
        Ok(Request::Shutdown { drain })
    }),
];

/// Why a submit was turned away (the machine-readable `reason` of a
/// `rejected` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity — retry later (backpressure).
    QueueFull,
    /// The job's admitted cost exceeds the server's per-job cap.
    TooLarge,
    /// The requested deadline exceeds the server's maximum.
    BadDeadline,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// Cancel targeted a job that is not queued (unknown, already
    /// running, or already finished).
    NotQueued,
}

impl RejectReason {
    /// The stable identifier clients switch on.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TooLarge => "too_large",
            RejectReason::BadDeadline => "bad_deadline",
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::NotQueued => "not_queued",
        }
    }
}

/// Counters reported by a `status` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Queue depth right now.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs accepted since start.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed (validation-after-queue, panic, or expired
    /// deadline).
    pub failed: u64,
    /// Submits rejected (all reasons).
    pub rejected: u64,
    /// Queued jobs cancelled by request or non-drain shutdown.
    pub cancelled: u64,
    /// Results that could not be delivered (client went away mid-job).
    pub undeliverable: u64,
    /// Worker threads.
    pub workers: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Whether the server is draining.
    pub draining: bool,
}

/// A server response, serialized as exactly one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping`.
    Pong,
    /// The job was queued.
    Accepted {
        /// Server-assigned job id (unique per server lifetime).
        job_id: u64,
        /// Queue depth after the push.
        queued: usize,
    },
    /// The submit (or cancel) was turned away.
    Rejected {
        /// Machine-readable reason.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// A worker picked the job up.
    Started {
        /// The job.
        job_id: u64,
    },
    /// The job finished successfully.
    Result {
        /// The job.
        job_id: u64,
        /// Echo of the submit tag.
        tag: Option<String>,
        /// Wall milliseconds spent queued.
        queue_ms: u64,
        /// Wall milliseconds spent executing.
        run_ms: u64,
        /// Deterministic outcome JSON (embedded object).
        stats: String,
        /// FNV-1a digest of `stats` — the bit-identity witness.
        stats_digest: u64,
    },
    /// The job failed (bad job caught post-queue, caught panic, expired
    /// deadline, or cancellation).
    Failed {
        /// The job.
        job_id: u64,
        /// Echo of the submit tag.
        tag: Option<String>,
        /// What happened.
        error: String,
    },
    /// A request line could not be understood.
    Error {
        /// What was wrong with it.
        message: String,
    },
    /// Answer to `status`.
    Status(StatusSnapshot),
    /// Answer to `shutdown`, sent once the server has stopped.
    ShutdownAck {
        /// Jobs completed over the server's lifetime.
        completed: u64,
        /// Queued jobs cancelled by a non-drain shutdown.
        cancelled: u64,
    },
}

impl Response {
    /// Serializes the response as one JSON line (no trailing newline).
    pub fn serialize(&self) -> String {
        match self {
            Response::Pong => "{\"ok\": true, \"type\": \"pong\"}".into(),
            Response::Accepted { job_id, queued } => format!(
                "{{\"ok\": true, \"type\": \"accepted\", \"job_id\": {job_id}, \"queued\": {queued}}}"
            ),
            Response::Rejected { reason, detail } => format!(
                "{{\"ok\": false, \"type\": \"rejected\", \"reason\": \"{}\", \"detail\": \"{}\"}}",
                reason.label(),
                escape(detail)
            ),
            Response::Started { job_id } => {
                format!("{{\"ok\": true, \"type\": \"started\", \"job_id\": {job_id}}}")
            }
            Response::Result {
                job_id,
                tag,
                queue_ms,
                run_ms,
                stats,
                stats_digest,
            } => format!(
                concat!(
                    "{{\"ok\": true, \"type\": \"result\", \"job_id\": {}, {}",
                    "\"queue_ms\": {}, \"run_ms\": {}, \"stats_digest\": \"{:016x}\", ",
                    "\"stats\": {}}}"
                ),
                job_id,
                tag_field(tag),
                queue_ms,
                run_ms,
                stats_digest,
                stats
            ),
            Response::Failed { job_id, tag, error } => format!(
                "{{\"ok\": false, \"type\": \"result\", \"job_id\": {}, {}\"error\": \"{}\"}}",
                job_id,
                tag_field(tag),
                escape(error)
            ),
            Response::Error { message } => format!(
                "{{\"ok\": false, \"type\": \"error\", \"message\": \"{}\"}}",
                escape(message)
            ),
            Response::Status(s) => format!(
                concat!(
                    "{{\"ok\": true, \"type\": \"status\", \"draining\": {}, \"queued\": {}, ",
                    "\"running\": {}, \"submitted\": {}, \"completed\": {}, \"failed\": {}, ",
                    "\"rejected\": {}, \"cancelled\": {}, \"undeliverable\": {}, ",
                    "\"workers\": {}, \"queue_capacity\": {}}}"
                ),
                s.draining,
                s.queued,
                s.running,
                s.submitted,
                s.completed,
                s.failed,
                s.rejected,
                s.cancelled,
                s.undeliverable,
                s.workers,
                s.queue_capacity
            ),
            Response::ShutdownAck {
                completed,
                cancelled,
            } => format!(
                "{{\"ok\": true, \"type\": \"shutdown\", \"completed\": {completed}, \"cancelled\": {cancelled}}}"
            ),
        }
    }

    /// Builds a successful result response from a finished outcome.
    pub fn from_outcome(
        job_id: u64,
        tag: Option<String>,
        queue_ms: u64,
        run_ms: u64,
        outcome: &JobOutcome,
    ) -> Response {
        let stats = outcome.to_json();
        Response::Result {
            job_id,
            tag,
            queue_ms,
            run_ms,
            stats_digest: Digest::of(stats.as_bytes()),
            stats,
        }
    }

    /// Builds a failure result from a job error.
    pub fn from_job_error(job_id: u64, tag: Option<String>, err: &JobError) -> Response {
        Response::Failed {
            job_id,
            tag,
            error: err.to_string(),
        }
    }
}

fn tag_field(tag: &Option<String>) -> String {
    match tag {
        Some(t) => format!("\"tag\": \"{}\", ", escape(t)),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(Request::parse(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            Request::parse(r#"{"op": "status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            Request::parse(r#"{"op": "cancel", "job_id": 7}"#).unwrap(),
            Request::Cancel { job_id: 7 }
        );
        assert_eq!(
            Request::parse(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown { drain: true }
        );
        assert_eq!(
            Request::parse(r#"{"op": "shutdown", "drain": false}"#).unwrap(),
            Request::Shutdown { drain: false }
        );
        let r = Request::parse(
            r#"{"op": "submit", "tag": "t1", "deadline_ms": 500,
                "job": {"matrix": {"source": "table3", "name": "N1"}, "scale": 512}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                job,
                tag,
                deadline_ms,
            } => {
                assert_eq!(tag.as_deref(), Some("t1"));
                assert_eq!(deadline_ms, Some(500));
                assert_eq!(job.scale, 512);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        for (line, needle) in [
            ("", "malformed JSON"),
            ("{", "malformed JSON"),
            ("[]", "JSON object"),
            (r#"{"op": 5}"#, "op"),
            (r#"{"op": "fly"}"#, "unknown op"),
            (r#"{"op": "ping", "x": 1}"#, "unknown field"),
            (r#"{"op": "submit"}"#, "requires a 'job'"),
            (r#"{"op": "cancel"}"#, "job_id"),
            (r#"{"op": "cancel", "job_id": -1}"#, "non-negative"),
            (r#"{"op": "shutdown", "drain": 1}"#, "boolean"),
            (
                r#"{"op": "submit", "job": {"matrix": {"source": "table3", "name": "Z9"}}}"#,
                "Z9",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                err.contains(needle),
                "line {line:?}: {err:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn responses_serialize_as_parseable_json_lines() {
        let responses = [
            Response::Pong,
            Response::Accepted {
                job_id: 3,
                queued: 2,
            },
            Response::Rejected {
                reason: RejectReason::QueueFull,
                detail: "queue at capacity (4)".into(),
            },
            Response::Started { job_id: 3 },
            Response::Failed {
                job_id: 3,
                tag: Some("a \"quoted\" tag".into()),
                error: "deadline_exceeded".into(),
            },
            Response::Error {
                message: "bad\nline".into(),
            },
            Response::Status(StatusSnapshot {
                queued: 1,
                workers: 2,
                queue_capacity: 4,
                ..Default::default()
            }),
            Response::ShutdownAck {
                completed: 10,
                cancelled: 0,
            },
        ];
        for r in &responses {
            let line = r.serialize();
            assert!(!line.contains('\n'), "{line:?} must be one line");
            let v = parse(&line).expect("serialized response parses");
            assert!(v.get("ok").is_some());
            assert!(v.get("type").is_some());
        }
    }

    #[test]
    fn result_embeds_outcome_verbatim() {
        let spec = JobSpec::from_json_str(
            r#"{"matrix": {"source": "uniform", "dim": 32, "nnz": 64},
                "channels": 1, "ranks_per_channel": 1, "leaves": 4,
                "refresh": false, "threads": 1}"#,
        )
        .unwrap();
        let outcome = spec.execute().unwrap();
        let line = Response::from_outcome(9, None, 1, 2, &outcome).serialize();
        let v = parse(&line).unwrap();
        assert_eq!(
            v.get("stats_digest").unwrap().as_str().unwrap(),
            format!("{:016x}", outcome.digest())
        );
        // The embedded stats object is the outcome JSON verbatim.
        assert!(line.contains(&outcome.to_json()));
    }
}
