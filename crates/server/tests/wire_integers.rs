//! Wire integers are exact. A JSON number is an `f64`, which cannot tell
//! `2^53 + 1` from `2^53`, so every integer field accepts values up to
//! `2^53 - 1` and rejects `2^53` and above with the 53-bit message rather
//! than read a neighbouring value as a seed, job id or deadline.

use menda_core::{JobError, JobSpec};
use menda_server::Request;

const LARGEST: u64 = 9_007_199_254_740_991;
const REJECTED: [&str; 2] = ["9007199254740992", "9007199254740993"];
const MESSAGE: &str = "must be a non-negative integer representable in 53 bits";

#[test]
fn seed_is_exact_below_2_53() {
    let job = |seed: &str| {
        JobSpec::from_json_str(&format!(
            r#"{{"matrix": {{"source": "table3", "name": "N1"}}, "seed": {seed}}}"#
        ))
    };
    assert_eq!(job(&LARGEST.to_string()).map(|spec| spec.seed), Ok(LARGEST));
    for seed in REJECTED {
        assert_eq!(job(seed), Err(JobError::Parse(format!("'seed' {MESSAGE}"))));
    }
}

#[test]
fn job_id_is_exact_below_2_53() {
    let cancel = |id: &str| Request::parse(&format!(r#"{{"op": "cancel", "job_id": {id}}}"#));
    assert_eq!(
        cancel(&LARGEST.to_string()),
        Ok(Request::Cancel { job_id: LARGEST })
    );
    for id in REJECTED {
        assert_eq!(cancel(id), Err(format!("'job_id' {MESSAGE}")));
    }
}

#[test]
fn deadline_is_exact_below_2_53() {
    let submit = |ms: &str| {
        Request::parse(&format!(
            r#"{{"op": "submit", "deadline_ms": {ms},
                 "job": {{"matrix": {{"source": "table3", "name": "N1"}}}}}}"#
        ))
    };
    match submit(&LARGEST.to_string()) {
        Ok(Request::Submit { deadline_ms, .. }) => assert_eq!(deadline_ms, Some(LARGEST)),
        other => panic!("{other:?}"),
    }
    for ms in REJECTED {
        assert_eq!(submit(ms), Err(format!("'deadline_ms' {MESSAGE}")));
    }
}
