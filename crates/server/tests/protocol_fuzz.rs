//! Seeded fuzzing of the two text parsers that face untrusted input:
//! [`Request::parse`] (every line a client sends the daemon) and
//! [`JobSpec::from_json_str`] (`repro job` files).
//!
//! Each probe mutates a valid input — byte flips, truncations, splices
//! of two inputs, deep nesting, huge/negative/fractional numbers,
//! duplicate keys, stray bytes — and feeds it to the parser. Every probe
//! must come back `Ok` or `Err`; a panic (or a stack overflow, which
//! aborts the test binary) fails the suite. A spec that does parse must
//! also survive a canonical round trip, so no accepted input can carry a
//! value its own serialization would change. The seed and probe counts
//! are fixed, so a failure reproduces exactly.

use menda_core::{BackendKind, JobKernel, JobSpec, MatrixSource};
use menda_server::Request;
use menda_sparse::rng::StdRng;
use menda_trace::json::MAX_DEPTH;

const SEED: u64 = 0x0F_0220;
const REQUEST_PROBES: usize = 20_000;
const SPEC_PROBES: usize = 10_000;

/// Valid specs covering every matrix source, kernel and backend, and
/// both optional-field shapes.
fn specs() -> Vec<JobSpec> {
    let mut out = Vec::new();
    let mut table3 = JobSpec::new(MatrixSource::Table3("N1".into()));
    table3.scale = 512;
    out.push(table3.clone());
    table3.kernel = JobKernel::Spmv;
    table3.threads = Some(2);
    table3.trace_counting = true;
    out.push(table3);
    let mut table4 = JobSpec::new(MatrixSource::Table4("amazon".into()));
    table4.backend = BackendKind::Pim;
    table4.scale = 256;
    out.push(table4);
    let mut uniform = JobSpec::new(MatrixSource::Uniform { dim: 64, nnz: 512 });
    uniform.kernel = JobKernel::Spgemm;
    uniform.leaves = 16;
    uniform.fast_forward = false;
    out.push(uniform);
    out.push(JobSpec::new(MatrixSource::Rmat {
        dim: 128,
        nnz: 1024,
    }));
    out.push(JobSpec::new(MatrixSource::Banded {
        dim: 256,
        nnz: 2048,
        half_bandwidth: 8,
        scatter: 0.125,
    }));
    out
}

/// Valid request lines for every op the daemon serves.
fn request_lines(specs: &[JobSpec]) -> Vec<String> {
    let mut lines = vec![
        r#"{"op":"ping"}"#.to_string(),
        r#"{"op":"status"}"#.to_string(),
        r#"{"op":"cancel","job_id":7}"#.to_string(),
        r#"{"op":"shutdown","drain":false}"#.to_string(),
    ];
    for (i, spec) in specs.iter().enumerate() {
        lines.push(format!(
            r#"{{"op":"submit","job":{},"tag":"t{i}","deadline_ms":{}}}"#,
            spec.to_json(),
            1000 * (i + 1)
        ));
    }
    // A tag escaped the way Python's `json.dumps` writes it: one UTF-16
    // surrogate pair per character outside the BMP.
    lines.push(format!(
        r#"{{"op":"submit","job":{},"tag":"\ud83d\ude00 \u00e9"}}"#,
        specs[0].to_json()
    ));
    lines
}

/// Number literals at the edges of what the integer fields accept.
const NUMBERS: &[&str] = &[
    "-1",
    "-0",
    "0",
    "0.5",
    "1.0",
    "1e2",
    "1e309",
    "-1e309",
    "1e-400",
    "9007199254740993",
    "18446744073709551616",
    "123456789012345678901234567890",
    "-",
    "1e",
    "0x10",
    "--1",
];

/// Fragments inserted at random offsets.
const FRAGMENTS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u0000", "\\ud800", "\\u12", "null", "true", "é",
    "→", "\u{0}", "\n", " ",
];

/// One random edit of `text`; `others` supplies splice partners.
fn mutate_once(rng: &mut StdRng, text: &str, others: &[String]) -> String {
    let bytes = text.as_bytes();
    let at = |rng: &mut StdRng| rng.random_range(0..bytes.len() + 1);
    let out: Vec<u8> = match rng.random_range(0..8) {
        // Byte flip.
        0 if !bytes.is_empty() => {
            let mut b = bytes.to_vec();
            let i = rng.random_range(0..b.len());
            b[i] ^= 1 << rng.random_range(0..8);
            b
        }
        // Truncation.
        1 => bytes[..at(rng)].to_vec(),
        // Splice: this input's prefix, another input's suffix.
        2 => {
            let other = others[rng.random_range(0..others.len())].as_bytes();
            let cut = rng.random_range(0..other.len() + 1);
            [&bytes[..at(rng)], &other[cut..]].concat()
        }
        // Deep nesting around the parser's cap.
        3 => {
            let depth = [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 10_000][rng.random_range(0..4)];
            let open = if rng.random_range(0..2) == 0 {
                "["
            } else {
                r#"{"k":"#
            };
            let i = at(rng);
            [&bytes[..i], open.repeat(depth).as_bytes(), &bytes[i..]].concat()
        }
        // Replace a run of digits with an edge-case number.
        4 => {
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            if digits.is_empty() {
                bytes.to_vec()
            } else {
                let start = digits[rng.random_range(0..digits.len())];
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                let n = NUMBERS[rng.random_range(0..NUMBERS.len())];
                [&bytes[..start], n.as_bytes(), &bytes[end..]].concat()
            }
        }
        // Duplicate a key: copy one `"key": value` member to the front
        // of the object that contains it.
        5 => {
            let keys: Vec<usize> = text.match_indices("\":").map(|(i, _)| i).collect();
            if keys.is_empty() {
                bytes.to_vec()
            } else {
                let colon = keys[rng.random_range(0..keys.len())];
                let start = text[..colon].rfind('"').unwrap_or(0);
                let end = text[colon..]
                    .find([',', '}'])
                    .map_or(text.len(), |j| colon + j);
                let open = text[..start].rfind('{').map_or(0, |j| j + 1);
                let member = format!("{},", &text[start..end]);
                [&bytes[..open], member.as_bytes(), &bytes[open..]].concat()
            }
        }
        // Stray fragment.
        6 => {
            let i = at(rng);
            let f = FRAGMENTS[rng.random_range(0..FRAGMENTS.len())];
            [&bytes[..i], f.as_bytes(), &bytes[i..]].concat()
        }
        // Deleted range.
        _ => {
            let a = at(rng);
            let b = a + rng.random_range(0..bytes.len() - a + 1);
            [&bytes[..a], &bytes[b..]].concat()
        }
    };
    // The daemon decodes lines lossily, so invalid UTF-8 reaches the
    // parser as replacement characters; do the same here.
    String::from_utf8_lossy(&out).into_owned()
}

/// One to four stacked edits of a random corpus entry.
fn mutate(rng: &mut StdRng, corpus: &[String]) -> String {
    let mut text = corpus[rng.random_range(0..corpus.len())].clone();
    for _ in 0..1 + rng.random_range(0..4) {
        text = mutate_once(rng, &text, corpus);
    }
    text
}

#[test]
fn corpus_parses() {
    let specs = specs();
    for spec in &specs {
        assert_eq!(JobSpec::from_json_str(&spec.to_json()).as_ref(), Ok(spec));
    }
    for line in request_lines(&specs) {
        assert!(
            Request::parse(&line).is_ok(),
            "corpus line rejected: {line}"
        );
    }
}

#[test]
fn mutated_request_lines_never_panic() {
    let corpus = request_lines(&specs());
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut accepted = 0usize;
    for probe in 0..REQUEST_PROBES {
        let line = mutate(&mut rng, &corpus);
        let parsed = std::panic::catch_unwind(|| Request::parse(&line))
            .unwrap_or_else(|_| panic!("probe {probe} panicked on {line:?}"));
        if let Ok(Request::Submit { job, .. }) = &parsed {
            let again = JobSpec::from_json_str(&job.to_json());
            assert_eq!(again.as_ref(), Ok(&**job), "probe {probe}: {line:?}");
        }
        accepted += usize::from(parsed.is_ok());
    }
    // Some mutations (a flipped tag letter, a changed deadline) keep a
    // line valid; if none did, the mutator would only be testing the
    // first syntax check.
    assert!(accepted > 0, "no mutated request parsed");
    assert!(accepted < REQUEST_PROBES, "every mutated request parsed");
}

#[test]
fn mutated_job_specs_never_panic() {
    let corpus: Vec<String> = specs().iter().map(JobSpec::to_json).collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5bec);
    let mut accepted = 0usize;
    for probe in 0..SPEC_PROBES {
        let text = mutate(&mut rng, &corpus);
        let parsed = std::panic::catch_unwind(|| JobSpec::from_json_str(&text))
            .unwrap_or_else(|_| panic!("probe {probe} panicked on {text:?}"));
        if let Ok(spec) = &parsed {
            let again = JobSpec::from_json_str(&spec.to_json());
            assert_eq!(again.as_ref(), Ok(spec), "probe {probe}: {text:?}");
            accepted += 1;
        }
    }
    assert!(accepted > 0, "no mutated spec parsed");
    assert!(accepted < SPEC_PROBES, "every mutated spec parsed");
}
