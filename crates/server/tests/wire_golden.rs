//! Golden wire strings.
//!
//! `JobSpec::to_json` is the canonical form of a job: the daemon echoes
//! it inside every result, `JobOutcome` digests cover it, and clients
//! build submit lines from it. This suite pins its exact bytes for specs
//! that together set every field to a non-default value, use all five
//! matrix sources (`banded` with a fractional `scatter`), every kernel,
//! backend and DRAM profile label, both trace modes, and `threads` both
//! absent and present. Each pinned string must parse back to the spec
//! that printed it. One valid line per protocol op must parse to the
//! expected `Request`.
//!
//! Changing a pinned string is a wire-format change, never a refresh: a
//! rework of the parser or the printer must leave every string here as
//! it is.

use menda_core::{BackendKind, DramProfile, JobKernel, JobSpec, MatrixSource};
use menda_server::Request;

/// Every field set away from its default, on a banded source.
fn every_field() -> JobSpec {
    let mut spec = JobSpec::new(MatrixSource::Banded {
        dim: 4096,
        nnz: 65_536,
        half_bandwidth: 32,
        scatter: 0.375,
    });
    spec.scale = 16;
    spec.seed = 42;
    spec.kernel = JobKernel::Spmv;
    spec.backend = BackendKind::Pim;
    spec.channels = 2;
    spec.ranks_per_channel = 1;
    spec.leaves = 64;
    spec.prefetch_buffer_entries = 8;
    spec.prefetch = false;
    spec.coalescing = false;
    spec.frequency_mhz = 600;
    spec.threads = Some(3);
    spec.fast_forward = false;
    spec.dram = DramProfile::Hbm2;
    spec.refresh = false;
    spec.trace_counting = true;
    spec
}

/// The pinned cases: a spec and the exact JSON it prints.
fn cases() -> Vec<(JobSpec, &'static str)> {
    let defaults = JobSpec::new(MatrixSource::Table3("N1".into()));

    let mut table4 = JobSpec::new(MatrixSource::Table4("amazon".into()));
    table4.kernel = JobKernel::Spgemm;
    table4.dram = DramProfile::Lpddr4;
    table4.seed = 9_007_199_254_740_991;
    table4.scale = 256;

    let mut uniform = JobSpec::new(MatrixSource::Uniform { dim: 64, nnz: 512 });
    uniform.threads = Some(1);
    uniform.trace_counting = true;

    let mut rmat = JobSpec::new(MatrixSource::Rmat {
        dim: 1 << 20,
        nnz: 1 << 24,
    });
    rmat.backend = BackendKind::Pim;
    rmat.leaves = 2;

    let whole_scatter = JobSpec::new(MatrixSource::Banded {
        dim: 256,
        nnz: 2048,
        half_bandwidth: 8,
        scatter: 0.0,
    });

    vec![
        (
            every_field(),
            r#"{"matrix": {"source": "banded", "dim": 4096, "nnz": 65536, "half_bandwidth": 32, "scatter": 0.375}, "scale": 16, "seed": 42, "kernel": "spmv", "backend": "pim", "channels": 2, "ranks_per_channel": 1, "leaves": 64, "prefetch_buffer_entries": 8, "prefetch": false, "coalescing": false, "frequency_mhz": 600, "threads": 3, "fast_forward": false, "dram": "hbm2", "refresh": false, "trace": "counting"}"#,
        ),
        (
            defaults,
            r#"{"matrix": {"source": "table3", "name": "N1"}, "scale": 1, "seed": 1, "kernel": "transpose", "backend": "menda", "channels": 4, "ranks_per_channel": 2, "leaves": 1024, "prefetch_buffer_entries": 32, "prefetch": true, "coalescing": true, "frequency_mhz": 800, "fast_forward": true, "dram": "ddr4-2400", "refresh": true, "trace": "off"}"#,
        ),
        (
            table4,
            r#"{"matrix": {"source": "table4", "name": "amazon"}, "scale": 256, "seed": 9007199254740991, "kernel": "spgemm", "backend": "menda", "channels": 4, "ranks_per_channel": 2, "leaves": 1024, "prefetch_buffer_entries": 32, "prefetch": true, "coalescing": true, "frequency_mhz": 800, "fast_forward": true, "dram": "lpddr4", "refresh": true, "trace": "off"}"#,
        ),
        (
            uniform,
            r#"{"matrix": {"source": "uniform", "dim": 64, "nnz": 512}, "scale": 1, "seed": 1, "kernel": "transpose", "backend": "menda", "channels": 4, "ranks_per_channel": 2, "leaves": 1024, "prefetch_buffer_entries": 32, "prefetch": true, "coalescing": true, "frequency_mhz": 800, "threads": 1, "fast_forward": true, "dram": "ddr4-2400", "refresh": true, "trace": "counting"}"#,
        ),
        (
            rmat,
            r#"{"matrix": {"source": "rmat", "dim": 1048576, "nnz": 16777216}, "scale": 1, "seed": 1, "kernel": "transpose", "backend": "pim", "channels": 4, "ranks_per_channel": 2, "leaves": 2, "prefetch_buffer_entries": 32, "prefetch": true, "coalescing": true, "frequency_mhz": 800, "fast_forward": true, "dram": "ddr4-2400", "refresh": true, "trace": "off"}"#,
        ),
        (
            whole_scatter,
            r#"{"matrix": {"source": "banded", "dim": 256, "nnz": 2048, "half_bandwidth": 8, "scatter": 0}, "scale": 1, "seed": 1, "kernel": "transpose", "backend": "menda", "channels": 4, "ranks_per_channel": 2, "leaves": 1024, "prefetch_buffer_entries": 32, "prefetch": true, "coalescing": true, "frequency_mhz": 800, "fast_forward": true, "dram": "ddr4-2400", "refresh": true, "trace": "off"}"#,
        ),
    ]
}

#[test]
fn job_specs_print_pinned_bytes() {
    let mut wrong = Vec::new();
    for (spec, pinned) in cases() {
        let printed = spec.to_json();
        if printed != pinned {
            wrong.push(format!("printed {printed}\n pinned {pinned}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn pinned_strings_parse_back_to_their_specs() {
    for (spec, pinned) in cases() {
        assert_eq!(JobSpec::from_json_str(pinned), Ok(spec), "{pinned}");
    }
}

#[test]
fn matrix_names_print_escaped() {
    // Not a valid Table 3 name, so it only prints; the escape keeps the
    // echo well-formed whatever a spec built in code holds.
    let spec = JobSpec::new(MatrixSource::Table3("N\"1\\".into()));
    assert_eq!(
        spec.to_json(),
        r#"{"matrix": {"source": "table3", "name": "N\"1\\"}, "scale": 1, "seed": 1, "kernel": "transpose", "backend": "menda", "channels": 4, "ranks_per_channel": 2, "leaves": 1024, "prefetch_buffer_entries": 32, "prefetch": true, "coalescing": true, "frequency_mhz": 800, "fast_forward": true, "dram": "ddr4-2400", "refresh": true, "trace": "off"}"#
    );
}

#[test]
fn one_line_per_op_parses() {
    let mut job = JobSpec::new(MatrixSource::Table3("N1".into()));
    job.scale = 512;
    for (line, expected) in [
        (r#"{"op": "ping"}"#, Request::Ping),
        (r#"{"op": "status"}"#, Request::Status),
        (
            r#"{"op": "submit", "tag": "t1", "deadline_ms": 9007199254740991,
                "job": {"matrix": {"source": "table3", "name": "N1"}, "scale": 512}}"#,
            Request::Submit {
                job: Box::new(job),
                tag: Some("t1".into()),
                deadline_ms: Some(9_007_199_254_740_991),
            },
        ),
        (
            r#"{"op": "cancel", "job_id": 7}"#,
            Request::Cancel { job_id: 7 },
        ),
        (
            r#"{"op": "shutdown", "drain": false}"#,
            Request::Shutdown { drain: false },
        ),
    ] {
        assert_eq!(Request::parse(line), Ok(expected), "{line}");
    }
}
