//! A `JobSpec` pins its own trace setting. `MENDA_TRACE` in the
//! environment must not turn tracing on in the ranks' DRAM simulators,
//! where the checkpoint layer would refuse every pause's snapshot.
//!
//! This binary holds a single test because it sets the variable for the
//! whole process: any other test built into it would read it too.

use menda_core::{JobProgress, JobSpec, MatrixSource};

#[test]
fn execute_to_cycle_pauses_with_menda_trace_set() {
    std::env::set_var("MENDA_TRACE", "counting");
    let mut spec = JobSpec::new(MatrixSource::Uniform { dim: 64, nnz: 512 });
    spec.channels = 1;
    spec.ranks_per_channel = 2;
    spec.leaves = 16;
    spec.threads = Some(1);

    let finished = spec.execute().unwrap();
    let pause = finished.cycles / 2;
    let JobProgress::Paused(snapshot) = spec.execute_to_cycle(pause).unwrap() else {
        panic!("no pause at cycle {pause}");
    };
    let resumed = spec.resume_to_cycle(&snapshot, u64::MAX).unwrap();
    assert_eq!(resumed.finished(), Some(finished));
    assert!(!spec.build_config().unwrap().dram.trace.enabled());
}
