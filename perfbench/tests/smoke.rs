//! The smoke mode runs one fully checked operation of every workload.

use std::path::Path;

#[test]
fn smoke_runs_one_operation_of_each_workload() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let outcome = spb_perfbench::smoke(&root).expect("set-up succeeds");
    assert_eq!(outcome.attempted, 4);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
}
