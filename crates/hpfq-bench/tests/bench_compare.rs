//! The `bench_compare` gate on PIFO dispatch rows. The bench harness emits
//! only PIFO rows (`<name>/pifo`); each must still be gated against the
//! hand-rolled `<name>` row that the committed baseline holds.

use std::path::PathBuf;
use std::process::Command;

use hpfq_bench::microbench::{parse_bench_json, records_to_json, BenchRecord};

fn dispatch(name: &str, ns: f64) -> BenchRecord {
    BenchRecord::reported("dispatch", name, 64, ns)
}

fn write(file: &str, records: &[BenchRecord]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, records_to_json(&[], records)).unwrap();
    path
}

/// Runs `bench_compare --deny` and returns (passed, stdout).
fn compare(baseline: &PathBuf, current: &PathBuf) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(baseline)
        .arg(current)
        .args(["--threshold", "15", "--deny"])
        .output()
        .unwrap();
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn pifo_only_run_is_gated_against_the_hand_rolled_baseline() {
    // The committed `/pifo` row moved with the PIFO code, so only the
    // hand-rolled row can catch this regression.
    let baseline = write(
        "compare_baseline.json",
        &[
            dispatch("wf2q+/depth1", 100.0),
            dispatch("wf2q+/depth1/pifo", 120.0),
        ],
    );

    let slow = write("compare_slow.json", &[dispatch("wf2q+/depth1/pifo", 120.0)]);
    let (passed, stdout) = compare(&baseline, &slow);
    assert!(
        !passed,
        "20% over the hand-rolled row must fail --deny:\n{stdout}"
    );
    assert!(
        stdout.contains("REGRESSION dispatch/wf2q+/depth1/pifo @64 vs hand-rolled wf2q+/depth1"),
        "{stdout}"
    );
    assert!(
        stdout.contains("1 PIFO dispatch row(s) gated against the hand-rolled baseline"),
        "{stdout}"
    );

    let fast = write("compare_fast.json", &[dispatch("wf2q+/depth1/pifo", 110.0)]);
    let (passed, stdout) = compare(&baseline, &fast);
    assert!(
        passed,
        "10% over the hand-rolled row is within 15%:\n{stdout}"
    );
    assert!(
        stdout.contains("ok         dispatch/wf2q+/depth1/pifo @64 vs hand-rolled"),
        "{stdout}"
    );
}

/// Every default-backend dispatch row the harness emits keeps a
/// hand-rolled counterpart in the committed baseline, so the gate above
/// has something to compare against (rr is PIFO-native and has none).
#[test]
fn committed_baseline_holds_a_hand_rolled_row_for_every_pifo_row() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/bench_baseline.json"
    );
    let records = parse_bench_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let pifo: Vec<&BenchRecord> = records
        .iter()
        .filter(|r| r.group == "dispatch" && r.name.ends_with("/pifo"))
        .collect();
    assert!(pifo.len() >= 20, "only {} /pifo dispatch rows", pifo.len());
    for row in pifo {
        let hand = row.name.trim_end_matches("/pifo");
        if hand.starts_with("rr/") {
            continue;
        }
        assert!(
            records
                .iter()
                .any(|b| b.group == "dispatch" && b.name == hand && b.size == row.size),
            "no hand-rolled baseline row for {} @{}",
            row.name,
            row.size
        );
    }
}
