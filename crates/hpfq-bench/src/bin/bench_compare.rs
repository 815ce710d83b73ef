//! Compares a fresh bench-JSON report against a committed baseline and
//! warns about dispatch-path regressions.
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [--threshold 15] [--deny]
//!               [--max-growth 8] [--deny-slope]
//! ```
//!
//! Rows are matched on `(group, name, size)`. A `dispatch`-group row more
//! than `--threshold` percent slower than its baseline counterpart prints
//! a `REGRESSION` warning; other groups are reported informationally.
//! The exit code stays 0 unless `--deny` is given — CI runs this
//! non-blocking, because smoke-profile numbers on shared runners are
//! noisy and a hard gate would flake. Rows present on one side only are
//! listed so coverage drift is visible, never silent.
//!
//! Dispatch rows measured at several sizes (the flow-count scaling sweep)
//! additionally get a **slope check**: per name, the full per-size
//! trajectory is diffed and the end-to-end growth factor
//! `ns(max size) / ns(min size)` must stay within `--max-growth`
//! (default 8, i.e. the committed O(log N) trajectory at up to 4M flows;
//! the calendar rows sit near 1). Growth is a property of the *current*
//! run alone, so it flags a complexity regression even when every
//! per-size row drifted in lockstep under the pairwise threshold. Slope
//! violations print a `SLOPE` warning and only affect the exit code under
//! `--deny-slope` — absolute ns on shared runners are noisy, but a
//! blown-up growth factor is load-independent enough to gate on.

use std::process::ExitCode;

use hpfq_bench::microbench::{parse_bench_json, BenchRecord};

fn load(path: &str) -> Vec<BenchRecord> {
    let text = std::fs::read_to_string(path)
        // CLI tool — a missing input file must be loud. Not hot-path
        // tainted, so no lint:allow is needed.
        .unwrap_or_else(|e| panic!("reading {path}: {e}"));
    parse_bench_json(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&String> = Vec::new();
    let mut threshold = 15.0f64;
    let mut deny = false;
    let mut deny_slope = false;
    let mut max_growth = 8.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let Some(v) = it.next() else {
                    eprintln!("--threshold requires a value");
                    return ExitCode::FAILURE;
                };
                threshold = v.parse().unwrap_or_else(|e| panic!("--threshold {v}: {e}"));
            }
            "--deny" => deny = true,
            "--deny-slope" => deny_slope = true,
            "--max-growth" => {
                let Some(v) = it.next() else {
                    eprintln!("--max-growth requires a value");
                    return ExitCode::FAILURE;
                };
                max_growth = v
                    .parse()
                    .unwrap_or_else(|e| panic!("--max-growth {v}: {e}"));
            }
            _ => positional.push(a),
        }
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        eprintln!(
            "usage: bench_compare <baseline.json> <current.json> [--threshold N] [--deny] \
             [--max-growth F] [--deny-slope]"
        );
        return ExitCode::FAILURE;
    };

    let baseline = load(baseline_path);
    let current = load(current_path);

    let mut regressions = 0usize;
    let mut matched = 0usize;
    println!(
        "== bench_compare: {current_path} vs baseline {baseline_path} (threshold {threshold}%) =="
    );
    for cur in &current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.group == cur.group && b.name == cur.name && b.size == cur.size)
        else {
            println!(
                "  NEW        {}/{} @{} ({:.1} ns/op, no baseline row)",
                cur.group, cur.name, cur.size, cur.ns_per_op
            );
            continue;
        };
        matched += 1;
        let delta_pct = (cur.ns_per_op / base.ns_per_op - 1.0) * 100.0;
        let slow = delta_pct > threshold;
        let gated = cur.group == "dispatch";
        if slow && gated {
            regressions += 1;
        }
        let tag = match (slow, gated) {
            (true, true) => "REGRESSION",
            (true, false) => "slower",
            _ => "ok",
        };
        println!(
            "  {tag:<10} {}/{} @{}: {:.1} -> {:.1} ns/op ({:+.1}%)",
            cur.group, cur.name, cur.size, base.ns_per_op, cur.ns_per_op, delta_pct
        );
    }
    for base in &baseline {
        if !current
            .iter()
            .any(|c| c.group == base.group && c.name == base.name && c.size == base.size)
        {
            println!(
                "  MISSING    {}/{} @{} (in baseline, not in current)",
                base.group, base.name, base.size
            );
        }
    }
    // PIFO-vs-hand-rolled gate: every current `dispatch` row named
    // `<name>/pifo` is additionally compared against the committed
    // *hand-rolled* baseline row `<name>` at the same threshold, so a PIFO
    // substrate regression blocks even when the committed `/pifo` rows
    // drift with it.
    let mut pifo_gated = 0usize;
    for cur in current
        .iter()
        .filter(|c| c.group == "dispatch" && c.name.ends_with("/pifo"))
    {
        let hand = cur.name.trim_end_matches("/pifo");
        let Some(base) = baseline
            .iter()
            .find(|b| b.group == cur.group && b.name == hand && b.size == cur.size)
        else {
            println!(
                "  NO-ORACLE  dispatch/{} @{} (no hand-rolled baseline row '{hand}')",
                cur.name, cur.size
            );
            continue;
        };
        pifo_gated += 1;
        let delta_pct = (cur.ns_per_op / base.ns_per_op - 1.0) * 100.0;
        let slow = delta_pct > threshold;
        if slow {
            regressions += 1;
        }
        println!(
            "  {:<10} dispatch/{} @{} vs hand-rolled {hand}: {:.1} -> {:.1} ns/op ({:+.1}%)",
            if slow { "REGRESSION" } else { "ok" },
            cur.name,
            cur.size,
            base.ns_per_op,
            cur.ns_per_op,
            delta_pct
        );
    }
    if pifo_gated > 0 {
        println!("== {pifo_gated} PIFO dispatch row(s) gated against the hand-rolled baseline ==");
    }

    // Scaling-sweep slope check: every dispatch row family measured at 2+
    // sizes is a complexity trajectory, not a point. Print the per-size
    // diff as one table per family and gate the end-to-end growth factor
    // of the *current* run, so a structure that quietly degenerated to a
    // steeper curve is caught even if the committed baseline drifted with
    // it (the pairwise rows above would then all read "ok").
    let mut slope_violations = 0usize;
    let mut sweep_names: Vec<&str> = current
        .iter()
        .filter(|r| r.group == "dispatch")
        .map(|r| r.name.as_str())
        .collect();
    sweep_names.sort_unstable();
    sweep_names.dedup();
    let mut any_sweep = false;
    for name in sweep_names {
        let mut rows: Vec<&BenchRecord> = current
            .iter()
            .filter(|r| r.group == "dispatch" && r.name == name)
            .collect();
        if rows.len() < 2 {
            continue;
        }
        rows.sort_by_key(|r| r.size);
        if !any_sweep {
            println!("== scaling sweeps: growth factor gated at {max_growth}x ==");
            any_sweep = true;
        }
        let (first, last) = (rows[0], rows[rows.len() - 1]);
        let growth = last.ns_per_op / first.ns_per_op;
        let blown = growth > max_growth;
        if blown {
            slope_violations += 1;
        }
        println!(
            "  {:<10} dispatch/{name}: {:.1}x growth over {} -> {} flows{}",
            if blown { "SLOPE" } else { "ok" },
            growth,
            first.size,
            last.size,
            if blown {
                format!(" (limit {max_growth}x)")
            } else {
                String::new()
            }
        );
        for row in &rows {
            let base = baseline
                .iter()
                .find(|b| b.group == row.group && b.name == row.name && b.size == row.size)
                .map(|b| {
                    format!(
                        "{:>10.1} -> {:>10.1} ns/op ({:+.1}%)",
                        b.ns_per_op,
                        row.ns_per_op,
                        (row.ns_per_op / b.ns_per_op - 1.0) * 100.0
                    )
                })
                .unwrap_or_else(|| format!("{:>24.1} ns/op (no baseline)", row.ns_per_op));
            println!("    @{:<8} {base}", row.size);
        }
    }
    if slope_violations > 0 {
        eprintln!(
            "warning: {slope_violations} sweep(s) grew beyond {max_growth}x ({})",
            if deny_slope {
                "gating"
            } else {
                "non-blocking; pass --deny-slope to gate"
            }
        );
    }

    // Per-phase wall-clock breakdown (group "phase", emitted by profile
    // builds): show each phase's share of the total and its drift. Purely
    // informational — phase means are wall-clock on shared runners.
    let phase_total = |rows: &[BenchRecord]| -> f64 {
        rows.iter()
            .filter(|r| r.group == "phase")
            .map(|r| r.ns_per_op)
            .sum()
    };
    let cur_total = phase_total(&current);
    if cur_total > 0.0 {
        let base_total = phase_total(&baseline);
        println!("== phase breakdown (non-gating) ==");
        for cur in current.iter().filter(|r| r.group == "phase") {
            let share = cur.ns_per_op / cur_total * 100.0;
            let drift = baseline
                .iter()
                .find(|b| b.group == cur.group && b.name == cur.name && b.size == cur.size)
                .map(|b| format!("{:+.1}%", (cur.ns_per_op / b.ns_per_op - 1.0) * 100.0))
                .unwrap_or_else(|| "new".to_string());
            println!(
                "  {:<32} {:>10.1} ns mean  {share:>5.1}% of breakdown  drift {drift}",
                cur.name, cur.ns_per_op
            );
        }
        if base_total > 0.0 {
            println!(
                "  breakdown total: {base_total:.1} -> {cur_total:.1} ns ({:+.1}%)",
                (cur_total / base_total - 1.0) * 100.0
            );
        }
    }

    println!(
        "== {matched} rows compared, {regressions} dispatch regression(s) over {threshold}%, \
         {slope_violations} sweep slope violation(s) over {max_growth}x =="
    );
    if regressions > 0 {
        eprintln!(
            "warning: {regressions} dispatch row(s) regressed beyond {threshold}% \
             (non-blocking{})",
            if deny { "" } else { "; pass --deny to gate" }
        );
    }
    if (deny && regressions > 0) || (deny_slope && slope_violations > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
