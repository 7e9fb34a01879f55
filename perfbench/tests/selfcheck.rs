//! Tiny-scale self-check of the benchmark: every workload runs at toy size
//! and prints every metric `BENCHMARK.json` names, with its unit; the exact
//! counts repeat for one seed; and a deliberately wrong oracle answer is
//! counted as a failed op.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use vita_lab::Json;
use vita_perfbench::{report, run, Options, Outcome, Scale, Workload};

fn options(workload: Workload, trace: bool, wrong_oracle: bool) -> Options {
    let tag = format!("{}-{}-{}", workload.name(), trace, wrong_oracle);
    Options {
        workload,
        seed: 7,
        scale: Scale::tiny(),
        trace,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
        trace_dir: None,
        wrong_oracle,
    }
}

fn run_ok(opts: &Options) -> Outcome {
    run(opts).unwrap_or_else(|e| panic!("{} failed to run: {e}", opts.workload.name()))
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s metric lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = root.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("{list} entry without name and unit"),
        })
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .entries()
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for workload in Workload::ALL {
        let outcome = run_ok(&options(workload, false, false));
        assert_eq!(printed(&outcome), want, "{}", workload.name());
        assert!(outcome.attempted >= 1);
        assert_eq!(
            outcome.failed,
            0,
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        for (name, value, _) in outcome.metrics.entries() {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        let line = report::result_line(outcome.attempted, outcome.failed, &outcome.metrics);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let want = declared("per_layer");
    for workload in Workload::ALL {
        let outcome = run_ok(&options(workload, true, false));
        assert_eq!(printed(&outcome), want, "{}", workload.name());
        assert_eq!(
            outcome.failed,
            0,
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert!(
            outcome
                .lines
                .iter()
                .any(|l| l.starts_with("tracing overhead")),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn exact_counts_repeat_for_one_seed() {
    for workload in Workload::ALL {
        let a = run_ok(&options(workload, false, false));
        let b = run_ok(&options(workload, false, false));
        // The segment count at the fixed point repeats only on the
        // all-resident corpus; with the spill tier it depends on when the
        // background sealer ran.
        let parts = if workload == Workload::OutOfCore {
            1
        } else {
            2
        };
        let exact = |o: &Outcome| {
            let summary = o.lines.iter().find(|l| l.starts_with("exact:"));
            let summary =
                summary.map(|l| l.split(" | ").take(parts).collect::<Vec<_>>().join(" | "));
            let m = |name| o.metrics.get(name).map(f64::to_bits);
            (summary, m("fix_error_m"), m("disk_bytes_per_row"))
        };
        assert_eq!(exact(&a), exact(&b), "{}", workload.name());
    }
}

#[test]
fn a_wrong_oracle_answer_is_a_failed_op() {
    for workload in Workload::ALL {
        let outcome = run_ok(&options(workload, false, true));
        assert_eq!(outcome.failed, 1, "{}", workload.name());
        let line = report::result_line(outcome.attempted, outcome.failed, &outcome.metrics);
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
    }
}

#[test]
fn spill_variables_are_refused() {
    let names = ["PATH", "VITA_SPILL_BUDGET_ROWS"].map(String::from);
    let refused = vita_perfbench::world::check_variables(names.into_iter());
    assert!(refused.is_err_and(|e| e.contains("VITA_SPILL_BUDGET_ROWS")));
    let clean = ["PATH", "VITA_LOG"].map(String::from);
    assert!(vita_perfbench::world::check_variables(clean.into_iter()).is_ok());
}
