//! Golden fixture for the trial-record JSONL schema (ISSUE 9 satellite):
//! the checked-in `tests/fixtures/trial_records.golden.jsonl` holds one
//! representative record per probe combination. This test decodes the
//! fixture, re-runs a live spec per combination, and compares *shapes*
//! (key sets + value types via [`vita_lab::schema_signature`]) both ways
//! — a field added, dropped, or retyped on either side fails loudly,
//! while values (timings, seeds, counts) stay free.
//!
//! Regenerate after an intentional schema change with:
//! `VITA_BLESS=1 cargo test -p vita-lab --test golden_schema`

#![expect(clippy::disallowed_methods, reason = "test code")]

use std::collections::BTreeSet;

use vita_lab::{parse_spec, run_spec, trial_schema_signature, Json, TrialRecord};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trial_records.golden.jsonl"
);

/// One tiny one-trial spec per probe combination the runner can emit.
fn live_records() -> Vec<TrialRecord> {
    // The "serve" combo carries an axis: binding keys are spec-dependent
    // (they are blanked by the canonical signature), so the fixture
    // should hold at least one record where `bindings` is non-empty.
    let combos = [
        ("bare", "", ""),
        (
            "serve",
            "serve.rps = 300\nserve.duration_ms = 20\n",
            "[axis backend]\nkey = storage.backend\nvalues = single\n",
        ),
        ("persist", "measure.persistence = true\n", ""),
        (
            "full",
            "serve.rps = 300\nserve.duration_ms = 20\nmeasure.persistence = true\n",
            "",
        ),
    ];
    combos
        .iter()
        .map(|(name, extra, axes)| {
            let text = format!(
                "name = {name}\nseed = 5\nrepeats = 1\nrun.duration_s = 3\n\
                 objects.lifespan_min_s = 3\nobjects.lifespan_max_s = 3\n{extra}\n\
                 [scenario walk]\nobjects.count = 2\n{axes}"
            );
            let spec = parse_spec(&text).expect("combo spec parses");
            let report = run_spec(&spec).expect("combo spec runs");
            report.trials.into_iter().next().expect("one trial")
        })
        .collect()
}

#[test]
fn golden_fixture_pins_the_record_schema() {
    let records = live_records();
    let live: BTreeSet<String> = records
        .iter()
        .map(|r| {
            trial_schema_signature(&Json::parse(&r.to_json(true)).expect("live record"))
                .expect("live record shape")
        })
        .collect();
    assert_eq!(live.len(), 4, "probe combinations must differ in shape");

    if std::env::var_os("VITA_BLESS").is_some() {
        let mut out = String::new();
        for r in &records {
            out.push_str(&r.to_json(true));
            out.push('\n');
        }
        std::fs::write(GOLDEN_PATH, out).expect("bless golden fixture");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }

    let golden_text = std::fs::read_to_string(GOLDEN_PATH).expect("read golden fixture");
    let mut golden = BTreeSet::new();
    for (i, line) in golden_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
    {
        let record = Json::parse(line).unwrap_or_else(|e| panic!("golden line {i}: {e}"));
        // Decode-and-compare: the fixed fields must decode with their
        // documented types, not just any shape.
        for key in ["trial", "repeat", "run", "seed", "workers", "wall_ms"] {
            assert!(
                matches!(record.get(key), Some(Json::Num(_))),
                "golden line {i}: '{key}' must be a number"
            );
        }
        for key in ["id", "scenario", "backend", "exec"] {
            assert!(
                matches!(record.get(key), Some(Json::Str(_))),
                "golden line {i}: '{key}' must be a string"
            );
        }
        assert!(matches!(record.get("bindings"), Some(Json::Obj(_))));
        let rows = record.get("rows").expect("rows object");
        for table in ["trajectories", "rssi", "fixes", "proximity"] {
            assert!(matches!(rows.get(table), Some(Json::Num(_))));
        }
        golden.insert(
            trial_schema_signature(&record).unwrap_or_else(|e| panic!("golden line {i}: {e}")),
        );
    }

    // Shape equality both ways: every live record matches a golden shape,
    // and no golden shape is left unreachable (stale fixture).
    assert_eq!(
        live, golden,
        "trial-record schema drifted from the golden fixture; if intentional, \
         regenerate with VITA_BLESS=1 cargo test -p vita-lab --test golden_schema"
    );
}
