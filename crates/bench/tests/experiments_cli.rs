//! The experiments binary's command line: unknown experiment ids fail the
//! run before anything is printed, written or measured.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary")
}

#[test]
fn unknown_id_exits_nonzero_and_lists_known_ids() {
    let out = experiments(&["e99"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("e99"), "{err}");
    for id in ["f3", "e3", "e11s", "e17", "a1"] {
        assert!(
            err.split_whitespace().any(|w| w == id),
            "{id} missing: {err}"
        );
    }
}

#[test]
fn one_unknown_id_stops_the_known_ones_too() {
    let out = experiments(&["e3", "e99"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "e3 must not run: {out:?}");
}

#[test]
fn unknown_id_writes_no_json_report() {
    let path =
        std::env::temp_dir().join(format!("vita-experiments-cli-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = experiments(&["--json", path.to_str().expect("utf-8 temp path"), "e99"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(!path.exists(), "no report may be written");
}
