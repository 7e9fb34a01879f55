//! The experiments binary's command line: unknown experiment ids fail the
//! run before anything is printed, written or measured, and every usage
//! error or failing spec is one line on stderr and exit code 2 — never a
//! panic.

#![expect(clippy::disallowed_methods, reason = "test code")]

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

/// Write `text` to a spec file unique to this test process and `name`.
fn spec_file(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "vita-experiments-cli-{}-{name}.lab",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write spec");
    path.to_str().expect("utf-8 temp path").to_string()
}

/// One case per error path: exit code 2, nothing on stdout, and exactly
/// one stderr line naming the problem (no panic message, no backtrace).
#[test]
fn usage_and_spec_errors_exit_2_with_one_line() {
    let tiny = "run.duration_s = 2\nobjects.lifespan_min_s = 2\n\
                objects.lifespan_max_s = 2\n[scenario s]\nobjects.count = 1\n";
    let ok = spec_file("ok", tiny);
    let missing = spec_file("missing", "");
    std::fs::remove_file(&missing).expect("remove spec");
    let bogus = spec_file("bogus", &format!("{tiny}storage.backend = bogus(3)\n"));
    let sharded = spec_file("sharded", &format!("{tiny}storage.backend = sharded(8)\n"));
    let misspelled = spec_file(
        "misspelled",
        &tiny.replace("objects.count", "objects.cuont"),
    );
    let cases: [(&[&str], &str); 7] = [
        (&["lab"], "usage: lab SPEC"),
        (&["lab", &missing], &missing),
        (&["lab", &ok, "--trials"], "--trials"),
        (&["lab", &ok, "--schema"], "--schema"),
        (&["lab", &bogus], "bogus(3)"),
        (&["lab", &sharded], "sharded(8)"),
        (&["lab", &misspelled], "objects.cuont"),
    ];
    for (args, needle) in cases {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {needle} missing: {err}");
    }
}
