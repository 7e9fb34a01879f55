//! The experiments binary's command line: unknown experiment ids fail the
//! run before anything is printed, written or measured, and every usage
//! error or failing spec is one line on stderr and exit code 2 — never a
//! panic.

#![expect(clippy::disallowed_methods, reason = "test code")]

use std::path::PathBuf;
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

/// A spec file unique to this test process and `name`, removed when
/// dropped, so a failing assertion cleans up too.
struct SpecFile(PathBuf);

impl SpecFile {
    fn new(name: &str, text: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "vita-experiments-cli-{}-{name}.lab",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("write spec");
        SpecFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for SpecFile {
    fn drop(&mut self) {
        // Already gone for the `missing` case.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One case per error path: exit code 2, nothing on stdout, and exactly
/// one stderr line naming the problem (no panic message, no backtrace).
#[test]
fn usage_and_spec_errors_exit_2_with_one_line() {
    let tiny = "run.duration_s = 2\nobjects.lifespan_min_s = 2\n\
                objects.lifespan_max_s = 2\n[scenario s]\nobjects.count = 1\n";
    let ok = SpecFile::new("ok", tiny);
    let missing = SpecFile::new("missing", "");
    std::fs::remove_file(&missing.0).expect("remove spec");
    let bogus = SpecFile::new("bogus", &format!("{tiny}storage.backend = bogus(3)\n"));
    let sharded = SpecFile::new("sharded", &format!("{tiny}storage.backend = sharded(8)\n"));
    let misspelled = SpecFile::new(
        "misspelled",
        &tiny.replace("objects.count", "objects.cuont"),
    );
    let cases: [(&[&str], &str); 7] = [
        (&["lab"], "usage: lab SPEC"),
        (&["lab", missing.path()], missing.path()),
        (&["lab", ok.path(), "--trials"], "--trials"),
        (&["lab", ok.path(), "--schema"], "--schema"),
        (&["lab", bogus.path()], "bogus(3)"),
        (&["lab", sharded.path()], "sharded(8)"),
        (&["lab", misspelled.path()], "objects.cuont"),
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
