//! Support shared by the storage integration suites.

use std::path::PathBuf;

/// One test's spill parent directory, `<temp>/<name>-<pid>`, removed with
/// everything under it when the guard drops — also when the test fails.
/// A repository removes only its own instance subdirectory on drop, so
/// without the guard every run would leave the parent behind. Declare the
/// guard before the repositories that spill into it: locals drop in
/// reverse order, so they are gone before their parent is.
pub struct SpillParent(pub PathBuf);

impl SpillParent {
    pub fn new(name: &str) -> Self {
        SpillParent(std::env::temp_dir().join(format!("{name}-{}", std::process::id())))
    }
}

impl Drop for SpillParent {
    #[expect(clippy::disallowed_methods, reason = "test code")]
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
