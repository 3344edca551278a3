//! The line protocol a repetition's process reports on: one
//! `<name> <value>` pair per line on stdout, flushed as it goes, so the
//! parent still learns how many operations a killed repetition had
//! attempted.

use std::io::Write;

#[derive(Debug, Default)]
pub struct Out {
    attempted: u64,
    failed: u64,
}

impl Out {
    fn line(&self, name: &str, value: &str) {
        let mut stdout = std::io::stdout().lock();
        // A parent that stopped reading has already given up on this
        // repetition; there is no one left to report to.
        let _ = writeln!(stdout, "{name} {value}");
        let _ = stdout.flush();
    }

    /// Declares the operations this repetition issues.
    pub fn attempted(&mut self, ops: u64) {
        self.attempted += ops;
        self.line("attempted", &ops.to_string());
    }

    /// Counts `ops` operations as failed (capped at those attempted).
    pub fn fail(&mut self, ops: u64, why: &str) {
        let ops = ops.min(self.attempted - self.failed);
        self.failed += ops;
        self.line("failed", &ops.to_string());
        self.line("error", &why.replace('\n', " "));
    }

    pub fn value(&self, name: &str, value: f64) {
        self.line(name, &format!("{value:e}"));
    }

    pub fn text(&self, name: &str, value: &str) {
        self.line(name, value);
    }
}
