//! Child processes: spawn, watch peak memory, enforce a deadline.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often a watched process's peak resident set is sampled.
const POLL: Duration = Duration::from_millis(2);

/// What a watched process left behind.
#[derive(Debug)]
pub struct Finished {
    pub success: bool,
    pub timed_out: bool,
    pub stdout: String,
    /// Largest `VmHWM` seen while it ran, in MB.
    pub peak_rss_mb: f64,
}

/// `VmHWM` (peak resident set) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs `cmd` with stdout captured; kills it if it is still running at
/// `deadline`. Stderr passes through.
pub fn run_until(mut cmd: Command, deadline: Option<Instant>) -> Result<Finished, String> {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        // A child that dies mid-line leaves a partial read; keep what came.
        let _ = pipe.read_to_string(&mut text);
        text
    });
    let (success, timed_out, peak_rss_mb) = watch(&mut child, deadline)?;
    let stdout = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    Ok(Finished {
        success,
        timed_out,
        stdout,
        peak_rss_mb,
    })
}

fn watch(child: &mut Child, deadline: Option<Instant>) -> Result<(bool, bool, f64), String> {
    let mut peak = 0.0f64;
    loop {
        if let Some(mb) = peak_rss_mb(child.id()) {
            peak = peak.max(mb);
        }
        match child.try_wait() {
            Ok(Some(status)) => return Ok((status.success(), false, peak)),
            Ok(None) => {}
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            kill(child);
            return Ok((false, true, peak));
        }
        std::thread::sleep(POLL);
    }
}

/// Kills and reaps `child`; it may already have exited.
pub fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}
