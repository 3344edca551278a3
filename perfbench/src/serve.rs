//! One repetition of `serve_ingest`: the `edm-serve` binary in ingest
//! mode, fed over loopback HTTP by one closed-loop client.
//!
//! The client POSTs op-line batches one connection at a time, polls
//! `/healthz` every few batches and waits while the daemon's buffer is
//! above a high-water mark (so backpressure never reaches the daemon's
//! 409), and asks for a checkpoint at a fixed batch interval. Every
//! non-2xx response counts as failed operations; a 409 included.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use edm_cluster::metrics::rsd;
use edm_scenario::Scenario;
use edm_snap::SnapshotFile;

use crate::input::{ingest_lines, seeded_trace};
use crate::out::Out;
use crate::percentile;
use crate::proc::{kill, peak_rss_mb};
use crate::sim::{ratio, ssd_counters};

/// Op lines per `POST /ingest`: at 200 the 2 ms accept poll of the
/// daemon dominates, at 1000 the apply thread does.
const BATCH: usize = 500;
/// `GET /healthz` after every this many batches.
const POLL_EVERY: usize = 4;
/// Buffered lines above which the client waits, and the level it waits
/// for. Both sit far below the daemon's 262144-line 409 limit.
const HIGH_WATER: u64 = 32_768;
const LOW_WATER: u64 = 8_192;
/// `POST /checkpoint` after every this many batches.
const CHECKPOINT_EVERY: usize = 25;
/// Longest the daemon may take to come up, drain, or shut down.
const PATIENCE: Duration = Duration::from_secs(60);

/// The daemon process; killed and reaped if the repetition bails out.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        kill(&mut self.0);
    }
}

/// A response: status code and body.
struct Reply {
    status: u16,
    body: String,
}

impl Reply {
    fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn request(port: u16, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("{method} {path}: connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("{method} {path}: receive: {e}"))?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed reply {raw:?}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok(Reply { status, body })
}

/// The unsigned integer after `"key":` in a flat JSON object.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Every value of `"key":` in `text`, in order.
fn json_u64_all(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    text.match_indices(&needle)
        .filter_map(|(at, _)| json_u64(&text[at..], key))
        .collect()
}

/// A counter from the daemon's Prometheus `/metrics` text.
fn prom_counter(text: &str, name: &str) -> f64 {
    let series = format!("edm_{}_total ", name.replace('.', "_"));
    text.lines()
        .find_map(|l| l.strip_prefix(&series))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the client learns from the `/healthz` bodies it polls.
#[derive(Default)]
struct Watch {
    buffered_peak: u64,
    /// Checkpoints asked for so far.
    requested: u64,
    /// When the checkpoint not yet reported by `/healthz` was asked for.
    pending: Option<Instant>,
    /// `POST /checkpoint` until `/healthz` counts it.
    checkpoint_ms: Vec<f64>,
}

impl Watch {
    /// Takes in one `/healthz` body; returns the lines it reports buffered.
    fn observe(&mut self, health: &str) -> u64 {
        let buffered = json_u64(health, "ingest_buffered").unwrap_or(0);
        self.buffered_peak = self.buffered_peak.max(buffered);
        if let Some(since) = self.pending {
            if json_u64(health, "checkpoints").unwrap_or(0) >= self.requested {
                self.checkpoint_ms.push(since.elapsed().as_secs_f64() * 1e3);
                self.pending = None;
            }
        }
        buffered
    }
}

/// Polls until `done` accepts a `/healthz` body, or `PATIENCE` runs out.
fn wait_healthz(
    port: u16,
    get_ms: &mut Vec<f64>,
    mut done: impl FnMut(&str) -> bool,
) -> Result<String, String> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        if let Ok(reply) = request(port, "GET", "/healthz", "") {
            get_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if reply.ok() && done(&reply.body) {
                return Ok(reply.body);
            }
        }
        if start.elapsed() > PATIENCE {
            return Err("daemon did not reach the awaited state in time".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs one repetition against the daemon binary `serve_bin`.
pub fn rep(
    scenario: &Scenario,
    seed: u64,
    traced: bool,
    dir: &Path,
    serve_bin: &Path,
    out: &mut Out,
) -> Result<(), String> {
    let lines = ingest_lines(&scenario.synth_trace(), &seeded_trace(scenario, seed));
    let ops = lines.len() as u64;
    out.attempted(ops);
    let scenario_path = dir.join("serve.scn");
    let port_path = dir.join("port");
    let ckpt_dir = dir.join("ckpt");
    std::fs::write(&scenario_path, scenario.to_text()).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&port_path);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let start = Instant::now();
    let mut daemon = Daemon(
        Command::new(serve_bin)
            .arg(&scenario_path)
            .args(["--mode", "ingest", "--port", "0", "--port-file"])
            .arg(&port_path)
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .args(["--obs-level", if traced { "metrics" } else { "off" }])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve_bin.display()))?,
    );
    let pid = daemon.0.id();
    out.text("daemon_pid", &pid.to_string());
    let port: u16 = loop {
        let text = std::fs::read_to_string(&port_path).unwrap_or_default();
        if let Some(Ok(port)) = text.strip_suffix('\n').map(str::parse) {
            break port;
        }
        if let Ok(Some(status)) = daemon.0.try_wait() {
            return Err(format!("edm-serve exited during start-up: {status}"));
        }
        if start.elapsed() > PATIENCE {
            return Err("edm-serve did not publish its port".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut get_ms = Vec::new();
    wait_healthz(port, &mut get_ms, |h| h.contains("\"mode\":\"ingest\""))?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut post_ms = Vec::with_capacity(lines.len() / BATCH + 2);
    let mut watch = Watch::default();
    let mut failed = 0u64;
    let ingest = Instant::now();
    let batches: Vec<&[String]> = lines.chunks(BATCH).collect();
    for (i, batch) in batches.iter().enumerate() {
        let mut body = batch.join("\n");
        body.push('\n');
        let t = Instant::now();
        let reply = request(port, "POST", "/ingest", &body)?;
        post_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !reply.ok() {
            failed += batch.len() as u64;
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 && watch.pending.is_none() {
            if request(port, "POST", "/checkpoint", "")?.ok() {
                watch.requested += 1;
                watch.pending = Some(Instant::now());
            } else {
                failed += 1;
            }
        }
        if (i + 1) % POLL_EVERY == 0 {
            let t = Instant::now();
            let health = request(port, "GET", "/healthz", "")?;
            get_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if watch.observe(&health.body) > HIGH_WATER {
                let health = wait_healthz(port, &mut get_ms, |h| {
                    json_u64(h, "ingest_buffered").is_some_and(|b| b <= LOW_WATER)
                })?;
                watch.observe(&health);
            }
        }
    }
    if !request(port, "POST", "/ingest", "end\n")?.ok() {
        failed += 1;
    }
    let last_post = Instant::now();
    let health = wait_healthz(port, &mut get_ms, |h| h.contains("\"done\":true"))?;
    let drain_s = last_post.elapsed().as_secs_f64();
    let ingest_s = ingest.elapsed().as_secs_f64();
    watch.observe(&health);
    if watch.pending.is_some() {
        let requested = watch.requested;
        let health = wait_healthz(port, &mut get_ms, |h| {
            json_u64(h, "checkpoints").unwrap_or(0) >= requested
        })?;
        watch.observe(&health);
    }

    let stats = request(port, "GET", "/stats", "")?;
    let metrics = if traced {
        Some(request(port, "GET", "/metrics", "")?)
    } else {
        None
    };
    let peak_mb = peak_rss_mb(pid).unwrap_or(0.0);
    let health = request(port, "GET", "/healthz", "")?;
    let shutdown = request(port, "POST", "/shutdown", "")?;
    if shutdown.ok() {
        let deadline = Instant::now() + PATIENCE;
        while daemon.0.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("edm-serve did not shut down".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(daemon);

    for reply in [&stats, &health, &shutdown]
        .into_iter()
        .chain(metrics.as_ref())
    {
        if !reply.ok() {
            failed += 1;
        }
    }
    if failed > 0 {
        out.fail(failed, "non-2xx HTTP responses");
    }
    let applied = json_u64(&stats.body, "applied_ops").unwrap_or(0);
    if applied != ops {
        out.fail(
            ops - applied.min(ops),
            &format!("daemon applied {applied} of {ops} op lines"),
        );
    }
    let rejected = json_u64(&health.body, "rejected_lines").unwrap_or(u64::MAX);
    if rejected != 0 {
        out.fail(ops, &format!("daemon rejected {rejected} op lines"));
    }
    let checkpoints = json_u64(&health.body, "checkpoints").unwrap_or(0);
    let mut snap_bytes = 0u64;
    let entries = std::fs::read_dir(&ckpt_dir).into_iter().flatten();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        snap_bytes += bytes.len() as u64;
        if let Err(e) = SnapshotFile::from_bytes(&bytes) {
            out.fail(ops, &format!("{}: {e}", path.display()));
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if checkpoints == 0 {
        out.fail(ops, "the daemon cut no checkpoint");
    }

    let erases = json_u64_all(&stats.body, "erases");
    let now_us = json_u64(&stats.body, "now_us").unwrap_or(0);

    out.value("setup_s", setup_s);
    out.value("work_s", ingest_s);
    out.value("replay_s", ingest_s);
    out.value("peak_rss_mb", peak_mb);
    out.text("digest", &format!("{:#018x}", fnv(&stats.body)));
    out.value("sim_erase_rsd", rsd(erases.iter().map(|&e| e as f64)));
    out.value("sim_aggregate_erases", erases.iter().sum::<u64>() as f64);
    out.value(
        "sim_mean_response_ms",
        ratio(now_us as f64 / 1e3, applied as f64),
    );
    for ms in &post_ms {
        out.value("post_ms", *ms);
    }
    for ms in &get_ms {
        out.value("get_ms", *ms);
    }
    out.value("serve.posts", post_ms.len() as f64);
    out.value("serve.buffered_peak_lines", watch.buffered_peak as f64);
    out.value("serve.drain_s", drain_s);
    out.value("serve.rejected_lines", rejected as f64);
    out.value("snap.checkpoints", checkpoints as f64);
    out.value(
        "snap.checkpoint_ms",
        percentile(&mut watch.checkpoint_ms, 0.5),
    );
    out.value("snap.bytes", snap_bytes as f64);
    out.value(
        "cluster.ticks",
        json_u64(&stats.body, "ticks").unwrap_or(0) as f64,
    );
    out.value(
        "cluster.moved_objects",
        json_u64(&stats.body, "moved_objects").unwrap_or(0) as f64,
    );
    out.value(
        "cluster.moved_bytes",
        json_u64(&stats.body, "moved_bytes").unwrap_or(0) as f64,
    );
    if let Some(metrics) = metrics {
        let m = |name| prom_counter(&metrics.body, name);
        ssd_counters(
            m("ftl.gc_invocations"),
            m("ftl.block_erases"),
            m("ftl.gc_page_moves"),
            m("ftl.wear_level_swaps"),
            out,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_daemons_json_and_prometheus_fields() {
        let stats = r#"{"mode":"ingest","now_us":1500,"applied_ops":3,"osds":[{"osd":0,"erases":7},{"osd":1,"erases":9}]}"#;
        assert_eq!(json_u64(stats, "applied_ops"), Some(3));
        assert_eq!(json_u64(stats, "missing"), None);
        assert_eq!(json_u64_all(stats, "erases"), vec![7, 9]);
        let metrics = "# TYPE edm_ftl_block_erases_total counter\nedm_ftl_block_erases_total 42\n";
        assert_eq!(prom_counter(metrics, "ftl.block_erases"), 42.0);
        assert_eq!(prom_counter(metrics, "ftl.gc_invocations"), 0.0);
    }
}
