//! `edm-perfbench` — the repository's benchmark runner.
//!
//! ```text
//! edm-perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1 --bin-dir <dir>
//! edm-perfbench --selfcheck --bin-dir <dir>
//! ```
//!
//! A run repeats its workload until `--seconds` of measurement have
//! passed, each repetition in a fresh child process (the runner
//! re-executes itself with `--child`), so every repetition's peak
//! resident set is its own. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced repetitions and prints the
//! per-layer ledger. The last line of stdout is one JSON object; see
//! `README.md` in this directory.

// The repository's clippy.toml bans wall-clock reads so simulation code
// stays deterministic; measuring host time is this crate's job.
#![allow(clippy::disallowed_methods)]

mod input;
mod ledger;
mod out;
mod proc;
mod serve;
mod sim;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use edm_cluster::MigrationSchedule;
use edm_harness::experiments::scale::ScaleConfig;
use edm_scenario::Scenario;

use crate::out::Out;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_erase_rsd", "ratio"),
    ("sim_aggregate_erases", "count"),
    ("sim_mean_response_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.synth_s", "s"),
    ("workload.records", "count"),
    ("cluster.build_s", "s"),
    ("cluster.events", "count"),
    ("cluster.self_s", "s"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.share", "ratio"),
    ("cluster.subops", "count"),
    ("cluster.ticks", "count"),
    ("cluster.moves_started", "count"),
    ("cluster.moved_objects", "count"),
    ("cluster.moved_bytes", "bytes"),
    ("cluster.move_completion", "ratio"),
    ("ssd.calls", "count"),
    ("ssd.busy_s", "s"),
    ("ssd.ns_per_call", "ns"),
    ("ssd.share", "ratio"),
    ("ssd.gc_invocations", "count"),
    ("ssd.block_erases", "count"),
    ("ssd.gc_page_moves", "count"),
    ("ssd.wear_level_swaps", "count"),
    ("ssd.gc_moves_per_erase", "ratio"),
    ("core.access_calls", "count"),
    ("core.access_s", "s"),
    ("core.ns_per_access", "ns"),
    ("core.tick_calls", "count"),
    ("core.tick_s", "s"),
    ("core.plan_calls", "count"),
    ("core.plan_s", "s"),
    ("core.moves_planned", "count"),
    ("core.plan_yield", "ratio"),
    ("core.share", "ratio"),
    ("obs.events", "count"),
    ("obs.event_s", "s"),
    ("obs.share", "ratio"),
    ("obs.encode_s", "s"),
    ("obs.journal_bytes", "bytes"),
    ("obs.bytes_per_op", "bytes"),
    ("spec.events", "count"),
    ("spec.verify_s", "s"),
    ("spec.events_per_s", "1/s"),
    ("serve.posts", "count"),
    ("serve.post_ms_p50", "ms"),
    ("serve.post_ms_p99", "ms"),
    ("serve.post_samples", "count"),
    ("serve.get_ms_p50", "ms"),
    ("serve.buffered_peak_lines", "count"),
    ("serve.drain_s", "s"),
    ("serve.rejected_lines", "count"),
    ("snap.checkpoints", "count"),
    ("snap.checkpoint_ms", "ms"),
    ("snap.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `run_trace_obs_keep` with the no-op recorder.
    Sim,
    /// The same with an events-level journal, written as JSONL and
    /// checked by `edm-probe --verify`.
    Journal,
    /// The `edm-serve` daemon in ingest mode over loopback HTTP.
    Serve,
}

/// One workload. The reasons for each are in `README.md`.
struct Workload {
    kind: Kind,
    scenario: Scenario,
    /// Input traces an untraced run replays, each synthesized from its
    /// own seed derived from the run's seed. The simulated metrics of
    /// one trace vary widely with its seed (the erase RSD of 16 OSDs
    /// hangs on where the few hottest files land), so a run reports
    /// their mean over all its inputs.
    inputs: usize,
    /// Inputs a traced run replays, each once untraced and once traced.
    traced_inputs: usize,
}

fn workload(name: &str) -> Option<Workload> {
    let paper16 = |scale| Scenario {
        trace: "home02".into(),
        scale,
        osds: 16,
        groups: 4,
        policy: "EDM-HDF".into(),
        schedule: MigrationSchedule::Midpoint,
        force: true,
        ..Scenario::default()
    };
    let (kind, scenario, inputs, traced_inputs) = match name {
        "paper16" => (Kind::Sim, paper16(0.03), 80, 24),
        "dc1024" => (
            Kind::Sim,
            ScaleConfig::datacenter(0.02, 0).scenario(0),
            20,
            8,
        ),
        "journal_verify" => (Kind::Journal, paper16(0.01), 32, 12),
        "serve_ingest" => (
            Kind::Serve,
            Scenario {
                trace: "lair62".into(),
                scale: 0.02,
                osds: 16,
                groups: 4,
                policy: "EDM-CDF".into(),
                schedule: MigrationSchedule::EveryTick,
                ..Scenario::default()
            },
            48,
            16,
        ),
        _ => return None,
    };
    Some(Workload {
        kind,
        scenario,
        inputs,
        traced_inputs,
    })
}

const WORKLOADS: [&str; 4] = ["paper16", "dc1024", "journal_verify", "serve_ingest"];

/// The seed of a run's `input`-th trace (splitmix64 of the pair).
fn input_seed(seed: u64, input: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(input as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A run stops starting repetitions once it is this old, so it always
/// exits well within three minutes.
const RUN_BUDGET: Duration = Duration::from_secs(140);
/// Longest one repetition may take before it is killed.
const REP_TIMEOUT: Duration = Duration::from_secs(30);

fn fail(msg: &str) -> ! {
    eprintln!("edm-perfbench: {msg}");
    std::process::exit(2);
}

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut flags = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                fail(&format!("unexpected argument {arg:?}"));
            };
            let value = match name {
                "selfcheck" => String::new(),
                _ => it
                    .next()
                    .unwrap_or_else(|| fail(&format!("--{name} needs a value"))),
            };
            flags.insert(name.to_string(), value);
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> &str {
        self.flags
            .get(name)
            .unwrap_or_else(|| fail(&format!("missing --{name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        let v = self.get(name);
        v.parse()
            .unwrap_or_else(|_| fail(&format!("bad --{name} value {v:?}")))
    }
}

fn main() {
    let args = Args::parse();
    let bin_dir = PathBuf::from(args.get("bin-dir"));
    if args.flags.contains_key("selfcheck") {
        std::process::exit(selfcheck(&bin_dir));
    }
    if let Some(name) = args.flags.get("child") {
        let w = workload(name).unwrap_or_else(|| fail("unknown workload"));
        let mut out = Out::default();
        let traced = args.get("trace") == "1";
        let dir = PathBuf::from(args.get("dir"));
        let seed = args.num("seed");
        let result = match w.kind {
            Kind::Sim => sim::rep(&w.scenario, seed, traced, None, &mut out),
            Kind::Journal => {
                let journal = dir.join("journal.jsonl");
                let probe = bin_dir.join("edm-probe");
                sim::rep(
                    &w.scenario,
                    seed,
                    traced,
                    Some((&journal, &probe)),
                    &mut out,
                )
            }
            Kind::Serve => serve::rep(
                &w.scenario,
                seed,
                traced,
                &dir,
                &bin_dir.join("edm-serve"),
                &mut out,
            ),
        };
        if let Err(e) = result {
            fail(&e);
        }
        out.text("done", "1");
        return;
    }
    let name = args.get("workload");
    let Some(w) = workload(name) else {
        fail(&format!("unknown workload {name:?} (one of {WORKLOADS:?})"));
    };
    let traced = match args.get("trace") {
        "0" => false,
        "1" => true,
        other => fail(&format!("bad --trace {other:?} (0|1)")),
    };
    let seconds: f64 = args.num("seconds");
    let seed: u64 = args.num("seed");
    run(name, &w, seed, seconds, traced, &bin_dir);
}

/// What one repetition reported.
#[derive(Debug, Default)]
struct Rep {
    input: usize,
    traced: bool,
    values: BTreeMap<String, Vec<f64>>,
    texts: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
}

impl Rep {
    fn value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .and_then(|v| v.first().copied())
            .unwrap_or(0.0)
    }
}

/// Runs one repetition in a child process and collects its report.
fn run_rep(name: &str, seed: u64, input: usize, traced: bool, dir: &Path, bin_dir: &Path) -> Rep {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let mut cmd = Command::new(exe);
    cmd.args(["--child", name])
        .args(["--seed", &input_seed(seed, input).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .arg("--bin-dir")
        .arg(bin_dir);
    let mut rep = Rep {
        input,
        traced,
        ..Rep::default()
    };
    let finished = match proc::run_until(cmd, Some(Instant::now() + REP_TIMEOUT)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("edm-perfbench: {e}");
            rep.attempted = 1;
            rep.failed = 1;
            return rep;
        }
    };
    for line in finished.stdout.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        match key {
            "attempted" => rep.attempted += value.parse::<u64>().unwrap_or(0),
            "failed" => rep.failed += value.parse::<u64>().unwrap_or(0),
            "error" => eprintln!("edm-perfbench: {name} input {input}: {value}"),
            "digest" | "daemon_pid" | "done" => {
                rep.texts.insert(key.to_string(), value.to_string());
            }
            _ => {
                if let Ok(v) = value.parse::<f64>() {
                    rep.values.entry(key.to_string()).or_default().push(v);
                }
            }
        }
    }
    if !(finished.success && rep.texts.contains_key("done")) {
        if let Some(pid) = rep.texts.get("daemon_pid") {
            // The repetition died with its daemon still up; stop it.
            let _ = Command::new("kill").args(["-9", pid]).status();
        }
        eprintln!(
            "edm-perfbench: {name} input {input}: repetition {}",
            if finished.timed_out {
                "timed out"
            } else {
                "did not finish"
            }
        );
        rep.attempted = rep.attempted.max(1);
        rep.failed = rep.attempted;
    }
    rep
}

/// Percentile `q` (0..=1) of `samples` by the nearest-rank rule.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    percentile(&mut values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// All values every rep in `reps` reported under `name`.
fn pooled<'a>(reps: impl Iterator<Item = &'a Rep>, name: &str) -> Vec<f64> {
    reps.flat_map(|r| r.values.get(name).into_iter().flatten().copied())
        .collect()
}

fn run(name: &str, w: &Workload, seed: u64, seconds: f64, traced: bool, bin_dir: &Path) {
    let start = Instant::now();
    let cwd = std::env::current_dir().unwrap_or_else(|e| fail(&format!("current_dir: {e}")));
    let scratch_root = cwd.join(".perfbench_scratch");
    let dir = scratch_root.join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("creating {}: {e}", dir.display())));
    let mut reps: Vec<Rep> = Vec::new();
    let mut longest = Duration::ZERO;
    let mut rep = |input: usize, traced: bool, reps: &mut Vec<Rep>| {
        let began = Instant::now();
        reps.push(run_rep(name, seed, input, traced, &dir, bin_dir));
        longest = longest.max(began.elapsed());
        longest
    };
    let inputs = if traced { w.traced_inputs } else { w.inputs };
    for input in 0..inputs {
        rep(input, false, &mut reps);
        if traced {
            rep(input, true, &mut reps);
        }
    }
    if !traced {
        // Replay inputs again until the run has measured for `seconds`;
        // at least one repeat, so every run checks that a repeated
        // input reproduces its report digest.
        let mut input = 0;
        loop {
            let longest = rep(input % inputs, false, &mut reps);
            input += 1;
            if start.elapsed().as_secs_f64() >= seconds || start.elapsed() + longest > RUN_BUDGET {
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&scratch_root);

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    // Every replay of one input must produce the same simulated run,
    // traced or not.
    for input in 0..inputs {
        let same: Vec<&Rep> = reps.iter().filter(|r| r.input == input).collect();
        let digests: Vec<Option<&String>> = same.iter().map(|r| r.texts.get("digest")).collect();
        if digests.iter().any(|d| d.is_none() || *d != digests[0]) {
            eprintln!("edm-perfbench: {name} input {input}: report digests differ: {digests:?}");
            failed += same.iter().map(|r| r.attempted - r.failed).sum::<u64>();
        }
    }
    failed = failed.min(attempted);
    // The first replay of each input, untraced and (if any) traced.
    let first = |t: bool| -> Vec<&Rep> {
        (0..inputs)
            .filter_map(|i| reps.iter().find(|r| r.input == i && r.traced == t))
            .collect()
    };
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if !traced {
        // Host metrics take each input's median over its replays; every
        // metric is then averaged over the inputs.
        let per_input = |metric: &str| -> Vec<f64> {
            (0..inputs)
                .map(|i| {
                    let same = reps.iter().filter(|r| r.input == i);
                    median(same.map(|r| r.value(metric)).collect())
                })
                .collect()
        };
        let ops: f64 = first(false).iter().map(|r| r.attempted as f64).sum();
        let work: f64 = per_input("work_s").iter().sum();
        metrics.push(("ops_per_s", "1/s", ops / work));
        metrics.push(("setup_s", "s", mean(&per_input("setup_s"))));
        metrics.push(("peak_rss_mb", "MB", mean(&per_input("peak_rss_mb"))));
        for &(metric, unit) in &END_TO_END[3..] {
            let values: Vec<f64> = first(false).iter().map(|r| r.value(metric)).collect();
            metrics.push((metric, unit, mean(&values)));
        }
    } else {
        let traced_reps = first(true);
        let replay = |reps: &[&Rep]| reps.iter().map(|r| r.value("replay_s")).sum::<f64>();
        for &(metric, unit) in PER_LAYER {
            let posts = || pooled(traced_reps.iter().copied(), "post_ms");
            let value = match metric {
                "trace.overhead_ratio" => replay(&traced_reps) / replay(&first(false)),
                "serve.post_ms_p50" => percentile(&mut posts(), 0.5),
                "serve.post_ms_p99" => percentile(&mut posts(), 0.99),
                "serve.post_samples" => posts().len() as f64,
                "serve.get_ms_p50" => {
                    percentile(&mut pooled(traced_reps.iter().copied(), "get_ms"), 0.5)
                }
                _ => median(traced_reps.iter().map(|r| r.value(metric)).collect()),
            };
            metrics.push((metric, unit, value));
        }
    }
    let mut json = String::from("{\"correct\": ");
    json.push_str(if failed == 0 { "true" } else { "false" });
    json.push_str(&format!(
        ", \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    ));
    for (i, (metric, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        eprintln!("  {metric:<28} {value:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{metric}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    eprintln!(
        "  {name}: {} repetitions over {inputs} inputs in {:.1} s",
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    println!("{json}");
}

/// Checks that at each preset's own seed the benchmark's inputs are the
/// program's own: trace fingerprints against `Scenario::synth_trace`,
/// and the ingest op stream against `edm-serve --dump-ops`.
fn selfcheck(bin_dir: &Path) -> i32 {
    let mut bad = 0;
    for name in WORKLOADS {
        let w = workload(name).expect("listed workload");
        let seed = input::preset_seed(&w.scenario);
        let ok = match w.kind {
            Kind::Serve => {
                let path = PathBuf::from(".perfbench_selfcheck.scn");
                std::fs::write(&path, w.scenario.to_text())
                    .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
                let dump = Command::new(bin_dir.join("edm-serve"))
                    .arg("--dump-ops")
                    .arg(&path)
                    .output();
                let _ = std::fs::remove_file(&path);
                let ours = input::ingest_lines(
                    &w.scenario.synth_trace(),
                    &input::seeded_trace(&w.scenario, seed),
                );
                let ours: String = ours.iter().map(|l| format!("{l}\n")).collect();
                matches!(dump, Ok(d) if d.status.success() && d.stdout == ours.as_bytes())
            }
            Kind::Sim | Kind::Journal => {
                input::seeded_trace(&w.scenario, seed).fingerprint()
                    == w.scenario.synth_trace().fingerprint()
            }
        };
        let verdict = if ok {
            "inputs match the program's own"
        } else {
            "MISMATCH"
        };
        println!("{name:<16} preset seed {seed:#x}: {verdict}");
        bad += usize::from(!ok);
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this runner prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let pairs = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at =
                            entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                        entry[at..entry[at..].find('"').expect("quoted") + at].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        for name in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.5), 50.0);
        assert_eq!(percentile(&mut samples, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn every_workload_builds() {
        for name in WORKLOADS {
            let w = workload(name).expect("listed workload");
            assert!(w.traced_inputs <= w.inputs);
            w.scenario.build_policy().expect("known policy");
        }
    }

    #[test]
    fn input_seeds_are_distinct() {
        let mut seeds: Vec<u64> = (0..4)
            .flat_map(|seed| (0..100).map(move |i| input_seed(seed, i)))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 400);
    }
}
