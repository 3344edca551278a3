//! `edm-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! edm-exp <experiment> [--scale F] [--osds N[,N...]] [--full] [--jobs N]
//!
//! experiments: table1 fig1 fig3 fig5 fig6 fig7 fig8 wearout
//!              ablate-sigma ablate-lambda ablate-groups all
//! --scale F    trace scale factor in (0,1]; default 0.05
//! --full       shorthand for --scale 1.0 (the paper's full Table 1 counts)
//! --osds N     cluster sizes (default: paper's 16,20 where applicable)
//! --jobs N     worker threads for matrix sweeps (default: EDM_JOBS env,
//!              then available cores)
//! ```

use std::path::Path;

use edm_cluster::MigrationSchedule;
use edm_harness::bench::{write_cells, BenchCell};
use edm_harness::experiments::{
    ablate, failure, fig1, fig3, fig56, fig7, fig8, model_diff, reliability, scale, table1,
    wearout, EXPERIMENT_IDS,
};
use edm_harness::runner::RunConfig;

fn usage() -> ! {
    eprintln!(
        "usage: edm-exp <experiment> [--scale F] [--osds N[,N...]] [--full] [--jobs N]\n\
         experiments: {} all",
        EXPERIMENT_IDS.join(" ")
    );
    std::process::exit(2);
}

struct Args {
    experiment: String,
    cfg: RunConfig,
    osds: Vec<u32>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(experiment) = args.next() else {
        usage();
    };
    let mut cfg = RunConfig {
        scale: 0.05,
        schedule: MigrationSchedule::Midpoint,
        response_window_us: None,
        jobs: None,
    };
    let mut osds: Vec<u32> = vec![16, 20];
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.scale = v.parse().unwrap_or_else(|_| usage());
                if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
                    usage();
                }
            }
            "--full" => cfg.scale = 1.0,
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => cfg.jobs = Some(n),
                    _ => usage(),
                }
            }
            "--osds" => {
                let v = args.next().unwrap_or_else(|| usage());
                osds = v
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if osds.is_empty() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    Args {
        experiment,
        cfg,
        osds,
    }
}

/// Runs the model-vs-simulator differential gate: renders the corpus
/// comparison, records the `model_*` bench cells, and reports whether
/// every scenario stayed within the committed tolerances.
fn run_model_diff() -> bool {
    let tolerances = match model_diff::Tolerances::load(Path::new("scripts/model_tolerances.json"))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("model-diff: {e}");
            return false;
        }
    };
    let result = match model_diff::run(Path::new("fuzz/corpus"), tolerances) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("model-diff: {e}");
            return false;
        }
    };
    println!("{}", model_diff::render(&result));
    let (closed_wall_s, preds_per_sec) = model_diff::closed_form_bench(5_000);
    let cells = [
        // Corpus differential: scenarios diffed per second of wall time.
        BenchCell {
            name: "model_diff_corpus".into(),
            wall_ms: result.wall_s * 1e3,
            ops_per_sec: result.diffs.len() as f64 / result.wall_s.max(1e-9),
            erases: result.diffs.iter().map(|d| d.sim_erases).sum(),
        },
        // Closed-form evaluation alone: 64-OSD cluster predictions/s.
        BenchCell {
            name: "model_closed_form".into(),
            wall_ms: closed_wall_s * 1e3,
            ops_per_sec: preds_per_sec,
            erases: 0,
        },
    ];
    if let Err(e) = write_cells("BENCH_edm.json", &cells) {
        eprintln!("model-diff: writing BENCH_edm.json failed: {e}");
        return false;
    }
    result.passed()
}

fn run_one(id: &str, cfg: &RunConfig, osds: &[u32]) -> bool {
    match id {
        "table1" => println!("{}", table1::render(&table1::run(cfg.scale))),
        "fig1" => println!("{}", fig1::render(&fig1::run(cfg, osds[0].min(8)))),
        "fig3" => println!("{}", fig3::render(&fig3::run(cfg, &fig3::default_grid()))),
        "fig5" | "fig6" => {
            let m = fig56::run(cfg, osds, &edm_workload::harvard::TRACE_NAMES);
            if id == "fig5" {
                println!("{}", fig56::render_fig5(&m));
            } else {
                println!("{}", fig56::render_fig6(&m));
            }
        }
        "fig7" => println!("{}", fig7::render(&fig7::run(cfg, osds[0]))),
        "fig8" => {
            let traces: Vec<&str> = edm_workload::harvard::TRACE_NAMES.to_vec();
            println!("{}", fig8::render(&fig8::run(cfg, osds[0], &traces)))
        }
        "failure" => {
            println!("{}", failure::render(&failure::run(cfg, osds[0], "home02")));
        }
        "wearout" => {
            // EveryTick gives the checkpointed trajectory migration work
            // to capture; cap the cluster so `all` stays quick.
            let cfg = RunConfig {
                schedule: MigrationSchedule::EveryTick,
                ..*cfg
            };
            println!(
                "{}",
                wearout::render(&wearout::run(&cfg, osds[0].min(8), "home02"))
            );
        }
        "scale" => {
            // Datacenter shape when the caller asks for >= 1024 OSDs,
            // otherwise the seconds-scale smoke shape.
            let sc = if osds.iter().any(|&n| n >= 1024) {
                scale::ScaleConfig::datacenter(cfg.scale, 0)
            } else {
                scale::ScaleConfig::smoke(cfg.scale)
            };
            println!("{}", scale::render(&sc, &scale::run(&sc)));
        }
        "reliability" => {
            // An OSD count not divisible by the group count gives uneven
            // groups (the SIII.D design); 18 -> groups of 5,5,4,4.
            let n = osds.iter().copied().find(|n| n % 4 != 0).unwrap_or(18);
            println!(
                "{}",
                reliability::render(&reliability::run(cfg, n, "lair62"))
            );
        }
        "ablate-sigma" => {
            let sigmas: Vec<f64> = (0..=8).map(|i| i as f64 * 0.05).collect();
            println!(
                "{}",
                ablate::render_sigma(&ablate::sigma_sweep(cfg, &sigmas))
            );
        }
        "ablate-lambda" => {
            let lambdas = [0.02, 0.05, 0.10, 0.20, 0.40, 0.80];
            println!(
                "{}",
                ablate::render_lambda(&ablate::lambda_sweep(cfg, osds[0], &lambdas))
            );
        }
        "ablate-gc" => {
            println!(
                "{}",
                ablate::render_gc_policy(&ablate::gc_policy_sweep(cfg, osds[0]))
            );
        }
        "ablate-decay" => {
            println!(
                "{}",
                ablate::render_decay(&ablate::decay_sweep(cfg, osds[0]))
            );
        }
        "ablate-continuous" => {
            println!(
                "{}",
                ablate::render_continuous(&ablate::continuous_sweep(cfg, osds[0]))
            );
        }
        "ablate-groups" => {
            let groups = [2, 4, 8];
            println!(
                "{}",
                ablate::render_groups(&ablate::group_sweep(cfg, osds[0], &groups))
            );
        }
        "model-diff" => return run_model_diff(),
        other => {
            eprintln!("unknown experiment {other:?}");
            usage();
        }
    }
    true
}

fn main() {
    let args = parse_args();
    #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
    let started = std::time::Instant::now();
    let mut ok = true;
    if args.experiment == "all" {
        for id in EXPERIMENT_IDS {
            eprintln!("== {id} ==");
            ok &= run_one(id, &args.cfg, &args.osds);
        }
    } else {
        ok = run_one(&args.experiment, &args.cfg, &args.osds);
    }
    eprintln!(
        "(scale {:.3}, wall time {:.1}s)",
        args.cfg.scale,
        started.elapsed().as_secs_f64()
    );
    if !ok {
        std::process::exit(1);
    }
}
