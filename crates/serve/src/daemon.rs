//! The daemon itself: session loops wiring the simulation to the HTTP
//! control plane.
//!
//! Threading model: `run_daemon_on` spawns exactly one extra thread (the
//! HTTP server) and keeps every piece of simulation state — trace,
//! policy, cluster, recorder — on the calling thread's stack. The two
//! threads meet only at the [`Ctrl`] block. In replay mode the recorder
//! sits in a `RefCell` because the [`LiveRun`] engine holds an exclusive
//! borrow of its recorder for the whole run; the cell lets the session
//! loop read journals and counters between steps, when the engine is
//! suspended and provably not borrowing.

use std::cell::RefCell;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use edm_cluster::{CheckpointConfig, LiveRun, SimOptions, SnapManifest, StepPause, TimeSource};
use edm_obs::{render_prometheus, ObsLevel, Recorder};
use edm_scenario::{render_report, report_digest, Scenario, SnapMeta};
use edm_snap::SnapshotFile;

use crate::backend::{Backend, DirBackend, MemBackend};
use crate::ingest::{ApplyOutcome, LiveWorld};
use crate::pacer::{DilatedPacer, FlatOut};
use crate::recorder::ServeRecorder;
use crate::server::spawn_server;
use crate::state::{Ctrl, Published};
use crate::views;

/// How the daemon sources its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Replay the scenario's synthesized trace through the full engine,
    /// dilated against the wall clock.
    Replay,
    /// Accept operations over `POST /ingest` and apply them live.
    Ingest,
}

/// Which backend receives completed migrations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    Mem,
    Dir(PathBuf),
}

/// Everything `run_daemon_on` needs besides the listener.
pub struct DaemonConfig {
    pub scenario: Scenario,
    pub mode: Mode,
    /// Virtual µs per wall µs for replay pacing; `None` replays flat out.
    pub speed: Option<f64>,
    pub checkpoint_dir: Option<PathBuf>,
    /// Periodic checkpoint cadence (virtual µs). On-demand
    /// `POST /checkpoint` works regardless whenever a dir is configured.
    pub checkpoint_every_us: Option<u64>,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Write the event journal here on exit.
    pub journal: Option<PathBuf>,
    pub obs_level: ObsLevel,
    pub backend: BackendKind,
}

/// Sleep for the session loop when there is nothing to do (paused, or
/// ingest queue empty).
const IDLE: Duration = Duration::from_millis(1);

/// Ingest lines drained per session-loop iteration.
const DRAIN_BATCH: usize = 256;

/// Publish progress every this many pacer yields during replay, so
/// `/stats` tracks a dilated run without paying a render per event.
const YIELD_PUBLISH_PERIOD: u64 = 64;

/// Runs the daemon on an already-bound listener until a shutdown is
/// requested over HTTP (or the session fails to build). Binding is left
/// to the caller so tests and the CLI can pick ports their own way.
pub fn run_daemon_on(listener: TcpListener, config: DaemonConfig) -> Result<(), String> {
    let backend: Box<dyn Backend> = match &config.backend {
        BackendKind::Mem => Box::new(MemBackend::new()),
        BackendKind::Dir(root) => Box::new(DirBackend::open(root.clone())?),
    };
    let recorder = RefCell::new(ServeRecorder::new(config.obs_level, backend));
    let ctrl = Arc::new(Ctrl::new());
    let server = spawn_server(listener, Arc::clone(&ctrl));
    let session = match config.mode {
        Mode::Ingest => run_ingest_session(&config, &ctrl, &recorder),
        Mode::Replay => run_replay_session(&config, &ctrl, &recorder),
    };
    // Whatever happened, release the server thread before returning.
    ctrl.request_shutdown();
    if server.join().is_err() {
        return Err("server thread panicked".to_string());
    }
    if let Some(path) = &config.journal {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("creating journal {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        recorder
            .borrow()
            .inner()
            .write_jsonl(&mut w)
            .map_err(|e| format!("writing journal {}: {e}", path.display()))?;
    }
    session
}

// ---------------------------------------------------------------------------
// Ingest mode
// ---------------------------------------------------------------------------

fn run_ingest_session(
    config: &DaemonConfig,
    ctrl: &Ctrl,
    recorder: &RefCell<ServeRecorder>,
) -> Result<(), String> {
    let mut world = match &config.resume {
        Some(path) => LiveWorld::resume(path)?,
        None => LiveWorld::new(config.scenario.clone())?,
    };
    {
        let mut rec = recorder.borrow_mut();
        world.emit_run_meta(&mut *rec);
    }
    let mut checkpoints = 0u64;
    let mut last_ckpt_us = world.now_us();
    let mut was_paused = false;
    publish_ingest(ctrl, &world, recorder, checkpoints, false);
    loop {
        if ctrl.shutdown_requested() {
            return Ok(());
        }
        if ctrl.is_paused() {
            if !was_paused {
                // Republish so /healthz reflects the pause; the view is a
                // snapshot, and the loop publishes nothing while it sleeps.
                was_paused = true;
                publish_ingest(ctrl, &world, recorder, checkpoints, ctrl.ingest_complete());
            }
            std::thread::sleep(IDLE);
            continue;
        }
        if was_paused {
            was_paused = false;
            publish_ingest(ctrl, &world, recorder, checkpoints, ctrl.ingest_complete());
        }
        // An explicit checkpoint request is honored between operations:
        // the live world holds no mid-decision state there.
        if ctrl.take_checkpoint_request() {
            checkpoint_world(config, &world, &mut checkpoints, &mut last_ckpt_us)?;
            publish_ingest(ctrl, &world, recorder, checkpoints, ctrl.ingest_complete());
        }
        let lines = ctrl.drain_ingest(DRAIN_BATCH);
        if lines.is_empty() {
            if ctrl.ingest_complete() {
                publish_ingest(ctrl, &world, recorder, checkpoints, true);
            }
            std::thread::sleep(IDLE);
            continue;
        }
        for line in &lines {
            let outcome = {
                let mut rec = recorder.borrow_mut();
                world.apply_line(line, &mut *rec)
            };
            if let ApplyOutcome::Applied { ticked: true } = outcome {
                let due = config
                    .checkpoint_every_us
                    .is_some_and(|every| world.now_us() >= last_ckpt_us.saturating_add(every));
                if due {
                    checkpoint_world(config, &world, &mut checkpoints, &mut last_ckpt_us)?;
                }
                publish_ingest(ctrl, &world, recorder, checkpoints, false);
            }
        }
        publish_ingest(ctrl, &world, recorder, checkpoints, ctrl.ingest_complete());
    }
}

fn checkpoint_world(
    config: &DaemonConfig,
    world: &LiveWorld,
    checkpoints: &mut u64,
    last_ckpt_us: &mut u64,
) -> Result<(), String> {
    let Some(dir) = &config.checkpoint_dir else {
        // No dir configured: the request is acknowledged but inert.
        return Ok(());
    };
    world
        .checkpoint_now(dir)
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    *checkpoints += 1;
    *last_ckpt_us = world.now_us();
    Ok(())
}

fn publish_ingest(
    ctrl: &Ctrl,
    world: &LiveWorld,
    recorder: &RefCell<ServeRecorder>,
    checkpoints: u64,
    done: bool,
) {
    let rec = recorder.borrow();
    let (accepted, buffered, closed) = ctrl.ingest_status();
    let stats = world.stats();
    let health = views::HealthInfo {
        mode: "ingest",
        policy: &world.policy_name(),
        backend: rec.backend().name(),
        now_us: world.now_us(),
        paused: ctrl.is_paused(),
        done,
        ingest_accepted: accepted,
        ingest_buffered: buffered as u64,
        ingest_closed: closed,
        skipped_ops: world.skipped_ops(),
        rejected_lines: world.rejected_lines(),
        checkpoints,
        backend_moves: rec.backend().moves_applied(),
        backend_errors: rec.backend_errors(),
        last_error: world.last_error().or(rec.last_backend_error()),
    };
    ctrl.publish(Published {
        healthz: views::render_healthz(&health),
        nodes: views::render_nodes(world.cluster(), world.now_us()),
        plan: views::render_plan(rec.journal()),
        stats: views::render_live_stats(&stats, world.now_us(), world.cluster()),
        model: views::render_model(world.cluster(), world.now_us()),
        metrics: render_prometheus(rec.inner()),
        done,
    });
}

// ---------------------------------------------------------------------------
// Replay mode
// ---------------------------------------------------------------------------

/// Forwards every recorder hook into the shared cell. The engine holds
/// this for the whole run; the session loop reads the cell only while
/// the engine is suspended between steps, so the borrows never overlap.
struct TapRef<'r>(&'r RefCell<ServeRecorder>);

impl Recorder for TapRef<'_> {
    fn level(&self) -> ObsLevel {
        self.0.borrow().level()
    }
    fn set_now(&mut self, now_us: u64) {
        self.0.borrow_mut().set_now(now_us);
    }
    fn set_device(&mut self, device: Option<u32>) {
        self.0.borrow_mut().set_device(device);
    }
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.0.borrow_mut().counter(name, delta);
    }
    fn gauge(&mut self, name: &'static str, value: f64) {
        self.0.borrow_mut().gauge(name, value);
    }
    fn latency(&mut self, name: &'static str, us: u64) {
        self.0.borrow_mut().latency(name, us);
    }
    fn event(&mut self, event: edm_obs::Event) {
        self.0.borrow_mut().event(event);
    }
    fn events_on(&self) -> bool {
        self.0.borrow().events_on()
    }
}

fn run_replay_session(
    config: &DaemonConfig,
    ctrl: &Ctrl,
    recorder: &RefCell<ServeRecorder>,
) -> Result<(), String> {
    // Resolve the scenario: a resume takes it from the checkpoint's own
    // manifest (mirroring the batch tool), a fresh run from the config.
    let (scenario, snap) = match &config.resume {
        Some(path) => {
            let snap = SnapshotFile::read_from(path)
                .map_err(|e| format!("{}: cannot read snapshot: {e}", path.display()))?;
            let manifest = SnapManifest::from_snapshot(&snap)
                .map_err(|e| format!("{}: bad manifest: {e}", path.display()))?;
            let meta = SnapMeta::decode(&manifest.extra)
                .map_err(|e| format!("{}: bad scenario metadata: {e}", path.display()))?;
            let scenario = Scenario::parse(&meta.scenario)
                .map_err(|e| format!("{}: embedded scenario: {e}", path.display()))?;
            (scenario, Some((snap, meta.trace_fingerprint)))
        }
        None => (config.scenario.clone(), None),
    };
    let trace = scenario.synth_trace();
    if let Some((_, fingerprint)) = &snap {
        if trace.fingerprint() != *fingerprint {
            return Err(format!(
                "re-synthesized trace fingerprint {:#018x} does not match the \
                 checkpoint's {:#018x} — workload generator changed?",
                trace.fingerprint(),
                fingerprint
            ));
        }
    }
    let mut policy = scenario.build_policy()?;
    let policy_name = policy.name().to_string();
    // Always attach a checkpoint config when a dir is given: the engine
    // takes the snapshot's embedded metadata from it, so even purely
    // on-demand checkpoints stay resumable. Without a cadence the
    // interval is effectively infinite (saturating add in the engine).
    let checkpoint = config.checkpoint_dir.as_ref().map(|dir| CheckpointConfig {
        every_us: config.checkpoint_every_us.unwrap_or(u64::MAX),
        dir: dir.clone(),
        meta: SnapMeta {
            scenario: scenario.to_text(),
            trace_fingerprint: trace.fingerprint(),
        }
        .encode(),
    });
    let options = SimOptions {
        checkpoint,
        ..scenario.sim_options()
    };
    let mut tap = TapRef(recorder);
    let mut live = match &snap {
        Some((snap, _)) => LiveRun::resume(snap, &trace, policy.as_mut(), options, &mut tap)
            .map_err(|e| format!("resume failed: {e}"))?,
        None => {
            let cluster = scenario.build_cluster(&trace)?;
            LiveRun::new(cluster, &trace, policy.as_mut(), options, &mut tap)
        }
    };
    let mut dilated = config.speed.map(|s| DilatedPacer::new(s, live.now_us()));
    let mut flat = FlatOut::new();
    let mut checkpoints = 0u64;
    let mut yields = 0u64;
    let mut was_paused = false;
    publish_replay(ctrl, &live, recorder, &policy_name, checkpoints, false);
    let done = loop {
        if ctrl.shutdown_requested() {
            break false;
        }
        if ctrl.is_paused() {
            if !was_paused {
                was_paused = true;
                publish_replay(ctrl, &live, recorder, &policy_name, checkpoints, false);
            }
            std::thread::sleep(IDLE);
            continue;
        }
        if was_paused {
            // Forgive the paused stretch instead of replaying it as a
            // burst of overdue events.
            was_paused = false;
            if let Some(p) = dilated.as_mut() {
                p.rebase(live.now_us());
            }
        }
        let pace: &mut dyn TimeSource = match dilated.as_mut() {
            Some(p) => p,
            None => &mut flat,
        };
        match live.step(pace) {
            StepPause::Done => break true,
            StepPause::Tick => {
                if ctrl.take_checkpoint_request() {
                    if let Some(dir) = &config.checkpoint_dir {
                        live.checkpoint_now(dir)
                            .map_err(|e| format!("checkpoint failed: {e}"))?;
                        checkpoints += 1;
                    }
                }
                publish_replay(ctrl, &live, recorder, &policy_name, checkpoints, false);
            }
            StepPause::Yielded => {
                yields += 1;
                if yields.is_multiple_of(YIELD_PUBLISH_PERIOD) {
                    publish_replay(ctrl, &live, recorder, &policy_name, checkpoints, false);
                }
            }
        }
    };
    if !done {
        return Ok(()); // shut down mid-replay; nothing to finalize
    }
    let (report, cluster) = live.finish();
    let digest = report_digest(&report);
    let rec = recorder.borrow();
    let (accepted, buffered, closed) = ctrl.ingest_status();
    let health = views::HealthInfo {
        mode: "replay",
        policy: &policy_name,
        backend: rec.backend().name(),
        now_us: report.duration_us,
        paused: false,
        done: true,
        ingest_accepted: accepted,
        ingest_buffered: buffered as u64,
        ingest_closed: closed,
        skipped_ops: 0,
        rejected_lines: 0,
        checkpoints,
        backend_moves: rec.backend().moves_applied(),
        backend_errors: rec.backend_errors(),
        last_error: rec.last_backend_error(),
    };
    ctrl.publish(Published {
        healthz: views::render_healthz(&health),
        nodes: views::render_nodes(&cluster, report.duration_us),
        plan: views::render_plan(rec.journal()),
        stats: views::render_replay_final(&render_report(&report), digest),
        model: views::render_model(&cluster, report.duration_us),
        metrics: render_prometheus(rec.inner()),
        done: true,
    });
    drop(rec);
    // Keep serving the final views until the client says shutdown.
    while !ctrl.shutdown_requested() {
        std::thread::sleep(IDLE);
    }
    Ok(())
}

fn publish_replay(
    ctrl: &Ctrl,
    live: &LiveRun<'_>,
    recorder: &RefCell<ServeRecorder>,
    policy_name: &str,
    checkpoints: u64,
    done: bool,
) {
    let rec = recorder.borrow();
    let (accepted, buffered, closed) = ctrl.ingest_status();
    let health = views::HealthInfo {
        mode: "replay",
        policy: policy_name,
        backend: rec.backend().name(),
        now_us: live.now_us(),
        paused: ctrl.is_paused(),
        done,
        ingest_accepted: accepted,
        ingest_buffered: buffered as u64,
        ingest_closed: closed,
        skipped_ops: 0,
        rejected_lines: 0,
        checkpoints,
        backend_moves: rec.backend().moves_applied(),
        backend_errors: rec.backend_errors(),
        last_error: rec.last_backend_error(),
    };
    ctrl.publish(Published {
        healthz: views::render_healthz(&health),
        nodes: views::render_nodes(live.cluster(), live.now_us()),
        plan: views::render_plan(rec.journal()),
        stats: views::render_replay_progress(live.now_us(), live.completed_ops(), live.total_ops()),
        model: views::render_model(live.cluster(), live.now_us()),
        metrics: render_prometheus(rec.inner()),
        done,
    });
}
