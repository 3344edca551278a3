//! The layer ledger of a traced run, measured from outside the program.
//!
//! The engine already calls every layer through two public seams: the
//! policy through `edm_cluster::Migrator`, and everything observable
//! through `edm_obs::Recorder` (`set_now` per dispatched event, a
//! `set_device(Some)`…`set_device(None)` bracket around each device
//! operation, counters, journal events). [`TimedMigrator`] and
//! [`TimedRecorder`] wrap those seams, forward every call unchanged and
//! time the calls into each layer. Both write into one [`Ledger`], so a
//! journal event emitted inside a device bracket or a plan call is
//! charged to `obs` and not also to `ssd` or `core`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use edm_cluster::{AccessEvent, ClusterView, Migrator, MoveAction};
use edm_obs::{Event, Histogram, ObsLevel, Recorder};
use edm_snap::{SnapReader, SnapWriter};

/// Layer times and counts accumulated by the wrappers.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `set_now` calls: one per event the engine dispatches.
    pub events: Cell<u64>,
    pub ssd_calls: Cell<u64>,
    pub ssd: Cell<Duration>,
    pub access_calls: Cell<u64>,
    pub access: Cell<Duration>,
    /// `on_tick` and `on_window_reset` calls.
    pub tick_calls: Cell<u64>,
    pub tick: Cell<Duration>,
    pub plan_calls: Cell<u64>,
    pub plan: Cell<Duration>,
    pub moves_planned: Cell<u64>,
    pub obs_events: Cell<u64>,
    pub obs: Cell<Duration>,
}

impl Ledger {
    /// Time spent in the policy layer.
    pub fn core(&self) -> Duration {
        self.access.get() + self.tick.get() + self.plan.get()
    }

    /// Runs `f`, charging its wall time minus the `obs` time it nested
    /// to `slot`.
    fn charge<T>(&self, slot: &Cell<Duration>, f: impl FnOnce() -> T) -> T {
        let obs_before = self.obs.get();
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let nested = self.obs.get() - obs_before;
        slot.set(slot.get() + elapsed.saturating_sub(nested));
        out
    }
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// A `Migrator` that forwards every trait method to `inner` and times
/// the policy's per-access, per-tick and planning work.
pub struct TimedMigrator<'a> {
    pub inner: &'a mut dyn Migrator,
    pub ledger: &'a Ledger,
}

impl Migrator for TimedMigrator<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_access(&mut self, event: AccessEvent) {
        bump(&self.ledger.access_calls, 1);
        let inner = &mut self.inner;
        self.ledger
            .charge(&self.ledger.access, || inner.on_access(event));
    }

    fn on_tick(&mut self, now_us: u64) {
        bump(&self.ledger.tick_calls, 1);
        let inner = &mut self.inner;
        self.ledger
            .charge(&self.ledger.tick, || inner.on_tick(now_us));
    }

    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
        bump(&self.ledger.plan_calls, 1);
        let inner = &mut self.inner;
        let plan = self.ledger.charge(&self.ledger.plan, || inner.plan(view));
        bump(&self.ledger.moves_planned, plan.len() as u64);
        plan
    }

    fn plan_obs(&mut self, view: &ClusterView, obs: &mut dyn Recorder) -> Vec<MoveAction> {
        bump(&self.ledger.plan_calls, 1);
        let inner = &mut self.inner;
        let plan = self
            .ledger
            .charge(&self.ledger.plan, || inner.plan_obs(view, obs));
        bump(&self.ledger.moves_planned, plan.len() as u64);
        plan
    }

    fn on_window_reset(&mut self) {
        bump(&self.ledger.tick_calls, 1);
        let inner = &mut self.inner;
        self.ledger
            .charge(&self.ledger.tick, || inner.on_window_reset());
    }

    fn blocking_moves(&self) -> bool {
        self.inner.blocking_moves()
    }

    fn parallel_safe(&self) -> bool {
        self.inner.parallel_safe()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) {
        self.inner.load_state(r);
    }
}

/// A `Recorder` that forwards every hook to `inner`, times device
/// brackets and journal events, and keeps its own copy of the counters.
///
/// It reports its level as at least `Metrics`, so FTL and engine
/// counters flow even when `inner` records nothing; whether events are
/// built stays `inner`'s decision.
pub struct TimedRecorder<'a> {
    pub inner: &'a mut dyn Recorder,
    pub ledger: &'a Ledger,
    pub counters: BTreeMap<&'static str, u64>,
    device_since: Option<(Instant, Duration)>,
}

impl<'a> TimedRecorder<'a> {
    pub fn new(inner: &'a mut dyn Recorder, ledger: &'a Ledger) -> Self {
        TimedRecorder {
            inner,
            ledger,
            counters: BTreeMap::new(),
            device_since: None,
        }
    }

    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl Recorder for TimedRecorder<'_> {
    fn level(&self) -> ObsLevel {
        self.inner.level().max(ObsLevel::Metrics)
    }

    fn set_now(&mut self, now_us: u64) {
        bump(&self.ledger.events, 1);
        self.inner.set_now(now_us);
    }

    fn set_device(&mut self, device: Option<u32>) {
        self.inner.set_device(device);
        match device {
            Some(_) => self.device_since = Some((Instant::now(), self.ledger.obs.get())),
            None => {
                if let Some((start, obs_before)) = self.device_since.take() {
                    let nested = self.ledger.obs.get() - obs_before;
                    let busy = start.elapsed().saturating_sub(nested);
                    self.ledger.ssd.set(self.ledger.ssd.get() + busy);
                    bump(&self.ledger.ssd_calls, 1);
                }
            }
        }
    }

    fn set_component(&mut self, component: Option<u32>) {
        self.inner.set_component(component);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
        self.inner.counter(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn latency(&mut self, name: &'static str, us: u64) {
        self.inner.latency(name, us);
    }

    fn event(&mut self, event: Event) {
        bump(&self.ledger.obs_events, 1);
        let start = Instant::now();
        self.inner.event(event);
        self.ledger.obs.set(self.ledger.obs.get() + start.elapsed());
    }

    fn merge_histogram(&mut self, name: &'static str, hist: &Histogram) {
        self.inner.merge_histogram(name, hist);
    }

    fn events_on(&self) -> bool {
        self.inner.events_on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_cluster::{run_trace_obs_keep, MigrationSchedule};
    use edm_obs::{MemoryRecorder, NoopRecorder};
    use edm_scenario::{report_digest, Scenario};

    fn digest(scenario: &Scenario, traced: bool, inner: &mut dyn Recorder) -> (u64, Ledger) {
        let trace = scenario.synth_trace();
        let cluster = scenario.build_cluster(&trace).expect("valid shape");
        let mut policy = scenario.build_policy().expect("known policy");
        let options = scenario.sim_options();
        let ledger = Ledger::default();
        let report = if traced {
            let mut migrator = TimedMigrator {
                inner: policy.as_mut(),
                ledger: &ledger,
            };
            let mut recorder = TimedRecorder::new(inner, &ledger);
            run_trace_obs_keep(cluster, &trace, &mut migrator, options, &mut recorder).0
        } else {
            run_trace_obs_keep(cluster, &trace, policy.as_mut(), options, inner).0
        };
        (report_digest(&report), ledger)
    }

    /// The wrappers forward every call: a traced run reproduces the
    /// untraced report bit for bit under every policy. CMT overrides
    /// `blocking_moves`, so a wrapper that dropped it would show here.
    #[test]
    fn traced_runs_reproduce_untraced_digests_under_every_policy() {
        for policy in ["Baseline", "CMT", "EDM-HDF", "EDM-CDF"] {
            for schedule in [MigrationSchedule::Midpoint, MigrationSchedule::EveryTick] {
                let scenario = Scenario {
                    scale: 0.004,
                    osds: 8,
                    groups: 4,
                    policy: policy.into(),
                    schedule,
                    ..Scenario::default()
                };
                let (plain, _) = digest(&scenario, false, &mut NoopRecorder);
                let (traced, ledger) = digest(&scenario, true, &mut NoopRecorder);
                assert_eq!(plain, traced, "{policy} {schedule:?}");
                assert!(ledger.events.get() > 0 && ledger.ssd_calls.get() > 0);
                assert!(ledger.access_calls.get() > 0 && ledger.tick_calls.get() > 0);
                if policy != "Baseline" {
                    assert!(ledger.plan_calls.get() > 0, "{policy} never planned");
                }
            }
        }
    }

    #[test]
    fn journal_events_are_counted_and_do_not_change_the_run() {
        let scenario = Scenario {
            scale: 0.004,
            osds: 8,
            groups: 4,
            ..Scenario::default()
        };
        let mut plain_journal = MemoryRecorder::new(ObsLevel::Events);
        let (plain, _) = digest(&scenario, false, &mut plain_journal);
        let mut traced_journal = MemoryRecorder::new(ObsLevel::Events);
        let (traced, ledger) = digest(&scenario, true, &mut traced_journal);
        assert_eq!(plain, traced);
        assert_eq!(plain_journal.journal(), traced_journal.journal());
        assert_eq!(
            ledger.obs_events.get(),
            traced_journal.journal().len() as u64
        );
    }
}
