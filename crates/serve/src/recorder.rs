//! The daemon's recorder: a [`MemoryRecorder`] with a [`Backend`] tap.
//!
//! Every observability hook forwards to the inner recorder unchanged, so
//! journals and metrics are byte-identical to a batch run over the same
//! scenario. On the way through, completed migrations
//! ([`Event::MigrationFinish`]) and rebuilds ([`Event::RebuildFinish`])
//! are applied to the backend — the engine's journal *is* the daemon's
//! replication stream, which is what keeps replay mode and ingest mode
//! on one code path: both drive the cluster, the cluster emits the
//! events, the recorder applies them.
//!
//! Backend failures must not perturb the simulation (observability is
//! read-only by design rule), so they are counted and surfaced through
//! `/healthz`, never propagated.

use edm_cluster::{ObjectId, OsdId};
use edm_obs::{Event, JournalEntry, MemoryRecorder, ObsLevel, Recorder};

use crate::backend::Backend;

/// Recorder wrapper that tees completion events into a [`Backend`].
pub struct ServeRecorder {
    inner: MemoryRecorder,
    backend: Box<dyn Backend>,
    backend_errors: u64,
    last_backend_error: Option<String>,
}

impl ServeRecorder {
    pub fn new(level: ObsLevel, backend: Box<dyn Backend>) -> ServeRecorder {
        ServeRecorder {
            inner: MemoryRecorder::new(level),
            backend,
            backend_errors: 0,
            last_backend_error: None,
        }
    }

    pub fn inner(&self) -> &MemoryRecorder {
        &self.inner
    }

    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// Backend apply failures so far (surfaced via `/healthz`).
    pub fn backend_errors(&self) -> u64 {
        self.backend_errors
    }

    pub fn last_backend_error(&self) -> Option<&str> {
        self.last_backend_error.as_deref()
    }

    /// Convenience passthrough for `/stats` and `/metrics` rendering.
    pub fn journal(&self) -> &[JournalEntry] {
        self.inner.journal()
    }

    fn apply(&mut self, event: &Event) {
        let applied = match *event {
            Event::MigrationFinish {
                object,
                source,
                dest,
                bytes,
            } => self
                .backend
                .apply_move(ObjectId(object), OsdId(source), OsdId(dest), bytes),
            Event::RebuildFinish {
                object,
                dest,
                bytes,
            } => self
                .backend
                .apply_rebuild(ObjectId(object), OsdId(dest), bytes),
            _ => return,
        };
        if let Err(e) = applied {
            self.backend_errors += 1;
            self.last_backend_error = Some(e);
        }
    }
}

impl Recorder for ServeRecorder {
    fn level(&self) -> ObsLevel {
        self.inner.level()
    }

    fn set_now(&mut self, now_us: u64) {
        self.inner.set_now(now_us);
    }

    fn set_device(&mut self, device: Option<u32>) {
        self.inner.set_device(device);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn latency(&mut self, name: &'static str, us: u64) {
        self.inner.latency(name, us);
    }

    fn event(&mut self, event: Event) {
        self.apply(&event);
        self.inner.event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn taps_completions_into_backend() {
        let mut r = ServeRecorder::new(ObsLevel::Events, Box::new(MemBackend::new()));
        r.set_now(100);
        r.event(Event::MigrationStart {
            object: 5,
            source: 0,
            dest: 2,
            bytes: 4096,
        });
        r.event(Event::MigrationFinish {
            object: 5,
            source: 0,
            dest: 2,
            bytes: 4096,
        });
        r.event(Event::RebuildFinish {
            object: 6,
            dest: 1,
            bytes: 512,
        });
        assert_eq!(r.backend().moves_applied(), 2);
        assert_eq!(r.backend_errors(), 0);
        // The journal still carries all three events, untouched.
        assert_eq!(r.inner().journal().len(), 3);
    }

    #[test]
    fn taps_even_below_events_level() {
        // At `metrics` level the journal drops events, but completions
        // still reach the backend — the tap is on the hook, not the log.
        let mut r = ServeRecorder::new(ObsLevel::Metrics, Box::new(MemBackend::new()));
        r.event(Event::MigrationFinish {
            object: 1,
            source: 0,
            dest: 1,
            bytes: 1,
        });
        assert_eq!(r.backend().moves_applied(), 1);
        assert!(r.inner().journal().is_empty());
    }

    struct FailingBackend;
    impl Backend for FailingBackend {
        fn name(&self) -> &'static str {
            "failing"
        }
        fn apply_move(
            &mut self,
            _object: ObjectId,
            _source: OsdId,
            _dest: OsdId,
            _bytes: u64,
        ) -> Result<(), String> {
            Err("disk on fire".to_string())
        }
        fn apply_rebuild(
            &mut self,
            _object: ObjectId,
            _dest: OsdId,
            _bytes: u64,
        ) -> Result<(), String> {
            Err("disk on fire".to_string())
        }
        fn moves_applied(&self) -> u64 {
            0
        }
    }

    #[test]
    fn backend_failure_is_counted_not_propagated() {
        let mut r = ServeRecorder::new(ObsLevel::Events, Box::new(FailingBackend));
        r.event(Event::MigrationFinish {
            object: 1,
            source: 0,
            dest: 1,
            bytes: 1,
        });
        assert_eq!(r.backend_errors(), 1);
        assert_eq!(r.last_backend_error(), Some("disk on fire"));
        // Journal is unaffected: observability stays read-only.
        assert_eq!(r.inner().journal().len(), 1);
    }
}
