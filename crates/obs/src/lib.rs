#![forbid(unsafe_code)]
//! edm-obs: cross-layer observability for the EDM reproduction.
//!
//! This crate sits below every other workspace crate and provides:
//!
//! * [`Recorder`] — the sink trait threaded (`&mut dyn Recorder`)
//!   through the FTL write path, the cluster engine, and the migration
//!   policies. [`NoopRecorder`] implements it with empty inlined bodies;
//!   [`MemoryRecorder`] keeps counters, gauges, log2 latency
//!   [`Histogram`]s, and a structured [`Event`] journal.
//! * [`ObsLevel`] — `off` (nothing), `metrics` (scalars + histograms),
//!   `events` (metrics plus the journal).
//! * [`json`] — a dependency-free JSON writer/parser pair used for the
//!   JSONL journal and by `edm-probe` to read one back.
//!
//! Design rules for instrumented code:
//!
//! 1. Observability is *read-only*: no recorder call may change
//!    simulation state, so determinism is bit-identical at every level.
//! 2. Scalar hooks (`counter`, `latency`) may be called unconditionally;
//!    anything that allocates (an [`Event`] with `Vec` fields) must be
//!    guarded by [`Recorder::events_on`].
//! 3. Virtual time and device scope are ambient: the engine calls
//!    `set_now` / `set_device`, lower layers just emit.

pub mod event;
pub mod hist;
pub mod json;
pub mod prom;
pub mod recorder;

pub use event::Event;
pub use hist::Histogram;
pub use prom::render_prometheus;
pub use recorder::{JournalEntry, MemoryRecorder, NoopRecorder, ObsLevel, Recorder};
