#![forbid(unsafe_code)]
//! # vita-lab
//!
//! The declarative experiment runner: "as many scenarios as you can
//! imagine" as a data file instead of code.
//!
//! A **spec** (see [`spec`]) names a handful of *scenarios* (properties
//! bodies fed to [`vita_core::load_scenario`]) and *variant axes*
//! (property bindings — storage backend, worker count, positioning
//! method, noise seed, …). [`plan::expand`] turns it into a deterministic
//! **trial plan** — `scenarios × axes × repeats`, in file order — and
//! [`run::run_spec`] executes the plan through [`vita_core::Vita`]
//! batches ([`vita_core::Vita::run_many`] on the shared stage-worker
//! pool), emitting one JSONL record per trial plus analysis tables
//! aggregated by axis ([`report::LabReport`]).
//!
//! ## Determinism
//!
//! Everything about a trial except wall-clock timing is a pure function
//! of the spec text: the plan order, each trial's variant bindings, its
//! derived seed (`run.seed` if the spec pins one, else a SplitMix64 mix
//! of the spec seed and the scenario index; repeats differentiate through
//! [`vita_core::derive_run_seed`] exactly as `run_many` lanes do), and
//! therefore its row counts. Two executions of the same spec produce
//! byte-identical trial records modulo timing fields —
//! [`report::TrialRecord::to_json`] with `timing: false` strips exactly
//! those fields, which is the form the golden-fixture and determinism
//! suites compare.
//!
//! ## Spec format
//!
//! ```text
//! # head: runner keys + defaults merged under every scenario
//! name = example
//! seed = 42
//! repeats = 2
//! run.duration_s = 10
//!
//! [scenario small-office]
//! objects.count = 20
//!
//! [axis backend]
//! key = storage.backend
//! values = single, segmented, segmented-spill(4096)
//!
//! [axis load]
//! variant light = objects.count=10 stream.workers=1
//! variant heavy = objects.count=40 stream.workers=4
//! ```
//!
//! Axis sections either enumerate `values` for one property key (`key`
//! defaults to the axis name), or spell out named `variant` lines, each a
//! space-separated list of `key=value` bindings. Merge precedence per
//! trial: axis bindings over scenario body over head defaults.
//!
//! Keys not consumed by the layer loaders configure the runner itself:
//!
//! ```text
//! building = office | mall        building.floors = 2
//! deploy.model = coverage | check-point
//! deploy.type = wifi | bluetooth | rfid
//! deploy.devices = 10             deploy.floor = 0
//! exec = batched | solo           # run_many vs sequential run_streaming_as
//! measure.persistence = false     # export/import probe per plan cell
//! serve.rps = 0                   # >0 attaches a fixed-rate query probe
//! serve.duration_ms = 250         serve.workers = 2
//! assert.cross_axis_rows = AXIS   # trials differing only in AXIS must
//!                                 # produce identical row counts
//! ```
//!
//! Every key a spec sets must be read by at least one cell of its plan —
//! by the layer loaders ([`vita_core::load_scenario`]) or the runner.
//! [`run::run_spec`] decodes every cell before the first trial runs and
//! fails with [`LabError::UnknownKeys`] on keys nothing read, so a
//! misspelling such as `objects.cuont` cannot silently run on the
//! default. What counts as read is what the decoders actually looked up
//! ([`vita_core::Properties::keys_read`]), not a second key list.

pub mod json;
pub mod plan;
pub mod report;
pub mod run;
pub mod spec;

pub use json::{schema_signature, trial_schema_signature, Json, JsonError};
pub use plan::{expand, Trial};
pub use report::{
    json_string, AxisSummary, LabReport, PersistProbe, ServeProbe, TrialRecord, VariantSummary,
};
pub use run::{run_spec, CrossAxisRows, LabError};
pub use spec::{parse_spec, Axis, Scenario, Spec, SpecError, Variant};
