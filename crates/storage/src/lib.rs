//! # vita-storage
//!
//! The Storage component (paper §2, §4.2): repositories for every
//! generated data product (indexed in the segmented engine), Data Stream
//! APIs for the Producer, and binary persistence. Replaces the paper's PostgreSQL+PostGIS deployment with an
//! embedded, laptop-scale engine (ARCHITECTURE.md, "Backend dispatch").
//!
//! * [`table`] — the single backend's reference store: one append-only
//!   table per product, every query a linear scan.
//! * [`segment`] — the segmented engine, whose sealed sections build
//!   object, device and per-floor spatial indexes on first use.
//! * [`stream`] — tumbling windows, downsampling, stream merge.
//! * [`codec`] — compact binary encode/decode for file round-trips.
//! * [`Repository`] — the thread-safe facade bundling all tables.
//!
//! ## The `ProductSink` contract
//!
//! The streaming pipeline hands each layer's data products to storage as
//! **owned batches** ([`ProductBatch`]) through the [`ProductSink`] trait,
//! rather than materializing a whole run and copying it in afterwards.
//! Implementations and producers agree on three rules:
//!
//! * **Ordering** — rows *within* one batch are time-ordered by their
//!   producer (one batch per moving object is the pipeline default).
//!   Batches from concurrent producers may interleave arbitrarily; every
//!   query orders by time, object, device or distance, so the row *sets*
//!   it returns are independent of arrival order. Ties are not: rows
//!   sharing a timestamp come back in arrival order, which is
//!   scheduler-dependent under concurrent producers — consumers needing a
//!   run-stable total order must sort on a full key, as the parity tests
//!   do.
//! * **Batch size** — producers should target hundreds-to-thousands of
//!   rows per batch. Batches move into the tables wholesale (one `Vec`
//!   append, plus on the segmented backend one unsealed segment and its
//!   publication); degenerate one-row batches pay that fixed cost per
//!   row.
//! * **Backpressure** — [`ProductSink::accept`] may block briefly on the
//!   table's write lock but never buffers unboundedly. Producers bound the
//!   number of in-flight batches upstream (the pipeline uses a bounded
//!   channel between stage workers), so peak memory stays at
//!   `O(channel capacity × batch size)` instead of `O(run size)`.
//!
//! ## Choosing a backend
//!
//! Two [`ProductSink`] backends implement the same contract:
//!
//! * [`Repository`] — the reference store: four append-only [`table`]s
//!   behind one `RwLock` each, with no index, so every query is a linear
//!   scan. The offline default: ingest is a `Vec` append with no sealing
//!   or compaction, and export and import are single passes. It is
//!   also the oracle the cross-backend parity suites compare against, and
//!   it shares no index or grid code with the engine it checks.
//! * [`SegmentedRepository`] — the indexed engine. Each table is a list of
//!   immutable, run-segmented segments published by atomic snapshot swap;
//!   the appends that fill them seal them (sorting each sealed section by
//!   time) and compact them inline, with no thread of their own. A sealed
//!   section's object, device and spatial indexes are each built by the
//!   first query that needs them (see the [`segment`] module docs). A
//!   reader pins a snapshot by cloning an `Arc` under a read lock held for
//!   just that, so it never waits on ingestion, sealing, compaction or
//!   spill work. Choose it whenever queries matter: for
//!   serving, for queries *while* ingestion runs, and for data that must
//!   outgrow memory (its spill tier). Its queries go through one generic
//!   handle per table ([`SegmentedRepository::trajectories`] and its
//!   siblings), under the reference [`table::Table`]'s method names, and
//!   return a [`SpillError`] when a spill file cannot be read back.
//!
//! [`StorageBackend`] names the choice for configuration surfaces and
//! [`AnyRepository`] dispatches between the two at runtime (this is what
//! `vita-core`'s pipeline stores). Its signatures stay infallible: it is
//! the one place a [`SpillError`] becomes a panic.
//!
//! ## The run dimension
//!
//! Both backends store data from **many concurrent generation runs** in
//! one repository: every ingested row carries the [`RunId`] passed to
//! [`ProductSink::accept_run`] (plain [`ProductSink::accept`] writes under
//! [`RunId::DEFAULT`]). The reference tables keep the tag next to each
//! row; the segmented engine keeps one section per run in every segment.
//! Every query takes a [`RunScope`] naming the runs it answers over:
//!
//! * [`RunScope::All`] merges **all runs** — what a repository that ignored
//!   run tags would return, and
//! * [`RunScope::One`] restricts the same query to one run, whose answer is
//!   exactly what a repository that only ever saw that run would return —
//!   run isolation, enforced by the `run_isolation` proptest suite on both
//!   backends.
//!
//! [`RunId`] converts into a scope (`run.into()`), so scoped call sites
//! stay short. (The pre-`RunScope` method names — `counts_run`,
//! `time_window_run`, `trajectory_rows`, … — went through a deprecation
//! cycle and are gone.)
//!
//! ## Persistence & wire format
//!
//! [`Repository::export`] and [`SegmentedRepository::export`] serialize
//! each table into one buffer of the versioned binary wire format (see
//! the [`codec`] module docs for the framing layout). The format is
//! **run-segmented**: every table file carries one section per run, so a
//! multi-run repository survives `export` → `import` with its run
//! dimension intact — per-run row sets come back bit-identical on every
//! run-scoped query path, on either backend (the `persistence_roundtrip`
//! proptest suite). Both backends write the same bytes for the same
//! batches (the `export_golden` suite pins them across commits), and one
//! replay reads them back: [`RepositoryExport::ingest_into`] hands every
//! run section to any [`ProductSink`] as one batch, and
//! [`AnyRepository::import`] replays into a fresh repository of whichever
//! [`StorageBackend`] the caller names — which is how run tags survive
//! backend switches through `Vita::save_to` / `load_from` in `vita-core`.
//! Legacy v1 files (written before the run dimension existed) still
//! decode; their rows land in [`RunId::DEFAULT`], exactly where the v1
//! exporter had flattened them. [`RepositoryExport::write_dir`] /
//! [`RepositoryExport::read_dir`] move the four table buffers to and from
//! a directory on disk.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
mod row;
pub mod segment;
pub mod stream;
pub mod table;

pub use codec::{
    decode_runs, decode_segment, encode_runs, encode_segment, CodecError, SegmentSection,
    WireRecord,
};
pub use segment::{SegmentConfig, SegmentStats, SegmentedRepository, SpillConfig, SpillError};
pub use stream::{downsample, merge_by_time, record_rate, Timed, TumblingWindow};
pub use table::{FixTable, ProximityTable, RssiTable, TrajectoryTable};

use parking_lot::RwLock;

use vita_geometry::{Aabb, Point};
use vita_indoor::{FloorId, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;

pub use vita_indoor::RunId;

/// Which runs a query answers over — the run dimension made explicit (see
/// the crate-level "run dimension" docs).
///
/// Every query method on the storage backends takes a `RunScope` as its
/// first argument. [`RunId`] converts into one, so call sites restricted to
/// a single run read `repo.counts(run.into())`.
///
/// # Examples
///
/// ```
/// use vita_storage::{RunId, RunScope};
///
/// assert_eq!(RunScope::default(), RunScope::All);
/// let scope: RunScope = RunId(3).into();
/// assert_eq!(scope, RunScope::One(RunId(3)));
/// assert_eq!(scope.run(), Some(RunId(3)));
/// assert_eq!(RunScope::All.run(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RunScope {
    /// All runs merged — what a repository that ignored run tags would
    /// answer.
    #[default]
    All,
    /// One run in isolation — what a repository that only ever saw that
    /// run would answer.
    One(RunId),
}

impl RunScope {
    /// The scoped run, or `None` for [`RunScope::All`].
    #[inline]
    pub fn run(self) -> Option<RunId> {
        match self {
            RunScope::All => None,
            RunScope::One(run) => Some(run),
        }
    }
}

impl From<RunId> for RunScope {
    fn from(run: RunId) -> Self {
        RunScope::One(run)
    }
}

/// Named row counts of the four product tables, as returned by the `counts`
/// queries (formerly an anonymous `(usize, usize, usize, usize)`).
///
/// # Examples
///
/// ```
/// use vita_storage::TableCounts;
///
/// let c = TableCounts { trajectories: 10, rssi: 4, fixes: 2, proximity: 1 };
/// assert_eq!(c.total(), 17);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCounts {
    pub trajectories: usize,
    pub rssi: usize,
    pub fixes: usize,
    pub proximity: usize,
}

impl TableCounts {
    /// Total rows across all four tables.
    pub fn total(&self) -> usize {
        self.trajectories + self.rssi + self.fixes + self.proximity
    }
}

impl std::ops::Add for TableCounts {
    type Output = TableCounts;

    fn add(self, rhs: TableCounts) -> TableCounts {
        TableCounts {
            trajectories: self.trajectories + rhs.trajectories,
            rssi: self.rssi + rhs.rssi,
            fixes: self.fixes + rhs.fixes,
            proximity: self.proximity + rhs.proximity,
        }
    }
}

/// One owned batch of a generated data product, as handed from a producer
/// stage to a [`ProductSink`]. Carrying the `Vec` by value lets sinks move
/// rows into their tables without intermediate copies.
#[derive(Debug, Clone)]
pub enum ProductBatch {
    Trajectories(Vec<TrajectorySample>),
    Rssi(Vec<RssiMeasurement>),
    Fixes(Vec<Fix>),
    Proximity(Vec<ProximityRecord>),
}

impl ProductBatch {
    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        match self {
            ProductBatch::Trajectories(v) => v.len(),
            ProductBatch::Rssi(v) => v.len(),
            ProductBatch::Fixes(v) => v.len(),
            ProductBatch::Proximity(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Batch ingestion endpoint for pipeline stages (see the crate docs for the
/// ordering / batch-size / backpressure contract). [`Repository`] is the
/// canonical implementation; [`SegmentedRepository`] and
/// [`AnyRepository`] implement the same trait.
pub trait ProductSink: Send + Sync {
    /// Ingest one owned batch under [`RunId::DEFAULT`] — the single-run
    /// convenience form of [`ProductSink::accept_run`].
    fn accept(&self, batch: ProductBatch) {
        self.accept_run(RunId::DEFAULT, batch);
    }

    /// Ingest one owned batch tagged with the run that produced it. Rows
    /// keep the tag in every table, so concurrent runs sharing a sink can
    /// be queried in isolation afterwards (the run dimension). May block
    /// briefly (lock contention) but must not buffer unboundedly.
    fn accept_run(&self, run: RunId, batch: ProductBatch);
}

/// The data keeper for one generation run: all repositories behind one
/// thread-safe facade ("Storage serves as both the data provider and data
/// keeper"). The tables are the [`table`] module's linear-scan reference
/// store.
#[derive(Debug, Default)]
pub struct Repository {
    pub trajectories: RwLock<TrajectoryTable>,
    pub rssi: RwLock<RssiTable>,
    pub fixes: RwLock<FixTable>,
    pub proximity: RwLock<ProximityTable>,
}

impl ProductSink for Repository {
    fn accept_run(&self, run: RunId, batch: ProductBatch) {
        match batch {
            ProductBatch::Trajectories(v) => self.trajectories.write().append_batch_run(run, v),
            ProductBatch::Rssi(v) => self.rssi.write().append_batch_run(run, v),
            ProductBatch::Fixes(v) => self.fixes.write().append_batch_run(run, v),
            ProductBatch::Proximity(v) => self.proximity.write().append_batch_run(run, v),
        }
    }
}

impl Repository {
    pub fn new() -> Self {
        Self::default()
    }

    /// Row counts of the four tables under `scope`.
    pub fn counts(&self, scope: RunScope) -> TableCounts {
        match scope.run() {
            None => TableCounts {
                trajectories: self.trajectories.read().len(),
                rssi: self.rssi.read().len(),
                fixes: self.fixes.read().len(),
                proximity: self.proximity.read().len(),
            },
            Some(run) => TableCounts {
                trajectories: self.trajectories.read().len_run(run),
                rssi: self.rssi.read().len_run(run),
                fixes: self.fixes.read().len_run(run),
                proximity: self.proximity.read().len_run(run),
            },
        }
    }

    /// Every run with at least one row in any table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        let mut runs: Vec<RunId> = self.trajectories.read().run_ids();
        runs.extend(self.rssi.read().run_ids());
        runs.extend(self.fixes.read().run_ids());
        runs.extend(self.proximity.read().run_ids());
        runs.sort_unstable();
        runs.dedup();
        runs
    }

    /// Serialize every table into one buffer per table, one wire-format
    /// section per run: run tags survive the export (see the crate-level
    /// "Persistence & wire format" docs). Each table is bucketed by run in
    /// one pass.
    pub fn export(&self) -> RepositoryExport {
        // All four read locks at once: the export is one consistent cut
        // across the tables even while ingestion runs.
        let trajectories = self.trajectories.read();
        let rssi = self.rssi.read();
        let fixes = self.fixes.read();
        let proximity = self.proximity.read();
        let t_sections = trajectories.export_sections();
        let r_sections = rssi.export_sections();
        let f_sections = fixes.export_sections();
        let p_sections = proximity.export_sections();
        RepositoryExport {
            trajectories: encode_runs(&borrow_sections(&t_sections)),
            rssi: encode_runs(&borrow_sections(&r_sections)),
            fixes: encode_runs(&borrow_sections(&f_sections)),
            proximity: encode_runs(&borrow_sections(&p_sections)),
        }
    }
}

/// The borrowed view the sectioned encoders take (both backends'
/// `export`).
pub(crate) fn borrow_sections<T>(sections: &[(RunId, Vec<T>)]) -> Vec<(RunId, &[T])> {
    sections.iter().map(|(r, v)| (*r, v.as_slice())).collect()
}

/// Serialized form of a repository (either backend): one wire-format
/// buffer per table, run-segmented.
#[derive(Debug, Clone)]
pub struct RepositoryExport {
    pub trajectories: bytes::Bytes,
    pub rssi: bytes::Bytes,
    pub fixes: bytes::Bytes,
    pub proximity: bytes::Bytes,
}

impl RepositoryExport {
    /// The file names `write_dir` / `read_dir` use, in table order.
    pub const FILE_NAMES: [&'static str; 4] = [
        "trajectories.vita",
        "rssi.vita",
        "fixes.vita",
        "proximity.vita",
    ];

    /// Write the four table buffers into `dir` (created if missing) under
    /// [`RepositoryExport::FILE_NAMES`]. Each file is written
    /// crash-atomically (temp file in `dir`, then rename): a crash
    /// mid-save can leave stale tables or `.tmp` orphans, but never a
    /// torn table file under a final name.
    pub fn write_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        codec::write_export_dir(self, dir)
    }

    /// Read the four table files back from `dir`. Purely file IO — decode
    /// errors surface when the export is imported.
    pub fn read_dir(dir: &std::path::Path) -> std::io::Result<Self> {
        codec::read_export_dir(dir)
    }

    /// Replay the export into `sink`, table by table: each table file is
    /// decoded, then every run section is handed over as one
    /// [`ProductSink::accept_run`] batch, so every row comes back under
    /// the run id it was exported with (v1-format files land in
    /// [`RunId::DEFAULT`]). The one way to load an export, into either
    /// backend. A table that fails to decode returns its error; the
    /// tables before it have already been replayed.
    pub fn ingest_into(&self, sink: &impl ProductSink) -> Result<(), CodecError> {
        for (run, rows) in decode_runs(&self.trajectories)? {
            sink.accept_run(run, ProductBatch::Trajectories(rows));
        }
        for (run, rows) in decode_runs(&self.rssi)? {
            sink.accept_run(run, ProductBatch::Rssi(rows));
        }
        for (run, rows) in decode_runs(&self.fixes)? {
            sink.accept_run(run, ProductBatch::Fixes(rows));
        }
        for (run, rows) in decode_runs(&self.proximity)? {
            sink.accept_run(run, ProductBatch::Proximity(rows));
        }
        Ok(())
    }
}

/// The storage-backend choice, for configuration surfaces (see the
/// crate-level "Choosing a backend" docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// One [`Repository`]: the linear-scan reference store, four tables
    /// with one `RwLock` each.
    #[default]
    Single,
    /// A [`SegmentedRepository`]: immutable segments, snapshot-pinned
    /// reads (a read lock held only to clone an `Arc`, never across
    /// ingestion, sealing, compaction or spill work), sealed and compacted
    /// inline by the appends. With a [`SpillConfig`], sealed segments past
    /// the memory budget are spilled to disk and paged back on query; `None`
    /// keeps the store all-resident (and still honors the `VITA_SPILL_*`
    /// environment — see [`SpillConfig::from_env`]).
    Segmented { spill: Option<SpillConfig> },
}

impl StorageBackend {
    /// The all-resident segmented backend — [`StorageBackend::Segmented`]
    /// without a spill tier.
    pub fn segmented() -> Self {
        StorageBackend::Segmented { spill: None }
    }
}

/// A backend string did not parse; carries the offending text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(pub String);

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown storage backend '{}' (expected single | segmented | \
             segmented-spill(BUDGET_ROWS))",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

/// The textual backend names used by configuration surfaces (properties
/// files, `vita-lab` specs, trial records): `single`, `segmented`, and
/// `segmented-spill(BUDGET_ROWS)`. The spill variant
/// prints only its row budget — the directory is an operational detail
/// (and [`std::str::FromStr`] reconstructs it from `VITA_SPILL_DIR` or the
/// system temp dir), so a backend round-trips through its display form
/// with the same memory budget.
impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageBackend::Single => write!(f, "single"),
            StorageBackend::Segmented { spill: None } => write!(f, "segmented"),
            StorageBackend::Segmented { spill: Some(c) } => {
                write!(f, "segmented-spill({})", c.memory_budget_rows)
            }
        }
    }
}

/// Parse the [`std::fmt::Display`] form. `segmented-spill` without a
/// budget uses the [`SpillConfig::new`] default. The spill directory comes from
/// `VITA_SPILL_DIR` when set, else `<temp>/vita-spill` — each repository
/// instance creates (and removes) its own subdirectory underneath, so a
/// shared parent is safe.
impl std::str::FromStr for StorageBackend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let err = || ParseBackendError(s.to_string());
        // Split "name(arg)" into name + optional arg.
        let (name, arg) = match s.find('(') {
            Some(open) if s.ends_with(')') => (&s[..open], Some(s[open + 1..s.len() - 1].trim())),
            Some(_) => return Err(err()),
            None => (s, None),
        };
        match (name, arg) {
            ("single", None) => Ok(StorageBackend::Single),
            ("segmented", None) => Ok(StorageBackend::segmented()),
            ("segmented-spill", arg) => {
                let dir = std::env::var_os("VITA_SPILL_DIR")
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| std::env::temp_dir().join("vita-spill"));
                let mut spill = SpillConfig::new(dir);
                if let Some(n) = arg {
                    spill.memory_budget_rows = n.parse().map_err(|_| err())?;
                }
                Ok(StorageBackend::Segmented { spill: Some(spill) })
            }
            _ => Err(err()),
        }
    }
}

/// Runtime dispatch between the two [`ProductSink`] backends. Queries
/// that must work on either backend return owned rows (every product row
/// is `Copy`); backend-specific surfaces are reachable through
/// [`AnyRepository::as_single`] / [`AnyRepository::as_segmented`].
///
/// The segmented engine's queries and export return a [`SpillError`]
/// when a spilled segment file cannot be read back (truncated, corrupt,
/// missing or another segment's). This surface keeps its infallible
/// signatures and panics with `"spilled segment unreadable"` instead:
/// answering without those rows would be silently wrong. Callers that
/// must degrade gracefully query the segmented table handles
/// ([`SegmentedRepository::trajectories`] and its siblings) directly.
#[derive(Debug)]
pub enum AnyRepository {
    Single(Box<Repository>),
    Segmented(SegmentedRepository),
}

/// The one place a [`SpillError`] becomes the panic [`AnyRepository`]
/// documents.
fn readable<T>(answer: Result<T, SpillError>) -> T {
    #[expect(
        clippy::expect_used,
        reason = "documented contract: AnyRepository's row-returning queries and export panic on an unreadable spill file rather than return wrong rows; the segmented table handles return the SpillError"
    )]
    answer.expect("spilled segment unreadable")
}

/// Owned copies of a reference-table answer.
fn owned<R: Copy>(rows: Vec<&R>) -> Vec<R> {
    rows.into_iter().copied().collect()
}

impl AnyRepository {
    pub fn new(backend: StorageBackend) -> Self {
        match backend {
            StorageBackend::Single => AnyRepository::Single(Box::new(Repository::new())),
            StorageBackend::Segmented { spill: None } => {
                AnyRepository::Segmented(SegmentedRepository::new())
            }
            StorageBackend::Segmented { spill: Some(cfg) } => AnyRepository::Segmented(
                SegmentedRepository::with_spill(SegmentConfig::default(), cfg),
            ),
        }
    }

    /// The backend this repository was asked to implement: a segmented
    /// repository whose spill tier came from the `VITA_SPILL_*`
    /// environment still reports [`StorageBackend::segmented`], so
    /// comparing it with the configured backend says "no switch needed".
    pub fn backend(&self) -> StorageBackend {
        match self {
            AnyRepository::Single(_) => StorageBackend::Single,
            AnyRepository::Segmented(s) => StorageBackend::Segmented {
                spill: s.spill_config().cloned(),
            },
        }
    }

    pub fn as_single(&self) -> Option<&Repository> {
        match self {
            AnyRepository::Single(r) => Some(r),
            _ => None,
        }
    }

    pub fn as_segmented(&self) -> Option<&SegmentedRepository> {
        match self {
            AnyRepository::Segmented(s) => Some(s),
            _ => None,
        }
    }

    /// Row counts of the four tables under `scope`.
    pub fn counts(&self, scope: RunScope) -> TableCounts {
        match self {
            AnyRepository::Single(r) => r.counts(scope),
            AnyRepository::Segmented(s) => s.counts(scope),
        }
    }

    /// Every run with at least one row in any table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        match self {
            AnyRepository::Single(r) => r.run_ids(),
            AnyRepository::Segmented(s) => s.run_ids(),
        }
    }

    /// Owned copy of the trajectory samples under `scope`, in insertion
    /// order on either backend.
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn trajectories(&self, scope: RunScope) -> Vec<TrajectorySample> {
        match self {
            AnyRepository::Single(r) => owned(r.trajectories.read().scan(scope)),
            AnyRepository::Segmented(s) => readable(s.trajectories().scan(scope)),
        }
    }

    /// Owned copy of the RSSI measurements under `scope` (same ordering
    /// contract as [`AnyRepository::trajectories`]).
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn rssi(&self, scope: RunScope) -> Vec<RssiMeasurement> {
        match self {
            AnyRepository::Single(r) => owned(r.rssi.read().scan(scope)),
            AnyRepository::Segmented(s) => readable(s.rssi().scan(scope)),
        }
    }

    /// Owned copy of the positioning fixes under `scope` (same ordering
    /// contract as [`AnyRepository::trajectories`]).
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn fixes(&self, scope: RunScope) -> Vec<Fix> {
        match self {
            AnyRepository::Single(r) => owned(r.fixes.read().scan(scope)),
            AnyRepository::Segmented(s) => readable(s.fixes().scan(scope)),
        }
    }

    /// Owned copy of the proximity records under `scope` (same ordering
    /// contract as [`AnyRepository::trajectories`]).
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn proximity(&self, scope: RunScope) -> Vec<ProximityRecord> {
        match self {
            AnyRepository::Single(r) => owned(r.proximity.read().scan(scope)),
            AnyRepository::Segmented(s) => readable(s.proximity().scan(scope)),
        }
    }

    /// Latest trajectory sample at or before `t` (inclusive) per object
    /// under `scope`, sorted by object id — the backend-agnostic snapshot
    /// query serving dispatches to (see [`table::Table::snapshot_at`] for
    /// the contract).
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn snapshot_at(&self, scope: RunScope, t: Timestamp) -> Vec<TrajectorySample> {
        match self {
            AnyRepository::Single(r) => owned(r.trajectories.read().snapshot_at(scope, t)),
            AnyRepository::Segmented(s) => readable(s.trajectories().snapshot_at(scope, t)),
        }
    }

    /// Trajectory samples in the **half-open** window `from <= t < to`
    /// under `scope`, time-ordered (ties in arrival order).
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn time_window(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<TrajectorySample> {
        match self {
            AnyRepository::Single(r) => owned(r.trajectories.read().time_window(scope, from, to)),
            AnyRepository::Segmented(s) => readable(s.trajectories().time_window(scope, from, to)),
        }
    }

    /// An object's trajectory under `scope`, time-ordered.
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn object_trace(&self, scope: RunScope, o: ObjectId) -> Vec<TrajectorySample> {
        match self {
            AnyRepository::Single(r) => owned(r.trajectories.read().object_trace(scope, o)),
            AnyRepository::Segmented(s) => readable(s.trajectories().of_object(scope, o)),
        }
    }

    /// Trajectory samples on `floor` inside `query` under `scope`, in
    /// insertion order.
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn range_query(
        &self,
        scope: RunScope,
        floor: FloorId,
        query: &Aabb,
    ) -> Vec<TrajectorySample> {
        match self {
            AnyRepository::Single(r) => {
                owned(r.trajectories.read().range_query(scope, floor, query))
            }
            AnyRepository::Segmented(s) => {
                readable(s.trajectories().range_query(scope, floor, query))
            }
        }
    }

    /// The k trajectory samples nearest `p` on `floor` under `scope`, with
    /// their distances, nearest first (the distance multiset is identical
    /// across backends; equal-distance ties may order differently).
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn knn(
        &self,
        scope: RunScope,
        floor: FloorId,
        p: Point,
        k: usize,
    ) -> Vec<(TrajectorySample, f64)> {
        match self {
            AnyRepository::Single(r) => r
                .trajectories
                .read()
                .knn(scope, floor, p, k)
                .into_iter()
                .map(|(s, d)| (*s, d))
                .collect(),
            AnyRepository::Segmented(s) => readable(s.trajectories().knn(scope, floor, p, k)),
        }
    }

    /// Serialize every table into one buffer per table, run-segmented:
    /// either backend produces the same wire format, and
    /// [`AnyRepository::import`] loads it into either.
    ///
    /// # Panics
    /// If a spilled segment file is unreadable (see [`AnyRepository`]).
    pub fn export(&self) -> RepositoryExport {
        match self {
            AnyRepository::Single(r) => r.export(),
            AnyRepository::Segmented(s) => readable(s.export()),
        }
    }

    /// Rebuild a repository of the requested backend shape from an
    /// export: [`AnyRepository::new`], then
    /// [`RepositoryExport::ingest_into`] it. The export's own backend does
    /// not matter — the wire format is backend-agnostic — so this is how
    /// run-tagged data moves across backend switches.
    pub fn import(export: &RepositoryExport, backend: StorageBackend) -> Result<Self, CodecError> {
        let repo = AnyRepository::new(backend);
        export.ingest_into(&repo)?;
        Ok(repo)
    }
}

impl Default for AnyRepository {
    fn default() -> Self {
        AnyRepository::new(StorageBackend::Single)
    }
}

impl ProductSink for AnyRepository {
    fn accept_run(&self, run: RunId, batch: ProductBatch) {
        match self {
            AnyRepository::Single(r) => r.accept_run(run, batch),
            AnyRepository::Segmented(s) => s.accept_run(run, batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vita_geometry::Point;
    use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, Timestamp};

    fn sample(o: u32, t: u64) -> TrajectorySample {
        TrajectorySample::new(
            ObjectId(o),
            BuildingId(0),
            FloorId(0),
            Point::new(t as f64, 0.0),
            Timestamp(t),
        )
    }

    #[test]
    fn repository_ingest_and_counts() {
        let repo = Repository::new();
        repo.accept(ProductBatch::Trajectories(
            (0..10).map(|i| sample(0, i * 100)).collect(),
        ));
        repo.accept(ProductBatch::Rssi(vec![RssiMeasurement {
            object: ObjectId(0),
            device: DeviceId(0),
            rssi: -50.0,
            t: Timestamp(0),
        }]));
        repo.accept(ProductBatch::Fixes(vec![Fix {
            object: ObjectId(0),
            loc: Loc::point(BuildingId(0), FloorId(0), Point::new(0.0, 0.0)),
            t: Timestamp(0),
        }]));
        repo.accept(ProductBatch::Proximity(vec![ProximityRecord {
            object: ObjectId(0),
            device: DeviceId(0),
            ts: Timestamp(0),
            te: Timestamp(100),
        }]));
        assert_eq!(
            repo.counts(RunScope::All),
            TableCounts {
                trajectories: 10,
                rssi: 1,
                fixes: 1,
                proximity: 1
            }
        );
        assert_eq!(repo.counts(RunScope::All).total(), 13);
    }

    #[test]
    fn product_sink_routes_batches_to_tables() {
        let repo = Repository::new();
        let sink: &dyn ProductSink = &repo;
        sink.accept(ProductBatch::Trajectories(
            (0..5).map(|i| sample(0, i * 100)).collect(),
        ));
        sink.accept(ProductBatch::Rssi(vec![RssiMeasurement {
            object: ObjectId(0),
            device: DeviceId(0),
            rssi: -42.0,
            t: Timestamp(0),
        }]));
        sink.accept(ProductBatch::Fixes(vec![Fix {
            object: ObjectId(0),
            loc: Loc::point(BuildingId(0), FloorId(0), Point::new(1.0, 1.0)),
            t: Timestamp(50),
        }]));
        sink.accept(ProductBatch::Proximity(Vec::new()));
        assert_eq!(
            repo.counts(RunScope::All),
            TableCounts {
                trajectories: 5,
                rssi: 1,
                fixes: 1,
                proximity: 0
            }
        );
        assert_eq!(ProductBatch::Rssi(Vec::new()).len(), 0);
        assert!(ProductBatch::Fixes(Vec::new()).is_empty());
    }

    #[test]
    fn export_import_round_trip() {
        let repo = Repository::new();
        repo.accept(ProductBatch::Trajectories(
            (0..25).map(|i| sample(i % 3, i as u64 * 40)).collect(),
        ));
        repo.accept(ProductBatch::Rssi(
            (0..7)
                .map(|i| RssiMeasurement {
                    object: ObjectId(i),
                    device: DeviceId(i % 2),
                    rssi: -40.0 - i as f64,
                    t: Timestamp(i as u64 * 10),
                })
                .collect(),
        ));
        let export = repo.export();
        let restored = Repository::new();
        export.ingest_into(&restored).unwrap();
        assert_eq!(restored.counts(RunScope::All), repo.counts(RunScope::All));
        // Spot check a trace.
        let a = repo
            .trajectories
            .read()
            .object_trace(RunScope::All, ObjectId(1))
            .len();
        let b = restored
            .trajectories
            .read()
            .object_trace(RunScope::All, ObjectId(1))
            .len();
        assert_eq!(a, b);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test code: detached threads, joined below"
    )]
    fn concurrent_readers_and_writer() {
        use std::sync::Arc;
        let repo = Arc::new(Repository::new());
        repo.accept(ProductBatch::Trajectories(
            (0..100).map(|i| sample(0, i * 10)).collect(),
        ));
        let mut handles = Vec::new();
        for k in 0..4 {
            let r = Arc::clone(&repo);
            handles.push(std::thread::spawn(move || {
                let mut total = 0usize;
                for _ in 0..50 {
                    total += r
                        .trajectories
                        .read()
                        .time_window(RunScope::All, Timestamp(k * 100), Timestamp(k * 100 + 500))
                        .len();
                }
                total
            }));
        }
        let w = Arc::clone(&repo);
        let writer = std::thread::spawn(move || {
            for i in 100..200u64 {
                w.accept(ProductBatch::Trajectories(vec![sample(1, i * 10)]));
            }
        });
        for h in handles {
            assert!(h.join().is_ok());
        }
        writer.join().unwrap();
        assert_eq!(repo.counts(RunScope::All).trajectories, 200);
    }
}
