//! The segmented storage backend: immutable run-segmented segments with
//! snapshot-pinned reads, sealed and compacted by the appends that fill
//! them. It is the workspace's one indexed storage engine.
//!
//! The single [`Repository`](crate::Repository) is a linear-scan
//! reference store whose readers and writers share `RwLock`s, so under
//! live ingestion its read tail inherits every writer pause, and every
//! query reads the whole table. This module takes the modern-engine
//! answer instead: make the data immutable, publish it by pointer swap,
//! and index sealed data on first use.
//!
//! * Each table is a list of **immutable segments**. Every accepted batch
//!   becomes a small unsealed segment (one per-run section, rows in
//!   arrival order, no indexes). The append that crosses a seal trigger
//!   **seals** the unsealed segments into one sealed segment — per-run
//!   sections, exactly like the v2 wire format's section layout — with
//!   rows physically sorted by `(t, seq)`, which is all a time window
//!   needs, and then runs one **compaction** pass, which folds
//!   accumulated small sealed segments together so the list stays short.
//!   No thread and no clock is involved, so one append sequence gives one
//!   segment history.
//! * A sealed section's object, device and per-floor spatial indexes are
//!   built **on first use**, each behind its own `OnceLock`: the first
//!   object trace or snapshot builds the object map, the first device
//!   lookup the device map, the first range or kNN query the spatial
//!   grids; scans, counts and time windows build nothing. Appends,
//!   sealing, compaction and page-in do no index work at all, so an
//!   index no query reads is never built.
//! * The current segment list is published through a `SnapshotCell`:
//!   readers pin the current snapshot (an `Arc` — the pin is the
//!   reference count), answer the whole query against that frozen state,
//!   and drop the pin when done. A reader holds the cell's read lock
//!   only to clone that `Arc`, so it never waits on ingestion, sealing,
//!   compaction or spill work; writers never invalidate anything a reader
//!   holds. Once the cell has moved on, a snapshot is freed when its last
//!   pin drops.
//!
//! Queries go through a borrowed [`TableHandle`] per table
//! ([`SegmentedRepository::trajectories`], `rssi`, `fixes`, `proximity`):
//! each query is written once, generically over the row type, and
//! returns `Result<_, SpillError>` — the only way a query can fail is a
//! spilled segment whose file cannot be read back.
//!
//! Every row is stamped with a per-table **sequence number** at accept
//! time. Queries order ties by it, which makes the segmented backend's
//! answers *bit-identical* to the single [`Repository`](crate::Repository)
//! under deterministic ingestion — arrival order is reconstructed from
//! the seqs no matter how sealing and compaction have rearranged the
//! physical rows. The cross-backend parity suites hold the segmented
//! backend to that standard against the single one, whose tables share
//! none of this module's index or grid code.
//!
//! ## Tiered storage (spill)
//!
//! With a [`SpillConfig`], sealed segments become a two-tier store:
//! `Resident` (decoded rows in memory, plus the indexes queries built) or
//! `Spilled` (a self-describing segment file on disk, written atomically
//! via temp file + rename). Every segment — spilled or not — keeps per-section
//! **meta** (run, row count, time bounds, floor set) plus its seq range,
//! so query planning (run/time/floor pruning) never touches disk; only a
//! query that actually needs a spilled section's rows pages the segment
//! back in, through a per-table capacity-bounded clock cache of decoded
//! segments. `memory_budget_rows` bounds decoded sealed rows held by the
//! repository (segment lists + caches together;
//! [`SpillConfig::memory_budget_rows`] says by how much and when it can be
//! exceeded). Eviction goes coldest-first by last-pinned tick, and a
//! seal/compact output that cannot fit is spilled directly instead of
//! being published resident. A writer whose append leaves the
//! [`SegmentedRepository::spill_pending_rows`] high-water mark reached
//! stalls and pays the eviction IO itself — explicit backpressure instead
//! of unbounded growth. Readers pin snapshots exactly as above; page-in
//! decodes a segment file (checksum-verified, then cross-checked against
//! the segment's meta) back into sections whose indexes again start
//! unbuilt, so answers stay bit-identical to the all-resident backend.

use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::fmt;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use vita_geometry::{Aabb, GridIndex, Point};
use vita_indoor::{DeviceId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;

use crate::codec::{decode_segment, encode_runs, encode_segment};
use crate::row::SegmentRow;
use crate::{
    borrow_sections, CodecError, ProductBatch, ProductSink, RepositoryExport, RunScope, TableCounts,
};

/// Per-table arrival stamp; ties in every query order by it, which is what
/// keeps segmented answers bit-identical to the single repository.
type Seq = u64;

// ---------------------------------------------------------------------------
// Snapshot publication: Arc swap
// ---------------------------------------------------------------------------

/// A published `Arc<T>`: readers pin it, writers swap it.
///
/// A reader holds the slot's read lock only to clone the `Arc`, and a
/// writer holds the write lock only to swap the pointer, so a reader
/// never waits on ingestion, sealing, compaction or spill work. Nothing
/// but the slot and the pins holds a snapshot: once the slot has moved
/// on and the last pin drops, the snapshot — and every segment only it
/// references — is freed.
struct SnapshotCell<T>(RwLock<Arc<T>>);

impl<T> SnapshotCell<T> {
    fn new(value: T) -> Self {
        SnapshotCell(RwLock::new(Arc::new(value)))
    }

    /// Pin the current snapshot. The returned `Arc` *is* the pin: the
    /// snapshot (and every segment it references) stays alive until the
    /// caller drops it, no matter what writers publish meanwhile. The
    /// slot only moves forward, so later pins never observe an older
    /// snapshot — which is what makes reader-side prefix-consistency
    /// assertions sound.
    fn pin(&self) -> Arc<T> {
        Arc::clone(&self.0.read())
    }

    /// Publish a new snapshot. Callers serialize publishes through the
    /// table's writer lock. The old snapshot is released after the write
    /// guard drops, so freeing it never holds a reader up.
    fn publish(&self, value: Arc<T>) {
        // Two statements: the guard is a temporary of the first.
        let old = std::mem::replace(&mut *self.0.write(), value);
        drop(old);
    }
}

// ---------------------------------------------------------------------------
// Rows, sections, segments
// ---------------------------------------------------------------------------

/// Indexes of a sealed section. Each is built the first time a query of
/// its kind reads the section — an object trace or snapshot builds
/// `by_object`, a device lookup `by_device`, a range or kNN query
/// `spatial` — and kept for the section's lifetime. Sealing, compaction
/// and page-in build none of them, so a section no query of a kind ever
/// reads never pays for that kind's index. Concurrent first readers race
/// on the `OnceLock`: one builds, the others wait for it. There is no
/// time index: a sealed section's rows are stored physically in
/// `(t, seq)` order, so time windows are contiguous sub-slices.
#[derive(Default)]
struct SectionIndex {
    /// Row positions per object, ascending — because rows are
    /// `(t, seq)`-sorted, each list is the object's trace in trace order.
    by_object: OnceLock<HashMap<ObjectId, Vec<u32>>>,
    by_device: OnceLock<HashMap<DeviceId, Vec<u32>>>,
    /// Per-floor grids over point-located rows.
    spatial: OnceLock<HashMap<FloorId, GridIndex>>,
}

/// One run's rows inside a segment — the in-memory mirror of the v2 wire
/// format's per-run section. `rows` and `seqs` are parallel. Unsealed
/// sections keep arrival order (ascending seqs); sealed sections are
/// physically re-sorted to `(t, seq)` order, which turns the dominant
/// serving query (time windows) into binary search plus sequential copy.
/// Arrival order is never lost — seqs travel with the rows, and the
/// arrival-ordered readers (scan, export) order by seq value.
struct Section<R> {
    run: RunId,
    rows: Vec<R>,
    seqs: Vec<Seq>,
    min_t: Timestamp,
    max_t: Timestamp,
    /// `Some` once sealed; unsealed sections answer by linear scan.
    index: Option<SectionIndex>,
}

impl<R: SegmentRow> Section<R> {
    fn unsealed(run: RunId, rows: Vec<R>, seqs: Vec<Seq>) -> Self {
        let (mut min_t, mut max_t) = (Timestamp(u64::MAX), Timestamp(0));
        for r in &rows {
            min_t = min_t.min(r.time());
            max_t = max_t.max(r.time());
        }
        Section {
            run,
            rows,
            seqs,
            min_t,
            max_t,
            index: None,
        }
    }

    /// Seal a section from arrival-ordered rows: physically re-sort to
    /// `(t, seq)` order.
    fn sealed(run: RunId, rows: Vec<R>, seqs: Vec<Seq>) -> Self {
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (rows[i as usize].time(), seqs[i as usize]));
        let sorted_rows: Vec<R> = order.iter().map(|&i| rows[i as usize]).collect();
        let sorted_seqs: Vec<Seq> = order.iter().map(|&i| seqs[i as usize]).collect();
        Self::from_sorted(run, sorted_rows, sorted_seqs)
    }

    /// A sealed section built by *merging* already-sealed parts — the
    /// compaction path. The dominant cost of sealing is the `(t, seq)`
    /// sort; the parts are already physically sorted, so the k-way merge
    /// time windows use ([`merge_sorted`]) replaces it. Compaction runs on
    /// the appending writer, so this merge is paid by ingestion.
    fn merged(run: RunId, parts: &[&Section<R>]) -> Self {
        let inputs: Vec<(&[R], &[Seq])> = parts
            .iter()
            .filter(|p| !p.rows.is_empty())
            .map(|p| (&p.rows[..], &p.seqs[..]))
            .collect();
        let total: usize = inputs.iter().map(|(rows, _)| rows.len()).sum();
        let mut rows = Vec::with_capacity(total);
        let mut seqs = Vec::with_capacity(total);
        merge_sorted(&inputs, |li, pos| {
            rows.push(inputs[li].0[pos]);
            seqs.push(inputs[li].1[pos]);
        });
        Self::from_sorted(run, rows, seqs)
    }

    /// A sealed section over rows already in `(t, seq)` order; its
    /// indexes start unbuilt.
    fn from_sorted(run: RunId, rows: Vec<R>, seqs: Vec<Seq>) -> Self {
        debug_assert!(
            (1..rows.len()).all(|i| (rows[i - 1].time(), seqs[i - 1]) < (rows[i].time(), seqs[i]))
        );
        let (min_t, max_t) = match (rows.first(), rows.last()) {
            (Some(first), Some(last)) => (first.time(), last.time()),
            _ => (Timestamp(u64::MAX), Timestamp(0)),
        };
        Section {
            run,
            rows,
            seqs,
            min_t,
            max_t,
            index: Some(SectionIndex::default()),
        }
    }

    /// Row positions per object, built on first use; `None` when
    /// unsealed.
    fn object_index(&self) -> Option<&HashMap<ObjectId, Vec<u32>>> {
        let ix = self.index.as_ref()?;
        Some(
            ix.by_object
                .get_or_init(|| positions(&self.rows, R::object)),
        )
    }

    /// Row positions per device, built on first use; `None` when
    /// unsealed.
    fn device_index(&self) -> Option<&HashMap<DeviceId, Vec<u32>>> {
        let ix = self.index.as_ref()?;
        Some(
            ix.by_device
                .get_or_init(|| positions(&self.rows, R::device)),
        )
    }

    /// Per-floor grids, built on first use; `None` when unsealed.
    fn spatial_index(&self) -> Option<&HashMap<FloorId, GridIndex>> {
        let ix = self.index.as_ref()?;
        Some(ix.spatial.get_or_init(|| build_spatial_grids(&self.rows)))
    }
}

/// Row positions per key, each list ascending.
fn positions<R, K: Eq + Hash>(rows: &[R], key: impl Fn(&R) -> Option<K>) -> HashMap<K, Vec<u32>> {
    let mut map: HashMap<K, Vec<u32>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        if let Some(k) = key(r) {
            map.entry(k).or_default().push(i as u32);
        }
    }
    map
}

/// Per-floor grids over point-located rows: one linear insert pass per
/// floor, domain inflated so edge points never fall outside.
fn build_spatial_grids<R: SegmentRow>(rows: &[R]) -> HashMap<FloorId, GridIndex> {
    let mut per_floor: HashMap<FloorId, Vec<(u32, Point)>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        if let Some((floor, p)) = r.floor_point() {
            per_floor.entry(floor).or_default().push((i as u32, p));
        }
    }
    let mut spatial = HashMap::new();
    for (floor, pts) in per_floor {
        let domain =
            Aabb::from_points(&pts.iter().map(|(_, p)| *p).collect::<Vec<_>>()).inflated(1.0);
        let cell = (domain.width().max(domain.height()) / 32.0).max(0.5);
        let mut g = GridIndex::new(domain, cell);
        for (id, p) in pts {
            g.insert_point(id, p);
        }
        spatial.insert(floor, g);
    }
    spatial
}

// ---------------------------------------------------------------------------
// Spill tier: config, errors, segment state
// ---------------------------------------------------------------------------

/// Spill-tier configuration for the segmented backend. `None` spill on
/// [`crate::StorageBackend::Segmented`] keeps today's all-resident
/// behavior; with a config, sealed segments past the memory budget are
/// evicted to `dir` and paged back on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory for segment files. Each repository instance creates a
    /// unique subdirectory under it (removed on drop), so concurrent
    /// repositories can share a `dir`.
    pub dir: PathBuf,
    /// Decoded sealed rows the repository may hold in memory — segment
    /// lists and page-in caches together, the gauge
    /// [`SegmentStats::resident_rows`] reports. Unsealed (head) segments
    /// are always resident on top of this.
    ///
    /// The gauge is at most this budget right after
    /// [`SegmentedRepository::seal_now`], if no query paged in alongside.
    /// Between calls it can exceed the budget by less than
    /// [`SegmentConfig::seal_rows`] before an append stalls to evict (see
    /// [`SegmentedRepository::spill_pending_rows`]), and each table's
    /// page-in cache keeps its newest entry even past the room the budget
    /// leaves, so the gauge can also exceed it by the segments queries
    /// just paged in until the next stall or `seal_now` evicts them. Rows
    /// that only in-flight queries hold — a pinned snapshot's
    /// since-spilled segments, a page-in evicted mid-query — are outside
    /// the gauge and are freed when those queries finish.
    pub memory_budget_rows: usize,
    /// Per-table capacity (in segments) of the page-in clock cache.
    pub cache_segments: usize,
}

impl SpillConfig {
    /// A spill config with the default budget and cache sizing.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            memory_budget_rows: 1 << 20,
            cache_segments: 8,
        }
    }

    /// Spill config from the environment, for running existing suites
    /// against the spill tier without touching their code:
    /// `VITA_SPILL_DIR` (required), `VITA_SPILL_BUDGET_ROWS`,
    /// `VITA_SPILL_CACHE_SEGMENTS`. Consulted by
    /// [`SegmentedRepository::new`] / `with_config`; explicit
    /// [`SegmentedRepository::with_spill`] ignores the environment.
    ///
    /// # Panics
    ///
    /// If `VITA_SPILL_DIR` is set and a count variable is set to anything
    /// but an unsigned integer; the message names the variable and its
    /// value. Running at the default budget instead would leave a
    /// mistyped spill run with nothing spilled.
    pub fn from_env() -> Option<SpillConfig> {
        #[expect(
            clippy::expect_used,
            reason = "operational: a malformed VITA_SPILL_* count fails construction loudly instead of silently running at the default budget"
        )]
        Self::from_vars(|name| std::env::var_os(name)).expect("malformed spill environment")
    }

    /// [`Self::from_env`] over a variable lookup; `Err` names the first
    /// malformed count variable and its value.
    fn from_vars(var: impl Fn(&str) -> Option<OsString>) -> Result<Option<SpillConfig>, String> {
        let Some(dir) = var("VITA_SPILL_DIR") else {
            return Ok(None);
        };
        let count = |name: &str, default: usize| match var(name) {
            None => Ok(default),
            Some(value) => value
                .to_str()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name}={value:?} is not an unsigned integer")),
        };
        let mut cfg = SpillConfig::new(dir);
        cfg.memory_budget_rows = count("VITA_SPILL_BUDGET_ROWS", cfg.memory_budget_rows)?;
        cfg.cache_segments = count("VITA_SPILL_CACHE_SEGMENTS", cfg.cache_segments)?;
        Ok(Some(cfg))
    }
}

/// Why a spill-tier operation failed. Every [`TableHandle`] query and
/// [`SegmentedRepository::export`] return it when a spilled segment they
/// need cannot be read back — a corrupt or unreadable spill file is an
/// operational failure, never silently wrong rows.
/// [`crate::AnyRepository`] turns it into a panic.
#[derive(Debug)]
pub enum SpillError {
    /// Reading or writing a segment file failed.
    Io(std::io::Error),
    /// A segment file failed validation on page-in (truncated, bit-flipped,
    /// or not a segment file at all).
    Codec(CodecError),
    /// A segment file decoded cleanly but holds other rows than the
    /// segment it was written for — another valid segment file copied
    /// over it, say. `what` names the first disagreement with the
    /// segment's planning meta: `"section count"`, `"run"`,
    /// `"row count"`, `"time bounds"` or `"seq range"`.
    WrongSegment {
        /// Id of the segment whose file disagrees.
        segment: u64,
        /// The first meta field the file contradicts.
        what: &'static str,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill io: {e}"),
            SpillError::Codec(e) => write!(f, "spill file corrupt: {e}"),
            SpillError::WrongSegment { segment, what } => {
                write!(
                    f,
                    "spill file of segment {segment} disagrees with its {what}"
                )
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            SpillError::Codec(e) => Some(e),
            SpillError::WrongSegment { .. } => None,
        }
    }
}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

impl From<CodecError> for SpillError {
    fn from(e: CodecError) -> Self {
        SpillError::Codec(e)
    }
}

/// Write `bytes` to `path` crash-atomically: a temp file in the same
/// directory, then rename. A crash mid-write leaves a `.tmp` orphan,
/// never a torn file under the final name.
#[expect(
    clippy::disallowed_methods,
    reason = "R2: spill and export files are written here"
)]
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("vita.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(1);

/// Planning metadata for one section, retained on the segment whether its
/// rows are resident or spilled — run/time/floor pruning never does IO.
#[derive(Debug, Clone)]
struct SectionMeta {
    run: RunId,
    rows: usize,
    min_t: Timestamp,
    max_t: Timestamp,
    /// Floors of point-located rows, sorted. `None` on unsealed heads,
    /// which are never pruned, so ingest skips the scan.
    floors: Option<Vec<FloorId>>,
}

impl SectionMeta {
    /// Whether the section may hold point rows on `floor` (always, on an
    /// unsealed head).
    fn may_hold(&self, floor: FloorId) -> bool {
        self.floors
            .as_ref()
            .is_none_or(|fl| fl.binary_search(&floor).is_ok())
    }

    fn of<R: SegmentRow>(sec: &Section<R>, sealed: bool) -> Self {
        let floors = sealed.then(|| {
            let mut floors: Vec<FloorId> = sec
                .rows
                .iter()
                .filter_map(|r| r.floor_point().map(|(f, _)| f))
                .collect();
            floors.sort_unstable();
            floors.dedup();
            floors
        });
        SectionMeta {
            run: sec.run,
            rows: sec.rows.len(),
            min_t: sec.min_t,
            max_t: sec.max_t,
            floors,
        }
    }
}

/// Where a segment's rows live.
enum SegmentState<R> {
    /// Decoded rows (and the indexes queries built) in memory.
    Resident(Vec<Section<R>>),
    /// Rows in a segment file; meta stays on the [`Segment`].
    Spilled { path: PathBuf },
}

/// An immutable group of per-run sections. Unsealed segments hold exactly
/// one section (the accepted batch) and are always resident; sealed
/// segments hold one `(t, seq)`-sorted section per run, indexed on first
/// use, and may be spilled.
/// The `id` is stable across the resident → spilled republish, so cache
/// entries and spill files stay keyed to the same logical segment.
struct Segment<R> {
    id: u64,
    len: usize,
    sealed: bool,
    /// One entry per section, in section order (ascending run for sealed
    /// segments — the segment-file section order).
    meta: Vec<SectionMeta>,
    /// `(min, max)` seq over all rows; `(0, 0)` for an empty segment.
    seq_range: (Seq, Seq),
    /// Tick of the last query that touched this segment; the spiller
    /// evicts coldest-first. Monotone ticks come from the repository's
    /// touch counter.
    last_touch: AtomicU64,
    state: SegmentState<R>,
}

impl<R: SegmentRow> Segment<R> {
    fn resident(sections: Vec<Section<R>>, sealed: bool) -> Self {
        let len = sections.iter().map(|s| s.rows.len()).sum();
        let meta = sections
            .iter()
            .map(|s| SectionMeta::of(s, sealed))
            .collect();
        let seqs = sections.iter().flat_map(|s| s.seqs.iter().copied());
        #[expect(
            clippy::expect_used,
            reason = "invariant: a min implies the seq iterator is non-empty, so max exists"
        )]
        let seq_range = seqs
            .clone()
            .min()
            .map_or((0, 0), |min| (min, seqs.max().expect("nonempty")));
        Segment {
            id: NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed),
            len,
            sealed,
            meta,
            seq_range,
            last_touch: AtomicU64::new(0),
            state: SegmentState::Resident(sections),
        }
    }

    /// The spilled twin published in place of a resident segment: same
    /// id, meta, and heat — only the rows moved to disk.
    fn spilled_twin(&self, path: PathBuf) -> Self {
        debug_assert!(self.sealed, "only sealed segments spill");
        Segment {
            id: self.id,
            len: self.len,
            sealed: true,
            meta: self.meta.clone(),
            seq_range: self.seq_range,
            last_touch: AtomicU64::new(self.last_touch.load(Ordering::Relaxed)),
            state: SegmentState::Spilled { path },
        }
    }

    /// Read this spilled segment's rows back from its file: read,
    /// checksum-verified, rebuilt into `(t, seq)`-sorted sections (indexes
    /// unbuilt) and checked against the meta the segment was published
    /// with. A file that decodes cleanly can still be the wrong one, and
    /// answering from it would return rows the query plan never selected.
    /// The one reader of spill files: page-in runs it on a cache miss, and
    /// export on every spilled segment, without touching the cache.
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: spilled segment files are read back here"
    )]
    fn read_back(&self) -> Result<SegmentData<R>, SpillError> {
        #[expect(
            clippy::expect_used,
            reason = "invariant: read_back is only called on segments in the Spilled state"
        )]
        let path = self.spill_path().expect("read_back on a resident segment");
        let sections: Vec<Section<R>> = decode_segment::<R>(&std::fs::read(path)?)?
            .into_iter()
            .map(|s| Section::from_sorted(s.run, s.rows, s.seqs))
            .collect();
        let wrong = |what| {
            Err(SpillError::WrongSegment {
                segment: self.id,
                what,
            })
        };
        if sections.len() != self.meta.len() {
            return wrong("section count");
        }
        let mut seq_range: Option<(Seq, Seq)> = None;
        for (sec, meta) in sections.iter().zip(&self.meta) {
            if sec.run != meta.run {
                return wrong("run");
            }
            if sec.rows.len() != meta.rows {
                return wrong("row count");
            }
            if (sec.min_t, sec.max_t) != (meta.min_t, meta.max_t) {
                return wrong("time bounds");
            }
            for &s in &sec.seqs {
                seq_range = Some(seq_range.map_or((s, s), |(lo, hi)| (lo.min(s), hi.max(s))));
            }
        }
        if seq_range.unwrap_or((0, 0)) != self.seq_range {
            return wrong("seq range");
        }
        Ok(SegmentData { sections })
    }

    fn resident_sections(&self) -> Option<&[Section<R>]> {
        match &self.state {
            SegmentState::Resident(s) => Some(s),
            SegmentState::Spilled { .. } => None,
        }
    }

    fn is_spilled(&self) -> bool {
        matches!(self.state, SegmentState::Spilled { .. })
    }

    fn spill_path(&self) -> Option<&Path> {
        match &self.state {
            SegmentState::Spilled { path } => Some(path),
            SegmentState::Resident(_) => None,
        }
    }
}

/// The decoded rows of one spilled segment — what the page-in cache
/// holds. Sections are rebuilt deterministically from the file
/// (`(t, seq)` order is stored, indexes are a function of it and built
/// on first use), so a paged-in segment answers bit-identically to its
/// resident original.
struct SegmentData<R> {
    sections: Vec<Section<R>>,
}

/// The frozen state a reader pins: the table's current segment list.
struct TableSnapshot<R> {
    segments: Vec<Arc<Segment<R>>>,
    len: usize,
}

impl<R> Default for TableSnapshot<R> {
    fn default() -> Self {
        TableSnapshot {
            segments: Vec::new(),
            len: 0,
        }
    }
}

/// Merge sections (in segment-list order — seq order per run) into one
/// sealed segment's sections: rows regrouped into one section per run
/// (wire-format shape), each `(t, seq)`-sorted with its indexes unbuilt.
fn build_sealed<R: SegmentRow>(sections: Vec<&Section<R>>) -> Vec<Section<R>> {
    let mut per_run: BTreeMap<RunId, Vec<&Section<R>>> = BTreeMap::new();
    for sec in sections {
        per_run.entry(sec.run).or_default().push(sec);
    }
    per_run
        .into_iter()
        .map(|(run, parts)| {
            if parts.iter().all(|p| p.index.is_some()) {
                // Compaction: every part is sealed and already sorted.
                Section::merged(run, &parts)
            } else {
                // Sealing: fresh batches are arrival-ordered, sort from
                // scratch.
                let total: usize = parts.iter().map(|p| p.rows.len()).sum();
                let mut rows = Vec::with_capacity(total);
                let mut seqs = Vec::with_capacity(total);
                for p in parts {
                    rows.extend_from_slice(&p.rows);
                    seqs.extend_from_slice(&p.seqs);
                }
                debug_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
                Section::sealed(run, rows, seqs)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Queries over a pinned snapshot
// ---------------------------------------------------------------------------

impl<R: SegmentRow> TableSnapshot<R> {
    /// Row count under `scope`, answered from per-section meta — no row
    /// access, so it never pages anything in.
    fn len(&self, scope: RunScope) -> usize {
        match scope.run() {
            None => self.len,
            Some(r) => self
                .segments
                .iter()
                .flat_map(|seg| seg.meta.iter())
                .filter(|m| m.run == r)
                .map(|m| m.rows)
                .sum(),
        }
    }

    fn run_ids(&self) -> Vec<RunId> {
        let mut runs: Vec<RunId> = self
            .segments
            .iter()
            .flat_map(|seg| seg.meta.iter())
            .map(|m| m.run)
            .collect();
        runs.sort_unstable();
        runs.dedup();
        runs
    }
}

// The data queries are free functions over the sections a plan already
// selected — resident references and paged-in decodes alike. Planning
// happens against per-section meta in [`SegTable::query`], so these
// only ever see sections that passed the run-scope and meta pruning.
// Every output order is keyed on `(t, seq)` or seq alone, and seqs are
// unique per table, so no answer depends on section input order.

/// All rows in arrival (seq) order — exactly the single repository's
/// insertion order.
fn scan_sections<R: SegmentRow>(sections: &[&Section<R>]) -> Vec<R> {
    let total: usize = sections.iter().map(|s| s.rows.len()).sum();
    let mut out: Vec<(Seq, R)> = Vec::with_capacity(total);
    for sec in sections {
        out.extend(sec.seqs.iter().copied().zip(sec.rows.iter().copied()));
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Rows in the half-open window `from <= t < to`, ordered by `(t, seq)`
/// — time order with ties in arrival order, the single-table contract.
///
/// Sealed sections are physically `(t, seq)`-sorted, so each one
/// contributes a *contiguous sub-slice* found by binary search; the
/// global order comes from a k-way merge of those slices, sequential
/// memory all the way. Windows routinely span a large fraction of the
/// table, and on the serving path this query was the entire p99, so it
/// gets the zero-gather layout.
fn time_window_sections<R: SegmentRow>(
    sections: &[&Section<R>],
    from: Timestamp,
    to: Timestamp,
) -> Vec<R> {
    // Unsealed sections are arrival-ordered: gather their window rows
    // into owned sorted runs first (stable sort on time keeps seq order
    // among ties), then merge those alongside the sealed slices.
    let mut owned: Vec<(Vec<R>, Vec<Seq>)> = Vec::new();
    for sec in sections {
        if sec.index.is_none() {
            let mut ids: Vec<u32> = (0..sec.rows.len() as u32)
                .filter(|&i| {
                    let t = sec.rows[i as usize].time();
                    t >= from && t < to
                })
                .collect();
            ids.sort_by_key(|&i| sec.rows[i as usize].time());
            owned.push((
                ids.iter().map(|&i| sec.rows[i as usize]).collect(),
                ids.iter().map(|&i| sec.seqs[i as usize]).collect(),
            ));
        }
    }
    let mut inputs: Vec<(&[R], &[Seq])> = Vec::with_capacity(sections.len());
    let mut owned_it = owned.iter();
    for sec in sections {
        match &sec.index {
            Some(_) => {
                let lo = sec.rows.partition_point(|r| r.time() < from);
                let hi = sec.rows.partition_point(|r| r.time() < to);
                if lo < hi {
                    inputs.push((&sec.rows[lo..hi], &sec.seqs[lo..hi]));
                }
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: one owned-run entry was built per unsealed section just above"
                )]
                let (rows, seqs) = owned_it.next().expect("one owned run per unsealed");
                if !rows.is_empty() {
                    inputs.push((&rows[..], &seqs[..]));
                }
            }
        }
    }
    match inputs[..] {
        [(rows, _)] => rows.to_vec(),
        _ => {
            let total: usize = inputs.iter().map(|(rows, _)| rows.len()).sum();
            let mut out = Vec::with_capacity(total);
            merge_sorted(&inputs, |li, pos| out.push(inputs[li].0[pos]));
            out
        }
    }
}

/// Rows of object `o` ordered by `(t, seq)`.
fn of_object_sections<R: SegmentRow>(sections: &[&Section<R>], o: ObjectId) -> Vec<R> {
    let mut out: Vec<(Timestamp, Seq, R)> = Vec::new();
    for sec in sections {
        match sec.object_index() {
            Some(by_object) => {
                if let Some(ids) = by_object.get(&o) {
                    out.extend(ids.iter().map(|&i| {
                        let r = sec.rows[i as usize];
                        (r.time(), sec.seqs[i as usize], r)
                    }));
                }
            }
            None => out.extend(
                sec.rows
                    .iter()
                    .zip(&sec.seqs)
                    .filter(|(r, _)| r.object() == Some(o))
                    .map(|(&r, &s)| (r.time(), s, r)),
            ),
        }
    }
    out.sort_unstable_by_key(|(t, s, _)| (*t, *s));
    out.into_iter().map(|(_, _, r)| r).collect()
}

/// Rows through device `d` ordered by `(t, seq)`.
fn of_device_sections<R: SegmentRow>(sections: &[&Section<R>], d: DeviceId) -> Vec<R> {
    let mut out: Vec<(Timestamp, Seq, R)> = Vec::new();
    for sec in sections {
        match sec.device_index() {
            Some(by_device) => {
                if let Some(ids) = by_device.get(&d) {
                    out.extend(ids.iter().map(|&i| {
                        let r = sec.rows[i as usize];
                        (r.time(), sec.seqs[i as usize], r)
                    }));
                }
            }
            None => out.extend(
                sec.rows
                    .iter()
                    .zip(&sec.seqs)
                    .filter(|(r, _)| r.device() == Some(d))
                    .map(|(&r, &s)| (r.time(), s, r)),
            ),
        }
    }
    out.sort_unstable_by_key(|(t, s, _)| (*t, *s));
    out.into_iter().map(|(_, _, r)| r).collect()
}

/// Latest row at or before `at` per object, sorted by object id; among
/// an object's rows sharing the latest timestamp the highest seq (last
/// arrived) wins — the single-table snapshot contract.
///
/// Sealed sections resolve one candidate per object by binary search:
/// `by_object` lists are position-ascending and rows are physically
/// `(t, seq)`-sorted, so an object's list is its trace in trace order
/// and the latest row at or before `at` is the last id before the
/// partition point. Only that one candidate touches the cross-section
/// map — on big tables this query used to walk most rows.
fn snapshot_at_sections<R: SegmentRow>(sections: &[&Section<R>], at: Timestamp) -> Vec<R> {
    fn upd<R: SegmentRow>(
        latest: &mut HashMap<ObjectId, (Timestamp, Seq, R)>,
        o: ObjectId,
        t: Timestamp,
        s: Seq,
        r: R,
    ) {
        match latest.get(&o) {
            Some((bt, bs, _)) if (*bt, *bs) > (t, s) => {}
            _ => {
                latest.insert(o, (t, s, r));
            }
        }
    }
    let mut latest: HashMap<ObjectId, (Timestamp, Seq, R)> = HashMap::new();
    for sec in sections {
        if sec.min_t > at {
            continue;
        }
        match sec.object_index() {
            Some(by_object) => {
                let whole = sec.max_t <= at;
                for (&o, ids) in by_object {
                    let cut = if whole {
                        ids.len()
                    } else {
                        ids.partition_point(|&i| sec.rows[i as usize].time() <= at)
                    };
                    if let Some(&i) = ids[..cut].last() {
                        let (t, s) = (sec.rows[i as usize].time(), sec.seqs[i as usize]);
                        upd(&mut latest, o, t, s, sec.rows[i as usize]);
                    }
                }
            }
            None => {
                for (r, &s) in sec.rows.iter().zip(&sec.seqs) {
                    if r.time() <= at {
                        if let Some(o) = r.object() {
                            upd(&mut latest, o, r.time(), s, *r);
                        }
                    }
                }
            }
        }
    }
    let mut v: Vec<R> = latest.into_values().map(|(_, _, r)| r).collect();
    v.sort_unstable_by_key(|r| r.object());
    v
}

/// Point rows on `floor` inside `query`, in arrival (seq) order.
fn range_query_sections<R: SegmentRow>(
    sections: &[&Section<R>],
    floor: FloorId,
    query: &Aabb,
) -> Vec<R> {
    let mut out: Vec<(Seq, R)> = Vec::new();
    for sec in sections {
        match sec.spatial_index() {
            Some(spatial) => {
                if let Some(g) = spatial.get(&floor) {
                    for i in g.query_bbox(query) {
                        let r = sec.rows[i as usize];
                        if matches!(r.floor_point(), Some((_, p)) if query.contains_point(p)) {
                            out.push((sec.seqs[i as usize], r));
                        }
                    }
                }
            }
            None => out.extend(
                sec.rows
                    .iter()
                    .zip(&sec.seqs)
                    .filter(|(r, _)| {
                        matches!(r.floor_point(),
                                 Some((f, p)) if f == floor && query.contains_point(p))
                    })
                    .map(|(&r, &s)| (s, r)),
            ),
        }
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The k nearest point rows to `p` on `floor`, nearest first; ties by
/// seq. Sealed sections run an expanding-radius grid search whose
/// out-of-domain radius anchor reaches every indexed point, so the
/// answer matches the reference table's full scan exactly.
fn knn_sections<R: SegmentRow>(
    sections: &[&Section<R>],
    floor: FloorId,
    p: Point,
    k: usize,
) -> Vec<(R, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut scored: Vec<(f64, Seq, R)> = Vec::new();
    for sec in sections {
        match sec.spatial_index() {
            Some(spatial) => {
                let Some(g) = spatial.get(&floor) else {
                    continue;
                };
                let dom = g.domain();
                let max_radius = dom.dist_to_point(p) + dom.width() + dom.height() + 1.0;
                let mut radius = g.cell_size().max(f64::MIN_POSITIVE);
                let mut candidates: Vec<u32>;
                loop {
                    candidates = g.query_radius(p, radius.min(max_radius));
                    if candidates.len() >= k || radius >= max_radius {
                        break;
                    }
                    radius *= 2.0;
                }
                // A per-section top-k is enough: the global top-k under
                // the (dist, seq) total order is the top-k of the
                // per-section top-ks.
                let mut local: Vec<(f64, Seq, R)> = candidates
                    .into_iter()
                    .filter_map(|i| {
                        let r = sec.rows[i as usize];
                        r.floor_point()
                            .map(|(_, q)| (q.dist(p), sec.seqs[i as usize], r))
                    })
                    .collect();
                local.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                local.truncate(k);
                scored.extend(local);
            }
            None => scored.extend(sec.rows.iter().zip(&sec.seqs).filter_map(|(r, &s)| {
                match r.floor_point() {
                    Some((f, q)) if f == floor => Some((q.dist(p), s, *r)),
                    _ => None,
                }
            })),
        }
    }
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(d, _, r)| (r, d)).collect()
}

/// Records whose closed detection period `[ts, te]` intersects the
/// half-open window `[from, to)`, in arrival (seq) order — the
/// [`crate::table::ProximityTable::overlapping`] contract.
fn overlapping_sections(
    sections: &[&Section<ProximityRecord>],
    from: Timestamp,
    to: Timestamp,
) -> Vec<ProximityRecord> {
    let mut out: Vec<(Seq, ProximityRecord)> = Vec::new();
    for sec in sections {
        out.extend(
            sec.rows
                .iter()
                .zip(&sec.seqs)
                .filter(|(r, _)| r.ts < to && r.te >= from)
                .map(|(&r, &s)| (s, r)),
        );
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Walk `(rows, seqs)` slice pairs — each non-empty and already
/// `(t, seq)`-sorted — in global `(t, seq)` order, calling `emit(input,
/// position)` once per row; time windows and compaction both merge
/// through it. A handful of inputs (the common case: one compacted
/// segment holds one section per run, and a compaction folds at most
/// `compact_segments` parts) merge by a linear min-pick over the cursors —
/// cheaper than a heap at small k because the cursors stay in registers
/// and there is no sift traffic. Beyond that, a min-heap gives
/// `O(n log k)`. All access is sequential: the inputs are contiguous,
/// there is no id-list indirection anywhere.
fn merge_sorted<R: SegmentRow>(inputs: &[(&[R], &[Seq])], mut emit: impl FnMut(usize, usize)) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const LINEAR_MAX: usize = 8;
    if inputs.len() <= LINEAR_MAX {
        // (next key, cursor, input) per input; exhausted inputs drop out.
        let mut cursors: Vec<((Timestamp, Seq), usize, usize)> = inputs
            .iter()
            .enumerate()
            .map(|(li, (rows, seqs))| ((rows[0].time(), seqs[0]), 0, li))
            .collect();
        while let Some(win) = (0..cursors.len()).min_by_key(|&c| cursors[c].0) {
            let (_, pos, li) = cursors[win];
            emit(li, pos);
            let (rows, seqs) = inputs[li];
            if pos + 1 < rows.len() {
                cursors[win] = ((rows[pos + 1].time(), seqs[pos + 1]), pos + 1, li);
            } else {
                cursors.swap_remove(win);
            }
        }
    } else {
        let mut heap: BinaryHeap<Reverse<(Timestamp, Seq, usize, usize)>> = inputs
            .iter()
            .enumerate()
            .map(|(li, (rows, seqs))| Reverse((rows[0].time(), seqs[0], li, 0)))
            .collect();
        while let Some(Reverse((_, _, li, pos))) = heap.pop() {
            emit(li, pos);
            let (rows, seqs) = inputs[li];
            if pos + 1 < rows.len() {
                heap.push(Reverse((rows[pos + 1].time(), seqs[pos + 1], li, pos + 1)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The writable table: append, seal, compact, spill
// ---------------------------------------------------------------------------

/// Spill state shared by the four tables and the maintenance path.
struct SpillShared {
    /// Effective config: `dir` is this instance's unique subdirectory
    /// (created at build time, removed on drop).
    cfg: SpillConfig,
    /// The config as the caller passed it, for
    /// [`SegmentedRepository::spill_config`]; `None` when the
    /// `VITA_SPILL_*` environment supplied it.
    requested: Option<SpillConfig>,
    /// Monotone heat clock: queries stamp the segments their plan
    /// touches, and the spiller evicts the coldest stamp first.
    touch: AtomicU64,
    spills: AtomicU64,
    page_ins: AtomicU64,
    writer_stalls: AtomicU64,
    /// Serializes budget enforcement (stalled writers and `seal_now`),
    /// so concurrent enforcers never double-spill.
    enforce_lock: Mutex<()>,
}

/// A page-in cache entry; `data` is shared with in-flight queries, so
/// eviction never invalidates a reader.
struct CacheEntry<R> {
    id: u64,
    rows: usize,
    referenced: bool,
    data: Arc<SegmentData<R>>,
}

/// One table's cache of decoded spilled segments: capacity-bounded,
/// second-chance (clock) replacement. Bounded both in entries
/// (`cache_segments`) and in rows (the room the memory budget leaves).
struct ClockCache<R> {
    entries: Vec<CacheEntry<R>>,
    hand: usize,
}

impl<R> Default for ClockCache<R> {
    fn default() -> Self {
        ClockCache {
            entries: Vec::new(),
            hand: 0,
        }
    }
}

impl<R> ClockCache<R> {
    fn rows(&self) -> usize {
        self.entries.iter().map(|e| e.rows).sum()
    }

    fn get(&mut self, id: u64) -> Option<Arc<SegmentData<R>>> {
        let e = self.entries.iter_mut().find(|e| e.id == id)?;
        e.referenced = true;
        Some(Arc::clone(&e.data))
    }

    /// Insert (or refresh) `id`, then evict second-chance victims while
    /// over either cap. The entry just inserted is exempt: the cache
    /// must hold at least the segment the current query is reading.
    fn insert(
        &mut self,
        id: u64,
        rows: usize,
        data: Arc<SegmentData<R>>,
        cap_segments: usize,
        cap_rows: usize,
    ) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.referenced = true;
            return;
        }
        self.entries.push(CacheEntry {
            id,
            rows,
            referenced: true,
            data,
        });
        while self.entries.len() > 1
            && (self.entries.len() > cap_segments.max(1) || self.rows() > cap_rows)
        {
            if self.evict_one_except(Some(id)).is_none() {
                break;
            }
        }
    }

    /// Evict one clock victim, skipping `keep`; returns the rows freed.
    fn evict_one_except(&mut self, keep: Option<u64>) -> Option<usize> {
        if !self.entries.iter().any(|e| Some(e.id) != keep) {
            return None;
        }
        loop {
            if self.hand >= self.entries.len() {
                self.hand = 0;
            }
            if Some(self.entries[self.hand].id) == keep {
                self.hand += 1;
                continue;
            }
            if self.entries[self.hand].referenced {
                self.entries[self.hand].referenced = false;
                self.hand += 1;
                continue;
            }
            return Some(self.entries.swap_remove(self.hand).rows);
        }
    }

    fn remove(&mut self, id: u64) {
        if let Some(i) = self.entries.iter().position(|e| e.id == id) {
            self.entries.swap_remove(i);
        }
    }
}

/// Current segment inventory of one table, for [`SegmentStats`].
#[derive(Default)]
struct TableInventory {
    sealed: usize,
    unsealed: usize,
    spilled_segments: usize,
    spilled_rows: usize,
    sealed_resident_rows: usize,
    head_rows: usize,
}

/// Encode a sealed segment's sections into its self-describing file
/// bytes (rows and seqs travel together — see the codec's segment
/// framing).
fn encode_sections<R: SegmentRow>(sections: &[Section<R>]) -> Bytes {
    let parts: Vec<(RunId, &[R], &[Seq])> = sections
        .iter()
        .map(|s| (s.run, s.rows.as_slice(), s.seqs.as_slice()))
        .collect();
    encode_segment(&parts)
}

/// Under forced compaction with a spill cap: the first run of ≥ 2
/// adjacent sealed segments whose merged size fits `cap`. Oversized
/// loners are skipped — they already sit at the spill grain, and a
/// merge beyond it could never be resident (or cached) again without
/// blowing the memory ceiling on page-in.
fn pick_capped_group<R>(prefix: &[Arc<Segment<R>>], cap: usize) -> Option<Vec<Arc<Segment<R>>>> {
    let mut start = 0;
    while start + 1 < prefix.len() {
        let mut rows = prefix[start].len;
        let mut end = start + 1;
        while end < prefix.len() && rows + prefix[end].len <= cap {
            rows += prefix[end].len;
            end += 1;
        }
        if end - start >= 2 {
            return Some(prefix[start..end].to_vec());
        }
        start = end;
    }
    None
}

/// One product table of the segmented backend.
struct SegTable<R: SegmentRow> {
    cell: SnapshotCell<TableSnapshot<R>>,
    /// Serializes publishes (appends and seal/compact swaps) and carries
    /// the next sequence number. Held only to clone a segment-pointer list
    /// and swap the snapshot — never while rows are copied or indexed.
    writer: Mutex<Seq>,
    /// Spill tier shared state; `None` keeps the table all-resident.
    spill: Option<Arc<SpillShared>>,
    /// Decoded spilled segments, shared with in-flight queries.
    cache: Mutex<ClockCache<R>>,
}

impl<R: SegmentRow> SegTable<R> {
    fn new(spill: Option<Arc<SpillShared>>) -> Self {
        SegTable {
            cell: SnapshotCell::new(TableSnapshot::default()),
            writer: Mutex::new(0),
            spill,
            cache: Mutex::new(ClockCache::default()),
        }
    }

    fn pin(&self) -> Arc<TableSnapshot<R>> {
        self.cell.pin()
    }

    /// Accept one batch: stamp seqs, wrap it as an unsealed segment, and
    /// publish a snapshot with it appended. O(#segments) pointer copies
    /// plus the batch move — no index work on the ingest path. Returns the
    /// number of unsealed rows now pending, for seal scheduling.
    fn append(&self, run: RunId, rows: Vec<R>) -> (usize, usize) {
        if rows.is_empty() {
            return (0, 0);
        }
        let mut next_seq = self.writer.lock();
        let base = *next_seq;
        *next_seq += rows.len() as Seq;
        let seqs: Vec<Seq> = (base..*next_seq).collect();
        let len = rows.len();
        // An unsealed head keeps no floor set (`floors: None`, never
        // pruned), so the ingest path skips that scan.
        let seg = Arc::new(Segment::resident(
            vec![Section::unsealed(run, rows, seqs)],
            false,
        ));
        let cur = self.cell.pin();
        let mut segments = Vec::with_capacity(cur.segments.len() + 1);
        segments.extend(cur.segments.iter().cloned());
        segments.push(seg);
        let minis = segments.iter().rev().take_while(|s| !s.sealed).count();
        let pending = segments.iter().rev().take(minis).map(|s| s.len).sum();
        self.cell.publish(Arc::new(TableSnapshot {
            segments,
            len: cur.len + len,
        }));
        (pending, minis)
    }

    /// Swap a contiguous group of segments for its merged replacement, if
    /// the group is still present unchanged (identity-compared). Only
    /// maintenance passes remove segments, so a `false` means a concurrent
    /// pass (another writer's, or `seal_now`) got there first — the caller
    /// just drops its build.
    fn try_replace(&self, consumed: &[Arc<Segment<R>>], replacement: Segment<R>) -> bool {
        if consumed.is_empty() {
            return false;
        }
        let guard = self.writer.lock();
        let cur = self.cell.pin();
        let Some(start) = cur
            .segments
            .iter()
            .position(|s| Arc::ptr_eq(s, &consumed[0]))
        else {
            return false;
        };
        if cur.segments.len() < start + consumed.len()
            || !cur.segments[start..start + consumed.len()]
                .iter()
                .zip(consumed)
                .all(|(a, b)| Arc::ptr_eq(a, b))
        {
            return false;
        }
        let mut segments = Vec::with_capacity(cur.segments.len() + 1 - consumed.len());
        segments.extend(cur.segments[..start].iter().cloned());
        segments.push(Arc::new(replacement));
        segments.extend(cur.segments[start + consumed.len()..].iter().cloned());
        self.cell.publish(Arc::new(TableSnapshot {
            segments,
            len: cur.len,
        }));
        drop(guard);
        true
    }

    /// Publish `replacement` for `consumed`, spilling it directly when
    /// the repository's decoded sealed rows would overshoot the budget
    /// (`global_decoded` is the repository-wide gauge *before* the
    /// swap). A replacement that never publishes (another pass won the
    /// race) takes its freshly written file with it; consumed spilled
    /// inputs drop their cache entries, but their files stay on disk
    /// until the repository drops — an already-pinned snapshot may still
    /// page them in.
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: a directly spilled replacement that lost the race is deleted here"
    )]
    fn replace_maybe_spilled(
        &self,
        consumed: &[Arc<Segment<R>>],
        replacement: Segment<R>,
        global_decoded: usize,
    ) -> bool {
        let spill_direct = match &self.spill {
            Some(sh) if replacement.sealed && replacement.len > 0 => {
                let consumed_decoded: usize = consumed
                    .iter()
                    .filter(|s| s.sealed && !s.is_spilled())
                    .map(|s| s.len)
                    .sum();
                global_decoded.saturating_sub(consumed_decoded) + replacement.len
                    > sh.cfg.memory_budget_rows
            }
            _ => false,
        };
        let (replacement, written) = if spill_direct {
            #[expect(
                clippy::expect_used,
                reason = "invariant: spill_direct is only called on budget-enforcing repositories"
            )]
            let sh = self.spill.as_ref().expect("direct spill requires config");
            #[expect(
                clippy::expect_used,
                reason = "invariant: the replacement segment was rebuilt resident two lines up"
            )]
            let sections = replacement
                .resident_sections()
                .expect("fresh replacement is resident");
            let bytes = encode_sections(sections);
            let path = sh.cfg.dir.join(format!("seg-{}.vita", replacement.id));
            #[expect(
                clippy::expect_used,
                reason = "operational: a failed spill write leaves the writer no correct continuation"
            )]
            write_atomic(&path, &bytes).expect("segment spill failed");
            (replacement.spilled_twin(path.clone()), Some(path))
        } else {
            (replacement, None)
        };
        let ok = self.try_replace(consumed, replacement);
        if ok {
            if let Some(sh) = &self.spill {
                if written.is_some() {
                    sh.spills.fetch_add(1, Ordering::Relaxed);
                }
                if consumed.iter().any(|s| s.is_spilled()) {
                    let mut cache = self.cache.lock();
                    for seg in consumed.iter().filter(|s| s.is_spilled()) {
                        cache.remove(seg.id);
                    }
                }
            }
        } else if let Some(path) = written {
            let _ = std::fs::remove_file(path);
        }
        ok
    }

    /// Seal the trailing unsealed suffix when it is past the thresholds
    /// (always, under `force`); see [`SegInner::maintain`].
    fn seal_pass(&self, cfg: &SegmentConfig, force: bool, global_decoded: usize) -> bool {
        let snap = self.cell.pin();
        let first_unsealed = snap
            .segments
            .iter()
            .rposition(|s| s.sealed)
            .map_or(0, |i| i + 1);
        let minis = &snap.segments[first_unsealed..];
        if minis.is_empty() {
            return false;
        }
        let rows: usize = minis.iter().map(|s| s.len).sum();
        if !(force || minis.len() >= cfg.seal_segments || rows >= cfg.seal_rows) {
            return false;
        }
        let parts: Vec<&Section<R>> = minis
            .iter()
            .flat_map(|s| {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: unsealed segments are never spilled, so they are resident"
                )]
                s.resident_sections()
                    .expect("unsealed segments are resident")
            })
            .collect();
        let merged = build_sealed(parts);
        let replacement = Segment::resident(merged, true);
        self.replace_maybe_spilled(minis, replacement, global_decoded)
    }

    /// Compact the sealed prefix: fold at most one size-tiered run of
    /// small adjacent segments (the whole prefix under `force`).
    ///
    /// Compaction is **size-tiered and budget-bounded**: one pass folds at
    /// most one adjacent run of *small* sealed segments whose merged size
    /// fits a row budget of `compact_segments × seal_rows`, and leaves
    /// graduated (half-budget-or-larger) segments alone. Every row is
    /// therefore merged O(log) times and no single pass merges more than
    /// one budget's worth of rows — re-merging the whole prefix on every
    /// pass would be quadratic, and the pass runs on the appending writer.
    /// Until `compact_segments` small segments have piled up a pass folds
    /// nothing, so running one after every seal costs a scan of the
    /// segment list. Under `force` the whole sealed prefix folds into one
    /// segment — except with a spill tier, where groups are additionally
    /// capped so no segment outgrows the spill grain. Spilled inputs are
    /// paged in through the table's cache; a page-in failure skips the
    /// pass (queries surface the error, compaction never panics over it).
    fn compact_pass(&self, cfg: &SegmentConfig, force: bool, global_decoded: usize) -> bool {
        let snap = self.cell.pin();
        let prefix = snap.segments.iter().take_while(|s| s.sealed).count();
        let max_group = self.spill.as_ref().map(|sh| {
            (sh.cfg.memory_budget_rows / 2)
                .max(cfg.seal_rows.saturating_mul(2))
                .max(2)
        });
        let group: Option<Vec<Arc<Segment<R>>>> = if force {
            match max_group {
                None => (prefix >= 2).then(|| snap.segments[..prefix].to_vec()),
                Some(cap) => pick_capped_group(&snap.segments[..prefix], cap),
            }
        } else {
            let mut budget = cfg
                .compact_segments
                .max(2)
                .saturating_mul(cfg.seal_rows)
                .max(2);
            if let Some(cap) = max_group {
                budget = budget.min(cap);
            }
            let small = (budget / 2).max(1);
            let min_run = cfg.compact_segments.max(2);
            let mut found = None;
            let mut start = 0;
            let mut rows = 0usize;
            for i in 0..=prefix {
                if i < prefix && snap.segments[i].len < small {
                    if rows + snap.segments[i].len <= budget {
                        rows += snap.segments[i].len;
                        continue;
                    }
                    // Budget-full run: its merge graduates past `small`
                    // immediately, so any length ≥ 2 is a productive fold.
                    if i - start >= 2 {
                        found = Some(snap.segments[start..i].to_vec());
                        break;
                    }
                    start = i;
                    rows = snap.segments[i].len;
                    continue;
                }
                // Run closed by a graduated segment or the prefix end: only
                // fold full-length runs, otherwise the trailing few smalls
                // would re-merge on every pass and each row would be copied
                // O(budget / seal size) times instead of O(1).
                if i - start >= min_run {
                    found = Some(snap.segments[start..i].to_vec());
                    break;
                }
                start = i + 1;
                rows = 0;
            }
            found
        };
        let Some(group) = group else {
            return false;
        };
        self.compact_group(&group, global_decoded).unwrap_or(false)
    }

    /// Merge `group` (paging spilled inputs in) and publish the result.
    fn compact_group(
        &self,
        group: &[Arc<Segment<R>>],
        global_decoded: usize,
    ) -> Result<bool, SpillError> {
        let mut holders: Vec<Arc<SegmentData<R>>> = Vec::new();
        for seg in group {
            if seg.is_spilled() {
                // Compaction page-ins bypass the row cap: the merge needs
                // all inputs at once, and the output replaces them
                // immediately; the enforcement pass right after the round
                // trims any overshoot.
                holders.push(self.page_in(seg, usize::MAX)?);
            }
        }
        let mut holder_it = holders.iter();
        let mut sections: Vec<&Section<R>> = Vec::new();
        for seg in group {
            match seg.resident_sections() {
                Some(s) => sections.extend(s.iter()),
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: compaction registered one cache holder per spilled input"
                )]
                None => sections.extend(
                    holder_it
                        .next()
                        .expect("one holder per spilled input")
                        .sections
                        .iter(),
                ),
            }
        }
        let merged = build_sealed(sections);
        let replacement = Segment::resident(merged, true);
        Ok(self.replace_maybe_spilled(group, replacement, global_decoded))
    }

    /// Answer one query against a pinned snapshot: plan from per-section
    /// meta (`keep` plus run scoping — no IO), page in the spilled
    /// segments the plan touches, and hand every selected section to
    /// `f`. `cache_rows_cap` bounds this table's cache after the
    /// page-ins — the caller computes the room the global budget leaves.
    fn query<T>(
        &self,
        scope: RunScope,
        cache_rows_cap: usize,
        keep: impl Fn(&SectionMeta) -> bool,
        f: impl FnOnce(&[&Section<R>]) -> T,
    ) -> Result<T, SpillError> {
        let snap = self.cell.pin();
        let run = scope.run();
        let mut picks: Vec<(usize, Vec<usize>, Option<usize>)> = Vec::new();
        let mut holders: Vec<Arc<SegmentData<R>>> = Vec::new();
        for (si, seg) in snap.segments.iter().enumerate() {
            let wanted: Vec<usize> = seg
                .meta
                .iter()
                .enumerate()
                .filter(|(_, m)| run.is_none_or(|r| m.run == r) && keep(m))
                .map(|(i, _)| i)
                .collect();
            if wanted.is_empty() {
                continue;
            }
            if let Some(sh) = &self.spill {
                seg.last_touch.store(
                    sh.touch.fetch_add(1, Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
            }
            let holder = if seg.is_spilled() {
                holders.push(self.page_in(seg, cache_rows_cap)?);
                Some(holders.len() - 1)
            } else {
                None
            };
            picks.push((si, wanted, holder));
        }
        let mut sections: Vec<&Section<R>> = Vec::new();
        for (si, wanted, holder) in &picks {
            let secs: &[Section<R>] = match holder {
                Some(h) => &holders[*h].sections,
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: segments outside the spill set are resident by definition"
                )]
                None => snap.segments[*si]
                    .resident_sections()
                    .expect("unspilled segments are resident"),
            };
            sections.extend(wanted.iter().map(|&w| &secs[w]));
        }
        Ok(f(&sections))
    }

    /// The decoded rows of a spilled segment: from the cache, or — on a
    /// miss — [`Segment::read_back`] from its file, then cached. The stored
    /// `(t, seq)` order, and the indexes later queries derive from it,
    /// make the paged-in copy answer bit-identically to the resident
    /// original.
    fn page_in(
        &self,
        seg: &Segment<R>,
        cache_rows_cap: usize,
    ) -> Result<Arc<SegmentData<R>>, SpillError> {
        #[expect(
            clippy::expect_used,
            reason = "invariant: a Spilled state can only be produced under a spill config"
        )]
        let sh = self
            .spill
            .as_ref()
            .expect("spilled segment without spill config");
        if let Some(data) = self.cache.lock().get(seg.id) {
            return Ok(data);
        }
        let data = Arc::new(seg.read_back()?);
        sh.page_ins.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().insert(
            seg.id,
            seg.len,
            Arc::clone(&data),
            sh.cfg.cache_segments,
            cache_rows_cap,
        );
        Ok(data)
    }

    /// This table's wire-format bytes: a typed scan of one pinned
    /// snapshot. Spilled segments are read back from their files without
    /// going through [`Self::query`] or [`Self::page_in`]: neither the
    /// heat stamps nor the page-in cache move, so a save never reorders
    /// eviction — and the segment history after it does not depend on
    /// when it ran. Each run's sections are scanned in arrival (seq)
    /// order, the reference table's order, then encoded.
    fn export(&self) -> Result<Bytes, SpillError> {
        let snap = self.pin();
        // The read-back rows are freed before encoding starts.
        let runs: Vec<(RunId, Vec<R>)> = {
            let read: Vec<SegmentData<R>> = snap
                .segments
                .iter()
                .filter(|seg| seg.is_spilled())
                .map(|seg| seg.read_back())
                .collect::<Result<_, _>>()?;
            let mut read_it = read.iter();
            let mut per_run: BTreeMap<RunId, Vec<&Section<R>>> = BTreeMap::new();
            for seg in &snap.segments {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: one read-back entry was built per spilled segment just above"
                )]
                let sections = match seg.resident_sections() {
                    Some(sections) => sections,
                    None => &read_it.next().expect("one read-back per spilled").sections,
                };
                for sec in sections {
                    per_run.entry(sec.run).or_default().push(sec);
                }
            }
            per_run
                .into_iter()
                .map(|(run, sections)| (run, scan_sections(&sections)))
                .collect()
        };
        Ok(encode_runs(&borrow_sections(&runs)))
    }

    /// Spill this table's coldest sealed resident segment. Returns the
    /// rows moved out of memory (0 when nothing is spillable or a
    /// concurrent maintenance pass replaced the victim first).
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: a spill file whose segment was replaced meanwhile is deleted here"
    )]
    fn spill_coldest(&self) -> Result<usize, SpillError> {
        let Some(sh) = &self.spill else {
            return Ok(0);
        };
        let snap = self.cell.pin();
        let Some(seg) = snap
            .segments
            .iter()
            .filter(|s| s.sealed && !s.is_spilled() && s.len > 0)
            .min_by_key(|s| s.last_touch.load(Ordering::Relaxed))
        else {
            return Ok(0);
        };
        #[expect(
            clippy::expect_used,
            reason = "invariant: the eviction victim was chosen from the resident set"
        )]
        let bytes = encode_sections(seg.resident_sections().expect("victim is resident"));
        let path = sh.cfg.dir.join(format!("seg-{}.vita", seg.id));
        write_atomic(&path, &bytes)?;
        let twin = seg.spilled_twin(path.clone());
        if self.try_replace(std::slice::from_ref(seg), twin) {
            sh.spills.fetch_add(1, Ordering::Relaxed);
            Ok(seg.len)
        } else {
            let _ = std::fs::remove_file(&path);
            Ok(0)
        }
    }

    /// The last-touch tick of the coldest sealed resident segment, for
    /// picking the global eviction victim across tables.
    fn coldest_resident_touch(&self) -> Option<u64> {
        self.cell
            .pin()
            .segments
            .iter()
            .filter(|s| s.sealed && !s.is_spilled() && s.len > 0)
            .map(|s| s.last_touch.load(Ordering::Relaxed))
            .min()
    }

    /// Evict one clock victim from the page-in cache; returns rows freed.
    fn trim_cache_one(&self) -> usize {
        self.cache.lock().evict_one_except(None).unwrap_or(0)
    }

    fn cached_rows(&self) -> usize {
        self.cache.lock().rows()
    }

    fn sealed_resident_rows(&self) -> usize {
        self.cell
            .pin()
            .segments
            .iter()
            .filter(|s| s.sealed && !s.is_spilled())
            .map(|s| s.len)
            .sum()
    }

    fn inventory(&self) -> TableInventory {
        let snap = self.cell.pin();
        let mut inv = TableInventory::default();
        for seg in &snap.segments {
            if seg.sealed {
                inv.sealed += 1;
                if seg.is_spilled() {
                    inv.spilled_segments += 1;
                    inv.spilled_rows += seg.len;
                } else {
                    inv.sealed_resident_rows += seg.len;
                }
            } else {
                inv.unsealed += 1;
                inv.head_rows += seg.len;
            }
        }
        inv
    }
}

// ---------------------------------------------------------------------------
// The repository facade
// ---------------------------------------------------------------------------

/// Seal and compaction tuning for [`SegmentedRepository`]. Both seal
/// triggers fire inside the append that crosses them, and every seal is
/// followed by one compaction pass on the same table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Seal the pending unsealed segments once they hold this many rows.
    pub seal_rows: usize,
    /// … or once this many unsealed segments have accumulated. Unsealed
    /// segments are scanned linearly but are batch-sized, so this trades a
    /// little read work for a lot less sealing churn.
    pub seal_segments: usize,
    /// Sizes compaction: one pass folds at most one run of adjacent small
    /// sealed segments totalling `compact_segments × seal_rows` rows, only
    /// once `compact_segments` of them have piled up (or the row budget is
    /// full), and segments past half that row budget are left alone until
    /// `seal_now`.
    pub compact_segments: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            seal_rows: 4096,
            seal_segments: 64,
            compact_segments: 8,
        }
    }
}

/// Seal, compaction and spill progress counters plus the current segment
/// inventory, summed over the four tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentStats {
    /// Completed seal operations (unsealed suffix → one sealed segment).
    pub seals: u64,
    /// Completed compactions (sealed prefix → one sealed segment).
    pub compactions: u64,
    /// Sealed segments currently live.
    pub sealed_segments: usize,
    /// Unsealed (per-batch) segments currently live.
    pub unsealed_segments: usize,
    /// Sealed segments currently evicted to disk.
    pub spilled_segments: usize,
    /// Rows held only on disk (in spilled segments).
    pub spilled_rows: usize,
    /// Decoded sealed rows in memory — sealed resident segments plus the
    /// page-in caches. This is the gauge `memory_budget_rows` bounds: at
    /// most the budget right after [`SegmentedRepository::seal_now`], and
    /// above it in between by less than a seal's rows plus what queries
    /// just paged in (see [`SpillConfig::memory_budget_rows`]). Rows that
    /// only in-flight queries hold are not counted.
    pub resident_rows: usize,
    /// Rows in unsealed heads (always resident, not counted against the
    /// budget).
    pub head_rows: usize,
    /// Segment files written since the repository started.
    pub spills: u64,
    /// Spilled segments decoded back from disk since start.
    pub page_ins: u64,
    /// Appends that stalled on the spill backlog high-water mark.
    pub writer_stalls: u64,
}

struct SegInner {
    trajectories: SegTable<TrajectorySample>,
    rssi: SegTable<RssiMeasurement>,
    fixes: SegTable<Fix>,
    proximity: SegTable<ProximityRecord>,
    config: SegmentConfig,
    /// Spill tier shared across the four tables; `None` = all-resident.
    spill: Option<Arc<SpillShared>>,
    seals: AtomicU64,
    compactions: AtomicU64,
}

impl SegInner {
    /// Decoded sealed rows across all tables: sealed resident segments
    /// plus the page-in caches. This is the gauge `memory_budget_rows`
    /// bounds; unsealed heads ride on top. Computed from the snapshots on
    /// demand — there is no shadow accounting to drift.
    fn decoded_sealed_rows(&self) -> usize {
        self.trajectories.sealed_resident_rows()
            + self.trajectories.cached_rows()
            + self.rssi.sealed_resident_rows()
            + self.rssi.cached_rows()
            + self.fixes.sealed_resident_rows()
            + self.fixes.cached_rows()
            + self.proximity.sealed_resident_rows()
            + self.proximity.cached_rows()
    }

    /// Rows past the memory budget still waiting to be evicted; 0 with no
    /// spill tier or when under budget.
    fn spill_pending_rows(&self) -> usize {
        match &self.spill {
            Some(sh) => self
                .decoded_sealed_rows()
                .saturating_sub(sh.cfg.memory_budget_rows),
            None => 0,
        }
    }

    /// The page-in cache rows `table` may hold without pushing the
    /// repository over budget: the budget minus everything decoded
    /// *outside* this table's cache. The entry a query just inserted is
    /// exempt (the cache must hold the segment that query reads), so one
    /// oversized segment can overshoot transiently; the next enforcement
    /// pass evicts it.
    fn cache_room<R: SegmentRow>(&self, table: &SegTable<R>) -> usize {
        match &self.spill {
            Some(sh) => sh
                .cfg
                .memory_budget_rows
                .saturating_sub(self.decoded_sealed_rows() - table.cached_rows()),
            None => usize::MAX,
        }
    }

    /// Evict until decoded sealed rows fit the budget: shrink the fattest
    /// page-in cache first (those rows already have a disk copy — dropping
    /// them is free), then spill the globally coldest sealed resident
    /// segment. Serialized so concurrent enforcers (stalled writers and
    /// `seal_now`) never double-spill the same victim.
    fn enforce_budget(&self) -> Result<(), SpillError> {
        let Some(sh) = &self.spill else {
            return Ok(());
        };
        let _guard = sh.enforce_lock.lock();
        loop {
            if self.decoded_sealed_rows() <= sh.cfg.memory_budget_rows {
                return Ok(());
            }
            let caches = [
                self.trajectories.cached_rows(),
                self.rssi.cached_rows(),
                self.fixes.cached_rows(),
                self.proximity.cached_rows(),
            ];
            if let Some((i, _)) = caches
                .iter()
                .enumerate()
                .filter(|(_, &r)| r > 0)
                .max_by_key(|&(_, &r)| r)
            {
                let freed = match i {
                    0 => self.trajectories.trim_cache_one(),
                    1 => self.rssi.trim_cache_one(),
                    2 => self.fixes.trim_cache_one(),
                    _ => self.proximity.trim_cache_one(),
                };
                if freed > 0 {
                    continue;
                }
            }
            if self.spill_coldest()? == 0 {
                // No spillable victim (everything sealed is already on
                // disk) or a concurrent replace won the race; the next
                // pass retries.
                return Ok(());
            }
        }
    }

    /// Spill the globally coldest sealed resident segment across tables.
    fn spill_coldest(&self) -> Result<usize, SpillError> {
        let coldest = [
            self.trajectories.coldest_resident_touch(),
            self.rssi.coldest_resident_touch(),
            self.fixes.coldest_resident_touch(),
            self.proximity.coldest_resident_touch(),
        ];
        let Some((i, _)) = coldest
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (i, t)))
            .min_by_key(|&(_, t)| t)
        else {
            return Ok(0);
        };
        match i {
            0 => self.trajectories.spill_coldest(),
            1 => self.rssi.spill_coldest(),
            2 => self.fixes.spill_coldest(),
            _ => self.proximity.spill_coldest(),
        }
    }

    /// Append one batch; when the unsealed backlog crosses `seal_rows` or
    /// `seal_segments`, the *writer* seals and compacts that table inline
    /// ([`Self::maintain`]). This paces the seal sort and the merges to
    /// ingestion and backpressures it, and it makes the segment history a
    /// function of the append sequence (and, with a spill tier, of the
    /// queries in between, whose page-ins and heat stamps steer eviction).
    ///
    /// With a spill tier the writer additionally stalls while the decoded
    /// backlog sits a full seal past the budget, paying the eviction IO
    /// itself — explicit backpressure, so an ingest burst cannot blow the
    /// memory ceiling.
    fn append_and_seal<R: SegmentRow>(&self, table: &SegTable<R>, run: RunId, rows: Vec<R>) {
        let (pending, minis) = table.append(run, rows);
        if pending >= self.config.seal_rows || minis >= self.config.seal_segments {
            self.maintain(table, false);
        }
        if let Some(sh) = &self.spill {
            if self.spill_pending_rows() >= self.config.seal_rows.max(1) {
                sh.writer_stalls.fetch_add(1, Ordering::Relaxed);
                #[expect(
                    clippy::expect_used,
                    reason = "operational: a failed spill under backpressure has no correct continuation"
                )]
                self.enforce_budget().expect("segment spill failed");
            }
        }
    }

    /// One table's maintenance: seal its unsealed suffix if a trigger
    /// fired (always, under `force`), then run one compaction pass
    /// (folding the whole sealed prefix, under `force`). Writers call it
    /// non-forced, [`SegmentedRepository::seal_now`] forced.
    fn maintain<R: SegmentRow>(&self, table: &SegTable<R>, force: bool) {
        if table.seal_pass(&self.config, force, self.decoded_sealed_rows()) {
            self.seals.fetch_add(1, Ordering::Relaxed);
        }
        if table.compact_pass(&self.config, force, self.decoded_sealed_rows()) {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The indexed storage engine: immutable, sorted, run-segmented segments
/// published by atomic snapshot swap, sealed and compacted by the appends
/// that fill them (see the module docs for the design).
///
/// Readers pin a snapshot per query, holding a table's read lock only to
/// clone an `Arc`, and never wait on ingestion, sealing, compaction or
/// spill work — while writers pay O(segment count) pointer copies per
/// batch, no index maintenance at all, and the seal or merge their append
/// triggers. Choose it whenever queries matter, above all *while*
/// `run_many` ingests; the single backend's reference store serves purely
/// offline workloads, which skip sealing.
///
/// # Examples
///
/// ```
/// use vita_storage::{ProductBatch, ProductSink, RunScope, SegmentedRepository};
/// use vita_geometry::Point;
/// use vita_indoor::{BuildingId, FloorId, ObjectId, Timestamp};
/// use vita_mobility::TrajectorySample;
///
/// let repo = SegmentedRepository::new();
/// repo.accept(ProductBatch::Trajectories(vec![TrajectorySample::new(
///     ObjectId(7),
///     BuildingId(0),
///     FloorId(0),
///     Point::new(1.0, 2.0),
///     Timestamp(100),
/// )]));
/// // Queries answer from a pinned snapshot; sealing and compaction never
/// // change an answer.
/// assert_eq!(repo.counts(RunScope::All).trajectories, 1);
/// repo.seal_now();
/// assert_eq!(repo.trajectories().of_object(RunScope::All, ObjectId(7))?.len(), 1);
/// assert!(repo.stats().seals >= 1);
/// # Ok::<(), vita_storage::SpillError>(())
/// ```
pub struct SegmentedRepository {
    /// Boxed so the repository stays one pointer wide, like the single
    /// backend's variant of [`crate::AnyRepository`].
    inner: Box<SegInner>,
}

impl Default for SegmentedRepository {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SegmentedRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentedRepository")
            .field("counts", &self.counts(RunScope::All))
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for SegmentedRepository {
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: the instance's spill directory is removed here"
    )]
    fn drop(&mut self) {
        // The spill subdirectory is per-instance, so with every query
        // handle gone nothing can page from it; consumed segments' files
        // were deliberately kept for old pinned snapshots and are swept
        // here with the rest.
        if let Some(sh) = &self.inner.spill {
            let _ = std::fs::remove_dir_all(&sh.cfg.dir);
        }
    }
}

impl ProductSink for SegmentedRepository {
    fn accept_run(&self, run: RunId, batch: ProductBatch) {
        let i = &self.inner;
        match batch {
            ProductBatch::Trajectories(v) => i.append_and_seal(&i.trajectories, run, v),
            ProductBatch::Rssi(v) => i.append_and_seal(&i.rssi, run, v),
            ProductBatch::Fixes(v) => i.append_and_seal(&i.fixes, run, v),
            ProductBatch::Proximity(v) => i.append_and_seal(&i.proximity, run, v),
        }
    }
}

impl SegmentedRepository {
    /// A segmented repository with the default [`SegmentConfig`].
    /// Consults [`SpillConfig::from_env`], so whole suites can be rerun
    /// against the spill tier without code changes.
    pub fn new() -> Self {
        Self::with_config(SegmentConfig::default())
    }

    /// A segmented repository with explicit seal/compaction tuning (and
    /// the spill tier if [`SpillConfig::from_env`] finds one).
    pub fn with_config(config: SegmentConfig) -> Self {
        Self::build(config, SpillConfig::from_env(), true)
    }

    /// A segmented repository with the spill tier on: sealed segments
    /// past `spill.memory_budget_rows` are evicted to disk and paged
    /// back on demand. Ignores the environment.
    pub fn with_spill(config: SegmentConfig, spill: SpillConfig) -> Self {
        Self::build(config, Some(spill), false)
    }

    /// `from_env`: `spill` came from [`SpillConfig::from_env`] rather than
    /// from the caller, so [`Self::spill_config`] does not report it.
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: the instance's spill directory is created here"
    )]
    fn build(config: SegmentConfig, spill: Option<SpillConfig>, from_env: bool) -> Self {
        // Distinguishes repositories sharing one configured dir (and one
        // process): each instance spills into its own subdirectory and
        // removes exactly that on drop.
        static NEXT_SPILL_INSTANCE: AtomicU64 = AtomicU64::new(1);
        let spill = spill.map(|original| {
            let dir = original.dir.join(format!(
                "vita-{}-{}",
                std::process::id(),
                NEXT_SPILL_INSTANCE.fetch_add(1, Ordering::Relaxed)
            ));
            #[expect(
                clippy::expect_used,
                reason = "operational: an uncreatable spill directory fails construction loudly"
            )]
            std::fs::create_dir_all(&dir).expect("create spill directory");
            let mut cfg = original.clone();
            cfg.dir = dir;
            Arc::new(SpillShared {
                cfg,
                requested: (!from_env).then_some(original),
                touch: AtomicU64::new(0),
                spills: AtomicU64::new(0),
                page_ins: AtomicU64::new(0),
                writer_stalls: AtomicU64::new(0),
                enforce_lock: Mutex::new(()),
            })
        });
        SegmentedRepository {
            inner: Box::new(SegInner {
                trajectories: SegTable::new(spill.clone()),
                rssi: SegTable::new(spill.clone()),
                fixes: SegTable::new(spill.clone()),
                proximity: SegTable::new(spill.clone()),
                config,
                spill,
                seals: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
            }),
        }
    }

    /// Run one seal+compact round over all four tables, regardless of
    /// thresholds: every pending unsealed segment is sealed and the sealed
    /// prefix is folded, then the memory budget is enforced. Queries
    /// answer identically before and after — this exists so tests and
    /// benches can put the repository in a known segment state.
    pub fn seal_now(&self) {
        let i = &self.inner;
        i.maintain(&i.trajectories, true);
        i.maintain(&i.rssi, true);
        i.maintain(&i.fixes, true);
        i.maintain(&i.proximity, true);
        #[expect(
            clippy::expect_used,
            reason = "operational: a failed spill write has no correct continuation"
        )]
        i.enforce_budget().expect("segment spill failed");
    }

    /// The spill config this repository was built with, as the caller
    /// passed it; `None` when the caller asked for an all-resident store
    /// — even if the `VITA_SPILL_*` environment then switched the spill
    /// tier on (see [`SpillConfig::from_env`]).
    pub fn spill_config(&self) -> Option<&SpillConfig> {
        self.inner.spill.as_ref()?.requested.as_ref()
    }

    /// Decoded sealed rows past the memory budget, still waiting for
    /// eviction — the backpressure gauge writers stall on. Always 0
    /// without a spill tier.
    pub fn spill_pending_rows(&self) -> usize {
        self.inner.spill_pending_rows()
    }

    /// Seal, compaction and spill counters and the live segment inventory.
    pub fn stats(&self) -> SegmentStats {
        let i = &self.inner;
        let mut stats = SegmentStats {
            seals: i.seals.load(Ordering::Relaxed),
            compactions: i.compactions.load(Ordering::Relaxed),
            ..SegmentStats::default()
        };
        if let Some(sh) = &i.spill {
            stats.spills = sh.spills.load(Ordering::Relaxed);
            stats.page_ins = sh.page_ins.load(Ordering::Relaxed);
            stats.writer_stalls = sh.writer_stalls.load(Ordering::Relaxed);
        }
        for inv in [
            i.trajectories.inventory(),
            i.rssi.inventory(),
            i.fixes.inventory(),
            i.proximity.inventory(),
        ] {
            stats.sealed_segments += inv.sealed;
            stats.unsealed_segments += inv.unsealed;
            stats.spilled_segments += inv.spilled_segments;
            stats.spilled_rows += inv.spilled_rows;
            stats.resident_rows += inv.sealed_resident_rows;
            stats.head_rows += inv.head_rows;
        }
        stats.resident_rows += i.trajectories.cached_rows()
            + i.rssi.cached_rows()
            + i.fixes.cached_rows()
            + i.proximity.cached_rows();
        stats
    }

    /// Row counts of the four tables under `scope` — answered from
    /// per-section meta, never paging anything in.
    pub fn counts(&self, scope: RunScope) -> TableCounts {
        TableCounts {
            trajectories: self.inner.trajectories.pin().len(scope),
            rssi: self.inner.rssi.pin().len(scope),
            fixes: self.inner.fixes.pin().len(scope),
            proximity: self.inner.proximity.pin().len(scope),
        }
    }

    /// Every run with at least one row in any table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        let mut runs = self.inner.trajectories.pin().run_ids();
        runs.extend(self.inner.rssi.pin().run_ids());
        runs.extend(self.inner.fixes.pin().run_ids());
        runs.extend(self.inner.proximity.pin().run_ids());
        runs.sort_unstable();
        runs.dedup();
        runs
    }

    /// The trajectory table's query handle.
    pub fn trajectories(&self) -> TableHandle<'_, TrajectorySample> {
        TableHandle::new(&self.inner, &self.inner.trajectories)
    }

    /// The RSSI table's query handle.
    pub fn rssi(&self) -> TableHandle<'_, RssiMeasurement> {
        TableHandle::new(&self.inner, &self.inner.rssi)
    }

    /// The fix table's query handle.
    pub fn fixes(&self) -> TableHandle<'_, Fix> {
        TableHandle::new(&self.inner, &self.inner.fixes)
    }

    /// The proximity table's query handle.
    pub fn proximity(&self) -> TableHandle<'_, ProximityRecord> {
        TableHandle::new(&self.inner, &self.inner.proximity)
    }

    /// Serialize every table into the backend-agnostic run-segmented wire
    /// format: one pinned snapshot per table, scanned run by run in
    /// arrival order — byte for byte what the reference
    /// [`Repository::export`](crate::Repository::export) writes for the
    /// same batches. Leaves the spill tier as it found it: no heat stamp,
    /// no page-in, no cache entry. Fails like the queries when a spill
    /// file cannot be read back.
    pub fn export(&self) -> Result<RepositoryExport, SpillError> {
        let i = &self.inner;
        Ok(RepositoryExport {
            trajectories: i.trajectories.export()?,
            rssi: i.rssi.export()?,
            fixes: i.fixes.export()?,
            proximity: i.proximity.export()?,
        })
    }
}

/// A borrowed query handle on one table of a [`SegmentedRepository`]
/// ([`SegmentedRepository::trajectories`], [`rssi`], [`fixes`],
/// [`proximity`]), generic over the row type like the reference
/// [`Table`](crate::table::Table), with its method names and ordering
/// contracts. Each query pins the table's current snapshot, plans from
/// per-section meta, pages in the spilled segments its plan touches
/// (within the repository-wide memory budget), and returns a
/// [`SpillError`] when one of their files cannot be read back — never a
/// panic, never wrong rows. Without a spill tier no query can fail.
///
/// [`rssi`]: SegmentedRepository::rssi
/// [`fixes`]: SegmentedRepository::fixes
/// [`proximity`]: SegmentedRepository::proximity
pub struct TableHandle<'a, R: SegmentRow> {
    inner: &'a SegInner,
    table: &'a SegTable<R>,
}

impl<'a, R: SegmentRow> TableHandle<'a, R> {
    fn new(inner: &'a SegInner, table: &'a SegTable<R>) -> Self {
        TableHandle { inner, table }
    }

    /// Answer one query with the page-in room the repository's budget
    /// leaves this table (see [`SegTable::query`]).
    fn answer<T>(
        &self,
        scope: RunScope,
        keep: impl Fn(&SectionMeta) -> bool,
        f: impl FnOnce(&[&Section<R>]) -> T,
    ) -> Result<T, SpillError> {
        let room = self.inner.cache_room(self.table);
        self.table.query(scope, room, keep, f)
    }

    /// `scope`'s rows in arrival order (the reference table's insertion
    /// order, reconstructed from seqs).
    pub fn scan(&self, scope: RunScope) -> Result<Vec<R>, SpillError> {
        self.answer(scope, |_| true, scan_sections)
    }

    /// `scope`'s rows in the half-open window `from <= t < to`,
    /// time-ordered with ties in arrival order.
    pub fn time_window(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<Vec<R>, SpillError> {
        self.answer(
            scope,
            |m| m.max_t >= from && m.min_t < to,
            |s| time_window_sections(s, from, to),
        )
    }

    /// `scope`'s rows of object `o`, time-ordered.
    pub fn of_object(&self, scope: RunScope, o: ObjectId) -> Result<Vec<R>, SpillError> {
        self.answer(scope, |_| true, |s| of_object_sections(s, o))
    }

    /// `scope`'s rows through device `d`, time-ordered.
    pub fn of_device(&self, scope: RunScope, d: DeviceId) -> Result<Vec<R>, SpillError> {
        self.answer(scope, |_| true, |s| of_device_sections(s, d))
    }

    /// Latest row at or before `t` (inclusive) per object of `scope`,
    /// sorted by object id.
    pub fn snapshot_at(&self, scope: RunScope, t: Timestamp) -> Result<Vec<R>, SpillError> {
        self.answer(scope, |m| m.min_t <= t, |s| snapshot_at_sections(s, t))
    }

    /// `scope`'s point rows on `floor` inside `query`, in arrival order.
    pub fn range_query(
        &self,
        scope: RunScope,
        floor: FloorId,
        query: &Aabb,
    ) -> Result<Vec<R>, SpillError> {
        self.answer(
            scope,
            |m| m.may_hold(floor),
            |s| range_query_sections(s, floor, query),
        )
    }

    /// `scope`'s k point rows nearest to `p` on `floor`, with their
    /// distances, nearest first.
    pub fn knn(
        &self,
        scope: RunScope,
        floor: FloorId,
        p: Point,
        k: usize,
    ) -> Result<Vec<(R, f64)>, SpillError> {
        self.answer(
            scope,
            |m| m.may_hold(floor),
            |s| knn_sections(s, floor, p, k),
        )
    }
}

impl TableHandle<'_, ProximityRecord> {
    /// `scope`'s records whose detection period intersects `[from, to)`,
    /// in arrival order.
    pub fn overlapping(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<Vec<ProximityRecord>, SpillError> {
        // Meta time bounds are over `ts` (the section sort key), so only
        // the `ts < to` half prunes; `te >= from` is checked per row.
        self.answer(
            scope,
            |m| m.min_t < to,
            |s| overlapping_sections(s, from, to),
        )
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "test code")]

    use super::*;
    use vita_indoor::{BuildingId, Loc};

    fn ts(o: u32, f: u32, x: f64, y: f64, t: u64) -> TrajectorySample {
        TrajectorySample::new(
            ObjectId(o),
            BuildingId(0),
            FloorId(f),
            Point::new(x, y),
            Timestamp(t),
        )
    }

    fn fill(repo: &SegmentedRepository) {
        for b in 0..6u64 {
            let batch: Vec<TrajectorySample> = (0..20)
                .map(|i| {
                    ts(
                        (i % 4) as u32,
                        0,
                        (b * 20 + i) as f64,
                        1.0,
                        b * 200 + i * 10,
                    )
                })
                .collect();
            repo.accept_run(RunId((b % 2) as u32), ProductBatch::Trajectories(batch));
        }
    }

    fn filled() -> SegmentedRepository {
        let repo = SegmentedRepository::new();
        fill(&repo);
        repo
    }

    #[test]
    fn snapshot_cell_pins_are_monotone() {
        let cell = SnapshotCell::new(1u32);
        let a = cell.pin();
        let b = cell.pin();
        assert!(Arc::ptr_eq(&a, &b));
        cell.publish(Arc::new(2));
        assert_eq!(*cell.pin(), 2);
        // The old pin still reads the old value — that is the snapshot pin.
        assert_eq!(*a, 1);
    }

    #[test]
    fn queries_are_invariant_under_sealing() {
        let repo = filled();
        let before_scan = repo.trajectories().scan(RunScope::All).unwrap();
        let before_window = repo
            .trajectories()
            .time_window(RunScope::All, Timestamp(100), Timestamp(900))
            .unwrap();
        let before_snap = repo
            .trajectories()
            .snapshot_at(RunScope::One(RunId(1)), Timestamp(700))
            .unwrap();
        let before_trace = repo
            .trajectories()
            .of_object(RunScope::All, ObjectId(2))
            .unwrap();
        let before_range = repo
            .trajectories()
            .range_query(
                RunScope::All,
                FloorId(0),
                &Aabb::new(Point::new(10.0, 0.0), Point::new(60.0, 2.0)),
            )
            .unwrap();
        let before_knn = repo
            .trajectories()
            .knn(RunScope::All, FloorId(0), Point::new(30.0, 1.0), 7)
            .unwrap();
        repo.seal_now();
        let stats = repo.stats();
        assert!(stats.seals >= 1, "seal_now must seal: {stats:?}");
        assert_eq!(
            repo.trajectories().scan(RunScope::All).unwrap(),
            before_scan
        );
        assert_eq!(
            repo.trajectories()
                .time_window(RunScope::All, Timestamp(100), Timestamp(900))
                .unwrap(),
            before_window
        );
        assert_eq!(
            repo.trajectories()
                .snapshot_at(RunScope::One(RunId(1)), Timestamp(700))
                .unwrap(),
            before_snap
        );
        assert_eq!(
            repo.trajectories()
                .of_object(RunScope::All, ObjectId(2))
                .unwrap(),
            before_trace
        );
        assert_eq!(
            repo.trajectories()
                .range_query(
                    RunScope::All,
                    FloorId(0),
                    &Aabb::new(Point::new(10.0, 0.0), Point::new(60.0, 2.0)),
                )
                .unwrap(),
            before_range
        );
        let after_knn = repo
            .trajectories()
            .knn(RunScope::All, FloorId(0), Point::new(30.0, 1.0), 7)
            .unwrap();
        assert_eq!(before_knn.len(), after_knn.len());
        for ((s1, d1), (s2, d2)) in before_knn.iter().zip(&after_knn) {
            assert_eq!(s1, s2);
            assert!((d1 - d2).abs() < 1e-12);
        }
    }

    #[test]
    fn sealing_then_appending_then_compacting_preserves_arrival_order() {
        let repo = filled();
        repo.seal_now();
        // More rows on top of the sealed state, then force a second seal
        // and a compaction.
        repo.accept_run(
            RunId(0),
            ProductBatch::Trajectories((0..10).map(|i| ts(9, 0, i as f64, 5.0, 50 + i)).collect()),
        );
        repo.seal_now();
        repo.seal_now();
        let stats = repo.stats();
        assert!(stats.compactions >= 1, "expected a compaction: {stats:?}");
        assert_eq!(stats.unsealed_segments, 0);
        let trace = repo
            .trajectories()
            .of_object(RunScope::All, ObjectId(9))
            .unwrap();
        assert_eq!(trace.len(), 10);
        assert!(trace.windows(2).all(|w| w[0].t < w[1].t));
        assert_eq!(repo.counts(RunScope::All).trajectories, 130);
    }

    #[test]
    fn run_scoped_counts_and_isolation() {
        let repo = filled();
        repo.seal_now();
        let all = repo.counts(RunScope::All);
        let r0 = repo.counts(RunId(0).into());
        let r1 = repo.counts(RunId(1).into());
        assert_eq!(all.trajectories, r0.trajectories + r1.trajectories);
        assert_eq!(repo.run_ids(), vec![RunId(0), RunId(1)]);
        assert!(repo
            .trajectories()
            .scan(RunId(0).into())
            .unwrap()
            .iter()
            .zip(repo.trajectories().scan(RunId(0).into()).unwrap())
            .all(|(a, b)| *a == b));
        assert!(repo.counts(RunId(7).into()).trajectories == 0);
    }

    #[test]
    fn export_import_round_trips_runs_and_order() {
        let repo = filled();
        repo.accept_run(
            RunId(1),
            ProductBatch::Rssi(vec![RssiMeasurement {
                object: ObjectId(1),
                device: DeviceId(3),
                rssi: -48.0,
                t: Timestamp(123),
            }]),
        );
        repo.seal_now();
        let export = repo.export().unwrap();
        let restored = SegmentedRepository::new();
        export.ingest_into(&restored).unwrap();
        assert_eq!(restored.counts(RunScope::All), repo.counts(RunScope::All));
        assert_eq!(restored.run_ids(), repo.run_ids());
        assert_eq!(
            restored.trajectories().scan(RunId(0).into()).unwrap(),
            repo.trajectories().scan(RunId(0).into()).unwrap()
        );
        assert_eq!(
            restored
                .rssi()
                .of_device(RunScope::All, DeviceId(3))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn readers_pinned_mid_ingest_see_frozen_state() {
        let repo = SegmentedRepository::new();
        repo.accept(ProductBatch::Trajectories(
            (0..5).map(|i| ts(0, 0, i as f64, 0.0, i * 10)).collect(),
        ));
        let pinned = repo.inner.trajectories.pin();
        repo.accept(ProductBatch::Trajectories(
            (5..12).map(|i| ts(0, 0, i as f64, 0.0, i * 10)).collect(),
        ));
        repo.seal_now();
        // The pin still answers from the pre-append world.
        assert_eq!(pinned.len(RunScope::All), 5);
        assert_eq!(repo.counts(RunScope::All).trajectories, 12);
    }

    #[test]
    fn proximity_overlapping_matches_contract() {
        let repo = SegmentedRepository::new();
        repo.accept(ProductBatch::Proximity(vec![ProximityRecord {
            object: ObjectId(0),
            device: DeviceId(0),
            ts: Timestamp(100),
            te: Timestamp(300),
        }]));
        repo.seal_now();
        assert_eq!(
            repo.proximity()
                .overlapping(RunScope::All, Timestamp(300), Timestamp(400))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            repo.proximity()
                .overlapping(RunScope::All, Timestamp(0), Timestamp(100))
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn dropped_repository_frees_the_snapshots_this_thread_queried() {
        let repo = filled();
        repo.seal_now();
        assert_eq!(repo.counts(RunScope::All).trajectories, 120);
        assert_eq!(
            repo.trajectories()
                .of_object(RunScope::All, ObjectId(1))
                .unwrap()
                .len(),
            30
        );
        let (snap, segment) = {
            let snap = repo.inner.trajectories.pin();
            (Arc::downgrade(&snap), Arc::downgrade(&snap.segments[0]))
        };
        drop(repo);
        assert!(snap.upgrade().is_none(), "snapshot outlived its repository");
        assert!(
            segment.upgrade().is_none(),
            "rows outlived their repository"
        );
    }

    #[test]
    fn superseded_snapshot_lives_exactly_as_long_as_its_pin() {
        let repo = SegmentedRepository::new();
        repo.accept(ProductBatch::Trajectories(
            (0..5).map(|i| ts(0, 0, i as f64, 0.0, i * 10)).collect(),
        ));
        let pinned = repo.inner.trajectories.pin();
        let old = Arc::downgrade(&pinned);
        repo.accept(ProductBatch::Trajectories(
            (5..12).map(|i| ts(0, 0, i as f64, 0.0, i * 10)).collect(),
        ));
        // Superseded, yet still whole for the reader that pinned it.
        assert_eq!(pinned.len(RunScope::All), 5);
        drop(pinned);
        assert!(
            old.upgrade().is_none(),
            "superseded snapshot outlived its last pin"
        );
        assert_eq!(repo.counts(RunScope::All).trajectories, 12);
    }

    #[test]
    fn spilled_segment_frees_its_rows_though_this_thread_queried_them() {
        let parent = SpillParent::new("freed");
        let repo = SegmentedRepository::with_spill(
            SegmentConfig::default(),
            SpillConfig::new(parent.0.clone()),
        );
        fill(&repo);
        repo.seal_now();
        let trace = repo
            .trajectories()
            .of_object(RunScope::All, ObjectId(1))
            .unwrap();
        let table = &repo.inner.trajectories;
        let resident = {
            let snap = table.pin();
            assert_eq!(snap.segments.len(), 1);
            assert!(snap.segments[0].sealed && !snap.segments[0].is_spilled());
            Arc::downgrade(&snap.segments[0])
        };
        assert_eq!(table.spill_coldest().unwrap(), 120);
        assert!(
            resident.upgrade().is_none(),
            "spilled rows are still resident"
        );
        // The spilled twin pages the same rows back in.
        assert_eq!(
            repo.trajectories()
                .of_object(RunScope::All, ObjectId(1))
                .unwrap(),
            trace
        );
        assert_eq!(repo.stats().page_ins, 1);
    }

    #[test]
    fn spilled_fix_segment_on_another_floor_is_pruned_without_a_page_in() {
        let parent = SpillParent::new("fix-floors");
        let repo =
            SegmentedRepository::with_spill(SegmentConfig::default(), tiny_spill(&parent, 0));
        let fixes: Vec<Fix> = (0..20)
            .map(|i| Fix {
                object: ObjectId(i % 4),
                loc: Loc::point(BuildingId(0), FloorId(1), Point::new(i as f64, 1.0)),
                t: Timestamp(u64::from(i) * 10),
            })
            .collect();
        repo.accept(ProductBatch::Fixes(fixes));
        repo.seal_now();
        assert_eq!(repo.stats().spilled_rows, 20, "{:?}", repo.stats());
        let everywhere = Aabb::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6));
        let floor0 = repo
            .fixes()
            .range_query(RunScope::All, FloorId(0), &everywhere);
        assert!(floor0.unwrap().is_empty());
        let near = repo
            .fixes()
            .knn(RunScope::All, FloorId(0), Point::new(0.0, 0.0), 3);
        assert!(near.unwrap().is_empty());
        assert_eq!(repo.stats().page_ins, 0, "floor 0 must prune from meta");
        // Floor 1 holds the rows, so that query pages the segment in.
        let floor1 = repo
            .fixes()
            .range_query(RunScope::All, FloorId(1), &everywhere);
        assert_eq!(floor1.unwrap().len(), 20);
        assert_eq!(repo.stats().page_ins, 1);
    }

    /// One test's spill parent, `<temp>/vita-spill-test-<tag>-<pid>`,
    /// removed with everything under it when the guard drops — also when
    /// the test fails; a repository removes only its own instance
    /// subdirectory. Declared before the repositories spilling into it, so
    /// they drop first.
    struct SpillParent(PathBuf);

    impl SpillParent {
        fn new(tag: &str) -> Self {
            SpillParent(
                std::env::temp_dir().join(format!("vita-spill-test-{tag}-{}", std::process::id())),
            )
        }
    }

    impl Drop for SpillParent {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_spill(parent: &SpillParent, budget: usize) -> SpillConfig {
        SpillConfig {
            dir: parent.0.clone(),
            memory_budget_rows: budget,
            cache_segments: 2,
        }
    }

    #[test]
    fn spilled_repository_is_bit_identical_and_bounded() {
        let cfg = SegmentConfig {
            seal_rows: 16,
            ..SegmentConfig::default()
        };
        // `build(.., None)` rather than `with_config`: the baseline must
        // stay all-resident even when the suite runs with VITA_SPILL_DIR.
        let baseline = SegmentedRepository::build(cfg, None, false);
        fill(&baseline);
        baseline.seal_now();
        let parent = SpillParent::new("parity");
        let repo = SegmentedRepository::with_spill(cfg, tiny_spill(&parent, 30));
        fill(&repo);
        repo.seal_now();
        let stats = repo.stats();
        assert!(stats.spills >= 1, "must have spilled: {stats:?}");
        assert!(stats.spilled_rows > 0, "{stats:?}");
        assert!(
            stats.resident_rows <= 30,
            "decoded sealed rows must fit the budget: {stats:?}"
        );
        // Every query path answers bit-identically to the all-resident
        // repository, paging spilled segments back in as needed.
        assert_eq!(repo.counts(RunScope::All), baseline.counts(RunScope::All));
        assert_eq!(
            repo.trajectories().scan(RunScope::All).unwrap(),
            baseline.trajectories().scan(RunScope::All).unwrap()
        );
        assert_eq!(
            repo.trajectories()
                .time_window(RunId(0).into(), Timestamp(100), Timestamp(900))
                .unwrap(),
            baseline
                .trajectories()
                .time_window(RunId(0).into(), Timestamp(100), Timestamp(900))
                .unwrap()
        );
        assert_eq!(
            repo.trajectories()
                .snapshot_at(RunScope::All, Timestamp(700))
                .unwrap(),
            baseline
                .trajectories()
                .snapshot_at(RunScope::All, Timestamp(700))
                .unwrap()
        );
        assert_eq!(
            repo.trajectories()
                .of_object(RunScope::All, ObjectId(2))
                .unwrap(),
            baseline
                .trajectories()
                .of_object(RunScope::All, ObjectId(2))
                .unwrap()
        );
        let window = Aabb::new(Point::new(10.0, 0.0), Point::new(60.0, 2.0));
        assert_eq!(
            repo.trajectories()
                .range_query(RunScope::All, FloorId(0), &window)
                .unwrap(),
            baseline
                .trajectories()
                .range_query(RunScope::All, FloorId(0), &window)
                .unwrap()
        );
        assert!(repo.stats().page_ins >= 1, "{:?}", repo.stats());
        // Queries paged segments in; the next maintenance round brings
        // the gauge back under the budget.
        repo.seal_now();
        assert!(repo.stats().resident_rows <= 30, "{:?}", repo.stats());
        // Export reads spilled segments back; it must equal the
        // all-resident export byte-for-byte.
        let spilled_export = repo.export().unwrap();
        let resident_export = baseline.export().unwrap();
        assert_eq!(spilled_export.trajectories, resident_export.trajectories);
        assert_eq!(spilled_export.rssi, resident_export.rssi);
        assert_eq!(spilled_export.fixes, resident_export.fixes);
        assert_eq!(spilled_export.proximity, resident_export.proximity);
    }

    /// Which of a sealed section's indexes exist: `(object, device,
    /// spatial)`.
    fn built<R: SegmentRow>(sec: &Section<R>) -> (bool, bool, bool) {
        let ix = sec.index.as_ref().expect("sealed section");
        (
            ix.by_object.get().is_some(),
            ix.by_device.get().is_some(),
            ix.spatial.get().is_some(),
        )
    }

    /// Index state of every resident sealed section of `table`.
    fn built_all<R: SegmentRow>(table: &SegTable<R>) -> Vec<(bool, bool, bool)> {
        let snap = table.pin();
        snap.segments
            .iter()
            .filter(|seg| seg.sealed)
            .flat_map(|seg| seg.resident_sections().expect("all-resident"))
            .map(built)
            .collect()
    }

    /// An all-resident repository (whatever the environment says) with
    /// sealed trajectory and RSSI sections.
    fn sealed_resident() -> SegmentedRepository {
        let repo = SegmentedRepository::build(SegmentConfig::default(), None, false);
        fill(&repo);
        let rssi = (0..40)
            .map(|i| RssiMeasurement {
                object: ObjectId(i % 4),
                device: DeviceId(i % 3),
                rssi: -50.0 - f64::from(i),
                t: Timestamp(u64::from(i) * 25),
            })
            .collect();
        repo.accept_run(RunId(0), ProductBatch::Rssi(rssi));
        repo.seal_now();
        repo
    }

    #[test]
    fn sealing_and_compaction_build_no_index() {
        let repo = sealed_resident();
        let none = (false, false, false);
        let (traj, rssi) = (
            built_all(&repo.inner.trajectories),
            built_all(&repo.inner.rssi),
        );
        assert!(!traj.is_empty() && !rssi.is_empty());
        assert!(traj.iter().chain(&rssi).all(|&b| b == none));
        fill(&repo);
        repo.seal_now();
        repo.seal_now();
        assert!(repo.stats().compactions >= 1, "{:?}", repo.stats());
        let traj = built_all(&repo.inner.trajectories);
        assert!(!traj.is_empty() && traj.iter().all(|&b| b == none));
    }

    #[test]
    fn each_query_kind_builds_only_its_index() {
        type Query<'a> = &'a dyn Fn(&SegmentedRepository) -> usize;
        let (all, floor, p) = (RunScope::All, FloorId(0), Point::new(30.0, 1.0));
        let area = Aabb::new(Point::new(10.0, 0.0), Point::new(60.0, 2.0));
        let (t0, t1) = (Timestamp(0), Timestamp(2_000));
        let none = (false, false, false);
        let (object, device, spatial) = (
            (true, false, false),
            (false, true, false),
            (false, false, true),
        );
        let trajectory_cases: [(&str, Query, _); 7] = [
            ("counts", &|r| r.counts(all).trajectories, none),
            ("scan", &|r| r.trajectories().scan(all).unwrap().len(), none),
            (
                "window",
                &|r| r.trajectories().time_window(all, t0, t1).unwrap().len(),
                none,
            ),
            (
                "trace",
                &|r| r.trajectories().of_object(all, ObjectId(2)).unwrap().len(),
                object,
            ),
            (
                "snapshot",
                &|r| r.trajectories().snapshot_at(all, t1).unwrap().len(),
                object,
            ),
            (
                "range",
                &|r| {
                    r.trajectories()
                        .range_query(all, floor, &area)
                        .unwrap()
                        .len()
                },
                spatial,
            ),
            (
                "knn",
                &|r| r.trajectories().knn(all, floor, p, 7).unwrap().len(),
                spatial,
            ),
        ];
        for (kind, query, want) in trajectory_cases {
            let repo = sealed_resident();
            assert!(query(&repo) > 0, "{kind} must answer rows");
            let got = built_all(&repo.inner.trajectories);
            assert!(
                !got.is_empty() && got.iter().all(|&b| b == want),
                "{kind}: {got:?}"
            );
            // The other tables stay unindexed.
            assert!(built_all(&repo.inner.rssi).iter().all(|&b| b == none));
        }
        let rssi_cases: [(&str, Query, _); 3] = [
            (
                "window",
                &|r| r.rssi().time_window(all, t0, t1).unwrap().len(),
                none,
            ),
            (
                "of_object",
                &|r| r.rssi().of_object(all, ObjectId(1)).unwrap().len(),
                object,
            ),
            (
                "of_device",
                &|r| r.rssi().of_device(all, DeviceId(2)).unwrap().len(),
                device,
            ),
        ];
        for (kind, query, want) in rssi_cases {
            let repo = sealed_resident();
            assert!(query(&repo) > 0, "{kind} must answer rows");
            let got = built_all(&repo.inner.rssi);
            assert!(
                !got.is_empty() && got.iter().all(|&b| b == want),
                "{kind}: {got:?}"
            );
        }
    }

    /// `n` rows over 16 objects and two floors at scattered points (so no
    /// two kNN distances tie), in arrival order.
    fn scattered(n: u64) -> Vec<TrajectorySample> {
        (0..n)
            .map(|i| {
                let h = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let x = (h >> 40) as f64 / 4096.0;
                let y = ((h >> 16) & 0xff_ffff) as f64 / 4096.0;
                ts((i % 16) as u32, (i % 2) as u32, x, y, i * 7 % 1_009)
            })
            .collect()
    }

    type Neighbors = Vec<(TrajectorySample, u64)>;

    /// Eight threads issue the first trace and the first kNN against the
    /// same sections at once — half of them trace first — so both index
    /// builds are raced. Every answer must equal `want`.
    fn race_first_use(
        trace: impl Fn() -> Vec<TrajectorySample> + Sync,
        knn: impl Fn() -> Neighbors + Sync,
        want: &(Vec<TrajectorySample>, Neighbors),
    ) {
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (barrier, trace, knn) = (&barrier, &trace, &knn);
                s.spawn(move || {
                    barrier.wait();
                    let (a, b) = if t % 2 == 0 {
                        let a = trace();
                        (a, knn())
                    } else {
                        let b = knn();
                        (trace(), b)
                    };
                    assert_eq!(a, want.0, "thread {t}: trace");
                    assert_eq!(b, want.1, "thread {t}: knn");
                });
            }
        });
    }

    #[test]
    fn concurrent_first_use_matches_single_backend() {
        let rows = scattered(2_000);
        let (o, floor, p, k) = (ObjectId(3), FloorId(1), Point::new(2_000.0, 2_000.0), 12);
        let single = crate::Repository::new();
        single.accept_run(RunId(0), ProductBatch::Trajectories(rows.clone()));
        let want: (Vec<TrajectorySample>, Neighbors) = {
            let t = single.trajectories.read();
            (
                t.object_trace(RunScope::All, o)
                    .into_iter()
                    .copied()
                    .collect(),
                t.knn(RunScope::All, floor, p, k)
                    .into_iter()
                    .map(|(r, d)| (*r, d.to_bits()))
                    .collect(),
            )
        };
        assert_eq!(want.1.len(), k);
        let bits = |v: Vec<(TrajectorySample, f64)>| -> Neighbors {
            v.into_iter().map(|(r, d)| (r, d.to_bits())).collect()
        };

        // One sealed resident section, raced through the public queries.
        let repo = SegmentedRepository::build(SegmentConfig::default(), None, false);
        repo.accept_run(RunId(0), ProductBatch::Trajectories(rows.clone()));
        repo.seal_now();
        assert_eq!(
            built_all(&repo.inner.trajectories),
            vec![(false, false, false)]
        );
        race_first_use(
            || repo.trajectories().of_object(RunScope::All, o).unwrap(),
            || bits(repo.trajectories().knn(RunScope::All, floor, p, k).unwrap()),
            &want,
        );
        assert_eq!(
            built_all(&repo.inner.trajectories),
            vec![(true, false, true)]
        );

        // One paged-in section, shared by every thread.
        let parent = SpillParent::new("race");
        let spilled =
            SegmentedRepository::with_spill(SegmentConfig::default(), tiny_spill(&parent, 0));
        spilled.accept_run(RunId(0), ProductBatch::Trajectories(rows));
        spilled.seal_now();
        let table = &spilled.inner.trajectories;
        let seg = Arc::clone(&table.pin().segments[0]);
        assert!(seg.is_spilled());
        let data = table.page_in(&seg, usize::MAX).unwrap();
        let sections: Vec<&Section<TrajectorySample>> = data.sections.iter().collect();
        assert_eq!(sections.len(), 1);
        assert_eq!(
            built(sections[0]),
            (false, false, false),
            "page-in builds no index"
        );
        race_first_use(
            || of_object_sections(&sections, o),
            || bits(knn_sections(&sections, floor, p, k)),
            &want,
        );
        assert_eq!(built(sections[0]), (true, false, true));
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let cfg = SegmentConfig {
            seal_rows: 8,
            ..SegmentConfig::default()
        };
        let parent = SpillParent::new("drop");
        {
            let repo = SegmentedRepository::with_spill(cfg, tiny_spill(&parent, 8));
            fill(&repo);
            repo.seal_now();
            assert!(repo.stats().spills >= 1, "{:?}", repo.stats());
            let live = std::fs::read_dir(&parent.0).unwrap().count();
            assert!(live >= 1, "instance subdir must exist while alive");
        }
        let leftover = std::fs::read_dir(&parent.0).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0, "per-instance spill dir must be removed");
    }

    /// Export reads spilled segments straight from their files: it stamps
    /// no heat, fills no page-in cache entry and counts no page-in, so a
    /// save cannot reorder the coldest-first eviction — and the segment
    /// history after it — by when it ran.
    #[test]
    fn export_leaves_the_spill_tier_heat_alone() {
        let parent = SpillParent::new("export-heat");
        let cfg = SegmentConfig {
            seal_rows: 16,
            ..SegmentConfig::default()
        };
        let repo = SegmentedRepository::with_spill(cfg, tiny_spill(&parent, 40));
        fill(&repo);
        repo.seal_now();
        // Warm run 0's segments: the query stamps their heat and pages the
        // spilled ones into the cache.
        repo.trajectories()
            .of_object(RunId(0).into(), ObjectId(1))
            .unwrap();
        let heat = || {
            let table = &repo.inner.trajectories;
            let touches: Vec<(u64, bool, u64)> = table
                .pin()
                .segments
                .iter()
                .map(|s| (s.id, s.is_spilled(), s.last_touch.load(Ordering::Relaxed)))
                .collect();
            let cached: Vec<(u64, bool)> = table
                .cache
                .lock()
                .entries
                .iter()
                .map(|e| (e.id, e.referenced))
                .collect();
            (touches, cached, repo.stats().page_ins)
        };
        let before = heat();
        let (touches, cached, page_ins) = &before;
        assert!(
            touches.iter().any(|&(_, spilled, _)| spilled),
            "{touches:?}"
        );
        assert!(
            touches.iter().any(|&(_, spilled, _)| !spilled),
            "{touches:?}"
        );
        assert!(touches.iter().any(|&(_, _, t)| t > 0), "{touches:?}");
        assert!(touches.iter().any(|&(_, _, t)| t == 0), "{touches:?}");
        assert!(!cached.is_empty() && *page_ins > 0, "{before:?}");
        repo.export().unwrap();
        assert_eq!(heat(), before, "export moved the spill tier's heat");
    }

    /// `from_env`'s parse, driven through a lookup closure so no test
    /// touches the process environment the parallel tests share.
    #[test]
    fn malformed_spill_variables_are_named_not_ignored() {
        let vars = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                pairs
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| OsString::from(v))
            }
        };
        assert_eq!(
            SpillConfig::from_vars(vars(&[("VITA_SPILL_BUDGET_ROWS", "x")])),
            Ok(None),
            "no directory, no spill tier"
        );
        assert_eq!(
            SpillConfig::from_vars(vars(&[
                ("VITA_SPILL_DIR", "/s"),
                ("VITA_SPILL_BUDGET_ROWS", "512"),
                ("VITA_SPILL_CACHE_SEGMENTS", "2"),
            ])),
            Ok(Some(SpillConfig {
                dir: PathBuf::from("/s"),
                memory_budget_rows: 512,
                cache_segments: 2,
            }))
        );
        assert_eq!(
            SpillConfig::from_vars(vars(&[("VITA_SPILL_DIR", "/s")])),
            Ok(Some(SpillConfig::new("/s")))
        );
        for (name, value) in [
            ("VITA_SPILL_BUDGET_ROWS", "51 2"),
            ("VITA_SPILL_BUDGET_ROWS", "-1"),
            ("VITA_SPILL_BUDGET_ROWS", ""),
            ("VITA_SPILL_CACHE_SEGMENTS", "two"),
        ] {
            let err = SpillConfig::from_vars(|n: &str| match n {
                "VITA_SPILL_DIR" => Some(OsString::from("/s")),
                n if n == name => Some(OsString::from(value)),
                _ => None,
            })
            .unwrap_err();
            assert_eq!(err, format!("{name}={value:?} is not an unsigned integer"));
        }
    }

    /// CI's `spill` job sets `VITA_SPILL_*` so every default-built
    /// repository spills. This fails that job if the environment stops
    /// reaching the engine; without `VITA_SPILL_DIR` it checks nothing.
    #[test]
    fn spill_environment_reaches_default_repositories() {
        let Some(cfg) = SpillConfig::from_env() else {
            return;
        };
        let repo = SegmentedRepository::new();
        let rows: Vec<TrajectorySample> = (0..=cfg.memory_budget_rows as u64)
            .map(|i| ts((i % 8) as u32, 0, i as f64, 1.0, i))
            .collect();
        for batch in rows.chunks(1_000) {
            repo.accept(ProductBatch::Trajectories(batch.to_vec()));
        }
        repo.seal_now();
        let stats = repo.stats();
        assert!(
            stats.spilled_rows > 0,
            "{} rows over a {}-row budget spilled nothing: {stats:?}",
            rows.len(),
            cfg.memory_budget_rows
        );
    }
}
