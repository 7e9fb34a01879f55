//! The reference store behind the single backend: one append-only table
//! per data product, answering every query with a linear scan.
//!
//! The paper keeps each product "in different repositories with efficient
//! indices" (§4.2). In this workspace those indices live in the segmented
//! engine ([`crate::segment`]), which builds them on first use. A [`Table`]
//! is its deliberately naive counterpart: rows and their run tags in
//! arrival order, and no index of any kind. The cross-backend parity
//! suites check the engine against it, so the oracle shares none of the
//! engine's index or grid code.
//!
//! Every query states its ordering contract, and the engine reproduces
//! each one bit for bit:
//!
//! * time windows are **half-open**, `from <= t < to`, in time order with
//!   ties in arrival order;
//! * snapshots are **inclusive** of their bound and sorted by object; among
//!   an object's rows sharing the latest timestamp the last-arrived wins;
//! * object and device lookups are in time order, ties in arrival order;
//! * range answers come in insertion order;
//! * kNN answers are sorted by distance, ties in arrival order;
//! * [`ProximityTable::overlapping`] intersects the same half-open window,
//!   in insertion order.

use std::cmp::Reverse;

use vita_geometry::{Aabb, Point};
use vita_indoor::{DeviceId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;

use crate::row::SegmentRow;
use crate::RunScope;

/// An append-only table of product rows, each tagged with the [`RunId`]
/// that produced it (see the crate docs on the run dimension). Every
/// query takes a [`RunScope`]: [`RunScope::All`] answers over all runs
/// merged, [`RunScope::One`] restricts it to one run.
#[derive(Debug, Clone)]
pub struct Table<R> {
    rows: Vec<R>,
    /// Run tag of each row, parallel to `rows`.
    runs: Vec<RunId>,
}

/// Raw trajectory samples `(o_id, loc, t)`.
pub type TrajectoryTable = Table<TrajectorySample>;
/// Raw RSSI measurements `(o_id, d_id, rssi, t)`.
pub type RssiTable = Table<RssiMeasurement>;
/// Deterministic positioning fixes `(o_id, loc, t)`.
pub type FixTable = Table<Fix>;
/// Proximity detection periods `(o_id, d_id, ts, te)`; a record's time is
/// its start `ts`.
pub type ProximityTable = Table<ProximityRecord>;

impl<R> Default for Table<R> {
    fn default() -> Self {
        Table {
            rows: Vec::new(),
            runs: Vec::new(),
        }
    }
}

impl<R: SegmentRow> Table<R> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one row under [`RunId::DEFAULT`].
    pub fn insert(&mut self, row: R) {
        self.append_batch_run(RunId::DEFAULT, [row]);
    }

    /// Append rows tagged with `run`: the ingest path of the streaming
    /// pipeline, one call per [`crate::ProductBatch`].
    pub fn append_batch_run(&mut self, run: RunId, batch: impl IntoIterator<Item = R>) {
        self.rows.extend(batch);
        self.runs.resize(self.rows.len(), run);
    }

    /// Every run with at least one row in this table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        let mut seen: Vec<RunId> = Vec::new();
        for &run in &self.runs {
            if let Err(i) = seen.binary_search(&run) {
                seen.insert(i, run);
            }
        }
        seen
    }

    /// Rows ingested by `run`.
    pub fn len_run(&self, run: RunId) -> usize {
        self.runs.iter().filter(|&&r| r == run).count()
    }

    /// `scope`'s rows, in insertion order.
    pub fn scan(&self, scope: RunScope) -> Vec<&R> {
        self.select(scope).collect()
    }

    /// Owned copies of the rows, one section per run in ascending run
    /// order, each in insertion order: the layout the wire format
    /// writes. One pass over the table, copying each arrival-order stretch
    /// of one run's rows (a batch, at least) in one go.
    pub(crate) fn export_sections(&self) -> Vec<(RunId, Vec<R>)> {
        let mut sections: Vec<(RunId, Vec<R>)> = Vec::new();
        let mut start = 0;
        for stretch in self.runs.chunk_by(|a, b| a == b) {
            let (run, rows) = (stretch[0], &self.rows[start..start + stretch.len()]);
            start += stretch.len();
            match sections.binary_search_by_key(&run, |(r, _)| *r) {
                Ok(i) => sections[i].1.extend_from_slice(rows),
                Err(i) => sections.insert(i, (run, rows.to_vec())),
            }
        }
        sections
    }

    /// `scope`'s rows, in insertion order.
    fn select(&self, scope: RunScope) -> impl DoubleEndedIterator<Item = &R> {
        let run = scope.run();
        self.rows
            .iter()
            .zip(&self.runs)
            .filter(move |(_, &r)| run.is_none_or(|want| r == want))
            .map(|(row, _)| row)
    }

    /// `scope`'s rows that pass `keep`, in time order; the sort is stable,
    /// so rows sharing a timestamp keep arrival order.
    fn time_ordered(&self, scope: RunScope, keep: impl Fn(&R) -> bool) -> Vec<&R> {
        let mut rows: Vec<&R> = self.select(scope).filter(|r| keep(r)).collect();
        rows.sort_by_key(|r| r.time());
        rows
    }

    /// All of `scope`'s rows in the **half-open** window `from <= t < to`,
    /// time-ordered (rows sharing a timestamp keep arrival order).
    ///
    /// Every `time_window` in the storage crate uses this half-open
    /// contract, and [`ProximityTable::overlapping`] intersects against the
    /// same window, so adjacent windows partition a run with no row
    /// counted twice.
    pub fn time_window(&self, scope: RunScope, from: Timestamp, to: Timestamp) -> Vec<&R> {
        self.time_ordered(scope, |r| from <= r.time() && r.time() < to)
    }

    /// `scope`'s rows of object `o`, time-ordered. Distinct runs reuse the
    /// same dense object-id space, so [`RunScope::All`] interleaves
    /// unrelated runs' objects; [`RunScope::One`] is the per-tenant view.
    pub fn of_object(&self, scope: RunScope, o: ObjectId) -> Vec<&R> {
        self.time_ordered(scope, |r| r.object() == Some(o))
    }

    /// `scope`'s rows through device `d`, time-ordered.
    pub fn of_device(&self, scope: RunScope, d: DeviceId) -> Vec<&R> {
        self.time_ordered(scope, |r| r.device() == Some(d))
    }

    /// Latest row at or before `t` for every object of `scope` (the bound
    /// is **inclusive**: a row stamped exactly `t` is eligible): the
    /// snapshot the demo GUI extracts when generation is paused (paper §5
    /// step 4). Output is sorted by object id; among an object's rows
    /// sharing the latest timestamp the last-arrived row wins.
    pub fn snapshot_at(&self, scope: RunScope, t: Timestamp) -> Vec<&R> {
        // Newest arrival first, so the stable sort puts each object's
        // winner (latest time, then last arrived) at the head of its group.
        let mut rows: Vec<&R> = self.select(scope).rev().filter(|r| r.time() <= t).collect();
        rows.sort_by_key(|r| (r.object(), Reverse(r.time())));
        rows.dedup_by_key(|r| r.object());
        rows
    }

    /// Spatial range query: `scope`'s point rows on `floor` inside `query`
    /// (any time), in insertion order.
    pub fn range_query(&self, scope: RunScope, floor: FloorId, query: &Aabb) -> Vec<&R> {
        self.select(scope)
            .filter(|r| {
                matches!(r.floor_point(), Some((f, p)) if f == floor && query.contains_point(p))
            })
            .collect()
    }

    /// `scope`'s k point rows nearest to `p` on `floor` (any time), with
    /// their distances, nearest first; equal distances keep arrival order.
    pub fn knn(&self, scope: RunScope, floor: FloorId, p: Point, k: usize) -> Vec<(&R, f64)> {
        let mut scored: Vec<(&R, f64)> = self
            .select(scope)
            .filter_map(|r| match r.floor_point() {
                Some((f, q)) if f == floor => Some((r, q.dist(p))),
                _ => None,
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(k);
        scored
    }
}

impl TrajectoryTable {
    /// `scope`'s trace of object `o`, time-ordered: [`Table::of_object`]
    /// under its trajectory name.
    pub fn object_trace(&self, scope: RunScope, o: ObjectId) -> Vec<&TrajectorySample> {
        self.of_object(scope, o)
    }
}

impl ProximityTable {
    /// `scope`'s records whose **closed** detection period `[ts, te]`
    /// intersects the **half-open** query window `[from, to)` — i.e.
    /// `ts < to && te >= from`, in insertion order.
    ///
    /// The window contract matches `time_window`: a detection ending
    /// exactly at `from` is included (the instant `from` lies in the
    /// window), one starting exactly at `to` is not. Adjacent windows
    /// therefore agree with point-event queries at their shared boundary.
    pub fn overlapping(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&ProximityRecord> {
        self.select(scope)
            .filter(|r| r.ts < to && r.te >= from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vita_indoor::BuildingId;

    fn ts(o: u32, f: u32, x: f64, y: f64, t: u64) -> TrajectorySample {
        TrajectorySample::new(
            ObjectId(o),
            BuildingId(0),
            FloorId(f),
            Point::new(x, y),
            Timestamp(t),
        )
    }

    #[test]
    fn trajectory_time_window_uses_index() {
        let mut t = TrajectoryTable::new();
        for i in 0..100u64 {
            t.insert(ts(0, 0, i as f64, 0.0, i * 100));
        }
        let w = t.time_window(RunScope::All, Timestamp(1000), Timestamp(2000));
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|s| s.t.0 >= 1000 && s.t.0 < 2000));
    }

    #[test]
    fn object_trace_is_time_ordered() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(1, 0, 2.0, 0.0, 200));
        t.insert(ts(0, 0, 0.0, 0.0, 0));
        t.insert(ts(1, 0, 1.0, 0.0, 100));
        let trace = t.object_trace(RunScope::All, ObjectId(1));
        assert_eq!(trace.len(), 2);
        assert!(trace[0].t < trace[1].t);
        assert!(t.object_trace(RunScope::All, ObjectId(9)).is_empty());
    }

    #[test]
    fn snapshot_picks_latest_per_object() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 0.0, 0.0, 0));
        t.insert(ts(0, 0, 5.0, 0.0, 500));
        t.insert(ts(1, 0, 9.0, 0.0, 300));
        t.insert(ts(0, 0, 9.0, 0.0, 900)); // after snapshot time
        let snap = t.snapshot_at(RunScope::All, Timestamp(600));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].object, ObjectId(0));
        assert!((snap[0].point().x - 5.0).abs() < 1e-9);
        assert!((snap[1].point().x - 9.0).abs() < 1e-9);
        // Among rows sharing the latest time, the last-arrived wins.
        t.insert(ts(1, 0, 4.0, 0.0, 300));
        let snap = t.snapshot_at(RunScope::All, Timestamp(600));
        assert!((snap[1].point().x - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spatial_range_query() {
        let mut t = TrajectoryTable::new();
        for i in 0..10 {
            t.insert(ts(i, 0, i as f64 * 2.0, 1.0, 0));
        }
        t.insert(ts(99, 1, 5.0, 1.0, 0)); // other floor
        let hits = t.range_query(
            RunScope::All,
            FloorId(0),
            &Aabb::new(Point::new(3.0, 0.0), Point::new(9.0, 2.0)),
        );
        assert_eq!(hits.len(), 3); // x = 4, 6, 8
        let none = t.range_query(
            RunScope::All,
            FloorId(3),
            &Aabb::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn knn_returns_sorted_neighbours() {
        let mut t = TrajectoryTable::new();
        for i in 0..20 {
            t.insert(ts(i, 0, i as f64, 0.0, 0));
        }
        let got = t.knn(RunScope::All, FloorId(0), Point::new(7.2, 0.0), 3);
        assert_eq!(got.len(), 3);
        let xs: Vec<f64> = got.iter().map(|(s, _)| s.point().x).collect();
        assert_eq!(xs, vec![7.0, 8.0, 6.0]);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        // Equal distances keep arrival order: x = 7 arrived before x = 8.
        let tie = t.knn(RunScope::All, FloorId(0), Point::new(7.5, 0.0), 2);
        let xs: Vec<f64> = tie.iter().map(|(s, _)| s.point().x).collect();
        assert_eq!(xs, vec![7.0, 8.0]);
        // A row appended after a query is seen by the next one; a floor
        // with no point rows has no neighbours.
        t.insert(ts(99, 0, 7.2, 0.0, 0));
        let got = t.knn(RunScope::All, FloorId(0), Point::new(7.2, 0.0), 1);
        assert_eq!(got[0].0.object, ObjectId(99));
        assert!(t
            .knn(RunScope::All, FloorId(9), Point::new(0.0, 0.0), 3)
            .is_empty());
    }

    #[test]
    fn spatial_queries_work_on_shared_reference() {
        // range_query and knn are callable through &TrajectoryTable (a
        // repository read lock).
        let mut t = TrajectoryTable::new();
        for i in 0..10 {
            t.insert(ts(i, 0, i as f64, 0.0, 0));
        }
        let shared: &TrajectoryTable = &t;
        let hits = shared.range_query(
            RunScope::All,
            FloorId(0),
            &Aabb::new(Point::new(-0.5, -0.5), Point::new(3.5, 0.5)),
        );
        assert_eq!(hits.len(), 4);
        let near = shared.knn(RunScope::All, FloorId(0), Point::new(2.2, 0.0), 2);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0].0.object, ObjectId(2));
        // A clone answers the same.
        let cloned = t.clone();
        assert_eq!(
            cloned
                .knn(RunScope::All, FloorId(0), Point::new(2.2, 0.0), 2)
                .len(),
            near.len()
        );
    }

    #[test]
    fn time_window_boundaries_are_half_open() {
        // `from` is included, `to` is excluded — on every table, so window
        // edges agree across products and backends.
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 0.0, 0.0, 100));
        t.insert(ts(0, 0, 1.0, 0.0, 200));
        let w = t.time_window(RunScope::All, Timestamp(100), Timestamp(200));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].t, Timestamp(100));

        let mut r = RssiTable::new();
        for tstamp in [100u64, 200] {
            r.insert(RssiMeasurement {
                object: ObjectId(0),
                device: DeviceId(0),
                rssi: -50.0,
                t: Timestamp(tstamp),
            });
        }
        assert_eq!(
            r.time_window(RunScope::All, Timestamp(100), Timestamp(200))
                .len(),
            1
        );

        use vita_indoor::Loc;
        let mut f = FixTable::new();
        for tstamp in [100u64, 200] {
            f.insert(Fix {
                object: ObjectId(0),
                loc: Loc::point(BuildingId(0), FloorId(0), Point::new(0.0, 0.0)),
                t: Timestamp(tstamp),
            });
        }
        assert_eq!(
            f.time_window(RunScope::All, Timestamp(100), Timestamp(200))
                .len(),
            1
        );
    }

    #[test]
    fn snapshot_at_bound_is_inclusive() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 1.0, 0.0, 500));
        let snap = t.snapshot_at(RunScope::All, Timestamp(500));
        assert_eq!(snap.len(), 1);
        assert!(t.snapshot_at(RunScope::All, Timestamp(499)).is_empty());
    }

    #[test]
    fn overlapping_boundaries_match_half_open_window() {
        let mut t = ProximityTable::new();
        t.insert(ProximityRecord {
            object: ObjectId(0),
            device: DeviceId(0),
            ts: Timestamp(100),
            te: Timestamp(300),
        });
        // Detection ending exactly at `from`: instant 300 is in [300, 400).
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(300), Timestamp(400))
                .len(),
            1
        );
        // Detection starting exactly at `to`: instant 100 is not in [0, 100).
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(0), Timestamp(100))
                .len(),
            0
        );
    }

    #[test]
    fn append_batch_matches_per_row_insert() {
        // Same rows via the bulk and per-row paths — queries must agree,
        // including order among duplicate timestamps.
        let rows: Vec<TrajectorySample> = (0..200)
            .map(|i| ts(i % 7, 0, i as f64, 0.0, (i % 40) as u64 * 50))
            .collect();
        let mut bulk = TrajectoryTable::new();
        bulk.append_batch_run(RunId::DEFAULT, rows.clone());
        // A second batch lands behind rows already stored.
        let extra: Vec<TrajectorySample> =
            (0..60).map(|i| ts(i % 5, 0, i as f64, 1.0, 975)).collect();
        bulk.append_batch_run(RunId::DEFAULT, extra.clone());

        let mut single = TrajectoryTable::new();
        for s in rows.iter().chain(&extra) {
            single.insert(*s);
        }
        assert_eq!(bulk.len(), single.len());
        let wa = bulk.time_window(RunScope::All, Timestamp(0), Timestamp(2001));
        let wb = single.time_window(RunScope::All, Timestamp(0), Timestamp(2001));
        assert_eq!(wa.len(), wb.len());
        for (a, b) in wa.iter().zip(&wb) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.object, b.object);
            assert!((a.point().x - b.point().x).abs() < 1e-12);
        }
        for o in 0..7 {
            assert_eq!(
                bulk.object_trace(RunScope::All, ObjectId(o)).len(),
                single.object_trace(RunScope::All, ObjectId(o)).len()
            );
        }
        let sa = bulk.snapshot_at(RunScope::All, Timestamp(980));
        let sb = single.snapshot_at(RunScope::All, Timestamp(980));
        assert_eq!(sa.len(), sb.len());
        for (a, b) in sa.iter().zip(&sb) {
            assert!((a.point().x - b.point().x).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut t = TrajectoryTable::new();
        t.append_batch_run(RunId::DEFAULT, Vec::new());
        assert!(t.is_empty());
        let mut r = RssiTable::new();
        r.append_batch_run(RunId::DEFAULT, Vec::new());
        assert!(r.is_empty());
    }

    #[test]
    fn rssi_table_indexes() {
        let mut t = RssiTable::new();
        for i in 0..10u64 {
            t.insert(RssiMeasurement {
                object: ObjectId((i % 2) as u32),
                device: DeviceId((i % 3) as u32),
                rssi: -40.0 - i as f64,
                t: Timestamp(i * 10),
            });
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.of_object(RunScope::All, ObjectId(0)).len(), 5);
        assert_eq!(t.of_device(RunScope::All, DeviceId(0)).len(), 4);
        assert_eq!(
            t.time_window(RunScope::All, Timestamp(0), Timestamp(50))
                .len(),
            5
        );
        // Per-object rows are time ordered.
        let rows = t.of_object(RunScope::All, ObjectId(1));
        assert!(rows.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn fix_table_roundtrip() {
        use vita_indoor::Loc;
        let mut t = FixTable::new();
        t.insert(Fix {
            object: ObjectId(0),
            loc: Loc::point(BuildingId(0), FloorId(0), Point::new(1.0, 2.0)),
            t: Timestamp(100),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.of_object(RunScope::All, ObjectId(0)).len(), 1);
        assert_eq!(
            t.time_window(RunScope::All, Timestamp(0), Timestamp(200))
                .len(),
            1
        );
        assert_eq!(
            t.time_window(RunScope::All, Timestamp(200), Timestamp(300))
                .len(),
            0
        );
    }

    #[test]
    fn proximity_overlap_query() {
        let mut t = ProximityTable::new();
        t.insert(ProximityRecord {
            object: ObjectId(0),
            device: DeviceId(0),
            ts: Timestamp(100),
            te: Timestamp(500),
        });
        t.insert(ProximityRecord {
            object: ObjectId(1),
            device: DeviceId(1),
            ts: Timestamp(800),
            te: Timestamp(900),
        });
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(0), Timestamp(600))
                .len(),
            1
        );
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(450), Timestamp(850))
                .len(),
            2
        );
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(901), Timestamp(1000))
                .len(),
            0
        );
        assert_eq!(t.of_device(RunScope::All, DeviceId(1)).len(), 1);
        assert_eq!(t.of_object(RunScope::All, ObjectId(0)).len(), 1);
    }
}
