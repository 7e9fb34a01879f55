//! Output checks: order-independent digests of stored row sets, query
//! answers compared with an oracle's, and the positioning error of stored
//! fixes.

use std::collections::BTreeMap;

use bytes::BytesMut;
use vita_indoor::{ObjectId, Timestamp};
use vita_mobility::{Trajectory, TrajectorySample, TrajectoryStore};
use vita_positioning::ErrorStats;
use vita_serve::{QueryRequest, QueryResponse, QueryService};
use vita_storage::{AnyRepository, RunId, RunScope, TableCounts, WireRecord};

use crate::report::mix;

/// Per run and table (0 trajectories, 1 RSSI, 2 fixes, 3 proximity): row
/// count and the wrapping sum of per-row hashes, which ignores row order.
pub type Digest = BTreeMap<(RunId, u8), (u64, u64)>;

pub fn digest(repo: &AnyRepository) -> Digest {
    digest_runs(repo, &repo.run_ids())
}

/// [`digest`] of the given runs only.
pub fn digest_runs(repo: &AnyRepository, runs: &[RunId]) -> Digest {
    let mut d = Digest::new();
    for &run in runs {
        let scope = run.into();
        d.insert((run, 0), table_digest(&repo.trajectories(scope)));
        d.insert((run, 1), table_digest(&repo.rssi(scope)));
        d.insert((run, 2), table_digest(&repo.fixes(scope)));
        d.insert((run, 3), table_digest(&repo.proximity(scope)));
    }
    d
}

fn table_digest<R: WireRecord>(rows: &[R]) -> (u64, u64) {
    // Encoded a chunk at a time, so the check adds little to peak memory.
    let sum = rows.chunks(4096).fold(0u64, |acc, chunk| {
        encoded(chunk)
            .chunks_exact(R::ROW)
            .fold(acc, |acc, row| acc.wrapping_add(hash_bytes(row)))
    });
    (rows.len() as u64, sum)
}

/// The rows in their wire encoding, back to back.
fn encoded<R: WireRecord>(rows: &[R]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(rows.len() * R::ROW);
    for r in rows {
        r.put_row(&mut buf);
    }
    buf.as_ref().to_vec()
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0x243F_6A88_85A3_08D3, |h, c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        mix(h ^ u64::from_le_bytes(word))
    })
}

/// What the benchmark keeps of a checked answer until it is compared with
/// the oracle's: enough for that comparison, without the rows of large
/// answers. Equal fingerprints mean answers that agree.
///
/// Where the storage contract lets ties resolve by arrival order — which
/// differs between a concurrently ingested repository and one loaded from
/// its export — only the tie-free part is kept. A snapshot over every run
/// keeps the last-arrived of an object's rows sharing its latest timestamp,
/// and object ids repeat across runs, so such a snapshot is kept whole and
/// checked against every row the oracle stores at each (object, time).
/// Within one run an object has one sample per timestamp, so a per-run
/// snapshot is a plain row set. Nearest neighbours may pick different rows
/// at the k-th distance, so they keep the distance list and the rows
/// strictly inside it.
#[derive(Debug, Clone, PartialEq)]
pub enum Fingerprint {
    Counts(TableCounts),
    /// Row count and wrapping sum of per-row hashes: a row-set digest.
    Rows(u64, u64),
    Snapshot(Vec<TrajectorySample>),
    Neighbors(Vec<u64>, (u64, u64)),
}

pub fn fingerprint(request: &QueryRequest, answer: &QueryResponse) -> Fingerprint {
    match answer {
        QueryResponse::Counts(c) => Fingerprint::Counts(*c),
        QueryResponse::Samples(rows) => match request {
            QueryRequest::SnapshotAt {
                scope: RunScope::All,
                ..
            } => {
                let mut rows = rows.clone();
                rows.sort_by_key(|s| (s.object, s.t));
                Fingerprint::Snapshot(rows)
            }
            _ => {
                let (n, sum) = table_digest(rows);
                Fingerprint::Rows(n, sum)
            }
        },
        QueryResponse::Neighbors(rows) => {
            let mut dists: Vec<u64> = rows.iter().map(|(_, d)| d.to_bits()).collect();
            dists.sort_unstable();
            let kth = rows.iter().map(|(_, d)| *d).fold(f64::MIN, f64::max);
            let inside: Vec<TrajectorySample> = rows
                .iter()
                .filter(|(_, d)| *d < kth)
                .map(|(s, _)| *s)
                .collect();
            Fingerprint::Neighbors(dists, table_digest(&inside))
        }
    }
}

/// Whether the answer behind `got` agrees with `oracle`'s answer to
/// `request`; with `corrupt`, the oracle's answer is made wrong first.
pub fn agrees(
    request: &QueryRequest,
    got: &Fingerprint,
    oracle: &QueryService,
    corrupt: bool,
) -> bool {
    let mut want = oracle.execute(request);
    if corrupt {
        want = corrupted(&want);
    }
    let Fingerprint::Snapshot(rows) = got else {
        return *got == fingerprint(request, &want);
    };
    let QueryResponse::Samples(want) = want else {
        return false;
    };
    let keys = |v: &[TrajectorySample]| {
        let mut keys: Vec<(ObjectId, Timestamp)> = v.iter().map(|s| (s.object, s.t)).collect();
        keys.sort_unstable();
        keys
    };
    if keys(rows) != keys(&want) {
        return false;
    }
    let mut times: Vec<Timestamp> = rows.iter().map(|s| s.t).collect();
    times.sort_unstable();
    times.dedup();
    let stored: Vec<TrajectorySample> = times
        .into_iter()
        .flat_map(|t| {
            let at_t = QueryRequest::TimeWindow {
                scope: RunScope::All,
                from: t,
                to: Timestamp(t.0 + 1),
            };
            match oracle.execute(&at_t) {
                QueryResponse::Samples(rows) => rows,
                _ => Vec::new(),
            }
        })
        .collect();
    rows.iter().all(|r| stored.contains(r))
}

/// A deliberately wrong version of `answer`, for the benchmark's
/// self-check: one count off, one row more or less, or an answer of the
/// wrong kind where there is no row to change.
pub fn corrupted(answer: &QueryResponse) -> QueryResponse {
    match answer {
        QueryResponse::Counts(c) => {
            let mut c = *c;
            c.trajectories += 1;
            QueryResponse::Counts(c)
        }
        QueryResponse::Samples(rows) if !rows.is_empty() => {
            let mut rows = rows.clone();
            rows.push(rows[0]);
            QueryResponse::Samples(rows)
        }
        QueryResponse::Neighbors(rows) if !rows.is_empty() => {
            QueryResponse::Neighbors(rows[1..].to_vec())
        }
        _ => QueryResponse::Counts(Default::default()),
    }
}

/// Positioning errors of every stored fix against the stored ground truth
/// of its run.
#[derive(Debug, Default)]
pub struct FixErrors {
    errors: Vec<f64>,
    wrong_floor: usize,
}

impl FixErrors {
    /// Add the errors of every run stored in `repo`.
    pub fn add(&mut self, repo: &AnyRepository) {
        for run in repo.run_ids() {
            let mut by_object: BTreeMap<ObjectId, Vec<TrajectorySample>> = BTreeMap::new();
            for s in repo.trajectories(run.into()) {
                by_object.entry(s.object).or_default().push(s);
            }
            let truth = TrajectoryStore::from_parts(
                by_object
                    .into_iter()
                    .map(|(o, samples)| (o, Trajectory::new(samples)))
                    .collect(),
            );
            for fix in repo.fixes(run.into()) {
                let Some((floor, p)) = truth.get(fix.object).and_then(|t| t.position_at(fix.t))
                else {
                    continue;
                };
                let Some(est) = fix.loc.as_point() else {
                    continue;
                };
                if fix.loc.floor == floor {
                    self.errors.push(est.dist(p));
                } else {
                    self.wrong_floor += 1;
                }
            }
        }
    }

    /// The median error in metres, as `vita_positioning` summarises it.
    pub fn median_m(&self) -> f64 {
        ErrorStats::from_errors(self.errors.clone(), self.wrong_floor).median
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vita_geometry::Point;
    use vita_indoor::{BuildingId, FloorId};
    use vita_storage::{ProductBatch, ProductSink};

    use super::*;

    fn sample(object: u32, floor: u32, x: f64, t: u64) -> TrajectorySample {
        TrajectorySample::new(
            ObjectId(object),
            BuildingId(0),
            FloorId(floor),
            Point::new(x, 0.0),
            Timestamp(t),
        )
    }

    /// Object 1 has a sample at t = 10 in each of two runs: a tie across
    /// runs, which a snapshot over every run may resolve either way.
    fn oracle() -> QueryService {
        let repo = Arc::new(AnyRepository::default());
        let rows = |x| ProductBatch::Trajectories(vec![sample(1, 0, x, 5), sample(1, 0, x, 10)]);
        repo.accept_run(RunId(0), rows(1.0));
        repo.accept_run(RunId(1), rows(2.0));
        QueryService::new(repo)
    }

    fn snapshot(scope: RunScope) -> QueryRequest {
        QueryRequest::SnapshotAt {
            scope,
            at: Timestamp(12),
        }
    }

    fn agrees_with(request: &QueryRequest, rows: Vec<TrajectorySample>) -> bool {
        let got = fingerprint(request, &QueryResponse::Samples(rows));
        agrees(request, &got, &oracle(), false)
    }

    #[test]
    fn a_snapshot_over_every_run_accepts_either_tied_row_and_no_other() {
        let all = snapshot(RunScope::All);
        assert!(agrees_with(&all, vec![sample(1, 0, 1.0, 10)]));
        assert!(agrees_with(&all, vec![sample(1, 0, 2.0, 10)]));
        assert!(!agrees_with(&all, vec![sample(1, 0, 3.0, 10)]), "position");
        assert!(!agrees_with(&all, vec![sample(1, 1, 1.0, 10)]), "floor");
        assert!(!agrees_with(&all, vec![sample(1, 0, 1.0, 5)]), "time");
    }

    #[test]
    fn a_per_run_snapshot_is_compared_row_for_row() {
        let one = snapshot(RunId(1).into());
        assert!(agrees_with(&one, vec![sample(1, 0, 2.0, 10)]));
        assert!(!agrees_with(&one, vec![sample(1, 0, 1.0, 10)]));
    }
}
