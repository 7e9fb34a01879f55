//! The typed query surface: [`QueryRequest`] → [`QueryService::execute`] →
//! [`QueryResponse`].

use std::sync::Arc;

use vita_geometry::{Aabb, Point};
use vita_indoor::{FloorId, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{AnyRepository, RunScope, TableCounts};

/// One question for the repository, every variant scoped by a
/// [`RunScope`] — `All` merges every stored run, `One(run)` isolates a
/// single run's rows (e.g. one lane of a `run_many` schedule).
///
/// Each variant maps 1:1 onto a query path of
/// [`vita_storage::AnyRepository`]; [`QueryService::execute`] performs the
/// dispatch. Requests are plain data — build them anywhere (a workload
/// generator, a test, a future wire protocol) and hand them to any clone
/// of the service.
///
/// # Examples
///
/// ```
/// use vita_indoor::{RunId, Timestamp};
/// use vita_serve::QueryRequest;
/// use vita_storage::RunScope;
///
/// // The snapshot of every run's objects at t=5s…
/// let all = QueryRequest::SnapshotAt { scope: RunScope::All, at: Timestamp(5_000) };
/// // …and the same question scoped to run 2 only.
/// let one = QueryRequest::SnapshotAt { scope: RunId(2).into(), at: Timestamp(5_000) };
/// assert_ne!(all.scope(), one.scope());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryRequest {
    /// Row counts of all four tables ([`AnyRepository::counts`]).
    Counts { scope: RunScope },
    /// Latest trajectory sample of every object at or before `at`
    /// ([`AnyRepository::snapshot_at`]).
    SnapshotAt { scope: RunScope, at: Timestamp },
    /// Trajectory samples in the half-open window `[from, to)`
    /// ([`AnyRepository::time_window`]).
    TimeWindow {
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    },
    /// One object's full trajectory, time-ordered
    /// ([`AnyRepository::object_trace`]).
    ObjectTrace { scope: RunScope, object: ObjectId },
    /// Trajectory samples inside an axis-aligned box on one floor
    /// ([`AnyRepository::range_query`]).
    RangeQuery {
        scope: RunScope,
        floor: FloorId,
        bounds: Aabb,
    },
    /// The `k` samples nearest to `at` on one floor, with distances
    /// ([`AnyRepository::knn`]).
    Knn {
        scope: RunScope,
        floor: FloorId,
        at: Point,
        k: usize,
    },
}

impl QueryRequest {
    /// The run scope this request carries, whatever its variant.
    pub fn scope(&self) -> RunScope {
        match *self {
            QueryRequest::Counts { scope }
            | QueryRequest::SnapshotAt { scope, .. }
            | QueryRequest::TimeWindow { scope, .. }
            | QueryRequest::ObjectTrace { scope, .. }
            | QueryRequest::RangeQuery { scope, .. }
            | QueryRequest::Knn { scope, .. } => scope,
        }
    }
}

/// What a [`QueryRequest`] comes back with.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Counts`].
    Counts(TableCounts),
    /// Answer to the row-set queries (`SnapshotAt`, `TimeWindow`,
    /// `ObjectTrace`, `RangeQuery`).
    Samples(Vec<TrajectorySample>),
    /// Answer to [`QueryRequest::Knn`]: nearest samples with their
    /// distances, nearest first.
    Neighbors(Vec<(TrajectorySample, f64)>),
}

impl QueryResponse {
    /// Rows in the response — the row count for `Counts`, the number of
    /// returned samples/neighbors otherwise. Lets load generators account
    /// result sizes without matching on the variant.
    pub fn len(&self) -> usize {
        match self {
            QueryResponse::Counts(c) => c.total(),
            QueryResponse::Samples(rows) => rows.len(),
            QueryResponse::Neighbors(rows) => rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The query front-end: executes [`QueryRequest`]s against a shared
/// repository handle. Cloning is one `Arc` bump, so a worker pool holds
/// one clone per thread while ingestion keeps appending to the same
/// repository — reads take the table read locks or pin a segment
/// snapshot, giving every response a prefix-consistent snapshot of the
/// ingestion stream.
#[derive(Clone)]
pub struct QueryService {
    repo: Arc<AnyRepository>,
}

impl QueryService {
    /// Serve queries from `repo`. Toolkit users get this wired up by
    /// `Vita::serve()`; tests and benchmarks can hand any repository
    /// handle straight in.
    pub fn new(repo: Arc<AnyRepository>) -> Self {
        QueryService { repo }
    }

    /// The repository this service answers from.
    pub fn repository(&self) -> &AnyRepository {
        &self.repo
    }

    /// Answer one request. Every variant maps onto a total repository
    /// query: an empty repository or an unknown run id yields empty rows
    /// or zero counts, never an error.
    ///
    /// # Panics
    ///
    /// On a segmented repository with a spill tier, if a spilled segment
    /// file the query needs cannot be read back — the documented panic of
    /// [`AnyRepository`]'s row-returning queries. `Counts` never reads a
    /// spill file.
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        match *request {
            QueryRequest::Counts { scope } => QueryResponse::Counts(self.repo.counts(scope)),
            QueryRequest::SnapshotAt { scope, at } => {
                QueryResponse::Samples(self.repo.snapshot_at(scope, at))
            }
            QueryRequest::TimeWindow { scope, from, to } => {
                QueryResponse::Samples(self.repo.time_window(scope, from, to))
            }
            QueryRequest::ObjectTrace { scope, object } => {
                QueryResponse::Samples(self.repo.object_trace(scope, object))
            }
            QueryRequest::RangeQuery {
                scope,
                floor,
                ref bounds,
            } => QueryResponse::Samples(self.repo.range_query(scope, floor, bounds)),
            QueryRequest::Knn {
                scope,
                floor,
                at,
                k,
            } => QueryResponse::Neighbors(self.repo.knn(scope, floor, at, k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vita_indoor::{BuildingId, RunId};
    use vita_storage::{ProductBatch, ProductSink};

    fn sample(o: u32, t: u64, x: f64) -> TrajectorySample {
        TrajectorySample::new(
            ObjectId(o),
            BuildingId(0),
            FloorId(0),
            Point::new(x, 0.0),
            Timestamp(t),
        )
    }

    fn service_with_two_runs() -> QueryService {
        let repo = Arc::new(AnyRepository::default());
        repo.accept_run(
            RunId(0),
            ProductBatch::Trajectories(vec![sample(1, 10, 1.0), sample(1, 20, 2.0)]),
        );
        repo.accept_run(
            RunId(1),
            ProductBatch::Trajectories(vec![sample(2, 15, 3.0)]),
        );
        QueryService::new(repo)
    }

    #[test]
    fn every_variant_dispatches_to_the_matching_repository_path() {
        let svc = service_with_two_runs();
        let repo = svc.repository();

        let reqs = [
            QueryRequest::Counts {
                scope: RunScope::All,
            },
            QueryRequest::SnapshotAt {
                scope: RunId(0).into(),
                at: Timestamp(20),
            },
            QueryRequest::TimeWindow {
                scope: RunScope::All,
                from: Timestamp(0),
                to: Timestamp(16),
            },
            QueryRequest::ObjectTrace {
                scope: RunScope::All,
                object: ObjectId(1),
            },
            QueryRequest::RangeQuery {
                scope: RunScope::All,
                floor: FloorId(0),
                bounds: Aabb::new(Point::new(0.0, -1.0), Point::new(2.5, 1.0)),
            },
            QueryRequest::Knn {
                scope: RunId(1).into(),
                floor: FloorId(0),
                at: Point::new(0.0, 0.0),
                k: 2,
            },
        ];
        let want = [
            QueryResponse::Counts(repo.counts(RunScope::All)),
            QueryResponse::Samples(repo.snapshot_at(RunId(0).into(), Timestamp(20))),
            QueryResponse::Samples(repo.time_window(RunScope::All, Timestamp(0), Timestamp(16))),
            QueryResponse::Samples(repo.object_trace(RunScope::All, ObjectId(1))),
            QueryResponse::Samples(repo.range_query(
                RunScope::All,
                FloorId(0),
                &Aabb::new(Point::new(0.0, -1.0), Point::new(2.5, 1.0)),
            )),
            QueryResponse::Neighbors(repo.knn(
                RunId(1).into(),
                FloorId(0),
                Point::new(0.0, 0.0),
                2,
            )),
        ];
        for (req, want) in reqs.iter().zip(want) {
            assert_eq!(svc.execute(req), want, "request {req:?}");
        }
    }

    #[test]
    fn scopes_isolate_runs() {
        let svc = service_with_two_runs();
        let all = svc.execute(&QueryRequest::Counts {
            scope: RunScope::All,
        });
        let run0 = svc.execute(&QueryRequest::Counts {
            scope: RunId(0).into(),
        });
        let run9 = svc.execute(&QueryRequest::Counts {
            scope: RunId(9).into(),
        });
        assert_eq!(all.len(), 3);
        assert_eq!(run0.len(), 2);
        assert_eq!(run9.len(), 0);
    }

    #[test]
    fn clones_answer_from_the_same_repository() {
        let svc = service_with_two_runs();
        let clone = svc.clone();
        svc.repository().accept_run(
            RunId(0),
            ProductBatch::Trajectories(vec![sample(3, 30, 4.0)]),
        );
        let req = QueryRequest::Counts {
            scope: RunScope::All,
        };
        assert_eq!(clone.execute(&req), svc.execute(&req));
        assert_eq!(clone.execute(&req).len(), 4);
    }
}
