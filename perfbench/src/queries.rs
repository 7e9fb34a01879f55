//! The seeded query stream. Every parameter — run, object, floor, point,
//! time — is drawn from rows the corpus actually holds, so range boxes and
//! nearest-neighbour points fall inside the building and time windows
//! inside the generated period.

use vita_geometry::{Aabb, Point};
use vita_indoor::{FloorId, ObjectId, Timestamp};
use vita_serve::QueryRequest;
use vita_storage::{AnyRepository, RunId, RunScope};

use crate::report::Rng;

/// The six request kinds, in `QueryRequest` order.
pub const KINDS: [&str; 6] = ["counts", "snapshot", "window", "trace", "range", "knn"];

pub fn kind_index(q: &QueryRequest) -> usize {
    match q {
        QueryRequest::Counts { .. } => 0,
        QueryRequest::SnapshotAt { .. } => 1,
        QueryRequest::TimeWindow { .. } => 2,
        QueryRequest::ObjectTrace { .. } => 3,
        QueryRequest::RangeQuery { .. } => 4,
        QueryRequest::Knn { .. } => 5,
    }
}

/// A stored trajectory sample queries are built around.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    run: RunId,
    object: ObjectId,
    floor: FloorId,
    at: Point,
    t: Timestamp,
}

/// Shape of the query mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Relative weight of each kind, in [`KINDS`] order.
    pub weights: [u32; 6],
    /// Relative weight of the two scopes: every run, and the anchor's run.
    pub scopes: [u32; 2],
    /// Time-window length, milliseconds.
    pub window_ms: u64,
    /// Side of the square range box, metres.
    pub range_side_m: f64,
    /// Nearest-neighbour `k`.
    pub k: usize,
}

/// One request of the stream, and whether its answer is compared with the
/// oracle's.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub request: QueryRequest,
    pub check: bool,
}

/// `n` requests drawn from `corpus` with `rng`. The mix is exact, not
/// drawn request by request: the stream is a series of decks, each holding
/// every (kind, scope) pair as often as its weights say, shuffled. So every
/// seed sends the same number of requests of each kind and scope, and only
/// their order and parameters vary. The first request of each kind and a
/// quarter of the rest are marked for checking.
pub fn stream(corpus: &AnyRepository, mix: &Mix, rng: &mut Rng, n: usize) -> Vec<Query> {
    let anchors = anchors(corpus, rng, n.min(4096));
    if anchors.is_empty() {
        return Vec::new();
    }
    let mut deck: Vec<(usize, bool)> = Vec::new();
    for (kind, &w) in mix.weights.iter().enumerate() {
        for (all, &s) in [true, false].iter().zip(&mix.scopes) {
            deck.extend(std::iter::repeat_n((kind, *all), (w * s) as usize));
        }
    }
    let mut seen = [false; 6];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
        for &(kind, all) in deck.iter().take(n - out.len()) {
            let a = anchors[rng.below(anchors.len())];
            let scope = if all { RunScope::All } else { a.run.into() };
            let request = request(kind, scope, &a, mix);
            let check = !std::mem::replace(&mut seen[kind], true) || rng.below(4) == 0;
            out.push(Query { request, check });
        }
    }
    out
}

fn request(kind: usize, scope: RunScope, a: &Anchor, mix: &Mix) -> QueryRequest {
    match kind {
        0 => QueryRequest::Counts { scope },
        1 => QueryRequest::SnapshotAt { scope, at: a.t },
        2 => {
            let from = a.t.0.saturating_sub(mix.window_ms / 2);
            QueryRequest::TimeWindow {
                scope,
                from: Timestamp(from),
                to: Timestamp(from + mix.window_ms),
            }
        }
        3 => QueryRequest::ObjectTrace {
            scope,
            object: a.object,
        },
        4 => {
            let h = mix.range_side_m / 2.0;
            QueryRequest::RangeQuery {
                scope,
                floor: a.floor,
                bounds: Aabb::new(
                    Point::new(a.at.x - h, a.at.y - h),
                    Point::new(a.at.x + h, a.at.y + h),
                ),
            }
        }
        _ => QueryRequest::Knn {
            scope,
            floor: a.floor,
            at: a.at,
            k: mix.k,
        },
    }
}

/// Up to `n` stored samples, drawn evenly across runs and uniformly within
/// each run.
fn anchors(corpus: &AnyRepository, rng: &mut Rng, n: usize) -> Vec<Anchor> {
    let runs = corpus.run_ids();
    let per_run = n.div_ceil(runs.len().max(1)).max(1);
    let mut out = Vec::with_capacity(n);
    for run in runs {
        let rows = corpus.trajectories(run.into());
        if rows.is_empty() {
            continue;
        }
        for _ in 0..per_run {
            let s = rows[rng.below(rows.len())];
            out.push(Anchor {
                run,
                object: s.object,
                floor: s.floor(),
                at: s.point(),
                t: s.t,
            });
        }
    }
    out
}
