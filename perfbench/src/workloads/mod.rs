//! The two workloads and the steps they share: count checks, the
//! maintenance fixed point, save/load round trips and closed-loop query
//! batches checked against an oracle.

mod corpus;

use std::path::Path;
use std::sync::Arc;

use vita_core::{RunScope, Vita};
use vita_geometry::Point;
use vita_indoor::{FloorId, Timestamp};
use vita_serve::{QueryRequest, QueryService};
use vita_storage::{AnyRepository, RepositoryExport, SegmentStats, SegmentedRepository};

use crate::check::{self, Digest, Fingerprint};
use crate::pipeline::Ingest;
use crate::queries::{kind_index, Mix, Query, KINDS};
use crate::trace::Tracer;
use crate::world::{timed, Scratch};
use crate::{Options, Pass, Workload};

/// The query mix of every workload: the serving mix of the repository's
/// own read experiments E15 and E16 (`crates/bench/src/bin/experiments.rs`).
/// Those take `vita_serve::WorkloadSpec::default()` — weights 1:2:2:2:2:1
/// in `counts, snapshot, window, trace, range, knn` order, range boxes a
/// quarter of its 40 m extent wide, k = 8 — with 2 s windows and scopes
/// drawn from every run, run 0 and run 1 alike, so one request in three
/// spans every run. Only the parameters differ: they are drawn from the
/// corpus, where the spec draws centres from [-40, 40]² m, which mostly
/// misses the office.
const MIX: Mix = Mix {
    weights: [1, 2, 2, 2, 2, 1],
    scopes: [1, 2],
    window_ms: 2_000,
    range_side_m: 10.0,
    k: 8,
};

/// Span names of the six query kinds, in [`KINDS`] order.
const QUERY_SPANS: [&str; 6] = [
    "serve.counts",
    "serve.snapshot",
    "serve.window",
    "serve.trace",
    "serve.range",
    "serve.knn",
];

pub(crate) fn run(
    opts: &Options,
    scratch: &Scratch,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut env = Env {
        opts,
        scratch,
        tracer,
        wrong_oracle: opts.wrong_oracle,
        saves: 0,
    };
    match opts.workload {
        Workload::Serve => corpus::run(&mut env, &mut pass, false)?,
        Workload::OutOfCore => corpus::run(&mut env, &mut pass, true)?,
    }
    Ok(pass)
}

/// What every step of a pass needs.
struct Env<'a> {
    opts: &'a Options,
    scratch: &'a Scratch,
    tracer: Option<&'a Tracer>,
    /// Still to corrupt the next oracle answer (self-check only).
    wrong_oracle: bool,
    /// Save directories used so far.
    saves: usize,
}

/// Record an ingest and check each run's stored row counts against what
/// the pipeline reported for it.
fn record_ingest(pass: &mut Pass, ingest: &Ingest, repo: &AnyRepository) -> Result<(), String> {
    let rows: usize = ingest.runs.iter().map(|r| r.total()).sum();
    pass.gen_rows += rows as u64;
    pass.gen_wall_s += ingest.wall_s;
    for r in &ingest.runs {
        let c = repo.counts(r.run.into());
        if (c.trajectories, c.rssi, c.fixes + c.proximity) != (r.samples, r.rssi, r.positioning) {
            return Err(format!(
                "run {:?} stored {c:?}, its pipeline reported {} samples, {} rssi, {} positioning rows",
                r.run, r.samples, r.rssi, r.positioning
            ));
        }
    }
    Ok(())
}

/// Run forced maintenance until the segment inventory and counters stop
/// changing; returns the stats at that fixed point and the time it took.
fn quiesce(env: &Env, repo: &SegmentedRepository, op: u32) -> Result<(SegmentStats, f64), String> {
    let (stats, secs) = timed(env.tracer, "storage.quiesce", 0, op, |_| {
        let mut last = repo.stats();
        for _ in 0..64 {
            repo.seal_now();
            let now = repo.stats();
            if now == last {
                return Ok(now);
            }
            last = now;
        }
        Err("no maintenance fixed point after 64 forced passes".to_string())
    });
    Ok((stats?, secs))
}

/// Save `repo` into a fresh directory and load it back into `backend`,
/// timing both, then check that the loaded row sets equal `want`.
/// Untraced it goes through `Vita::save_to` / `load_from`; traced it calls
/// the four storage functions those two are made of, each in its span.
fn round_trip(
    env: &mut Env,
    pass: &mut Pass,
    vita: &Vita,
    fresh: &dyn Fn() -> Result<Vita, String>,
    want: &Digest,
    op: u32,
) -> Result<Arc<AnyRepository>, String> {
    env.saves += 1;
    let dir = env.scratch.path(&format!("save-{}", env.saves));
    let result = save_and_load(env, pass, vita, fresh, &dir, op);
    let _ = std::fs::remove_dir_all(&dir);
    let loaded = result?;
    if check::digest(&loaded) != *want {
        return Err("loaded row sets differ from the saved ones".into());
    }
    Ok(loaded)
}

fn save_and_load(
    env: &Env,
    pass: &mut Pass,
    vita: &Vita,
    fresh: &dyn Fn() -> Result<Vita, String>,
    dir: &Path,
    op: u32,
) -> Result<Arc<AnyRepository>, String> {
    let io = |e: std::io::Error| format!("save/load io: {e}");
    let loaded = match env.tracer {
        None => {
            let (saved, save_s) = timed(None, "", 0, op, |_| vita.save_to(dir));
            saved.map_err(|e| format!("save_to failed: {e}"))?;
            record_files(pass, dir, vita.repository())?;
            let mut restored = fresh()?;
            let (loaded, load_s) = timed(None, "", 0, op, |_| restored.load_from(dir));
            loaded.map_err(|e| format!("load_from failed: {e}"))?;
            pass.save_s.push(save_s);
            pass.load_s.push(load_s);
            restored.repository_handle()
        }
        Some(t) => {
            let repo = vita.repository();
            let (export, export_s) = timed(Some(t), "storage.export", 0, op, |_| repo.export());
            let (written, write_s) = timed(Some(t), "storage.write_dir", 0, op, |_| {
                export.write_dir(dir)
            });
            written.map_err(io)?;
            drop(export);
            record_files(pass, dir, repo)?;
            let (read, read_s) = timed(Some(t), "storage.read_dir", 0, op, |_| {
                RepositoryExport::read_dir(dir)
            });
            let read = read.map_err(io)?;
            let (imported, import_s) = timed(Some(t), "storage.import", 0, op, |_| {
                AnyRepository::import(&read, repo.backend())
            });
            let imported = imported.map_err(|e| format!("import failed: {e:?}"))?;
            pass.save_s.push(export_s + write_s);
            pass.load_s.push(read_s + import_s);
            Arc::new(imported)
        }
    };
    Ok(loaded)
}

/// Add the sizes of the four saved table files and the rows they hold.
fn record_files(pass: &mut Pass, dir: &Path, repo: &AnyRepository) -> Result<(), String> {
    for (i, name) in RepositoryExport::FILE_NAMES.iter().enumerate() {
        let len = std::fs::metadata(dir.join(name))
            .map_err(|e| format!("saved file {name}: {e}"))?
            .len();
        pass.table_bytes[i] += len;
    }
    pass.saved_rows += repo.counts(RunScope::All).total() as u64;
    Ok(())
}

/// Warm lazily built indexes before timing: one request of each kind over
/// every run, with the spatial kinds on each floor the corpus uses.
fn warm_up(service: &QueryService, queries: &[Query]) {
    let mut floors: Vec<FloorId> = queries
        .iter()
        .filter_map(|q| match q.request {
            QueryRequest::RangeQuery { floor, .. } | QueryRequest::Knn { floor, .. } => Some(floor),
            _ => None,
        })
        .collect();
    floors.sort_unstable();
    floors.dedup();
    let scope = RunScope::All;
    let origin = Point::new(0.0, 0.0);
    let mut warm = vec![
        QueryRequest::Counts { scope },
        QueryRequest::SnapshotAt {
            scope,
            at: Timestamp(0),
        },
    ];
    for floor in floors {
        warm.push(QueryRequest::RangeQuery {
            scope,
            floor,
            bounds: vita_geometry::Aabb::new(origin, Point::new(1.0, 1.0)),
        });
        warm.push(QueryRequest::Knn {
            scope,
            floor,
            at: origin,
            k: 1,
        });
    }
    for q in &warm {
        std::hint::black_box(service.execute(q));
    }
}

/// Issue `queries` from one closed-loop client — each request is sent
/// once the previous answer is back — timing every `execute`. Nothing runs
/// between two requests but the bookkeeping: the marked answers are only
/// kept, and reduced to fingerprints once the batch is done. Returns them
/// with their index in `queries`, for [`check_answers`].
fn query_batch(
    env: &Env,
    pass: &mut Pass,
    service: &QueryService,
    queries: &[Query],
    op: u32,
) -> Vec<(usize, Fingerprint)> {
    let mut kept = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let kind = kind_index(&q.request);
        let (answer, secs) = timed(env.tracer, QUERY_SPANS[kind], 0, op, |_| {
            service.execute(&q.request)
        });
        let us = secs * 1e6;
        pass.query_s += secs;
        pass.latencies_us.push(us);
        pass.kind_us[kind].push(us);
        pass.kind_rows[kind] += answer.len() as u64;
        if q.check {
            kept.push((i, answer));
        }
    }
    pass.attempted += queries.len() as u64;
    kept.into_iter()
        .map(|(i, answer)| (i, check::fingerprint(&queries[i].request, &answer)))
        .collect()
}

/// Compare the answers [`query_batch`] kept with `oracle`'s answers to the
/// same requests, on the same data; each disagreement fails its query.
fn check_answers(
    env: &mut Env,
    pass: &mut Pass,
    oracle: &QueryService,
    queries: &[Query],
    answers: &[(usize, Fingerprint)],
) {
    for (i, got) in answers {
        let request = &queries[*i].request;
        let corrupt = std::mem::take(&mut env.wrong_oracle);
        if !check::agrees(request, got, oracle, corrupt) {
            pass.fail(format!(
                "{} answer differs from the oracle for {request:?}",
                KINDS[kind_index(request)]
            ));
        }
    }
}
