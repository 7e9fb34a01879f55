//! `serve` and `out-of-core`: a corpus preloaded into the segmented
//! backend and brought to its maintenance fixed point, then queried by one
//! closed-loop client. `out-of-core` spills all but a quarter of the
//! corpus and alternates small ingests with the query batches.

use vita_core::{RunScope, ScenarioConfig, StorageBackend, Vita};
use vita_storage::{RunId, SegmentStats, SegmentedRepository, SpillConfig};

use vita_dbi::DbiModel;

use super::{check_answers, query_batch, quiesce, record_ingest, round_trip, warm_up, Env, MIX};
use crate::check::{self, Digest};
use crate::pipeline;
use crate::queries;
use crate::report::{median, Rng};
use crate::world::{self, scenarios};
use crate::Pass;

/// Batch numbers of the corpus and of the out-of-core ingests, apart so
/// that no two batches share scenario seeds.
const CORPUS_BATCH: u64 = 1 << 20;
const INGEST_BATCH: u64 = 2 << 20;

pub(super) fn run(env: &mut Env, pass: &mut Pass, spill: bool) -> Result<(), String> {
    let (opts, scale) = (env.opts, env.opts.scale);
    let backend = if spill {
        let mut cfg = SpillConfig::new(env.scratch.path("spill"));
        cfg.memory_budget_rows = scale.spill_budget_rows;
        StorageBackend::Segmented { spill: Some(cfg) }
    } else {
        StorageBackend::segmented()
    };
    let text = world::office_text();
    let corpus = scenarios(
        opts.seed,
        CORPUS_BATCH,
        scale.corpus_scenarios,
        scale.corpus_shape,
        &backend,
    );

    // Set-up: load, build, deploy, generate the corpus and reach the
    // maintenance fixed point. It runs `corpus_reps` times and the median
    // is reported. The first toolkit is the one measured; the other
    // repetitions run after the measured part, so that the memory the
    // allocator keeps from them does not count in its peak.
    let mut quiesce_s = Vec::new();
    let (mut vita, model, fixed) = set_up(env, pass, &text, &backend, &corpus, &mut quiesce_s)?;
    pass.storage.sealed_segments = fixed.sealed_segments;
    pass.stored_rows = vita.repository().counts(RunScope::All).total() as u64;
    let fresh = || world::fresh_toolkit(&model, backend.clone());

    // The oracle's data: the corpus's export. The oracle itself, a
    // single-backend toolkit that loads it and ingests every out-of-core
    // cycle, is built only once the measured part is over, so that it adds
    // nothing to the peak memory measured.
    let oracle_dir = env.scratch.path("oracle");
    vita.save_to(&oracle_dir)
        .map_err(|e| format!("oracle export failed: {e}"))?;
    let mut want = check::digest(vita.repository());

    // Query batches — after an ingest cycle each on out-of-core — with a
    // save/load round trip after every second one, so that the batches and
    // the round trips both sample the whole run rather than a stretch of it.
    let mut rng = Rng::derive(opts.seed, 0x5E7);
    let (batches, per_batch) = if spill {
        (scale.ooc_cycles, scale.ooc_queries)
    } else {
        (scale.serve_batches, scale.serve_batch_queries)
    };
    let stream = queries::stream(vita.repository(), &MIX, &mut rng, per_batch * batches);
    warm_up(&vita.serve(), &stream);
    let mut answers = Vec::new();
    let start = segmented(&vita)?.stats();
    for (cycle, batch) in stream.chunks(per_batch.max(1)).enumerate() {
        let op = cycle as u32 + 1;
        if spill {
            ingest_cycle(env, pass, &mut vita, &mut want, cycle as u64, op)?;
        }
        let before = segmented(&vita)?.stats();
        answers.push(query_batch(env, pass, &vita.serve(), batch, op));
        let after = segmented(&vita)?.stats();
        pass.storage.page_ins += after.page_ins - before.page_ins;
        pass.storage.resident_rows_max = pass.storage.resident_rows_max.max(after.resident_rows);
        if cycle % 2 == 1 {
            let result = round_trip(env, pass, &vita, &fresh, &want, op);
            pass.op(result.map(drop));
        }
    }
    let end = segmented(&vita)?.stats();
    account_maintenance(pass, &start, &end);
    pass.peak_rss_mib = world::peak_rss_mib();
    drop(vita);
    for _ in 1..scale.corpus_reps {
        set_up(env, pass, &text, &backend, &corpus, &mut quiesce_s)?;
    }
    pass.storage.quiesce_s = median(&quiesce_s);

    // The checks: each batch's kept answers against the oracle holding the
    // same data as the repository did when the batch ran.
    let mut oracle = world::fresh_toolkit(&model, StorageBackend::Single)?;
    let loaded = oracle.load_from(&oracle_dir);
    let _ = std::fs::remove_dir_all(&oracle_dir);
    loaded.map_err(|e| format!("oracle import failed: {e}"))?;
    for (cycle, (batch, kept)) in stream.chunks(per_batch.max(1)).zip(&answers).enumerate() {
        if spill {
            let single = ingest_scenarios(env, cycle as u64, &StorageBackend::Single);
            oracle
                .run_many(&single)
                .map_err(|e| format!("oracle ingest failed: {e}"))?;
        }
        check_answers(env, pass, &oracle.serve(), batch, kept);
    }
    pass.fix_errors.add(oracle.repository());
    Ok(())
}

/// One set-up repetition: the toolkit, the corpus and the maintenance fixed
/// point.
fn set_up(
    env: &Env,
    pass: &mut Pass,
    text: &str,
    backend: &StorageBackend,
    corpus: &[ScenarioConfig],
    quiesce_s: &mut Vec<f64>,
) -> Result<(Vita, DbiModel, SegmentStats), String> {
    let (mut vita, model, times) = world::set_up(text, backend.clone(), env.tracer)?;
    let ingest = pipeline::ingest(&mut vita, corpus, env.tracer, 0)?;
    let counted = record_ingest(pass, &ingest, vita.repository());
    pass.op(counted);
    let (fixed, secs) = quiesce(env, segmented(&vita)?, 0)?;
    pass.setup_s.push(times.total() + ingest.wall_s + secs);
    pass.setup_layers.push(times);
    quiesce_s.push(secs);
    Ok((vita, model, fixed))
}

/// The single scenario of out-of-core ingest cycle `cycle`.
fn ingest_scenarios(env: &Env, cycle: u64, backend: &StorageBackend) -> Vec<ScenarioConfig> {
    let (seed, shape) = (env.opts.seed, env.opts.scale.ooc_ingest);
    scenarios(seed, INGEST_BATCH + cycle, 1, shape, backend)
}

/// One out-of-core ingest: a single small scenario through `run_many`,
/// then the maintenance fixed point. The new runs' digests join `want`.
fn ingest_cycle(
    env: &mut Env,
    pass: &mut Pass,
    vita: &mut Vita,
    want: &mut Digest,
    cycle: u64,
    op: u32,
) -> Result<(), String> {
    let backend = vita.repository().backend();
    let batch = ingest_scenarios(env, cycle, &backend);
    let stalls = segmented(vita)?.stats().writer_stalls;
    let result = pipeline::ingest(vita, &batch, env.tracer, op).and_then(|ingest| {
        record_ingest(pass, &ingest, vita.repository())?;
        let runs: Vec<RunId> = ingest.runs.iter().map(|r| r.run).collect();
        want.extend(check::digest_runs(vita.repository(), &runs));
        Ok(())
    });
    pass.storage.writer_stalls += segmented(vita)?.stats().writer_stalls - stalls;
    pass.op(result);
    let (fixed, _) = quiesce(env, segmented(vita)?, op)?;
    pass.storage.resident_rows_max = pass.storage.resident_rows_max.max(fixed.resident_rows);
    pass.stored_rows = vita.repository().counts(RunScope::All).total() as u64;
    Ok(())
}

/// Storage counters over the measured part of the run.
fn account_maintenance(pass: &mut Pass, start: &SegmentStats, end: &SegmentStats) {
    pass.storage.spills = end.spills - start.spills;
    pass.storage.seals = end.seals - start.seals;
    pass.storage.compactions = end.compactions - start.compactions;
    pass.storage.spilled_rows = end.spilled_rows;
}

fn segmented(vita: &Vita) -> Result<&SegmentedRepository, String> {
    vita.repository()
        .as_segmented()
        .ok_or_else(|| "the corpus is not in the segmented backend".to_string())
}
