//! Ingest through `Vita::run_many`, or — when tracing — through a replica
//! of its schedule built from the layers' public functions, with a span
//! around every call into a layer.
//!
//! `run_many` exposes no hooks, so the traced replica mirrors it: the same
//! run ids and derived seeds, one mobility producer per scenario feeding a
//! bounded chunk channel, and as many stage workers draining it as
//! `run_many` would start. Per-run row sets are therefore the ones
//! `run_many` stores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use vita_core::{derive_run_seed, ScenarioConfig, Vita};
use vita_mobility::{ChunkStreaming, MobilityConfig, TrajectoryChunk};
use vita_positioning::{ChunkPositioner, Fix, PositioningData};
use vita_rssi::{RssiGenerator, RssiStore};
use vita_storage::{ProductBatch, ProductSink, RunId};

use crate::trace::Tracer;

/// Rows one run produced, as its pipeline report counts them.
#[derive(Debug, Clone, Copy)]
pub struct RunRows {
    pub run: RunId,
    pub samples: usize,
    pub rssi: usize,
    pub positioning: usize,
}

impl RunRows {
    pub fn total(&self) -> usize {
        self.samples + self.rssi + self.positioning
    }
}

/// One ingest: per-run row counts and the wall-clock of the schedule.
#[derive(Debug)]
pub struct Ingest {
    pub runs: Vec<RunRows>,
    pub wall_s: f64,
}

/// Ingest `scenarios` into `vita`'s repository: through `run_many` when
/// `tracer` is `None`, through the traced replica otherwise.
pub fn ingest(
    vita: &mut Vita,
    scenarios: &[ScenarioConfig],
    tracer: Option<&Tracer>,
    op: u32,
) -> Result<Ingest, String> {
    if let Some(tracer) = tracer {
        return traced_run_many(vita, scenarios, tracer, op);
    }
    let start = Instant::now();
    let reports = vita
        .run_many(scenarios)
        .map_err(|e| format!("run_many failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let runs = reports
        .iter()
        .map(|r| RunRows {
            run: r.run,
            samples: r.stats.samples,
            rssi: r.rssi_rows,
            positioning: r.positioning_rows,
        })
        .collect();
    Ok(Ingest { runs, wall_s })
}

/// A run's stage context, as `run_many` builds it.
struct Context<'a> {
    run: RunId,
    mobility: MobilityConfig,
    rssi: RssiGenerator<'a>,
    positioner: ChunkPositioner<'a>,
}

#[derive(Default)]
struct Counters {
    rssi: AtomicUsize,
    positioning: AtomicUsize,
}

fn traced_run_many(
    vita: &Vita,
    scenarios: &[ScenarioConfig],
    tracer: &Tracer,
    op: u32,
) -> Result<Ingest, String> {
    let start = Instant::now();
    let runs = tracer.span("core.run_many", 0, op, |root| {
        traced_schedule(vita, scenarios, tracer, op, root)
    })?;
    Ok(Ingest {
        runs,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

fn traced_schedule(
    vita: &Vita,
    scenarios: &[ScenarioConfig],
    tracer: &Tracer,
    op: u32,
    root: u64,
) -> Result<Vec<RunRows>, String> {
    let (env, devices, repo) = (vita.env(), vita.devices(), vita.repository());
    if scenarios
        .iter()
        .any(|s| s.options.backend != repo.backend())
    {
        return Err("scenario backend differs from the toolkit's repository".into());
    }
    let base = repo.run_ids().last().map_or(0, |r| r.0 + 1);
    let mut contexts = Vec::with_capacity(scenarios.len());
    for (i, s) in scenarios.iter().enumerate() {
        let run = RunId(base + i as u32);
        let mut mobility = s.mobility.clone();
        mobility.seed = derive_run_seed(mobility.seed, run);
        let mut rssi = s.rssi;
        rssi.seed = derive_run_seed(rssi.seed, run);
        let positioner = tracer
            .span("positioning.setup", root, op, |_| {
                ChunkPositioner::new(env, devices, &s.method)
            })
            .map_err(|e| format!("positioner set-up failed: {e}"))?;
        contexts.push(Context {
            run,
            mobility,
            rssi: RssiGenerator::new(env, devices, &rssi),
            positioner,
        });
    }

    // The same core split as `run_many`: stage workers first, the rest to
    // the simulation workers of the producers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = scenarios
        .iter()
        .map(|s| match s.options.workers {
            0 => (cores / 2).max(1),
            w => w,
        })
        .max()
        .unwrap_or(1);
    let sim_workers = (cores.saturating_sub(workers).max(1) / scenarios.len().max(1)).max(1);
    let capacity = scenarios
        .iter()
        .map(|s| s.options.channel_capacity)
        .max()
        .unwrap_or(1)
        .max(1);

    let counters: Vec<Counters> = contexts.iter().map(|_| Counters::default()).collect();
    let generated = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<(usize, TrajectoryChunk)>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let (contexts, counters) = (&contexts, &counters);
            scope.spawn(move || loop {
                let msg = tracer.span("core.recv", root, op, |_| {
                    rx.lock().expect("receiver lock").recv()
                });
                let Ok((idx, chunk)) = msg else {
                    return;
                };
                let (ctx, c) = (&contexts[idx], &counters[idx]);
                tracer.span("core.stage", root, op, |stage| {
                    let measurements = tracer.span("rssi.measure", stage, op, |_| {
                        ctx.rssi.measure_trajectory(chunk.object, &chunk.trajectory)
                    });
                    let store = RssiStore::new(measurements);
                    let data = tracer.span("positioning.position", stage, op, |_| {
                        ctx.positioner.position(&store)
                    });
                    let positioning = positioning_batch(data);
                    c.rssi.fetch_add(store.len(), Ordering::Relaxed);
                    c.positioning
                        .fetch_add(positioning.len(), Ordering::Relaxed);
                    tracer.count("rssi.rows", store.len() as u64);
                    tracer.count("positioning.rows", positioning.len() as u64);
                    let batches = [
                        ProductBatch::Trajectories(chunk.trajectory.into_samples()),
                        ProductBatch::Rssi(store.into_measurements()),
                        positioning,
                    ];
                    for batch in batches {
                        tracer.count("storage.append_rows", batch.len() as u64);
                        tracer.span("storage.append", stage, op, |_| {
                            repo.accept_run(ctx.run, batch)
                        });
                    }
                });
            });
        }
        let producers: Vec<_> = contexts
            .iter()
            .enumerate()
            .map(|(idx, ctx)| {
                let tx = tx.clone();
                scope.spawn(move || {
                    tracer.span("mobility.generate", root, op, |generate| {
                        let producer = ChunkStreaming {
                            channel_capacity: 1,
                            max_workers: sim_workers,
                        };
                        vita_mobility::generate_streaming(env, &ctx.mobility, &producer, |chunk| {
                            tracer.count("mobility.samples", chunk.trajectory.len() as u64);
                            tracer.span("core.send", generate, op, |_| {
                                tx.send((idx, chunk)).expect("stage workers alive")
                            });
                        })
                    })
                })
            })
            .collect();
        drop(tx);
        producers
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect::<Vec<_>>()
    });

    contexts
        .iter()
        .zip(generated)
        .zip(&counters)
        .map(|((ctx, g), c)| {
            let g = g.map_err(|e| format!("mobility failed: {e}"))?;
            Ok(RunRows {
                run: ctx.run,
                samples: g.stats.samples,
                rssi: c.rssi.load(Ordering::Relaxed),
                positioning: c.positioning.load(Ordering::Relaxed),
            })
        })
        .collect()
}

/// The batch the repository keeps for one chunk's positioning output, as
/// `run_many` stores it: fixes and proximity records as they are,
/// probabilistic fixes as their MAP estimates.
fn positioning_batch(data: PositioningData) -> ProductBatch {
    match data {
        PositioningData::Deterministic(fixes) => ProductBatch::Fixes(fixes),
        PositioningData::Proximity(records) => ProductBatch::Proximity(records),
        PositioningData::Probabilistic(pfs) => ProductBatch::Fixes(
            pfs.iter()
                .filter_map(|pf| {
                    pf.map_estimate().map(|(loc, _)| Fix {
                        object: pf.object,
                        loc: *loc,
                        t: pf.t,
                    })
                })
                .collect(),
        ),
    }
}
