#![forbid(unsafe_code)]
//! # vita-perfbench
//!
//! End-to-end and per-layer benchmark of the Vita toolkit. One command runs
//! a named workload from a seed, generates every input itself, checks the
//! outputs, counts failed against attempted operations and prints every
//! metric by name with its unit:
//!
//! * `serve` — a closed-loop client querying an all-resident segmented
//!   corpus at its maintenance fixed point;
//! * `out-of-core` — the same kind of corpus with three quarters of it
//!   spilled to disk, small ingests alternating with queries into cold
//!   data.
//!
//! Every workload does a fixed amount of work for a given `--seconds`,
//! scaled linearly with it; the work never depends on elapsed time. With
//! tracing on, the workload runs untraced first and then again with a span
//! around every call into a layer, and the per-layer metrics come from
//! those spans. `README.md` beside this package records the reasons
//! behind each choice.

pub mod check;
pub mod pipeline;
pub mod queries;
pub mod report;
pub mod trace;
pub mod world;

mod workloads;

use std::path::PathBuf;

use report::{median, Metrics, Tail};
use trace::{Profile, Tracer};
use world::{SetupTimes, Shape};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    OutOfCore,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Serve, Workload::OutOfCore];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::OutOfCore => "out-of-core",
        }
    }

    /// The tail percentile each workload reports, and the fewest query
    /// samples that leave at least ten beyond it.
    pub fn tail(self) -> Tail {
        match self {
            Workload::Serve => Tail {
                quantile: 0.99,
                min_samples: 1000,
            },
            Workload::OutOfCore => Tail {
                quantile: 0.9,
                min_samples: 100,
            },
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}' (expected serve | out-of-core)"))
    }
}

/// How much work a run does. Sizes are fixed per `--seconds` value.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-up repetitions of `serve` and `out-of-core`, each generating the
    /// corpus and reaching the maintenance fixed point again; all but the
    /// first run after the measured part.
    pub corpus_reps: usize,
    /// The preloaded corpus of `serve` and `out-of-core`.
    pub corpus_scenarios: usize,
    pub corpus_shape: Shape,
    /// `serve` query batches and the queries in each. A save/load round
    /// trip follows every second batch, and every second out-of-core cycle.
    pub serve_batches: usize,
    pub serve_batch_queries: usize,
    /// `out-of-core` ingest/query cycles, the single scenario each cycle
    /// ingests, and the queries after it.
    pub ooc_cycles: usize,
    pub ooc_ingest: Shape,
    pub ooc_queries: usize,
    /// Decoded sealed rows the `out-of-core` corpus may keep in memory.
    pub spill_budget_rows: usize,
}

impl Scale {
    /// The work of a run for `--seconds seconds`. Repetitions scale
    /// linearly with `seconds`; the size of each op does not.
    pub fn for_seconds(seconds: u64) -> Self {
        let s = seconds.clamp(1, 60) as usize;
        let per = |n_at_20: usize| (n_at_20 * s).div_ceil(20).max(1);
        Scale {
            corpus_reps: per(14),
            corpus_scenarios: 4,
            corpus_shape: Shape {
                objects: 100,
                secs: 300,
            },
            serve_batches: per(48),
            serve_batch_queries: 200,
            ooc_cycles: per(30),
            ooc_ingest: Shape {
                objects: 20,
                secs: 300,
            },
            ooc_queries: 10,
            spill_budget_rows: 170_000,
        }
    }

    /// Toy sizes for the benchmark's own tests.
    pub fn tiny() -> Self {
        Scale {
            corpus_reps: 2,
            corpus_scenarios: 2,
            corpus_shape: Shape {
                objects: 6,
                secs: 60,
            },
            serve_batches: 4,
            serve_batch_queries: 12,
            ooc_cycles: 4,
            ooc_ingest: Shape {
                objects: 3,
                secs: 30,
            },
            ooc_queries: 12,
            spill_budget_rows: 400,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
    /// Parent of the per-run scratch directory (spill files, saved
    /// repositories); the run removes its own directory when it ends.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans, if anywhere.
    pub trace_dir: Option<PathBuf>,
    /// Corrupt the first oracle answer, so that the check must count one
    /// failed op (the benchmark's self-check).
    pub wrong_oracle: bool,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
    /// The first few failures, for the error stream.
    pub failures: Vec<String>,
}

/// The end-to-end metrics for which a higher value is better.
const HIGHER_IS_BETTER: [&str; 2] = ["gen_rows_per_s", "query_per_s"];

/// Run one workload: untraced, and — with `trace` — once more traced.
/// The result's metrics are the end-to-end metrics of the untraced run,
/// or with `trace` the per-layer metrics of the traced one.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    world::check_environment()?;
    let scratch = world::Scratch::new(&opts.scratch)?;
    let tail = opts.workload.tail();
    let plain = workloads::run(opts, &scratch, None)?;
    let plain_e2e = plain.end_to_end(tail);
    let mut lines = vec![
        format!(
            "workload {} seed {} (flush policy: save_to writes each table to a temp file and renames it, without fsync)",
            opts.workload.name(),
            opts.seed
        ),
        plain.summary(tail),
    ];
    lines.extend(describe("untraced", &plain_e2e));
    let (mut attempted, mut failed, mut failures) =
        (plain.attempted, plain.failed, plain.failures.clone());
    let metrics = if opts.trace {
        let tracer = Tracer::default();
        let traced = workloads::run(opts, &scratch, Some(&tracer))?;
        let traced_e2e = traced.end_to_end(tail);
        lines.extend(describe("traced", &traced_e2e));
        attempted += traced.attempted + 1;
        failed += traced.failed;
        failures.extend(traced.failures.iter().cloned());
        if traced.exact() != plain.exact() {
            failed += 1;
            failures.push(format!(
                "the traced pass stored other rows: {} against {}",
                traced.exact(),
                plain.exact()
            ));
        }
        if let Some(dir) = &opts.trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("trace dir: {e}"))?;
            let path = dir.join(format!("{}.spans.tsv", opts.workload.name()));
            tracer
                .write_tsv(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            lines.push(format!("spans written to {}", path.display()));
        }
        let mut m = traced.per_layer(&tracer, tail, &plain);
        for (name, untraced, _) in plain_e2e.entries() {
            // Positive when tracing costs: slower, larger, or — for the
            // two throughputs — fewer per second.
            let sign = if HIGHER_IS_BETTER.contains(&name.as_str()) {
                -1.0
            } else {
                1.0
            };
            let with = traced_e2e.get(name).unwrap_or(0.0);
            let overhead = sign * ratio(with - untraced, *untraced) * 100.0;
            lines.push(format!("tracing overhead {name}: {overhead:+.2}%"));
            m.put(format!("trace.overhead.{name}"), overhead, "%");
        }
        m
    } else {
        plain_e2e
    };
    if let Some((name, _, _)) = metrics.entries().iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        lines,
        failures: failures.into_iter().take(8).collect(),
    })
}

fn describe(label: &str, m: &Metrics) -> Vec<String> {
    m.entries()
        .iter()
        .map(|(name, value, unit)| format!("{label} {name} = {value} {unit}"))
        .collect()
}

/// Storage-tier counters of the segmented workloads.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StorageCounters {
    pub quiesce_s: f64,
    pub sealed_segments: usize,
    pub page_ins: u64,
    pub spills: u64,
    pub spilled_rows: usize,
    pub resident_rows_max: usize,
    pub seals: u64,
    pub compactions: u64,
    pub writer_stalls: u64,
}

/// Everything one pass over a workload measured.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub setup_layers: Vec<SetupTimes>,
    pub gen_rows: u64,
    pub gen_wall_s: f64,
    pub stored_rows: u64,
    pub fix_errors: check::FixErrors,
    pub save_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub table_bytes: [u64; 4],
    pub saved_rows: u64,
    pub query_s: f64,
    pub latencies_us: Vec<f64>,
    pub kind_us: [Vec<f64>; 6],
    pub kind_rows: [u64; 6],
    pub storage: StorageCounters,
    /// `VmHWM` when the measured part ended, before any check that needs
    /// an oracle of its own.
    pub peak_rss_mib: f64,
}

impl Pass {
    /// Count one op, failed if `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Count an already attempted op as failed.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(error);
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self, tail: Tail) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put(
            "gen_rows_per_s",
            ratio(self.gen_rows as f64, self.gen_wall_s),
            "rows/s",
        );
        m.put("fix_error_m", self.fix_errors.median_m(), "m");
        m.put("save_s", median(&self.save_s), "s");
        m.put("load_s", median(&self.load_s), "s");
        let bytes: u64 = self.table_bytes.iter().sum();
        m.put(
            "disk_bytes_per_row",
            ratio(bytes as f64, self.saved_rows as f64),
            "B/row",
        );
        m.put(
            "query_per_s",
            ratio(self.latencies_us.len() as f64, self.query_s),
            "1/s",
        );
        m.put("query_p50_us", median(&self.latencies_us), "us");
        m.put("query_tail_us", tail.of(&self.latencies_us), "us");
        m.put("peak_rss_mb", self.peak_rss_mib, "MiB");
        m
    }

    /// The counts that must repeat exactly for one seed, on one line.
    pub fn summary(&self, tail: Tail) -> String {
        format!(
            "exact: {} | sealed_segments={} | tail p{} over {} samples (minimum {}) \
             | ops attempted={} failed={}",
            self.exact(),
            self.storage.sealed_segments,
            tail.quantile * 100.0,
            self.latencies_us.len(),
            tail.min_samples,
            self.attempted,
            self.failed,
        )
    }

    /// The counts that repeat exactly for one seed — in the traced pass
    /// too, which stores the same rows. The segment count at the fixed
    /// point is left out: it repeats on the all-resident corpus, but with
    /// the spill tier it depends on when the background sealer ran.
    fn exact(&self) -> String {
        let per_kind: Vec<String> = queries::KINDS
            .iter()
            .zip(&self.kind_us)
            .map(|(k, v)| format!("{k}={}", v.len()))
            .collect();
        format!(
            "stored_rows={} saved_rows={} disk_bytes={} queries=[{}] fix_error_m={}",
            self.stored_rows,
            self.saved_rows,
            self.table_bytes.iter().sum::<u64>(),
            per_kind.join(" "),
            self.fix_errors.median_m(),
        )
    }

    /// The per-layer metrics of a traced pass; `plain` is the untraced
    /// pass of the same seed.
    pub fn per_layer(&self, tracer: &Tracer, tail: Tail, plain: &Pass) -> Metrics {
        let p = Profile::new(&tracer.spans());
        let layer = |f: fn(&SetupTimes) -> f64| {
            median(&self.setup_layers.iter().map(f).collect::<Vec<_>>())
        };
        let mut m = Metrics::default();
        m.put("dbi.load_s", layer(|t| t.dbi_load), "s");
        m.put("indoor.build_s", layer(|t| t.indoor_build), "s");
        m.put("devices.deploy_s", layer(|t| t.devices_deploy), "s");
        m.put("mobility.self_s", p.self_s("mobility.generate"), "s");
        m.put(
            "mobility.samples",
            tracer.counted("mobility.samples") as f64,
            "count",
        );
        m.put("rssi.self_s", p.self_s("rssi.measure"), "s");
        m.put("rssi.rows", tracer.counted("rssi.rows") as f64, "count");
        m.put("positioning.setup_s", p.total_s("positioning.setup"), "s");
        m.put("positioning.self_s", p.self_s("positioning.position"), "s");
        m.put(
            "positioning.rows",
            tracer.counted("positioning.rows") as f64,
            "count",
        );
        m.put("storage.append_s", p.total_s("storage.append"), "s");
        m.put(
            "storage.append_rows",
            tracer.counted("storage.append_rows") as f64,
            "count",
        );
        m.put("core.stage_wait_s", p.total_s("core.recv"), "s");
        m.put("core.producer_wait_s", p.total_s("core.send"), "s");
        m.put("core.stage_self_s", p.self_s("core.stage"), "s");
        m.put("core.traced_wall_s", self.gen_wall_s, "s");
        m.put("core.run_many_wall_s", plain.gen_wall_s, "s");
        m.put("storage.export_s", p.total_s("storage.export"), "s");
        m.put("storage.write_dir_s", p.total_s("storage.write_dir"), "s");
        m.put("storage.read_dir_s", p.total_s("storage.read_dir"), "s");
        m.put("storage.import_s", p.total_s("storage.import"), "s");
        for (table, bytes) in ["trajectories", "rssi", "fixes", "proximity"]
            .iter()
            .zip(self.table_bytes)
        {
            m.put(format!("storage.bytes.{table}"), bytes as f64, "B");
        }
        for (k, kind) in queries::KINDS.iter().enumerate() {
            let us = &self.kind_us[k];
            m.put(format!("serve.{kind}.queries"), us.len() as f64, "count");
            m.put(format!("serve.{kind}.p50_us"), median(us), "us");
            m.put(format!("serve.{kind}.tail_us"), tail.of(us), "us");
            m.put(
                format!("serve.{kind}.rows"),
                self.kind_rows[k] as f64,
                "count",
            );
        }
        let s = &self.storage;
        let queries = self.latencies_us.len() as f64;
        m.put("storage.quiesce_s", s.quiesce_s, "s");
        m.put("storage.sealed_segments", s.sealed_segments as f64, "count");
        m.put("storage.page_ins", s.page_ins as f64, "count");
        m.put(
            "storage.page_ins_per_query",
            ratio(s.page_ins as f64, queries),
            "count",
        );
        m.put("storage.spills", s.spills as f64, "count");
        m.put("storage.spilled_rows", s.spilled_rows as f64, "count");
        m.put(
            "storage.resident_rows_max",
            s.resident_rows_max as f64,
            "count",
        );
        m.put("storage.seals", s.seals as f64, "count");
        m.put("storage.compactions", s.compactions as f64, "count");
        m.put("storage.writer_stalls", s.writer_stalls as f64, "count");
        m
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
