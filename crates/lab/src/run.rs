//! Plan execution: each plan cell (one scenario × one axis-variant
//! combination, all its repeats) runs as **one** [`Vita::run_many`] batch
//! on a fresh toolkit, so repeat `k` ingests as `RunId(k)` with the seed
//! [`vita_core::derive_run_seed`] derives for lane `k` — reproducible
//! regardless of which other cells ran before it. `exec = solo` runs the
//! same repeats sequentially through [`Vita::run_streaming_as`] at the
//! same run ids; the derived-seed contract makes the two schedules
//! row-identical, which the `assert.cross_axis_rows` check can pin as
//! part of a spec.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use vita_core::{load_scenario, ConfigLoadError, Properties, ScenarioConfig, Vita};
use vita_devices::{DeploymentModel, DeviceSpec, DeviceType};
use vita_indoor::{BuildParams, FloorId, RunId};
use vita_serve::{run_fixed, WorkloadSpec};
use vita_storage::{AnyRepository, TableCounts};

use crate::plan::{expand, Trial};
use crate::report::{LabReport, PersistProbe, ServeProbe, TrialRecord};
use crate::spec::{Spec, SpecError};

/// Why a spec execution failed.
#[derive(Debug)]
pub enum LabError {
    /// The spec itself was invalid.
    Spec(SpecError),
    /// A trial's properties failed to load as a scenario.
    Config { trial: String, err: ConfigLoadError },
    /// A runner key (`building`, `deploy.model`, `exec`, …) had an
    /// unknown value, or the spec referenced a missing axis.
    Lab { trial: String, msg: String },
    /// The spec sets keys that no trial of its plan reads — usually
    /// misspellings (`objects.cuont`), which would otherwise silently run
    /// on the defaults. Sorted; never empty.
    UnknownKeys(Vec<String>),
    /// The pipeline rejected or failed a run.
    Run { trial: String, msg: String },
    /// Two trials that differ only in the asserted axis produced
    /// different row counts. Boxed: the two [`TableCounts`] would
    /// otherwise dominate the size of every `Result` on the happy path.
    CrossAxisRows(Box<CrossAxisRows>),
}

/// Payload of [`LabError::CrossAxisRows`].
#[derive(Debug)]
pub struct CrossAxisRows {
    pub axis: String,
    pub left: String,
    pub right: String,
    pub left_rows: TableCounts,
    pub right_rows: TableCounts,
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Spec(e) => write!(f, "spec: {e}"),
            LabError::Config { trial, err } => write!(f, "trial '{trial}': {err}"),
            LabError::Lab { trial, msg } => write!(f, "trial '{trial}': {msg}"),
            LabError::UnknownKeys(keys) => write!(
                f,
                "spec sets keys that no trial reads (misspelled?): {}",
                keys.join(", ")
            ),
            LabError::Run { trial, msg } => write!(f, "trial '{trial}': {msg}"),
            LabError::CrossAxisRows(e) => write!(
                f,
                "axis '{}' changed the data: '{}' produced {:?} but '{}' produced {:?}",
                e.axis, e.left, e.left_rows, e.right, e.right_rows
            ),
        }
    }
}

impl std::error::Error for LabError {}

impl From<SpecError> for LabError {
    fn from(e: SpecError) -> Self {
        LabError::Spec(e)
    }
}

/// The runner keys of one plan cell, decoded from its merged properties.
struct CellConfig {
    building: String,
    floors: usize,
    deploy_type: DeviceType,
    deploy_model: DeploymentModel,
    deploy_devices: usize,
    deploy_floor: u32,
    exec: String,
    measure_persistence: bool,
    serve_rps: f64,
    serve_duration: Duration,
    serve_workers: usize,
}

impl CellConfig {
    fn decode(trial_id: &str, p: &Properties) -> Result<CellConfig, LabError> {
        let lab = |msg: String| LabError::Lab {
            trial: trial_id.to_string(),
            msg,
        };
        let cfg = |err: vita_core::PropsError| LabError::Config {
            trial: trial_id.to_string(),
            err: err.into(),
        };
        let building = p.str_or("building", "office");
        if building != "office" && building != "mall" {
            return Err(lab(format!(
                "unknown building '{building}' (office | mall)"
            )));
        }
        let deploy_type = match p.str_or("deploy.type", "wifi") {
            "wifi" => DeviceType::WiFi,
            "bluetooth" => DeviceType::Bluetooth,
            "rfid" => DeviceType::Rfid,
            other => {
                return Err(lab(format!(
                    "unknown deploy.type '{other}' (wifi | bluetooth | rfid)"
                )))
            }
        };
        let deploy_model = match p.str_or("deploy.model", "coverage") {
            "coverage" => DeploymentModel::Coverage,
            "check-point" => DeploymentModel::CheckPoint,
            other => {
                return Err(lab(format!(
                    "unknown deploy.model '{other}' (coverage | check-point)"
                )))
            }
        };
        let exec = p.str_or("exec", "batched").to_string();
        if exec != "batched" && exec != "solo" {
            return Err(lab(format!("unknown exec '{exec}' (batched | solo)")));
        }
        Ok(CellConfig {
            building: building.to_string(),
            floors: p.usize_or("building.floors", 2).map_err(cfg)?,
            deploy_type,
            deploy_model,
            deploy_devices: p.usize_or("deploy.devices", 10).map_err(cfg)?,
            deploy_floor: p.u64_or("deploy.floor", 0).map_err(cfg)? as u32,
            exec,
            measure_persistence: p.bool_or("measure.persistence", false).map_err(cfg)?,
            serve_rps: p.f64_or("serve.rps", 0.0).map_err(cfg)?,
            serve_duration: Duration::from_millis(p.u64_or("serve.duration_ms", 250).map_err(cfg)?),
            serve_workers: p.usize_or("serve.workers", 2).map_err(cfg)?,
        })
    }
}

/// Execute a spec: expand the plan, run every cell, return the report.
///
/// Every cell's configuration is decoded before the first trial runs, so
/// a bad value or a key that no cell reads ([`LabError::UnknownKeys`])
/// fails the spec up front. Toolkits are built per cell from a cached
/// building model (one [`vita_dbi::DbiModel`] per `(building, floors)`),
/// so the plan's row sets are independent of cell order and of one
/// another.
pub fn run_spec(spec: &Spec) -> Result<LabReport, LabError> {
    let plan = expand(spec);
    let repeats = spec.repeats as usize;
    debug_assert_eq!(plan.len() % repeats.max(1), 0);
    let cells: Vec<&[Trial]> = plan.chunks(repeats.max(1)).collect();

    // Cross-axis row assertion, resolved up front so a typo fails fast.
    let assert_axis = spec
        .defaults
        .get("assert.cross_axis_rows")
        .map(String::from);
    if let Some(axis) = &assert_axis {
        if !spec.axes.iter().any(|a| &a.name == axis) {
            return Err(LabError::Lab {
                trial: "<spec>".to_string(),
                msg: format!("assert.cross_axis_rows names unknown axis '{axis}'"),
            });
        }
    }

    let configs = decode_cells(&cells, &spec.defaults)?;
    let mut models: HashMap<(String, usize), vita_dbi::DbiModel> = HashMap::new();
    let mut records: Vec<TrialRecord> = Vec::with_capacity(plan.len());
    for (cell, (lab, scenario)) in cells.iter().zip(configs) {
        records.extend(run_cell(cell, lab, scenario, &mut models)?);
    }

    if let Some(axis) = assert_axis {
        check_cross_axis_rows(&axis, &records)?;
    }

    Ok(LabReport {
        spec_name: spec.name.clone(),
        seed: spec.seed,
        trials: records,
        axes: LabReport::axes_of(spec),
    })
}

/// Decode every cell's runner keys and scenario, then check that each key
/// the spec sets is read by at least one cell (or, like
/// `assert.cross_axis_rows`, by the runner from `head`). What counts as
/// read is whatever the decoders looked up, so a key a loader learns is
/// known here without a list kept by hand.
fn decode_cells(
    cells: &[&[Trial]],
    head: &Properties,
) -> Result<Vec<(CellConfig, ScenarioConfig)>, LabError> {
    let mut set = BTreeSet::new();
    let mut read: BTreeSet<String> = head.keys_read().into_iter().collect();
    let mut configs = Vec::with_capacity(cells.len());
    for cell in cells {
        let first = &cell[0];
        let props = &first.props;
        let lab = CellConfig::decode(&first.id, props)?;
        let scenario = load_scenario(props).map_err(|err| LabError::Config {
            trial: first.id.clone(),
            err,
        })?;
        set.extend(props.iter().map(|(k, _)| k.to_string()));
        read.extend(props.keys_read());
        configs.push((lab, scenario));
    }
    let unknown: Vec<String> = set.difference(&read).cloned().collect();
    if unknown.is_empty() {
        Ok(configs)
    } else {
        Err(LabError::UnknownKeys(unknown))
    }
}

/// Run one plan cell — all repeats of one scenario × variant combination —
/// and emit its trial records in repeat order.
fn run_cell(
    cell: &[Trial],
    lab: CellConfig,
    scenario_cfg: ScenarioConfig,
    models: &mut HashMap<(String, usize), vita_dbi::DbiModel>,
) -> Result<Vec<TrialRecord>, LabError> {
    let first = &cell[0];

    let model = models
        .entry((lab.building.clone(), lab.floors))
        .or_insert_with(|| {
            let params = vita_dbi::SynthParams::with_floors(lab.floors);
            if lab.building == "mall" {
                vita_dbi::mall(&params)
            } else {
                vita_dbi::office(&params)
            }
        });
    let mut vita = Vita::from_model(model, &BuildParams::default()).map_err(|e| LabError::Run {
        trial: first.id.clone(),
        msg: format!("building model rejected: {e:?}"),
    })?;
    vita.deploy_devices(
        DeviceSpec::default_for(lab.deploy_type),
        FloorId(lab.deploy_floor),
        lab.deploy_model,
        lab.deploy_devices,
    );

    // Execute the repeats: one run_many batch, or sequential solo runs at
    // the same run ids (row-identical by the derived-seed contract).
    let reports = if lab.exec == "batched" {
        let scenarios = vec![scenario_cfg.clone(); cell.len()];
        vita.run_many(&scenarios).map_err(|e| LabError::Run {
            trial: first.id.clone(),
            msg: format!("run_many failed: {e:?}"),
        })?
    } else {
        let mut reports = Vec::with_capacity(cell.len());
        for (r, trial) in cell.iter().enumerate() {
            reports.push(
                vita.run_streaming_as(RunId(r as u32), &scenario_cfg)
                    .map_err(|e| LabError::Run {
                        trial: trial.id.clone(),
                        msg: format!("run_streaming_as failed: {e:?}"),
                    })?,
            );
        }
        reports
    };

    // Optional probes, shared across the cell's repeats.
    let persist = if lab.measure_persistence {
        Some(persistence_probe(&vita, &scenario_cfg, &first.id)?)
    } else {
        None
    };
    let service = (lab.serve_rps > 0.0).then(|| vita.serve());

    let mut records = Vec::with_capacity(cell.len());
    for (trial, report) in cell.iter().zip(&reports) {
        debug_assert_eq!(report.run, RunId(trial.repeat));
        let rows = vita.repository().counts(RunId(trial.repeat).into());
        let serve = service.as_ref().map(|service| {
            let duration = first.props.f64_or("run.duration_s", 600.0).unwrap_or(600.0);
            let workload = WorkloadSpec {
                scopes: vec![RunId(trial.repeat).into()],
                objects: scenario_cfg.mobility.object_count.max(1) as u32,
                floors: lab.floors.max(1) as u32,
                t_max: (duration * 1000.0) as u64,
                seed: trial.seed,
                ..Default::default()
            };
            let step = run_fixed(
                service,
                &workload,
                lab.serve_rps,
                lab.serve_duration,
                lab.serve_workers,
            );
            ServeProbe {
                target_rps: step.target_rps,
                achieved_rps: step.achieved_rps,
                issued: step.issued,
                p50_us: step.p50_us,
                p99_us: step.p99_us,
                p999_us: step.p999_us,
            }
        });
        records.push(TrialRecord {
            index: trial.index,
            id: trial.id.clone(),
            scenario: trial.scenario.clone(),
            bindings: trial.bindings.clone(),
            repeat: trial.repeat,
            run: report.run.0,
            seed: trial.seed,
            backend: scenario_cfg.options.backend.to_string(),
            workers: scenario_cfg.options.workers,
            exec: lab.exec.clone(),
            rows,
            wall_ms: report.elapsed.as_secs_f64() * 1000.0,
            serve,
            persist: persist.clone(),
        });
    }
    Ok(records)
}

/// Export the cell's repository and re-import it into the same backend,
/// timing both and asserting every run's counts survive the round trip.
fn persistence_probe(
    vita: &Vita,
    scenario: &vita_core::ScenarioConfig,
    trial_id: &str,
) -> Result<PersistProbe, LabError> {
    let repo = vita.repository();
    #[expect(
        clippy::disallowed_methods,
        reason = "measured wall-clock only; stripped from the byte-reproducible JSONL projection"
    )]
    let t0 = Instant::now();
    let export = repo.export();
    let export_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let bytes =
        export.trajectories.len() + export.rssi.len() + export.fixes.len() + export.proximity.len();
    #[expect(
        clippy::disallowed_methods,
        reason = "measured wall-clock only; stripped from the byte-reproducible JSONL projection"
    )]
    let t0 = Instant::now();
    let imported =
        AnyRepository::import(&export, scenario.options.backend.clone()).map_err(|e| {
            LabError::Run {
                trial: trial_id.to_string(),
                msg: format!("import failed: {e:?}"),
            }
        })?;
    let import_ms = t0.elapsed().as_secs_f64() * 1000.0;
    for run in repo.run_ids() {
        if imported.counts(run.into()) != repo.counts(run.into()) {
            return Err(LabError::Run {
                trial: trial_id.to_string(),
                msg: format!("persistence round trip diverged at {run:?}"),
            });
        }
    }
    Ok(PersistProbe {
        bytes,
        export_ms,
        import_ms,
    })
}

/// `assert.cross_axis_rows`: trials identical except in the named axis
/// must report identical row counts — the declarative form of the
/// backend/schedule parity assertions the hand-coded experiments carried.
fn check_cross_axis_rows(axis: &str, records: &[TrialRecord]) -> Result<(), LabError> {
    let mut by_rest: HashMap<String, &TrialRecord> = HashMap::new();
    for record in records {
        // Group key: scenario + repeat + every binding except the axis.
        let mut key = format!("{}|r{}", record.scenario, record.repeat);
        for (a, v) in &record.bindings {
            if a != axis {
                key.push_str(&format!("|{a}={v}"));
            }
        }
        match by_rest.get(&key) {
            None => {
                by_rest.insert(key, record);
            }
            Some(reference) => {
                if reference.rows != record.rows {
                    return Err(LabError::CrossAxisRows(Box::new(CrossAxisRows {
                        axis: axis.to_string(),
                        left: reference.id.clone(),
                        right: record.id.clone(),
                        left_rows: reference.rows,
                        right_rows: record.rows,
                    })));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    /// A tiny spec that still exercises batching, two backends, and the
    /// cross-axis assertion. Durations are simulated seconds, not wall
    /// clock — the whole spec runs in well under a second.
    const TINY: &str = "\
name = tiny
seed = 11
repeats = 2
run.duration_s = 4
objects.lifespan_min_s = 4
objects.lifespan_max_s = 4
stream.workers = 1
assert.cross_axis_rows = backend

[scenario walk]
objects.count = 3

[axis backend]
key = storage.backend
values = single, segmented
";

    #[test]
    fn tiny_spec_runs_and_reproduces() {
        let spec = parse_spec(TINY).unwrap();
        let a = run_spec(&spec).unwrap();
        assert_eq!(a.trials.len(), 4);
        assert!(a.trials.iter().all(|t| t.rows.trajectories > 0));
        // Repeat 0 and 1 differ (derived seeds); backends agree per repeat.
        assert_ne!(a.trials[0].rows, a.trials[1].rows);
        assert_eq!(a.trials[0].rows, a.trials[2].rows);
        assert_eq!(a.trials[1].rows, a.trials[3].rows);
        // Byte-identical deterministic records across executions.
        let b = run_spec(&spec).unwrap();
        assert_eq!(a.trials_jsonl(false), b.trials_jsonl(false));
    }

    #[test]
    fn solo_matches_batched() {
        let spec = parse_spec(TINY).unwrap();
        let batched = run_spec(&spec).unwrap();
        let solo_spec = parse_spec(&TINY.replace(
            "assert.cross_axis_rows = backend",
            "exec = solo\nassert.cross_axis_rows = backend",
        ))
        .unwrap();
        let solo = run_spec(&solo_spec).unwrap();
        for (b, s) in batched.trials.iter().zip(&solo.trials) {
            assert_eq!(b.rows, s.rows, "{} vs {}", b.id, s.id);
            assert_eq!(b.seed, s.seed);
        }
    }

    #[test]
    fn unknown_runner_values_fail_fast() {
        let spec = parse_spec("building = casino\n[scenario s]\nobjects.count = 1\n").unwrap();
        assert!(matches!(run_spec(&spec), Err(LabError::Lab { .. })));
        let spec =
            parse_spec("assert.cross_axis_rows = nope\n[scenario s]\nobjects.count = 1\n").unwrap();
        assert!(matches!(run_spec(&spec), Err(LabError::Lab { .. })));
    }

    /// Keys no cell reads — misspellings in the head, a scenario body or
    /// an axis `key =`, or a real key only other configurations read —
    /// fail the whole spec before any trial runs, all named at once.
    #[test]
    fn keys_no_cell_reads_fail_the_spec() {
        let unread = |text: &str| match run_spec(&parse_spec(text).unwrap()) {
            Err(LabError::UnknownKeys(keys)) => keys,
            other => panic!("expected UnknownKeys, got {other:?}"),
        };
        let head = TINY.replace("run.duration_s", "run.duraton_s");
        assert_eq!(unread(&head), ["run.duraton_s"]);
        let body = TINY.replace("objects.count", "objects.cuont");
        assert_eq!(unread(&body), ["objects.cuont"]);
        let axis = TINY.replace("key = storage.backend", "key = storage.backnd");
        assert_eq!(unread(&axis), ["storage.backnd"]);
        let all = format!(
            "bogus.key = 3\n{}",
            body.replace("run.duration_s", "run.duraton_s")
        );
        assert_eq!(
            unread(&all),
            ["bogus.key", "objects.cuont", "run.duraton_s"]
        );
        // `proximity.gap_grace` is read only by proximity cells: fine with
        // one in the plan, unread without.
        let gap = format!("proximity.gap_grace = 2.0\n{TINY}");
        let mixed = gap
            .replace("assert.cross_axis_rows = backend\n", "")
            .replace("key = storage.backend", "key = positioning.method")
            .replace("single, segmented", "trilateration, proximity");
        assert!(run_spec(&parse_spec(&mixed).unwrap()).is_ok());
        assert_eq!(unread(&gap), ["proximity.gap_grace"]);
    }

    #[test]
    fn cross_axis_violation_is_reported() {
        // objects.count on the axis genuinely changes the data, so the
        // assertion must fire.
        let text = "\
repeats = 1
run.duration_s = 4
objects.lifespan_min_s = 4
objects.lifespan_max_s = 4
stream.workers = 1
assert.cross_axis_rows = size

[scenario s]
positioning.method = proximity

[axis size]
key = objects.count
values = 2, 5
";
        let spec = parse_spec(text).unwrap();
        assert!(matches!(run_spec(&spec), Err(LabError::CrossAxisRows(_))));
    }
}
