//! The building, the toolkit set-up, the seeded scenarios and the per-run
//! scratch directory every workload shares.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vita_core::{ScenarioConfig, StorageBackend, StreamOptions, Vita};
use vita_dbi::DbiModel;
use vita_devices::{DeploymentModel, DeviceSpec, DeviceType};
use vita_indoor::{BuildParams, FloorId, Timestamp};
use vita_mobility::{LifespanConfig, MobilityConfig};
use vita_positioning::{MethodConfig, TrilaterationConfig};
use vita_rssi::{PathLossModel, RssiConfig};

use crate::report::Rng;
use crate::trace::Tracer;

/// Wi-Fi access points deployed on floor 0 (the E11 scenario).
pub const ACCESS_POINTS: usize = 10;

/// Run `f` and time it; when tracing, `f` also runs inside a span named
/// `name`, and receives that span's id for the spans it opens.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    op: u32,
    f: impl FnOnce(u64) -> R,
) -> (R, f64) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, parent, op, f),
        None => f(0),
    };
    (out, start.elapsed().as_secs_f64())
}

/// The STEP text of the E11 building: the synthetic two-floor office
/// (x in [0, 42] m, y in [0, 16] m per floor).
pub fn office_text() -> String {
    vita_dbi::write_step(&vita_dbi::office(&vita_dbi::SynthParams::with_floors(2)))
}

/// Time spent in each set-up layer, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dbi_load: f64,
    pub indoor_build: f64,
    pub devices_deploy: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.dbi_load + self.indoor_build + self.devices_deploy
    }
}

/// Load the DBI text, build the indoor environment and deploy the access
/// points: the set-up every workload starts with.
pub fn set_up(
    text: &str,
    backend: StorageBackend,
    tracer: Option<&Tracer>,
) -> Result<(Vita, DbiModel, SetupTimes), String> {
    let (loaded, dbi_load) = timed(tracer, "dbi.load", 0, 0, |_| vita_dbi::load_dbi(text));
    let model = loaded.map_err(|e| format!("DBI load failed: {e:?}"))?.model;
    let (vita, indoor_build) = timed(tracer, "indoor.build", 0, 0, |_| {
        Vita::from_model(&model, &BuildParams::default())
    });
    let mut vita = vita
        .map_err(|e| format!("indoor build failed: {e}"))?
        .with_backend(backend);
    let (placed, devices_deploy) = timed(tracer, "devices.deploy", 0, 0, |_| deploy(&mut vita));
    if placed != ACCESS_POINTS {
        return Err(format!(
            "placed {placed} access points, wanted {ACCESS_POINTS}"
        ));
    }
    let times = SetupTimes {
        dbi_load,
        indoor_build,
        devices_deploy,
    };
    Ok((vita, model, times))
}

/// A fresh toolkit with an empty repository, built from an already loaded
/// model.
pub fn fresh_toolkit(model: &DbiModel, backend: StorageBackend) -> Result<Vita, String> {
    let mut vita = Vita::from_model(model, &BuildParams::default())
        .map_err(|e| format!("indoor build failed: {e}"))?
        .with_backend(backend);
    deploy(&mut vita);
    Ok(vita)
}

fn deploy(vita: &mut Vita) -> usize {
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        ACCESS_POINTS,
    )
}

/// The size of one scenario: objects alive for the whole `secs` seconds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub objects: usize,
    pub secs: u64,
}

/// `count` E11 scenarios (trilateration, default stream options on
/// `backend`) whose mobility and RSSI seeds derive from the workload seed
/// and the batch number.
pub fn scenarios(
    seed: u64,
    batch: u64,
    count: usize,
    shape: Shape,
    backend: &StorageBackend,
) -> Vec<ScenarioConfig> {
    (0..count as u64)
        .map(|i| {
            let mut rng = Rng::derive(seed, (batch << 16) | i);
            let duration = Timestamp(shape.secs * 1000);
            ScenarioConfig {
                mobility: MobilityConfig {
                    object_count: shape.objects,
                    duration,
                    lifespan: LifespanConfig {
                        min: duration,
                        max: duration,
                    },
                    seed: rng.next_u64(),
                    ..Default::default()
                },
                rssi: RssiConfig {
                    duration,
                    seed: rng.next_u64(),
                    ..Default::default()
                },
                method: MethodConfig::Trilateration {
                    config: TrilaterationConfig::default(),
                    conversion_model: PathLossModel::default(),
                },
                options: StreamOptions::default().with_backend(backend.clone()),
            }
        })
        .collect()
}

/// Refuse to run when the environment would change what a workload
/// measures: `StorageBackend::segmented()` honours `VITA_SPILL_*`, which
/// would silently turn the all-resident `serve` corpus into a spilled one.
pub fn check_environment() -> Result<(), String> {
    check_variables(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
}

/// [`check_environment`] over the given variable names.
pub fn check_variables(names: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = names.filter(|k| k.starts_with("VITA_SPILL_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: unset every VITA_SPILL_* variable",
            set.join(", ")
        ))
    }
}

/// A per-run scratch directory for spill files and saved repositories,
/// removed when dropped (with its parent, if nothing else is left there).
pub struct Scratch {
    parent: PathBuf,
    root: PathBuf,
}

impl Scratch {
    pub fn new(parent: &Path) -> Result<Self, String> {
        let root = parent.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(Scratch {
            parent: parent.to_path_buf(),
            root,
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(&self.parent);
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
