//! # vita-core
//!
//! The Vita toolkit: "a generic, user-configurable toolkit for generating
//! different types of indoor mobility data for real-world buildings"
//! (Li et al., PVLDB 9(13), 2016).
//!
//! This crate is the facade over the whole system (paper Fig. 2):
//!
//! * **Interface** — the DBI Processor lives in `vita-dbi`; the
//!   Configuration Loader is [`props`] + [`config`] (properties files, as in
//!   the paper's §5 demo).
//! * **Producer** — the three layers, orchestrated by [`pipeline::Vita`]:
//!   Infrastructure (`vita-indoor` + `vita-devices`), Moving Object
//!   (`vita-mobility`), Positioning (`vita-rssi` + `vita-positioning`).
//! * **Storage** — `vita-storage`, wired into the pipeline.
//! * [`render`] — ASCII/SVG floor plans standing in for the GUI (Fig. 3/4).
//!
//! ## Quickstart
//!
//! ```
//! use vita_core::prelude::*;
//!
//! // 1. A DBI file (here: synthesized office; real files parse the same way).
//! let dbi_text = vita_dbi::write_step(&vita_dbi::office(&vita_dbi::SynthParams::with_floors(2)));
//! let mut vita = Vita::from_dbi_text(&dbi_text, &BuildParams::default()).unwrap();
//!
//! // 3. Deploy Wi-Fi access points with the coverage model.
//! vita.deploy_devices(
//!     DeviceSpec::default_for(DeviceType::WiFi),
//!     FloorId(0),
//!     DeploymentModel::Coverage,
//!     8,
//! );
//!
//! // 4. Generate moving objects (ground-truth trajectories).
//! let mob = MobilityConfig {
//!     object_count: 5,
//!     duration: Timestamp(30_000),
//!     lifespan: LifespanConfig { min: Timestamp(30_000), max: Timestamp(30_000) },
//!     ..Default::default()
//! };
//! vita.generate_objects(&mob).unwrap();
//!
//! // 5. Raw RSSI, 6. positioning data.
//! vita.generate_rssi(&RssiConfig { duration: Timestamp(30_000), ..Default::default() }).unwrap();
//! let fixes = vita.run_positioning(&MethodConfig::Trilateration {
//!     config: TrilaterationConfig::default(),
//!     conversion_model: PathLossModel::default(),
//! }).unwrap();
//! assert!(!fixes.is_empty());
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod pipeline;
pub mod props;
pub mod render;

pub use config::{
    load_method, load_mobility, load_rssi, load_scenario, load_stream_options, ConfigLoadError,
};
pub use pipeline::{
    derive_run_seed, PipelineReport, ScenarioConfig, StreamOptions, Vita, VitaError,
};
pub use props::{Properties, PropsError};
pub use render::{ascii_floor, svg_floor, Overlay};
pub use vita_storage::{RunId, RunScope, StorageBackend, TableCounts};

/// Convenient glob import for toolkit users.
pub mod prelude {
    pub use crate::pipeline::{
        derive_run_seed, PipelineReport, ScenarioConfig, StreamOptions, Vita, VitaError,
    };
    pub use crate::props::Properties;
    pub use crate::render::{ascii_floor, svg_floor, Overlay};
    pub use vita_dbi::SynthParams;
    pub use vita_devices::{DeploymentModel, DeviceSpec, DeviceType};
    pub use vita_indoor::{
        BuildParams, BuildingId, DeviceId, FloorId, Hz, Loc, ObjectId, RoutingSchema, RunId,
        Timestamp,
    };
    pub use vita_mobility::{
        Behavior, InitialDistribution, Intention, LifespanConfig, MobilityConfig, MovingPattern,
    };
    pub use vita_positioning::{
        ErrorStats, FingerprintConfig, MethodConfig, PositioningData, ProximityConfig,
        SurveyConfig, TrilaterationConfig,
    };
    pub use vita_rssi::{NoiseModel, PathLossModel, RssiConfig};
    pub use vita_storage::{RunScope, StorageBackend, TableCounts};
}
