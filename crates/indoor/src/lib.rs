//! # vita-indoor
//!
//! The host indoor environment for the Vita toolkit: the output of the
//! Infrastructure Layer's Indoor Environment Controller (paper §2) and the
//! geometric/topological substrate that the Moving Object and Positioning
//! layers consume.
//!
//! * [`types`] — identifier newtypes, the paper's `loc` format ([`Loc`]),
//!   time and sampling-frequency types shared across all layers.
//! * [`model`] — floors, partitions, doors (with directionality), staircases,
//!   user-deployed obstacles, and the spatially indexed
//!   [`IndoorEnvironment`].
//! * [`build`] — construct the environment from a decoded DBI model,
//!   including door-connectivity and staircase resolution (paper §4.1).
//! * [`mod@decompose`] — balanced decomposition of irregular partitions.
//! * [`semantics`] — empirical-rule semantic extraction.
//! * [`graph`] / [`route`] — the accessibility graph and the two routing
//!   schemas (minimum walking distance, minimum walking time; paper §3.1).

pub mod build;
pub mod decompose;
pub mod graph;
pub mod model;
pub mod route;
pub mod semantics;
pub mod types;

pub use build::{build_environment, BuildError, BuildParams, BuildWarning, Built};
pub use decompose::{decompose, DecomposeParams, Decomposition};
pub use graph::{Anchor, Edge, IndoorGraph, Medium, ShortestPaths};
pub use model::{
    Door, DoorDirection, DoorKind, EnvSummary, Floor, IndoorEnvironment, Obstacle, Partition,
    Staircase,
};
pub use route::{Route, RouteError, RoutePlanner, RoutingSchema, SpeedProfile, Waypoint};
pub use semantics::{classify, default_rules, Semantic, SemanticRule};
pub use types::{
    BuildingId, DeviceId, DoorId, FloorId, Hz, Loc, LocKind, ObjectId, ObstacleId, PartitionId,
    RunId, StairId, Timestamp,
};
