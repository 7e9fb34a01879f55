//! # vita-mobility
//!
//! The Moving Object Layer (paper §2, §3.1): generates indoor moving objects
//! and their raw ("ground truth") trajectory data.
//!
//! * [`config`] — every knob the paper names: object count, speed range,
//!   initial distribution (uniform / crowd-outliers), lifespans and Poisson
//!   arrivals, moving pattern (intention × routing × behavior), and the
//!   trajectory sampling frequency.
//! * [`distribution`] — initial placement models.
//! * [`engine`] — the deterministic, parallel simulation that turns a
//!   configuration into trajectories.
//! * [`trajectory`] — the `(o_id, loc, t)` record format (paper §4.2) with
//!   interpolation helpers used for ground-truth comparison.

pub mod config;
pub mod distribution;
pub mod engine;
pub mod trajectory;

pub use config::{
    ArrivalProcess, Behavior, ConfigError, EmergingLocation, InitialDistribution, Intention,
    LifespanConfig, MobilityConfig, MovingPattern,
};
pub use distribution::{
    initial_positions, point_in_partition, uniform_point, InitialPlacement, Placement,
};
pub use engine::{
    generate, generate_streaming, ChunkStreaming, GenerationResult, GenerationStats,
    StreamedGeneration, TrajectoryChunk, DEFAULT_CHUNK_CHANNEL_CAPACITY,
};
pub use trajectory::{Trajectory, TrajectorySample, TrajectoryStore};
