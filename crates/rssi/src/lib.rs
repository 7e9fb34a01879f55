//! # vita-rssi
//!
//! Raw RSSI measurement generation: the first half of Vita's Positioning
//! Layer (paper §2, §3.2).
//!
//! * [`model`] — the paper's path-loss model
//!   `rssi = −10·n·log10(dt) + A + N_ob + N_f`, with configurable exponent,
//!   per-wall attenuation (obstacles between device and object are counted
//!   geometrically, reproducing Fig. 3(a)'s d1/d2 asymmetry), and
//!   fluctuation noise models.
//! * [`generate`] — the RSSI Measurement Controller: sampling every device
//!   against every trajectory at the configured frequency, one grid of
//!   devices at a time, emitting each trajectory's measurements in
//!   `(t, device)` order per grid.
//! * [`store`] — the `(o_id, d_id, rssi)` record format (§4.2) with
//!   time-window queries used by the positioning methods.

pub mod generate;
pub mod model;
pub mod store;

pub use generate::{
    generate_rssi, measurements_per_device, measurements_per_object, RssiConfig, RssiGenerator,
};
pub use model::{gaussian, NoiseModel, PathLossModel};
pub use store::{RssiMeasurement, RssiStore};
