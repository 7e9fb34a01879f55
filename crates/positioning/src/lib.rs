//! # vita-positioning
//!
//! The second half of Vita's Positioning Layer (paper §2, §3.3): derive
//! indoor positioning data from raw RSSI measurements using the three
//! typical indoor positioning methods, and evaluate it against ground truth.
//!
//! * [`trilateration`] — RSSI→distance conversion (user-definable, default
//!   provided) + least-squares circle intersection.
//! * [`fingerprint`] — offline radio-map survey at reference locations;
//!   online deterministic kNN and probabilistic Naive Bayes classifiers.
//! * [`proximity`] — threshold-based detection periods `(o, d, ts, te)`.
//! * [`pmc`] — the Positioning Method Controller: method selection, its own
//!   sampling frequency, and the device/method compatibility matrix.
//! * [`output`] — the paper's §4.2 output record formats.
//! * [`eval`] — error statistics vs the preserved ground-truth trajectories.

pub mod eval;
pub mod fingerprint;
pub mod output;
pub mod pmc;
pub mod proximity;
pub mod trilateration;

pub use eval::{evaluate_fixes, evaluate_prob_fixes, evaluate_proximity, ErrorStats};
pub use fingerprint::{
    build_radio_map, knn_fingerprint, naive_bayes_fingerprint, FingerprintConfig, RadioMap,
    RadioMapEntry, ReferenceSelection, SurveyConfig, NOT_HEARD_DBM,
};
pub use output::{Fix, PositioningData, ProbFix, ProximityRecord};
pub use pmc::{run_positioning, ChunkPositioner, MethodConfig, PmcError};
pub use proximity::{device_at, proximity_records, ProximityConfig};
pub use trilateration::{
    default_conversion, least_squares_position, trilaterate, RssiToDistance, TrilaterationConfig,
};
