//! # vita-devices
//!
//! Positioning devices and deployment models: the Positioning Device
//! Controller of the Infrastructure Layer (paper §2).
//!
//! "The Positioning Device Controller allows a user to configure the
//! devices' number, deployed locations, type, and other type-dependent
//! properties (e.g., the detection range of RFID readers)."
//!
//! Two deployment models (paper §3.2, Fig. 3):
//!
//! * [`DeploymentModel::Coverage`] — "devices should be close to the wall to
//!   get power supply and they should be separate from each other to have
//!   maximum signal coverage" (how access points are installed).
//! * [`DeploymentModel::CheckPoint`] — "devices are deployed at entrances to
//!   rooms and/or hotspots in large rooms".
//!
//! Devices may also be placed manually with [`DeviceRegistry::place`].

pub mod deploy;
pub mod spec;

pub use deploy::{coverage_fraction, deploy, CoverageStats, DeploymentModel};
pub use spec::{Device, DeviceRegistry, DeviceSpec, DeviceType};
