//! # vita-geometry
//!
//! Planar geometry kernel for the Vita indoor mobility data generator.
//!
//! Everything Vita does — constructing indoor environments from DBI files,
//! decomposing irregular partitions, routing objects, counting the walls a
//! radio signal passes through — reduces to a small set of 2-D primitives and
//! two spatial indexes, which live here:
//!
//! * [`Point`], [`Vec2`], [`Point3`] — points and displacements (metres).
//! * [`Segment`] — walls, door sills, sight-lines; intersection and
//!   line-of-sight predicates ([`line_of_sight`], [`count_crossings`]).
//! * [`Polygon`] — footprints; containment, triangulation, uniform sampling,
//!   half-plane clipping and line splits used by partition decomposition.
//! * [`SightIndex`] — one origin's walls filed by direction and distance,
//!   for repeated crossing counts from a fixed device.
//! * [`Aabb`] — bounding boxes.
//! * [`GridIndex`] — rebuild-friendly uniform grid for dynamic data.
//! * [`RTree`] — STR bulk-loaded R-tree for static building geometry.
//!
//! The crate is dependency-light (only `rand`, for polygon sampling) and
//! fully deterministic given a seeded RNG.

pub mod bbox;
pub mod grid;
pub mod point;
pub mod polygon;
pub mod rtree;
pub mod segment;
pub mod sight;

pub use bbox::Aabb;
pub use grid::GridIndex;
pub use point::{orient, Orientation, Point, Point3, Vec2, EPS};
pub use polygon::{Polygon, PolygonError, PolygonSampler};
pub use rtree::RTree;
pub use segment::{count_crossings, line_of_sight, Segment};
pub use sight::SightIndex;
