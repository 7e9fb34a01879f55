//! Field access shared by both storage backends: the reference
//! [`Table`](crate::table::Table) scans rows through it, and the
//! segmented engine ([`crate::segment`]) builds its sections and indexes
//! through it.

use vita_geometry::Point;
use vita_indoor::{DeviceId, FloorId, LocKind, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;

use crate::codec::WireRecord;

/// Field access the generic tables need from a product row.
/// [`WireRecord`] rides along so any table can spill its sealed segments
/// through the segment codec. `pub` so that [`Table`](crate::table::Table)'s
/// public methods may carry it as a bound; the module is private, so no
/// type outside this crate can implement it.
pub trait SegmentRow: WireRecord {
    fn time(&self) -> Timestamp;
    fn object(&self) -> Option<ObjectId>;
    fn device(&self) -> Option<DeviceId>;
    fn floor_point(&self) -> Option<(FloorId, Point)>;
}

impl SegmentRow for TrajectorySample {
    fn time(&self) -> Timestamp {
        self.t
    }
    fn object(&self) -> Option<ObjectId> {
        Some(self.object)
    }
    fn device(&self) -> Option<DeviceId> {
        None
    }
    fn floor_point(&self) -> Option<(FloorId, Point)> {
        match self.loc.kind {
            LocKind::Point(p) => Some((self.loc.floor, p)),
            _ => None,
        }
    }
}

impl SegmentRow for RssiMeasurement {
    fn time(&self) -> Timestamp {
        self.t
    }
    fn object(&self) -> Option<ObjectId> {
        Some(self.object)
    }
    fn device(&self) -> Option<DeviceId> {
        Some(self.device)
    }
    fn floor_point(&self) -> Option<(FloorId, Point)> {
        None
    }
}

impl SegmentRow for Fix {
    fn time(&self) -> Timestamp {
        self.t
    }
    fn object(&self) -> Option<ObjectId> {
        Some(self.object)
    }
    fn device(&self) -> Option<DeviceId> {
        None
    }
    fn floor_point(&self) -> Option<(FloorId, Point)> {
        match self.loc.kind {
            LocKind::Point(p) => Some((self.loc.floor, p)),
            _ => None,
        }
    }
}

impl SegmentRow for ProximityRecord {
    fn time(&self) -> Timestamp {
        self.ts
    }
    fn object(&self) -> Option<ObjectId> {
        Some(self.object)
    }
    fn device(&self) -> Option<DeviceId> {
        Some(self.device)
    }
    fn floor_point(&self) -> Option<(FloorId, Point)> {
        None
    }
}
