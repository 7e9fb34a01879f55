//! Core domain types shared by every Vita layer: identifiers, locations and
//! time.
//!
//! Identifier newtypes follow the paper's data formats (§4.2): a location
//! `loc` "consists of two parts, the former refers to a buildingID + a
//! floorID, the latter can be either a partitionID or a coordinate point."

use std::fmt;

use vita_geometry::Point;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_newtype!(
    /// A building in the host environment.
    BuildingId
);
id_newtype!(
    /// A floor (storey) within a building; ordered by elevation.
    FloorId
);
id_newtype!(
    /// A partition: a room, hallway cell, or decomposed sub-cell.
    PartitionId
);
id_newtype!(
    /// A door or open boundary between partitions.
    DoorId
);
id_newtype!(
    /// A staircase connecting partitions on two floors.
    StairId
);
id_newtype!(
    /// A user-deployed obstacle.
    ObstacleId
);
id_newtype!(
    /// A positioning device (Wi-Fi AP, BLE beacon, RFID reader).
    DeviceId
);
id_newtype!(
    /// A moving object.
    ObjectId
);
id_newtype!(
    /// One generation run (scenario execution) within a shared repository.
    ///
    /// The storage layer tags every ingested row with the run that produced
    /// it, so several scenarios can flow through one toolkit/repository
    /// concurrently and still be queried in isolation. Single-run ingestion
    /// uses [`RunId::DEFAULT`].
    RunId
);

impl RunId {
    /// The run every untagged ingestion path writes under (run 0). A
    /// repository that only ever saw single-run ingestion has exactly this
    /// run.
    pub const DEFAULT: RunId = RunId(0);
}

/// Within-floor location payload: symbolic partition or exact coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocKind {
    /// Symbolic: somewhere in this partition.
    Partition(PartitionId),
    /// Exact coordinate point in the floor's local frame.
    Point(Point),
}

/// A full indoor location per the paper's record format (§4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Loc {
    pub building: BuildingId,
    pub floor: FloorId,
    pub kind: LocKind,
}

impl Loc {
    /// Exact-point location.
    pub fn point(building: BuildingId, floor: FloorId, p: Point) -> Self {
        Loc {
            building,
            floor,
            kind: LocKind::Point(p),
        }
    }

    /// Symbolic partition location.
    pub fn partition(building: BuildingId, floor: FloorId, pid: PartitionId) -> Self {
        Loc {
            building,
            floor,
            kind: LocKind::Partition(pid),
        }
    }

    /// The coordinate point, when this location is exact.
    pub fn as_point(&self) -> Option<Point> {
        match self.kind {
            LocKind::Point(p) => Some(p),
            LocKind::Partition(_) => None,
        }
    }

    /// The partition id, when this location is symbolic.
    pub fn as_partition(&self) -> Option<PartitionId> {
        match self.kind {
            LocKind::Partition(pid) => Some(pid),
            LocKind::Point(_) => None,
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LocKind::Partition(pid) => {
                write!(f, "B{}/F{}/{}", self.building.0, self.floor.0, pid)
            }
            LocKind::Point(p) => write!(f, "B{}/F{}/{}", self.building.0, self.floor.0, p),
        }
    }
}

/// Milliseconds since the start of the generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);

    pub fn from_secs_f64(s: f64) -> Self {
        Timestamp((s.max(0.0) * 1000.0).round() as u64)
    }

    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    pub fn as_millis(&self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration in milliseconds.
    pub fn advance(&self, ms: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(ms))
    }

    /// Elapsed milliseconds since `earlier` (0 when `earlier` is later).
    pub fn since(&self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A sampling frequency. Both the Moving Object Layer (trajectory sampling)
/// and the Positioning Layer (positioning sampling) are parameterized by one
/// of these, independently (paper §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hz(pub f64);

impl Hz {
    /// Sampling period in milliseconds (clamped to at least 1 ms);
    /// `u64::MAX`, never, for a rate that is not positive or is NaN.
    /// Only rates [`Hz::is_valid`] accepts have a period of their own:
    /// past 1000 Hz every rate clamps to 1 ms.
    pub fn period_ms(&self) -> u64 {
        if self.0.is_nan() || self.0 <= 0.0 {
            u64::MAX
        } else {
            ((1000.0 / self.0).round() as u64).max(1)
        }
    }

    /// Whether the rate is supported: in (0, 1000] Hz. Timestamps are
    /// whole milliseconds, so 1000 Hz is the finest sampling grid.
    pub fn is_valid(&self) -> bool {
        self.0 > 0.0 && self.0 <= 1000.0
    }
}

impl fmt::Display for Hz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Hz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_newtypes_are_distinct_types_with_display() {
        let f = FloorId(2);
        let p = PartitionId(7);
        assert_eq!(f.to_string(), "FloorId2");
        assert_eq!(p.to_string(), "PartitionId7");
        assert_eq!(f.index(), 2);
        assert_eq!(PartitionId::from(9u32), PartitionId(9));
    }

    #[test]
    fn loc_accessors() {
        let l1 = Loc::point(BuildingId(0), FloorId(1), Point::new(2.0, 3.0));
        assert!(l1.as_point().is_some());
        assert!(l1.as_partition().is_none());
        let l2 = Loc::partition(BuildingId(0), FloorId(1), PartitionId(4));
        assert_eq!(l2.as_partition(), Some(PartitionId(4)));
        assert!(l2.as_point().is_none());
        assert!(l2.to_string().contains("PartitionId4"));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs_f64(1.5);
        assert_eq!(t.as_millis(), 1500);
        assert_eq!(t.advance(500).as_secs_f64(), 2.0);
        assert_eq!(t.advance(500).since(t), 500);
        assert_eq!(t.since(t.advance(500)), 0);
    }

    #[test]
    fn hz_period() {
        assert_eq!(Hz(1.0).period_ms(), 1000);
        assert_eq!(Hz(10.0).period_ms(), 100);
        assert_eq!(Hz(0.5).period_ms(), 2000);
        assert_eq!(Hz(0.0).period_ms(), u64::MAX);
        assert_eq!(Hz(f64::NAN).period_ms(), u64::MAX);
        assert!(!Hz(0.0).is_valid());
        assert!(!Hz(f64::NAN).is_valid());
        assert!(Hz(2.0).is_valid());
        assert!(Hz(1000.0).is_valid());
        assert_eq!(Hz(1000.0).period_ms(), 1);
        // Faster rates would clamp to the same 1 ms grid, so they are
        // rejected rather than silently sampled every millisecond.
        assert_eq!(Hz(5000.0).period_ms(), 1);
        for hz in [1000.5, 5000.0, 1e9, f64::INFINITY] {
            assert!(!Hz(hz).is_valid(), "{hz}");
        }
    }
}
