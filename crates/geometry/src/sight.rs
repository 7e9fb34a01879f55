//! Per-origin wall index: wall-crossing counts from one fixed point.
//!
//! The RSSI layer counts, for every measurement, the walls between a fixed
//! device and a moving object (the obstacle term `N_ob` of the path-loss
//! model, paper §3.2). [`SightIndex`] files one origin's walls by direction
//! and distance once, so a query tests only the walls that can lie between
//! the origin and the point, and returns exactly what [`count_crossings`]
//! returns over all of them.
//!
//! Why the index is exact: [`Segment::crosses`] holds only when all four of
//! its orientation tests clear [`EPS`](crate::EPS). A wall collinear with
//! the origin therefore never crosses a sight-line from it and is dropped.
//! When a wall does cross the sight-line, the crossing point lies on the
//! wall and between the origin and the point, so the point's direction
//! lies inside the wall's angular wedge and the wall's nearest distance is
//! at most the point's distance. Walls are filed into every angular bin
//! their wedge touches, padded by one bin each side against rounding, and
//! each bin is sorted by nearest distance, so a query scans one bin and
//! stops at the first wall farther away than the point.

use crate::point::{orient, Orientation, Point, Vec2};
use crate::segment::{count_crossings, Segment};

/// Angular bins around the origin.
const BINS: usize = 128;
/// Slack (metres) on a query's distance stop, covering rounding in the
/// stored nearest distances.
const DIST_PAD: f64 = 1e-6;

/// The walls seen from one origin, filed by direction and distance.
#[derive(Debug, Clone)]
pub struct SightIndex {
    origin: Point,
    /// Bin `b`'s walls are `entries[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
    /// Each bin's walls, nearest first.
    entries: Vec<Entry>,
    /// The walls that can cross a sight-line from the origin, for the
    /// directions no bin holds (zero or non-finite).
    walls: Vec<Segment>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The wall's distance from the origin at its nearest point.
    near: f64,
    wall: Segment,
}

impl SightIndex {
    /// Index `walls` as seen from `origin`.
    pub fn new(origin: Point, walls: &[Segment]) -> Self {
        let mut bins: Vec<Vec<Entry>> = vec![Vec::new(); BINS];
        let mut kept = Vec::new();
        for w in walls {
            let side = orient(w.a, w.b, origin);
            if side == Orientation::Collinear {
                continue;
            }
            kept.push(*w);
            // The wedge runs counter-clockwise from `first` to `last`, as
            // seen from the origin.
            let (first, last) = if side == Orientation::CounterClockwise {
                (w.a, w.b)
            } else {
                (w.b, w.a)
            };
            let (first, last) = (origin.to(first), origin.to(last));
            let near = w.dist_to_point(origin);
            let (lo, span, near) = match (bin_of(first), bin_of(last)) {
                (Some(lo), Some(hi)) if near.is_finite() => {
                    // The wedge's bins plus one on each side.
                    let span = (hi + BINS - lo) % BINS + 3;
                    ((lo + BINS - 1) % BINS, span.min(BINS), near)
                }
                // A wedge or distance that is not a finite number: the
                // wall goes everywhere, first.
                _ => (0, BINS, f64::NEG_INFINITY),
            };
            for k in 0..span {
                bins[(lo + k) % BINS].push(Entry { near, wall: *w });
            }
        }
        let mut starts = Vec::with_capacity(BINS + 1);
        let mut entries = Vec::with_capacity(bins.iter().map(Vec::len).sum());
        for mut bin in bins {
            bin.sort_by(|x, y| x.near.total_cmp(&y.near));
            starts.push(entries.len());
            entries.extend(bin);
        }
        starts.push(entries.len());
        SightIndex {
            origin,
            starts,
            entries,
            walls: kept,
        }
    }

    /// How many of the indexed walls the sight-line `origin → p` properly
    /// crosses; equal to `count_crossings(origin, p, walls)`. `dist` must
    /// be `origin.dist(p)`, which callers have at hand.
    pub fn count_crossings(&self, p: Point, dist: f64) -> usize {
        let Some(bin) = bin_of(self.origin.to(p)) else {
            return count_crossings(self.origin, p, &self.walls);
        };
        let sight = Segment::new(self.origin, p);
        let limit = dist + DIST_PAD;
        self.entries[self.starts[bin]..self.starts[bin + 1]]
            .iter()
            .take_while(|e| e.near <= limit)
            .filter(|e| sight.crosses(&e.wall))
            .count()
    }
}

/// The angular bin of direction `d`, from a pseudo-angle in `[0, 4)` that
/// grows monotonically with the true angle (0 along +x, 1 along +y, 2
/// along −x, 3 along −y) and needs no trigonometry. `None` for the zero
/// vector and for non-finite directions.
fn bin_of(d: Vec2) -> Option<usize> {
    let l1 = d.x.abs() + d.y.abs();
    if !(l1.is_finite() && l1 > 0.0) {
        return None;
    }
    let r = d.y / l1;
    let angle = if d.x < 0.0 {
        2.0 - r
    } else if r < 0.0 {
        4.0 + r
    } else {
        r
    };
    Some(((angle * (BINS as f64 / 4.0)) as usize).min(BINS - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// Compare the index with brute force at every point of `points`.
    fn assert_matches(origin: Point, walls: &[Segment], points: &[Point]) {
        let index = SightIndex::new(origin, walls);
        for &p in points {
            assert_eq!(
                index.count_crossings(p, origin.dist(p)),
                count_crossings(origin, p, walls),
                "origin {origin:?}, point {p:?}"
            );
        }
    }

    /// A square room around the origin with an inner partition and a wall
    /// through the origin, probed on a grid and along every axis and
    /// diagonal (bin boundaries).
    #[test]
    fn matches_brute_force_in_a_room() {
        let walls = [
            seg(-10.0, -10.0, 10.0, -10.0),
            seg(10.0, -10.0, 10.0, 10.0),
            seg(10.0, 10.0, -10.0, 10.0),
            seg(-10.0, 10.0, -10.0, -10.0),
            seg(3.0, -10.0, 3.0, 4.0),
            seg(-5.0, -5.0, 5.0, 5.0),
            seg(2.0, 2.0, 2.0, 2.0),
        ];
        let mut points = Vec::new();
        for i in -30..=30 {
            for j in -30..=30 {
                points.push(Point::new(f64::from(i) * 0.5, f64::from(j) * 0.5));
            }
        }
        for r in [0.5, 3.0, 9.999, 10.0, 10.001, 25.0] {
            for (dx, dy) in [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)] {
                points.push(Point::new(r * dx, r * dy));
                points.push(Point::new(-r * dx, -r * dy));
            }
        }
        points.push(Point::new(f64::NAN, 1.0));
        points.push(Point::new(f64::INFINITY, 3.0));
        for origin in [
            Point::new(0.0, 0.0),
            Point::new(1.0, -0.5),
            Point::new(3.0, 0.0),
        ] {
            assert_matches(origin, &walls, &points);
        }
    }

    #[test]
    fn collinear_walls_are_dropped() {
        let origin = Point::new(0.0, 0.0);
        let walls = [
            seg(1.0, 0.0, 5.0, 0.0),   // on a ray from the origin
            seg(-2.0, -2.0, 3.0, 3.0), // through the origin
            seg(0.0, 0.0, 0.0, 4.0),   // ends at the origin
            seg(2.0, 5.0, 2.0, 5.0),   // zero length
            seg(4.0, -1.0, 4.0, 1.0),
        ];
        let index = SightIndex::new(origin, &walls);
        assert_eq!(index.walls, vec![walls[4]]);
        let p = Point::new(6.0, 0.5);
        assert_eq!(index.count_crossings(p, origin.dist(p)), 1);
    }

    #[test]
    fn a_wall_with_an_infinite_end_goes_everywhere() {
        let origin = Point::new(0.0, 0.0);
        let walls = [seg(0.0, 1.0, f64::INFINITY, 1.0), seg(-1.0, 2.0, 1.0, 2.0)];
        let index = SightIndex::new(origin, &walls);
        assert!(
            index.starts.windows(2).all(|b| b[1] > b[0]),
            "a bin misses the wall"
        );
        assert_matches(
            origin,
            &walls,
            &[
                Point::new(0.5, 3.0),
                Point::new(40.0, 1.5),
                Point::new(-3.0, -3.0),
            ],
        );
    }
}
