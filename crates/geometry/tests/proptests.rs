//! Property-based tests for the geometry kernel: the invariants every
//! upper layer silently relies on.

use proptest::prelude::*;

use vita_geometry::{
    count_crossings, Aabb, GridIndex, Point, Polygon, PolygonSampler, RTree, Segment, SightIndex,
    Vec2,
};

fn pt() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ── points & vectors ────────────────────────────────────────────────

    #[test]
    fn distance_is_a_metric(a in pt(), b in pt(), c in pt()) {
        prop_assert!(a.dist(b) >= 0.0);
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        prop_assert!(a.dist(a) < 1e-12);
    }

    #[test]
    fn lerp_stays_on_segment(a in pt(), b in pt(), t in 0.0f64..1.0) {
        let p = a.lerp(b, t);
        let seg = Segment::new(a, b);
        prop_assert!(seg.dist_to_point(p) < 1e-6);
    }

    #[test]
    fn rotation_preserves_norm_and_dot(
        x in -50.0f64..50.0, y in -50.0f64..50.0, theta in -6.3f64..6.3,
    ) {
        let v = Vec2::new(x, y);
        let r = v.rotated(theta);
        prop_assert!((r.norm() - v.norm()).abs() < 1e-6);
    }

    // ── segments ────────────────────────────────────────────────────────

    #[test]
    fn segment_intersection_is_symmetric(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        prop_assert_eq!(s1.crosses(&s2), s2.crosses(&s1));
        // A proper crossing is always an intersection.
        if s1.crosses(&s2) {
            prop_assert!(s1.intersects(&s2));
        }
    }

    #[test]
    fn closest_point_is_on_segment_and_optimal(a in pt(), b in pt(), p in pt()) {
        let seg = Segment::new(a, b);
        let cp = seg.closest_point(p);
        prop_assert!(seg.dist_to_point(cp) < 1e-6);
        // No endpoint is closer.
        prop_assert!(cp.dist(p) <= a.dist(p) + 1e-9);
        prop_assert!(cp.dist(p) <= b.dist(p) + 1e-9);
        // Midpoint is not closer either (convexity check at one sample).
        prop_assert!(cp.dist(p) <= seg.midpoint().dist(p) + 1e-9);
    }

    #[test]
    fn crossing_count_symmetric_in_endpoints(a in pt(), b in pt()) {
        let walls = vec![
            Segment::new(Point::new(0.0, -200.0), Point::new(0.0, 200.0)),
            Segment::new(Point::new(-200.0, 0.0), Point::new(200.0, 0.0)),
        ];
        prop_assert_eq!(count_crossings(a, b, &walls), count_crossings(b, a, &walls));
    }

    #[test]
    fn sight_index_matches_brute_force(
        origin in pt(),
        raw in prop::collection::vec((pt(), pt(), 0u32..6), 1..40),
        probes in prop::collection::vec(pt(), 1..60),
    ) {
        let walls: Vec<Segment> = raw
            .iter()
            .map(|&(a, b, kind)| {
                let d = origin.to(a);
                match kind {
                    // Zero length; through the origin; ending at it; on a
                    // ray from it; anywhere.
                    0 => Segment::new(a, a),
                    1 => Segment::new(a, origin + d * -0.5),
                    2 => Segment::new(origin, a),
                    3 => Segment::new(origin + d * 0.5, origin + d * 2.0),
                    _ => Segment::new(a, b),
                }
            })
            .collect();
        let index = SightIndex::new(origin, &walls);
        // Endpoints, midpoints, collinear points, and just beyond each
        // midpoint as seen from the origin.
        let special = walls.iter().flat_map(|w| {
            let beyond = origin + origin.to(w.midpoint()) * 1.01;
            [w.a, w.b, w.midpoint(), w.at(-0.5), w.at(1.5), beyond]
        });
        for p in probes.iter().copied().chain(special).chain([origin]) {
            prop_assert_eq!(
                index.count_crossings(p, origin.dist(p)),
                count_crossings(origin, p, &walls)
            );
        }
    }

    // ── boxes ───────────────────────────────────────────────────────────

    #[test]
    fn union_contains_both(a1 in pt(), a2 in pt(), b1 in pt(), b2 in pt()) {
        let a = Aabb::new(a1, a2);
        let b = Aabb::new(b1, b2);
        let u = a.union(&b);
        prop_assert!(u.contains_box(&a));
        prop_assert!(u.contains_box(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn intersection_within_both(a1 in pt(), a2 in pt(), b1 in pt(), b2 in pt()) {
        let a = Aabb::new(a1, a2);
        let b = Aabb::new(b1, b2);
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.intersects(&b));
            prop_assert!(i.area() <= a.area() + 1e-9);
            prop_assert!(i.area() <= b.area() + 1e-9);
        }
    }

    #[test]
    fn box_distance_zero_iff_contains(a1 in pt(), a2 in pt(), p in pt()) {
        let b = Aabb::new(a1, a2);
        if b.contains_point(p) {
            prop_assert_eq!(b.dist_to_point(p), 0.0);
        } else {
            prop_assert!(b.dist_to_point(p) > 0.0);
        }
    }

    // ── polygons ────────────────────────────────────────────────────────

    #[test]
    fn rect_contains_its_samples(
        x0 in -50.0f64..50.0, y0 in -50.0f64..50.0,
        w in 0.5f64..40.0, h in 0.5f64..40.0,
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        let poly = Polygon::rect(x0, y0, x0 + w, y0 + h);
        let sampler = PolygonSampler::new(&poly);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            prop_assert!(poly.contains(sampler.sample(&mut rng)));
        }
    }

    #[test]
    fn split_conserves_area_and_pieces_are_disjointly_contained(
        w in 1.0f64..40.0, h in 1.0f64..40.0, frac in 0.1f64..0.9,
    ) {
        let poly = Polygon::rect(0.0, 0.0, w, h);
        let (l, r) = poly.split_vertical(w * frac);
        let (l, r) = (l.unwrap(), r.unwrap());
        prop_assert!((l.area() + r.area() - poly.area()).abs() < 1e-6);
        // Pieces live inside the original bbox.
        prop_assert!(poly.bbox().contains_box(&l.bbox()));
        prop_assert!(poly.bbox().contains_box(&r.bbox()));
    }

    #[test]
    fn triangulation_area_matches_for_regular_ngons(
        n in 3usize..24, r in 0.5f64..30.0,
    ) {
        let poly = Polygon::regular(Point::new(0.0, 0.0), r, n).unwrap();
        let tri_area: f64 = poly
            .triangulate()
            .iter()
            .map(|t| (t[0].to(t[1]).cross(t[0].to(t[2])) / 2.0).abs())
            .sum();
        prop_assert!((tri_area - poly.area()).abs() < 1e-6 * poly.area());
    }

    #[test]
    fn centroid_inside_convex_polygon(n in 3usize..16, r in 0.5f64..30.0) {
        let poly = Polygon::regular(Point::new(5.0, -3.0), r, n).unwrap();
        prop_assert!(poly.contains(poly.centroid()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ── spatial indexes vs brute force ──────────────────────────────────

    #[test]
    fn rtree_matches_brute_force(
        pts in proptest::collection::vec(pt(), 1..120),
        q1 in pt(), q2 in pt(),
    ) {
        let entries: Vec<(u32, Aabb)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, Aabb::from_point(p)))
            .collect();
        let tree = RTree::bulk_load(entries.clone());
        let q = Aabb::new(q1, q2);
        let mut got = tree.query_bbox(&q);
        got.sort_unstable();
        let mut want: Vec<u32> = entries
            .iter()
            .filter(|(_, b)| b.intersects(&q))
            .map(|(i, _)| *i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        // Nearest-1 agrees with linear scan.
        let probe = q1;
        let nearest = tree.nearest(probe, 1);
        let brute = pts
            .iter()
            .map(|p| p.dist(probe))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((nearest[0].1 - brute).abs() < 1e-9);
    }

    #[test]
    fn grid_matches_brute_force(
        pts in proptest::collection::vec(pt(), 1..120),
        center in pt(), radius in 0.5f64..80.0,
    ) {
        let domain = Aabb::new(Point::new(-100.0, -100.0), Point::new(100.0, 100.0));
        let mut grid = GridIndex::new(domain, 7.0);
        for (i, &p) in pts.iter().enumerate() {
            grid.insert_point(i as u32, p);
        }
        let mut got = grid.query_radius(center, radius);
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(center) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
