//! Property-based tests over the toolkit's core invariants, spanning
//! crates. Uses proptest with deliberately modest case counts — each case
//! builds real geometry.

use proptest::prelude::*;

use vita_core::prelude::*;
use vita_geometry::{Point, Polygon};
use vita_indoor::{decompose, DecomposeParams, RoutePlanner};

fn office_env(floors: usize) -> vita_indoor::IndoorEnvironment {
    let model = vita_dbi::office(&SynthParams::with_floors(floors));
    vita_indoor::build_environment(&model, &BuildParams::default())
        .unwrap()
        .env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decomposition preserves area for arbitrary rectangles.
    #[test]
    fn decomposition_preserves_area(
        w in 2.0f64..60.0,
        h in 2.0f64..60.0,
        max_area in 20.0f64..200.0,
    ) {
        let poly = Polygon::rect(0.0, 0.0, w, h);
        let params = DecomposeParams { max_area, ..Default::default() };
        let d = decompose(&poly, &params);
        let total = d.total_area();
        prop_assert!((total - poly.area()).abs() < 1e-6 * poly.area().max(1.0));
        for cell in &d.cells {
            prop_assert!(cell.polygon.area() > 0.0);
        }
    }

    /// Uniform polygon sampling stays inside the polygon.
    #[test]
    fn polygon_sampling_contained(
        w in 1.0f64..40.0,
        h in 1.0f64..40.0,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let poly = Polygon::rect(1.0, 1.0, 1.0 + w, 1.0 + h);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let p = poly.sample_uniform(&mut rng);
            prop_assert!(poly.contains(p));
        }
    }

    /// Path-loss inversion round-trips for any positive distance and any
    /// reasonable exponent.
    #[test]
    fn path_loss_inverts(
        d in 0.2f64..80.0,
        n in 1.5f64..5.0,
        a in -70.0f64..-30.0,
    ) {
        let model = PathLossModel {
            exponent: n,
            wall_attenuation_dbm: 0.0,
            fluctuation: NoiseModel::None,
        };
        let rssi = model.mean_rssi(d, a, 0, 0.0);
        let back = model.invert(rssi, a);
        prop_assert!((back - d).abs() < 1e-6 * d.max(1.0), "d={d} back={back}");
    }

    /// Codec round-trips arbitrary trajectory rows.
    #[test]
    fn codec_round_trips(rows in proptest::collection::vec(
        (0u32..500, 0u32..4, -500.0f64..500.0, -500.0f64..500.0, 0u64..10_000_000),
        0..50,
    )) {
        let samples: Vec<vita_mobility::TrajectorySample> = rows
            .iter()
            .map(|(o, f, x, y, t)| vita_mobility::TrajectorySample::new(
                ObjectId(*o),
                BuildingId(0),
                FloorId(*f),
                Point::new(*x, *y),
                Timestamp(*t),
            ))
            .collect();
        let encoded = vita_storage::encode_runs(&[(vita_storage::RunId::DEFAULT, &samples[..])]);
        let decoded: Vec<vita_mobility::TrajectorySample> =
            vita_storage::decode_runs(&encoded).unwrap().into_iter().flat_map(|(_, rows)| rows).collect();
        prop_assert_eq!(decoded, samples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Indoor routing between random indoor points always succeeds on a
    /// single-floor office (no directional doors), is at least Euclidean,
    /// and is symmetric.
    #[test]
    fn routing_invariants(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let env = office_env(1);
        let planner = RoutePlanner::new(&env);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pick = |rng: &mut rand::rngs::StdRng| -> Point {
            let parts = env.partitions();
            let p = &parts[rng.gen_range(0..parts.len())];
            vita_geometry::PolygonSampler::new(&p.polygon).sample(rng)
        };
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let f = FloorId(0);
        let dab = planner.distance((f, a), (f, b)).unwrap();
        let dba = planner.distance((f, b), (f, a)).unwrap();
        prop_assert!(dab >= a.dist(b) - 1e-9);
        prop_assert!((dab - dba).abs() < 1e-6);
    }

    /// Every trajectory sample of a generation run lies indoors, for
    /// arbitrary seeds.
    #[test]
    fn generated_samples_always_indoors(seed in 0u64..200) {
        let env = office_env(2);
        let cfg = MobilityConfig {
            object_count: 4,
            duration: Timestamp(20_000),
            lifespan: LifespanConfig { min: Timestamp(20_000), max: Timestamp(20_000) },
            seed,
            ..Default::default()
        };
        let res = vita_mobility::generate(&env, &cfg).unwrap();
        for (_, tr) in res.trajectories.iter() {
            for s in tr.samples() {
                prop_assert!(env.locate(s.floor(), s.point()).is_some());
            }
        }
    }

    /// Least-squares trilateration recovers any target inside a well-spread
    /// anchor ring given perfect ranges.
    #[test]
    fn trilateration_exact_with_perfect_ranges(
        x in 2.0f64..18.0,
        y in 2.0f64..13.0,
    ) {
        let target = Point::new(x, y);
        let anchors: Vec<(Point, f64)> = [
            Point::new(0.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(0.0, 15.0),
            Point::new(20.0, 15.0),
            Point::new(10.0, 7.5),
        ]
        .iter()
        .map(|&p| (p, p.dist(target)))
        .collect();
        let est = vita_positioning::least_squares_position(&anchors).unwrap();
        prop_assert!(est.dist(target) < 1e-6);
    }
}
