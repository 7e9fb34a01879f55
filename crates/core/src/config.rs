//! The Configuration Loader: maps properties files onto the typed
//! configurations of every layer (paper Fig. 2: "The Configuration Loader
//! allows one to directly edit the parameters for data generation").
//!
//! Key schema (all optional — defaults mirror each layer's `Default`):
//!
//! ```text
//! # Moving Object Layer
//! objects.count, objects.min_speed, objects.max_speed
//! objects.distribution = uniform | crowd-outliers
//! objects.crowds, objects.crowd_fraction, objects.crowd_radius
//! objects.lifespan_min_s, objects.lifespan_max_s
//! objects.arrival_rate_per_min          (0 disables arrivals)
//! objects.emerging = entrances | anywhere
//! pattern.intention = destination | random-way
//! pattern.routing = min-distance | min-time
//! pattern.behavior = continuous | walk-stay
//! pattern.stay_min_s, pattern.stay_max_s, pattern.pause_prob
//! trajectory.hz
//! run.duration_s, run.seed
//!
//! # Positioning Layer — RSSI
//! rssi.exponent, rssi.wall_attenuation_dbm
//! rssi.noise = none | gaussian | uniform
//! rssi.noise_sigma, rssi.noise_half_width
//! rssi.hz                               (override; absent = device rate)
//!
//! # Positioning Layer — method
//! positioning.method = trilateration | fingerprint-knn | fingerprint-bayes | proximity
//! positioning.hz, positioning.window_ms
//! trilateration.min_devices
//! fingerprint.grid_spacing, fingerprint.samples_per_location, fingerprint.k
//! fingerprint.top_candidates, fingerprint.floor
//! proximity.rssi_threshold_dbm          (absent = no threshold)
//! proximity.gap_grace
//!
//! # Streaming pipeline + Storage
//! stream.workers, stream.channel_capacity
//! storage.backend = single | segmented | segmented-spill(BUDGET_ROWS)
//! ```

use vita_indoor::{FloorId, Hz, RoutingSchema, Timestamp};
use vita_mobility::{
    ArrivalProcess, Behavior, EmergingLocation, InitialDistribution, Intention, LifespanConfig,
    MobilityConfig, MovingPattern,
};
use vita_positioning::{
    FingerprintConfig, MethodConfig, ProximityConfig, ReferenceSelection, SurveyConfig,
    TrilaterationConfig,
};
use vita_rssi::{NoiseModel, PathLossModel, RssiConfig};

use crate::pipeline::{ScenarioConfig, StreamOptions};
use crate::props::{Properties, PropsError};
use vita_storage::StorageBackend;

/// Configuration errors: property-level plus enum-value problems.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigLoadError {
    Props(PropsError),
    UnknownVariant { key: &'static str, value: String },
}

impl std::fmt::Display for ConfigLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigLoadError::Props(e) => write!(f, "{e}"),
            ConfigLoadError::UnknownVariant { key, value } => {
                write!(f, "unknown value '{value}' for '{key}'")
            }
        }
    }
}

impl std::error::Error for ConfigLoadError {}

impl From<PropsError> for ConfigLoadError {
    fn from(e: PropsError) -> Self {
        ConfigLoadError::Props(e)
    }
}

/// Load the Moving Object Layer configuration.
pub fn load_mobility(p: &Properties) -> Result<MobilityConfig, ConfigLoadError> {
    let d = MobilityConfig::default();

    let distribution = match p.str_or("objects.distribution", "uniform") {
        "uniform" => InitialDistribution::Uniform,
        "crowd-outliers" => InitialDistribution::CrowdOutliers {
            crowds: p.usize_or("objects.crowds", 3)?,
            crowd_fraction: p.f64_or("objects.crowd_fraction", 0.8)?,
            crowd_radius: p.f64_or("objects.crowd_radius", 4.0)?,
        },
        other => {
            return Err(ConfigLoadError::UnknownVariant {
                key: "objects.distribution",
                value: other.to_string(),
            })
        }
    };

    let intention = match p.str_or("pattern.intention", "destination") {
        "destination" => Intention::Destination,
        "random-way" => Intention::RandomWay,
        other => {
            return Err(ConfigLoadError::UnknownVariant {
                key: "pattern.intention",
                value: other.to_string(),
            })
        }
    };

    let routing = match p.str_or("pattern.routing", "min-distance") {
        "min-distance" => RoutingSchema::MinDistance,
        "min-time" => RoutingSchema::min_time_default(),
        other => {
            return Err(ConfigLoadError::UnknownVariant {
                key: "pattern.routing",
                value: other.to_string(),
            })
        }
    };

    let behavior = match p.str_or("pattern.behavior", "walk-stay") {
        "continuous" => Behavior::ContinuousWalk,
        "walk-stay" => Behavior::WalkStay {
            stay_min: Timestamp::from_secs_f64(p.f64_or("pattern.stay_min_s", 10.0)?),
            stay_max: Timestamp::from_secs_f64(p.f64_or("pattern.stay_max_s", 60.0)?),
            pause_on_path_prob: p.f64_or("pattern.pause_prob", 0.1)?,
        },
        other => {
            return Err(ConfigLoadError::UnknownVariant {
                key: "pattern.behavior",
                value: other.to_string(),
            })
        }
    };

    let arrival_rate = p.f64_or("objects.arrival_rate_per_min", 0.0)?;
    let arrivals = if arrival_rate > 0.0 {
        ArrivalProcess::Poisson {
            rate_per_min: arrival_rate,
        }
    } else {
        ArrivalProcess::None
    };

    let emerging = match p.str_or("objects.emerging", "entrances") {
        "entrances" => EmergingLocation::Entrances,
        "anywhere" => EmergingLocation::Anywhere,
        other => {
            return Err(ConfigLoadError::UnknownVariant {
                key: "objects.emerging",
                value: other.to_string(),
            })
        }
    };

    Ok(MobilityConfig {
        object_count: p.usize_or("objects.count", d.object_count)?,
        min_speed: p.f64_or("objects.min_speed", d.min_speed)?,
        max_speed: p.f64_or("objects.max_speed", d.max_speed)?,
        distribution,
        lifespan: LifespanConfig {
            min: Timestamp::from_secs_f64(p.f64_or("objects.lifespan_min_s", 300.0)?),
            max: Timestamp::from_secs_f64(p.f64_or("objects.lifespan_max_s", 900.0)?),
        },
        arrivals,
        emerging,
        pattern: MovingPattern {
            intention,
            routing,
            behavior,
        },
        trajectory_hz: Hz(p.f64_or("trajectory.hz", 1.0)?),
        duration: Timestamp::from_secs_f64(p.f64_or("run.duration_s", 600.0)?),
        seed: p.u64_or("run.seed", d.seed)?,
    })
}

/// A sampling rate in (0, 1000] Hz ([`Hz::is_valid`]), the rule
/// [`MobilityConfig::validate`] applies to `trajectory_hz`. Anything else
/// would reach [`Hz::period_ms`], which has no grid of its own for it.
fn rate(p: &Properties, key: &str, default: f64) -> Result<Hz, PropsError> {
    let hz = Hz(p.f64_or(key, default)?);
    if hz.is_valid() {
        Ok(hz)
    } else {
        Err(PropsError::BadValue {
            key: key.to_string(),
            value: p.str_or(key, "").to_string(),
            expected: "rate in Hz, above 0 and at most 1000",
        })
    }
}

/// Load the RSSI Measurement Controller configuration.
pub fn load_rssi(p: &Properties) -> Result<RssiConfig, ConfigLoadError> {
    let d = RssiConfig::default();
    let noise = match p.str_or("rssi.noise", "gaussian") {
        "none" => NoiseModel::None,
        "gaussian" => NoiseModel::Gaussian {
            sigma: p.f64_or("rssi.noise_sigma", 2.0)?,
        },
        "uniform" => NoiseModel::Uniform {
            half_width: p.f64_or("rssi.noise_half_width", 3.0)?,
        },
        other => {
            return Err(ConfigLoadError::UnknownVariant {
                key: "rssi.noise",
                value: other.to_string(),
            })
        }
    };
    let sampling_hz = if p.contains("rssi.hz") {
        Some(rate(p, "rssi.hz", 1.0)?)
    } else {
        None
    };
    Ok(RssiConfig {
        path_loss: PathLossModel {
            exponent: p.f64_or("rssi.exponent", 3.0)?,
            wall_attenuation_dbm: p.f64_or("rssi.wall_attenuation_dbm", 4.0)?,
            fluctuation: noise,
        },
        sampling_hz,
        duration: Timestamp::from_secs_f64(p.f64_or("run.duration_s", 600.0)?),
        seed: p.u64_or("rssi.seed", d.seed)?,
    })
}

/// Load the Positioning Method Controller configuration.
pub fn load_method(p: &Properties) -> Result<MethodConfig, ConfigLoadError> {
    let sampling_hz = rate(p, "positioning.hz", 0.5)?;
    let window_ms = p.u64_or("positioning.window_ms", 3_000)?;
    let rssi_cfg = load_rssi(p)?;

    match p.str_or("positioning.method", "trilateration") {
        "trilateration" => Ok(MethodConfig::Trilateration {
            config: TrilaterationConfig {
                sampling_hz,
                window_ms,
                min_devices: p.usize_or("trilateration.min_devices", 3)?,
                max_devices: p.usize_or("trilateration.max_devices", 64)?,
                clamp_to_detection_range: p
                    .bool_or("trilateration.clamp_to_detection_range", true)?,
            },
            conversion_model: rssi_cfg.path_loss,
        }),
        m @ ("fingerprint-knn" | "fingerprint-bayes") => {
            let survey = SurveyConfig {
                selection: ReferenceSelection::Grid {
                    spacing: p.f64_or("fingerprint.grid_spacing", 3.0)?,
                },
                samples_per_location: p.usize_or("fingerprint.samples_per_location", 10)?,
                path_loss: rssi_cfg.path_loss,
                seed: p.u64_or("fingerprint.seed", 0xF00D)?,
            };
            let online = FingerprintConfig {
                sampling_hz,
                window_ms,
                k: p.usize_or("fingerprint.k", 3)?,
                top_candidates: p.usize_or("fingerprint.top_candidates", 5)?,
            };
            let floor = FloorId(p.u64_or("fingerprint.floor", 0)? as u32);
            if m == "fingerprint-knn" {
                Ok(MethodConfig::FingerprintingKnn {
                    survey,
                    online,
                    floor,
                })
            } else {
                Ok(MethodConfig::FingerprintingBayes {
                    survey,
                    online,
                    floor,
                })
            }
        }
        "proximity" => Ok(MethodConfig::Proximity(ProximityConfig {
            rssi_threshold_dbm: if p.contains("proximity.rssi_threshold_dbm") {
                Some(p.f64_or("proximity.rssi_threshold_dbm", -75.0)?)
            } else {
                None
            },
            gap_grace: p.f64_or("proximity.gap_grace", 1.5)?,
        })),
        other => Err(ConfigLoadError::UnknownVariant {
            key: "positioning.method",
            value: other.to_string(),
        }),
    }
}

/// Load the streaming-pipeline tuning knobs and the storage backend.
/// `storage.backend` takes the [`StorageBackend`] display grammar
/// (`single` | `segmented` | `segmented-spill(BUDGET_ROWS)`).
pub fn load_stream_options(p: &Properties) -> Result<StreamOptions, ConfigLoadError> {
    let d = StreamOptions::default();
    let backend: StorageBackend = p.str_or("storage.backend", "single").parse().map_err(
        |e: vita_storage::ParseBackendError| ConfigLoadError::UnknownVariant {
            key: "storage.backend",
            value: e.0,
        },
    )?;
    Ok(StreamOptions {
        workers: p.usize_or("stream.workers", d.workers)?,
        channel_capacity: p.usize_or("stream.channel_capacity", d.channel_capacity)?,
        backend,
    })
}

/// Load a whole streamed scenario — the four configurations a
/// [`crate::Vita::run_streaming`] / [`crate::Vita::run_many`] lane needs —
/// from one properties set. This is the entry point the `vita-lab`
/// experiment runner binds trial properties through.
pub fn load_scenario(p: &Properties) -> Result<ScenarioConfig, ConfigLoadError> {
    Ok(ScenarioConfig {
        mobility: load_mobility(p)?,
        rssi: load_rssi(p)?,
        method: load_method(p)?,
        options: load_stream_options(p)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_properties_give_defaults() {
        let p = Properties::new();
        let m = load_mobility(&p).unwrap();
        assert_eq!(m.object_count, MobilityConfig::default().object_count);
        assert_eq!(m.distribution, InitialDistribution::Uniform);
        let r = load_rssi(&p).unwrap();
        assert!(r.sampling_hz.is_none());
        let method = load_method(&p).unwrap();
        assert!(matches!(method, MethodConfig::Trilateration { .. }));
    }

    #[test]
    fn full_mobility_config_parses() {
        let text = "\
objects.count = 200
objects.min_speed = 0.5
objects.max_speed = 2.0
objects.distribution = crowd-outliers
objects.crowds = 4
objects.crowd_fraction = 0.75
objects.crowd_radius = 5.0
objects.lifespan_min_s = 120
objects.lifespan_max_s = 240
objects.arrival_rate_per_min = 12
objects.emerging = anywhere
pattern.intention = random-way
pattern.routing = min-time
pattern.behavior = continuous
trajectory.hz = 4
run.duration_s = 300
run.seed = 42
";
        let p = Properties::parse(text).unwrap();
        let m = load_mobility(&p).unwrap();
        assert_eq!(m.object_count, 200);
        assert!(matches!(
            m.distribution,
            InitialDistribution::CrowdOutliers { crowds: 4, .. }
        ));
        assert!(matches!(m.arrivals, ArrivalProcess::Poisson { .. }));
        assert_eq!(m.emerging, EmergingLocation::Anywhere);
        assert_eq!(m.pattern.intention, Intention::RandomWay);
        assert!(matches!(m.pattern.routing, RoutingSchema::MinTime(_)));
        assert_eq!(m.pattern.behavior, Behavior::ContinuousWalk);
        assert_eq!(m.trajectory_hz, Hz(4.0));
        assert_eq!(m.duration, Timestamp(300_000));
        assert_eq!(m.seed, 42);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn rssi_noise_variants() {
        let p = Properties::parse("rssi.noise = none\n").unwrap();
        assert_eq!(
            load_rssi(&p).unwrap().path_loss.fluctuation,
            NoiseModel::None
        );
        let p = Properties::parse("rssi.noise = uniform\nrssi.noise_half_width = 2.5\n").unwrap();
        assert_eq!(
            load_rssi(&p).unwrap().path_loss.fluctuation,
            NoiseModel::Uniform { half_width: 2.5 }
        );
        let p = Properties::parse("rssi.noise = purple\n").unwrap();
        assert!(matches!(
            load_rssi(&p),
            Err(ConfigLoadError::UnknownVariant { .. })
        ));
    }

    #[test]
    fn rssi_hz_override_detected() {
        let p = Properties::parse("rssi.hz = 2\n").unwrap();
        assert_eq!(load_rssi(&p).unwrap().sampling_hz, Some(Hz(2.0)));
    }

    #[test]
    fn rates_outside_the_supported_range_are_rejected() {
        for key in ["rssi.hz", "positioning.hz"] {
            let p = Properties::parse(&format!("{key} = 1000\n")).unwrap();
            if key == "rssi.hz" {
                assert_eq!(load_rssi(&p).unwrap().sampling_hz, Some(Hz(1000.0)));
            } else {
                assert!(load_method(&p).is_ok());
            }
            for value in ["nan", "inf", "0", "-1", "1000.5", "5000", "1e9"] {
                let p = Properties::parse(&format!("{key} = {value}\n")).unwrap();
                let err = if key == "rssi.hz" {
                    load_rssi(&p).unwrap_err()
                } else {
                    load_method(&p).unwrap_err()
                };
                assert!(
                    matches!(
                        &err,
                        ConfigLoadError::Props(PropsError::BadValue { key: k, value: v, .. })
                            if k == key && v == value
                    ),
                    "{key} = {value}: {err:?}"
                );
                let text = err.to_string();
                assert!(text.contains(key) && text.contains(value), "{text}");
            }
        }
        // `trajectory.hz` loads as given; `MobilityConfig::validate`
        // applies the same range.
        let mobility = |value: &str| {
            let p = Properties::parse(&format!("trajectory.hz = {value}\n")).unwrap();
            load_mobility(&p).unwrap().validate()
        };
        assert_eq!(mobility("1000"), Ok(()));
        for value in ["0", "1000.5", "5000", "1e9"] {
            assert_eq!(
                mobility(value),
                Err(vita_mobility::ConfigError::BadSamplingFrequency),
                "{value}"
            );
        }
    }

    #[test]
    fn all_methods_parse() {
        for (name, check) in [
            ("trilateration", true),
            ("fingerprint-knn", true),
            ("fingerprint-bayes", true),
            ("proximity", true),
        ] {
            let p = Properties::parse(&format!("positioning.method = {name}\n")).unwrap();
            let m = load_method(&p);
            assert_eq!(m.is_ok(), check, "{name}: {m:?}");
        }
        let p = Properties::parse("positioning.method = astrology\n").unwrap();
        assert!(load_method(&p).is_err());
    }

    #[test]
    fn proximity_threshold_optional() {
        let p = Properties::parse("positioning.method = proximity\n").unwrap();
        match load_method(&p).unwrap() {
            MethodConfig::Proximity(c) => assert_eq!(c.rssi_threshold_dbm, None),
            _ => unreachable!(),
        }
        let p = Properties::parse(
            "positioning.method = proximity\nproximity.rssi_threshold_dbm = -70\n",
        )
        .unwrap();
        match load_method(&p).unwrap() {
            MethodConfig::Proximity(c) => assert_eq!(c.rssi_threshold_dbm, Some(-70.0)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn stream_options_parse_backends() {
        let p = Properties::new();
        let o = load_stream_options(&p).unwrap();
        assert_eq!(o.workers, StreamOptions::default().workers);
        assert_eq!(o.backend, StorageBackend::Single);

        let p = Properties::parse("storage.backend = segmented\nstream.workers = 3\n").unwrap();
        let o = load_stream_options(&p).unwrap();
        assert_eq!(o.workers, 3);
        assert_eq!(o.backend, StorageBackend::segmented());

        let p = Properties::parse("storage.backend = segmented-spill(2048)\n").unwrap();
        match load_stream_options(&p).unwrap().backend {
            StorageBackend::Segmented { spill: Some(c) } => {
                assert_eq!(c.memory_budget_rows, 2048)
            }
            b => panic!("expected spill backend, got {b:?}"),
        }

        let p = Properties::parse("storage.backend = quantum\n").unwrap();
        assert!(matches!(
            load_stream_options(&p),
            Err(ConfigLoadError::UnknownVariant {
                key: "storage.backend",
                ..
            })
        ));

        // There is no sharded backend: both spellings are parse errors
        // whose message offers only the backends that exist.
        for text in ["sharded", "sharded(8)"] {
            let err = text.parse::<StorageBackend>().unwrap_err();
            assert_eq!(err.0, text);
            assert!(err
                .to_string()
                .ends_with("(expected single | segmented | segmented-spill(BUDGET_ROWS))"));
        }
    }

    #[test]
    fn scenario_loads_end_to_end() {
        let p = Properties::parse(
            "objects.count = 7\nrun.duration_s = 30\npositioning.method = proximity\n\
             storage.backend = segmented\nstream.workers = 2\n",
        )
        .unwrap();
        let s = load_scenario(&p).unwrap();
        assert_eq!(s.mobility.object_count, 7);
        assert!(matches!(s.method, MethodConfig::Proximity(_)));
        assert_eq!(s.options.workers, 2);
        assert_eq!(s.options.backend, StorageBackend::segmented());
    }

    #[test]
    fn unknown_variant_errors_name_the_key() {
        let p = Properties::parse("pattern.intention = teleport\n").unwrap();
        match load_mobility(&p).unwrap_err() {
            ConfigLoadError::UnknownVariant { key, value } => {
                assert_eq!(key, "pattern.intention");
                assert_eq!(value, "teleport");
            }
            e => panic!("{e:?}"),
        }
    }
}
