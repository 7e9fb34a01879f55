//! Configuration for the Moving Object Layer (paper §2, §3.1).
//!
//! "The Moving Object Controller allows a user to set object parameters
//! including number, maximum speed, moving pattern, and lifespan. In this
//! layer, users can also tune the sampling frequency in order to set the
//! temporal granularity for the raw trajectory data."

use vita_indoor::{Hz, RoutingSchema, Timestamp};

/// Initial distribution of objects over the building (paper §3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InitialDistribution {
    /// "objects appear evenly in the space initially".
    #[default]
    Uniform,
    /// "a vast majority of objects are located around several hot areas to
    /// form crowds while others are distributed randomly as outliers".
    CrowdOutliers {
        /// Number of hot areas.
        crowds: usize,
        /// Fraction of objects belonging to crowds (the rest are outliers).
        crowd_fraction: f64,
        /// Radius (metres) of each crowd around its hot point.
        crowd_radius: f64,
    },
}

/// Lifespan configuration (paper §3.1.2): each object's lifespan is drawn
/// uniformly between the two bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifespanConfig {
    pub min: Timestamp,
    pub max: Timestamp,
}

impl Default for LifespanConfig {
    fn default() -> Self {
        // 5–15 minutes.
        LifespanConfig {
            min: Timestamp(5 * 60 * 1000),
            max: Timestamp(15 * 60 * 1000),
        }
    }
}

/// Arrival of new objects during generation (paper §3.1.2: "We also support
/// adding new objects during the generation period ... users can choose a
/// Poisson distribution to set the starting times").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// No objects appear after the initial batch.
    #[default]
    None,
    /// Poisson arrivals at `rate_per_min` (emerging at building entrances).
    Poisson { rate_per_min: f64 },
}

/// Where newly arriving objects emerge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmergingLocation {
    /// At a building entrance (doors leading outdoors).
    #[default]
    Entrances,
    /// Uniformly anywhere in the building.
    Anywhere,
}

/// Intention of the moving pattern (paper §3.1.3): "destination model means
/// an object moves toward its destination, and random-way model means it
/// moves randomly".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Intention {
    #[default]
    Destination,
    RandomWay,
}

/// Behavior mechanism (paper §3.1.3): "in the walk-stay mechanism, an object
/// will switch between the states 'walking along the path to its
/// destination' and 'staying at the destination or a location on path' after
/// a random period of time."
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Walk continuously, never pause.
    ContinuousWalk,
    /// Alternate walking and staying.
    WalkStay {
        /// Bounds on each stay duration.
        stay_min: Timestamp,
        stay_max: Timestamp,
        /// Probability of an en-route stop at each route waypoint (stops at
        /// the destination always happen).
        pause_on_path_prob: f64,
    },
}

impl Default for Behavior {
    fn default() -> Self {
        Behavior::WalkStay {
            stay_min: Timestamp(10_000),
            stay_max: Timestamp(60_000),
            pause_on_path_prob: 0.1,
        }
    }
}

/// The complete moving pattern: intention × routing × behavior (paper §3.1.3
/// "We considered three aspects in customizing object moving patterns,
/// namely intention, routing, and behavior").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingPattern {
    pub intention: Intention,
    pub routing: RoutingSchema,
    pub behavior: Behavior,
}

impl Default for MovingPattern {
    fn default() -> Self {
        MovingPattern {
            intention: Intention::Destination,
            routing: RoutingSchema::MinDistance,
            behavior: Behavior::default(),
        }
    }
}

/// Full Moving Object Layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityConfig {
    /// Number of objects in the initial batch.
    pub object_count: usize,
    /// Speed of each object is drawn uniformly from this range (m/s);
    /// `max_speed` is the paper's configurable maximum speed.
    pub min_speed: f64,
    pub max_speed: f64,
    pub distribution: InitialDistribution,
    pub lifespan: LifespanConfig,
    pub arrivals: ArrivalProcess,
    pub emerging: EmergingLocation,
    pub pattern: MovingPattern,
    /// Trajectory ("ground truth") sampling frequency.
    pub trajectory_hz: Hz,
    /// Total generation period.
    pub duration: Timestamp,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            object_count: 50,
            min_speed: 0.6,
            max_speed: 1.5,
            distribution: InitialDistribution::default(),
            lifespan: LifespanConfig::default(),
            arrivals: ArrivalProcess::None,
            emerging: EmergingLocation::Entrances,
            pattern: MovingPattern::default(),
            trajectory_hz: Hz(1.0),
            duration: Timestamp(10 * 60 * 1000),
            seed: 0xD1CE,
        }
    }
}

/// Validation errors for a mobility configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    NoObjects,
    BadSpeedRange,
    BadLifespan,
    BadSamplingFrequency,
    ZeroDuration,
    BadCrowdParams,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoObjects => write!(f, "object_count must be > 0"),
            ConfigError::BadSpeedRange => write!(f, "need 0 < min_speed <= max_speed"),
            ConfigError::BadLifespan => write!(f, "need 0 < lifespan.min <= lifespan.max"),
            ConfigError::BadSamplingFrequency => {
                write!(f, "trajectory_hz must be above 0 and at most 1000 Hz")
            }
            ConfigError::ZeroDuration => write!(f, "duration must be > 0"),
            ConfigError::BadCrowdParams => {
                write!(f, "crowd_fraction must be in [0,1], crowds > 0, radius > 0")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl MobilityConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.object_count == 0 && matches!(self.arrivals, ArrivalProcess::None) {
            return Err(ConfigError::NoObjects);
        }
        if !(self.min_speed > 0.0 && self.min_speed <= self.max_speed) {
            return Err(ConfigError::BadSpeedRange);
        }
        if self.lifespan.min.0 == 0 || self.lifespan.min > self.lifespan.max {
            return Err(ConfigError::BadLifespan);
        }
        if !self.trajectory_hz.is_valid() {
            return Err(ConfigError::BadSamplingFrequency);
        }
        if self.duration.0 == 0 {
            return Err(ConfigError::ZeroDuration);
        }
        if let InitialDistribution::CrowdOutliers {
            crowds,
            crowd_fraction,
            crowd_radius,
        } = self.distribution
        {
            if crowds == 0 || !(0.0..=1.0).contains(&crowd_fraction) || crowd_radius <= 0.0 {
                return Err(ConfigError::BadCrowdParams);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(MobilityConfig::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = MobilityConfig::default();

        let mut c = base.clone();
        c.object_count = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoObjects));

        // Zero objects is fine when arrivals add them.
        c.arrivals = ArrivalProcess::Poisson { rate_per_min: 5.0 };
        assert_eq!(c.validate(), Ok(()));

        let mut c = base.clone();
        c.min_speed = 2.0;
        c.max_speed = 1.0;
        assert_eq!(c.validate(), Err(ConfigError::BadSpeedRange));

        let mut c = base.clone();
        c.min_speed = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::BadSpeedRange));

        let mut c = base.clone();
        c.lifespan = LifespanConfig {
            min: Timestamp(1000),
            max: Timestamp(500),
        };
        assert_eq!(c.validate(), Err(ConfigError::BadLifespan));

        for hz in [0.0, 1000.5, 5000.0, 1e9] {
            let mut c = base.clone();
            c.trajectory_hz = Hz(hz);
            assert_eq!(c.validate(), Err(ConfigError::BadSamplingFrequency), "{hz}");
        }
        let mut c = base.clone();
        c.trajectory_hz = Hz(1000.0);
        assert_eq!(c.validate(), Ok(()));

        let mut c = base.clone();
        c.duration = Timestamp(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroDuration));

        let mut c = base;
        c.distribution = InitialDistribution::CrowdOutliers {
            crowds: 0,
            crowd_fraction: 0.8,
            crowd_radius: 3.0,
        };
        assert_eq!(c.validate(), Err(ConfigError::BadCrowdParams));
    }

    #[test]
    fn defaults_match_paper_semantics() {
        let p = MovingPattern::default();
        assert_eq!(p.intention, Intention::Destination);
        assert!(matches!(p.behavior, Behavior::WalkStay { .. }));
        assert_eq!(InitialDistribution::default(), InitialDistribution::Uniform);
        assert_eq!(EmergingLocation::default(), EmergingLocation::Entrances);
    }
}
