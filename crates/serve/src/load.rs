//! Closed-feedback ramped load generation: step the offered query rate up
//! from [`LoadProfile::initial_rps`] by [`LoadProfile::increment_rps`]
//! until either [`LoadProfile::max_rps`] is reached or the service stops
//! keeping up, and report per-step achieved throughput and latency
//! percentiles.
//!
//! The loop is *closed*: each worker issues its next query only after the
//! previous one returned, pacing against an absolute schedule of
//! `1 / rate` slots (with a bounded catch-up burst after a stall, so a
//! scheduler hiccup doesn't silently lower the offered rate — the
//! coordinated-omission trap). When the service is saturated the pacing
//! slack vanishes, achieved RPS falls below the offered rate, and the
//! ramp stops at the first step whose achieved rate drops under
//! [`LoadProfile::satisfaction`] × target — the step-up protocol of
//! throughput benchmarks like YCSB's target-rate mode.

#![expect(
    clippy::disallowed_methods,
    reason = "R1, R3: the load generator paces queries by wall clock, sleeping and spinning between slots"
)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use vita_geometry::{Aabb, Point};
use vita_indoor::{FloorId, ObjectId, Timestamp};
use vita_storage::RunScope;

use crate::query::{QueryRequest, QueryService};

/// The ramp schedule: offered rate per step and when to give up.
///
/// # Examples
///
/// ```
/// use vita_serve::LoadProfile;
/// use std::time::Duration;
///
/// // 100 → 200 → 300 → … → 1000 RPS, 250 ms per step, 4 query workers,
/// // stopping early if a step achieves less than 90% of its target.
/// let profile = LoadProfile {
///     initial_rps: 100.0,
///     increment_rps: 100.0,
///     max_rps: 1_000.0,
///     step_duration: Duration::from_millis(250),
///     workers: 4,
///     satisfaction: 0.9,
/// };
/// assert_eq!(profile.targets().count(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Offered rate of the first step (queries per second, all workers
    /// together).
    pub initial_rps: f64,
    /// Rate increase per step.
    pub increment_rps: f64,
    /// Last offered rate; the ramp never steps past it.
    pub max_rps: f64,
    /// Wall-clock length of each step.
    pub step_duration: Duration,
    /// Query worker threads sharing each step's offered rate.
    pub workers: usize,
    /// Fraction of the offered rate a step must achieve for the ramp to
    /// continue (e.g. `0.9`). The first step below this is recorded, then
    /// the ramp stops.
    pub satisfaction: f64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            initial_rps: 500.0,
            increment_rps: 500.0,
            max_rps: 16_000.0,
            step_duration: Duration::from_millis(500),
            workers: 4,
            satisfaction: 0.9,
        }
    }
}

impl LoadProfile {
    /// The offered rates the ramp will try, in order.
    pub fn targets(&self) -> impl Iterator<Item = f64> + '_ {
        let steps = if self.increment_rps > 0.0 {
            ((self.max_rps - self.initial_rps) / self.increment_rps).max(0.0) as usize + 1
        } else {
            1
        };
        (0..steps).map(|i| (self.initial_rps + i as f64 * self.increment_rps).min(self.max_rps))
    }
}

/// A weighted mix of [`QueryRequest`]s plus the parameter universe to draw
/// their arguments from. `sample` picks a variant by weight and fills in
/// uniformly random arguments, so a ramp exercises every query path in a
/// controlled ratio.
///
/// # Examples
///
/// ```
/// use vita_serve::WorkloadSpec;
///
/// // A read mix that never asks for counts and is kNN-heavy.
/// let spec = WorkloadSpec {
///     counts_weight: 0,
///     knn_weight: 8,
///     seed: 7,
///     ..Default::default()
/// };
/// let mut rng = spec.rng();
/// let q = spec.sample(&mut rng);           // some non-Counts request
/// assert!(!matches!(q, vita_serve::QueryRequest::Counts { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub counts_weight: u32,
    pub snapshot_weight: u32,
    pub window_weight: u32,
    pub trace_weight: u32,
    pub range_weight: u32,
    pub knn_weight: u32,
    /// Scopes to draw from, uniformly. Default: `[RunScope::All]`.
    pub scopes: Vec<RunScope>,
    /// Object-id universe for `ObjectTrace` (ids `0..objects`).
    pub objects: u32,
    /// Floor universe for spatial queries (floors `0..floors`).
    pub floors: u32,
    /// Time universe for temporal queries (timestamps `0..t_max`).
    pub t_max: u64,
    /// Width of `TimeWindow` queries.
    pub window: u64,
    /// Spatial universe half-extent: range/kNN centers are drawn from
    /// `[-extent, extent]²`, range boxes are `extent/4` wide.
    pub extent: f64,
    /// `k` for kNN queries.
    pub k: usize,
    /// Base RNG seed ([`WorkloadSpec::rng`] and the ramp derive all worker
    /// streams from it, so a ramp is reproducible).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            counts_weight: 1,
            snapshot_weight: 2,
            window_weight: 2,
            trace_weight: 2,
            range_weight: 2,
            knn_weight: 1,
            scopes: vec![RunScope::All],
            objects: 8,
            floors: 1,
            t_max: 60_000,
            window: 5_000,
            extent: 40.0,
            k: 8,
            seed: 0xC0FFEE,
        }
    }
}

impl WorkloadSpec {
    /// An RNG seeded from [`WorkloadSpec::seed`].
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    fn total_weight(&self) -> u32 {
        self.counts_weight
            + self.snapshot_weight
            + self.window_weight
            + self.trace_weight
            + self.range_weight
            + self.knn_weight
    }

    /// Draw one request from the mix. Panics if every weight is zero.
    pub fn sample(&self, rng: &mut StdRng) -> QueryRequest {
        let total = self.total_weight();
        assert!(total > 0, "workload mix needs at least one nonzero weight");
        let scope = *self.scopes.choose(rng).unwrap_or(&RunScope::All);
        let mut pick = rng.gen_range(0..total);
        if pick < self.counts_weight {
            return QueryRequest::Counts { scope };
        }
        pick -= self.counts_weight;
        if pick < self.snapshot_weight {
            return QueryRequest::SnapshotAt {
                scope,
                at: Timestamp(rng.gen_range(0..self.t_max.max(1))),
            };
        }
        pick -= self.snapshot_weight;
        if pick < self.window_weight {
            let from = rng.gen_range(0..self.t_max.max(1));
            return QueryRequest::TimeWindow {
                scope,
                from: Timestamp(from),
                to: Timestamp(from + self.window),
            };
        }
        pick -= self.window_weight;
        if pick < self.trace_weight {
            return QueryRequest::ObjectTrace {
                scope,
                object: ObjectId(rng.gen_range(0..self.objects.max(1))),
            };
        }
        pick -= self.trace_weight;
        let floor = FloorId(rng.gen_range(0..self.floors.max(1)));
        let x = rng.gen_range(-self.extent..self.extent);
        let y = rng.gen_range(-self.extent..self.extent);
        if pick < self.range_weight {
            let half = self.extent / 4.0;
            return QueryRequest::RangeQuery {
                scope,
                floor,
                bounds: Aabb::new(
                    Point::new(x - half, y - half),
                    Point::new(x + half, y + half),
                ),
            };
        }
        QueryRequest::Knn {
            scope,
            floor,
            at: Point::new(x, y),
            k: self.k,
        }
    }
}

/// What one ramp step did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Offered rate (queries/s, all workers together).
    pub target_rps: f64,
    /// Rate actually achieved over the step.
    pub achieved_rps: f64,
    /// Queries issued during the step.
    pub issued: usize,
    /// Latency percentiles over the step's queries, in microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
}

/// The whole ramp: every executed step plus the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct RampReport {
    pub steps: Vec<StepReport>,
    /// Highest offered rate whose step met the satisfaction threshold —
    /// `0.0` if even the first step missed it.
    pub max_sustainable_rps: f64,
}

/// Latency percentile (nearest-rank on the sorted slice); `0` when empty.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Run one ramp step: `workers` threads share the offered rate, each
/// pacing a closed loop at its slice of the target. Returns the step
/// report and the workers' latencies.
fn run_step(
    service: &QueryService,
    workload: &WorkloadSpec,
    target_rps: f64,
    duration: Duration,
    workers: usize,
    step_index: usize,
) -> StepReport {
    let workers = workers.max(1);
    let per_worker_rps = (target_rps / workers as f64).max(f64::MIN_POSITIVE);
    let slot = Duration::from_secs_f64(1.0 / per_worker_rps);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    let started = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let service = service.clone();
            let latencies = &latencies;
            scope.spawn(move || {
                // Derive a distinct, reproducible stream per (step, worker).
                let mut rng = StdRng::seed_from_u64(
                    workload
                        .seed
                        .wrapping_add(step_index as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(w as u64),
                );
                let deadline = started + duration;
                let mut mine = Vec::new();
                let mut next = Instant::now();
                while Instant::now() < deadline {
                    let request = workload.sample(&mut rng);
                    let issued_at = Instant::now();
                    let response = service.execute(&request);
                    // Keep the result path live without retaining rows.
                    std::hint::black_box(response.len());
                    mine.push(issued_at.elapsed().as_micros() as u64);
                    // Pace on the absolute schedule: each slot's send time
                    // is `start + i × slot`, and a worker that got stalled
                    // (scheduler, a slow query) issues back-to-back until
                    // it catches the schedule again — otherwise every
                    // stall permanently lowers the offered rate and the
                    // ramp measures wakeup latency, not the service
                    // (coordinated omission). The catch-up burst is
                    // bounded: a backlog past `RESYNC` slots is forgiven,
                    // so a long stall can't queue an unbounded burst.
                    const SPIN: Duration = Duration::from_micros(200);
                    const RESYNC: u32 = 64;
                    next += slot;
                    let now = Instant::now();
                    if next + slot * RESYNC < now {
                        next = now;
                    }
                    if next >= deadline {
                        // No slot is scheduled before the deadline: the
                        // worker's quota for this step is spent. Running
                        // on would issue an unpaced back-to-back burst for
                        // the rest of the step, overstating the offered
                        // rate and flooding the percentiles with
                        // zero-queue samples.
                        break;
                    }
                    if next > now {
                        if next > now + SPIN {
                            std::thread::sleep(next - now - SPIN);
                        }
                        // Sleep undershoots on purpose; spin out the rest
                        // of the slot (bounded by `SPIN`).
                        while Instant::now() < next {
                            std::hint::spin_loop();
                        }
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "operational: a poisoned latency mutex means a load worker already panicked"
                )]
                latencies.lock().expect("latency sink").append(&mut mine);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    #[expect(
        clippy::expect_used,
        reason = "operational: a poisoned latency mutex means a load worker already panicked"
    )]
    let mut all = latencies.into_inner().expect("latency sink");
    all.sort_unstable();
    StepReport {
        target_rps,
        achieved_rps: if elapsed > 0.0 {
            all.len() as f64 / elapsed
        } else {
            0.0
        },
        issued: all.len(),
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
        p999_us: percentile(&all, 0.999),
    }
}

/// Run one fixed-rate step — no ramp, no stopping rule: `workers` closed-
/// loop threads share `target_rps` for `duration` and the step report is
/// returned as-is. This is the probe the `vita-lab` experiment runner
/// attaches per trial (a ramp would decide its own length; a trial wants
/// one comparable sample), equivalent to a one-step [`LoadProfile`] with
/// `increment_rps: 0.0`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use vita_serve::{run_fixed, QueryService, WorkloadSpec};
/// use vita_storage::AnyRepository;
///
/// let service = QueryService::new(Arc::new(AnyRepository::default()));
/// let step = run_fixed(
///     &service,
///     &WorkloadSpec::default(),
///     200.0,
///     Duration::from_millis(25),
///     2,
/// );
/// assert!(step.issued > 0);
/// ```
pub fn run_fixed(
    service: &QueryService,
    workload: &WorkloadSpec,
    target_rps: f64,
    duration: Duration,
    workers: usize,
) -> StepReport {
    run_step(service, workload, target_rps, duration, workers, 0)
}

/// Ramp `service` through `profile`'s offered rates with `workload`'s
/// query mix; see the module docs for the stopping rule.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use vita_serve::{LoadProfile, QueryService, WorkloadSpec};
/// use vita_storage::AnyRepository;
///
/// let service = QueryService::new(Arc::new(AnyRepository::default()));
/// let profile = LoadProfile {
///     initial_rps: 50.0,
///     increment_rps: 50.0,
///     max_rps: 100.0,
///     step_duration: Duration::from_millis(30),
///     workers: 2,
///     satisfaction: 0.5,
/// };
/// let report = vita_serve::run_ramp(&service, &WorkloadSpec::default(), &profile);
/// assert!(!report.steps.is_empty());
/// assert!(report.max_sustainable_rps <= profile.max_rps);
/// ```
pub fn run_ramp(
    service: &QueryService,
    workload: &WorkloadSpec,
    profile: &LoadProfile,
) -> RampReport {
    let mut steps = Vec::new();
    let mut max_sustainable = 0.0f64;
    for (i, target) in profile.targets().enumerate() {
        let step = run_step(
            service,
            workload,
            target,
            profile.step_duration,
            profile.workers,
            i,
        );
        let sustained = step.achieved_rps >= profile.satisfaction * step.target_rps;
        steps.push(step);
        if !sustained {
            break;
        }
        max_sustainable = target;
    }
    RampReport {
        steps,
        max_sustainable_rps: max_sustainable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vita_storage::AnyRepository;

    #[test]
    fn targets_step_from_initial_to_max() {
        let p = LoadProfile {
            initial_rps: 100.0,
            increment_rps: 150.0,
            max_rps: 400.0,
            ..Default::default()
        };
        let t: Vec<f64> = p.targets().collect();
        assert_eq!(t, vec![100.0, 250.0, 400.0]);
    }

    #[test]
    fn workload_respects_zero_weights() {
        let spec = WorkloadSpec {
            counts_weight: 0,
            snapshot_weight: 0,
            window_weight: 0,
            trace_weight: 1,
            range_weight: 0,
            knn_weight: 0,
            ..Default::default()
        };
        let mut rng = spec.rng();
        for _ in 0..64 {
            assert!(matches!(
                spec.sample(&mut rng),
                QueryRequest::ObjectTrace { .. }
            ));
        }
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let v: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn ramp_reports_steps_with_ordered_percentiles() {
        let service = QueryService::new(Arc::new(AnyRepository::default()));
        let profile = LoadProfile {
            initial_rps: 200.0,
            increment_rps: 200.0,
            max_rps: 400.0,
            step_duration: Duration::from_millis(25),
            workers: 2,
            satisfaction: 0.1,
        };
        let report = run_ramp(&service, &WorkloadSpec::default(), &profile);
        assert!(!report.steps.is_empty());
        assert!(report.steps.len() <= 2);
        for s in &report.steps {
            assert!(s.achieved_rps >= 0.0);
            assert!(s.p50_us <= s.p99_us && s.p99_us <= s.p999_us);
        }
    }
}
