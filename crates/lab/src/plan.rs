//! Plan expansion: `scenarios × axes × repeats`, deterministically.
//!
//! The order is part of the contract (it fixes run-id assignment and the
//! JSONL record order): scenarios in file order are outermost, then the
//! axes in file order (earlier axes vary slower), then repeats innermost.
//! Repeats of one cell are consecutive — the runner executes each cell as
//! one [`vita_core::Vita::run_many`] batch whose lane `k` is repeat `k`.

use vita_core::{derive_run_seed, Properties};
use vita_indoor::RunId;

use crate::spec::Spec;

/// One planned trial: everything needed to execute and label it.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Position in the plan (and in the emitted JSONL).
    pub index: usize,
    /// `scenario/axis=variant/…/rK` — unique within the plan.
    pub id: String,
    /// The scenario this trial instantiates.
    pub scenario: String,
    /// Index of the scenario in the spec (seed derivation input).
    pub scenario_index: usize,
    /// `(axis, variant)` pairs in axis order.
    pub bindings: Vec<(String, String)>,
    /// Repeat number within the cell — also the trial's [`RunId`].
    pub repeat: u32,
    /// The trial's effective seed: [`derive_run_seed`] of the cell's base
    /// seed at `RunId(repeat)`, exactly what the pipeline derives for the
    /// matching `run_many` lane.
    pub seed: u64,
    /// Fully merged properties: spec defaults ← scenario body ← axis
    /// bindings, with `run.seed` materialized.
    pub props: Properties,
}

/// SplitMix64 — the same mixer [`derive_run_seed`] uses, for deriving
/// per-scenario base seeds from the spec seed.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expand a spec into its trial plan. Pure: same spec ⇒ same plan,
/// byte for byte.
pub fn expand(spec: &Spec) -> Vec<Trial> {
    let mut trials = Vec::new();
    for (si, scenario) in spec.scenarios.iter().enumerate() {
        // Mixed-radix counter over the axes: earlier axes vary slower.
        let radices: Vec<usize> = spec.axes.iter().map(|a| a.variants.len()).collect();
        let cells: usize = radices.iter().product::<usize>().max(1);
        for cell in 0..cells {
            let mut rem = cell;
            let mut picks = vec![0usize; radices.len()];
            for (i, r) in radices.iter().enumerate().rev() {
                picks[i] = rem % r;
                rem /= r;
            }

            // Merge: defaults ← scenario ← axis bindings (axis order,
            // later bindings win).
            let mut props = spec.defaults.clone();
            for (key, value) in scenario.props.iter() {
                props.set(key, value);
            }
            let mut bindings = Vec::with_capacity(spec.axes.len());
            for (axis, &pick) in spec.axes.iter().zip(&picks) {
                let variant = &axis.variants[pick];
                for (k, v) in &variant.bindings {
                    props.set(k, v);
                }
                bindings.push((axis.name.clone(), variant.name.clone()));
            }

            // The cell's base seed: a spec-level `run.seed` (head,
            // scenario, or axis binding) pins it — so a "noise seed" axis
            // can be an axis like any other; otherwise it is derived from
            // the spec seed and the scenario index. Identical across the
            // cells of one scenario, so axes that should not perturb the
            // data (backend, workers, exec) provably don't.
            let base = match props.get("run.seed").map(|s| s.parse::<u64>()) {
                Some(Ok(s)) => s,
                // Unparseable pin: leave the text in place so the config
                // loader reports the BadValue with its key at run time.
                Some(Err(_)) => 0,
                None => {
                    let b = splitmix(spec.seed ^ splitmix(si as u64));
                    props.set("run.seed", b);
                    b
                }
            };

            let mut id = scenario.name.clone();
            for (axis, variant) in &bindings {
                id.push('/');
                id.push_str(axis);
                id.push('=');
                id.push_str(variant);
            }
            for repeat in 0..spec.repeats {
                trials.push(Trial {
                    index: trials.len(),
                    id: format!("{id}/r{repeat}"),
                    scenario: scenario.name.clone(),
                    scenario_index: si,
                    bindings: bindings.clone(),
                    repeat,
                    seed: derive_run_seed(base, RunId(repeat)),
                    props: props.clone(),
                });
            }
        }
    }
    trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    const SPEC: &str = "\
seed = 3
repeats = 2
run.duration_s = 5

[scenario a]
objects.count = 4

[scenario b]
objects.count = 8

[axis backend]
key = storage.backend
values = single, segmented

[axis workers]
variant w1 = stream.workers=1
variant w2 = stream.workers=2
";

    #[test]
    fn expansion_is_scenarios_axes_repeats() {
        let spec = parse_spec(SPEC).unwrap();
        let plan = expand(&spec);
        assert_eq!(plan.len(), 2 * 2 * 2 * 2);
        assert_eq!(plan[0].id, "a/backend=single/workers=w1/r0");
        assert_eq!(plan[1].id, "a/backend=single/workers=w1/r1");
        // Innermost: repeats; then the last axis; first axis slowest;
        // scenarios outermost.
        assert_eq!(plan[2].id, "a/backend=single/workers=w2/r0");
        assert_eq!(plan[4].id, "a/backend=segmented/workers=w1/r0");
        assert_eq!(plan[8].id, "b/backend=single/workers=w1/r0");
        for (i, t) in plan.iter().enumerate() {
            assert_eq!(t.index, i);
        }
    }

    #[test]
    fn bindings_overlay_in_precedence_order() {
        let spec = parse_spec(
            "x = head\ny = head\n[scenario s]\ny = scen\nz = scen\n[axis a]\nvariant v = z=axis\n",
        )
        .unwrap();
        let plan = expand(&spec);
        let p = &plan[0].props;
        assert_eq!(p.str_or("x", ""), "head");
        assert_eq!(p.str_or("y", ""), "scen");
        assert_eq!(p.str_or("z", ""), "axis");
    }

    #[test]
    fn seeds_constant_across_axes_distinct_across_scenarios() {
        let spec = parse_spec(SPEC).unwrap();
        let plan = expand(&spec);
        // Same scenario + repeat, different backend/workers: same seed.
        assert_eq!(plan[0].seed, plan[2].seed);
        assert_eq!(plan[0].seed, plan[4].seed);
        // Repeats differ (derive_run_seed), scenarios differ (splitmix).
        assert_ne!(plan[0].seed, plan[1].seed);
        assert_ne!(plan[0].seed, plan[8].seed);
        // Repeat 0 carries the base seed itself (derive_run_seed identity).
        assert_eq!(
            plan[0].props.get("run.seed").unwrap(),
            plan[0].seed.to_string().as_str()
        );
    }

    #[test]
    fn pinned_run_seed_wins() {
        let spec =
            parse_spec("seed = 9\nrun.seed = 77\n[scenario s]\nobjects.count = 1\n").unwrap();
        let plan = expand(&spec);
        assert_eq!(plan[0].seed, 77);
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(expand(&spec), expand(&spec));
    }
}
