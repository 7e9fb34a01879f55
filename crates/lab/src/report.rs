//! Trial records and aggregated analysis.
//!
//! One [`TrialRecord`] per executed trial, serialized as one JSON object
//! per line (JSONL; hand-rolled — the workspace carries no serde). The
//! record has a **deterministic core** (ids, bindings, seed, row counts,
//! persisted byte size) and **timing fields** (wall clock, serve-probe
//! latencies, export/import wall clock); [`TrialRecord::to_json`] with
//! `timing: false` emits only the core, which is the byte-identical form
//! the determinism and golden-fixture suites compare.

use vita_storage::TableCounts;

use crate::spec::Spec;

/// The fixed-rate serve probe's sample for one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeProbe {
    pub target_rps: f64,
    pub achieved_rps: f64,
    pub issued: usize,
    pub p50_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
}

/// The persistence probe: export → import round trip of the trial's cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistProbe {
    /// Serialized size of the whole cell's repository (all repeats share
    /// one repository, so this is a per-cell number repeated on each of
    /// its trials). Deterministic: the wire format encodes deterministic
    /// rows.
    pub bytes: usize,
    pub export_ms: f64,
    pub import_ms: f64,
}

/// Everything recorded about one executed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Plan index — also the JSONL line number.
    pub index: usize,
    /// `scenario/axis=variant/…/rK`.
    pub id: String,
    pub scenario: String,
    /// `(axis, variant)` in axis order.
    pub bindings: Vec<(String, String)>,
    pub repeat: u32,
    /// The `RunId` this trial ingested under (= repeat).
    pub run: u32,
    /// The trial's derived seed (see [`crate::plan::Trial::seed`]).
    pub seed: u64,
    /// Backend display form (`single`, `segmented`, …).
    pub backend: String,
    /// Stage workers requested (`0` = half the cores).
    pub workers: usize,
    /// `batched` (`run_many`) or `solo` (`run_streaming_as`).
    pub exec: String,
    /// Row counts of this trial's run scope.
    pub rows: TableCounts,
    /// Wall clock: the run for `solo`, the cell's whole schedule for
    /// `batched` (runs overlap; per-run wall clock is not separable).
    pub wall_ms: f64,
    pub serve: Option<ServeProbe>,
    pub persist: Option<PersistProbe>,
}

/// A JSON string literal for `s`, quotes included: minimal escaping
/// (quotes, backslashes, control characters). The workspace's one JSON
/// string emitter — trial records and the experiments harness's
/// `--json` report both write through it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl TrialRecord {
    /// One JSON object, single line, fixed key order. `timing: false`
    /// drops exactly the fields that vary between identical executions
    /// (`wall_ms`, the whole serve probe, persist wall clocks) — the
    /// deterministic core two runs of one spec must agree on byte for
    /// byte.
    pub fn to_json(&self, timing: bool) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        s.push_str(&format!("\"trial\":{}", self.index));
        s.push_str(&format!(",\"id\":{}", json_string(&self.id)));
        s.push_str(&format!(",\"scenario\":{}", json_string(&self.scenario)));
        s.push_str(",\"bindings\":{");
        for (i, (axis, variant)) in self.bindings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json_string(axis), json_string(variant)));
        }
        s.push('}');
        s.push_str(&format!(",\"repeat\":{}", self.repeat));
        s.push_str(&format!(",\"run\":{}", self.run));
        s.push_str(&format!(",\"seed\":{}", self.seed));
        s.push_str(&format!(",\"backend\":{}", json_string(&self.backend)));
        s.push_str(&format!(",\"workers\":{}", self.workers));
        s.push_str(&format!(",\"exec\":{}", json_string(&self.exec)));
        s.push_str(&format!(
            ",\"rows\":{{\"trajectories\":{},\"rssi\":{},\"fixes\":{},\"proximity\":{}}}",
            self.rows.trajectories, self.rows.rssi, self.rows.fixes, self.rows.proximity
        ));
        if timing {
            s.push_str(&format!(",\"wall_ms\":{:.3}", self.wall_ms));
        }
        if let Some(p) = &self.persist {
            s.push_str(&format!(",\"persist\":{{\"bytes\":{}", p.bytes));
            if timing {
                s.push_str(&format!(
                    ",\"export_ms\":{:.3},\"import_ms\":{:.3}",
                    p.export_ms, p.import_ms
                ));
            }
            s.push('}');
        }
        if timing {
            if let Some(sv) = &self.serve {
                s.push_str(&format!(
                    ",\"serve\":{{\"target_rps\":{:.1},\"achieved_rps\":{:.1},\"issued\":{},\
                     \"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
                    sv.target_rps, sv.achieved_rps, sv.issued, sv.p50_us, sv.p99_us, sv.p999_us
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Aggregate over one variant of one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSummary {
    pub variant: String,
    pub trials: usize,
    /// Sum of all table rows across the variant's trials.
    pub rows_total: usize,
    pub mean_wall_ms: f64,
    /// Mean serve-probe p99, when any trial carried the probe.
    pub mean_p99_us: Option<f64>,
    /// Means of the persistence probe over the trials that carried it;
    /// `None` when none did.
    pub mean_persist: Option<PersistMeans>,
}

/// A variant's persistence-probe means: serialized size, export and
/// import wall clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PersistMeans {
    pub bytes: f64,
    pub export_ms: f64,
    pub import_ms: f64,
}

/// Aggregates for every variant of one axis (marginalized over the other
/// axes, scenarios, and repeats).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSummary {
    pub axis: String,
    pub variants: Vec<VariantSummary>,
}

/// Everything one spec execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LabReport {
    pub spec_name: String,
    pub seed: u64,
    pub trials: Vec<TrialRecord>,
    /// Axis order of the spec (drives the analysis grouping).
    pub axes: Vec<String>,
}

impl LabReport {
    /// One line per trial, plan order. `timing: false` emits the
    /// deterministic core only.
    pub fn trials_jsonl(&self, timing: bool) -> String {
        let mut out = String::new();
        for t in &self.trials {
            out.push_str(&t.to_json(timing));
            out.push('\n');
        }
        out
    }

    /// Aggregates grouped by each axis, in spec axis order. Variants keep
    /// their axis order of first appearance in the plan.
    pub fn by_axis(&self) -> Vec<AxisSummary> {
        self.axes
            .iter()
            .map(|axis| {
                let mut variants: Vec<VariantSummary> = Vec::new();
                // Trials per variant that carried the persistence probe.
                let mut persisted: Vec<usize> = Vec::new();
                for t in &self.trials {
                    let Some((_, variant)) = t.bindings.iter().find(|(a, _)| a == axis) else {
                        continue;
                    };
                    let at = match variants.iter().position(|v| &v.variant == variant) {
                        Some(at) => at,
                        None => {
                            variants.push(VariantSummary {
                                variant: variant.clone(),
                                trials: 0,
                                rows_total: 0,
                                mean_wall_ms: 0.0,
                                mean_p99_us: None,
                                mean_persist: None,
                            });
                            persisted.push(0);
                            variants.len() - 1
                        }
                    };
                    let entry = &mut variants[at];
                    entry.trials += 1;
                    entry.rows_total += t.rows.total();
                    // Accumulate sums; normalized to means below.
                    entry.mean_wall_ms += t.wall_ms;
                    if let Some(sv) = &t.serve {
                        *entry.mean_p99_us.get_or_insert(0.0) += sv.p99_us as f64;
                    }
                    if let Some(p) = &t.persist {
                        let m = entry.mean_persist.get_or_insert_with(PersistMeans::default);
                        m.bytes += p.bytes as f64;
                        m.export_ms += p.export_ms;
                        m.import_ms += p.import_ms;
                        persisted[at] += 1;
                    }
                }
                for (v, &n) in variants.iter_mut().zip(&persisted) {
                    if v.trials > 0 {
                        v.mean_wall_ms /= v.trials as f64;
                        if let Some(p) = &mut v.mean_p99_us {
                            *p /= v.trials as f64;
                        }
                    }
                    if let Some(m) = &mut v.mean_persist {
                        let n = n as f64;
                        (m.bytes, m.export_ms, m.import_ms) =
                            (m.bytes / n, m.export_ms / n, m.import_ms / n);
                    }
                }
                AxisSummary {
                    axis: axis.clone(),
                    variants,
                }
            })
            .collect()
    }

    /// The analysis tables as markdown — one table per axis, plus a
    /// per-scenario row-count table when the spec has no axes. An axis
    /// table whose trials carried the persistence probe adds its means:
    /// export and import wall clock and serialized bytes.
    pub fn analysis_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### Lab `{}` — {} trials (seed {})\n\n",
            self.spec_name,
            self.trials.len(),
            self.seed
        ));
        for summary in self.by_axis() {
            let persist = summary.variants.iter().any(|v| v.mean_persist.is_some());
            out.push_str(&format!("#### by {}\n\n", summary.axis));
            out.push_str("| variant | trials | rows total | mean wall ms | mean serve p99 µs |");
            if persist {
                out.push_str(" mean export ms | mean import ms | mean bytes |");
            }
            out.push_str("\n|---|---|---|---|---|");
            if persist {
                out.push_str("---|---|---|");
            }
            out.push('\n');
            for v in &summary.variants {
                let p99 = v.mean_p99_us.map_or("—".to_string(), |p| format!("{p:.0}"));
                out.push_str(&format!(
                    "| {} | {} | {} | {:.1} | {} |",
                    v.variant, v.trials, v.rows_total, v.mean_wall_ms, p99
                ));
                if persist {
                    out.push_str(&v.mean_persist.as_ref().map_or(
                        " — | — | — |".into(),
                        |m| {
                            format!(
                                " {:.1} | {:.1} | {:.0} |",
                                m.export_ms, m.import_ms, m.bytes
                            )
                        },
                    ));
                }
                out.push('\n');
            }
            out.push('\n');
        }
        if self.axes.is_empty() {
            out.push_str("| trial | rows | wall ms |\n|---|---|---|\n");
            for t in &self.trials {
                out.push_str(&format!(
                    "| {} | {} | {:.1} |\n",
                    t.id,
                    t.rows.total(),
                    t.wall_ms
                ));
            }
            out.push('\n');
        }
        out
    }

    /// The aggregates as JSONL: one record per `(axis, variant)`.
    pub fn analysis_jsonl(&self) -> String {
        let mut out = String::new();
        for summary in self.by_axis() {
            for v in &summary.variants {
                let p99 = v
                    .mean_p99_us
                    .map_or("null".to_string(), |p| format!("{p:.1}"));
                out.push_str(&format!(
                    "{{\"spec\":{},\"axis\":{},\"variant\":{},\"trials\":{},\
                     \"rows_total\":{},\"mean_wall_ms\":{:.3},\"mean_serve_p99_us\":{}}}\n",
                    json_string(&self.spec_name),
                    json_string(&summary.axis),
                    json_string(&v.variant),
                    v.trials,
                    v.rows_total,
                    v.mean_wall_ms,
                    p99
                ));
            }
        }
        out
    }

    /// Convenience: the axis names of `spec`, for constructing a report.
    pub fn axes_of(spec: &Spec) -> Vec<String> {
        spec.axes.iter().map(|a| a.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, backend: &str, rows: usize) -> TrialRecord {
        TrialRecord {
            index: i,
            id: format!("s/backend={backend}/r0"),
            scenario: "s".into(),
            bindings: vec![("backend".into(), backend.into())],
            repeat: 0,
            run: 0,
            seed: 42,
            backend: backend.into(),
            workers: 1,
            exec: "batched".into(),
            rows: TableCounts {
                trajectories: rows,
                rssi: 2 * rows,
                fixes: rows / 2,
                proximity: 0,
            },
            wall_ms: 12.5,
            serve: None,
            persist: Some(PersistProbe {
                bytes: 1000,
                export_ms: 1.0,
                import_ms: 2.0,
            }),
        }
    }

    #[test]
    fn json_fixed_key_order_and_timing_split() {
        let r = record(0, "single", 10);
        let full = r.to_json(true);
        assert!(full.contains("\"wall_ms\":12.500"));
        assert!(full.contains("\"export_ms\":1.000"));
        let det = r.to_json(false);
        assert!(!det.contains("wall_ms"));
        assert!(!det.contains("export_ms"));
        assert!(det.contains("\"persist\":{\"bytes\":1000}"));
        assert!(det.starts_with("{\"trial\":0,\"id\":\"s/backend=single/r0\""));
        // Deterministic form is itself stable.
        assert_eq!(det, record(0, "single", 10).to_json(false));
    }

    #[test]
    fn by_axis_groups_and_averages() {
        let report = LabReport {
            spec_name: "t".into(),
            seed: 1,
            trials: vec![
                record(0, "single", 10),
                record(1, "single", 20),
                record(2, "segmented", 10),
            ],
            axes: vec!["backend".into()],
        };
        let by = report.by_axis();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].variants.len(), 2);
        let single = &by[0].variants[0];
        assert_eq!(single.variant, "single");
        assert_eq!(single.trials, 2);
        assert_eq!(single.rows_total, (10 + 20 + 5) + (20 + 40 + 10));
        assert!((single.mean_wall_ms - 12.5).abs() < 1e-9);
        let md = report.analysis_markdown();
        assert!(md.contains("#### by backend"));
        assert!(md.contains("| single | 2 |"));
        let jsonl = report.analysis_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"variant\":\"segmented\""));
    }

    #[test]
    fn persistence_columns_follow_the_probe() {
        let mut probed = record(1, "single", 20);
        probed.persist = Some(PersistProbe {
            bytes: 3000,
            export_ms: 3.0,
            import_ms: 6.0,
        });
        let report = |trials| LabReport {
            spec_name: "t".into(),
            seed: 1,
            trials,
            axes: vec!["backend".into()],
        };
        let with = report(vec![record(0, "single", 10), probed]);
        let single = &with.by_axis()[0].variants[0];
        assert_eq!(
            single.mean_persist,
            Some(PersistMeans {
                bytes: 2000.0,
                export_ms: 2.0,
                import_ms: 4.0,
            })
        );
        let md = with.analysis_markdown();
        assert!(
            md.contains("| mean export ms | mean import ms | mean bytes |"),
            "{md}"
        );
        assert!(
            md.contains("| single | 2 | 105 | 12.5 | — | 2.0 | 4.0 | 2000 |"),
            "{md}"
        );

        let bare = |i| TrialRecord {
            persist: None,
            ..record(i, "single", 10)
        };
        let without = report(vec![bare(0), bare(1)]);
        assert_eq!(without.by_axis()[0].variants[0].mean_persist, None);
        let md = without.analysis_markdown();
        assert!(!md.contains("export"), "{md}");
        assert!(md.contains("| single | 2 | 70 | 12.5 | — |\n"), "{md}");
    }
}
