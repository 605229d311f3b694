//! What one run of one workload produced, and its contract rendering.

use crate::json::Json;
use crate::ladder::Values;
use crate::spec::{END_TO_END, PER_LAYER};

/// Result of one run (one workload, one seed, traced or untraced).
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted (measured steps / submission attempts).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name: the end-to-end set for an untraced run,
    /// the per-layer set for a traced one.
    pub metrics: Values,
    /// Sample counts per timing metric, for the printed report.
    pub samples: Vec<(&'static str, usize)>,
    /// Free-form report lines (check failures, axis notes).
    pub notes: Vec<String>,
}

impl RunOutcome {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, with every metric of the run's set present.
    /// A metric the run failed to produce is reported as a failed check
    /// rather than silently dropped.
    pub fn contract_json(&mut self, traced: bool) -> Json {
        let specs: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in specs {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    self.correct = false;
                    self.notes.push(format!("metric {name} was not produced"));
                    0.0
                }
            };
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `NaN` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
