//! Metric collection, summary statistics and the result line.

use ihtl_serve::Json;

/// One named metric: every sample a run took, summarised by its median.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn median(&self) -> f64 {
        quantile(&self.samples, 0.5)
    }
}

/// Everything one benchmark run measured and checked.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations the workload issued (solves, requests, jobs).
    pub attempted: u64,
    /// Operations that returned an error or no reply.
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Context that is not a metric (input generation time, sample counts).
    pub context: Vec<(String, Json)>,
}

impl Report {
    /// Records a metric from repeated samples; its value is their median.
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        self.metrics.push(Metric { name: name.to_string(), unit, samples });
    }

    /// Records a metric measured or counted once.
    pub fn value(&mut self, name: &str, unit: &'static str, v: f64) {
        self.samples(name, unit, vec![v]);
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn context(&mut self, key: &str, v: impl Into<Json>) {
        self.context.push((key.to_string(), v.into()));
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable lines: each metric with its median, quartiles and
    /// sample count, then every context entry and mismatch.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<36} {:>14.6} {:<6} q1={:.6} q3={:.6} n={}",
                m.name,
                m.median(),
                m.unit,
                quantile(&m.samples, 0.25),
                quantile(&m.samples, 0.75),
                m.samples.len()
            );
        }
        for (k, v) in &self.context {
            if !matches!(v, Json::Arr(a) if a.len() > 16) {
                println!("context {k} {v}");
            }
        }
        for m in &self.mismatches {
            println!("MISMATCH {m}");
        }
    }

    /// The full report (every metric with its quartiles, plus context) as
    /// one JSON document.
    pub fn to_json(&self, stamp: Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let o = Json::obj([
                    ("value", Json::Num(m.median())),
                    ("unit", Json::from(m.unit)),
                    ("q1", Json::Num(quantile(&m.samples, 0.25))),
                    ("q3", Json::Num(quantile(&m.samples, 0.75))),
                    ("n", Json::from(m.samples.len())),
                    ("samples", Json::Arr(m.samples.iter().map(|&x| Json::Num(x)).collect())),
                ]);
                (m.name.clone(), o)
            })
            .collect();
        Json::Obj(vec![
            ("stamp".to_string(), stamp),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
            ("context".to_string(), Json::Obj(self.context.clone())),
            (
                "mismatches".to_string(),
                Json::Arr(self.mismatches.iter().map(|m| Json::from(m.as_str())).collect()),
            ),
        ])
    }

    /// The `declared` (name, unit) metrics this run did not measure. A
    /// measured metric in another unit than declared is an error.
    pub fn absent(&self, declared: &[(String, String)]) -> Result<Vec<String>, String> {
        let mut absent = Vec::new();
        for (name, unit) in declared {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.unit != unit => {
                    return Err(format!("metric {name} is in {}, declared in {unit}", m.unit))
                }
                Some(_) => {}
                None => absent.push(name.clone()),
            }
        }
        Ok(absent)
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// `declared` (name, unit) metric as its median, or 0 if not measured.
    pub fn result_line(&self, declared: &[(String, String)]) -> String {
        let metrics = declared
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.iter().find(|m| m.name == *name).map_or(0.0, Metric::median);
                let o = Json::obj([("value", Json::Num(v)), ("unit", Json::from(unit.as_str()))]);
                (name.clone(), o)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Linear-interpolation quantile (the "inclusive" method) of unsorted
/// samples. Infinite samples (failed requests) sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || s[hi] == s[lo] {
        s[lo]
    } else {
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    }
}

/// Number of samples strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&x| x > threshold).count()
}
