//! Plain-text table and CSV emitters for experiment series.

use crate::Metrics;

/// One experiment's output: rows are sweep points, columns are algorithms.
#[derive(Debug, Clone)]
pub struct Series {
    /// Experiment identifier, e.g. `fig4a`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Label of the sweep variable, e.g. `nodes`.
    pub x_label: String,
    /// Column (algorithm) names.
    pub columns: Vec<String>,
    /// `(x value, per-column metrics)` rows.
    pub rows: Vec<(String, Vec<Metrics>)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(id: &str, title: &str, x_label: &str, columns: &[&str]) -> Self {
        Series {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a sweep point.
    pub fn push(&mut self, x: &impl ToString, metrics: Vec<Metrics>) {
        assert_eq!(metrics.len(), self.columns.len());
        self.rows.push((x.to_string(), metrics));
    }

    /// Renders one metric as an aligned percentage table.
    pub fn render(&self, metric: fn(&Metrics) -> f64, metric_name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {} (%)\n", self.title, metric_name));
        let width = self
            .columns
            .iter()
            .map(|c| c.len() + 2)
            .max()
            .unwrap_or(0)
            .max(16);
        out.push_str(&format!("{:>10}", self.x_label));
        for c in &self.columns {
            out.push_str(&format!("{c:>width$}"));
        }
        out.push('\n');
        for (x, ms) in &self.rows {
            out.push_str(&format!("{x:>10}"));
            for m in ms {
                out.push_str(&format!("{:>width$.2}", metric(m) * 100.0));
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV with all metrics (long format).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "experiment,x,algorithm,delivered,utilization,delivered_over_psi,psi_fraction\n",
        );
        for (x, ms) in &self.rows {
            for (c, m) in self.columns.iter().zip(ms) {
                out.push_str(&format!(
                    "{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
                    self.id, x, c, m.delivered, m.utilization, m.delivered_over_psi, m.psi_fraction
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(d: f64) -> Metrics {
        Metrics {
            delivered: d,
            utilization: d / 2.0,
            delivered_over_psi: d,
            psi_fraction: d,
        }
    }

    #[test]
    fn render_and_csv() {
        let mut s = Series::new("figX", "Demo", "delta", &["Octopus", "UB"]);
        s.push(&20, vec![m(0.5), m(0.6)]);
        s.push(&100, vec![m(0.4), vec![m(0.5)][0]]);
        let txt = s.render(|m| m.delivered, "packets delivered");
        assert!(txt.contains("Octopus"));
        assert!(txt.contains("50.00"));
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.contains("figX,20,Octopus,0.5"));
    }

    #[test]
    #[should_panic]
    fn column_count_enforced() {
        let mut s = Series::new("f", "t", "x", &["A", "B"]);
        s.push(&1, vec![m(0.1)]);
    }
}
