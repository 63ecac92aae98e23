//! Named metrics with units, rendered as the result line's `metrics`
//! object.

use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn count(&mut self, name: &str, v: u64) {
        self.set(name, v as f64, "count");
    }

    pub fn secs(&mut self, name: &str, v: f64) {
        self.set(name, v, "s");
    }

    pub fn us(&mut self, name: &str, v: f64) {
        self.set(name, v, "us");
    }

    pub fn ratio(&mut self, name: &str, v: f64) {
        self.set(name, v, "ratio");
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; non-finite values
    /// render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (v, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push('}');
        out
    }
}
