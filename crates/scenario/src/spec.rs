//! Declarative description of one scenario run.

use std::collections::BTreeMap;
use std::fmt;

use karyon_sim::SimDuration;

/// A typed scenario parameter value.
///
/// Parameters travel through grids, specs and reports, so they are a small
/// closed set of types rather than arbitrary trait objects.  `BTreeMap` keys
/// keep every enumeration deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An integer parameter (counts, indices, windows in seconds).
    Int(i64),
    /// A floating-point parameter (rates, probabilities, magnitudes).
    Float(f64),
    /// A boolean switch.
    Bool(bool),
    /// A named variant (e.g. a control mode or a fallback strategy).
    Text(String),
}

impl ParamValue {
    /// The value as `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(v) => Some(*v as f64),
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Text(v) => Some(v),
            _ => None,
        }
    }

    /// The type name used in machine-readable family listings
    /// (`int`, `float`, `bool`, `text`).
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Bool(_) => "bool",
            ParamValue::Text(_) => "text",
        }
    }

    /// Renders the value as a JSON scalar ([`ParamValue::from_json`] parses
    /// it back to an equal value — whole floats keep a decimal point so they
    /// stay floats through the round trip).
    pub fn to_json(&self) -> String {
        match self {
            ParamValue::Int(i) => i.to_string(),
            ParamValue::Float(f) if f.is_finite() && f.fract() == 0.0 => format!("{f:.1}"),
            ParamValue::Float(f) => crate::json::number(*f),
            ParamValue::Bool(b) => b.to_string(),
            ParamValue::Text(s) => format!("\"{}\"", crate::json::escape(s)),
        }
    }
}

impl ParamValue {
    /// Converts a parsed JSON value into a parameter value.
    ///
    /// JSON numbers without a fraction or exponent become [`ParamValue::Int`]
    /// (the raw source text decides: `4` is an integer, `4.0` a float), so a
    /// spec file distinguishes the two exactly like the builder API does.
    pub fn from_json(value: &crate::json::JsonValue) -> Result<ParamValue, String> {
        use crate::json::JsonValue;
        match value {
            JsonValue::Bool(b) => Ok(ParamValue::Bool(*b)),
            JsonValue::String(s) => Ok(ParamValue::Text(s.clone())),
            JsonValue::Number(raw) => {
                if let Ok(i) = raw.parse::<i64>() {
                    Ok(ParamValue::Int(i))
                } else if let Ok(f) = raw.parse::<f64>() {
                    Ok(ParamValue::Float(f))
                } else {
                    Err(format!("number {raw:?} fits neither i64 nor f64"))
                }
            }
            other => Err(format!(
                "a parameter value must be a number, string or boolean, not {}",
                other.type_name()
            )),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Text(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::Int(v as i64)
    }
}

impl From<u64> for ParamValue {
    /// # Panics
    /// Panics above `i64::MAX` — wrapping to a negative parameter would make
    /// the run silently diverge from its report label.
    fn from(v: u64) -> Self {
        ParamValue::Int(i64::try_from(v).expect("parameter value exceeds i64::MAX"))
    }
}

impl From<usize> for ParamValue {
    /// # Panics
    /// Panics above `i64::MAX` — wrapping to a negative parameter would make
    /// the run silently diverge from its report label.
    fn from(v: usize) -> Self {
        ParamValue::Int(i64::try_from(v).expect("parameter value exceeds i64::MAX"))
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Text(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Text(v)
    }
}

/// The spec loaders' refusal of a `duration_secs` a [`SimDuration`] cannot
/// hold in microseconds.
pub(crate) const DURATION_SECS_RANGE: &str =
    "\"duration_secs\" must be a whole number of seconds from 0 to 18446744073709";

/// The declarative description of one scenario run: family name, parameter
/// map, RNG seed and simulated duration.
///
/// Built fluently:
///
/// ```
/// use karyon_scenario::ScenarioSpec;
///
/// let spec = ScenarioSpec::new("platoon")
///     .with("vehicles", 6)
///     .with("mode", "kernel")
///     .with_seed(7)
///     .with_duration_secs(120);
/// assert_eq!(spec.u64_or("vehicles", 0), 6);
/// assert_eq!(spec.str_or("mode", "-"), "kernel");
/// assert_eq!(spec.f64_or("not-set", 1.5), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario family this spec is for.
    pub name: String,
    /// The per-run RNG seed (derived from the campaign seed by the runner).
    pub seed: u64,
    /// The simulated duration of the run.
    pub duration: SimDuration,
    params: BTreeMap<String, ParamValue>,
}

impl ScenarioSpec {
    /// Creates a spec for the named scenario family with no parameters,
    /// seed 1 and a 60 s duration.
    pub fn new(name: &str) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            seed: 1,
            duration: SimDuration::from_secs(60),
            params: BTreeMap::new(),
        }
    }

    /// Sets one parameter.
    pub fn with(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the simulated duration in whole seconds.
    pub fn with_duration_secs(self, secs: u64) -> Self {
        self.with_duration(SimDuration::from_secs(secs))
    }

    /// Replaces the whole parameter map (used by the campaign runner when
    /// instantiating a grid point).
    pub fn with_params(mut self, params: BTreeMap<String, ParamValue>) -> Self {
        self.params = params;
        self
    }

    /// Looks up one parameter.
    pub fn param(&self, key: &str) -> Option<&ParamValue> {
        self.params.get(key)
    }

    /// All parameters in deterministic (sorted-key) order.
    pub fn params(&self) -> &BTreeMap<String, ParamValue> {
        &self.params
    }

    fn type_mismatch(&self, key: &str, expected: &str, found: &ParamValue) -> ! {
        panic!(
            "parameter {key:?} of scenario {:?} is {found:?}, expected {expected} — \
             a silent default here would run a configuration different from the \
             one the report labels",
            self.name
        )
    }

    /// Numeric parameter (integers coerce), or `default` when absent.
    ///
    /// # Panics
    /// Panics when the parameter is present but not numeric.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        match self.params.get(key) {
            None => default,
            Some(v) => v.as_f64().unwrap_or_else(|| self.type_mismatch(key, "a number", v)),
        }
    }

    /// Integer parameter (exact-integer floats coerce), or `default` when
    /// absent.
    ///
    /// # Panics
    /// Panics when the parameter is present but not an (exact) integer.
    pub fn i64_or(&self, key: &str, default: i64) -> i64 {
        match self.params.get(key) {
            None => default,
            Some(ParamValue::Float(f))
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(f) =>
            {
                *f as i64
            }
            Some(v) => v.as_i64().unwrap_or_else(|| self.type_mismatch(key, "an integer", v)),
        }
    }

    /// Integer parameter clamped to `u64`, or `default` when absent.
    ///
    /// # Panics
    /// Panics when the parameter is present but not an (exact) integer.
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        if self.params.contains_key(key) {
            self.i64_or(key, 0).max(0) as u64
        } else {
            default
        }
    }

    /// Boolean parameter, or `default` when absent.
    ///
    /// # Panics
    /// Panics when the parameter is present but not a boolean.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        match self.params.get(key) {
            None => default,
            Some(v) => v.as_bool().unwrap_or_else(|| self.type_mismatch(key, "a boolean", v)),
        }
    }

    /// Text parameter, or `default` when absent.
    ///
    /// # Panics
    /// Panics when the parameter is present but not text.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        match self.params.get(key) {
            None => default,
            Some(v) => v.as_str().unwrap_or_else(|| self.type_mismatch(key, "text", v)),
        }
    }

    /// A compact `k=v, k=v` rendering of the parameter map (used in tables).
    pub fn params_label(&self) -> String {
        params_label(&self.params)
    }

    /// Renders the spec as the JSON document [`ScenarioSpec::from_json_str`]
    /// parses — the two round-trip exactly for whole-second durations (the
    /// spec-file format only carries `duration_secs`; sub-second precision is
    /// truncated):
    ///
    /// ```
    /// use karyon_scenario::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::new("tdma").with("nodes", 8).with_seed(3);
    /// let round_tripped = ScenarioSpec::from_json_str(&spec.to_json()).unwrap();
    /// assert_eq!(round_tripped, spec);
    /// ```
    pub fn to_json(&self) -> String {
        let mut params = crate::json::ObjectWriter::new();
        for (k, v) in &self.params {
            params.raw(k, &v.to_json());
        }
        let mut o = crate::json::ObjectWriter::new();
        o.string("scenario", &self.name);
        o.u64("seed", self.seed);
        o.u64("duration_secs", self.duration.as_micros() / 1_000_000);
        o.raw("params", &params.finish());
        o.finish()
    }

    /// Builds a single-run spec from a JSON document — the one-off
    /// counterpart of a campaign spec file
    /// ([`Campaign::from_json_str`](crate::Campaign::from_json_str)) and the
    /// inverse of [`ScenarioSpec::to_json`]:
    ///
    /// ```
    /// use karyon_scenario::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::from_json_str(r#"{
    ///     "scenario": "platoon", "seed": 9, "duration_secs": 120,
    ///     "params": {"vehicles": 6, "mode": "kernel"}
    /// }"#).expect("well-formed spec");
    /// assert_eq!(spec.name, "platoon");
    /// assert_eq!(spec.seed, 9);
    /// assert_eq!(spec.u64_or("vehicles", 0), 6);
    /// ```
    ///
    /// `seed`, `duration_secs` and `params` are optional and default like
    /// [`ScenarioSpec::new`]; unknown fields are rejected.
    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, String> {
        use crate::json::JsonValue;
        let doc = JsonValue::parse(text)?;
        let members = doc.as_object().ok_or_else(|| {
            format!("a scenario spec must be a JSON object, not {}", doc.type_name())
        })?;
        for (key, _) in members {
            if !matches!(key.as_str(), "scenario" | "seed" | "duration_secs" | "params") {
                return Err(format!(
                    "unknown scenario-spec field {key:?} (known: scenario, seed, \
                     duration_secs, params)"
                ));
            }
        }
        let name = doc
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or("a scenario spec needs a string \"scenario\" field")?;
        let mut spec = ScenarioSpec::new(name);
        if let Some(seed) = doc.get("seed") {
            spec = spec.with_seed(seed.as_u64().ok_or("\"seed\" must be a non-negative integer")?);
        }
        if let Some(secs) = doc.get("duration_secs") {
            spec = spec.with_duration(
                secs.as_u64()
                    .and_then(SimDuration::checked_from_secs)
                    .ok_or(DURATION_SECS_RANGE)?,
            );
        }
        if let Some(params) = doc.get("params") {
            let members = params.as_object().ok_or_else(|| {
                format!("\"params\" must be an object, not {}", params.type_name())
            })?;
            for (key, value) in members {
                spec = spec.with(
                    key,
                    ParamValue::from_json(value).map_err(|e| format!("param {key:?}: {e}"))?,
                );
            }
        }
        Ok(spec)
    }
}

/// Renders a parameter map as a compact `k=v, k=v` label in key order.
pub fn params_label(params: &BTreeMap<String, ParamValue>) -> String {
    params.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", ")
}

/// Renders a parameter map as a JSON object in key order.
pub(crate) fn params_json(params: &BTreeMap<String, ParamValue>) -> String {
    let mut o = crate::json::ObjectWriter::new();
    for (k, v) in params {
        match v {
            ParamValue::Int(i) => o.i64(k, *i),
            ParamValue::Float(f) => o.f64(k, *f),
            ParamValue::Bool(b) => o.bool(k, *b),
            ParamValue::Text(s) => o.string(k, s),
        };
    }
    o.close()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_getters_and_defaults() {
        let spec = ScenarioSpec::new("x")
            .with("count", 5)
            .with("rate", 0.25)
            .with("on", true)
            .with("mode", "kernel");
        assert_eq!(spec.i64_or("count", 0), 5);
        assert_eq!(spec.u64_or("count", 0), 5);
        assert_eq!(spec.f64_or("count", 0.0), 5.0, "integers coerce to f64");
        assert_eq!(spec.f64_or("rate", 0.0), 0.25);
        assert!(spec.bool_or("on", false));
        assert_eq!(spec.str_or("mode", "-"), "kernel");
        // Defaults apply on absence only.
        assert_eq!(spec.str_or("missing", "d"), "d");
        assert_eq!(spec.u64_or("neg", 9), 9);
        assert_eq!(spec.i64_or("missing", -1), -1);
    }

    #[test]
    fn exact_integer_floats_coerce_to_integers() {
        // A grid axis written as [12.0, 20.0] must configure 12/20 vehicles,
        // not silently fall back to a default.
        let spec = ScenarioSpec::new("x").with("vehicles", 12.0);
        assert_eq!(spec.u64_or("vehicles", 6), 12);
        assert_eq!(spec.i64_or("vehicles", 6), 12);
    }

    #[test]
    #[should_panic(expected = "expected an integer")]
    fn fractional_float_for_integer_getter_panics() {
        let spec = ScenarioSpec::new("x").with("vehicles", 12.5);
        let _ = spec.u64_or("vehicles", 6);
    }

    #[test]
    #[should_panic(expected = "expected text")]
    fn non_text_for_str_getter_panics() {
        let spec = ScenarioSpec::new("x").with("mode", 2);
        let _ = spec.str_or("mode", "kernel");
    }

    #[test]
    fn negative_int_clamps_to_zero_for_u64() {
        let spec = ScenarioSpec::new("x").with("n", -3);
        assert_eq!(spec.u64_or("n", 7), 0);
    }

    #[test]
    fn json_durations_past_the_microsecond_range_are_refused() {
        let doc = |secs: u64| format!(r#"{{"scenario": "x", "duration_secs": {secs}}}"#);
        let longest = ScenarioSpec::from_json_str(&doc(18_446_744_073_709)).unwrap();
        assert_eq!(longest.duration, SimDuration::from_secs(18_446_744_073_709));
        let err = ScenarioSpec::from_json_str(&doc(18_446_744_073_710)).unwrap_err();
        assert_eq!(err, DURATION_SECS_RANGE);
    }

    #[test]
    fn params_label_is_sorted_and_stable() {
        let spec = ScenarioSpec::new("x").with("b", 2).with("a", "v");
        assert_eq!(spec.params_label(), "a=v, b=2");
    }
}
