//! A registry of named metrics, grouped by component.
//!
//! Components register counters (monotonic `u64`), gauges (`f64`
//! readings, e.g. host-side phase wall times) and histogram snapshots.
//! The registry serializes through [`spb_stats::json`] into the
//! `"metrics"` section of sweep reports and into `spbsim trace` output.

use spb_stats::json::Json;
use spb_stats::Histogram;

/// A compact, serializable summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistogramSnapshot {
    /// The histogram's name.
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Largest sample.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 95th-percentile upper bound.
    pub p95: u64,
}

impl HistogramSnapshot {
    /// Snapshots `h`.
    pub fn of(h: &Histogram) -> Self {
        Self {
            name: h.name().to_string(),
            count: h.count(),
            mean: h.mean(),
            max: h.max(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean", Json::from(self.mean)),
            ("max", Json::from(self.max)),
            ("p50", Json::from(self.p50)),
            ("p95", Json::from(self.p95)),
        ])
    }
}

/// One component's metrics (e.g. `"cpu"`, `"mem"`, `"runner"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Component {
    name: String,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<HistogramSnapshot>,
}

impl Component {
    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers (or overwrites) a counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.counters.push((name.to_string(), value)),
        }
        self
    }

    /// Registers (or overwrites) a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name.to_string(), value)),
        }
        self
    }

    /// Registers a histogram snapshot under the histogram's own name.
    pub fn histogram(&mut self, h: &Histogram) -> &mut Self {
        let snap = HistogramSnapshot::of(h);
        match self.histograms.iter_mut().find(|s| s.name == snap.name) {
            Some(s) => *s = snap,
            None => self.histograms.push(snap),
        }
        self
    }

    /// Reads a counter back.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Reads a gauge back.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        if !self.counters.is_empty() {
            pairs.push((
                "counters".to_string(),
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::from(*v))),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            pairs.push((
                "gauges".to_string(),
                Json::obj(self.gauges.iter().map(|(n, v)| (n.clone(), Json::from(*v)))),
            ));
        }
        if !self.histograms.is_empty() {
            pairs.push((
                "histograms".to_string(),
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|s| (s.name.clone(), s.to_json())),
                ),
            ));
        }
        Json::Obj(pairs)
    }
}

/// Named metrics registered by component, in registration order.
///
/// # Examples
///
/// ```
/// use spb_obs::metrics::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.component("runner").counter("cycles", 1234).gauge("warmup_ms", 8.5);
/// let json = reg.to_json();
/// assert!(json.to_string().contains("\"cycles\""));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    components: Vec<Component>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The component named `name`, created on first use.
    pub fn component(&mut self, name: &str) -> &mut Component {
        if let Some(i) = self.components.iter().position(|c| c.name == name) {
            return &mut self.components[i];
        }
        self.components.push(Component {
            name: name.to_string(),
            ..Component::default()
        });
        self.components.last_mut().expect("just pushed")
    }

    /// Read-only lookup.
    pub fn get(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Serializes as one JSON object keyed by component name.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.components
                .iter()
                .map(|c| (c.name.clone(), c.to_json())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read_back() {
        let mut reg = MetricsRegistry::new();
        reg.component("cpu")
            .counter("committed_stores", 10)
            .gauge("sb_stall_ratio", 0.25);
        reg.component("cpu").counter("committed_stores", 11); // overwrite
        assert_eq!(
            reg.get("cpu").unwrap().get_counter("committed_stores"),
            Some(11)
        );
        assert_eq!(
            reg.get("cpu").unwrap().get_gauge("sb_stall_ratio"),
            Some(0.25)
        );
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn json_shape_is_component_keyed() {
        let mut reg = MetricsRegistry::new();
        let mut h = Histogram::new("sb_residency_cycles", 16, 64);
        h.record(5);
        h.record(40);
        reg.component("sb").histogram(&h);
        reg.component("runner")
            .counter("cycles", 99)
            .gauge("wall_ms", 1.5);
        let j = reg.to_json();
        let sb = j.get("sb").expect("sb component");
        let hist = sb
            .get("histograms")
            .and_then(|h| h.get("sb_residency_cycles"));
        assert!(hist.is_some());
        assert_eq!(hist.unwrap().get("count").and_then(Json::as_u64), Some(2));
        let runner = j.get("runner").expect("runner component");
        assert_eq!(
            runner
                .get("counters")
                .and_then(|c| c.get("cycles"))
                .and_then(Json::as_u64),
            Some(99)
        );
    }

    #[test]
    fn registry_round_trips_through_json_text() {
        let mut reg = MetricsRegistry::new();
        reg.component("mem").counter("loads", 7);
        let text = format!("{:#}", reg.to_json());
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(
            parsed
                .get("mem")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("loads"))
                .and_then(Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn empty_registry_is_empty() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.to_json().to_string(), "{}");
    }
}
