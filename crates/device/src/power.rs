//! Power-consumption accounting.
//!
//! The S60 location stack lets applications trade accuracy for battery via
//! the `powerConsumption` field of its `Criteria` — one of the platform-mandated
//! attributes the paper's binding plane carries as a *property*. The
//! simulated device keeps a per-component energy ledger so tests can
//! observe that the property actually changes behaviour.

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;

/// Power budget level requested by an application (mirrors the S60
/// `Criteria` power-consumption constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerLevel {
    /// Platform picks; treated as medium.
    #[default]
    NoRequirement,
    /// Battery-saving mode: coarser fixes, lower draw.
    Low,
    /// Balanced.
    Medium,
    /// Best accuracy, highest draw.
    High,
}

impl PowerLevel {
    /// Multiplier applied to a component's base energy draw.
    pub fn draw_multiplier(&self) -> f64 {
        match self {
            PowerLevel::Low => 0.5,
            PowerLevel::NoRequirement | PowerLevel::Medium => 1.0,
            PowerLevel::High => 2.0,
        }
    }

    /// Multiplier applied to GPS accuracy sigma (lower power ⇒ coarser
    /// fixes).
    pub fn accuracy_multiplier(&self) -> f64 {
        match self {
            PowerLevel::Low => 3.0,
            PowerLevel::NoRequirement | PowerLevel::Medium => 1.0,
            PowerLevel::High => 0.5,
        }
    }

    /// Parses the textual values used in proxy property lists.
    pub fn parse(value: &str) -> Option<Self> {
        // Case-insensitive comparison in place: this runs on the traced
        // proxy hot path, which must not allocate.
        let eq = |spelling: &str| value.eq_ignore_ascii_case(spelling);
        if eq("norequirement") || eq("no_requirement") {
            Some(PowerLevel::NoRequirement)
        } else if eq("low") {
            Some(PowerLevel::Low)
        } else if eq("medium") {
            Some(PowerLevel::Medium)
        } else if eq("high") {
            Some(PowerLevel::High)
        } else {
            None
        }
    }
}

/// Per-component energy ledger (units: millijoules, nominal).
///
/// # Example
///
/// ```
/// use mobivine_device::power::PowerMeter;
///
/// let meter = PowerMeter::new();
/// meter.draw("gps", 12.5);
/// meter.draw("gps", 2.5);
/// meter.draw("radio", 5.0);
/// assert_eq!(meter.component_total("gps"), 15.0);
/// assert_eq!(meter.total(), 20.0);
/// ```
#[derive(Default)]
pub struct PowerMeter {
    /// Keyed by `&'static str`: component names form a fixed
    /// compile-time vocabulary, so a draw on the hot path never
    /// allocates a key.
    ledger: Mutex<HashMap<&'static str, f64>>,
}

impl fmt::Debug for PowerMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerMeter")
            .field("total_mj", &self.total())
            .finish()
    }
}

impl PowerMeter {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `amount_mj` millijoules drawn by `component`.
    pub fn draw(&self, component: &'static str, amount_mj: f64) {
        *self.ledger.lock().entry(component).or_insert(0.0) += amount_mj;
    }

    /// Total energy drawn by one component.
    pub fn component_total(&self, component: &str) -> f64 {
        self.ledger.lock().get(component).copied().unwrap_or(0.0)
    }

    /// Total energy drawn across all components.
    pub fn total(&self) -> f64 {
        self.ledger.lock().values().sum()
    }

    /// Snapshot of the ledger, sorted by component name.
    pub fn by_component(&self) -> Vec<(String, f64)> {
        let mut entries: Vec<_> = self
            .ledger
            .lock()
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Clears the ledger (used between benchmark runs).
    pub fn reset(&self) {
        self.ledger.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_accumulate_per_component() {
        let meter = PowerMeter::new();
        meter.draw("gps", 1.0);
        meter.draw("gps", 2.0);
        meter.draw("net", 4.0);
        assert_eq!(meter.component_total("gps"), 3.0);
        assert_eq!(meter.component_total("net"), 4.0);
        assert_eq!(meter.total(), 7.0);
    }

    #[test]
    fn unknown_component_is_zero() {
        assert_eq!(PowerMeter::new().component_total("nope"), 0.0);
    }

    #[test]
    fn by_component_is_sorted() {
        let meter = PowerMeter::new();
        meter.draw("z", 1.0);
        meter.draw("a", 2.0);
        let entries = meter.by_component();
        assert_eq!(entries[0].0, "a");
        assert_eq!(entries[1].0, "z");
    }

    #[test]
    fn reset_clears() {
        let meter = PowerMeter::new();
        meter.draw("gps", 5.0);
        meter.reset();
        assert_eq!(meter.total(), 0.0);
    }

    #[test]
    fn power_levels_order_draw() {
        assert!(PowerLevel::Low.draw_multiplier() < PowerLevel::Medium.draw_multiplier());
        assert!(PowerLevel::Medium.draw_multiplier() < PowerLevel::High.draw_multiplier());
    }

    #[test]
    fn power_levels_order_accuracy_inversely() {
        assert!(PowerLevel::Low.accuracy_multiplier() > PowerLevel::High.accuracy_multiplier());
    }

    #[test]
    fn parse_accepts_proxy_property_spellings() {
        assert_eq!(PowerLevel::parse("Low"), Some(PowerLevel::Low));
        assert_eq!(PowerLevel::parse("HIGH"), Some(PowerLevel::High));
        assert_eq!(
            PowerLevel::parse("NoRequirement"),
            Some(PowerLevel::NoRequirement)
        );
        assert_eq!(PowerLevel::parse("turbo"), None);
    }
}
