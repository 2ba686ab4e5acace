//! Runtime accounting: conversions, energy, throughput.

use afpr_circuit::energy::MacroEnergyBreakdown;
use afpr_circuit::units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Running statistics of a macro instance.
///
/// # Example
///
/// ```
/// use afpr_xbar::cim_macro::CimMacro;
/// use afpr_xbar::spec::{MacroMode, MacroSpec};
///
/// let mut mac = CimMacro::new(MacroSpec::small(4, 2, MacroMode::FpE2M5));
/// mac.program_weights(&[0.5; 8]);
/// let _ = mac.matvec(&[0.25; 4]);
/// let stats = mac.stats();
/// assert_eq!(stats.conversions, 1);
/// assert!(stats.tops_per_watt() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MacroStats {
    /// Macro operations performed: one per matvec, whatever its sign
    /// phases (a mixed-sign input integrates twice but reads out once).
    pub conversions: u64,
    /// MAC operations performed (dense count: `2 × rows × cols` per
    /// conversion).
    pub ops: u64,
    /// Column readouts that saturated.
    pub saturations: u64,
    /// Column readouts that underflowed ("not read out").
    pub underflows: u64,
    /// Accumulated energy by module.
    pub energy: MacroEnergyBreakdown,
    /// Accumulated busy time.
    pub busy_time: Seconds,
}

impl MacroStats {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Total accumulated energy.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Average power while busy (0 if never busy).
    #[must_use]
    pub fn average_power(&self) -> Watts {
        if self.busy_time.seconds() == 0.0 {
            return Watts::ZERO;
        }
        self.total_energy() / self.busy_time
    }

    /// Throughput in GOPS (0 if never busy).
    #[must_use]
    pub fn throughput_gops(&self) -> f64 {
        if self.busy_time.seconds() == 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.busy_time.seconds() / 1e9
    }

    /// Energy efficiency in TOPS/W (0 if no energy spent).
    #[must_use]
    pub fn tops_per_watt(&self) -> f64 {
        let e = self.total_energy().joules();
        if e == 0.0 {
            return 0.0;
        }
        self.ops as f64 / e / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = MacroStats::default();
        assert_eq!(s.throughput_gops(), 0.0);
        assert_eq!(s.tops_per_watt(), 0.0);
        assert_eq!(s.average_power().watts(), 0.0);
    }

    #[test]
    fn table1_numbers_from_stats() {
        // One dense E2M5 conversion: 294912 ops in 200 ns at 14.828 nJ.
        let s = MacroStats {
            conversions: 1,
            ops: 294_912,
            busy_time: Seconds::from_nano(200.0),
            energy: MacroEnergyBreakdown {
                adc: Joules::new(14.828e-9),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.throughput_gops() - 1474.56).abs() < 0.01);
        assert!((s.tops_per_watt() - 19.89).abs() < 0.01);
        assert!((s.average_power().watts() - 74.14e-3).abs() < 1e-4);
    }

    #[test]
    fn reset_clears_counters() {
        let mut s = MacroStats {
            conversions: 5,
            ops: 10,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s.conversions, 0);
        assert_eq!(s.ops, 0);
    }
}
