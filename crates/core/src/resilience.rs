//! Live fault injection and self-healing for a running accelerator.
//!
//! Analog CIM robustness is not optional: stuck-LRS/HRS cells and
//! retention drift are first-class phenomena of the RRAM substrate, and
//! accuracy collapses silently unless the system detects and
//! compensates. This module provides:
//!
//! * [`ChaosConfig`] — declarative fault environment: a stuck-cell
//!   yield model, a drift step, and injection/scrub cadences;
//! * [`ChaosController`] — owns the chaos RNG stream and applies the
//!   config to an [`AfprAccelerator`] on a tick cadence (one tick per
//!   forward pass when attached to a
//!   [`MacroModelSim`](crate::sim::MacroModelSim));
//! * [`ChaosStats`] — cumulative, serializable accounting (fault cells
//!   injected, scrub detections, repairs, drift seconds).
//!
//! # Determinism contract
//!
//! The controller draws only from its **own** seeded RNG, never from a
//! macro's compute stream. With `fault_rate == 0` and `drift_step ==
//! 0`, a ticked accelerator is **bit-identical** to an unticked one:
//! `YieldModel::sample_array` makes zero draws at rate 0, scrub
//! detection on a healthy array flags nothing (so no spare is ever
//! programmed), and the compute RNG streams are untouched. This is
//! pinned by `crates/core/tests/chaos_determinism.rs`.

use afpr_circuit::units::Seconds;
use afpr_device::YieldModel;
use afpr_xbar::{GuardConfig, ScrubReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::accelerator::AfprAccelerator;

/// Declarative description of the fault environment to impose on a
/// running accelerator.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Per-cell stuck-fault probability applied at each injection
    /// event. [`YieldModel::perfect`] disables fault injection.
    pub yield_model: YieldModel,
    /// Retention age (seconds) added to every array at each injection
    /// event. `0.0` disables drift stepping.
    pub drift_step: f64,
    /// Forward passes between injection events (`0` = never inject).
    pub inject_period: u64,
    /// Forward passes between scrub passes (`0` = never scrub).
    pub scrub_period: u64,
    /// Detection/repair tuning for scrub passes.
    pub guard: GuardConfig,
    /// Seed of the controller's private RNG stream.
    pub seed: u64,
}

impl ChaosConfig {
    /// A config that injects nothing and scrubs nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            yield_model: YieldModel::perfect(),
            drift_step: 0.0,
            inject_period: 0,
            scrub_period: 0,
            guard: GuardConfig::default(),
            seed: 0,
        }
    }

    /// Whether this config can ever mutate the accelerator.
    #[must_use]
    pub fn is_active(&self) -> bool {
        let injects = self.inject_period > 0
            && (self.yield_model.fault_rate() > 0.0 || self.drift_step > 0.0);
        injects || self.scrub_period > 0
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Cumulative accounting of everything a [`ChaosController`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Ticks observed (forward passes when attached to a sim).
    pub ticks: u64,
    /// Injection events that fired.
    pub inject_events: u64,
    /// Total cells faulted across all injection events.
    pub cells_faulted: u64,
    /// Scrub passes that ran.
    pub scrub_events: u64,
    /// Cumulative scrub outcome (flagged / repaired / unrepaired).
    pub scrub: ScrubReport,
    /// Total retention age added, seconds.
    pub drift_seconds: f64,
}

impl ChaosStats {
    /// Monotone count of *fault evidence* events: cells injected plus
    /// columns a scrub flagged. Health machines watch the delta of
    /// this between polls; repaired columns still count because the
    /// fault happened.
    #[must_use]
    pub fn fault_events(&self) -> u64 {
        self.cells_faulted + self.scrub.flagged
    }
}

/// Applies a [`ChaosConfig`] to an accelerator on a tick cadence,
/// using a private RNG stream so compute determinism is preserved.
#[derive(Debug, Clone)]
pub struct ChaosController {
    cfg: ChaosConfig,
    rng: StdRng,
    stats: ChaosStats,
}

impl ChaosController {
    /// Builds a controller; all injection and repair randomness derives
    /// from `cfg.seed`.
    #[must_use]
    pub fn new(cfg: ChaosConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            stats: ChaosStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Cumulative accounting so far.
    #[must_use]
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Advances the chaos clock by one tick, applying any injection
    /// and/or scrub event that falls due. Returns the scrub report if
    /// a scrub pass ran on this tick.
    ///
    /// Every mutation applied here (`inject_faults`, `advance_age`,
    /// scrub repairs via `remap_column`) routes through invalidating
    /// `Crossbar` methods, so the conductance-snapshot kernel caches
    /// are bumped automatically and the next forward pass rebuilds
    /// them lazily — chaos never reads stale conductances.
    pub fn tick(&mut self, accel: &mut AfprAccelerator) -> Option<ScrubReport> {
        self.stats.ticks += 1;
        let t = self.stats.ticks;
        if self.cfg.inject_period > 0 && t.is_multiple_of(self.cfg.inject_period) {
            if self.cfg.yield_model.fault_rate() > 0.0 {
                self.stats.cells_faulted +=
                    accel.inject_faults(&self.cfg.yield_model, &mut self.rng);
                self.stats.inject_events += 1;
            }
            if self.cfg.drift_step > 0.0 {
                accel.advance_age(Seconds::new(self.cfg.drift_step));
                self.stats.drift_seconds += self.cfg.drift_step;
            }
        }
        if self.cfg.scrub_period > 0 && t.is_multiple_of(self.cfg.scrub_period) {
            let report = accel.scrub(&self.cfg.guard, &mut self.rng);
            self.stats.scrub.merge(&report);
            self.stats.scrub_events += 1;
            return Some(report);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afpr_nn::tensor::Tensor;
    use afpr_xbar::spec::{MacroMode, MacroSpec};

    fn small_accel(spares: usize) -> (AfprAccelerator, crate::accelerator::LayerHandle) {
        let base = MacroSpec::small(8, 4, MacroMode::FpE2M5).with_spare_cols(spares);
        let mut accel = AfprAccelerator::with_spec(base, 3);
        let w = Tensor::from_fn(&[16, 4], |i| {
            (((i[0] * 4 + i[1]) * 7 % 13) as f32 - 6.0) / 12.0
        });
        let h = accel.map_matrix(&w);
        (accel, h)
    }

    #[test]
    fn disabled_config_is_inert() {
        let (mut accel, h) = small_accel(0);
        let x = vec![0.25f32; 16];
        let before = accel.matvec(h, &x);
        let mut ctl = ChaosController::new(ChaosConfig::disabled());
        assert!(!ctl.config().is_active());
        for _ in 0..10 {
            assert!(ctl.tick(&mut accel).is_none());
        }
        // Compare against a fresh accelerator with the same seed: the
        // rng streams must not have been touched by ticking.
        let (mut accel2, h2) = small_accel(0);
        let _ = accel2.matvec(h2, &x);
        assert_eq!(before.len(), accel2.matvec(h2, &x).len());
        assert_eq!(ctl.stats().ticks, 10);
        assert_eq!(ctl.stats().fault_events(), 0);
    }

    #[test]
    fn injection_faults_cells_and_scrub_repairs_them() {
        let (mut accel, _h) = small_accel(4);
        let cfg = ChaosConfig {
            yield_model: YieldModel::new(0.03, 0.02),
            drift_step: 0.0,
            inject_period: 1,
            scrub_period: 2,
            guard: GuardConfig::default(),
            seed: 42,
        };
        assert!(cfg.is_active());
        let mut ctl = ChaosController::new(cfg);
        let mut saw_scrub = false;
        for i in 1..=6 {
            let report = ctl.tick(&mut accel);
            assert_eq!(report.is_some(), i % 2 == 0);
            if let Some(r) = report {
                saw_scrub = true;
                assert_eq!(r.flagged, r.repaired + r.unrepaired);
            }
        }
        assert!(saw_scrub);
        let s = ctl.stats();
        assert!(s.cells_faulted > 0, "5% over 2×8×4 cells × 6 ticks");
        assert_eq!(s.scrub_events, 3);
        assert!(s.scrub.flagged > 0);
        assert!(s.fault_events() >= s.cells_faulted);
    }

    #[test]
    fn drift_step_ages_arrays() {
        let (mut accel, _h) = small_accel(0);
        let cfg = ChaosConfig {
            drift_step: 100.0,
            inject_period: 1,
            ..ChaosConfig::disabled()
        };
        let mut ctl = ChaosController::new(cfg);
        for _ in 0..3 {
            ctl.tick(&mut accel);
        }
        assert!((ctl.stats().drift_seconds - 300.0).abs() < 1e-9);
    }

    #[test]
    fn stats_round_trip_json() {
        let s = ChaosStats {
            ticks: 9,
            inject_events: 3,
            cells_faulted: 12,
            scrub_events: 2,
            scrub: ScrubReport {
                flagged: 4,
                repaired: 3,
                unrepaired: 1,
            },
            drift_seconds: 1.5,
        };
        let json = serde_json::to_string(&s).expect("serializes");
        let back: ChaosStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
