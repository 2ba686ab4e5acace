//! Behavioral mixed-signal circuit models for the AFPR-CIM macro.
//!
//! This crate rebuilds, as exact event-driven behavioral models, the
//! circuits the paper simulates at transistor level:
//!
//! * [`fp_adc`] — the **dynamic-range-adaptive FP-ADC** (the paper's
//!   core contribution): integrator + binary capacitor bank + charge
//!   sharing + single-slope mantissa conversion.
//! * [`fp_dac`] — the **input FP-DAC**: mantissa reference ladder +
//!   exponent PGA (`V_DAC = 2^E × M_analog`).
//! * [`int_adc`] / [`int_dac`] — the conventional fixed-range
//!   baselines designed "in the same process" for Fig. 6.
//! * [`energy`] — the calibrated analytical power model behind Fig. 6
//!   and Table I.
//!
//! Because the ADC input is sample-held during a conversion, every
//! voltage segment is linear in time and the transient is solved
//! exactly by event stepping — the simulator reproduces the paper's
//! Fig. 5(a) waveform with no timestep error.
//!
//! # Example
//!
//! ```
//! use afpr_circuit::fp_adc::{FpAdc, FpAdcConfig};
//! use afpr_circuit::units::Amps;
//!
//! let adc = FpAdc::new(FpAdcConfig::e2m5_paper());
//! let result = adc.convert(Amps::from_micro(5.38));
//! assert_eq!(result.code.expect("in range").to_bit_string(), "10·01001");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capbank;
pub mod comparator;
pub mod energy;
pub mod fp_adc;
pub mod fp_dac;
pub mod int_adc;
pub mod int_dac;
pub mod integrator;
pub mod pga;
pub mod single_slope;
pub mod units;
pub mod waveform;

pub use capbank::CapBank;
pub use comparator::Comparator;
pub use energy::{AdcSpec, EnergyModel, EnergyParams, MacroEnergyBreakdown};
pub use fp_adc::{FpAdc, FpAdcConfig, FpAdcResult, FpAdcTransient};
pub use fp_dac::{FpDac, FpDacConfig};
pub use int_adc::{IntAdc, IntAdcConfig, IntAdcResult};
pub use int_dac::IntDac;
pub use integrator::Integrator;
pub use pga::Pga;
pub use single_slope::SingleSlope;
pub use waveform::Waveform;
