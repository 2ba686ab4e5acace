//! RRAM crossbar array and the AFPR-CIM macro.
//!
//! This crate assembles the device models (`afpr-device`) and the
//! mixed-signal converters (`afpr-circuit`) into the paper's 576×256
//! CIM macro (Fig. 1): per-row FP-DACs drive the word lines, the
//! crossbar computes MAC currents by Ohm's and Kirchhoff's laws, and
//! per-column dynamic-range-adaptive FP-ADCs read the results out as
//! FP8 codes. Differential weight arrays and sign-split input phases
//! extend the unsigned physics to signed arithmetic.
//!
//! The macro has one compute path, [`CimMacro::matvec_batch`]: a batch
//! of inputs goes through the DACs, one blocked conductance pass per
//! polarity array ([`Crossbar::mac_currents_batch`] over the
//! [`ConductanceKernel`]) and one ADC readout per column.
//! [`CimMacro::matvec`] is a batch of one.
//!
//! # Example
//!
//! ```
//! use afpr_xbar::cim_macro::CimMacro;
//! use afpr_xbar::spec::{MacroMode, MacroSpec};
//!
//! let mut mac = CimMacro::new(MacroSpec::small(4, 2, MacroMode::FpE2M5));
//! mac.program_weights(&[0.5, -0.25, 1.0, 0.0, -0.75, 0.125, 0.25, 0.5]);
//! let y = mac.matvec(&[1.0, -0.5, 0.25, 0.8]);
//! assert_eq!(y.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cim_macro;
pub mod crossbar;
pub mod ir_drop;
pub mod kernel;
pub mod mapping;
pub mod metrics;
pub mod partial_sum;
pub mod quant;
pub mod spec;

pub use chaos::{GuardConfig, ScrubReport};
pub use cim_macro::CimMacro;
pub use crossbar::{ConductanceSnapshot, Crossbar, OutOfSpares};
pub use ir_drop::IrDropModel;
pub use kernel::ConductanceKernel;
pub use mapping::{map_weights, MappedWeights};
pub use metrics::MacroStats;
pub use partial_sum::PartialSumAdder;
pub use quant::{FpActQuantizer, IntActQuantizer, SignedActivation};
pub use spec::{MacroMode, MacroSpec};
