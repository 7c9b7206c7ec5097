//! Behavioural model of an ARM-FPGA SoC platform (Zynq UltraScale+ / Versal).
//!
//! The AmpereBleed paper runs on a physical Xilinx ZCU102 board. This crate
//! replaces that hardware with a first-order electrical and timing model
//! that preserves everything the attack depends on:
//!
//! * [`board`] — the catalog of evaluation boards from Table I (families,
//!   voltage bands, CPU models, DRAM, INA226 sensor counts, prices) and the
//!   ZCU102 sensor map from Table II.
//! * [`PowerDomain`] — the monitored power domains (full-power CPU,
//!   low-power CPU, FPGA logic, DDR).
//! * [`PowerLoad`] — the trait every current-drawing component implements
//!   (power-virus groups, RSA circuit, DPU, CPU background activity, static
//!   leakage). Loads are pure functions of simulation time so the electrical
//!   solve is deterministic and replayable.
//! * [`Pdn`] — the power-delivery network with its on-board stabilizer:
//!   `V(t) = V_set - I*R_eff - L_eff*dI/dt`, clamped to the regulated band
//!   (0.825-0.876 V on Zynq UltraScale+). The stabilizer is what defeats
//!   classic RO-based voltage attacks and what AmpereBleed side-steps by
//!   reading *current* instead.
//! * [`cpu`] — background OS activity and scheduler jitter on the ARM cores.
//! * [`SimTime`] — nanosecond-resolution simulation clock.
//!
//! # Examples
//!
//! ```
//! use zynq_soc::{board::BoardSpec, Pdn, PowerDomain, SimTime};
//!
//! let zcu102 = BoardSpec::zcu102();
//! let pdn = Pdn::for_board(&zcu102, PowerDomain::FpgaLogic);
//! // 1 A of fabric load barely moves the stabilized rail:
//! let v = pdn.rail_voltage(1000.0, 0.0);
//! assert!(zcu102.fpga_voltage_band.contains(v));
//! let _t = SimTime::from_ms(35);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod cpu;
mod domain;
pub mod dvfs;
mod noise;
mod pdn;
mod power;
pub mod thermal;
mod time;

pub use domain::PowerDomain;
pub use noise::{
    hash01, hash01_bucket_term, hash01_finish, hash01_stream_key, hash_gauss, GaussianNoise,
};
pub use pdn::{Pdn, VoltageBand};
pub use power::{CompositeLoad, ConstantLoad, PowerLoad, StaticFabricLoad};
pub use time::SimTime;
