//! # idca-timing — synthetic post-layout timing model and dynamic timing analysis
//!
//! The paper extracts dynamic timing margins from a placed-and-routed 28 nm
//! FDSOI implementation of an OpenRISC core: gate-level simulation with SDF
//! back-annotation produces an event log of data/clock arrivals at every
//! sequential endpoint, a dynamic-timing-analysis (DTA) tool turns that log
//! into per-stage, per-cycle and per-instruction delay statistics, and a
//! characterized cell library provides voltage/frequency/power trade-offs.
//! Only the per-stage delays of that log feed the DTA, so this crate
//! computes them directly and keeps no endpoint log.
//!
//! None of those proprietary inputs (RTL, EDA tools, foundry libraries) are
//! available, so this crate provides a **synthetic but structurally faithful
//! substitute**:
//!
//! * [`CellLibrary`] / [`OperatingPoint`] — a 28 nm-FDSOI-like library
//!   characterized from 0.50 V to 0.90 V (delay scaling, dynamic energy,
//!   leakage), calibrated so the core's static timing limit at 0.70 V equals
//!   the paper's 2026 ps / 494 MHz.
//! * [`TimingProfile`] — the population of timing paths of the design, per
//!   pipeline stage and instruction class, in two flavours:
//!   [`ProfileKind::CriticalRangeOptimized`] (the paper's many-short-paths
//!   implementation) and [`ProfileKind::Conventional`] (the "timing wall"
//!   baseline). Worst-case per-class delays reproduce Tables I and II.
//! * [`TimingModel`] — the gate-level-simulation substitute: given one
//!   digested cycle ([`DigestCycle`](idca_pipeline::DigestCycle)) of the
//!   pipeline simulator it computes the dynamic delay of every stage
//!   (data-dependent: carry chains, multiplier activity, memory accesses,
//!   forwarding, branch-target redirects).
//! * [`dta`] — the dynamic timing analysis: per-stage per-cycle maxima,
//!   limiting-stage statistics, per-instruction-class worst-case delays and
//!   delay histograms (the data behind Figs. 5–7 and Table II), replayed
//!   from a captured [`TimingDigest`](idca_pipeline::TimingDigest).
//! * [`PowerModel`] — activity-based energy per cycle and µW/MHz at any
//!   operating point, calibrated to the paper's 13.7 µW/MHz conventional
//!   baseline at 0.70 V.
//! * [`VariationModel`] / [`PvtCorner`] — process/voltage/temperature
//!   variation: deterministic corner sampling and per-cell delay
//!   perturbation for Monte Carlo sweeps (the paper's PVT outlook,
//!   evaluated rather than just cited).
//! * [`CornerBank`] — the corner-batched evaluation kernel: the delay
//!   parameters of `M` varied models packed in structure-of-arrays lanes,
//!   so one digested cycle is evaluated against every corner at once in
//!   auto-vectorized loops over [`LANE_WIDTH`]-padded lanes, bit-identical
//!   to the scalar path. The six per-cycle stage dithers it broadcasts come
//!   out of one batched hash kernel shared with the scalar evaluation paths.
//! * [`LaneIsa`] — which compiled copy of a lane kernel a bank runs: the
//!   baseline copy (128-bit SSE2 on the default x86-64 target), a
//!   one-chunk copy with the lane count fixed at [`LANE_WIDTH`] for banks
//!   of 1–4 corners, or an AVX2 copy of the same source that banks of at
//!   least 32 padded lanes select at run time on a CPU that has AVX2, with
//!   no build flag. Its AVX2 trampoline holds this workspace's only
//!   `unsafe` block.
//! * [`FaultPlan`] / [`FaultSpec`] — deterministic fault injection:
//!   voltage-droop windows, one-shot delay spikes and a persistent mid-run
//!   corner shift, all sampled hash-deterministically from
//!   `(fault seed, cycle)` so live simulation and both digest-replay
//!   engines recompute identical perturbations, plus the Razor-style
//!   violation-recovery parameters (replay penalty, detection window).
//!   [`Perturbation`] composes the fault factors with the interrupt entry
//!   surge in the one canonical order, on a [`CycleTiming`] or on
//!   [`CycleLanes`], which cache each droop window's weights.
//!
//! # Example
//!
//! Simulate once into a digest, then characterize it by replay:
//!
//! ```
//! use idca_pipeline::{DigestObserver, SimConfig, Simulator};
//! use idca_timing::{ProfileKind, TimingModel, dta::DynamicTimingAnalysis};
//! use idca_isa::asm::Assembler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new().assemble(
//!     "l.addi r3, r0, 100\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
//! )?;
//! let mut capture = DigestObserver::new();
//! Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut capture])?;
//! let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
//! let analysis = DynamicTimingAnalysis::replay_digest(&model, &capture.into_digest());
//! assert!(analysis.mean_cycle_delay_ps() < model.static_period_ps());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bank;
pub mod dta;
mod fault;
mod histogram;
mod irq;
mod library;
mod model;
mod power;
mod profile;
mod variation;

pub use bank::{BankEvaluator, CornerBank, CycleLanes, LaneIsa, LANE_WIDTH};
pub use dta::{DtaObserver, DynamicTimingAnalysis};
pub use fault::{FaultPlan, FaultSpec, FaultSpecError, DROOP_WINDOW_CYCLES, SHIFT_ONSET_HORIZON};
pub use histogram::{Histogram, HistogramMergeError};
pub use irq::{surged, IrqCursor, IrqTimeline, Perturbation};
pub use library::{CellLibrary, LibraryError, OperatingPoint};
pub use model::{CycleTiming, TimingModel};
pub use power::{ActivitySummary, PowerModel, PowerReport};
pub use profile::{ProfileKind, StageClassDelays, TimingProfile};
pub use variation::{PvtCorner, VariationModel, NOMINAL_TEMPERATURE_C};

/// Picoseconds, the time unit used throughout the timing model.
pub type Ps = f64;

/// The nominal supply voltage (millivolts) at which the paper reports its
/// headline numbers (0.70 V).
pub const NOMINAL_VOLTAGE_MV: u32 = 700;

/// The static-timing-analysis clock period of the critical-range-optimized
/// core at the nominal voltage, in picoseconds (494 MHz in the paper).
pub const STATIC_PERIOD_PS: Ps = 2026.0;
