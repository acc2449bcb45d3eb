//! End-to-end and per-layer benchmark of the EdgeBOL control loop.
//!
//! Three workloads load different layers (see `README.md`): the paper's
//! learner on one slice, a warm-starting fleet, and the O-RAN control
//! plane under faults. All timing is taken from outside the program:
//! wrappers around the `Agent` and `Environment` trait objects the
//! orchestrator accepts, and direct calls into the public `gp`, `linalg`
//! and `fleet` functions.

mod layers;
pub mod report;
pub mod run;
pub mod stats;
mod sys;
pub mod workload;
pub mod wrap;
