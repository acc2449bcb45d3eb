//! EdgeBOL — joint RAN + edge-AI energy orchestration via safe contextual
//! Bayesian online learning (reproduction of Ayala-Romero et al.,
//! CoNEXT 2021).
//!
//! This crate is the paper's contribution packaged as a library:
//!
//! * [`problem`] — the §4 formulation: the cost function of eq. (1)
//!   (`u = delta1 p_s + delta2 p_b`), the service constraints of eq. (2)
//!   and the problem specification an operator writes down.
//! * [`agent`] — [`agent::EdgeBolAgent`], the learning agent in physical
//!   units: give it a [`edgebol_testbed::ContextObs`], get a
//!   [`edgebol_testbed::ControlInput`]; feed back the period's
//!   [`edgebol_testbed::PeriodObservation`]. Baselines (DDPG, SafeOpt-like,
//!   epsilon-greedy) hide behind the same [`agent::Agent`] trait.
//! * [`orchestrator`] — the closed loop of Fig. 7: each period the
//!   orchestrator observes the context, asks the agent for a control,
//!   pushes the radio half of it through the **real O-RAN plumbing**
//!   (rApp → A1 → xApp → E2 → O-eNB agent) before applying it to the
//!   environment, and returns KPIs to the agent (BS power riding the
//!   E2-indication path like the paper's data-collector xApp).
//! * [`trace`] — per-period experiment records and summary statistics
//!   (medians, percentile bands, violation rates) used by every figure
//!   regenerator in `edgebol-bench`.
//! * [`parallel_map_threads`] — the deterministic scoped thread pool the
//!   bench harness runs repetitions on and the fleet layer steps slices
//!   on.
//!
//! # Quickstart
//!
//! ```
//! use edgebol_core::agent::EdgeBolAgent;
//! use edgebol_core::orchestrator::Orchestrator;
//! use edgebol_core::problem::ProblemSpec;
//! use edgebol_testbed::{Calibration, FlowTestbed, Scenario};
//!
//! // delta1 = 1, delta2 = 8, d_max = 0.4 s, rho_min = 0.5 (paper §6.2).
//! let spec = ProblemSpec::new(1.0, 8.0, 0.4, 0.5);
//! let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 7);
//! let agent = EdgeBolAgent::quick_for_tests(&spec, 7);
//! let mut orch = Orchestrator::new(Box::new(env), Box::new(agent), spec)
//!     .expect("in-process control plane");
//! let trace = orch.try_run(20).expect("control plane stayed up");
//! assert_eq!(trace.len(), 20);
//! ```

#![deny(missing_docs)]

pub mod agent;
pub mod orchestrator;
mod parallel;
pub mod problem;
pub mod trace;

pub use agent::{Agent, DdpgAgent, EdgeBolAgent, EpsGreedyAgent};
pub use orchestrator::{Orchestrator, OrchestratorError};
pub use parallel::parallel_map_threads;
pub use problem::ProblemSpec;
pub use trace::{PeriodRecord, Trace};
