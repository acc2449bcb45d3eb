//! Contextual-bandit framework: EdgeBOL and its benchmarks.
//!
//! This crate contains the paper's algorithmic contribution and every
//! baseline it is compared against. Each online agent picks a control
//! for a normalized context (a flat [`ControlGrid`] index; DDPG's is a
//! continuous action) and learns from the period's [`Feedback`];
//! `edgebol_core::Agent` adapts them to the flow-level testbed, the DES,
//! or any other environment:
//!
//! * [`EdgeBol`] — Algorithm 1: three Gaussian processes (cost, delay,
//!   mAP) over the joint context–control space, a GP-estimated **safe set**
//!   (eq. 8) seeded by an always-feasible `S_0`, and the **constrained
//!   lower-confidence-bound** acquisition (eq. 9). Includes the practical
//!   machinery the paper alludes to: a warm-up phase on `S_0` that doubles
//!   as the "prior data" for one-shot hyperparameter fitting (then frozen),
//!   target standardization, candidate subsampling and a sliding
//!   observation window for very long runs.
//! * [`Acquisition::MaxUncertainty`] — the SafeOpt-style baseline (§5
//!   "Acquisition function"): [`EdgeBol`]'s safe set, but an
//!   uncertainty-maximizing acquisition that explicitly expands it; the
//!   paper reports (and Fig.-9 style runs here confirm) slower cost
//!   convergence.
//! * [`EpsGreedy`] — a contextless tabular ε-greedy control, the classic
//!   bandit strawman.
//! * [`Oracle`] — offline exhaustive search over the control grid against
//!   a noiseless evaluator: the dashed "optimal" lines of Figs. 10 and 12.
//! * [`Ddpg`] — the neural benchmark of §6.5: an actor–critic DDPG
//!   adapted to the contextual-bandit setting, with the "DDPG cost" trick
//!   (constraint violations are charged the maximum cost) and a sigmoid
//!   actor head, built on `edgebol-nn`.
//!
//! Contexts and controls are normalized to unit hypercubes (`[0,1]^3` and
//! `[0,1]^4`); the mapping to physical policies lives in
//! `edgebol-testbed::ControlInput`.

pub mod api;
pub mod ddpg;
pub mod edgebol;
pub mod epsgreedy;
pub mod grid;
pub mod oracle;

pub use api::{Constraints, Feedback};
pub use ddpg::{Ddpg, DdpgConfig};
pub use edgebol::{Acquisition, EdgeBol, EdgeBolConfig};
pub use epsgreedy::EpsGreedy;
pub use grid::ControlGrid;
pub use oracle::{Oracle, OracleOutcome};
