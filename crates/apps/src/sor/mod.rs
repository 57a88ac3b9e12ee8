//! Successive overrelaxation (§4.2.3): iterative Laplace solver with bulk
//! boundary exchange — the workload behind Figure 3.

pub mod grid;
pub mod run;

pub use grid::{partition, reference_checksum, Slab};
pub use run::{app, run, run_configured, sequential, SorParams, SorState};
