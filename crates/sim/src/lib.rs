//! # oam-sim
//!
//! Deterministic discrete-event simulation core: a virtual clock and an
//! event queue of timed closures. The network fabric (`oam-net`) and the
//! per-node thread schedulers (`oam-threads`) are built directly on it.
//!
//! ```
//! use oam_sim::Sim;
//! use oam_model::Dur;
//!
//! let sim = Sim::new(42);
//! sim.schedule_after(Dur::from_micros(10), |sim| {
//!     assert_eq!(sim.now().as_micros_f64(), 10.0);
//!     sim.schedule_after(Dur::from_micros(5), |_| {});
//! });
//! assert_eq!(sim.run().as_micros_f64(), 15.0);
//! ```

#![warn(missing_docs)]

pub mod calq;
pub mod executor;
pub mod mem;
pub mod rng;
pub mod shard;

pub use executor::{
    event_key, EventId, SeqHasher, Sim, WallClock, KEY_CLASS_COLLECTIVE, KEY_CLASS_NODE,
};
pub use mem::{alloc_snapshot, thread_alloc_snapshot, AllocSnapshot, CountingAlloc};
pub use rng::Prng;
pub use shard::{
    default_spin, partition, shard_range, Coordinator, Fence, FencePolicy, Round, ShardPort,
};
