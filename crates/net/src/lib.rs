//! # oam-net
//!
//! The simulated multicomputer data network: short-packet fabric with finite
//! NI FIFOs and backpressure, plus the bulk-transfer (scopy) engine. See
//! [`fabric`] for the model and its fidelity notes.

#![warn(missing_docs)]

pub mod backend;
pub mod fabric;
pub mod packet;
pub mod pool;
pub mod ring;

pub use backend::{ChannelPort, EpochPort, FabricPort};
pub use fabric::{CrossNet, InjectError, Network};
pub use packet::{CrossPayload, Packet, PacketKind, PayloadBuf, PayloadView, SHORT_PAYLOAD_MAX};
pub use pool::{BufPool, PoolStats};
pub use ring::{spsc, BatchTx, RingRx, RingTx, WakeGate};
