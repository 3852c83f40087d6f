//! # caraoke-phy
//!
//! Physical-layer model of e-toll transponders and of the Caraoke reader's RF
//! front end (§3 of the paper), used in place of the SDR/PCB hardware the
//! authors deployed.
//!
//! The model is bit- and sample-accurate where it matters to the reader
//! algorithms:
//!
//! * [`protocol`] — the 256-bit transponder response (programmable / agency /
//!   factory fields plus a CRC), Fig. 2(b).
//! * [`modulation`] — Manchester-coded on-off keying at 2 µs/bit, Eq. 1.
//! * [`timing`] — query/response timing of Fig. 2(a): 20 µs query, 100 µs
//!   turnaround, 512 µs response, ~1 ms per query cycle.
//! * [`cfo`] — carrier-frequency-offset models: the uniform 1.2 MHz span used
//!   in the analysis of §5 and the empirical distribution measured from 155
//!   transponders (µ = 914.84 MHz, σ = 0.21 MHz).
//! * [`channel`] — complex line-of-sight channels derived from 3-D geometry,
//!   optional multipath rays, and AWGN.
//! * [`antenna`] — the reader's antenna arrays: the λ/2 pair and the
//!   equilateral-triangle arrangement of §6, with optional 60° tilt.
//! * [`transponder`] — an E-ZPass-like tag: identity, CFO, position,
//!   per-query random initial phase.
//! * [`collision`] — superposition of many tags' responses at each antenna of
//!   a reader: the raw material every Caraoke algorithm consumes.
//! * [`noise`] — seeded Gaussian noise (one ziggurat sampler, no extra
//!   dependencies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna;
pub mod cfo;
pub mod channel;
pub mod collision;
pub mod config;
pub mod modulation;
pub mod noise;
pub mod protocol;
pub mod timing;
pub mod transponder;

pub use antenna::{AntennaArray, ArrayGeometry};
pub use cfo::CfoModel;
pub use channel::{Channel, MultipathRay, PropagationModel};
pub use collision::{synthesize_collision, CollisionSignal, CollisionSynth};
pub use config::SignalConfig;
pub use modulation::{manchester_decode, manchester_encode, ook_baseband, slice_bits};
pub use protocol::{TransponderId, TransponderPacket, CRC_BITS, PACKET_BITS};
pub use transponder::Transponder;
