//! # caraoke
//!
//! Reproduction of the Caraoke reader (SIGCOMM 2015): counting, localizing,
//! and decoding e-toll transponders *from their wireless collisions*, plus the
//! reader-side MAC protocol and the speed-estimation pipeline.
//!
//! E-toll transponders have no MAC: every tag in range answers a reader query
//! simultaneously. Caraoke turns that bug into a feature by exploiting each
//! tag's carrier-frequency offset (CFO):
//!
//! * [`spectrum`] — every colliding tag produces a spectral spike at its CFO;
//!   the spike's complex value is a channel estimate (Eq. 5).
//! * [`counting`] — count tags by counting spikes, and detect bins holding two
//!   tags with the time-shift test (§5), plus the analytic probability
//!   formulas (Eq. 7, Eq. 9).
//! * [`localization`] — per-spike inter-antenna phase gives each tag's AoA
//!   even during collisions; the three-antenna pair-selection rule keeps the
//!   estimate near broadside (§6).
//! * [`decoding`] — coherently combine many collisions after compensating the
//!   target's channel and CFO until two accumulations in a row slice to the
//!   same checksum-valid packet (§8).
//! * [`speed`] — speed from two localization fixes at different poles (§7).
//! * [`multipath`] — synthetic-aperture multipath profiles confirming the
//!   line-of-sight assumption (§12.2, Fig. 14).
//! * [`mac`] — the readers' CSMA protocol with a 120 µs listen window (§9).
//! * [`reader`] — [`CaraokeReader`], the end-to-end pipeline a deployment
//!   would run per query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counting;
pub mod decoding;
pub mod error;
pub mod localization;
pub mod mac;
pub mod multipath;
pub mod reader;
pub mod spectrum;
pub mod speed;

pub use config::ReaderConfig;
pub use counting::{count_transponders, CountEstimate};
pub use decoding::{decode_all, decode_target, DecodeOutcome};
pub use error::CaraokeError;
pub use localization::{estimate_aoa, localize_peaks, AoaEstimate};
pub use reader::{CaraokeReader, QueryReport};
pub use spectrum::{analyze_antennas, analyze_collision, CollisionSpectrum, TagPeak};
