//! # caraoke-geom
//!
//! Geometry for the Caraoke reproduction (SIGCOMM 2015, §6–§7).
//!
//! The Caraoke reader localizes a transponder by measuring the angle of
//! arrival (AoA) of its signal at a two-antenna array mounted on a street-lamp
//! pole. A single AoA constrains the transponder to a *cone* whose axis is the
//! antenna baseline; intersecting the cone with the road plane gives a
//! hyperbola (or an ellipse when the antenna baseline is tilted), and
//! intersecting the curves from two readers on opposite sides of the road
//! yields the car's position. Speed is the distance between two such fixes
//! divided by the (NTP-synchronised) time between them.
//!
//! This crate contains only geometry — no signal processing — so that it can
//! be tested exhaustively with analytic cases and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aoa;
pub mod conic;
pub mod localize;
pub mod speed;
pub mod units;
pub mod vec3;

pub use aoa::{angle_to_phase_diff, phase_diff_to_angle, wrap_phase, AoaError};
pub use conic::{ConeCurve, RoadCurve};
pub use localize::{try_localize_two_readers, LocalizeError, ReaderPose, Side};
pub use speed::{max_position_error, speed_error_bound, speed_from_fixes, SpeedEstimate};
pub use units::{feet_to_meters, meters_to_feet, mph_to_mps, mps_to_mph, CARRIER_WAVELENGTH_M};
pub use vec3::Vec3;
