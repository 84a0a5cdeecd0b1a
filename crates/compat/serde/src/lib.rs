//! Offline shim for the `serde` facade.
//!
//! The real `serde` is unavailable in this build environment (no network
//! access), and the workspace only uses its derives as forward-compatible
//! markers on plain-old-data types — all actual serialization in the Servo
//! stack goes through hand-rolled byte codecs (`Chunk::to_bytes`,
//! `PlayerRecord::to_bytes`). This shim provides the two marker traits and
//! re-exports no-op derive macros so the `#[derive(Serialize, Deserialize)]`
//! annotations keep compiling unchanged.

#![forbid(unsafe_code)]

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

pub use serde_derive::{Deserialize, Serialize};
