//! Discrete-event simulation kit.
//!
//! All Servo experiments run on virtual time so that a ten-minute, 200-player
//! experiment finishes in seconds and is exactly reproducible. This crate
//! provides the building blocks:
//!
//! * [`SimClock`] — a monotonically advancing virtual clock;
//! * [`EventQueue`] — a time-ordered queue of future events with stable
//!   FIFO ordering for simultaneous events;
//! * [`SimRng`] — a deterministic, seedable random-number generator with
//!   named sub-streams so components do not perturb each other's randomness;
//! * [`dist`] — latency distributions (normal, lognormal, exponential,
//!   Pareto-tailed mixtures) used to model cloud-service behaviour.
//!
//! # Example
//!
//! ```
//! use servo_simkit::{EventQueue, SimClock};
//! use servo_types::{SimDuration, SimTime};
//!
//! let mut clock = SimClock::new();
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::from_millis(100), "b");
//! queue.schedule(SimTime::from_millis(50), "a");
//!
//! let (t, ev) = queue.pop().unwrap();
//! clock.advance_to(t);
//! assert_eq!(ev, "a");
//! assert_eq!(clock.now(), SimTime::from_millis(50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod dist;
pub mod events;
pub mod rng;

pub use clock::SimClock;
pub use dist::{Distribution, LatencyModel};
pub use events::EventQueue;
pub use rng::SimRng;
