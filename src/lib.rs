//! # Servo — serverless backend for modifiable virtual environments
//!
//! This is the facade crate of the Servo reproduction (Donkervliet et al.,
//! ICDCS 2023). It re-exports the individual crates of the workspace so that
//! applications, the examples, and the integration tests can depend on a
//! single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `servo-types` | positions, ticks, ids, units, errors |
//! | [`simkit`] | `servo-simkit` | virtual clock, event queue, RNG, latency models |
//! | [`metrics`] | `servo-metrics` | percentiles, boxplots, CCDFs, capacity search |
//! | [`world`] | `servo-world` | chunks, blocks, view distance |
//! | [`redstone`] | `servo-redstone` | simulated-construct engine, loop detection |
//! | [`pcg`] | `servo-pcg` | Perlin noise and terrain generators |
//! | [`faas`] | `servo-faas` | FaaS platform simulator and billing |
//! | [`storage`] | `servo-storage` | local/blob storage models, cache + pre-fetch |
//! | [`workload`] | `servo-workload` | player behaviours and fleets |
//! | [`replication`] | `servo-replication` | interest-managed delta broadcast to clients |
//! | [`server`] | `servo-server` | the MVE game loop and the baseline systems |
//! | [`core`] | `servo-core` | Servo itself: speculative offloading, serverless generation, remote storage |
//!
//! # Quickstart
//!
//! ```
//! use servo::core::ServoDeployment;
//! use servo::redstone::generators;
//! use servo::workload::{BehaviorKind, PlayerFleet};
//! use servo::simkit::SimRng;
//! use servo::types::SimDuration;
//!
//! // Build a Servo instance, add player-built constructs, connect players.
//! let mut deployment = ServoDeployment::builder().seed(1).view_distance(32).build();
//! deployment.server.add_constructs(25, |_| generators::dense_circuit(64));
//! let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 24.0 }, SimRng::seed(2));
//! fleet.connect_all(40);
//!
//! // Run ten seconds of game time and check the tick budget was met.
//! deployment.server.run_with_fleet(&mut fleet, SimDuration::from_secs(10));
//! let durations = deployment.server.tick_durations();
//! assert!(servo::metrics::qos_satisfied_default(&durations));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use servo_core as core;
pub use servo_faas as faas;
pub use servo_metrics as metrics;
pub use servo_pcg as pcg;
pub use servo_redstone as redstone;
pub use servo_replication as replication;
pub use servo_server as server;
pub use servo_simkit as simkit;
pub use servo_storage as storage;
pub use servo_types as types;
pub use servo_workload as workload;
pub use servo_world as world;
