#![warn(missing_docs)]
//! Example applications built on the SM programming model, plus the
//! integrated simulation harness that powers the paper's experiments.
//!
//! The applications mirror the workloads the paper names:
//!
//! - [`kv`] — a Laser-like soft-state key-value store with prefix scans
//!   (§3.1), data rebuilt from an external store on `add_shard`.
//! - [`queue`] — a primary-only queue service guaranteeing in-order
//!   delivery (§8.2's production example).
//! - [`replstore`] — a ZippyDB-like primary-secondary store over a
//!   compact replicated log ([`replication`]).
//! - [`stream`] — an AdEvents-like stream processor consuming a
//!   Kafka-like data bus ([`databus`]) and keeping materialized state
//!   (§2.4 option 3).
//!
//! [`forwarding`] implements the server-side states of the graceful
//! primary migration protocol (§4.3) shared by all of them, and
//! [`harness`] wires applications, the cluster manager, ZooKeeper,
//! the orchestrator, the TaskController, and service discovery into one
//! deterministic simulation world.

pub mod chaos;
pub mod databus;
pub mod dst;
pub mod forwarding;
pub mod harness;
pub mod kv;
pub mod queue;
pub mod reconfig;
pub mod replication;
pub mod replstore;
pub mod split;
pub mod stream;
pub mod world;

pub use chaos::{ChaosConfig, ChaosReport, ChaosStats, ChaosWorld};
pub use dst::{run_dst, DstReport};
pub use forwarding::{AppResponse, ShardHost};
pub use harness::{ExperimentConfig, SimWorld, WorldEvent, WorldStats};
pub use kv::{ExternalStore, KvServer};
pub use queue::QueueServer;
pub use reconfig::{ReconfigConfig, ReconfigReport, ReconfigStats, ReconfigWorld};
pub use replstore::ReplStoreServer;
pub use split::{SplitConfig, SplitReport, SplitStats, SplitWorld};
pub use stream::StreamServer;
pub use world::{DstConfig, FaultWorld, Report};
