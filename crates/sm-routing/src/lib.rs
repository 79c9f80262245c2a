#![warn(missing_docs)]
//! Service discovery and client-side request routing (§3.2).
//!
//! The orchestrator publishes versioned shard maps into the
//! [`DiscoveryService`], which fans them out to subscribed routers
//! through a multi-level distribution tree — modelled here by a per-
//! subscriber propagation delay that grows with tree depth. Application
//! clients hold a [`ServiceRouter`] (the paper's Service Router
//! library): given an application key it resolves the owning shard from
//! the app's sharding spec, then picks a server from the latest shard
//! map it has received. Because dissemination is asynchronous, routers
//! can be stale; the protocols in `sm-core` (request forwarding during
//! graceful migration) are what keep that staleness from turning into
//! dropped requests.
//!
//! Routing itself happens in the [`ResolvedMap`] kernel — an immutable,
//! dense, allocation-free form of one app's spec + shard map. Two
//! front-ends share it: the single-threaded [`ServiceRouter`] used by
//! the deterministic simulation worlds, and the [`ConcurrentRouter`] /
//! [`RouterHandle`] pair, which shares one epoch-swapped kernel set
//! across N real threads with zero read-side locks (see DESIGN.md,
//! "Request-plane throughput").

pub mod concurrent;
pub mod discovery;
pub mod hashing;
pub mod resolved;
pub mod router;

pub use concurrent::{ConcurrentRouter, RouterHandle};
pub use discovery::{DiscoveryService, SubscriberId};
pub use hashing::{ConsistentHashRing, StaticSharding};
pub use resolved::{ResolvedMap, SpecColumns};
pub use router::{RouteDecision, ServiceRouter};
