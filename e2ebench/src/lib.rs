//! End-to-end benchmark of the shard-manager stack.
//!
//! One command drives the real stack — orchestrator, KV application
//! servers, discovery and client routers, or the DST chaos worlds — in
//! one process on one thread, from a seed. It prints end-to-end metrics
//! with tracing off; a separate traced run attributes the wall time to
//! the layers from outside, around every public call the bench makes.
//! See `README.md` in this directory for the workloads and metrics.

pub mod report;
pub mod stack;
pub mod trace;
pub mod workloads;
