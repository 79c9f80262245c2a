//! Tier-1 gate: a router map install allocates a constant number of
//! blocks, whatever the shard count.
//!
//! `ConcurrentRouter::install_map` resolves the new map against the
//! spec's range columns, which are built once at `register_app` and
//! shared by `Arc` — so an install clones no range key. A counting
//! global allocator (this test binary's only) makes the claim a
//! host-independent count: the same number of blocks at 4,096 and
//! 16,384 shards, and at most [`MAX_INSTALL_ALLOCS`].

use shard_manager::routing::ConcurrentRouter;
use shard_manager::types::{
    AppId, Assignment, ReplicaRole, ServerId, ShardId, ShardMap, ShardingSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Upper bound on blocks allocated by one install (8 today: the copied
/// app list, the slot column, three dense-table columns, the kernel,
/// the raw map and the new core).
const MAX_INSTALL_ALLOCS: u64 = 16;

/// Counts allocations made by the current thread, so the test harness's
/// other threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only during thread teardown; nothing is measured then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A primary-only map of `shards` shards over 64 servers; `version`
/// shifts every primary so consecutive installs differ.
fn map(version: u64, shards: u64) -> ShardMap {
    let mut a = Assignment::new();
    for s in 0..shards {
        a.add_replica(
            ShardId(s),
            ServerId(((s + version) % 64) as u32),
            ReplicaRole::Primary,
        )
        .expect("one primary per shard");
    }
    ShardMap::from_assignment(version, &a)
}

/// Blocks allocated by the third install of a `shards`-shard map (the
/// first two warm the router's retired-core list).
fn install_allocs(shards: u64) -> u64 {
    let router = Arc::new(ConcurrentRouter::new());
    let app = AppId(1);
    router.register_app(app, ShardingSpec::uniform_u64(shards));
    assert!(router.install_map(app, map(1, shards)));
    assert!(router.install_map(app, map(2, shards)));
    let next = map(3, shards);
    let before = allocs();
    assert!(router.install_map(app, next));
    allocs() - before
}

#[test]
fn map_install_allocations_do_not_grow_with_shard_count() {
    let small = install_allocs(4096);
    let large = install_allocs(16384);
    assert_eq!(
        small, large,
        "install allocated {small} blocks at 4096 shards but {large} at 16384 — \
         something per-shard is being cloned on install"
    );
    assert!(
        large <= MAX_INSTALL_ALLOCS,
        "install allocated {large} blocks, above the {MAX_INSTALL_ALLOCS} bound"
    );
}
