//! Tier-1 gate: publishing a shard map costs a constant number of heap
//! blocks, whatever the shard count.
//!
//! An `Assignment` and every `ShardMap` built from it share one chunked
//! copy-on-write table, so building a map, cloning it for a router and
//! dropping the map it supersedes each touch the chunk list and the
//! chunks that changed, never every shard. A counting global allocator
//! (this test binary's only) makes that a host-independent count: with
//! 16 primaries moved between versions, the same number of blocks is
//! allocated and freed at 4,096 and at 16,384 shards.

use shard_manager::types::{Assignment, ReplicaRole, ServerId, ShardId, ShardMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Primaries moved between the superseded and the published version.
const MOVED: u64 = 16;

/// Upper bound on blocks allocated by one publish (2 today: the chunk
/// lists of the new map and of its clone).
const MAX_PUBLISH_ALLOCS: u64 = 4;

/// Counts allocations and frees made by the current thread, so the
/// test harness's other threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with` fails only during thread teardown; nothing is measured then.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counters are const-initialised thread-locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

/// Blocks `(allocated, freed)` by building the next map of a
/// `shards`-shard assignment, cloning it, and dropping the map it
/// supersedes, after [`MOVED`] primaries moved, one per chunk.
fn publish_blocks(shards: u64) -> (u64, u64) {
    let mut a = Assignment::new();
    for s in 0..shards {
        a.add_replica(ShardId(s), ServerId((s % 64) as u32), ReplicaRole::Primary)
            .expect("one primary per shard");
    }
    let superseded = ShardMap::from_assignment(1, &a);
    for i in 0..MOVED {
        let shard = ShardId(i * (shards / MOVED));
        let from = a.primary_of(shard).expect("placed");
        a.move_replica(shard, from, ServerId(1_000 + i as u32))
            .expect("free target");
    }
    let (allocs, frees) = counts();
    let published = ShardMap::from_assignment(2, &a);
    let for_router = published.clone();
    drop(superseded);
    let (allocs_after, frees_after) = counts();
    assert_eq!(for_router.shard_count() as u64, shards);
    (allocs_after - allocs, frees_after - frees)
}

#[test]
fn map_publish_allocations_do_not_grow_with_shard_count() {
    let small = publish_blocks(4096);
    let large = publish_blocks(16384);
    assert_eq!(
        small, large,
        "publish (allocated, freed) {small:?} blocks at 4096 shards but {large:?} at 16384 — \
         something per-shard is being copied or freed"
    );
    assert!(
        large.0 <= MAX_PUBLISH_ALLOCS,
        "publish allocated {} blocks, above the {MAX_PUBLISH_ALLOCS} bound",
        large.0
    );
}
