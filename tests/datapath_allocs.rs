//! The steady-state packet datapath allocates almost nothing: a train, and
//! a rejected injection too, takes a recycled packet buffer, and a route
//! walked out of a cached tree is one allocation.
//!
//! A counting global allocator counts the allocations of the thread running
//! a cell (a thread-local switch, so tests running in parallel on other
//! threads cannot add to the count). Each cell runs a 4×4-grid shuffle at
//! 16 KiB and at 64 KiB partitions, and the test bounds the *marginal*
//! allocations per engine event, (A₆₄ − A₁₆) / (E₆₄ − E₁₆), so the set-up
//! both runs share (topology, flows, tables) cancels out. Allocation counts
//! are deterministic, so the bound cannot flake.
//!
//! Measured when the bound was set: 0.79–1.19 before the datapath stopped
//! allocating per train (a `Vec` of frame sizes and a packet buffer per
//! injection attempt, rejected or not, and four allocations per route
//! walk), 0.21–0.30 after. What is left is mostly the calendar queue's
//! bucket growth.

use rackfabric::prelude::TopologySpec;
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::run_scenario;
use rackfabric_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most marginal allocations per event a cell may make.
const MAX_ALLOCS_PER_EVENT: f64 = 0.4;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (not reallocations) of the
/// threads that switched counting on.
struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract for them; counting only touches
// thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `spec` on this thread: the allocations it made and its events.
fn allocations(spec: &ScenarioSpec) -> (u64, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let result = run_scenario(spec);
    COUNTING.with(|on| on.set(false));
    assert!(
        result.all_flows_complete,
        "{}: the shuffle must finish",
        spec.name
    );
    (ALLOCS.with(Cell::get), result.events_processed)
}

/// The marginal allocations per event of a 4×4 shuffle, from 16 KiB to
/// 64 KiB partitions.
fn marginal(controller: ControllerSpec, shards: usize) -> f64 {
    let cell = |partition_kib| {
        ScenarioSpec::new(
            format!("allocs-{}-{shards}-{partition_kib}", controller.label()),
            TopologySpec::grid(4, 4, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(partition_kib)),
        )
        .controller(controller)
        .port_buffer(Bytes::from_kib(32))
        .seed(7)
        .shards(shards)
    };
    let (small_allocs, small_events) = allocations(&cell(16));
    let (large_allocs, large_events) = allocations(&cell(64));
    assert!(large_events > small_events);
    (large_allocs as f64 - small_allocs as f64) / (large_events - small_events) as f64
}

#[test]
fn the_datapath_makes_few_allocations_per_event() {
    let mut cells = Vec::new();
    for controller in [ControllerSpec::Baseline, ControllerSpec::adaptive_default()] {
        // The monolithic engine, then the sharded one at one shard (more
        // shards add mailbox traffic, which allocates per window).
        for shards in [0, 1] {
            cells.push((controller.label(), shards, marginal(controller, shards)));
        }
    }
    let over: Vec<String> = cells
        .iter()
        .filter(|(_, _, per_event)| *per_event > MAX_ALLOCS_PER_EVENT)
        .map(|(controller, shards, per_event)| {
            format!("{controller} at {shards} shards: {per_event:.3}")
        })
        .collect();
    assert!(
        over.is_empty(),
        "marginal allocations per event above {MAX_ALLOCS_PER_EVENT}: {}; all cells: {cells:?}",
        over.join(", ")
    );
}
