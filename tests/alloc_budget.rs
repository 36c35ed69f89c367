//! Allocation budget of the wall-clock edge threads.
//!
//! A counting global allocator attributes every allocation to the thread
//! that makes it, by the thread names the pipeline gives its edge nodes
//! (`aiot-edge-<layer>-<node>`). The test runs the drain benchmarks' tree
//! — 8 sources → 4 leaves → 2 mid nodes → root, WHS at 10 %, 512-item
//! source frames, 20 ms windows, an hour of allowed lateness, closed loop,
//! no impairment — for N and for 2N intervals. The difference between the
//! two runs is what the extra 8·N source frames cost once every buffer has
//! grown to its working size: start-up, thread spawns and buffer growth
//! cancel out.
//!
//! The budget, per source frame, with 8 strata in every frame (fewer than
//! the 11 entries one B-tree leaf holds, so every `WeightMap` is one node):
//!
//! * **leaf**, one 512-item frame in, one sampled frame out: the
//!   resolved input weights (one node; source frames carry no weights, so
//!   decoding them allocates nothing), the sampled output's weights (one
//!   node) and the forwarded payload (`BatchProducer::encode`'s copy) —
//!   **3**;
//! * **mid**, one leaf output in, one frame out: the decoded input
//!   weights (one node), then the same three as a leaf — **4**.
//!
//! Polling, decoding into the reused input columns and sampling into the
//! reused output columns allocate nothing.
//!
//! The same tree with two §III-E shards per leaf (`workers(2)`): the
//! shards sample on the leaf's own thread, so their allocations are
//! counted there too.
//!
//! * **sharded leaf**, one 512-item frame in, two sampled frames out: the
//!   resolved input weights (one node), the vector of shard outputs (one),
//!   and per shard a fresh output — four columns and one weight node —
//!   and its forwarded payload (two × six) — **14**;
//! * **mid** fed by sharded leaves: two leaf frames in per source frame,
//!   each costing the four above — **8**.
//!
//! The same tree run native (no sampling) has a budget of **0** on both
//! layers: a native node relays the payload it received.
#![cfg(target_os = "linux")]
#![deny(unsafe_op_in_unsafe_fn)]

use approxiot::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// WHS leaf allocations per source frame (see the module docs).
const LEAF_BUDGET: f64 = 3.0;
/// WHS mid-node allocations per source frame (see the module docs).
const MID_BUDGET: f64 = 4.0;
/// Allocations per source frame of a WHS leaf with two shards (see the
/// module docs).
const SHARDED_LEAF_BUDGET: f64 = 14.0;
/// Allocations per source frame of a mid node fed by two-shard leaves
/// (see the module docs).
const SHARDED_MID_BUDGET: f64 = 8.0;
/// Buffer growth that one run's backlog triggers and the other's does not
/// (a doubling `Vec` or `VecDeque`) is a few allocations in thousands of
/// frames.
const SLACK: f64 = 0.05;

const SOURCES: usize = 8;
const STRATA: usize = 8;
const FRAME_ITEMS: usize = 512;
const N: usize = 250;

static LEAF_ALLOCS: AtomicU64 = AtomicU64::new(0);
static MID_ALLOCS: AtomicU64 = AtomicU64::new(0);

#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Not yet named `aiot-*` when last looked at.
    Unknown,
    /// Reading the thread's name: allocations it makes are not counted.
    Busy,
    Leaf,
    Mid,
    Other,
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Unknown) };
}

/// The calling thread's role, from its kernel name. A spawned thread is
/// named a moment after it starts, so a name that is not yet `aiot-*` is
/// looked up again at the next allocation.
fn role_of_this_thread() -> Role {
    let mut name = [0u8; 16];
    // A short path and a stack buffer: the lookup itself allocates
    // nothing.
    let len = File::open("/proc/thread-self/comm")
        .and_then(|mut f| f.read(&mut name))
        .unwrap_or(0);
    let name = &name[..len];
    if name.starts_with(b"aiot-edge-0-") {
        Role::Leaf
    } else if name.starts_with(b"aiot-edge-1-") {
        Role::Mid
    } else if name.starts_with(b"aiot-") {
        Role::Other
    } else {
        Role::Unknown
    }
}

fn count_one() {
    ROLE.with(|role| {
        let current = match role.get() {
            Role::Unknown => {
                role.set(Role::Busy);
                let found = role_of_this_thread();
                role.set(found);
                found
            }
            known => known,
        };
        match current {
            Role::Leaf => LEAF_ALLOCS.fetch_add(1, Ordering::Relaxed),
            Role::Mid => MID_ALLOCS.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    });
}

/// `System`, counting every allocation and reallocation per thread role.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting around it
// touches only atomics and a const-initialised thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Sixteen intervals of the drains' input shape: every frame carries all
/// eight strata, rotated per source.
fn input() -> Vec<Vec<Batch>> {
    (0..16)
        .map(|k| {
            (0..SOURCES)
                .map(|s| {
                    Batch::from_items(
                        (0..FRAME_ITEMS)
                            .map(|i| {
                                let stratum = ((i + s) % STRATA) as u32;
                                let value = (1 + stratum) as f64 * (1.0 + (i % 7) as f64);
                                let seq = (k * FRAME_ITEMS + i) as u64;
                                StreamItem::with_meta(StratumId::new(stratum), value, seq, 0)
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Edge-thread allocations `(leaf, mid)` of one closed-loop run of
/// `intervals` intervals of the drains' tree under `strategy`, with
/// `leaf_workers` §III-E shards per leaf.
fn run(
    strategy: Strategy,
    leaf_workers: usize,
    input: &[Vec<Batch>],
    intervals: usize,
) -> (u64, u64) {
    let fraction = if strategy == Strategy::Native {
        1.0
    } else {
        0.1
    };
    let topology = Topology::builder()
        .sources(SOURCES)
        .layer(LayerSpec::new(4).workers(leaf_workers))
        .layer(LayerSpec::new(2))
        .strategy(strategy)
        .overall_fraction(fraction)
        .window(Duration::from_millis(20))
        .allowed_lateness(Duration::from_secs(3600))
        .seed(1)
        .build()
        .expect("valid topology");
    let (leaf, mid) = (
        LEAF_ALLOCS.load(Ordering::Relaxed),
        MID_ALLOCS.load(Ordering::Relaxed),
    );
    let mut driver =
        Driver::new(topology, QuerySet::default(), EngineKind::pipeline()).expect("valid engine");
    for i in 0..intervals {
        driver
            .push_interval(&input[i % input.len()])
            .expect("open until finish");
    }
    let report = driver.finish();
    let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
    assert_eq!(
        count,
        (intervals * SOURCES * FRAME_ITEMS) as f64,
        "nothing lost"
    );
    // `finish` has joined every edge thread: their counts are final.
    (
        LEAF_ALLOCS.load(Ordering::Relaxed) - leaf,
        MID_ALLOCS.load(Ordering::Relaxed) - mid,
    )
}

/// Allocations `(leaf, mid)` per extra source frame, from runs of N and
/// 2N intervals after a warm-up run.
fn per_frame(strategy: Strategy, leaf_workers: usize, input: &[Vec<Batch>]) -> (f64, f64) {
    run(strategy, leaf_workers, input, N); // warm-up: lazy statics, first-touch paths
    let (leaf_n, mid_n) = run(strategy, leaf_workers, input, N);
    let (leaf_2n, mid_2n) = run(strategy, leaf_workers, input, 2 * N);
    let frames = (N * SOURCES) as f64;
    let leaf = (leaf_2n as f64 - leaf_n as f64) / frames;
    let mid = (mid_2n as f64 - mid_n as f64) / frames;
    eprintln!(
        "{} w{leaf_workers}: allocations per source frame: leaf {leaf:.3}, mid {mid:.3} \
         (runs of {N} / {} intervals: leaf {leaf_n} / {leaf_2n}, mid {mid_n} / {mid_2n})",
        strategy.label(),
        2 * N
    );
    assert!(leaf_n > 0 && mid_n > 0, "edge threads were not counted");
    (leaf, mid)
}

/// One test, so no other test's threads run while the counters count.
#[test]
fn warmed_edge_threads_allocate_within_budget_per_frame() {
    let input = input();
    for (strategy, leaf_workers, leaf_budget, mid_budget) in [
        (Strategy::whs(), 1, LEAF_BUDGET, MID_BUDGET),
        (Strategy::whs(), 2, SHARDED_LEAF_BUDGET, SHARDED_MID_BUDGET),
        (Strategy::Native, 1, 0.0, 0.0),
    ] {
        let (leaf, mid) = per_frame(strategy, leaf_workers, &input);
        let name = format!("{} w{leaf_workers}", strategy.label());
        assert!(
            (leaf - leaf_budget).abs() <= SLACK,
            "{name} leaves: {leaf:.3} allocations per source frame, budget {leaf_budget}"
        );
        assert!(
            (mid - mid_budget).abs() <= SLACK,
            "{name} mid nodes: {mid:.3} allocations per source frame, budget {mid_budget}"
        );
    }
}
