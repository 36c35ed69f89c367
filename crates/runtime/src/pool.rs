//! Persistent edge worker pool: long-lived, channel-fed execution of the
//! paper's §III-E parallel sharded sampling.
//!
//! [`approxiot_core::ParallelShardedSampler`] spawns a fresh
//! `std::thread::scope` for **every batch** it samples. Thread spawn+join
//! costs tens of microseconds per worker — on the batch sizes the threaded
//! pipeline carries, that per-batch overhead is comparable to the sampling
//! work itself (the ROADMAP open item this module closes). A [`WorkerPool`]
//! amortises it to zero: each worker shard is one long-lived thread that
//! owns its sampling state and receives work over a bounded channel, so
//! the steady-state per-batch cost is two channel hops per shard and no
//! thread lifecycle at all.
//!
//! ## Determinism contract
//!
//! The pool preserves PR 1's fixed-seed, schedule-independent guarantee
//! bit for bit:
//!
//! * shard `i` owns a `StdRng` seeded `seed ^ i` at construction and
//!   advanced **only** by shard `i`, in job-submission order;
//! * items are partitioned with [`approxiot_core::shard_slice`] and
//!   budgets split with [`approxiot_core::shard_budget`] — the exact
//!   functions the scoped-thread sampler uses;
//! * outputs are returned in shard-index order, never completion order.
//!
//! A `WorkerPool` and a `ParallelShardedSampler` built from the same
//! `(allocation, workers, seed)` therefore produce identical
//! [`WhsOutput`] sequences for any sequence of inputs (pinned by a test
//! below), and the thread schedule can never change what is sampled.
//! `workers == 1` — and any worker count on a single-CPU host, where
//! worker threads could only add context switches — runs the shards
//! inline on the caller's thread: same per-shard state, same output, no
//! threads and no channels ([`WorkerPool::with_threading`] pins the
//! choice explicitly).
//!
//! ## Shutdown semantics
//!
//! Dropping the pool hangs up the job channels; each worker drains its
//! (at most one) queued job, observes the disconnect, and exits. Drop
//! then joins every worker, so no thread outlives the pool and a pool
//! dropped mid-stream never leaks detached threads — the property the
//! pipeline relies on when an edge node returns early on a closed topic.
//! If a worker panicked, the panic is re-raised on the thread dropping
//! the pool.

use approxiot_core::{
    shard_bounds, shard_budget, shard_slice, Allocation, Batch, ColumnarBatch, ColumnsView,
    ParallelShardedSampler, StreamItem, WeightMap, WeightStore, WhsOutput, WhsScratch,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::thread::JoinHandle;

/// The input a job points at: an AoS item slice, or the four column
/// slices of a [`ColumnsView`] range (same length each). Both variants
/// drive the same per-shard RNG discipline, so a pool can serve either
/// representation batch by batch.
enum JobInput {
    Items {
        items: *const StreamItem,
        len: usize,
    },
    Columns {
        strata: *const u32,
        values: *const f64,
        seqs: *const u64,
        source_ts: *const u64,
        len: usize,
    },
}

/// One sampling job handed to a worker shard.
///
/// Carries raw views of the caller's input (item slice or column slices)
/// and resolved weight map. Safety rests on the dispatch protocol, not on
/// lifetimes: the only submitter is [`dispatch_jobs`] (via
/// [`WorkerPool::sample_with_weights`] /
/// [`WorkerPool::sample_columns_with_weights`]), which neither returns
/// nor unwinds until every dispatched shard has sent its result **or hung
/// up** (a hang-up means the worker's closure, including its copy of this
/// job, is already destroyed), so the borrows the pointers alias strictly
/// outlive every worker's use of them — even when a shard panics mid-run.
struct Job {
    input: JobInput,
    w_in: *const WeightMap,
    budget: usize,
    allocation: Allocation,
}

// SAFETY: `StreamItem` and the column element types are `Copy + Send` and
// `WeightMap` is `Sync`; the pointers are dereferenced only between job
// receipt and result send, while the submitting call is still blocked
// (see `Job`'s invariant).
unsafe impl Send for Job {}

/// What a shard sends back: the output representation matching the job's
/// input representation.
enum ShardOutput {
    Items(WhsOutput),
    Columns(ColumnarBatch),
}

/// A worker shard's private sampling state — identical to what the
/// scoped-thread sampler keeps per shard, which is what makes the two
/// engines output-compatible.
struct ShardState {
    rng: StdRng,
    scratch: WhsScratch,
}

impl ShardState {
    fn new(seed: u64, idx: u64) -> Self {
        ShardState {
            // D3-allowlisted worker-lane seeding: `seed` is already a
            // Topology-derived node seed; `^ idx` fans it out per shard.
            #[allow(clippy::disallowed_methods)]
            rng: StdRng::seed_from_u64(seed ^ idx),
            scratch: WhsScratch::new(),
        }
    }

    fn run(&mut self, job: &Job) -> ShardOutput {
        // SAFETY: the submitter blocks until our result is received, so
        // `w_in` and the input slices are alive for the duration of this
        // call; see `Job`.
        let w_in = unsafe { &*job.w_in };
        match job.input {
            JobInput::Items { items, len } => {
                // SAFETY: `items`/`len` came from a live slice borrowed by
                // the submitter, which is still blocked on our result.
                let items = unsafe { std::slice::from_raw_parts(items, len) };
                ShardOutput::Items(self.scratch.sample_slice(
                    items,
                    job.budget,
                    w_in,
                    job.allocation,
                    &mut self.rng,
                ))
            }
            JobInput::Columns {
                strata,
                values,
                seqs,
                source_ts,
                len,
            } => {
                // SAFETY: each column pointer was taken from a live
                // `ColumnsView` of length `len` borrowed by the submitter,
                // which is still blocked on our result.
                let view = unsafe {
                    ColumnsView {
                        strata: std::slice::from_raw_parts(strata, len),
                        values: std::slice::from_raw_parts(values, len),
                        seqs: std::slice::from_raw_parts(seqs, len),
                        source_ts: std::slice::from_raw_parts(source_ts, len),
                    }
                };
                let mut out = ColumnarBatch::new();
                self.scratch.sample_columns_into(
                    view,
                    job.budget,
                    w_in,
                    job.allocation,
                    &mut out,
                    &mut self.rng,
                );
                ShardOutput::Columns(out)
            }
        }
    }
}

/// Fits the 15 bytes Linux keeps of a thread name up to worker 99999.
pub(crate) fn worker_thread_name(idx: u64) -> String {
    format!("aiot-pool-{idx}")
}

/// One long-lived worker: its job channel, result channel and thread.
struct Worker {
    jobs: Sender<Job>,
    results: Receiver<ShardOutput>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns the persistent thread for shard `idx`.
    fn spawn(seed: u64, idx: u64) -> Self {
        // Capacity 1 on both channels: the dispatcher submits at most one
        // job per shard before collecting, so sends never block and the
        // queue never reorders.
        let (job_tx, job_rx) = bounded::<Job>(1);
        let (result_tx, result_rx) = bounded::<ShardOutput>(1);
        let mut state = ShardState::new(seed, idx);
        let thread = std::thread::Builder::new()
            .name(worker_thread_name(idx))
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let out = state.run(&job);
                    // analysis: allow(C2, reason = "capacity-1 request/reply protocol: the dispatcher sends one job per shard and collects before resubmitting, so neither queue can fill")
                    if result_tx.send(out).is_err() {
                        break; // pool dropped mid-collect (panic unwind)
                    }
                }
            })
            // analysis: allow(P1, reason = "thread spawn fails only on OS resource exhaustion; no fallback exists")
            .expect("spawn edge worker thread");
        Worker {
            jobs: job_tx,
            results: result_rx,
            thread: Some(thread),
        }
    }
}

/// Sends one job to every worker and collects the results **in shard
/// order** behind a panic-safety barrier: every dispatched shard must
/// either return its output or hang up before this function does anything
/// that can unwind. A hang-up means the worker's closure — including its
/// copy of the job pointers — is already gone, so after the barrier no
/// thread can still read the borrows behind the raw pointers and it is
/// safe to panic (or return) from the submitting frame.
fn dispatch_jobs(
    workers_vec: &[Worker],
    mut make_job: impl FnMut(usize, usize) -> Job,
) -> Vec<ShardOutput> {
    let workers = workers_vec.len();
    let mut dispatched = 0usize;
    for (idx, worker) in workers_vec.iter().enumerate() {
        if worker.jobs.send(make_job(idx, workers)).is_err() {
            // Worker gone (panicked on an earlier batch): stop handing
            // out jobs, but fall through to the barrier so
            // already-dispatched shards finish before we unwind.
            break;
        }
        dispatched += 1;
    }
    let results: Vec<Option<ShardOutput>> = workers_vec
        .iter()
        .take(dispatched)
        .map(|w| w.results.recv().ok())
        .collect();
    assert!(
        dispatched == workers && results.iter().all(Option::is_some),
        "edge worker shard panicked"
    );
    results.into_iter().flatten().collect()
}

/// Persistent, channel-fed execution engine for §III-E parallel sharded
/// sampling. See the module docs for the determinism and shutdown
/// contracts.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Allocation, Batch, StratumId, StreamItem};
/// use approxiot_runtime::WorkerPool;
///
/// let items: Vec<_> = (0..100).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let mut pool = WorkerPool::new(Allocation::Uniform, 4, 7);
/// let outs = pool.sample_batch(&Batch::from_items(items), 20);
/// assert_eq!(outs.len(), 4);
/// let total: usize = outs.iter().map(|o| o.sample.len()).sum();
/// assert_eq!(total, 20);
/// ```
pub struct WorkerPool {
    allocation: Allocation,
    engine: Engine,
    /// Carried weights for [`WorkerPool::sample_batch`].
    store: WeightStore,
    /// Reusable buffer for the batch's distinct strata.
    strata_scratch: Vec<approxiot_core::StratumId>,
}

/// How the pool executes its shards. Both engines drive identical
/// per-shard state through identical partitioning, so the sampled output
/// is the same either way — the choice is purely a host-fit question,
/// made once at construction. There is deliberately no per-batch size
/// cutoff switching between them: each shard's RNG must be advanced by
/// exactly one engine for the determinism contract to hold, and with the
/// threads already alive a dispatch costs two channel hops (microseconds),
/// not the tens-of-microseconds spawn the old scoped path cut off small
/// batches to avoid.
enum Engine {
    /// Shards run sequentially on the caller's thread — the scoped-thread
    /// sampler pinned to its inline mode, which is exactly the per-shard
    /// state the threaded engine replicates. Chosen for `workers == 1`
    /// and on single-CPU hosts, where worker threads could only add
    /// context switches.
    Inline(ParallelShardedSampler),
    /// One persistent thread per shard, fed over bounded channels.
    Threaded(Vec<Worker>),
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("allocation", &self.allocation)
            .field("workers", &self.workers())
            .field("threaded", &self.is_threaded())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` shards; shard `i` samples with a
    /// generator seeded `seed ^ i`. On multi-CPU hosts with `workers > 1`,
    /// one thread per shard is spawned up front and lives until the pool
    /// is dropped; `workers == 1` and single-CPU hosts run the shards
    /// inline instead (identical output, no threads and no channels).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread cannot be spawned.
    pub fn new(allocation: Allocation, workers: usize, seed: u64) -> Self {
        let multi_cpu = std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false);
        WorkerPool::with_threading(allocation, workers, seed, multi_cpu)
    }

    /// Like [`WorkerPool::new`], but with the threaded/inline choice made
    /// explicit instead of derived from the host's CPU count. Output is
    /// identical either way (pinned by a test below); `workers == 1` is
    /// always inline.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread cannot be spawned.
    pub fn with_threading(
        allocation: Allocation,
        workers: usize,
        seed: u64,
        threaded: bool,
    ) -> Self {
        assert!(workers > 0, "workers must be positive");
        let engine = if workers == 1 || !threaded {
            // Reuse the scoped-thread sampler pinned to inline mode as
            // the inline engine: it already keeps exactly one
            // (seed ^ i)-seeded RNG and one scratch per shard, so there
            // is a single implementation of the per-shard state to drift.
            let mut sampler = ParallelShardedSampler::new(allocation, workers, seed);
            sampler.set_threaded(false);
            Engine::Inline(sampler)
        } else {
            Engine::Threaded(
                (0..workers as u64)
                    .map(|i| Worker::spawn(seed, i))
                    .collect(),
            )
        };
        WorkerPool {
            allocation,
            engine,
            store: WeightStore::new(),
            strata_scratch: Vec::new(),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        match &self.engine {
            Engine::Inline(sampler) => sampler.workers(),
            Engine::Threaded(workers) => workers.len(),
        }
    }

    /// Returns `true` when the shards run on persistent threads (`false`
    /// on the inline path).
    pub fn is_threaded(&self) -> bool {
        matches!(self.engine, Engine::Threaded(_))
    }

    /// The allocation policy in use.
    pub fn allocation(&self) -> Allocation {
        self.allocation
    }

    /// Samples one batch across all shards, resolving missing input
    /// weights via the carry-forward rule; one [`WhsOutput`] per shard, in
    /// shard order.
    pub fn sample_batch(&mut self, batch: &Batch, sample_size: usize) -> Vec<WhsOutput> {
        let mut strata = std::mem::take(&mut self.strata_scratch);
        approxiot_core::distinct_strata_into(&batch.items, &mut strata);
        let resolved = self.store.resolve(strata.iter().copied(), &batch.weights);
        self.strata_scratch = strata;
        self.sample_with_weights(&batch.items, sample_size, &resolved)
    }

    /// Samples `items` across all shards with already-resolved input
    /// weights; one [`WhsOutput`] per shard, in shard order. Blocks until
    /// every shard has returned — jobs never outlive this call.
    pub fn sample_with_weights(
        &mut self,
        items: &[StreamItem],
        sample_size: usize,
        w_in: &WeightMap,
    ) -> Vec<WhsOutput> {
        let allocation = self.allocation;
        match &mut self.engine {
            // Inline fallback: the pinned-inline scoped-thread sampler
            // drives identical per-shard slice, budget, RNG and scratch
            // usage, so the output matches the threaded engine bit for
            // bit.
            Engine::Inline(sampler) => sampler.sample_with_weights(items, sample_size, w_in),
            Engine::Threaded(workers_vec) => {
                let outs = dispatch_jobs(workers_vec, |idx, workers| {
                    let slice = shard_slice(items, workers, idx);
                    Job {
                        input: JobInput::Items {
                            items: slice.as_ptr(),
                            len: slice.len(),
                        },
                        w_in,
                        budget: shard_budget(sample_size, workers, idx),
                        allocation,
                    }
                });
                outs.into_iter()
                    .map(|out| match out {
                        ShardOutput::Items(out) => out,
                        ShardOutput::Columns(_) => {
                            unreachable!("items job returned columnar output")
                        }
                    })
                    .collect()
            }
        }
    }

    /// Samples one columnar batch across all shards, resolving missing
    /// input weights via the carry-forward rule — the columnar twin of
    /// [`WorkerPool::sample_batch`]; one output per shard, in shard order.
    pub fn sample_columns(
        &mut self,
        batch: &ColumnarBatch,
        sample_size: usize,
    ) -> Vec<ColumnarBatch> {
        let mut strata = std::mem::take(&mut self.strata_scratch);
        approxiot_core::distinct_strata_u32_into(&batch.strata, &mut strata);
        let resolved = self.store.resolve(strata.iter().copied(), &batch.weights);
        self.strata_scratch = strata;
        self.sample_columns_with_weights(batch.view(), sample_size, &resolved)
    }

    /// Samples a columnar view across all shards with already-resolved
    /// input weights; one output per shard, in shard order. Shard `idx`
    /// takes the [`shard_bounds`] range over the columns — the same cut
    /// and per-shard RNG as [`WorkerPool::sample_with_weights`], so the
    /// shard outputs are bit-identical to the AoS path for the same
    /// logical items. Blocks until every shard has returned — jobs never
    /// outlive this call.
    pub fn sample_columns_with_weights(
        &mut self,
        input: ColumnsView<'_>,
        sample_size: usize,
        w_in: &WeightMap,
    ) -> Vec<ColumnarBatch> {
        let allocation = self.allocation;
        match &mut self.engine {
            Engine::Inline(sampler) => {
                sampler.sample_columns_with_weights(input, sample_size, w_in)
            }
            Engine::Threaded(workers_vec) => {
                let outs = dispatch_jobs(workers_vec, |idx, workers| {
                    let (start, end) = shard_bounds(input.len(), workers, idx);
                    let view = input.range(start, end);
                    Job {
                        input: JobInput::Columns {
                            strata: view.strata.as_ptr(),
                            values: view.values.as_ptr(),
                            seqs: view.seqs.as_ptr(),
                            source_ts: view.source_ts.as_ptr(),
                            len: view.len(),
                        },
                        w_in,
                        budget: shard_budget(sample_size, workers, idx),
                        allocation,
                    }
                });
                outs.into_iter()
                    .map(|out| match out {
                        ShardOutput::Columns(out) => out,
                        ShardOutput::Items(_) => {
                            unreachable!("columnar job returned items output")
                        }
                    })
                    .collect()
            }
        }
    }

    /// Forgets carried weights (between independent runs). Shard RNGs
    /// keep advancing; rebuild the pool to reproduce a run from its seed.
    pub fn reset(&mut self) {
        self.store.clear();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let Engine::Threaded(workers) = &mut self.engine else {
            return;
        };
        // Hang up every job channel first so all workers begin exiting,
        // then join them. `Sender` has no explicit close, so replace each
        // with a sender whose receiver is already gone.
        for worker in workers.iter_mut() {
            let (dead_tx, _) = bounded::<Job>(1);
            worker.jobs = dead_tx;
        }
        // Join *every* worker before re-raising anything, so no thread
        // outlives the pool even when one of them panicked.
        let mut first_panic = None;
        for worker in workers.iter_mut() {
            if let Some(thread) = worker.thread.take() {
                if let Err(panic) = thread.join() {
                    first_panic.get_or_insert(panic);
                }
            }
        }
        if let Some(panic) = first_panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::{ParallelShardedSampler, StratumId, ThetaStore};

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    fn batch_of(counts: &[(u32, usize)]) -> Batch {
        let mut items = Vec::new();
        for &(stratum, n) in counts {
            for k in 0..n {
                items.push(StreamItem::with_meta(s(stratum), 1.0, k as u64, 0));
            }
        }
        Batch::from_items(items)
    }

    #[test]
    #[should_panic(expected = "workers must be positive")]
    fn rejects_zero_workers() {
        WorkerPool::new(Allocation::Uniform, 0, 0);
    }

    #[test]
    fn pool_output_is_bit_identical_to_scoped_thread_sampler() {
        // The acceptance guarantee: swapping the per-batch thread scope
        // for the persistent pool must not change a single sampled item
        // or weight, across a multi-batch stream with carried weights —
        // on both the threaded and the inline engine.
        for threaded in [false, true] {
            for workers in [1usize, 2, 4, 8] {
                let mut pool =
                    WorkerPool::with_threading(Allocation::Uniform, workers, 42, threaded);
                assert_eq!(pool.is_threaded(), threaded && workers > 1);
                let mut scoped = ParallelShardedSampler::new(Allocation::Uniform, workers, 42);
                for round in 0..5usize {
                    let mut batch = batch_of(&[(0, 5_000 + round), (1, 777), (2, 13)]);
                    if round == 0 {
                        batch.weights.set(s(1), 2.5);
                    }
                    let budget = 600 + round;
                    let from_pool = pool.sample_batch(&batch, budget);
                    let from_scope = scoped.sample_batch(&batch, budget);
                    assert_eq!(
                        from_pool, from_scope,
                        "workers={workers} threaded={threaded} round={round}: engines diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn columnar_pool_bit_identical_to_aos_pool() {
        // Threaded and inline engines, multi-batch stream with carried
        // weights: the columnar dispatch must reproduce the AoS dispatch
        // shard for shard.
        for threaded in [false, true] {
            let mut aos = WorkerPool::with_threading(Allocation::Uniform, 4, 42, threaded);
            let mut soa = WorkerPool::with_threading(Allocation::Uniform, 4, 42, threaded);
            for round in 0..3usize {
                let mut batch = batch_of(&[(0, 5_000 + round), (1, 777), (2, 13)]);
                if round == 0 {
                    batch.weights.set(s(1), 2.5);
                }
                let cols = ColumnarBatch::from_batch(&batch);
                let budget = 600 + round;
                let from_aos = aos.sample_batch(&batch, budget);
                let from_soa = soa.sample_columns(&cols, budget);
                assert_eq!(from_aos.len(), from_soa.len());
                for (a, b) in from_aos.into_iter().zip(from_soa) {
                    assert_eq!(
                        b.to_batch(),
                        a.into_batch(),
                        "threaded={threaded} round={round}: layouts diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_seed_reproduces_across_pool_instances() {
        let batch = batch_of(&[(0, 10_000), (3, 450)]);
        let run = |seed: u64| {
            let mut pool = WorkerPool::new(Allocation::Uniform, 4, seed);
            pool.sample_batch(&batch, 1_000)
        };
        assert_eq!(run(7), run(7), "fixed seed reproduces");
        assert_ne!(run(7), run(8), "different seed diverges");
    }

    #[test]
    fn budgets_sum_exactly_and_counts_reconstruct() {
        let batch = batch_of(&[(0, 20_000), (1, 1_000)]);
        let mut pool = WorkerPool::new(Allocation::Uniform, 8, 42);
        let outs = pool.sample_batch(&batch, 2_100);
        assert_eq!(outs.len(), 8);
        let total: usize = outs.iter().map(|o| o.sample.len()).sum();
        assert_eq!(total, 2_100);
        let theta: ThetaStore = outs.into_iter().collect();
        let est = theta.stratum_estimates();
        for (stratum, expected) in [(s(0), 20_000.0), (s(1), 1_000.0)] {
            let got = est[&stratum].count_hat;
            assert!(
                (got - expected).abs() < 1e-6,
                "{stratum}: reconstructed {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn carried_weights_reach_every_shard_and_reset_clears() {
        let mut pool = WorkerPool::new(Allocation::Uniform, 2, 3);
        let mut first = batch_of(&[(0, 8)]);
        first.weights.set(s(0), 3.0);
        pool.sample_batch(&first, 8);
        let outs = pool.sample_batch(&batch_of(&[(0, 8)]), 4);
        let theta: ThetaStore = outs.into_iter().collect();
        assert!(
            (theta.count_estimate() - 24.0).abs() < 1e-9,
            "carried 3.0 reaches both shards: {}",
            theta.count_estimate()
        );
        pool.reset();
        let outs = pool.sample_batch(&batch_of(&[(0, 8)]), 4);
        let theta: ThetaStore = outs.into_iter().collect();
        assert!((theta.count_estimate() - 8.0).abs() < 1e-9, "reset clears");
    }

    #[test]
    fn inline_single_worker_spawns_no_threads() {
        let mut pool = WorkerPool::with_threading(Allocation::Uniform, 1, 1, true);
        assert_eq!(pool.workers(), 1);
        assert!(!pool.is_threaded(), "one worker is always inline");
        let outs = pool.sample_batch(&batch_of(&[(0, 100)]), 10);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].sample.len(), 10);
        assert_eq!(outs[0].weights.get(s(0)), 10.0);
    }

    #[test]
    fn empty_and_tiny_batches_are_fine() {
        let mut pool = WorkerPool::with_threading(Allocation::Uniform, 4, 9, true);
        let outs = pool.sample_batch(&Batch::new(), 10);
        assert_eq!(outs.len(), 4);
        assert!(outs.iter().all(|o| o.sample.is_empty()));
        // Fewer items than shards: trailing shards see empty slices.
        let outs = pool.sample_batch(&batch_of(&[(0, 2)]), 10);
        let total: usize = outs.iter().map(|o| o.sample.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn drop_joins_all_workers_promptly() {
        // Create and drop many threaded pools; leaked threads would make
        // this explode under the high --test-threads CI run.
        for seed in 0..20u64 {
            let mut pool = WorkerPool::with_threading(Allocation::Uniform, 4, seed, true);
            assert!(pool.is_threaded());
            pool.sample_batch(&batch_of(&[(0, 1_000)]), 100);
            drop(pool);
        }
    }

    #[test]
    fn pool_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<WorkerPool>();
    }
}
