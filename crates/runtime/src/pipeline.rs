//! The threaded execution engine: an arbitrary-depth [`Topology`] of edge
//! nodes connected through broker topics with WAN delay and capacity
//! emulation.
//!
//! This is the engine behind the wall-clock experiments — throughput
//! (Figure 6), bandwidth (Figure 7), latency vs sampling fraction
//! (Figure 8), latency vs window size (Figure 9) and the real-world
//! throughput runs (Figure 11b). Accuracy experiments use the faster
//! virtual-time [`crate::SimEngine`] instead; both engines run behind the
//! same [`crate::Driver`] front door.
//!
//! ## How the WAN is emulated
//!
//! * **Propagation delay**: producers stamp each record with its send time;
//!   consumers hold records until `send_time + hop_delay` before processing
//!   — equivalent to the paper's `tc` netem delay without a thread per
//!   link.
//! * **Capacity**: each sending node owns a token bucket
//!   ([`approxiot_net::RateLimiter`]) charged with the encoded frame size —
//!   the paper's 1 Gbps link cap, scaled down for laptop runs. Per-hop
//!   links come straight from the topology's [`crate::LinkSpec`]s.
//! * **Interval semantics**: every edge node forwards each frame on
//!   arrival, whatever its strategy — a WHS or SRS node samples the frame
//!   (its sample is sized from that frame alone), a native node relays
//!   it. Only the root closes windows, so the window size shows up in the
//!   root's result lag, not in any item's edge latency.
//!
//! ## Fault injection
//!
//! Hops with a non-trivial [`crate::Topology::hop_impairment`] spec get
//! per-sender [`FaultInjector`] streams: the driver owns the hop-0
//! injectors (one per source), each edge node owns its outgoing hop's. In
//! wall-clock mode drops skip the limiter and the wire, duplicates send
//! twice, and jitter is added to the send timestamp so consumers hold the
//! frame longer (pair with `Topology::allowed_lateness` to keep jittered
//! stragglers countable). In deterministic mode the same decision streams
//! run against the canonical frame order, so impaired fixed-seed runs
//! remain bit-identical to the sim engine — see [`crate::fault`].
//!
//! ## Deterministic mode
//!
//! [`PipelineOptions::deterministic`] trades the WAN timing emulation for
//! bit-reproducibility: sources keep their event timestamps (no wall
//! re-stamping), records are keyed by interval, and every node defers
//! processing until its input closes, then replays it in the canonical
//! `(interval, child, arrival)` order — the exact order the virtual-time
//! engine uses. A fixed-seed topology therefore produces **identical
//! window estimates** on both engines, pinned by the engine-equivalence
//! integration test.
//!
//! ## Columnar wire path and buffer reuse
//!
//! The whole inter-node wire runs on the **v2 columnar frame** and the
//! [`ColumnarBatch`] hot-path representation: the driver encodes source
//! batches straight into v2 in one pass over their items — in wall-clock
//! mode writing the send time as every item's `source_ts` on the way
//! ([`BatchProducer::send_v2_stamped_to`]; replay keeps event time,
//! [`BatchProducer::send_v2_to`]). A sampling (WHS or SRS) edge node
//! decodes each frame it receives into its one reused input column set
//! ([`decode_columns_into`] — four bulk copies), samples that into its
//! one reused output through the flat-slice kernels
//! ([`SamplingNode::process_columns_into`]; sharded nodes
//! [`SamplingNode::process_columns_parallel`]) and forwards with
//! [`BatchProducer::send_columns_to`]; the root decodes into one reused
//! column set and condenses the columns into its `Θ` rows
//! ([`RootNode::ingest_columns`]). Nothing sends v1 item frames. Sampling
//! output and the root's rows are bit-identical to the array-of-structs
//! path (pinned by kernel-, node- and root-level parity tests), so
//! fixed-seed estimates are unchanged — only the per-item traversal cost
//! drops.
//!
//! **Native nodes never touch the items.** A native edge node forwards
//! each received record's payload to its parent topic unchanged
//! ([`BatchProducer::relay_to`] — a refcount bump: no decode, no encode,
//! no copy), in wall-clock mode, in replay, and under impairment and
//! churn alike. It still validates every frame ([`frame_items`], the
//! decoder's structural checks without the column copies), so a poisoned
//! stream stops it; and it sends the bytes decode → re-encode would
//! have, because the v2 encoding is canonical.
//!
//! What a warmed wall-clock edge thread allocates is counted, not
//! assumed. Every consumer polls through one reused record buffer
//! ([`Consumer::poll_into`] appending via the partition logs'
//! `read_into`), and every producer encodes through its own reused
//! scratch. Per frame, a warmed unsharded WHS node on an unimpaired hop
//! then allocates the forwarded payload (the producer copies its scratch
//! into the shared record) and one B-tree node per
//! [`approxiot_core::WeightMap`] it fills: the resolved input weights, the
//! sampled output's weights and, if the frame carries weights, the
//! decoded ones (one node holds up to 11 strata). That is 3 allocations
//! per frame at a leaf fed by sources and 4 at a node fed by samplers,
//! pinned by `tests/alloc_budget.rs`; a native node allocates none.
//! Sharded WHS nodes run their shards one after another on the edge
//! thread, with one fresh output per shard: 14 allocations per source
//! frame at a two-shard leaf, pinned by the same test. The root samples
//! every frame (under WHS or SRS) into one reused column set too. What it
//! still allocates is its sampler's weight-map nodes per frame, each open
//! window's growing rows, and a per-window split for a frame that
//! straddles a window boundary.
//!
//! Memory follows what is in flight, not the length of the run: every
//! node subscribes before the first push, and a partition log drops a
//! frame once the node reading it has polled past it (see
//! [`approxiot_mq::PartitionLog`]). There is no producer back-pressure —
//! a source that outruns its consumers still queues without bound.

use crate::churn::{ChurnDriver, ChurnSchedule, NodeChurnContext, NodeChurnState, NodeDisposition};
use crate::engine::{fill_completeness, Engine, EngineError, RunReport};
use crate::fault::{FaultFrame, FaultInjector, FaultStats, HopFaults};
use crate::node::{NodePayload, SamplingNode, Strategy};
use crate::query::QuerySet;
use crate::root::{RootConfig, RootNode, WindowResult};
use crate::topology::Topology;
use approxiot_core::{Batch, BudgetError, ColumnarBatch, SketchConfig};
use approxiot_mq::codec::{
    decode_columns, decode_columns_into, decode_summaries, encoded_len_columns,
    encoded_len_summaries, encoded_len_v2, frame_items,
};
use approxiot_mq::{BatchProducer, Broker, Consumer, MqError, Record, StartOffset};
use approxiot_net::RateLimiter;
use approxiot_streams::{TumblingWindow, WindowId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Latency summary over per-item end-to-end samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Maximum.
    pub max: Duration,
}

impl LatencyStats {
    /// Summarises raw nanosecond samples.
    pub fn from_nanos(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        let pick = |q: f64| {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            Duration::from_nanos(samples[idx])
        };
        LatencyStats {
            count,
            mean: Duration::from_nanos((sum / count as u128) as u64),
            p50: pick(0.50),
            p95: pick(0.95),
            max: Duration::from_nanos(samples[count - 1]),
        }
    }
}

/// Options of the threaded engine that are about *driving* the run rather
/// than describing the tree (which is the [`Topology`]'s job).
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Replay mode: preserve event time and process in canonical order so
    /// fixed-seed estimates match the sim engine (see the
    /// [module docs](self)). Disables the latency/delay emulation.
    pub deterministic: bool,
    /// Pace the driver at one interval per `source_interval` of wall time
    /// (`None` = push as fast as the links accept). Ignored in
    /// deterministic mode.
    pub source_interval: Option<Duration>,
}

impl PipelineOptions {
    /// The deterministic replay mode.
    pub fn deterministic() -> Self {
        PipelineOptions {
            deterministic: true,
            source_interval: None,
        }
    }
}

/// Records drained per poll by the node loops.
const POLL_MAX: usize = 64;

/// Item latencies the root keeps per run: the first this many it ingests.
const LATENCY_SAMPLES: usize = 500_000;

/// Thread names fit the 15 bytes Linux keeps (edge names up to layer 9,
/// node 999), so `top -H` and debuggers can tell the threads apart.
const ROOT_THREAD_NAME: &str = "aiot-root";

fn edge_thread_name(layer: usize, node: usize) -> String {
    format!("aiot-edge-{layer}-{node}")
}

/// The threaded execution engine behind [`crate::EngineKind::Pipeline`]:
/// one thread per edge node plus the root, connected through per-layer
/// broker topics, driven incrementally through the [`Engine`] trait.
///
/// The topic feeding each layer has one partition per *upstream sender*
/// (sources for the first layer, the previous layer's nodes after that),
/// and node `j` of a layer with `n` nodes consumes partitions `p` with
/// `p % n == j` — the same modular routing the sim engine uses, and the
/// property that makes deterministic replay possible: within a partition,
/// records are totally ordered by their single producer.
pub struct PipelineEngine {
    topology: Topology,
    options: PipelineOptions,
    epoch: Instant,
    /// Driver-side producer into the first layer's topic.
    producer: BatchProducer,
    /// One first-hop token bucket per source: capacity is charged per
    /// *sending node*, so N sources inject at N times the per-uplink cap
    /// in aggregate (matching the legacy per-source-thread limiters).
    source_limiters: Vec<Option<RateLimiter>>,
    /// One hop-0 fault stream per source (`None` on a perfect first hop):
    /// the driver is the sender, so it owns the injectors.
    source_injectors: Vec<Option<FaultInjector>>,
    /// Per-hop fault counters; edge threads merge their injector stats in
    /// as they exit (hop 0 is merged from `source_injectors` at finish).
    fault_cells: Vec<Arc<Mutex<FaultStats>>>,
    /// True source items pushed per root window (completeness
    /// denominator); wall mode counts by the re-stamped send time.
    window_items: BTreeMap<WindowId, u64>,
    scheme: TumblingWindow,
    /// Per-hop byte counters (hop 0 filled from `producer` at finish).
    bytes: Vec<Arc<AtomicU64>>,
    latencies: Arc<Mutex<Vec<u64>>>,
    result_rx: mpsc::Receiver<WindowResult>,
    elapsed_rx: mpsc::Receiver<Duration>,
    handles: Vec<JoinHandle<()>>,
    results: Vec<WindowResult>,
    source_items: u64,
    intervals_pushed: u64,
    closed: bool,
    /// Churn bookkeeping (`None` on an unchurned topology: strict no-op).
    /// The driver notes inclusion tallies at push time; the root thread
    /// reads them (through the shared handle) at answer time.
    churn: Option<ChurnDriver>,
}

impl PipelineEngine {
    /// Spawns the node and root threads for `topology` and returns the
    /// engine ready for [`Engine::push_interval`].
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError`] for a fraction outside `(0, 1]`.
    pub fn new(
        topology: Topology,
        queries: QuerySet,
        options: PipelineOptions,
    ) -> Result<Self, BudgetError> {
        let fractions = topology.stage_fractions();
        let n_layers = topology.layers().len();
        let broker = Arc::new(Broker::new());
        // feeds[l] feeds layer l; the last topic feeds the root. One
        // partition per upstream sender.
        let mut feeds = Vec::with_capacity(n_layers + 1);
        feeds.push(
            broker
                .create_topic("layer0", topology.sources() as u32)
                // analysis: allow(P1, reason = "broker was constructed empty two lines up; names cannot collide")
                .expect("fresh broker"),
        );
        for l in 1..n_layers {
            feeds.push(
                broker
                    .create_topic(&format!("layer{l}"), topology.layers()[l - 1].nodes as u32)
                    // analysis: allow(P1, reason = "broker was constructed empty above; names cannot collide")
                    .expect("fresh broker"),
            );
        }
        feeds.push(
            broker
                .create_topic("root", topology.layers()[n_layers - 1].nodes as u32)
                // analysis: allow(P1, reason = "broker was constructed empty above; names cannot collide")
                .expect("fresh broker"),
        );

        // D1-allowlisted: the pipeline's wall-clock branch anchors replay
        // timestamps to a real epoch.
        #[allow(clippy::disallowed_methods)]
        let epoch = Instant::now();
        let bytes: Vec<Arc<AtomicU64>> = (0..topology.hops())
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let fault_cells: Vec<Arc<Mutex<FaultStats>>> = (0..topology.hops())
            .map(|_| Arc::new(Mutex::new(FaultStats::default())))
            .collect();
        let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
        let (result_tx, result_rx) = mpsc::channel();
        let (elapsed_tx, elapsed_rx) = mpsc::channel();
        let mut handles = Vec::new();
        let churn = topology.has_churn().then(|| ChurnDriver::new(&topology));

        // ---- Edge layers ---------------------------------------------------
        for (l, layer) in topology.layers().iter().enumerate() {
            let closers = Arc::new(AtomicUsize::new(layer.nodes));
            for j in 0..layer.nodes {
                let partitions: Vec<u32> = (0..feeds[l].partition_count())
                    .filter(|p| (*p as usize) % layer.nodes == j)
                    .collect();
                let consumer =
                    Consumer::subscribe(Arc::clone(&feeds[l]), &partitions, StartOffset::Earliest);
                let producer = BatchProducer::new(Arc::clone(&feeds[l + 1]));
                // Sketch nodes share one tree-wide seed (KLL merges assert
                // it), mirroring the sim engine's seed selection exactly so
                // fixed-seed runs stay bit-identical across engines.
                let strategy = topology.layer_strategy(l);
                let sketch = match strategy {
                    Strategy::Sketch(config) => Some(config),
                    _ => None,
                };
                let node_seed = match strategy {
                    Strategy::Sketch(_) => topology.sketch_seed(),
                    _ => topology.node_seed(l, j),
                };
                let node =
                    SamplingNode::with_workers(strategy, fractions[l], node_seed, layer.workers)?;
                let limiter = make_limiter(topology.hop_link(l + 1).capacity_bytes_per_sec);
                let params = EdgeParams {
                    hop_delay: topology.layer_link(l).delay,
                    window: topology.window(),
                    out_partition: j as u32,
                    sharded: layer.workers > 1,
                };
                let deterministic = options.deterministic;
                let sketch_seed = topology.sketch_seed();
                let leaf = l == 0;
                let left = Arc::clone(&closers);
                let bytes_out = Arc::clone(&bytes[l + 1]);
                // The node is the sender on hop l + 1: its fault stream
                // (same spec + seed derivation as the sim engine's) rides
                // on its thread.
                let mut injector = FaultInjector::new(
                    topology.hop_impairment(l + 1),
                    topology.hop_impairment_seed(l + 1, j),
                );
                let faults_out = Arc::clone(&fault_cells[l + 1]);
                // The node's churn handle rides on its thread, applied
                // lazily at the same processing moments the sim engine
                // applies it (None on an unchurned topology).
                let mut edge_churn = topology.has_churn().then(|| EdgeChurn {
                    schedule: topology.churn().clone(),
                    ctx: NodeChurnContext::new(&topology, &fractions, l, j),
                    state: NodeChurnState::new(),
                    scheme: TumblingWindow::new(topology.window()),
                });
                let native = matches!(strategy, Strategy::Native);
                handles.push(
                    thread::Builder::new()
                        .name(edge_thread_name(l, j))
                        .spawn(move || {
                            if let Some(config) = sketch {
                                // Sketch strata are replay-only (the driver
                                // rejects wall-clock sketch runs): one v3
                                // summary frame per node per interval.
                                edge_node_sketch_replay(
                                    consumer,
                                    &producer,
                                    node,
                                    &params,
                                    limiter,
                                    leaf,
                                    config,
                                    sketch_seed,
                                );
                            } else if native {
                                let relay = NativeRelay {
                                    producer: &producer,
                                    limiter,
                                    injector: &mut injector,
                                    churn: edge_churn,
                                    out_partition: params.out_partition,
                                };
                                if deterministic {
                                    relay.replay(consumer);
                                } else {
                                    relay.run(consumer, params.hop_delay, epoch);
                                }
                            } else if deterministic {
                                edge_node_replay(
                                    consumer,
                                    &producer,
                                    node,
                                    &params,
                                    limiter,
                                    &mut injector,
                                    &mut edge_churn,
                                );
                            } else {
                                edge_node_loop(
                                    consumer,
                                    &producer,
                                    node,
                                    params,
                                    limiter,
                                    epoch,
                                    &mut injector,
                                    &mut edge_churn,
                                );
                            }
                            if let Some(injector) = &injector {
                                faults_out
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .merge(injector.stats());
                            }
                            bytes_out.fetch_add(producer.bytes_sent(), Ordering::Relaxed);
                            if left.fetch_sub(1, Ordering::AcqRel) == 1 {
                                producer.topic().close();
                            }
                        })
                        // analysis: allow(P1, reason = "thread spawn fails only on OS resource exhaustion; no fallback exists")
                        .expect("spawn edge thread"),
                );
            }
        }

        // ---- Root ----------------------------------------------------------
        let root_is_sketch = matches!(topology.root_strategy(), Strategy::Sketch(_));
        let mut root = RootNode::new(RootConfig {
            strategy: topology.root_strategy(),
            // analysis: allow(P1, reason = "TopologyBuilder rejects depth-0 trees, so fractions is non-empty")
            fraction: *fractions.last().expect("depth >= 1"),
            overall_fraction: topology.overall_fraction(),
            window: topology.window(),
            queries,
            seed: if root_is_sketch {
                topology.sketch_seed()
            } else {
                topology.root_seed()
            },
            delivery_factor: topology.delivery_factor(),
            allowed_lateness: topology.allowed_lateness(),
        })?;
        if let Some(churn) = &churn {
            // In replay mode the root only answers after its input closes,
            // by which time every pushed interval has been noted, so the
            // inclusion map it reads is complete (wall mode reads the
            // tallies noted up to each watermark advance — approximate,
            // like all wall-mode accounting).
            root.set_inclusion(churn.inclusion());
        }
        let root_consumer =
            Consumer::subscribe_all(Arc::clone(&feeds[n_layers]), StartOffset::Earliest);
        let root_delay = topology.root_link().delay;
        let total_delay = topology.total_delay();
        let root_latencies = Arc::clone(&latencies);
        let deterministic = options.deterministic;
        handles.push(
            thread::Builder::new()
                .name(ROOT_THREAD_NAME.into())
                .spawn(move || {
                    if root_is_sketch {
                        root_replay(
                            root_consumer,
                            root,
                            &result_tx,
                            decode_summaries,
                            |root, windows| {
                                root.ingest_summaries(windows);
                            },
                        );
                    } else if deterministic {
                        root_replay(
                            root_consumer,
                            root,
                            &result_tx,
                            decode_columns,
                            |root, batch| {
                                root.ingest_columns(&batch);
                            },
                        );
                    } else {
                        root_loop(
                            root_consumer,
                            root,
                            &result_tx,
                            &root_latencies,
                            epoch,
                            root_delay,
                            total_delay,
                        );
                    }
                    let _ = elapsed_tx.send(epoch.elapsed());
                })
                // analysis: allow(P1, reason = "thread spawn fails only on OS resource exhaustion; no fallback exists")
                .expect("spawn root thread"),
        );

        let producer = BatchProducer::new(Arc::clone(&feeds[0]));
        let source_limiters = (0..topology.sources())
            .map(|_| make_limiter(topology.layer_link(0).capacity_bytes_per_sec))
            .collect();
        let source_injectors = (0..topology.sources())
            .map(|s| {
                FaultInjector::new(
                    topology.hop_impairment(0),
                    topology.hop_impairment_seed(0, s),
                )
            })
            .collect();
        let scheme = TumblingWindow::new(topology.window());
        Ok(PipelineEngine {
            topology,
            options,
            epoch,
            producer,
            source_limiters,
            source_injectors,
            fault_cells,
            window_items: BTreeMap::new(),
            scheme,
            bytes,
            latencies,
            result_rx,
            elapsed_rx,
            handles,
            results: Vec::new(),
            source_items: 0,
            intervals_pushed: 0,
            closed: false,
            churn,
        })
    }

    /// The topology this engine runs.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Sends one source frame through its hop-0 injector (if any): the
    /// limiter and the wire are only charged for frames that survive, and
    /// wall-mode jitter is added to the send timestamp so the consumer
    /// side holds the frame longer.
    ///
    /// In wall-clock mode `ts` is the send time: the frame's items are
    /// stamped with it as they are encoded (for true end-to-end latency)
    /// and the record carries it plus any jitter. In replay mode `ts` is
    /// the interval key and items keep their event time: the jitter draw
    /// still happens (stream alignment with the sim engine) but must never
    /// perturb the key.
    fn send_source(&mut self, partition: u32, batch: &Batch, ts: u64) -> Result<(), EngineError> {
        let limiter = &self.source_limiters[partition as usize];
        let producer = &self.producer;
        let wall = !self.options.deterministic;
        let mut send = |frame: &Batch, extra: Duration| {
            if let Some(l) = limiter {
                l.acquire(encoded_len_v2(frame) as u64);
            }
            let sent = if wall {
                let held_until = ts.saturating_add(extra.as_nanos() as u64);
                producer.send_v2_stamped_to(partition, frame, ts, held_until)
            } else {
                producer.send_v2_to(partition, frame, ts)
            };
            sent.is_ok()
        };
        let sent = match self.source_injectors[partition as usize].as_mut() {
            Some(injector) => injector.transmit(std::slice::from_ref(batch), &mut send),
            None => send(batch, Duration::ZERO),
        };
        if !sent {
            self.closed = true;
            return Err(EngineError::Closed);
        }
        Ok(())
    }

    fn drain_results(&mut self) -> Vec<WindowResult> {
        let mut new = Vec::new();
        while let Ok(result) = self.result_rx.try_recv() {
            new.push(result);
        }
        if let Some(churn) = &self.churn {
            churn.fill_completeness(&mut new);
        } else if self.topology.has_impairment() {
            fill_completeness(
                &mut new,
                &self.window_items,
                self.topology.delivery_factor(),
            );
        }
        self.results.extend(new.iter().cloned());
        new
    }
}

impl Engine for PipelineEngine {
    fn push_interval(&mut self, interval: &[Batch]) -> Result<(), EngineError> {
        if self.closed {
            return Err(EngineError::Closed);
        }
        // The first-layer topic has one partition per declared source; an
        // oversized interval is a caller error, not a transport failure.
        if interval.len() > self.topology.sources() {
            return Err(EngineError::SourceCount {
                expected: self.topology.sources(),
                got: interval.len(),
            });
        }
        let key = self.intervals_pushed;
        self.intervals_pushed += 1;
        // Per-window true counts feed each result's completeness fraction;
        // on a perfect network completeness is 1.0 by definition, so skip
        // the bookkeeping entirely. (Churned runs track per-window counts
        // in the inclusion map instead.)
        let churned = self.churn.is_some();
        let impaired = self.topology.has_impairment() && !churned;
        if self.options.deterministic {
            if let Some(churn) = self.churn.as_mut() {
                // Same accumulation order as the sim engine: the interval's
                // batches in source order, before any send.
                churn.note_interval(key, interval);
            }
        }
        for (s, batch) in interval.iter().enumerate() {
            self.source_items += batch.len() as u64;
            if self.options.deterministic {
                if impaired {
                    for item in &batch.items {
                        *self
                            .window_items
                            .entry(self.scheme.index_of(item.source_ts))
                            .or_insert(0) += 1;
                    }
                }
                // Preserve event time; key records by interval so replay
                // can reconstruct the canonical order.
                self.send_source(s as u32, batch, key)?;
            } else {
                // Items are stamped with the wall send time as they are
                // encoded, for true end-to-end latency.
                let ts = self.epoch.elapsed().as_nanos() as u64;
                if impaired {
                    *self
                        .window_items
                        .entry(self.scheme.index_of(ts))
                        .or_insert(0) += batch.len() as u64;
                }
                if let Some(churn) = self.churn.as_mut() {
                    // Wall mode maps the schedule onto wall windows: the
                    // send time decides both the window and the interval
                    // the fleet's dispositions are evaluated at.
                    churn.note_wall(s, ts, batch);
                }
                self.send_source(s as u32, batch, ts)?;
            }
        }
        if !self.options.deterministic {
            if let Some(pace) = self.options.source_interval {
                thread::sleep(pace);
            }
        }
        Ok(())
    }

    fn poll(&mut self) -> Vec<WindowResult> {
        self.drain_results()
    }

    fn finish(mut self: Box<Self>) -> RunReport {
        self.producer.topic().close();
        for handle in self.handles.drain(..) {
            // analysis: allow(P1, reason = "deliberate panic propagation: a dead worker means the report would be wrong")
            handle.join().expect("pipeline worker thread panicked");
        }
        self.drain_results();
        let elapsed = self
            .elapsed_rx
            .try_recv()
            .unwrap_or_else(|_| self.epoch.elapsed());
        self.bytes[0].fetch_add(self.producer.bytes_sent(), Ordering::Relaxed);
        // Hop 0's injectors live on the driver; the edge hops' counters
        // were merged into the cells as their threads exited.
        let mut faults = HopFaults::new(self.fault_cells.len());
        for injector in self.source_injectors.iter().flatten() {
            faults.record(0, injector.stats());
        }
        for (hop, cell) in self.fault_cells.iter().enumerate() {
            faults.record(
                hop,
                &cell
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        let mut results = std::mem::take(&mut self.results);
        results.sort_by_key(|r| r.window);
        let latency_samples = std::mem::take(
            &mut *self
                .latencies
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        RunReport {
            results,
            bytes: self
                .bytes
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
                .into(),
            faults,
            churn: self
                .churn
                .as_ref()
                .map(ChurnDriver::stats)
                .unwrap_or_default(),
            source_items: self.source_items,
            elapsed,
            throughput_items_per_sec: self.source_items as f64 / elapsed.as_secs_f64().max(1e-9),
            latency: LatencyStats::from_nanos(latency_samples),
        }
    }
}

impl Drop for PipelineEngine {
    /// An engine dropped without [`Engine::finish`] still shuts its
    /// threads down: closing the source topic cascades layer by layer.
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.producer.topic().close();
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

fn make_limiter(capacity: Option<u64>) -> Option<RateLimiter> {
    capacity.map(|bps| RateLimiter::new(bps, (bps / 10).max(4096)))
}

/// Sleeps until `sent_ts + delay` of the shared epoch clock has passed —
/// the consumer-side propagation-delay emulation.
fn wait_until(epoch: Instant, sent_ts: u64, delay: Duration) {
    let target = Duration::from_nanos(sent_ts) + delay;
    let now = epoch.elapsed();
    if target > now {
        thread::sleep(target - now);
    }
}

struct EdgeParams {
    hop_delay: Duration,
    window: Duration,
    out_partition: u32,
    /// Sample each batch on the node's §III-E shards, forwarding one batch
    /// per shard that kept an item.
    sharded: bool,
}

/// One edge thread's view of the fleet churn schedule: its own slot's
/// events plus the lazily-applied node state ([`NodeChurnState`]). Replay
/// mode evaluates dispositions at each record's interval key — the exact
/// timeline index the sim engine uses — which is what keeps fixed-seed
/// churn runs engine-identical; the wall loop maps wall time onto windows
/// instead.
struct EdgeChurn {
    schedule: ChurnSchedule,
    ctx: NodeChurnContext,
    state: NodeChurnState,
    scheme: TumblingWindow,
}

impl EdgeChurn {
    fn disposition(&self, interval: u64) -> NodeDisposition {
        self.schedule
            .disposition(self.ctx.layer, self.ctx.index, interval)
    }

    fn sync(&mut self, node: &mut SamplingNode, interval: u64) {
        self.state.sync(node, &self.ctx, &self.schedule, interval);
    }
}

/// A native edge node: it forwards each frame it receives to its parent
/// topic as is ([`BatchProducer::relay_to`] — one refcount bump on the
/// record's payload; no decode, no encode, no copy). The bytes
/// it sends are the ones decode → re-encode would have produced, because
/// a native node passes every column and the weights through unchanged
/// and the v2 encoding is canonical (a proptest in the `mq` crate holds
/// the codec to that).
///
/// Per received frame the step is: the node's churn disposition (a down
/// or crashed node loses the frame), then the outgoing hop's fault
/// injector, then the link limiter (charged the frame's length), then the
/// relay. [`frame_items`] makes every structural check a decode would, so
/// a poisoned stream still stops the node, and supplies the item count
/// the injector and the producer meter.
struct NativeRelay<'a> {
    producer: &'a BatchProducer,
    limiter: Option<RateLimiter>,
    injector: &'a mut Option<FaultInjector>,
    churn: Option<EdgeChurn>,
    out_partition: u32,
}

/// A received frame as the relay hands it to the fault injector.
struct RelayFrame<'a> {
    record: &'a Record,
    /// The frame's item count ([`frame_items`]).
    items: usize,
}

impl FaultFrame for RelayFrame<'_> {
    fn item_count(&self) -> usize {
        self.items
    }
}

impl NativeRelay<'_> {
    /// The wall-clock relay: holds each frame for the hop delay, then
    /// forwards it stamped with its send time (plus any jitter). Churn is
    /// evaluated at the wall window of the forwarding moment, as in the
    /// sampling loop.
    fn run(mut self, mut consumer: Consumer, hop_delay: Duration, epoch: Instant) {
        let mut records: Vec<Record> = Vec::new();
        while consumer
            .poll_into(&mut records, POLL_MAX, Duration::from_millis(5))
            .is_ok()
        {
            for record in &records {
                let Ok(items) = frame_items(&record.value) else {
                    return;
                };
                wait_until(epoch, record.timestamp, hop_delay);
                let interval = self.churn.as_ref().map_or(0, |churn| {
                    churn.scheme.index_of(epoch.elapsed().as_nanos() as u64)
                });
                let stamp = |extra: Duration| {
                    (epoch.elapsed().as_nanos() as u64).saturating_add(extra.as_nanos() as u64)
                };
                if !self.forward(RelayFrame { record, items }, interval, stamp) {
                    return;
                }
            }
        }
    }

    /// The replay relay: collects to close, then forwards in the canonical
    /// order, each frame keeping its interval key (jitter draws happen but
    /// never touch the key). A poisoned frame anywhere stops the node
    /// before it forwards anything, as a failed decode of the backlog
    /// always has.
    fn replay(mut self, mut consumer: Consumer) {
        let Some(held) = collect_until_closed(&mut consumer) else {
            return;
        };
        let Ok(items) = held
            .iter()
            .map(|record| frame_items(&record.value))
            .collect::<Result<Vec<_>, _>>()
        else {
            return;
        };
        for (record, items) in held.iter().zip(items) {
            let key = record.timestamp;
            if !self.forward(RelayFrame { record, items }, key, |_| key) {
                return;
            }
        }
    }

    /// Forwards one frame, with the node's churn state taken at
    /// `interval`; `stamp(extra)` is the timestamp of a copy the injector
    /// delays by `extra`. Returns `false` once the transport is closed.
    fn forward(
        &mut self,
        frame: RelayFrame<'_>,
        interval: u64,
        stamp: impl Fn(Duration) -> u64,
    ) -> bool {
        // An empty frame forwards nothing and draws no fault decision.
        if frame.items == 0 {
            return true;
        }
        if let Some(churn) = &self.churn {
            // Down: lost at the doorstep (the sender already billed the
            // wire). Crashed: processed, then the buffered output is lost.
            if !matches!(churn.disposition(interval), NodeDisposition::Active { .. }) {
                return true;
            }
        }
        let (producer, limiter, partition) = (self.producer, &self.limiter, self.out_partition);
        let mut send = |frame: &RelayFrame<'_>, extra: Duration| {
            if let Some(l) = limiter {
                l.acquire(frame.record.value.len() as u64);
            }
            producer
                .relay_to(
                    partition,
                    frame.record.value.clone(),
                    frame.items,
                    stamp(extra),
                )
                .is_ok()
        };
        match self.injector {
            Some(injector) => injector.transmit(std::slice::from_ref(&frame), &mut send),
            None => send(&frame, Duration::ZERO),
        }
    }
}

/// The wall-clock loop of a sampling (WHS or SRS) edge node, running
/// entirely on the columnar hot path: the node samples v2 frames through
/// the flat-slice kernels and forwards its outputs as v2 frames.
///
/// Every strategy forwards on arrival: each frame is held for its hop
/// delay, decoded into **one** reused input column set — which validates
/// it, so a poisoned frame stops the node there, whatever its churn
/// disposition — and sampled into **one** reused output
/// ([`SamplingNode::process_columns_into`]); a sharded node samples the
/// same input over its shards instead, one fresh output per shard.
/// Each frame's sample is sized from that frame alone, so no edge node
/// holds input across frames; only the root closes windows.
///
/// Per frame a warmed unsharded WHS node on an unimpaired hop allocates
/// the forwarded payload and its weight maps' tree nodes: 3 allocations
/// at a leaf, 4 above it (see the module docs; `tests/alloc_budget.rs`
/// pins both).
/// With an injector present the outputs route through it: dropped frames
/// never touch the limiter or the wire, duplicated frames are sent twice,
/// and jitter is added to the send timestamp (the consumer side holds the
/// frame for `send + delay + jitter`).
#[allow(clippy::too_many_arguments)]
fn edge_node_loop(
    mut consumer: Consumer,
    producer: &BatchProducer,
    mut node: SamplingNode,
    params: EdgeParams,
    limiter: Option<RateLimiter>,
    epoch: Instant,
    injector: &mut Option<FaultInjector>,
    churn: &mut Option<EdgeChurn>,
) {
    let mut records: Vec<Record> = Vec::new();
    let mut input = ColumnarBatch::new();
    let mut output = ColumnarBatch::new();
    let send = |out: &ColumnarBatch, extra: Duration| {
        if let Some(l) = &limiter {
            l.acquire(encoded_len_columns(out) as u64);
        }
        let ts = (epoch.elapsed().as_nanos() as u64).saturating_add(extra.as_nanos() as u64);
        producer
            .send_columns_to(params.out_partition, out, ts)
            .is_ok()
    };
    while consumer
        .poll_into(&mut records, POLL_MAX, Duration::from_millis(5))
        .is_ok()
    {
        for record in records.drain(..) {
            wait_until(epoch, record.timestamp, params.hop_delay);
            if decode_columns_into(&record.value, &mut input).is_err() {
                return;
            }
            let mut crashed = false;
            if let Some(churn) = churn.as_mut() {
                // Wall mode evaluates the schedule at the wall window of
                // "now" — the processing moment — mirroring a real fleet
                // where an outage is a property of when work happens, not
                // of the data.
                let interval = churn.scheme.index_of(epoch.elapsed().as_nanos() as u64);
                match churn.disposition(interval) {
                    // Dark: the delivery is lost at this node's doorstep
                    // (the sender already billed the wire).
                    NodeDisposition::Down => continue,
                    // Mid-window crash: process (the sampler RNG advances
                    // as if healthy), then lose the output.
                    disposition => {
                        churn.sync(&mut node, interval);
                        crashed = matches!(disposition, NodeDisposition::Crashed { .. });
                    }
                }
            }
            // The non-empty outputs of one input frame: one transmission
            // burst.
            let mut shards;
            let outs: &[ColumnarBatch] = if params.sharded {
                shards = node.process_columns_parallel(&input);
                shards.retain(|out| !out.is_empty());
                &shards
            } else {
                node.process_columns_into(&input, &mut output);
                if output.is_empty() {
                    &[]
                } else {
                    std::slice::from_ref(&output)
                }
            };
            if crashed {
                continue;
            }
            let sent = match injector.as_mut() {
                Some(injector) => injector.transmit(outs, &mut |out, extra| send(out, extra)),
                None => outs.iter().all(|out| send(out, Duration::ZERO)),
            };
            if !sent {
                return;
            }
        }
    }
}

/// The deterministic replay of a sampling (WHS or SRS) edge node: buffer
/// everything until the input closes, then process in canonical
/// `(interval, child, arrival)` order ([`collect_until_closed`]). Outputs
/// inherit their input's interval key so the next layer can do the same.
///
/// Fault injection composes with replay: the injector sees the same
/// canonical burst sequence the sim engine produces for this sender, so
/// every frame meets the same fate. Jitter draws happen but never touch
/// the interval key (replay has no wall time to perturb).
fn edge_node_replay(
    mut consumer: Consumer,
    producer: &BatchProducer,
    mut node: SamplingNode,
    params: &EdgeParams,
    limiter: Option<RateLimiter>,
    injector: &mut Option<FaultInjector>,
    churn: &mut Option<EdgeChurn>,
) {
    let Some(held) =
        collect_until_closed(&mut consumer).and_then(|h| decode_all(h, decode_columns))
    else {
        return;
    };
    for (key, batch) in held {
        // Replay evaluates the schedule at the record's interval key —
        // the same timeline index (and the same lazy application moments)
        // as the sim engine's item path.
        let mut crashed = false;
        if let Some(churn) = churn.as_mut() {
            match churn.disposition(key) {
                NodeDisposition::Down => continue, // lost at the doorstep
                disposition => {
                    churn.sync(&mut node, key);
                    crashed = matches!(disposition, NodeDisposition::Crashed { .. });
                }
            }
        }
        let mut outs = node.process_columns_parallel(&batch);
        outs.retain(|out| !out.is_empty());
        if crashed {
            continue; // processed, then the buffered output is lost
        }
        let mut send = |out: &ColumnarBatch, _: Duration| {
            if let Some(l) = &limiter {
                l.acquire(encoded_len_columns(out) as u64);
            }
            producer
                .send_columns_to(params.out_partition, out, key)
                .is_ok()
        };
        let sent = match injector {
            Some(injector) => injector.transmit(&outs, &mut send),
            None => outs.iter().all(|out| send(out, Duration::ZERO)),
        };
        if !sent {
            return;
        }
    }
}

/// Drains a consumer to close and returns every record in the canonical
/// replay order, `(timestamp, partition, offset)` — that is `(interval,
/// child, arrival)`, since replay keys records by interval and each
/// partition has a single producer. `None` on a transport error. Every
/// replaying node and root collects through here and decodes from the
/// records.
fn collect_until_closed(consumer: &mut Consumer) -> Option<Vec<Record>> {
    let mut held = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    loop {
        match consumer.poll_into(&mut records, POLL_MAX, Duration::from_millis(5)) {
            Ok(_) => held.append(&mut records),
            Err(MqError::Closed) => break,
            Err(_) => return None,
        }
    }
    held.sort_by_key(|record| (record.timestamp, record.partition, record.offset));
    Some(held)
}

/// Decodes collected records in order, pairing each with its interval
/// key; `None` if any frame is poisoned — a replaying node that meets one
/// processes nothing.
fn decode_all<T>(
    records: Vec<Record>,
    decode: impl Fn(&[u8]) -> Result<T, MqError>,
) -> Option<Vec<(u64, T)>> {
    records
        .into_iter()
        .map(|record| decode(&record.value).ok().map(|v| (record.timestamp, v)))
        .collect()
}

/// The per-edge-node sketch replay: collect until closed, absorb in the
/// canonical `(interval, child, arrival)` order, and forward **one v3
/// summary frame per interval** — the same drain granularity (and the same
/// `encoded_len_summaries` bytes) as the sim engine's
/// `push_interval_sketch`, so fixed-seed runs stay bit-identical. Leaves
/// summarize item frames; inner nodes merge their children's summaries with
/// no per-item work.
#[allow(clippy::too_many_arguments)]
fn edge_node_sketch_replay(
    mut consumer: Consumer,
    producer: &BatchProducer,
    mut node: SamplingNode,
    params: &EdgeParams,
    limiter: Option<RateLimiter>,
    leaf: bool,
    config: SketchConfig,
    seed: u64,
) {
    let scheme = TumblingWindow::new(params.window);
    let Some(held) = collect_until_closed(&mut consumer) else {
        return;
    };
    // Leaves summarize the driver's item frames; inner nodes merge their
    // children's v3 summary frames.
    let held = if leaf {
        decode_all(held, |frame| {
            decode_columns(frame).map(|items| NodePayload::Items(items.to_batch()))
        })
    } else {
        decode_all(held, |frame| {
            decode_summaries(frame).map(NodePayload::Summaries)
        })
    };
    let Some(held) = held else {
        return;
    };
    let mut i = 0;
    while i < held.len() {
        let interval = held[i].0;
        while i < held.len() && held[i].0 == interval {
            node.absorb_payload(&held[i].1, scheme);
            i += 1;
        }
        let windows = node.take_summaries();
        if windows.is_empty() {
            continue;
        }
        if let Some(l) = &limiter {
            l.acquire(encoded_len_summaries(&windows) as u64);
        }
        if producer
            .send_summaries_to(params.out_partition, config, seed, &windows, interval)
            .is_err()
        {
            return;
        }
    }
}

/// The wall-clock root loop: ingest with delay emulation and latency
/// sampling, advancing the watermark conservatively as wall time passes,
/// streaming each closed window's result as it becomes available.
fn root_loop(
    mut consumer: Consumer,
    mut root: RootNode,
    result_tx: &mpsc::Sender<WindowResult>,
    latencies: &Mutex<Vec<u64>>,
    epoch: Instant,
    root_delay: Duration,
    total_delay: Duration,
) {
    let mut batch = ColumnarBatch::new();
    let mut records: Vec<Record> = Vec::new();
    // Sampled on this thread and handed over once, at exit: nothing reads
    // `latencies` before the engine has joined the root.
    let mut samples: Vec<u64> = Vec::new();
    'run: loop {
        match consumer.poll_into(&mut records, POLL_MAX, Duration::from_millis(5)) {
            Ok(_) => {
                for record in records.drain(..) {
                    if decode_columns_into(&record.value, &mut batch).is_err() {
                        break 'run;
                    }
                    wait_until(epoch, record.timestamp, root_delay);
                    let room = LATENCY_SAMPLES - samples.len();
                    if room > 0 {
                        let now = epoch.elapsed().as_nanos() as u64;
                        samples.extend(
                            batch
                                .source_ts
                                .iter()
                                .take(room)
                                .map(|&ts| now.saturating_sub(ts)),
                        );
                    }
                    root.ingest_columns(&batch);
                }
                // Advance the watermark conservatively: no item older than
                // now − 2×total network delay can still be in flight.
                let wm = epoch
                    .elapsed()
                    .as_nanos()
                    .saturating_sub(2 * total_delay.as_nanos()) as u64;
                for result in root.advance_watermark(wm) {
                    let _ = result_tx.send(result);
                }
            }
            Err(MqError::Closed) => break,
            Err(_) => break,
        }
    }
    *latencies
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = samples;
    for result in root.flush() {
        let _ = result_tx.send(result);
    }
}

/// The deterministic root: collect to close, `decode` every frame (item
/// columns, or a sketch topology's v3 summaries), `ingest` them in the
/// canonical order — the sim engine's insertion order — and answer every
/// window at flush.
fn root_replay<T>(
    mut consumer: Consumer,
    mut root: RootNode,
    result_tx: &mpsc::Sender<WindowResult>,
    decode: impl Fn(&[u8]) -> Result<T, MqError>,
    ingest: impl Fn(&mut RootNode, T),
) {
    let Some(held) = collect_until_closed(&mut consumer).and_then(|h| decode_all(h, decode)) else {
        return;
    };
    for (_, frame) in held {
        ingest(&mut root, frame);
    }
    let mut results = root.flush();
    results.sort_by_key(|r| r.window);
    for result in results {
        let _ = result_tx.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LayerSpec, LinkSpec, TopologyBuilder};
    use approxiot_core::{accuracy_loss, StratumId, StreamItem};
    use approxiot_mq::Topic;

    fn intervals(
        n_intervals: usize,
        sources: usize,
        items_per_batch: usize,
        value: f64,
    ) -> Vec<Vec<Batch>> {
        (0..n_intervals)
            .map(|_| {
                (0..sources)
                    .map(|s| {
                        Batch::from_items(
                            (0..items_per_batch)
                                .map(|k| {
                                    StreamItem::with_meta(
                                        StratumId::new(s as u32),
                                        value,
                                        k as u64,
                                        0,
                                    )
                                })
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn fast_edge() -> LayerSpec {
        LayerSpec::new(2).delay(Duration::from_millis(1))
    }

    /// The tree most tests here share: `sources` → `edge` → `edge` → root,
    /// the root hop delayed like the edge hops, 50 ms windows, seed 42.
    fn fast_tree(
        strategy: Strategy,
        fraction: f64,
        sources: usize,
        edge: LayerSpec,
    ) -> TopologyBuilder {
        Topology::builder()
            .sources(sources)
            .layer(edge)
            .layer(edge)
            .root_delay(edge.link.delay)
            .strategy(strategy)
            .overall_fraction(fraction)
            .window(Duration::from_millis(50))
            .seed(42)
    }

    /// Pushes every interval through the wall-clock engine (paced at
    /// `source_interval` when given) and reports the run.
    fn run_wall_clock(
        topology: TopologyBuilder,
        source_interval: Option<Duration>,
        data: &[Vec<Batch>],
    ) -> RunReport {
        let options = PipelineOptions {
            deterministic: false,
            source_interval,
        };
        let topology = topology.build().expect("valid");
        let mut engine =
            PipelineEngine::new(topology, QuerySet::default(), options).expect("valid");
        for interval in data {
            Engine::push_interval(&mut engine, interval).expect("open");
        }
        Box::new(engine).finish()
    }

    #[test]
    fn native_pipeline_is_exact() {
        let data = intervals(3, 4, 50, 2.0);
        let truth: f64 = data.iter().flatten().map(Batch::value_sum).sum();
        let tree = fast_tree(Strategy::Native, 1.0, 4, fast_edge());
        let report = run_wall_clock(tree, None, &data);
        let total: f64 = report.results.iter().map(|r| r.estimate.value).sum();
        assert_eq!(total, truth);
        assert_eq!(report.source_items, 600);
        assert!(report.throughput_items_per_sec > 0.0);
    }

    #[test]
    fn thread_names_fit_what_linux_keeps() {
        let mut names = vec![ROOT_THREAD_NAME.to_string()];
        names.extend((0..10).flat_map(|l| (0..1000).map(move |j| edge_thread_name(l, j))));
        for name in &names {
            assert!(name.len() <= 15, "{name} is {} bytes", name.len());
        }
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "no two threads share a name");
    }

    #[test]
    fn whs_pipeline_reconstructs_counts() {
        let data = intervals(4, 4, 200, 1.0);
        let tree = fast_tree(Strategy::whs(), 0.2, 4, fast_edge());
        let report = run_wall_clock(tree, None, &data);
        let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
        assert!(
            (count - 3200.0).abs() < 1e-6,
            "count reconstruction through threaded pipeline: {count}"
        );
        // Fewer bytes cross each deeper layer.
        let hops = report.bytes.hops();
        assert!(hops[1] < hops[0] && hops[2] < hops[1], "{hops:?}");
    }

    #[test]
    fn sharded_whs_pipeline_reconstructs_counts() {
        // §III-E end to end: every edge node samples over 4 shards,
        // emitting one (W_out, sample) batch per shard; the root must still
        // reconstruct the exact count from the union of pairs.
        let tree = fast_tree(Strategy::whs(), 0.2, 4, fast_edge().workers(4));
        let report = run_wall_clock(tree, None, &intervals(4, 4, 200, 1.0));
        let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
        assert!(
            (count - 3200.0).abs() < 1e-6,
            "count reconstruction through sharded pipeline: {count}"
        );
    }

    #[test]
    fn srs_pipeline_estimates_approximately() {
        let data = intervals(4, 4, 500, 3.0);
        let truth: f64 = data.iter().flatten().map(Batch::value_sum).sum();
        let tree = fast_tree(Strategy::Srs, 0.5, 4, fast_edge());
        let report = run_wall_clock(tree, None, &data);
        let total: f64 = report.results.iter().map(|r| r.estimate.value).sum();
        assert!(
            accuracy_loss(total, truth) < 0.15,
            "SRS estimate {total} vs truth {truth}"
        );
    }

    #[test]
    fn latency_reflects_hop_delays() {
        let edge = LayerSpec::new(2).delay(Duration::from_millis(10));
        let tree = fast_tree(Strategy::Native, 1.0, 2, edge);
        let report = run_wall_clock(tree, None, &intervals(2, 2, 20, 1.0));
        assert!(report.latency.count > 0);
        assert!(
            report.latency.p50 >= Duration::from_millis(25),
            "p50 {:?} should include ~30 ms of propagation",
            report.latency.p50
        );
    }

    #[test]
    fn whs_edge_layers_forward_on_arrival_like_native() {
        // No edge node holds input for a window: WHS item latency is
        // native's plus sampling time, far below the window. Sources are
        // paced so the stream outlives several windows (a node that held
        // a window would add up to one per layer).
        let window = Duration::from_millis(100);
        let pace = Some(Duration::from_millis(20));
        let data = intervals(8, 2, 50, 1.0);
        let whs_tree = fast_tree(Strategy::whs(), 0.9, 2, fast_edge()).window(window);
        let native_tree = fast_tree(Strategy::Native, 1.0, 2, fast_edge()).window(window);
        let whs = run_wall_clock(whs_tree, pace, &data);
        let native = run_wall_clock(native_tree, pace, &data);
        assert!(
            whs.latency.p50 < native.latency.p50 + window / 4,
            "whs {:?} vs native {:?}",
            whs.latency.p50,
            native.latency.p50
        );
    }

    #[test]
    fn capacity_throttles_throughput() {
        let data = intervals(10, 2, 200, 1.0);
        let fast_report = run_wall_clock(
            fast_tree(Strategy::Native, 1.0, 2, fast_edge()),
            None,
            &data,
        );
        // 200 KB/s on every link past the sources.
        let slow = Topology::builder()
            .sources(2)
            .layer(fast_edge())
            .layer(fast_edge().capacity(200_000))
            .root_link(LinkSpec {
                delay: Duration::from_millis(1),
                capacity_bytes_per_sec: Some(200_000),
                ..LinkSpec::default()
            })
            .strategy(Strategy::Native)
            .window(Duration::from_millis(50))
            .seed(42);
        let slow_report = run_wall_clock(slow, None, &data);
        assert!(
            slow_report.throughput_items_per_sec < fast_report.throughput_items_per_sec,
            "limited link must reduce throughput: {} vs {}",
            slow_report.throughput_items_per_sec,
            fast_report.throughput_items_per_sec
        );
    }

    #[test]
    fn latency_stats_from_nanos() {
        let stats = LatencyStats::from_nanos(vec![100, 200, 300, 400, 1_000]);
        assert_eq!(stats.count, 5);
        assert_eq!(stats.p50, Duration::from_nanos(300));
        assert_eq!(stats.max, Duration::from_nanos(1_000));
        assert_eq!(stats.mean, Duration::from_nanos(400));
        let empty = LatencyStats::from_nanos(vec![]);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn sketch_pipeline_replay_reconstructs_exact_moments() {
        use crate::query::QuerySpec;
        let topology = Topology::builder()
            .sources(4)
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(1))
            .strategy(Strategy::sketch())
            .seed(9)
            .window(Duration::from_millis(50))
            .build()
            .expect("valid");
        let queries = QuerySet::new().with(QuerySpec::Sum).with(QuerySpec::Count);
        let mut engine = PipelineEngine::new(topology, queries, PipelineOptions::deterministic())
            .expect("valid");
        let data = intervals(3, 4, 100, 2.0);
        for interval in &data {
            Engine::push_interval(&mut engine, interval).expect("open");
        }
        let report = Box::new(engine).finish();
        assert_eq!(report.results.len(), 1, "all items share one window");
        let result = &report.results[0];
        // Moments travel losslessly through the summary frames: the sum
        // and count are exact with zero variance.
        assert_eq!(result.estimate.value, 2400.0);
        assert_eq!(result.estimate.variance, 0.0);
        assert_eq!(result.count_hat, 1200.0);
        let count = result.queries.count().expect("count registered");
        assert_eq!(count.value, 1200.0);
        // Every hop carried traffic: item frames at hop 0, one v3 summary
        // frame per node per interval on the inner hops.
        for (hop, bytes) in report.bytes.hops().iter().enumerate() {
            assert!(*bytes > 0, "hop {hop} billed no bytes");
        }
    }

    #[test]
    fn wall_clock_logs_hold_what_is_in_flight_not_the_run() {
        let topology = Topology::builder()
            .sources(4)
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(2))
            .strategy(Strategy::whs())
            .overall_fraction(0.5)
            .window(Duration::from_millis(10))
            // Long enough that a host stall cannot turn into late drops,
            // short enough that windows close while the engine is open.
            .allowed_lateness(Duration::from_secs(1))
            .seed(7)
            .build()
            .expect("valid");
        let options = PipelineOptions {
            deterministic: false,
            source_interval: Some(Duration::from_millis(1)),
        };
        let mut engine =
            PipelineEngine::new(topology, QuerySet::default(), options).expect("valid");
        let interval = &intervals(1, 4, 50, 1.0)[0];
        let pushes = 500;
        let mut arrived = 0;
        for _ in 0..pushes {
            Engine::push_interval(&mut engine, interval).expect("open");
            arrived += Engine::poll(&mut engine).len();
        }
        // 2000 frames have gone through `layer0`. Once the leaves have
        // caught up it holds none of them: each poll releases what the one
        // before it delivered. (Asserted at rest, with a deadline, rather
        // than as a peak during the pushes — how far a leaf thread falls
        // behind mid-run is the host scheduler's business.)
        let deadline = engine.epoch.elapsed() + Duration::from_secs(10);
        while engine.producer.topic().len() >= POLL_MAX || arrived == 0 {
            assert!(
                engine.epoch.elapsed() < deadline,
                "layer0 still holds {} of {} frames, {arrived} results so far",
                engine.producer.topic().len(),
                4 * pushes
            );
            thread::sleep(Duration::from_millis(5));
            arrived += Engine::poll(&mut engine).len();
        }
        let report = Box::new(engine).finish();
        assert!(report.results.len() >= arrived);
        assert_eq!(report.source_items, 4 * 50 * pushes as u64);
        let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
        assert_eq!(count, report.source_items as f64, "nothing lost or late");
    }

    /// A lone WHS leaf (fraction 0.5, seed 1) on its own wall-clock loop,
    /// reading topic `input` and writing topic `output` (one partition
    /// each). The receiver yields the frames it sent once it returns.
    fn spawn_whs_leaf(
        input: &Arc<Topic>,
        output: &Arc<Topic>,
        mut churn: Option<EdgeChurn>,
    ) -> (JoinHandle<()>, mpsc::Receiver<u64>) {
        let consumer = Consumer::subscribe(Arc::clone(input), &[0], StartOffset::Earliest);
        let producer = BatchProducer::new(Arc::clone(output));
        let params = EdgeParams {
            hop_delay: Duration::ZERO,
            window: Duration::from_secs(3600),
            out_partition: 0,
            sharded: false,
        };
        let node = SamplingNode::new(Strategy::whs(), 0.5, 1).expect("valid");
        let (done_tx, done_rx) = mpsc::channel();
        let leaf = thread::spawn(move || {
            let epoch = Instant::now();
            edge_node_loop(
                consumer, &producer, node, params, None, epoch, &mut None, &mut churn,
            );
            let _ = done_tx.send(producer.batches_sent());
        });
        (leaf, done_rx)
    }

    /// Feeds a WHS leaf two good 64-item frames, a truncated one and a
    /// good one, and returns what it had sent when it stopped (`Err` if it
    /// had not stopped 10 s in, with its input still open) and how many
    /// frames reached its output topic.
    fn whs_leaf_at_a_poisoned_frame(
        churn: Option<EdgeChurn>,
    ) -> (Result<u64, mpsc::RecvTimeoutError>, usize) {
        let broker = Broker::new();
        let input = broker.create_topic("in", 1).expect("fresh broker");
        let output = broker.create_topic("out", 1).expect("fresh broker");
        let feed = BatchProducer::new(Arc::clone(&input));
        let frame = ColumnarBatch::from_batch(&intervals(1, 1, 64, 1.0)[0][0]);
        let mut poisoned = approxiot_mq::codec::encode_columns(&frame).to_vec();
        poisoned.pop();
        feed.send_columns_to(0, &frame, 0).expect("open");
        feed.send_columns_to(0, &frame, 0).expect("open");
        feed.relay_to(0, poisoned.into(), frame.len(), 0)
            .expect("open");
        feed.send_columns_to(0, &frame, 0).expect("open");
        let (leaf, done) = spawn_whs_leaf(&input, &output, churn);
        let stopped = done.recv_timeout(Duration::from_secs(10));
        input.close(); // releases a leaf that failed to stop
        leaf.join().expect("leaf thread");
        (stopped, output.len())
    }

    #[test]
    fn poisoned_frame_stops_a_whs_leaf_at_receipt() {
        // The leaf forwards each good frame on arrival, then must stop on
        // receipt of the bad one, with its input still open, forwarding
        // nothing after it.
        assert_eq!(
            whs_leaf_at_a_poisoned_frame(None),
            (Ok(2), 2),
            "the leaf must forward the two good frames, then stop at the poisoned one"
        );
    }

    #[test]
    fn poisoned_frame_stops_a_churned_whs_leaf_in_every_disposition() {
        // Each frame is decoded before the node's churn disposition is
        // read, so a dark leaf — which forwards nothing — stops at the
        // poisoned frame too, as do a crashed and a low-power one. The
        // hour-long window keeps the whole test in interval 0.
        let cases = [
            ("down", ChurnSchedule::new().down(0, 0, 0, 1), 0),
            ("crashed", ChurnSchedule::new().crash(0, 0, 0), 0),
            (
                "low-power",
                ChurnSchedule::new().low_power(0, 0, 0, 1, 0.5),
                2,
            ),
        ];
        for (name, schedule, forwarded) in cases {
            let topology = fast_tree(Strategy::whs(), 0.5, 2, fast_edge())
                .window(Duration::from_secs(3600))
                .churn(schedule)
                .build()
                .expect("valid");
            let churn = EdgeChurn {
                schedule: topology.churn().clone(),
                ctx: NodeChurnContext::new(&topology, &topology.stage_fractions(), 0, 0),
                state: NodeChurnState::new(),
                scheme: TumblingWindow::new(topology.window()),
            };
            assert_eq!(
                whs_leaf_at_a_poisoned_frame(Some(churn)),
                (Ok(forwarded), forwarded as usize),
                "{name} leaf"
            );
        }
    }

    #[test]
    fn whs_leaf_forwards_each_frame_before_its_input_closes() {
        // Nothing is held for a window (this one is an hour long): every
        // good frame is sampled and sent while the input is still open.
        let broker = Broker::new();
        let input = broker.create_topic("in", 1).expect("fresh broker");
        let output = broker.create_topic("out", 1).expect("fresh broker");
        let feed = BatchProducer::new(Arc::clone(&input));
        let mut watch = Consumer::subscribe(Arc::clone(&output), &[0], StartOffset::Earliest);
        let frame = ColumnarBatch::from_batch(&intervals(1, 1, 64, 1.0)[0][0]);
        let (leaf, done) = spawn_whs_leaf(&input, &output, None);
        for k in 0..3 {
            feed.send_columns_to(0, &frame, 0).expect("open");
            let out = watch.poll(POLL_MAX, Duration::from_secs(10)).expect("open");
            assert_eq!(out.len(), 1, "frame {k} still held after 10 s");
        }
        input.close();
        leaf.join().expect("leaf thread");
        assert_eq!(done.recv(), Ok(3), "the leaf sends nothing at close");
    }

    #[test]
    fn dropped_engine_shuts_down_cleanly() {
        let topology = fast_tree(Strategy::whs(), 0.5, 2, fast_edge())
            .build()
            .expect("valid");
        let mut engine =
            PipelineEngine::new(topology, QuerySet::default(), PipelineOptions::default())
                .expect("valid");
        Engine::push_interval(&mut engine, &intervals(1, 2, 10, 1.0)[0]).expect("open");
        drop(engine); // must join every thread without a finish()
    }
}
