//! The per-layer walk.
//!
//! `trace --workload W --seed N --seconds S --trace 1` rebuilds W's tree
//! from the layers' public parts and carries every frame through it hop
//! by hop **on one thread**, with a span around each call into a layer.
//! The spans are kept in a preallocated buffer and written to
//! `benchmark/out/trace-W.json` when the walk is over.
//!
//! The walk is only believed if it did the work the engine does: its
//! per-hop byte totals must equal the `RunReport::bytes` of an untraced
//! engine run over the same input (they are deterministic — budgets are
//! per frame), and its `Σ count_hat` must equal the items pushed.
//!
//! Where a layer has an AoS and a columnar twin the walk calls the
//! columnar one, which is the one the threaded pipeline runs.

use approxiot_benchmark::cli::RunArgs;
use approxiot_benchmark::measure::{self, Raw};
use approxiot_benchmark::procfs;
use approxiot_benchmark::report::{print_metrics, result_line, Metric, PER_LAYER};
use approxiot_benchmark::stats::{median, percentiles};
use approxiot_benchmark::workloads::{self, Input, Plan, Workload, PACED_EVERY};
use approxiot_core::{Allocation, Batch, ColumnarBatch, CostFunction, SamplingBudget, WhsSampler};
use approxiot_mq::codec::{
    decode_batch_any_into, decode_columns_into, encode_columns_into, encoded_len,
};
use approxiot_mq::{Broker, Consumer, ProducerRecord, Record, StartOffset, Topic};
use approxiot_runtime::{
    QuerySet, QuerySpec, RootConfig, RootNode, SamplingNode, Strategy, Topology,
};
use approxiot_streams::{TumblingWindow, WindowBuffer};
use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records drained per poll, as the pipeline's node loops do.
const POLL_MAX: usize = 64;
/// Marks a span that has no parent.
const NO_PARENT: u32 = u32::MAX;

/// The calls the walk puts a span around, by module name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// One interval's whole walk: the parent of every other span. Its
    /// self time is the walk's own glue.
    Interval,
    /// `encode_columns_into`.
    Encode,
    /// `Topic::append_to`, including the `Bytes::copy_from_slice`.
    Append,
    /// `Consumer::poll_into`.
    Poll,
    /// `decode_columns_into`.
    Decode,
    /// `WhsSampler::sample_columns_into` on the decoded frame — a shadow
    /// call beside the node's own, to tell sampling from node overhead.
    Sample,
    /// `SamplingNode::process_columns_mut`.
    Node,
    /// `SamplingNode::process_columns_parallel` (the worker pool).
    Pool,
    /// `decode_batch_any_into` + `RootNode::ingest_mut`.
    RootIngest,
    /// `RootNode::advance_watermark` / `flush`.
    RootClose,
    /// `WindowBuffer::insert`, fed the root's frame stream (shadow).
    WindowInsert,
    /// `WindowBuffer::drain_closed` / `drain_all` (shadow).
    WindowDrain,
}

impl Layer {
    const ALL: [Layer; 12] = [
        Layer::Interval,
        Layer::Encode,
        Layer::Append,
        Layer::Poll,
        Layer::Decode,
        Layer::Sample,
        Layer::Node,
        Layer::Pool,
        Layer::RootIngest,
        Layer::RootClose,
        Layer::WindowInsert,
        Layer::WindowDrain,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Interval => "interval",
            Layer::Encode => "mq.codec.encode",
            Layer::Append => "mq.log.append",
            Layer::Poll => "mq.consumer.poll",
            Layer::Decode => "mq.codec.decode",
            Layer::Sample => "core.sampling.sample",
            Layer::Node => "runtime.node.process",
            Layer::Pool => "runtime.pool.process",
            Layer::RootIngest => "runtime.root.ingest",
            Layer::RootClose => "runtime.root.close",
            Layer::WindowInsert => "streams.window.insert",
            Layer::WindowDrain => "streams.window.drain",
        }
    }

    /// Shadow spans time a layer function called beside the walk's own
    /// data flow; the walk's time and throughput leave them out.
    fn is_shadow(self) -> bool {
        matches!(
            self,
            Layer::Sample | Layer::WindowInsert | Layer::WindowDrain
        )
    }
}

/// Where a span hangs: the span that caused it and the interval both
/// belong to.
#[derive(Debug, Clone, Copy)]
struct At {
    parent: u32,
    interval: u32,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: u32,
    /// The interval the span belongs to: spans of one interval share it.
    interval: u32,
}

/// Spans in memory, plus per-layer totals.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    total_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
}

impl Tracer {
    fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            total_ns: [0; Layer::ALL.len()],
            calls: [0; Layer::ALL.len()],
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] ends it.
    fn open(&mut self, layer: Layer, at: At) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: at.parent,
            interval: at.interval,
        });
        id
    }

    fn close(&mut self, id: u32) {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.total_ns[span.layer as usize] += end_ns - span.start_ns;
        self.calls[span.layer as usize] += 1;
    }

    /// Runs `call` inside a span.
    fn span<R>(&mut self, layer: Layer, at: At, call: impl FnOnce() -> R) -> R {
        let id = self.open(layer, at);
        let result = call();
        self.close(id);
        result
    }

    fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Nanoseconds spent in shadow spans.
    fn shadow_ns(&self) -> u64 {
        Layer::ALL
            .into_iter()
            .filter(|l| l.is_shadow())
            .map(|l| self.total_ns(l))
            .sum()
    }

    /// Writes every span as one JSON document.
    fn write(&self, path: &std::path::Path, plan: &Plan, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let layers: Vec<String> = Layer::ALL
            .iter()
            .map(|l| format!("\"{}\"", l.name()))
            .collect();
        writeln!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"quick\": {}, \"layers\": [{}],",
            plan.workload.name(),
            plan.quick,
            layers.join(", ")
        )?;
        writeln!(
            out,
            "\"columns\": [\"layer\", \"start_ns\", \"end_ns\", \"parent\", \"interval\", \"shadow\"],\n\"spans\": ["
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "[{}, {}, {}, {parent}, {}, {}]{}",
                span.layer as usize,
                span.start_ns,
                span.end_ns,
                span.interval,
                u8::from(span.layer.is_shadow()),
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        // A dropped BufWriter would swallow a write error.
        out.flush()
    }
}

/// The tree, rebuilt from the layers' public parts.
struct Tree {
    /// `feeds[l]` feeds layer `l`; the last feeds the root. Empty on the
    /// sim workload, which has no wire.
    feeds: Vec<Arc<Topic>>,
    /// `consumers[l][j]` reads node `j` of layer `l`'s partitions.
    consumers: Vec<Vec<Consumer>>,
    root_consumer: Option<Consumer>,
    /// `pending[l][j]`: frames appended for node `j` of layer `l` and not
    /// yet polled; the last entry is the root's. The walk polls only
    /// while frames are pending: a poll that finds nothing waits on a
    /// condition variable, which the pipeline spends idle, not working.
    pending: Vec<Vec<usize>>,
    /// `nodes[l][j]`, source side first.
    nodes: Vec<Vec<SamplingNode>>,
    /// `sharded[l]`: layer `l` samples on its worker pool.
    sharded: Vec<bool>,
    root: RootNode,
    /// One shadow sampler per edge node, `None` where the layer does not
    /// sample (native).
    shadows: Vec<Vec<Option<Shadow>>>,
    shadow_window: WindowBuffer<usize>,
    /// How far the root's watermark trails the newest event.
    watermark_lag_ns: u64,
    // Reused buffers: the pipeline's node loops do not allocate per frame
    // either.
    scratch: BytesMut,
    records: Vec<Record>,
    columns: ColumnarBatch,
    batch: Batch,
    counts: Counts,
}

/// A sampler called beside a node's own, on the same decoded frames.
struct Shadow {
    sampler: WhsSampler,
    budget: SamplingBudget,
    rng: StdRng,
    out: ColumnarBatch,
}

/// Counts taken at the same boundaries the spans sit on.
#[derive(Debug, Default)]
struct Counts {
    hop_bytes: Vec<u64>,
    frames: u64,
    sampling_items_in: u64,
    sampling_items_out: u64,
    pool_frames_out: u64,
    root_items_in: u64,
    windows: u64,
    dropped_late: u64,
    counted: f64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        add_each(&mut self.hop_bytes, &other.hop_bytes);
        self.frames += other.frames;
        self.sampling_items_in += other.sampling_items_in;
        self.sampling_items_out += other.sampling_items_out;
        self.pool_frames_out += other.pool_frames_out;
        self.root_items_in += other.root_items_in;
        self.windows += other.windows;
        self.dropped_late += other.dropped_late;
        self.counted += other.counted;
    }
}

impl Tree {
    fn new(topology: &Topology, wire: bool) -> Tree {
        let fractions = topology.stage_fractions();
        let layers = topology.layers();
        let broker = Broker::new();
        let mut feeds = Vec::new();
        let mut consumers = Vec::new();
        let mut root_consumer = None;
        if wire {
            // One partition per upstream sender, node j reads partitions
            // p with p % n == j: the pipeline engine's routing.
            let mut senders = topology.sources();
            for (l, layer) in layers.iter().enumerate() {
                let topic = broker
                    .create_topic(&format!("layer{l}"), senders as u32)
                    .expect("fresh broker");
                consumers.push(
                    (0..layer.nodes)
                        .map(|j| {
                            let partitions: Vec<u32> = (0..senders as u32)
                                .filter(|p| *p as usize % layer.nodes == j)
                                .collect();
                            Consumer::subscribe(
                                Arc::clone(&topic),
                                &partitions,
                                StartOffset::Earliest,
                            )
                        })
                        .collect(),
                );
                feeds.push(topic);
                senders = layer.nodes;
            }
            let topic = broker
                .create_topic("root", senders as u32)
                .expect("fresh broker");
            root_consumer = Some(Consumer::subscribe_all(
                Arc::clone(&topic),
                StartOffset::Earliest,
            ));
            feeds.push(topic);
        }
        let nodes: Vec<Vec<SamplingNode>> = layers
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                (0..layer.nodes)
                    .map(|j| {
                        SamplingNode::with_workers(
                            topology.layer_strategy(l),
                            fractions[l],
                            topology.node_seed(l, j),
                            layer.workers,
                        )
                        .expect("the benchmark's fractions are valid")
                    })
                    .collect()
            })
            .collect();
        let shadows = layers
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                (0..layer.nodes)
                    .map(|j| match topology.layer_strategy(l) {
                        Strategy::Whs { allocation } => Some(Shadow::new(
                            allocation,
                            fractions[l],
                            topology.node_seed(l, j),
                        )),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let root = RootNode::new(RootConfig {
            strategy: topology.root_strategy(),
            fraction: *fractions.last().expect("depth >= 1"),
            overall_fraction: topology.overall_fraction(),
            window: topology.window(),
            queries: QuerySet::new().with(QuerySpec::Sum),
            seed: topology.root_seed(),
            delivery_factor: topology.delivery_factor(),
            allowed_lateness: topology.allowed_lateness(),
        })
        .expect("the benchmark's fractions are valid");
        Tree {
            feeds,
            consumers,
            root_consumer,
            nodes,
            pending: layers
                .iter()
                .map(|layer| vec![0; layer.nodes])
                .chain([vec![0]])
                .collect(),
            sharded: layers.iter().map(|layer| layer.workers > 1).collect(),
            root,
            shadows,
            shadow_window: WindowBuffer::new(TumblingWindow::new(topology.window()))
                .with_allowed_lateness(topology.allowed_lateness()),
            // The pipeline's root trails the clock by twice the network
            // delay.
            watermark_lag_ns: 2 * topology.total_delay().as_nanos() as u64,
            scratch: BytesMut::new(),
            records: Vec::new(),
            columns: ColumnarBatch::new(),
            batch: Batch::new(),
            counts: Counts {
                hop_bytes: vec![0; topology.hops()],
                ..Counts::default()
            },
        }
    }

    fn wire(&self) -> bool {
        !self.feeds.is_empty()
    }

    /// Encodes `frame` and appends it to `hop`'s topic.
    fn send(
        &mut self,
        tracer: &mut Tracer,
        at: At,
        hop: usize,
        partition: u32,
        frame: &ColumnarBatch,
        ts: u64,
    ) {
        let scratch = &mut self.scratch;
        tracer.span(Layer::Encode, at, || encode_columns_into(frame, scratch));
        self.counts.hop_bytes[hop] += scratch.len() as u64;
        self.counts.frames += 1;
        let readers = self.pending[hop].len();
        self.pending[hop][partition as usize % readers] += 1;
        let topic = &self.feeds[hop];
        tracer.span(Layer::Append, at, || {
            topic
                .append_to(
                    partition,
                    ProducerRecord {
                        key: None,
                        value: Bytes::copy_from_slice(scratch),
                        timestamp: ts,
                    },
                )
                .expect("the walk never closes a topic")
        });
    }

    /// Runs node `(l, j)` on `frame`, shadow sampler first; returns the
    /// non-empty frames it forwards.
    fn process(
        &mut self,
        tracer: &mut Tracer,
        at: At,
        l: usize,
        j: usize,
        frame: &mut ColumnarBatch,
    ) -> Vec<ColumnarBatch> {
        if let Some(shadow) = self.shadows[l][j].as_mut() {
            let size = shadow.budget.sample_size(frame.len());
            tracer.span(Layer::Sample, at, || {
                shadow
                    .sampler
                    .sample_columns_into(frame, size, &mut shadow.out, &mut shadow.rng)
            });
            self.counts.sampling_items_in += frame.len() as u64;
            self.counts.sampling_items_out += shadow.out.len() as u64;
        }
        let node = &mut self.nodes[l][j];
        let mut outs = if self.sharded[l] {
            let outs = tracer.span(Layer::Pool, at, || node.process_columns_parallel(frame));
            self.counts.pool_frames_out += outs.len() as u64;
            outs
        } else {
            vec![tracer.span(Layer::Node, at, || node.process_columns_mut(frame))]
        };
        outs.retain(|out| !out.is_empty());
        outs
    }

    /// Hands one frame to the root — decoding it first when it came over
    /// the wire, else `self.batch` already holds it — then files it in
    /// the shadow window buffer.
    fn ingest(&mut self, tracer: &mut Tracer, at: At, frame: Option<&[u8]>) {
        let batch = &mut self.batch;
        let root = &mut self.root;
        let (ts, len) = tracer.span(Layer::RootIngest, at, || {
            if let Some(bytes) = frame {
                decode_batch_any_into(bytes, batch).expect("the walk's own frame");
            }
            let seen = (
                batch.items.first().map_or(0, |item| item.source_ts),
                batch.len(),
            );
            root.ingest_mut(batch);
            seen
        });
        self.counts.root_items_in += len as u64;
        let shadow_window = &mut self.shadow_window;
        tracer.span(Layer::WindowInsert, at, || shadow_window.insert(ts, len));
    }

    /// Carries one interval from the sources to the root.
    fn walk_interval(
        &mut self,
        tracer: &mut Tracer,
        interval: u32,
        sources: &[Batch],
        stamp: Option<u64>,
    ) {
        let parent = tracer.open(
            Layer::Interval,
            At {
                parent: NO_PARENT,
                interval,
            },
        );
        let at = At { parent, interval };
        let newest = stamp.unwrap_or_else(|| {
            sources
                .iter()
                .flat_map(|b| b.items.iter().map(|i| i.source_ts))
                .max()
                .unwrap_or(0)
        });
        if self.wire() {
            self.carry_over_wire(tracer, at, sources, stamp, newest);
        } else {
            self.carry_directly(tracer, at, sources);
        }
        let watermark = newest.saturating_sub(self.watermark_lag_ns);
        let root = &mut self.root;
        let closed = tracer.span(Layer::RootClose, at, || root.advance_watermark(watermark));
        self.count_results(&closed);
        let shadow_window = &mut self.shadow_window;
        tracer.span(Layer::WindowDrain, at, || {
            shadow_window.drain_closed(watermark)
        });
        tracer.close(parent);
    }

    /// The pipeline's path: every hop encodes, appends, polls and decodes.
    fn carry_over_wire(
        &mut self,
        tracer: &mut Tracer,
        at: At,
        sources: &[Batch],
        stamp: Option<u64>,
        newest: u64,
    ) {
        for (s, source) in sources.iter().enumerate() {
            let mut columns = std::mem::take(&mut self.columns);
            columns.fill_from_batch(source);
            if let Some(ts) = stamp {
                // The engine stamps a frame's items as it is pushed.
                columns.source_ts.fill(ts);
            }
            self.send(tracer, at, 0, s as u32, &columns, newest);
            self.columns = columns;
        }
        for l in 0..self.nodes.len() {
            for j in 0..self.nodes[l].len() {
                while self.pending[l][j] > 0 {
                    let mut records = std::mem::take(&mut self.records);
                    let consumer = &mut self.consumers[l][j];
                    let polled = tracer.span(Layer::Poll, at, || {
                        consumer
                            .poll_into(&mut records, POLL_MAX, Duration::ZERO)
                            .expect("the walk never closes a topic")
                    });
                    for record in records.drain(..) {
                        let mut columns = std::mem::take(&mut self.columns);
                        tracer.span(Layer::Decode, at, || {
                            decode_columns_into(&record.value, &mut columns)
                                .expect("the walk's own frame")
                        });
                        for out in self.process(tracer, at, l, j, &mut columns) {
                            self.send(tracer, at, l + 1, j as u32, &out, newest);
                        }
                        self.columns = columns;
                    }
                    self.records = records;
                    self.pending[l][j] -= polled;
                }
            }
        }
        let root_hop = self.nodes.len();
        while self.pending[root_hop][0] > 0 {
            let mut records = std::mem::take(&mut self.records);
            let consumer = self.root_consumer.as_mut().expect("wired root");
            let polled = tracer.span(Layer::Poll, at, || {
                consumer
                    .poll_into(&mut records, POLL_MAX, Duration::ZERO)
                    .expect("the walk never closes a topic")
            });
            for record in records.drain(..) {
                self.ingest(tracer, at, Some(&record.value[..]));
            }
            self.records = records;
            self.pending[root_hop][0] -= polled;
        }
    }

    /// The sim engine's path: frames pass from node to node as they are.
    /// Source `s` feeds node `s % n` of the first layer and child `j` of
    /// a layer feeds node `j % n` of the next, as in the engine. Hops are
    /// billed the v1 frame size the sim engine bills, which only an AoS
    /// batch can be asked for.
    fn carry_directly(&mut self, tracer: &mut Tracer, at: At, sources: &[Batch]) {
        let n0 = self.nodes[0].len();
        let mut carried: Vec<Vec<ColumnarBatch>> = vec![Vec::new(); n0];
        for (s, source) in sources.iter().enumerate() {
            self.counts.hop_bytes[0] += encoded_len(source) as u64;
            let mut columns = ColumnarBatch::from_batch(source);
            let outs = self.process(tracer, at, 0, s % n0, &mut columns);
            carried[s % n0].extend(outs);
        }
        for l in 1..self.nodes.len() {
            let n = self.nodes[l].len();
            let mut next = vec![Vec::new(); n];
            for (child, frames) in carried.into_iter().enumerate() {
                for mut frame in frames {
                    frame.fill_batch(&mut self.batch);
                    self.counts.hop_bytes[l] += encoded_len(&self.batch) as u64;
                    let outs = self.process(tracer, at, l, child % n, &mut frame);
                    next[child % n].extend(outs);
                }
            }
            carried = next;
        }
        let root_hop = self.nodes.len();
        for frame in carried.into_iter().flatten() {
            frame.fill_batch(&mut self.batch);
            self.counts.hop_bytes[root_hop] += encoded_len(&self.batch) as u64;
            self.ingest(tracer, at, None);
        }
    }

    /// Ends the stream: every open window answers.
    fn finish(&mut self, tracer: &mut Tracer, interval: u32) {
        let at = At {
            parent: NO_PARENT,
            interval,
        };
        let root = &mut self.root;
        let closed = tracer.span(Layer::RootClose, at, || root.flush());
        self.count_results(&closed);
        let shadow_window = &mut self.shadow_window;
        tracer.span(Layer::WindowDrain, at, || shadow_window.drain_all());
        self.counts.dropped_late = self.root.dropped_late();
    }

    fn count_results(&mut self, results: &[approxiot_runtime::WindowResult]) {
        self.counts.windows += results.len() as u64;
        self.counts.counted += results.iter().map(|r| r.count_hat).sum::<f64>();
    }
}

impl Shadow {
    fn new(allocation: Allocation, fraction: f64, seed: u64) -> Shadow {
        Shadow {
            sampler: WhsSampler::new(allocation),
            budget: SamplingBudget::new(fraction).expect("the benchmark's fractions are valid"),
            rng: StdRng::seed_from_u64(seed),
            out: ColumnarBatch::new(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match RunArgs::parse(&args).and_then(|run| trace(&run)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("trace: {message}");
            ExitCode::from(2)
        }
    }
}

/// `numerator / denominator`, 0 when the layer was bypassed.
fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// One walk's outcome.
struct Walk {
    tracer: Tracer,
    counts: Counts,
    node_items_in: Vec<u64>,
    node_items_out: Vec<u64>,
    /// Seconds the walk took, shadow spans left out.
    wall_s: f64,
    /// Process CPU seconds over the walk, shadow spans left out (they run
    /// on the walking thread, where wall time is CPU time).
    cpu_s: f64,
}

/// Walks `reps` repetitions of the plan's intervals, each through a
/// fresh tree seeded like the engine's repetition.
fn walk(plan: &Plan, input: &Input, seed: u64, reps: usize) -> Walk {
    // Spans per interval: the interval, two per source frame, and per
    // edge frame a decode, a shadow sample, a process and, per shard
    // output, an encode and an append, plus polls and the root's; 200
    // per worker shard covers the 8-4-2-1 tree.
    let workers = if plan.workload == Workload::WhsShardedDrain {
        2
    } else {
        1
    };
    let mut tracer = Tracer::new(reps * plan.intervals * 200 * workers);
    // Pipeline frames are stamped as they are pushed: the paced run
    // pushes an interval every 4 ms, a drain a repetition in about a
    // second.
    let step_ns = match plan.workload {
        Workload::SimAccuracy => None,
        Workload::WhsPaced => Some(PACED_EVERY.as_nanos() as u64),
        _ => Some(1_000_000_000 / plan.intervals as u64),
    };
    let mut counts = Counts::default();
    let mut node_items_in = Vec::new();
    let mut node_items_out = Vec::new();
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    for rep in 0..reps {
        let topology = workloads::topology(plan.workload, seed.wrapping_add(rep as u64));
        let mut tree = Tree::new(&topology, plan.workload.is_pipeline());
        for i in 0..plan.intervals {
            let interval = (rep * plan.intervals + i) as u32;
            let stamp = step_ns.map(|step| 1 + i as u64 * step);
            tree.walk_interval(&mut tracer, interval, input.interval(i), stamp);
        }
        // The flush belongs to no interval; it carries the last one's id.
        tree.finish(&mut tracer, ((rep + 1) * plan.intervals - 1) as u32);
        counts.add(&tree.counts);
        let per_layer = |count: fn(&SamplingNode) -> u64| {
            tree.nodes
                .iter()
                .map(|layer| layer.iter().map(count).sum::<u64>())
                .collect::<Vec<_>>()
        };
        add_each(&mut node_items_in, &per_layer(SamplingNode::items_in));
        add_each(&mut node_items_out, &per_layer(SamplingNode::items_out));
    }
    let shadow_s = tracer.shadow_ns() as f64 / 1e9;
    Walk {
        wall_s: started.elapsed().as_secs_f64() - shadow_s,
        cpu_s: procfs::cpu_seconds() - cpu_before - shadow_s,
        tracer,
        counts,
        node_items_in,
        node_items_out,
    }
}

/// `total[i] += part[i]`, growing `total` to `part`'s length.
fn add_each(total: &mut Vec<u64>, part: &[u64]) {
    total.resize(total.len().max(part.len()), 0);
    for (t, p) in total.iter_mut().zip(part) {
        *t += p;
    }
}

fn trace(run: &RunArgs) -> Result<bool, String> {
    let plan = run.plan();
    // The untraced engine run the walk is checked against and compared
    // with: same input, same intervals per repetition, fewer repetitions.
    let reference_plan = Plan {
        reps: match plan.workload {
            Workload::SimAccuracy => plan.reps.min(20),
            _ => plan.reps.min(3),
        },
        setups: plan.setups.min(2),
        ..plan
    };
    // One repetition of a pipeline workload is a second of walking; the
    // sim's is 40 ms, too short to time, so the walk does them all.
    let walk_reps = match plan.workload {
        Workload::SimAccuracy => reference_plan.reps,
        _ => 1,
    };
    println!(
        "workload {}  seed {}  engine reference: {} repetitions of {} intervals; walk: 1 warm-up + {walk_reps} traced{}",
        plan.workload.name(),
        run.seed,
        reference_plan.reps,
        plan.intervals,
        if plan.quick { "  QUICK SIZES: NOT COMPARABLE" } else { "" }
    );
    let engine = measure::run(&reference_plan, run.seed);
    let input = workloads::generate(&plan, run.seed);
    // The first walk touches the partition logs' pages for the first
    // time; only the second is kept.
    drop(walk(&plan, &input, run.seed, 1));
    let walked = walk(&plan, &input, run.seed, walk_reps);

    let mut failures = engine.failures.clone();
    let items = plan.items_per_rep() * walk_reps as u64;
    // Bytes per repetition do not depend on the topology seed.
    let engine_hop_bytes: Vec<u64> = engine
        .hop_bytes
        .iter()
        .map(|bytes| bytes / reference_plan.reps as u64 * walk_reps as u64)
        .collect();
    if walked.counts.hop_bytes != engine_hop_bytes {
        failures.push(format!(
            "walk hop bytes {:?} differ from the engine's {:?}",
            walked.counts.hop_bytes, engine_hop_bytes
        ));
    }
    let lost = (items as f64 - walked.counts.counted).abs();
    if lost > 1e-9 * items as f64 {
        failures.push(format!(
            "walk Σ count_hat = {}, {items} items were pushed",
            walked.counts.counted
        ));
    }
    if walked.counts.dropped_late > 0 {
        failures.push(format!(
            "the walk's root dropped {} items as late",
            walked.counts.dropped_late
        ));
    }

    let metrics = per_layer_metrics(&plan, &engine, &walked, items as f64);
    print_metrics(&metrics);
    let tracer = &walked.tracer;
    let interval_ns = tracer.total_ns(Layer::Interval);
    let child_ns: u64 = Layer::ALL
        .into_iter()
        .filter(|l| *l != Layer::Interval)
        .map(|l| tracer.total_ns(l))
        .sum();
    println!(
        "walk {:.3} s, {} spans; interval self time (walk glue) {:.1} % of the interval spans",
        walked.wall_s,
        tracer.spans.len(),
        100.0
            * per(
                interval_ns.saturating_sub(child_ns) as f64,
                interval_ns as f64
            )
    );
    for layer in Layer::ALL {
        println!(
            "  {:<24} {:>10} calls {:>14} ns{}",
            layer.name(),
            tracer.calls(layer),
            tracer.total_ns(layer),
            if layer.is_shadow() { "  (shadow)" } else { "" }
        );
    }
    let dir = if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    let path = std::path::Path::new(dir).join(format!("trace-{}.json", plan.workload.name()));
    tracer
        .write(&path, &plan, run.seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    for failure in &failures {
        println!("FAILED CHECK: {failure}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            items,
            lost.ceil() as u64 + walked.counts.dropped_late,
            &metrics
        )
    );
    Ok(correct)
}

/// The per-layer metrics, in [`PER_LAYER`]'s order; `items` is what the
/// walk pushed.
fn per_layer_metrics(plan: &Plan, engine: &Raw, walked: &Walk, items: f64) -> Vec<Metric> {
    let tracer = &walked.tracer;
    let counts = &walked.counts;
    let ns = |layer: Layer| tracer.total_ns(layer) as f64;
    let calls = |layer: Layer| tracer.calls(layer) as f64;
    let reps = engine.rep_wall_s.len() as f64;
    let pipeline = plan.workload.is_pipeline();

    // Items the codec moved: every frame is encoded once and decoded
    // once, the root's decode being part of its ingest.
    let encoded_items = if pipeline {
        items + walked.node_items_out.iter().sum::<u64>() as f64
    } else {
        0.0
    };
    let decoded_items = if pipeline {
        walked.node_items_in.iter().sum::<u64>() as f64
    } else {
        0.0
    };
    let sharded = plan.workload == Workload::WhsShardedDrain;
    let node_items_in = walked.node_items_in.iter().sum::<u64>() as f64;
    let wire_bytes: u64 = if pipeline {
        counts.hop_bytes.iter().sum()
    } else {
        0
    };
    let hop = |h: usize| {
        if pipeline {
            counts.hop_bytes.get(h).copied().unwrap_or(0) as f64
        } else {
            0.0
        }
    };

    let engine_items = engine.items as f64;
    let engine_throughput = median(
        &engine
            .rep_wall_s
            .iter()
            .map(|wall| plan.items_per_rep() as f64 / wall)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let engine_cpu_per_item = per(engine.cpu_s, engine_items);
    let walk_items_per_s = per(items, walked.wall_s);
    let push_ns_per_item = per(engine.rep_push_s.iter().sum::<f64>() * 1e9, engine_items);
    let finish_s = median(&engine.rep_finish_s).unwrap_or(0.0);
    let gen_late_p99 = percentiles(&mut engine.gen_late_ms.clone(), 99.0);

    let one = 1.0;
    let frames = counts.frames as f64;
    let windows = counts.windows as f64;
    let sampled_in = counts.sampling_items_in as f64;
    let sampled_out = counts.sampling_items_out as f64;
    // (name, value, samples behind it), in `PER_LAYER`'s order.
    let rows = [
        (
            "mq.codec.encode_ns_per_item",
            per(ns(Layer::Encode), encoded_items),
            calls(Layer::Encode),
        ),
        (
            "mq.codec.decode_ns_per_item",
            per(ns(Layer::Decode), decoded_items),
            calls(Layer::Decode),
        ),
        (
            "mq.log.append_ns_per_frame",
            per(ns(Layer::Append), calls(Layer::Append)),
            calls(Layer::Append),
        ),
        (
            "mq.consumer.poll_ns_per_frame",
            per(ns(Layer::Poll), frames),
            calls(Layer::Poll),
        ),
        ("mq.frames", frames, one),
        ("mq.bytes_per_frame", per(wire_bytes as f64, frames), frames),
        ("mq.hop0_bytes", hop(0), one),
        ("mq.hop1_bytes", hop(1), one),
        ("mq.hop2_bytes", hop(2), one),
        (
            "core.sampling.sample_ns_per_item",
            per(ns(Layer::Sample), sampled_in),
            calls(Layer::Sample),
        ),
        ("core.sampling.items_in", sampled_in, one),
        ("core.sampling.items_out", sampled_out, one),
        (
            "core.sampling.keep_ratio",
            per(sampled_out, sampled_in),
            one,
        ),
        (
            "runtime.node.process_ns_per_item",
            per(ns(Layer::Node), if sharded { 0.0 } else { node_items_in }),
            calls(Layer::Node),
        ),
        (
            "runtime.node.l0_items_out",
            walked.node_items_out[0] as f64,
            one,
        ),
        (
            "runtime.node.l1_items_out",
            walked.node_items_out[1] as f64,
            one,
        ),
        (
            "runtime.pool.process_ns_per_item",
            per(ns(Layer::Pool), if sharded { node_items_in } else { 0.0 }),
            calls(Layer::Pool),
        ),
        (
            "runtime.pool.frames_out",
            counts.pool_frames_out as f64,
            one,
        ),
        (
            "runtime.root.ingest_ns_per_item",
            per(ns(Layer::RootIngest), counts.root_items_in as f64),
            calls(Layer::RootIngest),
        ),
        (
            "runtime.root.close_ns_per_window",
            per(ns(Layer::RootClose), windows),
            calls(Layer::RootClose),
        ),
        ("runtime.root.windows", windows, one),
        ("runtime.root.dropped_late", counts.dropped_late as f64, one),
        (
            "streams.window.insert_ns_per_frame",
            per(ns(Layer::WindowInsert), calls(Layer::WindowInsert)),
            calls(Layer::WindowInsert),
        ),
        (
            "streams.window.drain_ns_per_window",
            per(ns(Layer::WindowDrain), windows),
            calls(Layer::WindowDrain),
        ),
        (
            "runtime.engine.sim_push_ns_per_item",
            if pipeline { 0.0 } else { push_ns_per_item },
            reps,
        ),
        (
            "runtime.engine.sim_finish_ns_per_window",
            if pipeline {
                0.0
            } else {
                per(finish_s * 1e9, plan.intervals as f64)
            },
            reps,
        ),
        (
            "runtime.pipeline.push_ns_per_item",
            if pipeline { push_ns_per_item } else { 0.0 },
            reps,
        ),
        (
            "runtime.pipeline.finish_wait_s",
            if pipeline { finish_s } else { 0.0 },
            reps,
        ),
        ("runtime.pipeline.walk_items_per_s", walk_items_per_s, one),
        (
            "runtime.pipeline.parallel_speedup",
            per(engine_throughput, walk_items_per_s),
            reps,
        ),
        (
            // CPU that is not layer work: clone-and-stamp, locks, wake-ups.
            "runtime.pipeline.coordination_share",
            1.0 - per(per(walked.cpu_s, items), engine_cpu_per_item),
            reps,
        ),
        (
            "workload.generate_ns_per_item",
            median(&engine.generate_ns_per_item).unwrap_or(0.0),
            engine.generate_ns_per_item.len() as f64,
        ),
        (
            "workload.gen_late_p99_ms",
            gen_late_p99.map_or(0.0, |p| p.tail),
            engine.gen_late_ms.len() as f64,
        ),
    ];
    rows.iter()
        .zip(PER_LAYER)
        .map(|((name, value, samples), (listed, unit))| {
            assert_eq!(*name, listed, "PER_LAYER lists the metrics in this order");
            Metric::new(listed, unit, *value, *samples as u64)
        })
        .collect()
}
