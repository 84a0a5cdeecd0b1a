//! The traced run's span recorder and the timing adapters it wires into the
//! deployment in place of the plain backends.
//!
//! Spans are kept in memory and handed back by [`finish`]. Every span
//! records its layer, the tick it belongs to, its start and end on one
//! monotonic clock, and the span that was open when it started. The
//! recorder keeps one stack of open spans, so it assumes every call arrives
//! on the driver thread: the benchmark runs the program at its default
//! `parallelism = 1`, where the game loop resolves constructs sequentially
//! and never takes the partitioned path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use servo::pcg::{GenerationCost, TerrainGenerator};
use servo::redstone::Construct;
use servo::server::{
    PartitionedResolver, PublishedSequence, ResolutionPlan, ScBackend, ScResolution,
};
use servo::storage::{ChunkCompletion, ChunkRequest, ChunkService, ShardDelta, Ticket};
use servo::types::{ChunkPos, ConstructId, SimTime, Tick};
use servo::world::Chunk;

/// A layer boundary the benchmark records spans at. The metric names of
/// the per-layer table derive from [`Layer::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `ShardedGameCluster::run_tick`.
    RunTick,
    /// Every `ScBackend` method of a zone's speculative backend.
    ScBackend,
    /// Every `ChunkService` method of a zone's terrain backend.
    TerrainService,
    /// `TerrainGenerator::generate`.
    Generate,
    /// `ShardedGameCluster::subscribe_client`.
    Subscribe,
    /// `ShardedGameCluster::retarget_client`.
    Retarget,
    /// `ShardedGameCluster::flush_persistence`.
    Flush,
    /// The load generator: fleet step, edit stream, skew sampling.
    Workload,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::RunTick,
        Layer::ScBackend,
        Layer::TerrainService,
        Layer::Generate,
        Layer::Subscribe,
        Layer::Retarget,
        Layer::Flush,
        Layer::Workload,
    ];

    /// `crate.entry_point` of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::RunTick => "cluster.run_tick",
            Layer::ScBackend => "core.sc_backend",
            Layer::TerrainService => "core.terrain_service",
            Layer::Generate => "pcg.generate",
            Layer::Subscribe => "replication.subscribe",
            Layer::Retarget => "replication.retarget",
            Layer::Flush => "storage.flush",
            Layer::Workload => "workload.generate",
        }
    }
}

/// Tick index of spans that belong to no tick (set-up and the final flush).
pub const NO_TICK: i64 = -1;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub tick: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    tick: i64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
/// Set while a recorder is active, so untraced runs skip the lock. It
/// publishes nothing else (the recorder itself sits behind the mutex).
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn recorder() -> MutexGuard<'static, Option<Recorder>> {
    RECORDER
        .lock()
        .expect("the span recorder is never held across a panic")
}

/// Starts recording; spans opened before this call are not kept.
pub fn start() {
    *recorder() = Some(Recorder {
        origin: Instant::now(),
        tick: NO_TICK,
        spans: Vec::new(),
        open: Vec::new(),
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Stops recording and returns every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    ACTIVE.store(false, Ordering::Relaxed);
    recorder().take().map(|r| r.spans).unwrap_or_default()
}

/// Tags the spans opened from now on with `tick`.
pub fn set_tick(tick: i64) {
    if let Some(r) = recorder().as_mut() {
        r.tick = tick;
    }
}

/// Runs `f` inside a span of `layer`. Without an active recorder this is a
/// plain call.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ACTIVE.load(Ordering::Relaxed) {
        return f();
    }
    let id = enter(layer);
    let out = f();
    exit(id);
    out
}

fn enter(layer: Layer) -> Option<u32> {
    let mut guard = recorder();
    let r = guard.as_mut()?;
    let id = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans per run");
    let now = r.origin.elapsed().as_nanos() as u64;
    let parent = r.open.last().copied();
    r.spans.push(Span {
        layer,
        tick: r.tick,
        start_ns: now,
        end_ns: now,
        parent,
    });
    r.open.push(id);
    Some(id)
}

fn exit(id: Option<u32>) {
    let Some(id) = id else { return };
    let mut guard = recorder();
    let Some(r) = guard.as_mut() else { return };
    r.spans[id as usize].end_ns = r.origin.elapsed().as_nanos() as u64;
    let popped = r.open.pop();
    debug_assert_eq!(popped, Some(id), "spans close in stack order");
}

/// What the spans of one layer add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Summed self time: each span's duration minus its direct children's.
    pub ns: u64,
    pub calls: u64,
}

/// Per-layer totals, indexed by `Layer as usize`, of the spans whose tick
/// lies in `ticks`.
pub fn self_times(spans: &[Span], ticks: std::ops::Range<i64>) -> [LayerTotal; Layer::ALL.len()] {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    let mut totals = [LayerTotal::default(); Layer::ALL.len()];
    for (span, children) in spans.iter().zip(&child_ns) {
        if ticks.contains(&span.tick) {
            let total = &mut totals[span.layer as usize];
            total.ns += span.duration_ns().saturating_sub(*children);
            total.calls += 1;
        }
    }
    totals
}

/// Writes spans as CSV: `layer,tick,start_ns,end_ns,parent`.
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer,tick,start_ns,end_ns,parent")?;
    for span in spans {
        let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{},{},{},{},{}",
            span.layer.name(),
            span.tick,
            span.start_ns,
            span.end_ns,
            parent
        )?;
    }
    out.flush()
}

/// Times every method of a construct backend as `core.sc_backend`.
pub struct TimedSc<B>(pub B);

impl<B: ScBackend + Sync> ScBackend for TimedSc<B> {
    fn resolve(
        &mut self,
        id: ConstructId,
        construct: &mut Construct,
        tick: Tick,
        now: SimTime,
    ) -> ScResolution {
        span(Layer::ScBackend, || {
            self.0.resolve(id, construct, tick, now)
        })
    }

    fn plan(&mut self, tick: Tick) -> ResolutionPlan {
        span(Layer::ScBackend, || self.0.plan(tick))
    }

    fn partitioned(&self) -> Option<&dyn PartitionedResolver> {
        self.0
            .partitioned()
            .map(|_| self as &dyn PartitionedResolver)
    }

    fn reconcile(&mut self, tick: Tick, now: SimTime) {
        span(Layer::ScBackend, || self.0.reconcile(tick, now))
    }

    fn release(&mut self, id: ConstructId) {
        span(Layer::ScBackend, || self.0.release(id))
    }

    fn published_sequence(&self, id: ConstructId) -> Option<PublishedSequence> {
        span(Layer::ScBackend, || self.0.published_sequence(id))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<B: ScBackend + Sync> PartitionedResolver for TimedSc<B> {
    fn resolve_partitioned(
        &self,
        id: ConstructId,
        shard: usize,
        construct: &mut Construct,
        tick: Tick,
        now: SimTime,
    ) -> ScResolution {
        let inner = self
            .0
            .partitioned()
            .expect("partitioned() only returns Some when the inner backend does");
        span(Layer::ScBackend, || {
            inner.resolve_partitioned(id, shard, construct, tick, now)
        })
    }
}

/// Times every method of a terrain chunk service as `core.terrain_service`.
pub struct TimedChunks(pub Box<dyn ChunkService>);

impl ChunkService for TimedChunks {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        span(Layer::TerrainService, || self.0.submit(request))
    }

    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion> {
        span(Layer::TerrainService, || self.0.poll(now))
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        span(Layer::TerrainService, || self.0.drain_dirty())
    }

    fn stage_dirty(&mut self, deltas: Vec<ShardDelta>) {
        span(Layer::TerrainService, || self.0.stage_dirty(deltas))
    }

    fn recover(&mut self, shard: usize) -> Vec<ShardDelta> {
        span(Layer::TerrainService, || self.0.recover(shard))
    }

    fn pending(&self) -> usize {
        span(Layer::TerrainService, || self.0.pending())
    }

    fn busy_local_workers(&self, now: SimTime) -> usize {
        span(Layer::TerrainService, || self.0.busy_local_workers(now))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Times chunk generation as `pcg.generate`.
pub struct TimedGenerator(pub Box<dyn TerrainGenerator>);

impl TerrainGenerator for TimedGenerator {
    fn generate(&self, pos: ChunkPos) -> Chunk {
        span(Layer::Generate, || self.0.generate(pos))
    }

    fn cost(&self) -> GenerationCost {
        self.0.cost()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
