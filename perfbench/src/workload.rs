//! The three workloads: their shape, how a deployment is built for them,
//! and one repetition of set-up, warm-up and measured window.
//!
//! Every workload is a closed loop in simulated time driven by one thread:
//! tick n+1's inputs are generated only after `run_tick(n)` returned, at
//! the program's 20 Hz simulated rate, without pacing in host time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use servo::core::{
    FaasTerrainBackend, HybridDeployment, ServoConfig, ServoDeployment, SharedScPlatform,
    SpeculationConfig, SpeculationHandle, SpeculationStats, SpeculativeScBackend,
    TerrainOffloadHandle,
};
use servo::faas::{AutoscalerConfig, FaasPlatform, PlatformStats};
use servo::pcg::{DefaultGenerator, FlatGenerator, TerrainGenerator};
use servo::redstone::generators;
use servo::replication::{
    FanoutConfig, FanoutStats, HubConfig, Interest, ReplicationConfig, ReplicationStats,
    SubscriberId,
};
use servo::server::cluster::{border_construct_sites, place_across_east_seam};
use servo::server::{
    ClusterStats, GameServer, PersistenceBinding, ServerConfig, ServerStats, ShardedGameCluster,
    ZonePersistenceStats,
};
use servo::simkit::SimRng;
use servo::storage::BlobStore;
use servo::types::{BlockPos, ChunkPos, PlayerId, SimDuration};
use servo::workload::{BehaviorKind, KeySkew, PlayerEvent, PlayerFleet};
use servo::world::{ShardMap, WorldKind};

use crate::stats::percentile;
use crate::trace::{self, Layer, Span, TimedChunks, TimedGenerator, TimedSc, NO_TICK};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Constructs,
    Terrain,
    Replication,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Constructs,
        Workload::Terrain,
        Workload::Replication,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Constructs => "constructs",
            Workload::Terrain => "terrain",
            Workload::Replication => "replication",
        }
    }

    /// The workload's inputs, apart from the seed.
    pub fn shape(self) -> Shape {
        let constructs = Shape {
            zones: 4,
            view_distance: 32,
            world: WorldKind::Flat,
            loop_detection: false,
            players: 60,
            behavior: BehaviorKind::Bounded { radius: 24.0 },
            constructs: 160,
            edits_per_tick: 2,
            subscribers: 0,
            warmup_ticks: 160,
            measure_ticks: 1000,
        };
        match self {
            Workload::Constructs => constructs,
            Workload::Terrain => Shape {
                zones: 1,
                view_distance: 96,
                world: WorldKind::Default,
                players: 16,
                behavior: BehaviorKind::Star { speed: 4.0 },
                constructs: 0,
                edits_per_tick: 0,
                warmup_ticks: 200,
                ..constructs
            },
            Workload::Replication => Shape {
                loop_detection: true,
                subscribers: 5_000,
                ..constructs
            },
        }
    }
}

/// What a workload runs: the deployment, its constructs, its load.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub zones: usize,
    pub view_distance: i32,
    pub world: WorldKind,
    pub loop_detection: bool,
    pub players: usize,
    pub behavior: BehaviorKind,
    /// Seam-spanning `wire_line(CONSTRUCT_WIRES)` constructs.
    pub constructs: usize,
    /// Spawn-area block edits injected per tick.
    pub edits_per_tick: usize,
    /// Replication subscribers; zero leaves replication detached.
    pub subscribers: usize,
    pub warmup_ticks: u64,
    pub measure_ticks: u64,
}

/// Blocks of wire per seam construct.
const CONSTRUCT_WIRES: usize = 14;

/// Interest radius of the replication subscribers (a 5x5 chunk view).
const RADIUS: i32 = 2;
/// Round-robin flush cohorts of the replication hub.
const COHORTS: u64 = 8;
/// Zipf exponent of the subscribers' interest centres.
const ZIPF_EXPONENT: f64 = 1.1;
/// Share of subscribers that retargets each tick.
const RETARGET_FRACTION: f64 = 2e-4;
/// Seconds of simulated time per tick at the program's 20 Hz rate.
const TICK_SECONDS: f64 = 0.05;

/// A built deployment plus the handles its statistics are read from.
pub struct Rig {
    pub cluster: ShardedGameCluster,
    pub speculation: Vec<SpeculationHandle>,
    pub terrain: Vec<TerrainOffloadHandle>,
}

fn config(shape: &Shape, seed: u64) -> ServoConfig {
    ServoConfig {
        server: ServerConfig::servo_base()
            .with_view_distance(shape.view_distance)
            .with_world_kind(shape.world),
        speculation: speculation(shape),
        seed,
        ..ServoConfig::default()
    }
}

fn speculation(shape: &Shape) -> SpeculationConfig {
    SpeculationConfig {
        loop_detection: shape.loop_detection,
        ..SpeculationConfig::default()
    }
}

/// The product path: `ServoDeployment::builder().hybrid(n)`.
fn build_untraced(shape: &Shape, seed: u64) -> Rig {
    let HybridDeployment {
        cluster,
        speculation,
        terrain,
        ..
    } = ServoDeployment::builder()
        .seed(seed)
        .view_distance(shape.view_distance)
        .world_kind(shape.world)
        .speculation(speculation(shape))
        .hybrid(shape.zones);
    Rig {
        cluster,
        speculation,
        terrain,
    }
}

/// The same deployment assembled by hand from the public constructors
/// `HybridDeployment::from_config` uses, with the construct backend, the
/// terrain service and the generator wrapped in timing adapters.
fn build_traced(shape: &Shape, seed: u64) -> Rig {
    let config = config(shape, seed);
    let zones = shape.zones;
    let root = SimRng::seed(config.seed);
    let sc_platform: SharedScPlatform = Arc::new(Mutex::new(FaasPlatform::with_platform_config(
        config.sc_function.clone(),
        config.sc_platform,
        root.substream("sc-faas"),
    )));
    let zone_rng = |zone: usize| {
        if zones == 1 {
            root.clone()
        } else {
            root.substream_indexed("zone", zone as u64)
        }
    };
    let mut speculation = Vec::with_capacity(zones);
    let mut terrain = Vec::with_capacity(zones);
    let mut cluster = ShardedGameCluster::new(zones, |zone| {
        let rng = zone_rng(zone);
        let sc_backend = SpeculativeScBackend::over(config.speculation, Arc::clone(&sc_platform));
        speculation.push(sc_backend.handle());
        let generator: Box<dyn TerrainGenerator> = match config.server.world_kind {
            WorldKind::Flat => Box::new(FlatGenerator::default()),
            WorldKind::Default => Box::new(DefaultGenerator::new(config.seed)),
        };
        let generation_platform = FaasPlatform::with_platform_config(
            config.generation_function.clone(),
            config.generation_platform,
            rng.substream("generation-faas"),
        );
        let terrain_backend =
            FaasTerrainBackend::new(Box::new(TimedGenerator(generator)), generation_platform);
        terrain.push(terrain_backend.handle());
        GameServer::new(
            config.server.clone(),
            Box::new(TimedSc(sc_backend)),
            Box::new(TimedChunks(Box::new(terrain_backend))),
            rng.substream("server"),
        )
    })
    .with_border_exchange(config.border_exchange);
    let persistence = config
        .persistence
        .as_ref()
        .expect("the default configuration persists terrain");
    for zone in 0..zones {
        let rng = zone_rng(zone);
        let binding = PersistenceBinding::new(
            BlobStore::new(persistence.tier, rng.substream("persistence-blob")),
            rng.substream("persistence-disk"),
        )
        .write_back_interval(persistence.write_back_interval);
        cluster.bind_persistence(zone, binding);
    }
    Rig {
        cluster,
        speculation,
        terrain,
    }
}

/// The deterministic spawn-area edit stream (the one `ablation_border`
/// and `ablation_replication` drive).
struct EditStream {
    rng: SimRng,
    per_tick: usize,
    players: usize,
}

impl EditStream {
    fn next_events(&mut self, out: &mut Vec<(PlayerId, PlayerEvent)>) {
        for _ in 0..self.per_tick {
            let x = (self.rng.unit() * 81.0) as i32 - 40;
            let z = (self.rng.unit() * 81.0) as i32 - 40;
            let pos = BlockPos::new(x, 9, z);
            let event = if self.rng.unit() < 0.5 {
                PlayerEvent::BlockPlaced(pos)
            } else {
                PlayerEvent::BlockBroken(pos)
            };
            let player = ((self.rng.unit() * self.players as f64) as usize).min(self.players - 1);
            out.push((PlayerId::new(player as u64), event));
        }
    }
}

/// The load generator: everything the driver computes between calls into
/// the program.
struct Load {
    fleet: PlayerFleet,
    edits: EditStream,
    skew: KeySkew,
    targets: Vec<ChunkPos>,
    clients: Vec<SubscriberId>,
    movers_per_tick: usize,
    mover_rng: SimRng,
}

/// One tick's generated inputs.
struct Inputs {
    moves: Vec<(SubscriberId, ChunkPos)>,
    events: Vec<(PlayerId, PlayerEvent)>,
    positions: Vec<BlockPos>,
}

impl Load {
    fn next(&mut self, cluster: &ShardedGameCluster, budget: SimDuration) -> Inputs {
        let mut moves = Vec::with_capacity(self.movers_per_tick);
        if !self.clients.is_empty() {
            for _ in 0..self.movers_per_tick {
                let pick = (self.mover_rng.unit() * self.clients.len() as f64) as usize;
                let who = self.clients[pick % self.clients.len()];
                moves.push((who, self.targets[self.skew.sample()]));
            }
        }
        let mut events = self.fleet.tick(cluster.now(), budget);
        self.edits.next_events(&mut events);
        let positions = self.fleet.positions();
        Inputs {
            moves,
            events,
            positions,
        }
    }
}

/// Interest-centre universe of the subscribers: the spawn edit hot-spot
/// first (the zipf head), then the border construct sites.
fn interest_targets(map: &ShardMap, constructs: usize) -> Vec<ChunkPos> {
    let mut targets = Vec::new();
    for x in -3..3 {
        for z in -3..3 {
            targets.push(ChunkPos::new(x, z));
        }
    }
    if map.zones() > 1 {
        targets.extend(border_construct_sites(map, constructs));
    }
    targets
}

/// Lifetime counters read before and after the measured window.
struct Snapshot {
    cluster: ClusterStats,
    server: ServerStats,
    speculation: SpeculationStats,
    sc_platform: PlatformStats,
    /// Per zone: generation invocations issued so far.
    terrain_latency_counts: Vec<usize>,
    /// Chunks the generation functions delivered, one generator call each.
    terrain_chunks: u64,
    generation_platform: Vec<PlatformStats>,
    replication: ReplicationStats,
    fanout: FanoutStats,
}

impl Snapshot {
    fn take(rig: &Rig) -> Snapshot {
        let mut speculation = SpeculationStats::default();
        for handle in &rig.speculation {
            speculation.merge(&handle.stats());
        }
        Snapshot {
            cluster: rig.cluster.stats(),
            server: rig.cluster.server_stats_total(),
            speculation,
            sc_platform: rig.speculation[0].platform_stats(),
            terrain_latency_counts: rig
                .terrain
                .iter()
                .map(|t| t.stats().latencies.len())
                .collect(),
            terrain_chunks: rig.terrain.iter().map(|t| t.stats().chunks_delivered).sum(),
            generation_platform: rig.terrain.iter().map(|t| t.platform_stats()).collect(),
            replication: rig.cluster.replication_stats().unwrap_or_default(),
            fanout: rig.cluster.fanout_stats().unwrap_or_default(),
        }
    }
}

/// The outcome of one repetition.
pub struct Rep {
    /// The seed the repetition's inputs and world were made from.
    pub seed: u64,
    /// Host seconds spent in calls into the program before the measured
    /// window: build, construct placement, subscription, warm-up.
    pub setup_s: f64,
    /// Host microseconds of program calls per measured tick
    /// (`retarget_client` calls plus `run_tick`).
    pub tick_us: Vec<f64>,
    /// Simulated metrics of the measured window; identical for identical
    /// seeds.
    pub sim: BTreeMap<&'static str, f64>,
    /// Hash of `sim` and the window's critical paths.
    pub digest: u64,
    /// Persistence counters after the final flush. They depend on the OS
    /// schedule of the pipeline's worker threads (a known defect), so they
    /// stay out of `sim` and `digest`.
    pub storage: ZonePersistenceStats,
    /// Measured ticks that failed a per-tick correctness check. A tick over
    /// the simulated budget is a modelled QoS outcome (`qos_miss_share`),
    /// not a failed operation.
    pub failed_ticks: u64,
    /// Every failed correctness check, described.
    pub failures: Vec<String>,
    /// Spans of a traced repetition (empty otherwise).
    pub spans: Vec<Span>,
    /// Tick indices of the measured window, as the spans carry them.
    pub window: std::ops::Range<i64>,
}

impl Rep {
    /// The persistence counters by metric name.
    pub fn storage_counters(&self) -> [(&'static str, u64); 3] {
        let s = self.storage;
        [
            ("storage.write_back_passes", s.write_back_passes),
            ("storage.chunks_flushed", s.chunks_flushed),
            ("storage.prefetch_arrivals", s.prefetch_arrivals),
        ]
    }

    pub fn ticks_per_s(&self) -> f64 {
        self.tick_us.len() as f64 / (self.tick_us.iter().sum::<f64>() / 1e6)
    }
}

/// Runs one repetition: build, place, subscribe, warm up, measure, flush.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Rep {
    let shape = workload.shape();
    if traced {
        trace::start();
    }
    let mut failures = Vec::new();

    let started = Instant::now();
    let mut rig = if traced {
        build_traced(&shape, seed)
    } else {
        build_untraced(&shape, seed)
    };
    if shape.constructs > 0 {
        let map = rig.cluster.shard_map().clone();
        let blueprint = generators::wire_line(CONSTRUCT_WIRES);
        for site in border_construct_sites(&map, shape.constructs) {
            rig.cluster
                .add_construct(place_across_east_seam(&blueprint, site, 6));
        }
    }
    let mut setup = started.elapsed().as_secs_f64();

    let root = SimRng::seed(seed);
    let targets = interest_targets(rig.cluster.shard_map(), shape.constructs);
    let mut load = Load {
        fleet: PlayerFleet::new(shape.behavior, SimRng::seed(seed ^ 0x5eed)),
        edits: EditStream {
            rng: root.substream("terrain-edits"),
            per_tick: shape.edits_per_tick,
            players: shape.players,
        },
        skew: KeySkew::zipf(
            targets.len(),
            ZIPF_EXPONENT,
            root.substream("interest-skew"),
        ),
        targets,
        clients: Vec::with_capacity(shape.subscribers),
        movers_per_tick: (shape.subscribers as f64 * RETARGET_FRACTION).round() as usize,
        mover_rng: root.substream("movers"),
    };
    load.fleet.connect_all(shape.players);

    if shape.subscribers > 0 {
        let started = Instant::now();
        rig.cluster.enable_replication(ReplicationConfig {
            hub: HubConfig::default(),
            fanout: fanout_config(),
            cohorts: COHORTS,
            border_via_subscription: false,
        });
        setup += started.elapsed().as_secs_f64();
        setup += subscribe(&mut rig.cluster, &mut load, shape.subscribers);
    }

    let budget = rig.cluster.servers()[0].config().tick_budget();
    for tick in 0..shape.warmup_ticks {
        trace::set_tick(tick as i64);
        setup += step(&mut rig.cluster, &mut load, budget) / 1e6;
    }
    let started = Instant::now();
    rig.cluster.discard_ticks();
    setup += started.elapsed().as_secs_f64();

    let before = Snapshot::take(&rig);
    let measured = shape.warmup_ticks..shape.warmup_ticks + shape.measure_ticks;
    let mut tick_us = Vec::with_capacity(shape.measure_ticks as usize);
    let (mut qos_misses, mut failed_ticks) = (0u64, 0u64);
    let mut fanout = before.fanout;
    let mut peak_workers = 0u64;
    for tick in measured {
        trace::set_tick(tick as i64);
        tick_us.push(step(&mut rig.cluster, &mut load, budget));
        let now = rig.cluster.fanout_stats().unwrap_or_default();
        peak_workers = peak_workers.max(fanout_workers(&fanout, &now));
        fanout = now;
        let checked = check_tick(&rig.cluster, load.fleet.connected_players());
        let missed = rig
            .cluster
            .ticks()
            .last()
            .is_some_and(|t| t.tick.critical_path > budget);
        qos_misses += missed as u64;
        if let Err(failure) = checked {
            failed_ticks += 1;
            failures.push(format!("tick {tick}: {failure}"));
        }
    }
    let after = Snapshot::take(&rig);

    trace::set_tick(NO_TICK);
    trace::span(Layer::Flush, || rig.cluster.flush_persistence());
    let again = rig.cluster.flush_persistence();
    if again != 0 {
        failures.push(format!(
            "a second flush_persistence wrote {again} chunks, expected 0"
        ));
    }
    let repl = after.replication;
    if repl.frames != repl.keyframes + repl.delta_frames {
        failures.push(format!(
            "frames {} != keyframes {} + delta frames {}",
            repl.frames, repl.keyframes, repl.delta_frames
        ));
    }
    if repl.bytes_sent != repl.keyframe_bytes + repl.delta_bytes {
        failures.push(format!(
            "bytes sent {} != keyframe bytes {} + delta bytes {}",
            repl.bytes_sent, repl.keyframe_bytes, repl.delta_bytes
        ));
    }

    let (sim, digest) = sim_metrics(&rig, &shape, &before, &after, qos_misses, peak_workers);
    let window = shape.warmup_ticks as i64..(shape.warmup_ticks + shape.measure_ticks) as i64;
    let spans = if traced { trace::finish() } else { Vec::new() };
    let generated = trace::self_times(&spans, window.clone())[Layer::Generate as usize].calls;
    let delivered = after.terrain_chunks - before.terrain_chunks;
    if traced && generated != delivered {
        failures.push(format!(
            "traced generator ran {generated} times in the window, the backend delivered \
             {delivered} chunks"
        ));
    }
    failures.truncate(20);
    Rep {
        seed,
        setup_s: setup,
        tick_us,
        sim,
        digest,
        storage: rig.cluster.persistence_stats_total(),
        failed_ticks,
        failures,
        spans,
        window,
    }
}

/// Subscribes the replication clients, zipf-skewed over the interest
/// targets. Returns the host seconds of the `subscribe_client` calls.
fn subscribe(cluster: &mut ShardedGameCluster, load: &mut Load, subscribers: usize) -> f64 {
    let mut seconds = 0.0;
    for _ in 0..subscribers {
        let center = load.targets[load.skew.sample()];
        let started = Instant::now();
        let id = trace::span(Layer::Subscribe, || {
            cluster.subscribe_client(Interest::new(center, RADIUS))
        });
        seconds += started.elapsed().as_secs_f64();
        load.clients
            .push(id.expect("replication is attached before subscribing"));
    }
    seconds
}

/// The replication fan-out stage of the `replication` workload.
fn fanout_config() -> FanoutConfig {
    FanoutConfig {
        scaler: AutoscalerConfig::elastic(4, 64).with_backlog_per_worker(1024),
        ..FanoutConfig::default()
    }
}

/// Ready fan-out workers of the tick between two stage snapshots, 0 when
/// it charged nothing. The stage charges `bytes x encode_ms_per_mb +
/// frames x dispatch_ms_per_frame / workers` per tick, and its
/// `peak_workers` counter is a lifetime maximum set by the keyframe wave of
/// set-up, so the window's worker count is recovered from the charge.
fn fanout_workers(before: &FanoutStats, after: &FanoutStats) -> u64 {
    let config = fanout_config();
    let frames = (after.frames - before.frames) as f64;
    let encode = (after.bytes - before.bytes) as f64 / (1024.0 * 1024.0) * config.encode_ms_per_mb;
    let dispatch = after.charged_ms - before.charged_ms - encode;
    if frames == 0.0 || dispatch <= 0.0 {
        return 0;
    }
    (frames * config.dispatch_ms_per_frame / dispatch).round() as u64
}

/// Generates one tick's inputs, then applies them: retargets, then
/// `run_tick`. Returns the host microseconds of the calls into the program;
/// the generator's own time shows only in traced runs, as
/// `workload.generate`.
fn step(cluster: &mut ShardedGameCluster, load: &mut Load, budget: SimDuration) -> f64 {
    let inputs = trace::span(Layer::Workload, || load.next(cluster, budget));
    let started = Instant::now();
    for &(who, center) in &inputs.moves {
        trace::span(Layer::Retarget, || cluster.retarget_client(who, center));
    }
    trace::span(Layer::RunTick, || {
        cluster.run_tick(&inputs.positions, &inputs.events)
    });
    started.elapsed().as_secs_f64() * 1e6
}

/// The per-tick invariants of the last recorded tick.
fn check_tick(cluster: &ShardedGameCluster, fleet_size: usize) -> Result<(), String> {
    let detail = cluster
        .ticks()
        .last()
        .ok_or_else(|| "no tick recorded".to_string())?;
    let players: usize = detail.zones.iter().map(|z| z.players).sum();
    if players != fleet_size {
        return Err(format!(
            "zones simulated {players} avatars, fleet has {fleet_size}"
        ));
    }
    // The cluster is as slow as its slowest zone: the critical path is the
    // largest zone duration plus coordination, neither under- nor
    // over-counted.
    let slowest = detail
        .zones
        .iter()
        .map(|zone| zone.duration + zone.coordination)
        .max()
        .unwrap_or(SimDuration::ZERO);
    if detail.tick.critical_path != slowest {
        return Err(format!(
            "critical path {:?} differs from the slowest zone's duration + coordination {:?}",
            detail.tick.critical_path, slowest
        ));
    }
    Ok(())
}

fn per_tick(delta: u64, ticks: f64) -> f64 {
    delta as f64 / ticks
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The simulated metrics of the measured window, and their digest.
fn sim_metrics(
    rig: &Rig,
    shape: &Shape,
    before: &Snapshot,
    after: &Snapshot,
    qos_misses: u64,
    peak_workers: u64,
) -> (BTreeMap<&'static str, f64>, u64) {
    let cluster = &rig.cluster;
    let ticks = shape.measure_ticks as f64;
    let critical: Vec<f64> = cluster
        .critical_path_durations()
        .iter()
        .map(|d| d.as_millis_f64())
        .collect();
    let coordination: Vec<f64> = cluster
        .ticks()
        .iter()
        .map(|t| {
            t.zones
                .iter()
                .map(|z| z.coordination.as_millis_f64())
                .fold(0.0, f64::max)
        })
        .collect();
    // A tick's view range is the worst zone's.
    let view = shape.view_distance as f64;
    let servers = cluster.servers();
    let short_ticks = (0..servers[0].reports().len())
        .filter(|&i| {
            servers.iter().any(|s| {
                s.reports()
                    .get(i)
                    .is_some_and(|r| r.view_range_blocks < view)
            })
        })
        .count() as u64;
    let mut terrain_latencies: Vec<f64> = Vec::new();
    for (handle, &from) in rig.terrain.iter().zip(&before.terrain_latency_counts) {
        terrain_latencies.extend(
            handle.stats().latencies[from..]
                .iter()
                .map(|d| d.as_millis_f64()),
        );
    }
    let (c0, c1) = (&before.cluster, &after.cluster);
    let (s0, s1) = (&before.speculation, &after.speculation);
    let (r0, r1) = (&before.replication, &after.replication);
    let platform_delta = |f: fn(&PlatformStats) -> f64| {
        let gen: f64 = after
            .generation_platform
            .iter()
            .zip(&before.generation_platform)
            .map(|(a, b)| f(a) - f(b))
            .sum();
        gen + f(&after.sc_platform) - f(&before.sc_platform)
    };
    let applied = s1.speculative_applied - s0.speculative_applied;
    let served =
        applied + (s1.loop_replayed - s0.loop_replayed) + (s1.local_fallback - s0.local_fallback);
    let frames = r1.frames - r0.frames;
    let chunks = r1.chunks_delivered - r0.chunks_delivered;
    // The bill since the deployment started: loop-replayed constructs and
    // an explored-out flat world invoke nothing inside the window, but the
    // deployment still paid for reaching that state. The SC platform is
    // shared, so every zone's handle reads the same cluster-level meter.
    let cost = rig.speculation[0].billing().total_cost_usd()
        + rig
            .terrain
            .iter()
            .map(|t| t.billing().total_cost_usd())
            .sum::<f64>();
    let billed_hours = cluster.now().as_secs_f64() / 3600.0;

    let mut sim = BTreeMap::new();
    sim.insert("sim_tick_p50_ms", percentile(&critical, 50.0));
    sim.insert("sim_tick_p95_ms", percentile(&critical, 95.0));
    sim.insert("sim_tick_p99_ms", percentile(&critical, 99.0));
    sim.insert("qos_miss_share", share(qos_misses, critical.len() as u64));
    sim.insert("cost_usd_per_sim_h", cost / billed_hours);
    sim.insert(
        "client_kb_per_tick",
        (r1.bytes_sent - r0.bytes_sent) as f64 / 1024.0 / ticks,
    );
    sim.insert(
        "view_deficit_share",
        share(short_ticks, critical.len() as u64),
    );
    sim.insert(
        "cluster.msgs_per_tick",
        per_tick(c1.cross_server_messages - c0.cross_server_messages, ticks),
    );
    sim.insert(
        "cluster.handoffs_per_tick",
        per_tick(c1.handoffs - c0.handoffs, ticks),
    );
    sim.insert(
        "cluster.border_events_per_tick",
        per_tick(
            c1.forwarded_border_events - c0.forwarded_border_events,
            ticks,
        ),
    );
    sim.insert(
        "cluster.exchange_bundles_per_tick",
        per_tick(c1.batched_bundles - c0.batched_bundles, ticks),
    );
    sim.insert(
        "cluster.coordination_ms_p99",
        percentile(&coordination, 99.0),
    );
    sim.insert(
        "spec.invocations_per_min",
        (s1.invocations - s0.invocations) as f64 / (ticks * TICK_SECONDS / 60.0),
    );
    sim.insert("spec.applied_share", share(applied, served));
    sim.insert(
        "spec.discarded_stale",
        (s1.discarded_stale - s0.discarded_stale) as f64,
    );
    sim.insert("faas.cold_starts", platform_delta(|p| p.cold_starts as f64));
    sim.insert("faas.rejected", platform_delta(|p| p.rejected as f64));
    sim.insert("faas.queue_wait_ms", platform_delta(|p| p.queue_wait_ms));
    sim.insert(
        "terrain.invocations_per_tick",
        terrain_latencies.len() as f64 / ticks,
    );
    sim.insert(
        "terrain.latency_p99_ms",
        percentile(&terrain_latencies, 99.0),
    );
    sim.insert(
        "pcg.generate_calls",
        per_tick(after.terrain_chunks - before.terrain_chunks, ticks),
    );
    sim.insert(
        "server.chunks_loaded_per_tick",
        per_tick(
            after.server.chunks_loaded - before.server.chunks_loaded,
            ticks,
        ),
    );
    sim.insert("repl.frames_per_tick", per_tick(frames, ticks));
    sim.insert(
        "repl.keyframes_per_tick",
        per_tick(r1.keyframes - r0.keyframes, ticks),
    );
    sim.insert(
        "repl.keyframe_share",
        share(r1.keyframes - r0.keyframes, frames),
    );
    sim.insert("repl.chunks_per_tick", per_tick(chunks, ticks));
    sim.insert(
        "repl.coalesced_share",
        share(r1.coalesced_chunks - r0.coalesced_chunks, chunks),
    );
    sim.insert(
        "repl.keyframe_kb_per_tick",
        (r1.keyframe_bytes - r0.keyframe_bytes) as f64 / 1024.0 / ticks,
    );
    sim.insert(
        "repl.delta_kb_per_tick",
        (r1.delta_bytes - r0.delta_bytes) as f64 / 1024.0 / ticks,
    );
    sim.insert(
        "fanout.charged_ms_per_tick",
        (after.fanout.charged_ms - before.fanout.charged_ms) / ticks,
    );
    sim.insert("fanout.peak_workers", peak_workers as f64);

    let mut digest = Fnv::new();
    for (name, value) in &sim {
        digest.write(name.as_bytes());
        digest.write(&value.to_bits().to_le_bytes());
    }
    for d in cluster.critical_path_durations() {
        digest.write(&d.as_micros().to_le_bytes());
    }
    (sim, digest.0)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
