//! Host-cost and simulated-QoS benchmark of the Servo reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload constructs --seed 17 --seconds 40 --trace 0
//! ```
//!
//! One invocation repeats one workload (set-up, warm-up, measured window,
//! flush) while the next repetition fits in `--seconds` of host time, which
//! is `run_seconds` of BENCHMARK.json and has no default; `--workload all`
//! runs every workload in turn. Each repetition builds its world and inputs
//! from the next seed of a sequence that starts at `--seed`. With
//! `--trace 0` it reports the end-to-end metrics of the untraced product
//! deployment over at least two such seeds, and runs the first seed once
//! more to check that it repeats; with `--trace 1` it runs untraced +
//! traced pairs on one seed each, at least one pair, and reports the
//! per-layer metrics and the tracing overhead. Metrics on the `host` axis
//! are measured by timing the benchmark's own calls into the program, and
//! read over the seeds' repetitions; metrics on the `sim` axis are read
//! from the simulator's modelled output for the first seed, `--seed`
//! itself, and repeat exactly for it. The last line of standard output is
//! one JSON object; the process exits with 1 when a correctness check
//! failed.

mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, percentile};
use trace::Layer;
use workload::{Rep, Workload};

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// Modelled by the simulator; repeats exactly for one seed.
    Sim,
    /// Measured host cost of running the simulator.
    Host,
}

/// One reported metric: name, unit, axis, whether higher is better.
struct Metric {
    name: &'static str,
    unit: &'static str,
    axis: Axis,
    higher_is_better: bool,
}

const fn metric(name: &'static str, unit: &'static str, axis: Axis, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        axis,
        higher_is_better: higher,
    }
}

use Axis::{Host, Sim};

/// The end-to-end metrics (`--trace 0`), reported for every workload.
const END_TO_END: &[Metric] = &[
    metric("host_ticks_per_s", "1/s", Host, true),
    metric("host_tick_p50_us", "us", Host, false),
    metric("host_tick_p995_us", "us", Host, false),
    metric("setup_s", "s", Host, false),
    metric("peak_rss_mb", "MB", Host, false),
    metric("sim_tick_p50_ms", "sim_ms", Sim, false),
    metric("sim_tick_p95_ms", "sim_ms", Sim, false),
    metric("cost_usd_per_sim_h", "USD/sim_h", Sim, false),
];

/// The per-layer metrics (`--trace 1`). Layer host times are self times
/// from the traced repetitions; counts are per measured tick unless the
/// unit says otherwise. Every host time is of a layer each workload calls,
/// so none reads a constant 0.
const PER_LAYER: &[Metric] = &[
    metric("sim_tick_p99_ms", "sim_ms", Sim, false),
    metric("qos_miss_share", "share", Sim, false),
    metric("client_kb_per_tick", "KB/tick", Sim, false),
    metric("view_deficit_share", "share", Sim, false),
    metric("cluster.run_tick_self_us", "us/tick", Host, false),
    metric("core.sc_backend_us", "us/tick", Host, false),
    metric("core.terrain_service_us", "us/tick", Host, false),
    metric("pcg.generate_us", "us/call", Host, false),
    metric("pcg.generate_calls", "count/tick", Sim, false),
    metric("replication.subscribe_share", "share", Host, false),
    metric("replication.retarget_share", "share", Host, false),
    metric("storage.flush_us", "us", Host, false),
    metric("workload.generate_us", "us/tick", Host, false),
    metric("trace.host_ticks_per_s", "1/s", Host, true),
    metric("trace.overhead_share", "share", Host, false),
    metric("cluster.msgs_per_tick", "count/tick", Sim, false),
    metric("cluster.handoffs_per_tick", "count/tick", Sim, false),
    metric("cluster.border_events_per_tick", "count/tick", Sim, false),
    metric(
        "cluster.exchange_bundles_per_tick",
        "count/tick",
        Sim,
        false,
    ),
    metric("cluster.coordination_ms_p99", "sim_ms", Sim, false),
    metric("spec.invocations_per_min", "count/sim_min", Sim, false),
    metric("spec.applied_share", "share", Sim, true),
    metric("spec.discarded_stale", "count", Sim, false),
    metric("faas.cold_starts", "count", Sim, false),
    metric("faas.rejected", "count", Sim, false),
    metric("faas.queue_wait_ms", "sim_ms", Sim, false),
    metric("terrain.invocations_per_tick", "count/tick", Sim, false),
    metric("terrain.latency_p99_ms", "sim_ms", Sim, false),
    metric("server.chunks_loaded_per_tick", "count/tick", Sim, true),
    metric("repl.frames_per_tick", "count/tick", Sim, false),
    metric("repl.keyframes_per_tick", "count/tick", Sim, false),
    metric("repl.keyframe_share", "share", Sim, false),
    metric("repl.chunks_per_tick", "count/tick", Sim, false),
    metric("repl.coalesced_share", "share", Sim, true),
    metric("repl.keyframe_kb_per_tick", "KB/tick", Sim, false),
    metric("repl.delta_kb_per_tick", "KB/tick", Sim, false),
    metric("fanout.charged_ms_per_tick", "sim_ms/tick", Sim, false),
    metric("fanout.peak_workers", "count", Sim, false),
    metric("storage.write_back_passes", "count", Sim, false),
    metric("storage.chunks_flushed", "count", Sim, false),
    metric("storage.prefetch_arrivals", "count", Sim, false),
    metric("storage.schedule_drift", "count", Sim, false),
];

/// Why each workload exists; printed with its results.
fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::Constructs => {
            "SC offload, border exchange, write-back: 4 zones, 160 seam constructs, loop \
             detection off; replication and pcg idle"
        }
        Workload::Terrain => {
            "pcg and FaaS terrain generation, chunk integration: 1 zone, view 96, 16 star \
             explorers; constructs and replication idle"
        }
        Workload::Replication => {
            "replication hub and fan-out: constructs world, loop detection on, 5000 zipf \
             subscribers; SC layer idle"
        }
    }
}

/// Input seeds per `--trace 0` invocation, at least; with the rerun of the
/// first, three repetitions of `replication`, the slowest workload, take
/// about 22 s on a 2-vCPU VM.
const MIN_REPS: usize = 2;
/// Untraced + traced pairs per `--trace 1` invocation, at least.
const MIN_PAIRS: usize = 1;

struct Args {
    /// One workload, or all of them in turn for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    /// Host seconds to spend, `run_seconds` of BENCHMARK.json.
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workloads: vec![Workload::Constructs],
            seed: 17,
            seconds: 0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
                "--workload" => {
                    args.workloads = vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                }
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if args.seconds == 0 {
            return Err("--seconds is required and positive".to_string());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <constructs|terrain|replication|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for &workload in &args.workloads {
        correct &= report(workload, &args);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload and prints its report, the JSON object last. Returns
/// whether every correctness check passed.
fn report(workload: Workload, args: &Args) -> bool {
    let reps = repeat(workload, args);
    let (untraced, traced) = (&reps.untraced, &reps.traced);
    let mut failures: Vec<String> = reps
        .all()
        .flat_map(|rep| rep.failures.iter().cloned())
        .collect();
    // A repetition of an input seed already run must give its sim digest.
    for (i, rep) in reps.all().enumerate() {
        let first = reps
            .all()
            .find(|r| r.seed == rep.seed)
            .expect("rep is in reps");
        if rep.digest != first.digest {
            failures.push(format!(
                "repetition {i} (seed {}) sim digest {:016x} differs from {:016x}",
                rep.seed, rep.digest, first.digest
            ));
        }
    }
    let digest = untraced[0].digest;
    let attempted: usize = reps.all().map(|r| r.tick_us.len()).sum();
    let failed: u64 = reps.all().map(|r| r.failed_ticks).sum();

    let (catalogue, values) = if args.trace {
        (PER_LAYER, per_layer(untraced, traced))
    } else {
        (END_TO_END, end_to_end(untraced))
    };

    println!(
        "perfbench {} seed {}: {} untraced + {} traced + {} rerun repetitions x {} measured \
         ticks, one input seed per untraced repetition; closed loop at 20 Hz simulated, 1 \
         driver thread, program parallelism 1",
        workload.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        reps.rerun.len(),
        untraced[0].tick_us.len(),
    );
    println!("why: {}", why(workload));
    println!(
        "{:<36} {:>16}  {:<14} {:<5} better",
        "metric", "value", "unit", "axis"
    );
    for m in catalogue {
        println!(
            "{:<36} {:>16.4}  {:<14} {:<5} {}",
            m.name,
            values[m.name],
            m.unit,
            match m.axis {
                Sim => "sim",
                Host => "host",
            },
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        );
    }
    if !args.trace {
        let sim = &untraced[0].sim;
        for name in [
            "sim_tick_p99_ms",
            "qos_miss_share",
            "client_kb_per_tick",
            "view_deficit_share",
        ] {
            println!("{name:<36} {:>16.4}  (sim; per-layer table)", sim[name]);
        }
    }
    let first_seed: Vec<&Rep> = reps.all().filter(|r| r.seed == args.seed).collect();
    for j in 0..untraced[0].storage_counters().len() {
        let v: Vec<u64> = first_seed
            .iter()
            .map(|r| r.storage_counters()[j].1)
            .collect();
        println!(
            "{:<36} {}..{} over {} repetitions of seed {} (depends on the OS schedule, a \
             known defect; kept out of the digest)",
            untraced[0].storage_counters()[j].0,
            v.iter().min().expect("at least one repetition"),
            v.iter().max().expect("at least one repetition"),
            v.len(),
            args.seed
        );
    }
    if let Some(last) = traced.last() {
        println!(
            "tracing overhead {:.4}: traced {:.1} ticks/s against untraced {:.1} ticks/s",
            values["trace.overhead_share"],
            values["trace.host_ticks_per_s"],
            median(&untraced.iter().map(Rep::ticks_per_s).collect::<Vec<_>>()),
        );
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.spans.csv", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|_| trace::write_csv(&last.spans, &path)) {
            Ok(()) => println!("spans of the last traced repetition: {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }
    println!("sim digest {digest:016x}");
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }

    let correct = failures.is_empty();
    let mut json = String::from("{");
    json.push_str(&format!(
        "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    ));
    for (i, m) in catalogue.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, values[m.name], m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    correct
}

/// The seed of a run's `i`-th input: `--seed` itself first, then
/// splitmix64 steps from it. Each repetition builds its world from another
/// seed, so the host metrics, read over the repetitions, cover several
/// worlds instead of hanging on one, and one `--seed` gives one sequence.
fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The repetitions of one invocation.
struct Reps {
    /// Untraced repetitions, one per input seed; the metrics come from them.
    untraced: Vec<Rep>,
    /// With `--trace 1`: a traced repetition of each untraced one's seed.
    traced: Vec<Rep>,
    /// With `--trace 0`: the first input run again, to check that its sim
    /// digest repeats. It is in no median.
    rerun: Vec<Rep>,
}

impl Reps {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.untraced.iter().chain(&self.traced).chain(&self.rerun)
    }
}

/// Runs repetitions while the next one fits the time budget: untraced
/// ones, or untraced + traced pairs, each on the next input seed.
fn repeat(workload: Workload, args: &Args) -> Reps {
    let budget = Duration::from_secs(args.seconds);
    let least = if args.trace { MIN_PAIRS } else { MIN_REPS };
    let started = Instant::now();
    let mut reps = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
        rerun: Vec::new(),
    };
    loop {
        let seed = input_seed(args.seed, reps.untraced.len());
        reps.untraced.push(workload::run(workload, seed, false));
        if args.trace {
            reps.traced.push(workload::run(workload, seed, true));
        } else if reps.rerun.is_empty() {
            reps.rerun.push(workload::run(workload, seed, false));
        }
        let units = reps.untraced.len() + reps.rerun.len();
        let per_unit = started.elapsed() / units as u32;
        if reps.untraced.len() >= least && started.elapsed() + per_unit > budget {
            return reps;
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where among the repetitions, fastest first, the per-tick host timings
/// are read: the least contended tenth. Other tenants of a shared host
/// slow it in phases of 10–60 s, and contention only ever adds time, so the
/// fast tail of the repetitions measures the program's own cost. On one set
/// of ten runs where the phases alternated within runs, the median over
/// repetitions spread 0.29 on `terrain`'s p99.5 and this 0.04.
const FAST_PERCENTILE: f64 = 10.0;

fn end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    // Over repetitions, so neither a burst of interference during one
    // repetition nor one input seed's world sets a metric. Sim metrics are
    // the first seed's, which repeat exactly.
    let over =
        |p: f64, f: &dyn Fn(&Rep) -> f64| percentile(&reps.iter().map(f).collect::<Vec<_>>(), p);
    let sim = &reps[0].sim;
    BTreeMap::from([
        (
            "host_ticks_per_s",
            over(100.0 - FAST_PERCENTILE, &Rep::ticks_per_s),
        ),
        (
            "host_tick_p50_us",
            over(FAST_PERCENTILE, &|r| percentile(&r.tick_us, 50.0)),
        ),
        // p99.5, not p99: write-back runs on 1 tick in 20 and a heavier
        // pass on exactly 1 tick in 100, so p95 and p99 both sit on the
        // knee between two tick populations and jump between them.
        (
            "host_tick_p995_us",
            over(FAST_PERCENTILE, &|r| percentile(&r.tick_us, 99.5)),
        ),
        // Set-up time is the median over repetitions.
        ("setup_s", over(50.0, &|r| r.setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_tick_p50_ms", sim["sim_tick_p50_ms"]),
        ("sim_tick_p95_ms", sim["sim_tick_p95_ms"]),
        ("cost_usd_per_sim_h", sim["cost_usd_per_sim_h"]),
    ])
}

fn per_layer(untraced: &[Rep], traced: &[Rep]) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, f64> = untraced[0].sim.clone();
    let ticks = traced[0].tick_us.len() as f64;
    // Per traced repetition: self times inside the measured window, and
    // outside any tick (subscription during set-up, the final flush).
    let window: Vec<_> = traced
        .iter()
        .map(|r| trace::self_times(&r.spans, r.window.clone()))
        .collect();
    let outside: Vec<_> = traced
        .iter()
        .map(|r| trace::self_times(&r.spans, trace::NO_TICK..trace::NO_TICK + 1))
        .collect();
    let median_of =
        |f: &dyn Fn(usize) -> f64| median(&(0..traced.len()).map(f).collect::<Vec<_>>());
    for (name, layer) in [
        ("cluster.run_tick_self_us", Layer::RunTick),
        ("core.sc_backend_us", Layer::ScBackend),
        ("core.terrain_service_us", Layer::TerrainService),
        ("workload.generate_us", Layer::Workload),
    ] {
        values.insert(
            name,
            median_of(&|i| window[i][layer as usize].ns as f64 / 1e3 / ticks),
        );
    }
    // Per call over the whole repetition: the warm-up generates terrain on
    // every workload, while the window may generate none.
    values.insert(
        "pcg.generate_us",
        median_of(&|i| {
            let all = trace::self_times(&traced[i].spans, i64::MIN..i64::MAX);
            let generate = all[Layer::Generate as usize];
            generate.ns as f64 / 1e3 / generate.calls.max(1) as f64
        }),
    );
    // Shares of the program's host time, which read 0 where the layer is
    // idle: subscription of set-up, retargets of the measured ticks.
    values.insert(
        "replication.subscribe_share",
        median_of(&|i| outside[i][Layer::Subscribe as usize].ns as f64 / 1e9 / traced[i].setup_s),
    );
    values.insert(
        "replication.retarget_share",
        median_of(&|i| {
            window[i][Layer::Retarget as usize].ns as f64
                / 1e3
                / traced[i].tick_us.iter().sum::<f64>()
        }),
    );
    values.insert(
        "storage.flush_us",
        median_of(&|i| outside[i][Layer::Flush as usize].ns as f64 / 1e3),
    );

    let rate = |reps: &[Rep]| median(&reps.iter().map(Rep::ticks_per_s).collect::<Vec<_>>());
    values.insert("trace.host_ticks_per_s", rate(traced));
    values.insert("trace.overhead_share", rate(untraced) / rate(traced) - 1.0);

    // The range of each counter over the untraced and traced repetition of
    // one input seed, summed over counters; the largest over the seeds.
    let mut drift = 0u64;
    for (u, t) in untraced.iter().zip(traced) {
        drift = drift.max(
            u.storage_counters()
                .iter()
                .zip(t.storage_counters())
                .map(|(a, b)| a.1.abs_diff(b.1))
                .sum(),
        );
    }
    let reps: Vec<&Rep> = untraced.iter().chain(traced).collect();
    for j in 0..reps[0].storage_counters().len() {
        let name = reps[0].storage_counters()[j].0;
        let v: Vec<f64> = reps
            .iter()
            .map(|r| r.storage_counters()[j].1 as f64)
            .collect();
        values.insert(name, median(&v));
    }
    values.insert("storage.schedule_drift", drift as f64);
    values
}
