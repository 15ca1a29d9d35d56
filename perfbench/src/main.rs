//! The repository benchmark: simulated sensor frames through the RedEye
//! executor, batch and fleet engines, every frame digest-checked.
//!
//! ```text
//! redeye-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--spans <file>] [--git <rev>]
//! redeye-perfbench --emit-digests --seed <n>
//! ```
//!
//! Workloads, metrics and checks are described in `METRICS.md`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Every other line is a human-readable report.

mod check;
mod layers;
mod trace;

use check::{median, quantile};
use redeye_core::{
    analyze_cost, compile, verify, BatchExecutor, CompileOptions, CostBounds, DeviceScratch,
    DeviceWork, Executor, FleetEngine, FleetExecutor, FleetOptions, FrameCtx, FrameEngine, Program,
    VerifyPolicy, WeightBank,
};
use redeye_nn::{build_network, zoo, WeightInit};
use redeye_sim::{fleet_workload, WorkloadOptions};
use redeye_tensor::{Rng, Tensor};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

type Res<T> = Result<T, Box<dyn Error>>;

/// Frames in one D-workload cycle: four scenes in each of the three
/// capture kinds (continuous, low-light, privacy), interleaved.
const CYCLE: usize = 12;
/// Frames per `d1_batch_2w` batch: half a cycle, so a 10 s run times a
/// few dozen batches.
const BATCH: usize = CYCLE / 2;
/// Fleet size of `fleet_micro_2w`: devices × frames per device.
const FLEET_DEVICES: u64 = 1024;
const FLEET_FRAMES: usize = 3;
/// Noise seed of every engine and the fleet's device population. The
/// workload seed only shapes the input scenes.
const NOISE_SEED: u64 = 0x5eed_f00d;
/// The whole set-up runs at least `MIN_SETUPS` times, and again until
/// `SETUP_BUDGET_S` seconds are spent (at most `MAX_SETUPS`); `setup_s` is
/// the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.5;
/// Repetitions per kernel timing in the traced run.
const KERNEL_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    D3Serial,
    D1Stream2t,
    D1Batch2w,
    FleetMicro2w,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::D3Serial,
        Workload::D1Stream2t,
        Workload::D1Batch2w,
        Workload::FleetMicro2w,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::D3Serial => "d3_serial",
            Workload::D1Stream2t => "d1_stream_2t",
            Workload::D1Batch2w => "d1_batch_2w",
            Workload::FleetMicro2w => "fleet_micro_2w",
        }
    }

    /// Committed digest set the workload's frames are checked against.
    fn digest_set(self) -> &'static str {
        match self {
            Workload::D3Serial => "d3",
            Workload::D1Stream2t | Workload::D1Batch2w => "d1",
            Workload::FleetMicro2w => "fleet",
        }
    }

    /// Analog and GEMM threads of the workload's frame engine.
    fn threads(self) -> usize {
        match self {
            Workload::D1Stream2t => 2,
            _ => 1,
        }
    }

    fn is_fleet(self) -> bool {
        self == Workload::FleetMicro2w
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    git: String,
    emit_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::D3Serial,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        git: "unknown".into(),
        emit_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-digests" {
            args.emit_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or(format!("unknown workload `{value}`"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--spans" => args.spans = Some(value),
            "--git" => args.git = value,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// How the workload's frames are executed.
enum Runner {
    /// One `FrameEngine`, one context, one frame at a time.
    Serial(FrameEngine, FrameCtx),
    /// One `Executor`; the cumulative forced-decision count seen so far.
    Stream(Executor, u64),
    /// One `BatchExecutor`; the cumulative forced-decision count seen so far.
    Batch(BatchExecutor, u64),
    Fleet(FleetExecutor),
}

struct Setup {
    program: Program,
    /// The D-workload frame cycle (empty for the fleet).
    inputs: Vec<Tensor>,
    /// The fleet's device work (D workloads: the three capture kinds).
    work: Vec<DeviceWork>,
    runner: Runner,
    seconds: f64,
}

fn timed_span<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> T {
    let s = tr.begin(name, None);
    let out = f();
    tr.end(s);
    out
}

/// Builds the workload from scratch: inputs, network, program, engine, and
/// one warm frame.
fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> Res<Setup> {
    let start = Instant::now();
    let span = tr.begin("setup", None);
    let (dims, devices, frames) = if w.is_fleet() {
        ([3, 32, 32], FLEET_DEVICES, FLEET_FRAMES)
    } else {
        ([3, 227, 227], 3, CYCLE / 3)
    };
    let (work, inputs) = timed_span(tr, "inputs.synth", || -> Res<_> {
        let opts = WorkloadOptions {
            devices,
            frames_per_device: frames,
            seed,
            ..WorkloadOptions::default()
        };
        let work = fleet_workload(&dims, &opts)?;
        let inputs: Vec<Tensor> = if w.is_fleet() {
            Vec::new()
        } else {
            (0..CYCLE)
                .map(|k| (*work[k % 3].frames[k / 3]).clone())
                .collect()
        };
        Ok((work, inputs))
    })?;
    let (prefix, mut bank) = timed_span(tr, "nn.build", || -> Res<_> {
        let (spec, cut, weight_seed) = match w {
            Workload::D3Serial => (zoo::googlenet(), "pool3", 41),
            Workload::D1Stream2t | Workload::D1Batch2w => (zoo::googlenet(), "norm1", 41),
            Workload::FleetMicro2w => (zoo::micronet(4, 32), "pool1", 17),
        };
        let prefix = spec.prefix_through(cut).ok_or("cut layer exists")?;
        let mut net = build_network(
            &prefix,
            WeightInit::HeNormal,
            &mut Rng::seed_from(weight_seed),
        )?;
        let bank = WeightBank::from_network(&mut net);
        Ok((prefix, bank))
    })?;
    let program = timed_span(tr, "compile", || {
        let opts = CompileOptions {
            verify: VerifyPolicy::Skip,
            ..CompileOptions::default()
        };
        compile(&prefix, &mut bank, &opts)
    })?;
    let report = timed_span(tr, "verify", || verify(&program));
    if report.has_errors() {
        return Err(format!("workload program fails verification: {report:?}").into());
    }
    let mut runner = timed_span(tr, "engine.pack", || -> Res<Runner> {
        let p = program.clone();
        Ok(match w {
            Workload::D3Serial => Runner::Serial(FrameEngine::new(p, NOISE_SEED), FrameCtx::new()),
            Workload::D1Stream2t => {
                let mut exec = Executor::new(p, NOISE_SEED);
                exec.set_threads(w.threads());
                Runner::Stream(exec, 0)
            }
            Workload::D1Batch2w => Runner::Batch(BatchExecutor::new(p, NOISE_SEED, 2)?, 0),
            Workload::FleetMicro2w => Runner::Fleet(FleetExecutor::with_options(
                FleetEngine::new(p, NOISE_SEED)?,
                FleetOptions {
                    workers: 2,
                    ..FleetOptions::default()
                },
            )),
        })
    })?;
    timed_span(tr, "engine.warm_frame", || -> Res<()> {
        match &mut runner {
            Runner::Serial(engine, ctx) => {
                engine.run_frame(0, &inputs[0], ctx)?;
            }
            Runner::Stream(exec, seen) => {
                exec.seek_frame(0);
                *seen = exec.execute(&inputs[0])?.forced_decisions;
            }
            Runner::Batch(exec, seen) => {
                exec.seek_frame(0);
                let b = exec.execute_batch(&inputs[..2])?;
                *seen = b.frames.last().map_or(0, |f| f.forced_decisions);
            }
            Runner::Fleet(exec) => {
                exec.run(&work[..2])?;
            }
        }
        Ok(())
    })?;
    tr.end(span);
    Ok(Setup {
        program,
        inputs,
        work,
        runner,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// One checked output of a timed call: a frame of a D workload, or a whole
/// fleet run.
#[derive(Debug, Clone)]
struct Rec {
    /// Cycle index of the frame (0 for a fleet run).
    key: usize,
    digest: u64,
    /// Frame ledger equals the static cost pass's nominal point.
    static_ok: bool,
    /// Frames this record covers.
    frames: u64,
    forced: u64,
    rail_clips: u64,
    /// Modelled energy (µJ) and frame time (ms), per frame.
    energy_uj: f64,
    sim_ms: f64,
    /// Ledger counts per frame: MACs, comparisons, writes, conversions.
    counts: Option<[u64; 4]>,
}

/// One timed call (a frame, batch or fleet run) and what it produced.
struct Unit {
    secs: f64,
    frames: u64,
    recs: Result<Vec<Rec>, String>,
}

fn d_rec(key: usize, out: &redeye_core::FrameOutput, bounds: Option<&CostBounds>) -> Rec {
    let l = &out.ledger;
    Rec {
        key,
        digest: check::frame_digest(
            &out.features,
            &out.codes,
            out.forced,
            out.rail_clips,
            l,
            out.elapsed,
        ),
        static_ok: bounds.is_some_and(|b| check::matches_static(b, l, out.elapsed)),
        frames: 1,
        forced: out.forced,
        rail_clips: out.rail_clips,
        energy_uj: l.total().value() * 1e6,
        sim_ms: out.elapsed.millis(),
        counts: Some([l.macs, l.comparisons, l.writes, l.conversions]),
    }
}

fn exec_rec(
    key: usize,
    r: redeye_core::ExecutionResult,
    forced: u64,
    bounds: Option<&CostBounds>,
) -> Rec {
    d_rec(
        key,
        &redeye_core::FrameOutput {
            features: r.features,
            codes: r.codes,
            ledger: r.ledger,
            elapsed: r.elapsed,
            forced,
            rail_clips: r.rail_clips,
            code_mac_hits: r.code_mac_hits,
        },
        bounds,
    )
}

fn fleet_rec(report: &redeye_core::FleetReport) -> Rec {
    let n = report.frames.max(1) as f64;
    let stats = report.devices.iter().flat_map(|d| &d.frames);
    Rec {
        key: 0,
        digest: check::fleet_digest(report),
        static_ok: true,
        frames: report.frames,
        forced: stats.clone().map(|f| f.forced).sum(),
        rail_clips: stats.clone().map(|f| f.rail_clips).sum(),
        energy_uj: report.energy.value() * 1e6 / n,
        sim_ms: stats.map(|f| f.frame_time.millis()).sum::<f64>() / n,
        counts: None,
    }
}

/// Runs timed call number `u` of the workload.
fn run_unit(s: &mut Setup, u: usize, bounds: Option<&CostBounds>, tr: &mut Tracer) -> Unit {
    let k = u % CYCLE;
    let frames = match &s.runner {
        Runner::Batch(..) => BATCH as u64,
        Runner::Fleet(_) => FLEET_DEVICES * FLEET_FRAMES as u64,
        _ => 1,
    };
    let frame = tr.begin("frame", Some(u as u64));
    let mut secs = 0.0;
    let mut call = |name: &str, f: &mut dyn FnMut() -> Res<Vec<Rec>>| {
        let span = tr.begin(name, Some(u as u64));
        let t = Instant::now();
        let r = f();
        secs = t.elapsed().as_secs_f64();
        tr.end(span);
        r
    };
    let recs = match &mut s.runner {
        Runner::Serial(engine, ctx) => call("engine.run_frame", &mut || {
            let out = engine.run_frame(k as u64, &s.inputs[k], ctx)?;
            Ok(vec![d_rec(k, &out, bounds)])
        }),
        Runner::Stream(exec, seen) => call("executor.execute", &mut || {
            exec.seek_frame(k as u64);
            let r = exec.execute(&s.inputs[k])?;
            let forced = r.forced_decisions - *seen;
            *seen = r.forced_decisions;
            Ok(vec![exec_rec(k, r, forced, bounds)])
        }),
        Runner::Batch(exec, seen) => call("batch.execute_batch", &mut || {
            let first = (u * BATCH) % CYCLE;
            exec.seek_frame(first as u64);
            let b = exec.execute_batch(&s.inputs[first..first + BATCH])?;
            Ok(b.frames
                .into_iter()
                .zip(first..)
                .map(|(r, k)| {
                    let forced = r.forced_decisions - *seen;
                    *seen = r.forced_decisions;
                    exec_rec(k, r, forced, bounds)
                })
                .collect())
        }),
        Runner::Fleet(exec) => call("fleet.run", &mut || {
            Ok(vec![fleet_rec(&exec.run(&s.work)?)])
        }),
    };
    tr.end(frame);
    Unit {
        secs,
        frames,
        recs: recs.map_err(|e| e.to_string()),
    }
}

/// Runs timed calls until `seconds` have passed (at least one).
fn phase(s: &mut Setup, seconds: f64, bounds: Option<&CostBounds>, tr: &mut Tracer) -> Vec<Unit> {
    let start = Instant::now();
    let mut units = Vec::new();
    while units.is_empty() || start.elapsed().as_secs_f64() < seconds {
        units.push(run_unit(s, units.len(), bounds, tr));
    }
    units
}

/// Serial single-engine digests of the D-workload cycle.
fn serial_reference(program: &Program, inputs: &[Tensor]) -> Res<Vec<u64>> {
    let engine = FrameEngine::new(program.clone(), NOISE_SEED);
    let mut ctx = FrameCtx::new();
    inputs
        .iter()
        .enumerate()
        .map(|(k, x)| Ok(d_rec(k, &engine.run_frame(k as u64, x, &mut ctx)?, None).digest))
        .collect()
}

/// The fleet digest and wall seconds of a run with `workers` workers.
fn fleet_run(program: &Program, work: &[DeviceWork], workers: usize) -> Res<(u64, f64, u64)> {
    let exec = FleetExecutor::with_options(
        FleetEngine::new(program.clone(), NOISE_SEED)?,
        FleetOptions {
            workers,
            ..FleetOptions::default()
        },
    );
    let t = Instant::now();
    let report = exec.run(work)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((check::fleet_digest(&report), secs, report.steals))
}

/// Metrics and checks of one run.
#[derive(Default)]
struct Report {
    /// Metrics printed in the final JSON line.
    json: Vec<(String, f64, &'static str)>,
    /// Further metrics printed in the report lines only.
    text: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    fn json(&mut self, name: &str, value: f64, unit: &'static str) {
        self.json.push((name.to_string(), value, unit));
    }

    fn text(&mut self, name: &str, value: f64, unit: &'static str) {
        self.text.push((name.to_string(), value, unit));
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

/// Judges every record of `units` against `reference`; returns the frames
/// that passed per unit.
fn judge(units: &[Unit], reference: &[u64], report: &mut Report) -> Vec<u64> {
    units
        .iter()
        .map(|u| {
            report.attempted += u.frames;
            let passed: u64 = match &u.recs {
                Ok(recs) => recs
                    .iter()
                    .filter(|r| r.static_ok && reference.get(r.key) == Some(&r.digest))
                    .map(|r| r.frames)
                    .sum(),
                Err(e) => {
                    report.notes.push(format!("frame error: {e}"));
                    0
                }
            };
            report.failed += u.frames - passed;
            passed
        })
        .collect()
}

/// The first record per cycle key, in key order.
fn first_cycle<'a>(units: impl IntoIterator<Item = &'a Unit>) -> Vec<Rec> {
    let mut seen: Vec<Option<Rec>> = vec![None; CYCLE];
    for r in units
        .into_iter()
        .filter_map(|u| u.recs.as_ref().ok())
        .flatten()
    {
        seen[r.key].get_or_insert_with(|| r.clone());
    }
    seen.into_iter().flatten().collect()
}

/// Timing metrics of a phase: fps over passing frames, and host ms per
/// frame of each timed call.
fn timing(units: &[Unit], passed: &[u64]) -> (f64, Vec<f64>) {
    let secs: f64 = units.iter().map(|u| u.secs).sum();
    let fps = passed.iter().sum::<u64>() as f64 / secs;
    let per_frame = units
        .iter()
        .map(|u| u.secs * 1e3 / u.frames as f64)
        .collect();
    (fps, per_frame)
}

fn run_workload(args: &Args, tr: &mut Tracer) -> Res<Report> {
    let w = args.workload;
    let mut rep = Report::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut s = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        drop(s.take());
        let built = setup(w, args.seed, tr)?;
        setup_s.push(built.seconds);
        s = Some(built);
    }
    let mut s = s.expect("at least one set-up ran");
    let bounds = analyze_cost(&s.program);
    if !w.is_fleet() {
        rep.check(
            "static cost pass derives the program's cost",
            bounds.is_some(),
        );
    }
    let bounds = bounds.as_ref();

    // Untraced timed phase; the traced run splits its time between an
    // untraced and a traced phase to report the tracing overhead.
    let mut off = Tracer::new(false);
    let share = if args.trace { 0.3 } else { 1.0 };
    let units = phase(&mut s, args.seconds * share, bounds, &mut off);
    let traced_units = if args.trace {
        phase(&mut s, args.seconds * share, bounds, tr)
    } else {
        Vec::new()
    };

    // Reference digests: committed for this seed, or else recomputed on the
    // serial engine (D1), the 1-worker fleet, or the run's own first cycle
    // (D3, which runs on the serial engine already).
    let cycle = first_cycle(units.iter().chain(&traced_units));
    let (reference, source) = match check::committed(w.digest_set(), args.seed) {
        Some(r) => (r, "committed"),
        None => match w {
            Workload::D3Serial => (cycle.iter().map(|r| r.digest).collect(), "first cycle"),
            Workload::D1Stream2t | Workload::D1Batch2w => {
                (serial_reference(&s.program, &s.inputs)?, "serial engine")
            }
            Workload::FleetMicro2w => {
                (vec![fleet_run(&s.program, &s.work, 1)?.0], "1-worker fleet")
            }
        },
    };
    rep.notes
        .push(format!("reference digests: {source} (seed {})", args.seed));
    if w.is_fleet() && source == "committed" && !args.trace {
        let one = fleet_run(&s.program, &s.work, 1)?.0;
        rep.check(
            "fleet digest equal at 1 and 2 workers",
            reference.first() == Some(&one),
        );
    }
    let passed = judge(&units, &reference, &mut rep);
    let traced_passed = judge(&traced_units, &reference, &mut rep);
    let (fps, frame_ms) = timing(&units, &passed);

    // End-to-end metrics.
    rep.json("setup_s", median(&setup_s), "s");
    rep.json("fps", fps, "1/s");
    rep.json("frame_ms_p50", median(&frame_ms), "ms");
    rep.json("peak_rss_mb", check::peak_rss_mb(), "MB");
    rep.text("calls_timed", frame_ms.len() as f64, "count");
    if frame_ms.len() >= 100 && matches!(s.runner, Runner::Serial(..) | Runner::Stream(..)) {
        rep.text("frame_ms_p90", quantile(&frame_ms, 0.9), "ms");
    }
    if !cycle.is_empty() {
        let n = cycle.len() as f64;
        rep.text(
            "sim_energy_uj",
            cycle.iter().map(|r| r.energy_uj).sum::<f64>() / n,
            "uJ",
        );
        rep.text(
            "sim_frame_ms",
            cycle.iter().map(|r| r.sim_ms).sum::<f64>() / n,
            "ms",
        );
    }
    if !args.trace {
        return Ok(rep);
    }

    // ---- Traced run: per-layer metrics. ----
    rep.json.clear();
    for name in [
        "nn.build",
        "compile",
        "verify",
        "engine.pack",
        "inputs.synth",
        "engine.warm_frame",
    ] {
        let metric = match name {
            "compile" | "verify" => format!("{name}.ms"),
            _ => format!("{name}_ms"),
        };
        rep.json(&metric, median(&tr.self_ms(name)), "ms");
    }

    let replay_input = if w.is_fleet() {
        (*s.work[0].frames[0]).clone()
    } else {
        s.inputs[0].clone()
    };
    let r = layers::replay(
        &s.program,
        &replay_input,
        w.threads(),
        args.seconds * 0.25,
        tr,
    )?;
    for f in &r.verify_failures {
        rep.notes.push(format!("replay: {f}"));
    }
    rep.check(
        "every replay program verifies clean",
        r.verify_failures.is_empty(),
    );
    if !r.verify_warnings.is_empty() {
        rep.notes.push(format!(
            "replay programs drew warnings {:?}",
            r.verify_warnings
        ));
    }
    rep.json("stage.conv_ms", r.conv_ms, "ms");
    rep.json("stage.maxpool_ms", r.maxpool_ms, "ms");
    rep.json("stage.readout_ms", r.readout_ms, "ms");
    rep.json("stage.coverage", r.coverage(), "ratio");
    if matches!(w, Workload::D3Serial | Workload::D1Stream2t) {
        rep.check(
            "stage.coverage within [0.95, 1.05]",
            (0.95..=1.05).contains(&r.coverage()),
        );
    }
    for (name, ms) in [
        ("stage.lrn_ms", r.lrn_ms),
        ("stage.avgpool_ms", r.avgpool_ms),
        ("stage.concat_ms", r.concat_ms),
    ] {
        if let Some(ms) = ms {
            rep.text(name, ms, "ms");
        }
    }
    rep.text("replay.frame_ms", r.frame_ms, "ms");
    rep.text("replay.rounds", r.rounds as f64, "count");
    for (name, ms) in &r.instr_ms {
        rep.text(&format!("instr.{name}_ms"), *ms, "ms");
    }

    // Counts per frame (exact), from the first cycle or a serial fleet pass.
    let (counts, forced, clips) = if w.is_fleet() {
        fleet_layers(
            &s,
            &units,
            reference.first().copied().unwrap_or_default(),
            &mut rep,
            tr,
        )?
    } else {
        if w == Workload::D1Stream2t {
            stream_efficiency(&mut s, args.seconds * 0.15, &mut rep)?;
        }
        if w == Workload::D1Batch2w {
            batch_efficiency(&mut s, &mut rep)?;
        }
        let n = cycle.len().max(1) as f64;
        (
            cycle.first().and_then(|r| r.counts).unwrap_or_default(),
            cycle.iter().map(|r| r.forced).sum::<u64>() as f64 / n,
            cycle.iter().map(|r| r.rail_clips).sum::<u64>() as f64 / n,
        )
    };
    for (name, v) in ["macs", "comparisons", "writes", "conversions"]
        .iter()
        .zip(counts)
    {
        rep.json(&format!("count.{name}"), v as f64, "count");
    }
    rep.json("count.forced", forced, "count");
    rep.json("count.rail_clips", clips, "count");
    rep.json(
        "stage.maxpool_ns_per_decision",
        r.maxpool_ms * 1e6 / r.comparisons.max(1) as f64,
        "ns",
    );
    rep.json(
        "stage.conv_ns_per_mac",
        r.conv_ms * 1e6 / r.conv_macs.max(1) as f64,
        "ns",
    );
    rep.json(
        "stage.readout_ns_per_conversion",
        r.readout_ms * 1e6 / r.conversions.max(1) as f64,
        "ns",
    );

    let k = layers::kernels(&r, KERNEL_REPS, tr);
    rep.json("tensor.conv_gemm_ms", k.conv_gemm_ms, "ms");
    rep.json("tensor.noise_ms", k.noise_ms, "ms");
    rep.json("analog.compare_ns", k.compare_ns, "ns");
    rep.json(
        "analog.compare_share",
        k.compare_ns * r.comparisons as f64 / (r.maxpool_ms * 1e6 * w.threads() as f64),
        "ratio",
    );
    rep.json("analog.sar_convert_ns", k.sar_convert_ns, "ns");

    let (traced_fps, _) = timing(&traced_units, &traced_passed);
    rep.json("trace.fps_ratio", traced_fps / fps, "ratio");
    rep.text("fps_untraced", fps, "1/s");
    rep.text("fps_traced", traced_fps, "1/s");
    for (name, ms, n) in tr.self_totals() {
        rep.notes
            .push(format!("self time {name}: {ms:.3} ms over {n} spans"));
    }
    Ok(rep)
}

/// `stream.efficiency`: 1-thread frame time ÷ (2 × 2-thread frame time),
/// from alternating frames on a 1-thread engine and the workload executor.
fn stream_efficiency(s: &mut Setup, budget_s: f64, rep: &mut Report) -> Res<()> {
    let Runner::Stream(exec, seen) = &mut s.runner else {
        return Ok(());
    };
    let one = FrameEngine::new(s.program.clone(), NOISE_SEED);
    let mut ctx = FrameCtx::new();
    one.run_frame(0, &s.inputs[0], &mut ctx)?;
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while t1.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let k = t1.len() % CYCLE;
        let t = Instant::now();
        one.run_frame(k as u64, &s.inputs[k], &mut ctx)?;
        t1.push(t.elapsed().as_secs_f64());
        exec.seek_frame(k as u64);
        let t = Instant::now();
        *seen = exec.execute(&s.inputs[k])?.forced_decisions;
        t2.push(t.elapsed().as_secs_f64());
    }
    rep.text("stream.frame_ms_1t", median(&t1) * 1e3, "ms");
    rep.text("stream.frame_ms_2t", median(&t2) * 1e3, "ms");
    rep.text(
        "stream.efficiency",
        median(&t1) / (2.0 * median(&t2)),
        "ratio",
    );
    Ok(())
}

/// `batch.efficiency`: 2-worker fps ÷ (2 × 1-worker fps), from alternating
/// whole-cycle batches.
fn batch_efficiency(s: &mut Setup, rep: &mut Report) -> Res<()> {
    let Runner::Batch(exec, seen) = &mut s.runner else {
        return Ok(());
    };
    let mut one = BatchExecutor::new(s.program.clone(), NOISE_SEED, 1)?;
    one.execute_batch(&s.inputs[..1])?;
    let (mut f1, mut f2) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        one.seek_frame(0);
        let t = Instant::now();
        one.execute_batch(&s.inputs)?;
        f1.push(CYCLE as f64 / t.elapsed().as_secs_f64());
        exec.seek_frame(0);
        let t = Instant::now();
        let b = exec.execute_batch(&s.inputs)?;
        f2.push(CYCLE as f64 / t.elapsed().as_secs_f64());
        *seen = b.frames.last().map_or(*seen, |f| f.forced_decisions);
    }
    rep.text("batch.fps_1w", median(&f1), "1/s");
    rep.text("batch.fps_2w", median(&f2), "1/s");
    rep.text(
        "batch.efficiency",
        median(&f2) / (2.0 * median(&f1)),
        "ratio",
    );
    Ok(())
}

/// Fleet layers: serial per-device frame time, 1- vs 2-worker efficiency,
/// scheduling share and steals; returns the per-frame counts.
fn fleet_layers(
    s: &Setup,
    units: &[Unit],
    reference: u64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Res<([u64; 4], f64, f64)> {
    let span = tr.begin("fleet.serial_frames", None);
    let engine = FleetEngine::new(s.program.clone(), NOISE_SEED)?;
    let mut scratch = DeviceScratch::new();
    let mut frame_us = Vec::new();
    let mut counts = [0u64; 4];
    for w in s.work.iter().take(128) {
        let device = engine.device(w.device);
        for (j, input) in w.frames.iter().enumerate() {
            let t = Instant::now();
            let f = device.run_frame(j as u64, input, &mut scratch)?;
            frame_us.push(t.elapsed().as_secs_f64() * 1e6);
            let l = &f.output.ledger;
            counts = [l.macs, l.comparisons, l.writes, l.conversions];
        }
    }
    tr.end(span);
    let frame_us = median(&frame_us[1..]);

    let span = tr.begin("fleet.scaling", None);
    let (mut w1, mut w2, mut steals) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests = Vec::new();
    for _ in 0..2 {
        let (d1, s1, _) = fleet_run(&s.program, &s.work, 1)?;
        let (d2, s2, st) = fleet_run(&s.program, &s.work, 2)?;
        digests.extend([d1, d2]);
        w1.push(s1);
        w2.push(s2);
        steals.push(st as f64);
    }
    tr.end(span);
    rep.check(
        "fleet digest equal at 1 and 2 workers",
        digests.iter().all(|&d| d == reference),
    );
    let tasks = (FLEET_DEVICES * FLEET_FRAMES as u64) as f64;
    let wall2 = median(&w2);
    rep.text("fleet.frame_us", frame_us, "us");
    rep.text("fleet.efficiency", median(&w1) / (2.0 * wall2), "ratio");
    rep.text(
        "fleet.sched_frac",
        1.0 - tasks * frame_us * 1e-6 / (2.0 * wall2),
        "ratio",
    );
    rep.text("fleet.steal_frac", median(&steals) / tasks, "ratio");

    let recs: Vec<&Rec> = units
        .iter()
        .filter_map(|u| u.recs.as_ref().ok())
        .flatten()
        .collect();
    let frames = recs.iter().map(|r| r.frames).sum::<u64>().max(1) as f64;
    Ok((
        counts,
        recs.iter().map(|r| r.forced).sum::<u64>() as f64 / frames,
        recs.iter().map(|r| r.rail_clips).sum::<u64>() as f64 / frames,
    ))
}

/// Prints the reference digest lines for `seed`.
fn emit_digests(seed: u64) -> Res<()> {
    let mut off = Tracer::new(false);
    let d3 = setup(Workload::D3Serial, seed, &mut off)?;
    let d1 = setup(Workload::D1Stream2t, seed, &mut off)?;
    let fleet = setup(Workload::FleetMicro2w, seed, &mut off)?;
    for (set, digests) in [
        ("d3", serial_reference(&d3.program, &d3.inputs)?),
        ("d1", serial_reference(&d1.program, &d1.inputs)?),
        ("fleet", vec![fleet_run(&fleet.program, &fleet.work, 1)?.0]),
    ] {
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        println!("{seed} {set} {}", hex.join(" "));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.emit_digests {
        if let Err(e) = emit_digests(args.seed) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut tr = Tracer::new(args.trace);
    let host = check::host_json(&args.git);
    let rep = match run_workload(&args, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: workload {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, tr.to_json(&host)) {
            eprintln!("error: cannot write spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, v, unit) in rep.json.iter().chain(&rep.text) {
        let _ = writeln!(out, "  {name:<36} {v:>14.6} {unit}");
    }
    for note in &rep.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    let mut correct = rep.failed == 0;
    for (name, ok) in &rep.checks {
        let _ = writeln!(
            out,
            "  check: {name}: {}",
            if *ok { "ok" } else { "FAILED" }
        );
        correct &= ok;
    }
    let mut metrics = Vec::new();
    for (name, v, unit) in &rep.json {
        if !v.is_finite() {
            let _ = writeln!(out, "  check: {name} is finite: FAILED");
            correct = false;
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let _ = writeln!(
        out,
        "  frames attempted {} failed {}",
        rep.attempted, rep.failed
    );
    let _ = writeln!(out, "host: {host}");
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    print!("{out}");
}
