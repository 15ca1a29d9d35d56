//! Per-layer measurements for the traced run.
//!
//! **Stage replay.** Every instruction of a workload program runs as its
//! own one-instruction `Program` through `FrameEngine::run_frame`, fed the
//! dequantized features of the program truncated just before it; inception
//! modules are also split into their leaves. Each one-instruction program
//! is paired with a capture-only program (`instructions: []`) at its output
//! shape, whose time — the SAR readout and the per-frame fixed cost — is
//! subtracted. The full frame is timed in the same rounds, so the stage sum
//! can be compared with it (`stage.coverage`).
//!
//! **Kernels.** The conv GEMM, layer-noise fill, comparator and SAR
//! converter are timed through their public functions at the geometries
//! the replay visits.

use crate::check::median;
use crate::trace::Tracer;
use redeye_analog::calib::SWING;
use redeye_analog::{Comparator, SarAdc};
use redeye_core::{
    verify, EnergyLedger, FrameCtx, FrameEngine, FrameOutput, Instruction, Program, Severity,
};
use redeye_tensor::{
    conv_gemm_packed_into, ConvGeom, NoiseStream, PackBuffers, PackedWeights, SimdLevel, Tensor,
};
use std::hint::black_box;
use std::time::Instant;

/// Noise seed of every replay and kernel engine.
const SEED: u64 = 0x5eed_f00d;
/// Fewest timing rounds the replay makes, whatever its time budget.
const MIN_ROUNDS: usize = 5;
/// Most timing rounds the replay makes.
const MAX_ROUNDS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Conv,
    MaxPool,
    AvgPool,
    Lrn,
    Inception,
}

fn stage_of(inst: &Instruction) -> Stage {
    match inst {
        Instruction::Conv { .. } => Stage::Conv,
        Instruction::MaxPool { .. } => Stage::MaxPool,
        Instruction::AvgPool { .. } => Stage::AvgPool,
        Instruction::Lrn { .. } => Stage::Lrn,
        Instruction::Inception { .. } => Stage::Inception,
    }
}

/// One replayed instruction: a top-level instruction or an inception leaf.
struct Probe {
    inst: Instruction,
    stage: Stage,
    /// Index of the enclosing inception probe, for leaves.
    parent: Option<usize>,
    single: FrameEngine,
    input: Tensor,
    readout: FrameEngine,
    readout_input: Tensor,
    /// Ledger of one run of the one-instruction program.
    ledger: EnergyLedger,
    single_ms: Vec<f64>,
    readout_ms: Vec<f64>,
}

impl Probe {
    fn net_ms(&self) -> f64 {
        median(&self.single_ms) - median(&self.readout_ms)
    }
}

/// What the replay measured, per frame.
pub struct Replay {
    pub frame_ms: f64,
    pub conv_ms: f64,
    pub maxpool_ms: f64,
    /// Stages only some programs have; `None` when absent.
    pub avgpool_ms: Option<f64>,
    pub lrn_ms: Option<f64>,
    pub concat_ms: Option<f64>,
    pub readout_ms: f64,
    /// `(layer name, net ms)` per top-level instruction.
    pub instr_ms: Vec<(String, f64)>,
    pub conv_macs: u64,
    pub comparisons: u64,
    pub conversions: u64,
    pub rounds: usize,
    /// Replay programs that failed verification (should be empty).
    pub verify_failures: Vec<String>,
    /// Distinct warning codes the replay programs drew.
    pub verify_warnings: Vec<&'static str>,
    probes: Vec<Probe>,
    features: Tensor,
    threads: usize,
    adc_bits: u32,
}

impl Replay {
    pub fn stage_sum_ms(&self) -> f64 {
        self.conv_ms
            + self.maxpool_ms
            + self.avgpool_ms.unwrap_or(0.0)
            + self.lrn_ms.unwrap_or(0.0)
            + self.concat_ms.unwrap_or(0.0)
            + self.readout_ms
    }

    pub fn coverage(&self) -> f64 {
        self.stage_sum_ms() / self.frame_ms
    }
}

fn engine(program: Program, threads: usize) -> FrameEngine {
    let mut e = FrameEngine::new(program, SEED);
    e.set_threads(threads);
    e
}

fn dims3(t: &Tensor) -> [usize; 3] {
    let d = t.dims();
    [d[0], d[1], d[2]]
}

fn run(e: &FrameEngine, x: &Tensor, ctx: &mut FrameCtx) -> redeye_core::Result<FrameOutput> {
    e.run_frame(0, x, ctx)
}

fn timed(e: &FrameEngine, x: &Tensor, ctx: &mut FrameCtx) -> redeye_core::Result<f64> {
    let t = Instant::now();
    black_box(run(e, x, ctx)?);
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// Dequantized features of `instructions` run over `x`.
fn features_after(
    base: &Program,
    x: &Tensor,
    instructions: &[Instruction],
    threads: usize,
) -> redeye_core::Result<Tensor> {
    let p = Program::new(
        "replay-prefix",
        dims3(x),
        instructions.to_vec(),
        base.adc_bits,
    );
    Ok(run(&engine(p, threads), x, &mut FrameCtx::new())?.features)
}

/// Verifies a replay program: it must have no errors, and a capture-only
/// program must be recognised as one (note RE0405). Warning codes are
/// collected for the report.
fn check_clean(
    p: &Program,
    capture_only: bool,
    failures: &mut Vec<String>,
    warnings: &mut Vec<&'static str>,
) {
    let report = verify(p);
    if report.has_errors() {
        failures.push(format!("{}: verification errors", p.name));
    }
    if capture_only && !report.diagnostics.iter().any(|d| d.code == "RE0405") {
        failures.push(format!(
            "{}: not recognised as capture-only (RE0405)",
            p.name
        ));
    }
    for d in &report.diagnostics {
        if d.severity == Severity::Warning && !warnings.contains(&d.code) {
            warnings.push(d.code);
        }
    }
}

/// Builds and checks the probe for `inst` over input `x`.
fn probe(
    base: &Program,
    inst: &Instruction,
    parent: Option<usize>,
    x: Tensor,
    threads: usize,
    failures: &mut Vec<String>,
    warnings: &mut Vec<&'static str>,
) -> redeye_core::Result<Probe> {
    let name = inst.name().to_string();
    let single_p = Program::new(
        format!("replay-{name}"),
        dims3(&x),
        vec![inst.clone()],
        base.adc_bits,
    );
    check_clean(&single_p, false, failures, warnings);
    let single = engine(single_p, threads);
    let out = run(&single, &x, &mut FrameCtx::new())?;
    let readout_p = Program::new(
        format!("readout-{name}"),
        dims3(&out.features),
        Vec::new(),
        base.adc_bits,
    );
    check_clean(&readout_p, true, failures, warnings);
    Ok(Probe {
        inst: inst.clone(),
        stage: stage_of(inst),
        parent,
        single,
        input: x,
        readout: engine(readout_p, threads),
        readout_input: out.features,
        ledger: out.ledger,
        single_ms: Vec::new(),
        readout_ms: Vec::new(),
    })
}

/// Replays `program` over `input` at `threads` analog/GEMM threads, making
/// timing rounds until `budget_s` has passed (at least [`MIN_ROUNDS`]).
pub fn replay(
    program: &Program,
    input: &Tensor,
    threads: usize,
    budget_s: f64,
    tr: &mut Tracer,
) -> redeye_core::Result<Replay> {
    let mut probes: Vec<Probe> = Vec::new();
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let build = tr.begin("replay.build", None);
    for (i, inst) in program.instructions.iter().enumerate() {
        let x = features_after(program, input, &program.instructions[..i], threads)?;
        let top = probes.len();
        probes.push(probe(
            program,
            inst,
            None,
            x.clone(),
            threads,
            &mut failures,
            &mut warnings,
        )?);
        if let Instruction::Inception { branches, .. } = inst {
            for branch in branches {
                for (j, leaf) in branch.iter().enumerate() {
                    let lx = features_after(program, &x, &branch[..j], threads)?;
                    probes.push(probe(
                        program,
                        leaf,
                        Some(top),
                        lx,
                        threads,
                        &mut failures,
                        &mut warnings,
                    )?);
                }
            }
        }
    }
    let full = engine(program.clone(), threads);
    let full_out = run(&full, input, &mut FrameCtx::new())?;
    tr.end(build);

    let mut ctx = FrameCtx::new();
    let mut frame_ms = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (start.elapsed().as_secs_f64() < budget_s && rounds < MAX_ROUNDS) {
        let round = tr.begin("replay.round", Some(rounds as u64));
        let s = tr.begin("replay.frame", Some(rounds as u64));
        frame_ms.push(timed(&full, input, &mut ctx)?);
        tr.end(s);
        for p in &mut probes {
            let s = tr.begin(&format!("replay.{}", p.inst.name()), Some(rounds as u64));
            p.single_ms.push(timed(&p.single, &p.input, &mut ctx)?);
            p.readout_ms
                .push(timed(&p.readout, &p.readout_input, &mut ctx)?);
            tr.end(s);
        }
        tr.end(round);
        rounds += 1;
    }

    let stage_ms = |stage: Stage| -> f64 {
        probes
            .iter()
            .filter(|p| p.stage == stage)
            .map(Probe::net_ms)
            .sum()
    };
    let present = |stage: Stage| probes.iter().any(|p| p.stage == stage);
    let concat_ms: f64 = probes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.stage == Stage::Inception)
        .map(|(i, p)| {
            let leaves: f64 = probes
                .iter()
                .filter(|l| l.parent == Some(i))
                .map(Probe::net_ms)
                .sum();
            p.net_ms() - leaves
        })
        .sum();
    // The last probe's capture-only program reads out at the program's
    // output shape: it is the frame's own readout stage.
    let final_readout = probes
        .iter()
        .rfind(|p| p.parent.is_none())
        .map_or(0.0, |p| median(&p.readout_ms));
    let sum_ledger = |stage: Stage, f: fn(&EnergyLedger) -> u64| -> u64 {
        probes
            .iter()
            .filter(|p| p.stage == stage)
            .map(|p| f(&p.ledger))
            .sum()
    };
    Ok(Replay {
        frame_ms: median(&frame_ms),
        conv_ms: stage_ms(Stage::Conv),
        maxpool_ms: stage_ms(Stage::MaxPool),
        avgpool_ms: present(Stage::AvgPool).then(|| stage_ms(Stage::AvgPool)),
        lrn_ms: present(Stage::Lrn).then(|| stage_ms(Stage::Lrn)),
        concat_ms: present(Stage::Inception).then_some(concat_ms),
        readout_ms: final_readout,
        instr_ms: probes
            .iter()
            .filter(|p| p.parent.is_none())
            .map(|p| (p.inst.name().to_string(), p.net_ms()))
            .collect(),
        conv_macs: sum_ledger(Stage::Conv, |l| l.macs),
        comparisons: sum_ledger(Stage::MaxPool, |l| l.comparisons),
        conversions: full_out.ledger.conversions,
        rounds,
        verify_failures: failures,
        verify_warnings: warnings,
        probes,
        features: full_out.features,
        threads,
        adc_bits: program.adc_bits,
    })
}

/// Kernel timings at the replay's geometries.
pub struct Kernels {
    /// Σ over the frame's convs of one `conv_gemm_packed_into` call, ms.
    pub conv_gemm_ms: f64,
    /// Σ over the frame's noisy layers of one `add_scaled_normal` fill, ms.
    pub noise_ms: f64,
    pub compare_ns: f64,
    pub sar_convert_ns: f64,
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Times the kernels behind the replayed stages.
pub fn kernels(r: &Replay, reps: usize, tr: &mut Tracer) -> Kernels {
    let span = tr.begin("kernels.conv_gemm", None);
    let mut packs = PackBuffers::new();
    let mut conv_gemm_ms = 0.0;
    for p in &r.probes {
        if let Instruction::Conv {
            out_c,
            kernel,
            stride,
            pad,
            codes,
            scale,
            ..
        } = &p.inst
        {
            let [c, h, w] = dims3(&p.input);
            let geom = ConvGeom::new(c, h, w, *kernel, *kernel, *stride, *pad)
                .expect("replayed conv geometry is valid");
            let weights: Vec<f32> = codes.iter().map(|&q| q as f32 * scale).collect();
            let packed = PackedWeights::pack(&weights, *out_c, geom.patch_len());
            let mut out = vec![0.0f32; out_c * geom.out_positions()];
            conv_gemm_ms += median_ms(reps, || {
                conv_gemm_packed_into(
                    &mut packs,
                    SimdLevel::auto(),
                    &packed,
                    black_box(p.input.as_slice()),
                    &geom,
                    &mut out,
                    r.threads,
                );
                black_box(&out);
            });
        }
    }
    tr.end(span);

    let span = tr.begin("kernels.noise", None);
    let stream = NoiseStream::new(SEED);
    let mut noise_ms = 0.0;
    for p in &r.probes {
        if matches!(p.stage, Stage::Conv | Stage::Lrn | Stage::AvgPool) {
            let mut buf = vec![0.0f32; p.readout_input.len()];
            noise_ms += median_ms(reps, || {
                stream.add_scaled_normal(0, 0.01, black_box(&mut buf));
            });
        }
    }
    tr.end(span);

    // Comparator decisions on neighbouring values of the first pool's
    // input, gain-staged to the rail swing as the executor does.
    let span = tr.begin("kernels.compare", None);
    let pool_in = r
        .probes
        .iter()
        .find(|p| p.stage == Stage::MaxPool)
        .map_or(&r.features, |p| &p.input)
        .as_slice();
    let max_abs = pool_in.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let volts = if max_abs > 0.0 {
        SWING.value() / f64::from(max_abs)
    } else {
        1.0
    };
    let n = pool_in.len().saturating_sub(1).clamp(1, 1 << 18);
    let compare_ms = median_ms(reps, || {
        let mut cmp = Comparator::new();
        let mut site = stream.at(7);
        for i in 0..n {
            let a = f64::from(pool_in[i % pool_in.len()]) * volts;
            let b = f64::from(pool_in[(i + 1) % pool_in.len()]) * volts;
            black_box(cmp.compare(a, b, &mut site));
        }
    });
    tr.end(span);

    let span = tr.begin("kernels.sar", None);
    let feats = r.features.as_slice();
    let vmax = feats
        .iter()
        .fold(0.0f32, |m, &v| m.max(v))
        .max(f32::MIN_POSITIVE);
    let m = feats.len().max(1);
    let sar_ms = median_ms(reps, || {
        let mut adc = SarAdc::new(r.adc_bits).expect("program ADC resolution is valid");
        let mut site = stream.at(11);
        for i in 0..m {
            let v = feats.get(i).map_or(0.0, |&v| f64::from(v.max(0.0) / vmax));
            black_box(adc.convert(v, &mut site));
        }
    });
    tr.end(span);

    Kernels {
        conv_gemm_ms,
        noise_ms,
        compare_ns: compare_ms * 1e6 / n as f64,
        sar_convert_ns: sar_ms * 1e6 / m as f64,
    }
}
