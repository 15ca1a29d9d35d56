//! Pass 1 — shape dataflow.
//!
//! Symbolically propagates the `(C, H, W)` activation shape through every
//! instruction, mirroring the executor's geometry exactly (floor rounding
//! for convolutions, Caffe ceil rounding for pools). Non-chaining
//! dimensions, degenerate outputs, kernels that over-run the padded input,
//! and inputs wider than the physical column array are all rejected before
//! anything executes.
//!
//! The pass runs on the shared [`crate::dataflow`] engine and additionally
//! records a [`Site`] per visited instruction (nested inception
//! instructions included) carrying the inferred input/output shapes — the
//! site list is the substrate the code-range, resource, and cost passes
//! consume.

use crate::dataflow::{self, Ctx, ForwardAnalysis};
use crate::diag::{DiagClass, Diagnostic, Report, Severity};
use crate::limits::ResourceLimits;
use crate::{Instruction, Program};
use redeye_tensor::{ConvGeom, PoolGeom};

/// One instruction visit with its inferred dataflow context.
#[derive(Debug)]
pub(crate) struct Site<'p> {
    /// The visited instruction.
    pub inst: &'p Instruction,
    /// Index path into the program (see [`Diagnostic::path`]).
    pub path: Vec<usize>,
    /// Depth-first stage ordinal (executor noise-stream numbering).
    #[allow(dead_code)]
    pub ordinal: usize,
    /// Inferred input shape, when the dataflow reaches this instruction.
    pub in_shape: Option<[usize; 3]>,
    /// Inferred output shape, when the instruction can execute.
    pub out_shape: Option<[usize; 3]>,
}

fn err(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Error, DiagClass::ShapeDataflow, code, message)
}

/// Runs the pass: emits diagnostics into `report` and returns the visited
/// sites plus the program's final (readout) shape when derivable.
pub(crate) fn analyze<'p>(
    program: &'p Program,
    limits: &ResourceLimits,
    report: &mut Report,
) -> (Vec<Site<'p>>, Option<[usize; 3]>) {
    let [c, h, w] = program.input;
    let mut start = Some(program.input);
    if c == 0 || h == 0 || w == 0 {
        report.push(err(
            "RE0107",
            format!("program input {c}x{h}x{w} has a zero dimension"),
        ));
        start = None;
    }
    if w > limits.columns {
        report.push(
            err(
                "RE0106",
                format!(
                    "input width {w} over-runs the {}-column sensor array",
                    limits.columns
                ),
            )
            .with_note(
                "each image column maps onto one column slice; wider inputs cannot be captured",
            ),
        );
    }
    let mut analysis = ShapeAnalysis { sites: Vec::new() };
    let final_shape = dataflow::run(program, start, &mut analysis, report);
    (analysis.sites, final_shape)
}

struct ShapeAnalysis<'p> {
    sites: Vec<Site<'p>>,
}

impl<'p> ForwardAnalysis<'p> for ShapeAnalysis<'p> {
    type State = [usize; 3];

    fn transfer(
        &mut self,
        inst: &'p Instruction,
        state: &[usize; 3],
        ctx: &Ctx<'_>,
        report: &mut Report,
    ) -> Option<[usize; 3]> {
        let shape = *state;
        let [c, h, w] = shape;
        let out = match inst {
            Instruction::Conv {
                name,
                out_c,
                kernel,
                stride,
                pad,
                ..
            } => {
                if *out_c == 0 {
                    report.push(
                        err("RE0102", format!("conv `{name}` has zero output channels"))
                            .at_layer(name)
                            .at_path(ctx.path),
                    );
                    None
                } else {
                    match ConvGeom::new(c, h, w, *kernel, *kernel, *stride, *pad) {
                        Ok(geom) => Some([*out_c, geom.out_h(), geom.out_w()]),
                        Err(e) => {
                            report.push(
                                err(
                                    "RE0101",
                                    format!("conv `{name}` cannot apply to {c}x{h}x{w}: {e}"),
                                )
                                .at_layer(name)
                                .at_path(ctx.path),
                            );
                            None
                        }
                    }
                }
            }
            Instruction::MaxPool {
                name,
                window,
                stride,
                pad,
            }
            | Instruction::AvgPool {
                name,
                window,
                stride,
                pad,
                ..
            } => match PoolGeom::new(c, h, w, *window, *stride, *pad) {
                Ok(geom) => Some([c, geom.out_h(), geom.out_w()]),
                Err(e) => {
                    report.push(
                        err(
                            "RE0101",
                            format!("pool `{name}` cannot apply to {c}x{h}x{w}: {e}"),
                        )
                        .at_layer(name)
                        .at_path(ctx.path),
                    );
                    None
                }
            },
            Instruction::Lrn { name, size, .. } => {
                if *size == 0 {
                    report.push(
                        err(
                            "RE0101",
                            format!("LRN `{name}` channel window must be positive"),
                        )
                        .at_layer(name)
                        .at_path(ctx.path),
                    );
                    // Shape is unaffected by LRN; keep analyzing downstream.
                }
                Some(shape)
            }
            Instruction::Inception { .. } => unreachable!("engine routes inception through join"),
        };
        self.sites.push(Site {
            inst,
            path: ctx.path.to_vec(),
            ordinal: ctx.ordinal,
            in_shape: Some(shape),
            out_shape: out,
        });
        out
    }

    fn join(
        &mut self,
        inst: &'p Instruction,
        state: &[usize; 3],
        exits: &[Option<[usize; 3]>],
        ctx: &Ctx<'_>,
        report: &mut Report,
    ) -> Option<[usize; 3]> {
        let Instruction::Inception { name, branches } = inst else {
            unreachable!("join is only called on inception nodes")
        };
        let out = if branches.is_empty() {
            report.push(
                err("RE0104", format!("inception `{name}` has zero branches"))
                    .at_layer(name)
                    .at_path(ctx.path),
            );
            None
        } else {
            let mut out_c = 0usize;
            let mut out_hw: Option<(usize, usize)> = None;
            let mut ok = true;
            for (bi, bout) in exits.iter().enumerate() {
                match bout {
                    Some([bc, bh, bw]) => {
                        out_c += bc;
                        match out_hw {
                            None => out_hw = Some((*bh, *bw)),
                            Some((ph, pw)) if (ph, pw) != (*bh, *bw) => {
                                let mut bpath = ctx.path.to_vec();
                                bpath.push(bi);
                                report.push(
                                    err(
                                        "RE0103",
                                        format!(
                                            "inception `{name}` branch {bi} output {bh}x{bw} \
                                             does not chain with {ph}x{pw} from earlier branches"
                                        ),
                                    )
                                    .at_layer(name)
                                    .at_path(&bpath)
                                    .with_note(
                                        "concatenation along channels requires every branch to \
                                         agree on the spatial extent",
                                    ),
                                );
                                ok = false;
                            }
                            Some(_) => {}
                        }
                    }
                    None => ok = false,
                }
            }
            if ok {
                // One exit per branch and `branches` is non-empty, so `ok`
                // (every exit `Some`) means the first exit set `out_hw`.
                let (fh, fw) = out_hw.expect("non-empty branches");
                Some([out_c, fh, fw])
            } else {
                None
            }
        };
        self.sites.push(Site {
            inst,
            path: ctx.path.to_vec(),
            ordinal: ctx.ordinal,
            in_shape: Some(*state),
            out_shape: out,
        });
        out
    }

    fn visit_unreachable(&mut self, inst: &'p Instruction, ctx: &Ctx<'_>, _report: &mut Report) {
        self.sites.push(Site {
            inst,
            path: ctx.path.to_vec(),
            ordinal: ctx.ordinal,
            in_shape: None,
            out_shape: None,
        });
    }

    fn chain_cut(&mut self, insts: &'p [Instruction], cut: usize, report: &mut Report) {
        if cut + 1 < insts.len() {
            let names: Vec<&str> = insts[cut + 1..].iter().map(Instruction::name).collect();
            report.push(
                Diagnostic::new(
                    Severity::Note,
                    DiagClass::ShapeDataflow,
                    "RE0105",
                    format!(
                        "{} instruction(s) unreachable after the dataflow cut at `{}`: {}",
                        names.len(),
                        insts[cut].name(),
                        names.join(", ")
                    ),
                )
                .at_path(&[cut + 1]),
            );
        }
    }
}
