//! Cross-frame batched execution on the work-stealing scheduler.
//!
//! RedEye is a *continuous* vision sensor: the interesting throughput
//! metric is sustained frames/sec over a stream, not the latency of one
//! frame. Within-frame parallelism is Amdahl-capped: every instruction
//! splits and joins its own bands, and small stages stay serial. (The
//! comparator max-pool, not the GEMM, dominates frame time; see
//! perfbench's `stage.maxpool_ms`.) So the next scaling axis is *across*
//! frames: [`BatchExecutor`] runs each batch's frame indices as tasks on
//! [`run_stealing`], the same scheduler the fleet executor uses, against
//! one immutable [`FrameEngine`]. Each worker borrows one of the
//! executor's pre-allocated [`FrameCtx`]s, whose conv workspace survives
//! from batch to batch (steady-state frames perform no GEMM packing
//! allocations on any worker).
//!
//! # Determinism
//!
//! Frame `base + i`'s noise is a pure function of `(seed, base + i,
//! instruction, site, draw)` — never of the worker that ran it, the steal
//! schedule, or the pool size. The scheduler returns results in *frame
//! order*; the merged ledger is folded frame-by-frame in that order (the
//! same band-order discipline the column-parallel stages use), and the
//! cumulative forced-comparator diagnostic is accumulated in frame order
//! too. Batched output is therefore **bit-identical to the serial
//! [`Executor`](crate::Executor)** for the same seed, at any worker count
//! and any batch size.

use crate::executor::{ExecutionResult, FrameCtx, FrameEngine};
use crate::stealing::{run_stealing, StealOptions};
use crate::{CoreError, EnergyLedger, Program, Result};
use redeye_tensor::Tensor;
use std::sync::{Mutex, PoisonError};

/// The result of one batch of frames.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-frame results in frame order, bit-identical to what the serial
    /// executor would have produced for the same seed and frame numbers
    /// (including the cumulative `forced_decisions` diagnostic).
    pub frames: Vec<ExecutionResult>,
    /// All per-frame ledgers merged in frame order.
    pub ledger: EnergyLedger,
}

impl BatchResult {
    /// Total frames in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Drives batches of frames through a worker pool sharing one
/// [`FrameEngine`].
///
/// Each batch runs on the work-stealing scheduler with up to `workers`
/// workers; worker `w` reuses the `w`-th pre-allocated [`FrameCtx`] across
/// batches. Output is bit-identical to the serial
/// [`Executor`](crate::Executor) for the same seed at any worker count and
/// any batch size (see the module docs for why).
///
/// # Example
///
/// ```
/// use redeye_core::{compile, BatchExecutor, CompileOptions, Executor, WeightBank};
/// use redeye_nn::{build_network, zoo, WeightInit};
/// use redeye_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), redeye_core::CoreError> {
/// let spec = zoo::micronet(4, 10);
/// let prefix = spec.prefix_through("pool1").expect("micronet has pool1");
/// let mut rng = Rng::seed_from(1);
/// let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng)?;
/// let mut bank = WeightBank::from_network(&mut net);
/// let program = compile(&prefix, &mut bank, &CompileOptions::default())?;
///
/// let frames: Vec<Tensor> = (0..4).map(|_| Tensor::full(&[3, 32, 32], 0.5)).collect();
/// let mut batch = BatchExecutor::new(program.clone(), 42, 2)?;
/// let result = batch.execute_batch(&frames)?;
///
/// // Bit-identical to the serial executor, frame for frame.
/// let mut serial = Executor::new(program, 42);
/// for (i, frame) in frames.iter().enumerate() {
///     let want = serial.execute(frame)?;
///     assert_eq!(want.features, result.frames[i].features);
///     assert_eq!(want.codes, result.frames[i].codes);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchExecutor {
    engine: FrameEngine,
    /// One reusable frame context per worker.
    ctxs: Vec<Mutex<FrameCtx>>,
    /// Frame number the next batch starts at.
    next_frame: u64,
    /// Cumulative forced comparator decisions across all batches, folded
    /// in frame order.
    forced_total: u64,
}

impl BatchExecutor {
    /// Creates a batch executor for `program` with `workers` workers
    /// (clamped to at least 1), seeding all stochastic behaviour from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the program fails static
    /// verification — checked eagerly here, so a bad program never reaches
    /// a worker.
    pub fn new(program: Program, seed: u64, workers: usize) -> Result<Self> {
        Self::with_engine(FrameEngine::new(program, seed), workers)
    }

    /// Creates a batch executor around a pre-configured engine (the
    /// intra-frame thread budget is set on the engine before handoff).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verify`] if the engine's program fails static
    /// verification.
    pub fn with_engine(engine: FrameEngine, workers: usize) -> Result<Self> {
        engine.verify()?;
        Ok(BatchExecutor {
            engine,
            ctxs: (0..workers.max(1))
                .map(|_| Mutex::new(FrameCtx::new()))
                .collect(),
            next_frame: 0,
            forced_total: 0,
        })
    }

    /// Number of workers a batch may use.
    pub fn workers(&self) -> usize {
        self.ctxs.len()
    }

    /// The shared engine (program, stream, knobs).
    pub fn engine(&self) -> &FrameEngine {
        &self.engine
    }

    /// The frame number the next batch's first frame will run as.
    pub fn next_frame(&self) -> u64 {
        self.next_frame
    }

    /// Repositions the frame counter so the next batch starts at frame `n`
    /// — the batched counterpart of
    /// [`Executor::seek_frame`](crate::Executor::seek_frame), with the same
    /// caveat: the cumulative forced-decision diagnostic does not replay
    /// skipped frames.
    pub fn seek_frame(&mut self, n: u64) {
        self.next_frame = n;
    }

    /// Executes `inputs` as frames `next_frame .. next_frame + inputs.len()`
    /// across the workers and returns the results in frame order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProgram`] if any input's shape does not match
    /// the program (checked up front, before dispatch — the frame counter
    /// does not advance), or the lowest-frame execution error otherwise.
    pub fn execute_batch(&mut self, inputs: &[Tensor]) -> Result<BatchResult> {
        for (i, input) in inputs.iter().enumerate() {
            if input.dims() != self.engine.program().input {
                return Err(CoreError::BadProgram {
                    reason: format!(
                        "batch frame {i}: input shape {:?} does not match program input {:?}",
                        input.dims(),
                        self.engine.program().input
                    ),
                });
            }
        }
        let (engine, ctxs, base) = (&self.engine, &self.ctxs, self.next_frame);
        let indices: Vec<usize> = (0..inputs.len()).collect();
        let (outputs, _) = run_stealing(
            &indices,
            ctxs.len(),
            StealOptions::default(),
            // Worker `w` is the only user of `ctxs[w]`, so the lock never
            // waits. A poisoned context only means an earlier frame panicked
            // mid-run; its workspace is scratch every frame overwrites.
            |w| ctxs[w].lock().unwrap_or_else(PoisonError::into_inner),
            |ctx, &i| engine.run_frame(base + i as u64, &inputs[i], ctx),
        );

        // Deterministic frame-order merge: cumulative forced tally and the
        // f64 ledger fold both walk frames in order, so the totals are
        // bit-identical to a serial run regardless of the steal schedule.
        let mut frames = Vec::with_capacity(outputs.len());
        let mut ledger = EnergyLedger::new();
        for out in outputs {
            let out = out?;
            self.forced_total += out.forced;
            ledger.merge(&out.ledger);
            frames.push(ExecutionResult {
                features: out.features,
                codes: out.codes,
                ledger: out.ledger,
                elapsed: out.elapsed,
                forced_decisions: self.forced_total,
                rail_clips: out.rail_clips,
                code_mac_hits: out.code_mac_hits,
            });
        }
        self.next_frame += inputs.len() as u64;
        Ok(BatchResult { frames, ledger })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, WeightBank};
    use crate::{Executor, Instruction};
    use redeye_analog::SnrDb;
    use redeye_nn::{build_network, zoo, WeightInit};
    use redeye_tensor::Rng;

    fn micronet_program(snr_db: f64, adc_bits: u32) -> Program {
        let spec = zoo::micronet(8, 10);
        let prefix = spec.prefix_through("pool3").unwrap();
        let mut rng = Rng::seed_from(17);
        let mut net = build_network(&prefix, WeightInit::HeNormal, &mut rng).unwrap();
        let mut bank = WeightBank::from_network(&mut net);
        let opts = CompileOptions {
            weight_bits: 8,
            snr: SnrDb::new(snr_db),
            adc_bits,
            ..CompileOptions::default()
        };
        compile(&prefix, &mut bank, &opts).unwrap()
    }

    fn frame_stream(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| Tensor::uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
            .collect()
    }

    /// Serial reference results plus the frame-order merged ledger.
    fn serial_reference(
        program: &Program,
        seed: u64,
        inputs: &[Tensor],
    ) -> (Vec<ExecutionResult>, EnergyLedger) {
        let mut exec = Executor::new(program.clone(), seed);
        let mut merged = EnergyLedger::new();
        let results: Vec<ExecutionResult> = inputs
            .iter()
            .map(|input| {
                let r = exec.execute(input).unwrap();
                merged.merge(&r.ledger);
                r
            })
            .collect();
        (results, merged)
    }

    fn assert_frames_eq(want: &[ExecutionResult], got: &[ExecutionResult], tag: &str) {
        assert_eq!(want.len(), got.len(), "{tag}: frame count");
        for (f, (w, g)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(w.features, g.features, "{tag}: frame {f} features");
            assert_eq!(w.codes, g.codes, "{tag}: frame {f} codes");
            assert!(w.ledger == g.ledger, "{tag}: frame {f} ledger diverged");
            assert_eq!(
                w.elapsed.value(),
                g.elapsed.value(),
                "{tag}: frame {f} elapsed"
            );
            assert_eq!(
                w.forced_decisions, g.forced_decisions,
                "{tag}: frame {f} forced tally"
            );
        }
    }

    #[test]
    fn batch_matches_serial_across_worker_counts() {
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(6, 99);
        let (want, want_ledger) = serial_reference(&program, 7, &inputs);
        for workers in [1usize, 2, 4] {
            let mut batch = BatchExecutor::new(program.clone(), 7, workers).unwrap();
            let result = batch.execute_batch(&inputs).unwrap();
            assert_frames_eq(&want, &result.frames, &format!("{workers} workers"));
            assert!(
                result.ledger == want_ledger,
                "{workers} workers: merged ledger diverged"
            );
        }
    }

    #[test]
    fn batches_smaller_than_the_pool_match_serial() {
        // 4 workers on a 1-frame batch (inline path) and a 3-frame batch
        // (pool clamped to 3 workers) still reproduce the serial stream.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(4, 23);
        let (want, _) = serial_reference(&program, 13, &inputs);
        let mut batch = BatchExecutor::new(program, 13, 4).unwrap();
        let mut got = batch.execute_batch(&inputs[..1]).unwrap().frames;
        got.extend(batch.execute_batch(&inputs[1..]).unwrap().frames);
        assert_frames_eq(&want, &got, "batches of 1 and 3 on 4 workers");
        assert_eq!(batch.next_frame(), 4);
    }

    #[test]
    fn batch_split_is_invariant() {
        // Feeding the stream as batches of 1, 2, or all-at-once yields the
        // same per-frame results: the frame counter carries across batches.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(6, 41);
        let (want, _) = serial_reference(&program, 3, &inputs);
        for batch_size in [1usize, 2, 6] {
            let mut batch = BatchExecutor::new(program.clone(), 3, 2).unwrap();
            let mut got = Vec::new();
            for chunk in inputs.chunks(batch_size) {
                got.extend(batch.execute_batch(chunk).unwrap().frames);
            }
            assert_frames_eq(&want, &got, &format!("batch size {batch_size}"));
        }
    }

    #[test]
    fn seek_frame_aligns_with_serial_stream() {
        // Batch frames k.. match a serial executor that already ran k frames.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(5, 77);
        let mut serial = Executor::new(program.clone(), 21);
        for input in &inputs[..2] {
            serial.execute(input).unwrap();
        }
        let want: Vec<ExecutionResult> = inputs[2..]
            .iter()
            .map(|i| serial.execute(i).unwrap())
            .collect();
        let mut batch = BatchExecutor::new(program, 21, 2).unwrap();
        batch.seek_frame(2);
        let got = batch.execute_batch(&inputs[2..]).unwrap();
        assert_eq!(batch.next_frame(), 5);
        // Features/codes/ledgers match; the forced tally does not (serial
        // accumulated frames 0-1 first), mirroring Executor::seek_frame.
        for (w, g) in want.iter().zip(got.frames.iter()) {
            assert_eq!(w.features, g.features);
            assert_eq!(w.codes, g.codes);
            assert!(w.ledger == g.ledger);
        }
    }

    #[test]
    fn merged_ledger_totals_match_per_frame_sum() {
        let program = micronet_program(40.0, 4);
        let inputs = frame_stream(4, 15);
        let mut batch = BatchExecutor::new(program, 9, 2).unwrap();
        let result = batch.execute_batch(&inputs).unwrap();
        let macs: u64 = result.frames.iter().map(|f| f.ledger.macs).sum();
        let conversions: u64 = result.frames.iter().map(|f| f.ledger.conversions).sum();
        assert_eq!(result.ledger.macs, macs);
        assert_eq!(result.ledger.conversions, conversions);
        assert_eq!(result.len(), 4);
        assert!(!result.is_empty());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let program = micronet_program(40.0, 4);
        let mut batch = BatchExecutor::new(program, 1, 2).unwrap();
        let result = batch.execute_batch(&[]).unwrap();
        assert!(result.is_empty());
        assert_eq!(batch.next_frame(), 0);
    }

    #[test]
    fn unverifiable_program_rejected_at_construction() {
        let mut program = micronet_program(40.0, 4);
        if let Instruction::Conv { codes, .. } = &mut program.instructions[0] {
            codes[0] = 10_000; // beyond the 8-bit DAC range
        }
        match BatchExecutor::new(program, 1, 2) {
            Err(CoreError::Verify(report)) => assert!(report.has_errors()),
            other => panic!("expected Verify error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_shape_rejected_before_dispatch() {
        let program = micronet_program(40.0, 4);
        let mut batch = BatchExecutor::new(program, 1, 2).unwrap();
        let bad = vec![Tensor::zeros(&[3, 32, 32]), Tensor::zeros(&[3, 16, 16])];
        assert!(batch.execute_batch(&bad).is_err());
        // The frame counter did not advance; a good batch still works.
        assert_eq!(batch.next_frame(), 0);
        let good = frame_stream(2, 1);
        assert_eq!(batch.execute_batch(&good).unwrap().len(), 2);
    }

    #[test]
    fn pool_survives_many_batches() {
        // Workers and their workspaces persist: many small batches through
        // the same pool keep producing serial-identical frames.
        let program = micronet_program(35.0, 8);
        let inputs = frame_stream(8, 63);
        let (want, _) = serial_reference(&program, 29, &inputs);
        let mut batch = BatchExecutor::new(program, 29, 2).unwrap();
        let mut got = Vec::new();
        for chunk in inputs.chunks(2) {
            got.extend(batch.execute_batch(chunk).unwrap().frames);
        }
        assert_frames_eq(&want, &got, "8 frames over 4 batches");
        assert_eq!(batch.next_frame(), 8);
        assert_eq!(batch.workers(), 2);
    }
}
