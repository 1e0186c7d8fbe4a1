//! `lut-infer`: one op is one `tiny_cnn(64, 10)` forward pass through
//! the LUT datapath (`run_sequential_lut`: im2col plus BCE matmul tiles
//! on the SWAR LUT multiply, max-pool, PWL softmax) over a fixed pool of
//! seeded inputs. The traced op replays the same pass layer by layer
//! through `FunctionalPipeline`'s public per-op methods.

use std::time::{Duration, Instant};

use bfree::functional::{run_sequential_lut, FunctionalPipeline};
use pim_nn::executor::{run_sequential, tiny_cnn, NetworkWeights};
use pim_nn::layers::{Act, LayerOp, Network, PoolKind};
use pim_nn::tensor::{Tensor, TensorShape};
use pim_nn::workload::WorkloadGen;

use crate::spans::Spans;
use crate::{gate, Failure, Outcome, Setup, Workload};

/// Weight and input seed when none is given (the network-execution
/// test's seed).
pub const DEFAULT_SEED: u64 = 777;
/// Input height and width.
pub const INPUT_HW: usize = 64;
/// Output classes.
pub const CLASSES: usize = 10;
/// Distinct inputs the ops cycle through.
pub const POOL: usize = 16;
/// Largest allowed gap between a LUT-datapath probability and the f32
/// reference executor's (the bound of the network-execution tests).
pub const REFERENCE_TOLERANCE: f32 = 0.1;

/// Generated inputs: network, weights, the input pool and each input's
/// expected LUT-datapath output.
#[derive(Debug, Clone)]
pub struct Inputs {
    net: Network,
    weights: NetworkWeights,
    inputs: Vec<Tensor<f32>>,
    expected: Vec<Tensor<f32>>,
}

impl Inputs {
    /// Draws weights and `POOL` inputs from `seed`, runs each input once
    /// through the LUT datapath and once through the f32 reference, and
    /// keeps the LUT output as the expected result of every later op.
    ///
    /// # Errors
    ///
    /// `lut-infer.reference` when a probability drifts past
    /// [`REFERENCE_TOLERANCE`] from the reference executor.
    pub fn generate(seed: u64) -> Result<Self, Failure> {
        let net = tiny_cnn(INPUT_HW, CLASSES);
        let mut gen = WorkloadGen::new(seed);
        let weights = NetworkWeights::random(&net, &mut gen, 0.4)
            .map_err(|e| Failure::new("lut-infer.inputs", e.to_string()))?;
        let inputs: Vec<Tensor<f32>> = (0..POOL)
            .map(|_| gen.uniform_f32(TensorShape::chw(1, INPUT_HW, INPUT_HW), -1.0, 1.0))
            .collect();
        let pipeline = FunctionalPipeline::new()
            .map_err(|e| Failure::new("lut-infer.inputs", e.to_string()))?;
        let mut expected = Vec::with_capacity(POOL);
        for (i, input) in inputs.iter().enumerate() {
            let reference = run_sequential(&net, &weights, input)
                .map_err(|e| Failure::new("lut-infer.reference", e.to_string()))?;
            let lut = run_sequential_lut(&pipeline, &net, &weights, input)
                .map_err(|e| Failure::new("lut-infer.run", e.to_string()))?;
            let drift = reference
                .data()
                .iter()
                .zip(lut.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            gate(
                reference.shape() == lut.shape() && drift < REFERENCE_TOLERANCE,
                "lut-infer.reference",
                || format!("input {i}: probability drift {drift} (limit {REFERENCE_TOLERANCE})"),
            )?;
            expected.push(lut);
        }
        Ok(Inputs {
            net,
            weights,
            inputs,
            expected,
        })
    }

    /// The input pool.
    pub fn inputs(&self) -> &[Tensor<f32>] {
        &self.inputs
    }

    /// MACs of the network's weight layers, from the layer table.
    pub fn table_macs(&self) -> u64 {
        self.net.weight_layers().map(|l| l.macs()).sum()
    }
}

/// Whether two tensors hold the same shape and bit-identical values.
pub fn bit_identical(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.data().len() == b.data().len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays `run_sequential_lut` layer by layer through the pipeline's
/// public per-op methods, with a span around each layer. Supports the
/// operators of `tiny_cnn`.
///
/// # Errors
///
/// `lut-infer.replay` for an operator `tiny_cnn` does not use or a
/// shape mismatch.
pub fn replay(
    pipeline: &FunctionalPipeline,
    net: &Network,
    weights: &NetworkWeights,
    input: &Tensor<f32>,
    spans: &mut Spans,
) -> Result<Tensor<f32>, Failure> {
    let fail = |e: &dyn std::fmt::Display| Failure::new("lut-infer.replay", e.to_string());
    let mut x = input.clone();
    for layer in net.layers() {
        // The implicit flatten at the feature-map -> vector boundary.
        if x.shape() != layer.input_shape()
            && x.len() == layer.input_shape().volume()
            && layer.input_shape().rank() == 1
        {
            x.reshape(layer.input_shape().clone())
                .map_err(|e| fail(&e))?;
        }
        x = match *layer.op() {
            LayerOp::Conv2d {
                stride, padding, ..
            } => {
                let (filters, bias) = weights
                    .conv
                    .get(layer.name())
                    .ok_or_else(|| fail(&"missing conv weights"))?;
                let name = match layer.name() {
                    "conv1" => "nn.conv1",
                    "conv2" => "nn.conv2",
                    _ => "nn.conv",
                };
                spans
                    .time(name, || pipeline.conv2d(&x, filters, bias, stride, padding))
                    .map_err(|e| fail(&e))?
            }
            LayerOp::Linear { .. } => {
                let (w, bias) = weights
                    .linear
                    .get(layer.name())
                    .ok_or_else(|| fail(&"missing linear weights"))?;
                let out = spans
                    .time("nn.fc", || pipeline.linear(x.data(), w, bias))
                    .map_err(|e| fail(&e))?;
                Tensor::from_vec(TensorShape::vector(out.len()), out).map_err(|e| fail(&e))?
            }
            LayerOp::Pool {
                kind,
                kernel,
                stride,
                ..
            } => spans
                .time("nn.pool", || match kind {
                    PoolKind::Max => pipeline.max_pool2d(&x, kernel, stride),
                    PoolKind::Avg => {
                        pim_nn::reference::avg_pool2d(&x, kernel, stride).map_err(Into::into)
                    }
                })
                .map_err(|e| fail(&e))?,
            LayerOp::Activation(Act::Relu) => {
                let data = spans.time("nn.act", || pipeline.relu(x.data()));
                Tensor::from_vec(x.shape().clone(), data).map_err(|e| fail(&e))?
            }
            LayerOp::Activation(Act::Softmax) => {
                let data: Vec<f32> = spans
                    .time("nn.softmax", || pipeline.softmax(x.data()))
                    .map_err(|e| fail(&e))?
                    .into_iter()
                    .map(|v| v as f32)
                    .collect();
                Tensor::from_vec(x.shape().clone(), data).map_err(|e| fail(&e))?
            }
            ref op => return Err(fail(&format!("{op:?} is not replayed"))),
        };
        let expected = layer.output_shape();
        if x.shape() != &expected && x.len() == expected.volume() {
            x.reshape(expected).map_err(|e| fail(&e))?;
        }
    }
    Ok(x)
}

/// The workload after set-up.
#[derive(Debug)]
pub struct LutInfer {
    pipeline: FunctionalPipeline,
    inputs: Inputs,
    next: usize,
}

impl Setup for Inputs {
    /// Builds the LUT pipeline (the timed part).
    fn setup(&self, _spans: &mut Spans) -> Result<(Box<dyn Workload>, Duration), Failure> {
        let inputs = self.clone();
        let start = Instant::now();
        let pipeline = FunctionalPipeline::new();
        let timed = start.elapsed();
        let pipeline = pipeline.map_err(|e| Failure::new("lut-infer.setup", e.to_string()))?;
        let workload = LutInfer {
            pipeline,
            inputs,
            next: 0,
        };
        Ok((Box::new(workload), timed))
    }
}

impl Workload for LutInfer {
    fn op(&mut self, spans: &mut Spans) -> Result<Outcome, Failure> {
        let i = self.next % POOL;
        self.next += 1;
        let (net, weights, input) = (
            &self.inputs.net,
            &self.inputs.weights,
            &self.inputs.inputs[i],
        );
        let bce = self.pipeline.bce();
        let (rom0, lut0) = (bce.rom_reads(), bce.subarray_lut_reads());
        spans.enter("nn.op");
        let out = if spans.enabled() {
            replay(&self.pipeline, net, weights, input, spans)?
        } else {
            run_sequential_lut(&self.pipeline, net, weights, input)
                .map_err(|e| Failure::new("lut-infer.run", e.to_string()))?
        };
        spans.exit();
        gate(
            bit_identical(&out, &self.inputs.expected[i]),
            "lut-infer.bit_identical",
            || format!("input {i}: output differs from its first LUT-datapath run"),
        )?;
        let bce = self.pipeline.bce();
        spans.count("bce.rom_reads_per_inf", (bce.rom_reads() - rom0) as f64);
        spans.count(
            "bce.lut_reads_per_inf",
            (bce.subarray_lut_reads() - lut0) as f64,
        );
        spans.count("nn.table_macs", self.inputs.table_macs() as f64);
        Ok(Outcome::WHOLE)
    }
}
