"""Hardware-in-the-loop inference: OISA first layer + off-chip remainder.

Implements the right-hand side of the paper's Fig. 7: a QAT-trained model's
first convolution runs on the OISA behavioral hardware (realized weights,
crosstalk, BPD noise), and the remaining layers run as the "behavioral DNN
model" on the off-chip processor (here: the float NumPy layers).

Units: frames are (N, C, H, W) float arrays on a unit pixel scale; the
``TernaryInputLayer`` maps them to the VAM's three optical levels
{0, 0.5, 1} (paper Fig. 8) before the optics multiply.  Accuracies are
top-1 fractions in [0, 1].

Serving integration: ``program_cache`` plugs the pipeline into
:class:`repro.engine.cache.WeightProgramCache` (kernel swaps become O(1)
installs), ``activate`` re-arms a multiplexed die, the serving engine
calls ``forward`` once per micro-batch, and ``forward``'s ``core``
override lets :mod:`repro.engine.health` route a degraded window through
a :class:`~repro.sim.faults.FaultyOpticalCore` without touching the
healthy program.  Reprogramming is deterministic per die —
the scalar-reference bit-identity contract of :mod:`repro.core.reference`
guarantees a recovered node reproduces its pre-fault realized weights
exactly.

The quantized kernel set itself is die-independent, so it is computed
once per quant layer (:func:`kernel_set`) and shared by every pipeline,
die and server that serves that layer — the host-side counterpart of the
paper's program-once mapping (Sec. III).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.opc import KernelSet, OpticalProcessingCore
from repro.nn.layers import Sequential
from repro.nn.models import TernaryInputLayer, find_first_quant_conv
from repro.nn.quant import QuantConv2D, QuantDense

#: Quant layer -> (weight snapshot, quantizer, bits, kernel set).  A side
#: table with weak keys, not an attribute: an entry lives exactly as long
#: as its layer, and ``copy.deepcopy`` of a model (brownout variants)
#: never meets the kernel set's hash state, which cannot be copied.
_kernel_sets: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def kernel_set(layer: QuantConv2D | QuantDense) -> KernelSet:
    """``layer``'s quantized kernel set, built once per weight state.

    Every pipeline build and kernel swap of ``layer`` — on any die, in
    any server — reuses one :class:`~repro.core.opc.KernelSet`.  It is
    rebuilt only when the weights no longer equal the snapshot taken at
    build time, or the quantizer object or its bit width changed, so an
    in-place weight update is never served stale.

    Raises ``ValueError`` for non-finite weights, which have no scale and
    no AWC code.
    """
    weights = layer.weight.data
    quantizer = layer.quantizer
    memo = _kernel_sets.get(layer)
    if memo is not None:
        snapshot, owner, bits, kernels = memo
        if (
            owner is quantizer
            and bits == quantizer.bits
            and np.array_equal(snapshot, weights)
        ):
            return kernels
    if not np.isfinite(weights).all():
        raise ValueError("on-die layer has non-finite weights")
    kernels = KernelSet.build(
        quantizer.quantize(weights), quantizer.scale(weights)
    )
    _kernel_sets[layer] = (weights.copy(), quantizer, quantizer.bits, kernels)
    return kernels


class HardwareFirstLayerPipeline:
    """Evaluate a trained QAT model with its first layer in the optics.

    Parameters
    ----------
    model:
        A :func:`~repro.nn.models.build_lenet`-style Sequential whose first
        layers are ``TernaryInputLayer`` then ``QuantConv2D`` — or, for the
        paper's MLP mode, ``QuantDense`` (the VOM recombines the bank-split
        partial sums; numerically the full dot product).
    opc:
        The optical core to run the first layer on.  Its bit-width must
        match the model's first-layer quantizer.
    program_cache:
        Optional weight-program cache (duck-typed to
        :class:`repro.engine.cache.WeightProgramCache`).  When given, the
        expensive AWC mapping chain runs once per distinct (kernel set,
        weight bits, die seed) and kernel swaps back to a known set are
        restored from the cache.  Either way the kernel set comes from
        :func:`kernel_set`, so building or re-activating a pipeline never
        re-quantizes or re-hashes an unchanged layer.
    """

    def __init__(
        self,
        model: Sequential,
        opc: OpticalProcessingCore,
        program_cache=None,
    ) -> None:
        first = self._find_first_quant_layer(model)
        if first is None:
            raise ValueError(
                "model must start with a quantized first layer (QAT model); "
                "the float baseline cannot run on OISA hardware"
            )
        if not isinstance(model[0], TernaryInputLayer):
            raise ValueError("model must ternarize its input (VAM path)")
        self.model = model
        self.conv = first  # historical name; may be a QuantDense
        self.opc = opc
        self.program_cache = program_cache
        self._program()

    @staticmethod
    def _find_first_quant_layer(model: Sequential):
        conv = find_first_quant_conv(model)
        if conv is not None:
            return conv
        for layer in model:
            if isinstance(layer, QuantDense):
                return layer
            if isinstance(layer, TernaryInputLayer):
                continue
            break
        return None

    @property
    def is_dense(self) -> bool:
        """Whether the hardware layer is the MLP (VOM-split) mode."""
        return isinstance(self.conv, QuantDense)

    def _program(self) -> None:
        kernels = kernel_set(self.conv)
        if self.program_cache is not None:
            self.program_cache.get_or_program(self.opc, kernels)
        else:
            self.opc.program(kernels.weights, kernels.scale)

    def activate(self) -> None:
        """(Re)install this model's first-layer weights on the shared OPC.

        Serving engines multiplex several pipelines over one optical core;
        call this before ``forward`` when another model may have programmed
        the OPC since this pipeline last ran.  With a program cache the
        reactivation is a cache hit, not a fresh AWC mapping.
        """
        self._program()

    def _split_index(self) -> int:
        for index, layer in enumerate(self.model):
            if isinstance(layer, (QuantConv2D, QuantDense)):
                return index
        raise RuntimeError("quantized first layer disappeared from the model")

    def forward(
        self, x: np.ndarray, batch_size: int = 256, core=None
    ) -> np.ndarray:
        """Full-network logits with the first layer computed optically.

        Parameters
        ----------
        x:
            Input frames, (N, C, H, W) for conv models or any (N, ...)
            shape that flattens to the dense layer's features.
        batch_size:
            Frames per optical call (micro-batch).
        core:
            Optional stand-in for ``self.opc`` implementing the same
            ``convolve``/``dot`` surface — e.g. a
            :class:`~repro.sim.faults.FaultyOpticalCore` wrapping this
            pipeline's die during a degraded serving window.  The default
            runs on the healthy programmed core.
        """
        x = np.asarray(x, dtype=float)
        split = self._split_index()
        rest = self.model.layers[split + 1 :]
        optics = core if core is not None else self.opc
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            chunk = x[start : start + batch_size]
            ternary = self.model.layers[0].forward(chunk)  # {0, 0.5, 1}
            if self.is_dense:
                features = optics.dot(ternary.reshape(ternary.shape[0], -1))
            else:
                features = optics.convolve(
                    ternary, stride=self.conv.stride, padding=self.conv.padding
                )
            hidden = features
            for layer in rest:
                hidden = layer.forward(hidden, training=False)
            outputs.append(hidden)
        if len(outputs) == 1:  # every served micro-batch: skip the copy
            return outputs[0]
        return np.concatenate(outputs, axis=0)

    def evaluate(
        self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256
    ) -> float:
        """Top-1 accuracy with the optical first layer in the loop."""
        logits = self.forward(x, batch_size=batch_size)
        predictions = logits.argmax(axis=1)
        return float((predictions == np.asarray(labels)).mean())

    def weight_error_report(self) -> dict[str, float]:
        """Ideal-vs-realized first-layer weight statistics."""
        programmed = self.opc.programmed
        return {
            "rms_error": programmed.weight_error_rms,
            "relative_error": programmed.weight_error_relative,
            "mapping_iterations": float(programmed.mapping_iterations),
        }
