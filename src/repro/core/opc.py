"""Optical Processing Core: photonic MAC with full non-ideality chain.

The OPC realises a convolution in four physical steps (Fig. 2, circled
1-3 in the paper):

1. **Weight mapping** — quantized integer weight codes pass through the
   AWC ladders (static mismatch + compression), producing effective weight
   *levels*; the levels set MR carrier transmissions on the positive or
   negative rail of an arm.
2. **Crosstalk** — every MR's Lorentzian tail slightly attenuates its
   neighbours' channels, perturbing the programmed weights (systematic,
   per-arm).
3. **Modulated activation light** — ternary VCSEL symbols per pixel.
4. **Balanced detection** — the BPD subtracts the rails and adds read
   noise (shot + thermal, expressed as a fraction of the arm's full-scale
   MAC).

``program`` performs steps 1-2 once per kernel set (the paper notes the
mapping "can bypass this step" afterwards); ``convolve``/``dot`` run steps
3-4 per frame, vectorised with the same im2col kernels the NN substrate
uses.

Units: weights and activations are dimensionless (weight units /
ternary optical levels on a unit scale); tuning budgets are J/s/W;
resonance detunings are metres of wavelength shift.  Paper anchors:
Section III (OPC structure, AWC/weight mapping, MR device engineering)
and Fig. 2's circled datapath stages.

Bit-identity contract: the vectorized ``program`` chain (AWC realize →
batched crosstalk → batched tuning budget) must produce *exactly* the
same floats as the retained scalar loops in :mod:`repro.core.reference`
— same elementwise operations, sequential-``sum`` accumulation order
(``cumsum``, not pairwise) — enforced by
``tests/test_vectorized_equivalence.py`` and the ``repr()`` goldens in
``tests/goldens/``.  The serving cache
(:mod:`repro.engine.cache`) and the recalibration path
(:mod:`repro.engine.health`) both lean on this: reprogramming a die is
guaranteed to reproduce the cached record bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.awc import AwcWeightMapper
from repro.core.config import OISAConfig
from repro.nn.functional import conv2d_forward
from repro.photonics.microring import MicroringResonator
from repro.photonics.tuning import TuningBudget
from repro.photonics.wdm import WdmGrid, effective_arm_transmissions
from repro.util.rng import derive_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class KernelSet:
    """A quantized kernel set, ready to program on any die.

    ``weights`` is the read-only fake-quantized tensor (integer codes times
    ``scale``) that :meth:`OpticalProcessingCore.program` maps.  ``prefix``
    is a sha256 state over the die-independent head of the program key —
    the tensor bytes, its shape and the scale — which
    :meth:`repro.engine.cache.WeightProgramCache.key_for` copies and
    extends per die, so no die re-hashes the tensor.
    :func:`repro.core.pipeline.kernel_set` builds one per quant layer.
    """

    weights: np.ndarray
    scale: float
    prefix: Any

    @classmethod
    def build(cls, quantized_weights: np.ndarray, scale: float) -> "KernelSet":
        """Freeze a copy of ``quantized_weights`` and hash its key prefix."""
        weights = np.array(quantized_weights, dtype=float, order="C")
        weights.flags.writeable = False
        prefix = hashlib.sha256(weights.tobytes())
        prefix.update(repr(weights.shape).encode())
        prefix.update(repr(float(scale)).encode())
        return cls(weights, scale, prefix)


@dataclass(frozen=True)
class ProgrammedWeights:
    """Result of mapping a weight tensor onto the OPC.

    ``realized`` is the effective weight tensor the optics implement (same
    shape/scale as the ideal quantized weights); ``tuning`` prices the MR
    retunes the mapping needed.
    """

    ideal: np.ndarray
    realized: np.ndarray
    scale: float
    tuning: TuningBudget
    mapping_iterations: int

    @cached_property
    def realized_full_scale(self) -> float:
        """``max|realized|`` — the read-out scale, computed once per record.

        Cached lazily, not stored: the record's fields (and so the
        :class:`~repro.engine.store.ProgramStore` schema) stay as they
        are, and the realized tensor is never mutated after mapping.
        """
        return float(np.max(np.abs(self.realized)))

    @property
    def weight_error_rms(self) -> float:
        """RMS of (realized - ideal), in weight units."""
        return float(np.sqrt(np.mean((self.realized - self.ideal) ** 2)))

    @property
    def weight_error_relative(self) -> float:
        """RMS error relative to the full-scale weight magnitude."""
        full_scale = float(np.max(np.abs(self.ideal)))
        if full_scale == 0.0:
            return 0.0
        return self.weight_error_rms / full_scale


class OpticalProcessingCore:
    """Behavioral OPC bound to one :class:`~repro.core.config.OISAConfig`."""

    def __init__(
        self,
        config: OISAConfig | None = None,
        seed: int | None = None,
        enable_crosstalk: bool = True,
        enable_read_noise: bool = True,
    ) -> None:
        self.config = config or OISAConfig()
        self.seed = seed
        self.enable_crosstalk = enable_crosstalk
        self.enable_read_noise = enable_read_noise
        self.awc = AwcWeightMapper(
            self.config.awc_design,
            num_units=self.config.num_awc_units,
            seed=seed,
        )
        self.ring = MicroringResonator(self.config.microring)
        self.grid = self.config.wdm
        self._read_rng = derive_rng(seed, "opc-read-noise")
        self._programmed: ProgrammedWeights | None = None

    # ------------------------------------------------------------------
    # Weight programming
    # ------------------------------------------------------------------
    def program(self, quantized_weights: np.ndarray, scale: float) -> ProgrammedWeights:
        """Map a fake-quantized weight tensor onto the MR array.

        Parameters
        ----------
        quantized_weights:
            Tensor of shape (F, C, K, K) (conv) or (out, in) (dense) whose
            values are integer codes times ``scale``.
        scale:
            The quantizer scale (weight units per LSB).
        """
        check_positive("scale", scale)
        ideal = np.asarray(quantized_weights, dtype=float)
        realized = self._realize(ideal, scale)
        tuning = self._mapping_tuning_budget(realized, scale)
        self._programmed = ProgrammedWeights(
            ideal=ideal,
            realized=realized,
            scale=scale,
            tuning=tuning,
            mapping_iterations=self.config.weight_mapping_iterations,
        )
        return self._programmed

    def install(self, programmed: ProgrammedWeights) -> ProgrammedWeights:
        """Restore a previously computed weight mapping without re-running it.

        The serving engine caches :class:`ProgrammedWeights` per (kernel
        set, weight bits, die seed); installing a cached record makes a
        kernel swap back to a known set O(1) instead of repeating the
        AWC realization + crosstalk + tuning-budget chain.  The record must
        come from an OPC with the same configuration and seed — the cache
        key enforces that.
        """
        self._programmed = programmed
        return programmed

    @property
    def is_programmed(self) -> bool:
        """Whether a weight set is currently mapped."""
        return self._programmed is not None

    @property
    def programmed(self) -> ProgrammedWeights:
        """The currently-mapped weights (raises if nothing is programmed)."""
        if self._programmed is None:
            raise RuntimeError("no weights programmed; call program() first")
        return self._programmed

    def _realize(self, quantized: np.ndarray, scale: float) -> np.ndarray:
        """AWC realization + (optional) crosstalk — the shared cold chain.

        Single owner of the realize logic for both :meth:`program` and the
        :meth:`weight_transform` QAT hook.
        """
        realized = self.awc.realize_quantized_weights(quantized, scale)
        if self.enable_crosstalk:
            realized = self._apply_crosstalk(realized, scale)
        return realized

    def _apply_crosstalk(self, weights: np.ndarray, scale: float) -> np.ndarray:
        """Perturb weights by each arm's inter-channel crosstalk.

        Weights are grouped into arms (one 3x3 plane per arm; larger
        kernels chunk across arms), magnitudes are mapped onto MR
        transmissions in [T_min, 1], every arm's effective transmissions
        are computed in one batched Lorentzian-tail tensor, and the result
        is mapped back to weight units.
        """
        flat = weights.reshape(-1)
        arm_size = self.config.mrs_per_arm
        t_min = self.ring.min_transmission
        full_scale = float(np.max(np.abs(flat)))
        if full_scale == 0.0:
            return weights.copy()

        padded_len = -(-flat.size // arm_size) * arm_size
        padded = np.zeros(padded_len)
        padded[: flat.size] = flat
        arms = padded.reshape(-1, arm_size)

        span = 1.0 - t_min
        magnitudes = np.abs(arms) / full_scale
        transmissions = t_min + magnitudes * span
        effective = effective_arm_transmissions(
            self.grid, transmissions, ring=self.ring
        )
        recovered = np.clip((effective - t_min) / span, 0.0, None) * full_scale
        out = np.sign(arms) * recovered
        return out.reshape(-1)[: flat.size].reshape(weights.shape)

    def _mapping_tuning_budget(self, weights: np.ndarray, scale: float) -> TuningBudget:
        """Price the MR retunes of one full weight mapping.

        Each weight needs a resonance shift proportional to its target
        transmission; the controller runs ``weight_mapping_iterations``
        sequential AWC sweeps, so total latency is iterations x per-sweep
        settle time while energy sums over all MRs.  The detuning solve and
        the cost aggregation are one batched call each.
        """
        flat = np.abs(weights.reshape(-1))
        full_scale = float(flat.max())
        t_min = self.ring.min_transmission
        if full_scale == 0.0:
            return TuningBudget(0.0, 0.0, 0.0)
        transmissions = t_min + (flat / full_scale) * (1.0 - t_min)
        shifts = self.ring.detuning_for_transmission(
            np.clip(transmissions, t_min, 1.0)
        )
        per_sweep = self.config.tuning.mapping_cost(shifts)
        iterations = self.config.weight_mapping_iterations
        return TuningBudget(
            energy_j=per_sweep.energy_j,
            latency_s=per_sweep.latency_s * iterations,
            holding_power_w=per_sweep.holding_power_w,
        )

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def convolve(
        self,
        activations: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """First-layer convolution on ternary-encoded activations.

        ``activations`` is (N, C, H, W) with values in {0, 0.5, 1} (the
        VAM's three optical levels on a unit scale).  Uses the *realized*
        weights and adds per-read BPD noise.
        """
        programmed = self.programmed
        weights = programmed.realized
        if weights.ndim != 4:
            raise ValueError("programmed weights are not convolutional")
        out, _ = conv2d_forward(
            np.asarray(activations, dtype=float), weights, None, stride, padding
        )
        return self._add_read_noise(
            out, weights, programmed.realized_full_scale
        )

    def dot(self, activations: np.ndarray) -> np.ndarray:
        """First-layer dense product on (N, D) ternary activations."""
        programmed = self.programmed
        weights = programmed.realized
        if weights.ndim != 2:
            raise ValueError("programmed weights are not dense")
        out = np.asarray(activations, dtype=float) @ weights.T
        return self._add_read_noise(
            out, weights, programmed.realized_full_scale
        )

    def _add_read_noise(
        self, values: np.ndarray, weights: np.ndarray, full_scale_weight: float
    ) -> np.ndarray:
        """BPD read noise on ``values`` computed with ``weights``, whose
        ``max|w|`` is ``full_scale_weight``."""
        if not self.enable_read_noise or self.config.bpd_read_noise_fraction == 0.0:
            return values
        arm_full_scale = self.config.macs_per_arm * full_scale_weight  # A=1 max
        if weights.ndim == 4:
            # Cross-channel summation combines C independent arm reads,
            # each kernel plane spanning ceil(K^2 / arm size) arms.
            arms_per_plane = -(-weights.shape[2] * weights.shape[3] // self.config.mrs_per_arm)
            num_arm_reads = weights.shape[1] * arms_per_plane
        else:
            num_arm_reads = max(1, -(-weights.shape[1] // self.config.mrs_per_bank))
        sigma = (
            self.config.bpd_read_noise_fraction
            * arm_full_scale
            * np.sqrt(num_arm_reads)
        )
        # Same floats and generator state as ``normal(0.0, sigma, shape)``,
        # which computes ``0.0 + sigma * z`` per element; cheaper.
        return values + sigma * self._read_rng.standard_normal(values.shape)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def weight_transform(self, scale_hint: float | None = None):
        """A callable for :class:`~repro.nn.quant.QuantConv2D`'s hook.

        Returns a function mapping fake-quantized float weights to the
        hardware-realized weights, so QAT models can be evaluated with the
        optics in the loop without rebuilding the network.
        """

        def transform(quantized: np.ndarray) -> np.ndarray:
            max_abs = float(np.max(np.abs(quantized)))
            if max_abs == 0.0:
                return quantized
            top_level = self.awc.num_levels - 1 if self.awc.design.num_bits > 1 else 1
            scale = scale_hint if scale_hint is not None else max_abs / top_level
            return self._realize(quantized, scale)

        return transform
