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
uses.  A kernel set's weights take few distinct magnitudes: each reads
one cell (unit, |code|) of the die's AWC level table, at most 40 units x
2^bits.  Step 2 therefore evaluates the Lorentzian tails once per
(ring position, cell) pair that occurs, not once per ring: a few hundred
pairs for the 50k rings of a 64x784 dense layer.

Units: weights and activations are dimensionless (weight units /
ternary optical levels on a unit scale); tuning budgets are J/s/W;
resonance detunings are metres of wavelength shift.  Paper anchors:
Section III (OPC structure, AWC/weight mapping, MR device engineering)
and Fig. 2's circled datapath stages.

Bit-identity contract: the vectorized ``program`` chain (AWC realize →
crosstalk priced per (position, cell) pair → batched tuning budget) must
produce *exactly* the same floats as the retained scalar loops in
:mod:`repro.core.reference` — same elementwise operations, each arm's
tails multiplied in position order, sequential-``sum`` accumulation
(``cumsum``, not pairwise) — enforced by
``tests/test_vectorized_equivalence.py`` (full-size layers included) and
the ``repr()`` goldens in ``tests/goldens/``.  The serving cache
(:mod:`repro.engine.cache`) and the recalibration path
(:mod:`repro.engine.health`) both lean on this: reprogramming a die is
guaranteed to reproduce the cached record bit-for-bit.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.awc import AwcWeightMapper
from repro.core.config import OISAConfig
from repro.nn.functional import conv2d_forward
from repro.photonics.microring import MicroringResonator
from repro.photonics.tuning import TuningBudget
from repro.util.rng import derive_rng
from repro.util.validation import check_positive


#: Arms per block of the tail product in
#: :meth:`OpticalProcessingCore._apply_crosstalk`.  Each block gathers a
#: (positions, arms, channels) tensor, 400 KB at 10 MRs per arm, where one
#: gather for a whole 64x784 layer would take 4 MB; 512 was the fastest of
#: 128-2048 on a 2-core x86 host.
_PRODUCT_BLOCK_ARMS = 512


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

        Cached lazily, not stored: the record's fields stay as they are,
        and the realized tensor is never mutated after mapping.
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
        #: Channel wavelengths of the arm's rings, fixed with the config.
        self._wavelengths = self.grid.wavelengths_m()
        self._read_rng = derive_rng(seed, "opc-read-noise")
        #: Where :meth:`_add_read_noise` takes its standard normals:
        #: ``None`` draws them inline from ``_read_rng``; otherwise a
        #: callable returning the next ``size`` floats of that same stream,
        #: drawn ahead (the serving engine's compute stage installs one).
        self.read_noise_source: Callable[[int], np.ndarray] | None = None
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
    def draws_read_noise(self) -> bool:
        """Whether a read-out adds BPD noise, drawn from ``_read_rng``."""
        return self.enable_read_noise and self.config.bpd_read_noise_fraction != 0.0

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
        :meth:`weight_transform` QAT hook, with the raw or the calibrated
        mapper: the mapper reports the level-table cell and the rail sign
        each code reads, and the cells both realize the weights and key
        the crosstalk pricing.  The codes are padded with zeros to whole
        arms (larger kernels chunk across arms): a padded ring carries no
        weight and sits on its channel at T_min.
        """
        check_positive("scale", scale)
        quantized = np.asarray(quantized, dtype=float)
        arm_size = self.config.mrs_per_arm
        codes = np.zeros(-(-quantized.size // arm_size) * arm_size)
        np.divide(quantized.reshape(-1), scale, out=codes[: quantized.size])
        np.rint(codes, out=codes)  # np.round to 0 decimals
        cells, signs = self.awc.code_cells(codes.astype(int))
        realized = self.awc.level_table.reshape(-1).take(cells)
        realized *= signs
        realized *= scale
        if self.enable_crosstalk:
            realized = self._apply_crosstalk(
                realized.reshape(-1, arm_size), cells.reshape(-1, arm_size)
            )
        return realized.reshape(-1)[: quantized.size].reshape(quantized.shape)

    def _apply_crosstalk(self, arms: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Perturb weights by each arm's inter-channel crosstalk.

        ``arms`` holds the AWC-realized weights one arm per row, and
        ``cells`` the level-table cell each one reads (from
        :meth:`~repro.core.awc.AwcWeightMapper.code_cells`; relabelled in
        place).  Magnitudes
        map onto MR transmissions in [T_min, 1].  The Lorentzian tail a
        ring casts on its arm's channels depends only on its position in
        the arm and its transmission, and weights that read one cell share
        one magnitude.  So the tails are evaluated once per (position,
        cell) pair that occurs — a few hundred for a layer of 50k rings —
        and each arm multiplies the tails of its rings in position order:
        the float products of
        :func:`~repro.photonics.wdm.effective_arm_transmission`.  The
        result is mapped back to weight units.
        """
        arm_size = arms.shape[1]
        wavelengths = self._wavelengths
        if wavelengths.size != arm_size:
            raise ValueError(
                f"crosstalk needs one WDM channel per arm MR: the grid has "
                f"{wavelengths.size} channels, an arm {arm_size} MRs"
            )
        # Label every ring by its (position, cell) pair, in place of its
        # cell, and keep the magnitude of each pair that occurs (-inf
        # marks the rest).
        num_cells = self.awc.num_units * self.awc.num_levels
        labels = cells
        labels += np.arange(arm_size) * num_cells
        per_ring = np.abs(arms)
        by_label = np.empty(arm_size * num_cells)
        by_label.fill(-np.inf)
        by_label[labels] = per_ring
        (pairs,) = (by_label != -np.inf).nonzero()
        magnitudes = by_label[pairs]
        full_scale = float(magnitudes.max())
        if full_scale == 0.0:
            return arms

        t_min = self.ring.min_transmission
        span = 1.0 - t_min
        shifts = self.ring.detuning_for_transmission(
            t_min + (magnitudes / full_scale) * span
        )
        # tails[p, i]: the transmission channel i sees from pair p's ring.
        tails = self.ring.lorentzian_transmission(
            wavelengths[None, :]
            - (wavelengths[pairs // num_cells][:, None] + shifts[:, None])
        )
        pair_of_label = np.empty(arm_size * num_cells, dtype=np.intp)
        pair_of_label[pairs] = np.arange(pairs.size)
        arm_pairs = pair_of_label[labels]
        effective = np.empty(arms.shape)
        for start in range(0, len(arms), _PRODUCT_BLOCK_ARMS):
            block = slice(start, start + _PRODUCT_BLOCK_ARMS)
            # [position, arm, channel] tails of a block of arms, multiplied
            # over the positions in order.
            np.multiply.reduce(
                tails.take(arm_pairs[block].T, axis=0, mode="clip"),
                axis=0,
                out=effective[block],
            )

        effective -= t_min
        effective /= span
        # np.clip(x, 0.0, None) runs exactly this maximum.
        np.maximum(effective, 0.0, out=effective)
        effective *= full_scale
        effective *= np.sign(arms, out=per_ring)
        return effective

    def _mapping_tuning_budget(self, weights: np.ndarray, scale: float) -> TuningBudget:
        """Price the MR retunes of one full weight mapping.

        Each weight needs a resonance shift proportional to its target
        transmission; the controller runs ``weight_mapping_iterations``
        sequential AWC sweeps, so total latency is iterations x per-sweep
        settle time while energy sums over all MRs.  The detuning solve and
        the cost aggregation are one batched call each.
        """
        transmissions = np.abs(weights.reshape(-1))
        full_scale = float(transmissions.max())
        t_min = self.ring.min_transmission
        if full_scale == 0.0:
            return TuningBudget(0.0, 0.0, 0.0)
        # T_min + (|w| / full scale) (1 - T_min), clipped to [T_min, 1].
        transmissions /= full_scale
        transmissions *= 1.0 - t_min
        transmissions += t_min
        np.clip(transmissions, t_min, 1.0, out=transmissions)
        shifts = self.ring.detuning_for_transmission(transmissions)
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
        if not self.draws_read_noise:
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
        # which computes ``0.0 + sigma * z`` per element, and as
        # ``values + sigma * z`` (IEEE products and sums commute, and the
        # C-ordered draws fix the result's layout); computed in place in
        # the draws, with no further temporaries.  Floats drawn ahead are
        # the same: float64 normals keep no state between calls, so the
        # stream cut at other sizes yields the same floats.
        source = self.read_noise_source
        if source is None:
            noisy = self._read_rng.standard_normal(values.shape)
        else:
            noisy = source(values.size).reshape(values.shape)
        noisy *= sigma
        noisy += values
        return noisy

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
