"""Fault injection for the optical core.

Photonic arrays fail in characteristic ways; this module models the four
the OISA structure exposes (:mod:`repro.analysis.robustness_report`
measures their accuracy impact through the hardware-in-the-loop
pipeline):

* **dead MR** — a ring stuck far off resonance: both rails of the
  differential pair pass equally, so the programmed weight collapses to 0;
* **stuck AWC branch** — one ladder bit permanently forced on/off for
  every code a unit programs (a systematic gain error on its weights);
* **dead VCSEL** — an activation wavelength permanently dark: that input
  channel contributes nothing;
* **BPD gain drift** — a multiplicative gain error on an arm's readout.

All fault patterns are frozen per seed (they are manufacturing/aging
defects, not per-read noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.opc import OpticalProcessingCore
from repro.util.rng import derive_rng
from repro.util.validation import check_probability


@dataclass(frozen=True)
class FaultSpec:
    """Rates of each fault class (fractions of affected devices)."""

    dead_mr_rate: float = 0.0
    stuck_awc_branch_rate: float = 0.0
    dead_vcsel_rate: float = 0.0
    bpd_gain_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_probability("dead_mr_rate", self.dead_mr_rate)
        check_probability("stuck_awc_branch_rate", self.stuck_awc_branch_rate)
        check_probability("dead_vcsel_rate", self.dead_vcsel_rate)
        if self.bpd_gain_sigma < 0:
            raise ValueError(
                f"bpd_gain_sigma must be non-negative, got {self.bpd_gain_sigma}"
            )

    @property
    def any_faults(self) -> bool:
        """Whether any fault class is active."""
        return (
            self.dead_mr_rate > 0
            or self.stuck_awc_branch_rate > 0
            or self.dead_vcsel_rate > 0
            or self.bpd_gain_sigma > 0
        )


class FaultyOpticalCore:
    """Wrap an OPC with frozen manufacturing faults.

    Drop-in replacement for :class:`~repro.core.opc.OpticalProcessingCore`
    in the :class:`~repro.core.pipeline.HardwareFirstLayerPipeline`.
    """

    def __init__(
        self,
        opc: OpticalProcessingCore,
        spec: FaultSpec,
        seed: int | None = None,
    ) -> None:
        self.opc = opc
        self.spec = spec
        self._rng = derive_rng(seed, "fault-injection")
        self._weight_mask: np.ndarray | None = None
        self._channel_mask: np.ndarray | None = None
        self._output_gain: np.ndarray | None = None

    @classmethod
    def from_programmed(
        cls,
        opc: OpticalProcessingCore,
        spec: FaultSpec,
        seed: int | None = None,
    ) -> "FaultyOpticalCore":
        """Wrap an *already-programmed* core without re-running the mapping.

        The serving-health path (:mod:`repro.engine.health`) injects upsets
        mid-stream: the die's weights are already mapped (often restored
        from the program cache), so only the fault patterns need drawing.
        """
        faulty = cls(opc, spec, seed=seed)
        faulty.freeze(opc.programmed.realized.shape)
        return faulty

    # -- delegation ------------------------------------------------------
    @property
    def config(self):
        """The wrapped core's configuration."""
        return self.opc.config

    @property
    def programmed(self):
        """The wrapped core's programming record."""
        return self.opc.programmed

    def program(self, quantized_weights: np.ndarray, scale: float):
        """Program the wrapped core, then freeze the fault patterns."""
        programmed = self.opc.program(quantized_weights, scale)
        self.freeze(programmed.realized.shape)
        return programmed

    def freeze(self, shape: tuple[int, ...]) -> None:
        """Draw and freeze the fault patterns for a weight tensor shape.

        Conv tensors (F, C, K, K) get a per-weight mask, a per-input-channel
        VCSEL mask and a per-kernel BPD gain; dense tensors (out, in) get the
        same three patterns over (out, in), in features and out features.
        The draw order is fixed (weights, channels, gains) so patterns stay
        frozen per seed regardless of how the wrapper was constructed.
        """
        self._weight_mask = self._draw_weight_mask(shape)
        if shape and len(shape) in (2, 4):
            self._channel_mask = self._draw_channel_mask(shape[1])
            self._output_gain = self._draw_output_gain(shape[0])

    # -- fault pattern construction ---------------------------------------
    def _draw_weight_mask(self, shape: tuple[int, ...]) -> np.ndarray:
        mask = np.ones(shape)
        if self.spec.dead_mr_rate > 0:
            dead = self._rng.random(shape) < self.spec.dead_mr_rate
            mask[dead] = 0.0
        if self.spec.stuck_awc_branch_rate > 0:
            # A stuck branch in unit u perturbs every weight that unit
            # programs; approximate by a +/-25% gain error on a random
            # fraction of weights matching the unit share.
            affected = self._rng.random(shape) < self.spec.stuck_awc_branch_rate
            sign = self._rng.choice([-1.0, 1.0], size=shape)
            mask = np.where(affected, mask * (1.0 + 0.25 * sign), mask)
        return mask

    def _draw_channel_mask(self, channels: int) -> np.ndarray:
        mask = np.ones(channels)
        if self.spec.dead_vcsel_rate > 0:
            dead = self._rng.random(channels) < self.spec.dead_vcsel_rate
            mask[dead] = 0.0
        return mask

    def _draw_output_gain(self, out_channels: int) -> np.ndarray:
        if self.spec.bpd_gain_sigma > 0:
            return 1.0 + self._rng.normal(
                0.0, self.spec.bpd_gain_sigma, size=out_channels
            )
        return np.ones(out_channels)

    # -- compute -----------------------------------------------------------
    def convolve(
        self, activations: np.ndarray, stride: int = 1, padding: int = 0
    ) -> np.ndarray:
        """Faulty convolution: masks weights/inputs, drifts BPD gains."""
        if self._weight_mask is None:
            raise RuntimeError("program() must run before convolve()")
        activations = np.asarray(activations, dtype=float)
        if self._channel_mask is not None:
            activations = activations * self._channel_mask[None, :, None, None]

        # Convolve with the masked weights through the same noisy readout
        # path the healthy core uses.
        from repro.nn.functional import conv2d_forward

        masked = self.opc.programmed.realized * self._weight_mask
        out, _ = conv2d_forward(activations, masked, None, stride, padding)
        # The read-out scale comes from the masked weights the optics use.
        out = self.opc._add_read_noise(
            out, masked, float(np.max(np.abs(masked)))
        )
        if self._output_gain is not None:
            out = out * self._output_gain[None, :, None, None]
        return out

    def dot(self, activations: np.ndarray) -> np.ndarray:
        """Faulty dense product (the MLP / VOM-split first-layer mode)."""
        if self._weight_mask is None:
            raise RuntimeError("program() must run before dot()")
        activations = np.asarray(activations, dtype=float)
        if self._channel_mask is not None:
            activations = activations * self._channel_mask[None, :]
        masked = self.opc.programmed.realized * self._weight_mask
        out = activations @ masked.T
        out = self.opc._add_read_noise(
            out, masked, float(np.max(np.abs(masked)))
        )
        if self._output_gain is not None:
            out = out * self._output_gain[None, :]
        return out

    @property
    def weight_error_relative(self) -> float:
        """RMS error the faults add to the realized weights, full-scale units.

        The SNR watchdog (:mod:`repro.engine.health`) converts this into an
        equivalent resolvable bit count and compares it against the
        architecture's weight precision.
        """
        if self._weight_mask is None:
            raise RuntimeError("program() must run before weight_error_relative")
        realized = self.opc.programmed.realized
        full_scale = float(np.max(np.abs(realized)))
        if full_scale == 0.0:
            return 0.0
        faulted = realized * self._weight_mask
        if self._channel_mask is not None:
            # A dark input wavelength is equivalent (for the MAC) to
            # zeroing every weight on that input channel — axis 1 of a
            # conv tensor, the in-features axis of a dense tensor.
            faulted = faulted * self._channel_mask.reshape(
                (1, -1) + (1,) * (faulted.ndim - 2)
            )
        if self._output_gain is not None:
            gain = self._output_gain.reshape(
                (-1,) + (1,) * (faulted.ndim - 1)
            )
            faulted = faulted * gain
        error = float(np.sqrt(np.mean((faulted - realized) ** 2)))
        return error / full_scale

