"""Per-chip AWC calibration via code pre-distortion.

The AWC's static errors (branch mismatch, level offsets, compression) are
*measurable once per die*: drive every code, record the realized current.
With that table the controller can pre-distort — for a target level it
picks the code whose **realized** level lands closest, instead of the
nominal code.  This recovers part of the converter's INL for free (no new
hardware, just a lookup in the kernel bank path) and is the natural
engineering follow-up to the paper's observation that AWC error limits the
[4:2] configuration.

``CalibratedAwcMapper`` wraps an :class:`~repro.core.awc.AwcWeightMapper`
and is a drop-in replacement for weight realization.
"""

from __future__ import annotations

import numpy as np

from repro.core.awc import AwcWeightMapper, LevelTableMapper


class CalibratedAwcMapper(LevelTableMapper):
    """Pre-distorting wrapper around a measured AWC bank.

    Parameters
    ----------
    mapper:
        The physical (mismatched) converter bank to calibrate.
    measurement_noise_lsb:
        RMS noise of the calibration measurement itself, in LSB units.
        Zero models a perfect bench characterisation.
    """

    def __init__(
        self,
        mapper: AwcWeightMapper,
        measurement_noise_lsb: float = 0.0,
        seed: int | None = None,
    ) -> None:
        if measurement_noise_lsb < 0:
            raise ValueError(
                f"measurement_noise_lsb must be non-negative, got "
                f"{measurement_noise_lsb}"
            )
        self.mapper = mapper
        self._measurement_noise_lsb = measurement_noise_lsb
        # The measured table: what the calibration bench *believes* each
        # code produces.
        measured = mapper.level_table.copy()
        if measurement_noise_lsb > 0.0:
            from repro.util.rng import derive_rng

            rng = derive_rng(seed, "awc-calibration-noise")
            measured = measured + rng.normal(
                0.0, measurement_noise_lsb, size=measured.shape
            )
        self._measured_table = measured
        # Pre-distortion lookup: per unit, per target level, the best code.
        num_units, num_levels = measured.shape
        targets = np.arange(num_levels, dtype=float)
        self._code_lut = np.abs(
            measured[:, :, None] - targets[None, None, :]
        ).argmin(axis=1)
        # The same lookup from nominal to read level-table cell.  A zero
        # code stays zero whatever its substitute, and a code whose
        # substitute is zero reads the zero cell and loses its rail.
        substitute = self._code_lut.copy()
        substitute[:, 0] = 0
        self._cell_lut = (
            np.arange(num_units)[:, None] * num_levels + substitute
        ).reshape(-1)
        self._keeps_rail = (substitute != 0).reshape(-1)

    @property
    def num_levels(self) -> int:
        """Distinct magnitude levels of the underlying converter."""
        return self.mapper.num_levels

    @property
    def design(self):
        """The wrapped converter's electrical design (delegated).

        Makes the calibrated mapper a drop-in for
        :class:`~repro.core.awc.AwcWeightMapper` wherever the OPC reads
        design facts (e.g. ``weight_transform``'s top-level computation).
        """
        return self.mapper.design

    @property
    def num_units(self) -> int:
        """Physical converter units in the wrapped bank (delegated)."""
        return self.mapper.num_units

    @property
    def calibration_token(self) -> tuple[str, float]:
        """Cache-key marker separating calibrated from raw programs.

        :meth:`repro.engine.cache.WeightProgramCache.key_for` mixes this
        into the digest so a pre-distorted die never shares cached programs
        with an uncalibrated die of the same seed/config.
        """
        return ("awc-predistort", self._measurement_noise_lsb)

    @property
    def level_table(self) -> np.ndarray:
        """The wrapped bank's realized levels (delegated).

        Pre-distortion changes which cell a code reads, not what a cell
        holds.
        """
        return self.mapper.level_table

    def code_cells(
        self, codes: np.ndarray, unit_assignment: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cell and rail sign each code reads after pre-distortion.

        Same contract as :meth:`AwcWeightMapper.code_cells
        <repro.core.awc.AwcWeightMapper.code_cells>`: each nominal cell
        is replaced by its calibrated substitute, and a code whose
        substitute is zero loses its rail.
        """
        cells, signs = self.mapper.code_cells(codes, unit_assignment)
        return self._cell_lut[cells], signs * self._keeps_rail[cells]

    # ------------------------------------------------------------------
    # Quality metrics
    # ------------------------------------------------------------------
    def residual_error_lsb(self) -> float:
        """Mean |realized - target| after calibration, in LSB units."""
        num_units = self.mapper.num_units
        targets = np.arange(self.num_levels)
        errors = []
        for unit in range(num_units):
            chosen = self._code_lut[unit, targets]
            realized = self.mapper.level_table[unit, chosen]
            errors.append(np.abs(realized - targets))
        return float(np.mean(errors))

    def improvement_ratio(self) -> float:
        """Uncalibrated mean level error divided by the calibrated one.

        Values > 1 mean calibration helped; == 1 means the nominal codes
        were already optimal (monotone, small-INL converters).
        """
        raw = self.mapper.mean_level_error_lsb()
        residual = self.residual_error_lsb()
        if residual == 0.0:
            return float("inf") if raw > 0 else 1.0
        return raw / residual
