"""Behavioral Approximate Weight Converter bank (architecture view).

Bridges the circuit-level :class:`~repro.circuits.awc.AwcCircuit` to the
weight domain the neural network lives in.  Each of the OPC's 40 AWC units
is an independent physical ladder with its own frozen mismatch; quantized
integer weight codes are realised as (slightly wrong) currents, and the
ratio ``I_actual / I_lsb_ideal`` is the *effective* weight level the MR ends
up programmed to.

This is the mechanism behind the paper's Table II observation that
``OISA[4:2]`` is **not** more accurate than ``OISA[3:2]``: at 4 bits the
ideal level spacing shrinks below the ladder's static error, so the extra
quantization resolution buys nothing (and can hurt).

Each code reads one *cell* ``(unit, |code|)`` of the die's level table
(:meth:`AwcWeightMapper.code_cells`; the calibrated mapper substitutes
cells), so a kernel set of any size realizes at most ``num_units x
2^bits`` distinct magnitudes.

A die's level table is a pure function of ``(design, num_units, seed)``,
so every mapper on one die shares one read-only table from a small
module-level cache instead of re-deriving its 40 ladders.  Code that
needs a modified table (calibration) works on a copy; an in-place write
raises instead of leaking into every other mapper on that die.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from repro.circuits.awc import AwcCircuit, AwcDesign
from repro.util.rng import spawn_seeds
from repro.util.validation import check_positive


@functools.lru_cache(maxsize=256)
def _level_table(
    design: AwcDesign, num_units: int, seed: int | None
) -> np.ndarray:
    """Per-unit realized levels in *weight-level* units (read-only).

    ``table[u, c] ~ c`` for an ideal converter.  One 40-unit 4-bit table
    is about 5 KB, so a full cache holds about 1.3 MB.
    """
    levels = np.stack(
        [
            AwcCircuit(design, seed=unit_seed).all_levels_a()
            for unit_seed in spawn_seeds(seed, num_units)
        ]
    )
    table = levels / design.unit_current_a
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _round_robin_cells(num_units: int, num_levels: int, size: int) -> np.ndarray:
    """Cell of code 0 on the unit programming each of ``size`` MRs.

    The controller walks the MRs in flat index order and hands them to
    the units round-robin; unit ``u``'s cells start at
    ``u * num_levels``.  Read-only, shared by every mapper.
    """
    rounds = np.empty((-(-size // num_units), num_units), dtype=int)
    rounds[:] = np.arange(num_units) * num_levels
    cells = rounds.reshape(-1)[:size]
    cells.flags.writeable = False
    return cells


class LevelTableMapper:
    """Weight realization shared by every AWC mapper.

    A subclass says which cell of its :attr:`level_table` each code reads
    (``code_cells``); the level there, on the rail the code's sign
    selects, is the realized weight.
    """

    def realize_codes(
        self, codes: np.ndarray, unit_assignment: np.ndarray | None = None
    ) -> np.ndarray:
        """Realize signed integer codes as effective weight levels.

        ``codes`` and ``unit_assignment`` are as in ``code_cells``; the
        sign selects the positive or negative waveguide rail.
        """
        cells, signs = self.code_cells(codes, unit_assignment)
        return signs * self.level_table.reshape(-1)[cells]

    def realize_quantized_weights(
        self, quantized: np.ndarray, scale: float
    ) -> np.ndarray:
        """Realize fake-quantized float weights (``codes * scale``).

        The inverse of :meth:`UniformWeightQuantizer.quantize
        <repro.nn.quant.UniformWeightQuantizer.quantize>`: recover the
        integer codes, push them through the ladders, rescale.
        """
        check_positive("scale", scale)
        quantized = np.asarray(quantized, dtype=float)
        codes = np.round(quantized / scale).astype(int)
        return self.realize_codes(codes) * scale


class AwcWeightMapper(LevelTableMapper):
    """A bank of AWC units realising signed integer weight codes.

    Parameters
    ----------
    design:
        Ladder electrical design; ``design.num_bits`` sets the weight
        bit-width (1..4).
    num_units:
        Physical AWC instances (40 in the paper).  MRs are assigned to
        units round-robin, so each weight consistently sees *its* unit's
        mismatch pattern.
    seed:
        Die seed; different seeds are different chips.
    """

    def __init__(
        self,
        design: AwcDesign | None = None,
        num_units: int = 40,
        seed: int | None = None,
    ) -> None:
        check_positive("num_units", num_units)
        self.design = design or AwcDesign()
        self.num_units = int(num_units)
        self._level_table = _level_table(self.design, self.num_units, seed)

    @property
    def num_levels(self) -> int:
        """Distinct magnitude levels per unit (2^bits)."""
        return self.design.num_levels

    @property
    def level_table(self) -> np.ndarray:
        """(num_units, num_levels) realized levels in LSB units (read-only).

        Shared by every mapper built on the same die.
        """
        return self._level_table

    def code_cells(
        self, codes: np.ndarray, unit_assignment: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The level-table cell and the rail sign each signed code reads.

        A cell is the flat index ``unit * num_levels + |code|`` into
        :attr:`level_table`; the sign (-1, 0 or +1) selects the rail, and
        a zero code (sign 0) puts no weight on either.  Weights of one
        kernel set that read the same cell realize the same magnitude, so
        the OPC prices crosstalk once per (ring position, cell) pair.

        Parameters
        ----------
        codes:
            Signed integers with ``|code| < 2**bits``.
        unit_assignment:
            Which AWC unit programs each element (same shape as ``codes``).
            Defaults to a round-robin assignment in flat index order —
            exactly how the controller walks MRs during mapping iterations.
        """
        codes = np.asarray(codes)
        cells = np.abs(codes).astype(int, copy=False)
        if codes.size and cells.max() >= self.num_levels:
            raise ValueError(
                f"|code| must be < {self.num_levels}, got {cells.max()}"
            )
        if unit_assignment is None:
            cells += _round_robin_cells(
                self.num_units, self.num_levels, codes.size
            ).reshape(codes.shape)
        else:
            unit_assignment = np.asarray(unit_assignment, dtype=int)
            if unit_assignment.shape != codes.shape:
                raise ValueError("unit_assignment must match the codes shape")
            if codes.size and (
                unit_assignment.min() < 0
                or unit_assignment.max() >= self.num_units
            ):
                raise ValueError("unit_assignment out of range")
            cells += unit_assignment * self.num_levels
        return cells, np.sign(codes)

    def worst_case_level_error_lsb(self) -> float:
        """Largest deviation |realized - ideal| across units, in LSBs."""
        ideal = np.arange(self.num_levels)
        return float(np.max(np.abs(self._level_table - ideal)))

    def mean_level_error_lsb(self) -> float:
        """Mean |realized - ideal| across units and codes, in LSBs."""
        ideal = np.arange(self.num_levels)
        return float(np.mean(np.abs(self._level_table - ideal)))

    def level_separability(self) -> float:
        """Min gap between adjacent realized levels / ideal spacing.

        Values near 1 mean the converter resolves every code cleanly;
        values near 0 mean adjacent codes collide (the 4-bit failure mode).
        """
        gaps = np.diff(np.sort(self._level_table, axis=1), axis=1)
        return float(gaps.min())

    def with_bits(self, bits: int, seed: int | None = None) -> "AwcWeightMapper":
        """A new mapper at a different bit-width (same geometry)."""
        return AwcWeightMapper(
            replace(self.design, num_bits=bits), num_units=self.num_units, seed=seed
        )
