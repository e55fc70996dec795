"""Deterministic parameter-plane sweeps over (tau_L, tau_R) grids.

Two modes: a Monte-Carlo sweep recording the fraction of sampled initial
points whose orbits converge to the origin, and a certificate sweep
recording 1 where ``ga92``'s verdict is Stable and -1 where it declines.
Per-cell seeds are mixed from the base seed and the cell indices, so
results are bit-identical no matter how cells are scheduled across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .maps import NormalForm2D
from .polygons import LAMBDA_POS_TOL, WITNESS_P_MAX, CertificateStatus, ga92
from .sphere import periodic_orbits_many, rho_sampled

_MASK64 = (1 << 64) - 1
SCAN_BATCH = 16  # in-regime cells per witness-scan batch; bounds its memory


def mix_seed(base_seed: int, i: int, j: int) -> int:
    """Stable 64-bit seed for cell (i, j); independent of execution order."""
    z = (
        base_seed
        + 0x9E3779B97F4A7C15
        + i * 0xA24BAED4963EE407
        + j * 0x9FB21C651E98DF25
    ) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of (tau_L, tau_R) values at fixed determinants."""

    tau_L_range: tuple[float, float]
    tau_R_range: tuple[float, float]
    nx: int
    ny: int
    delta_L: float
    delta_R: float

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        for n, (lo, hi) in ((self.nx, self.tau_L_range), (self.ny, self.tau_R_range)):
            if not (lo <= hi) or (n > 1 and not lo < hi):
                raise ValueError("parameter ranges must be non-degenerate")
            # a finite width keeps both ends and every axis value finite
            if not math.isfinite(float(hi) - float(lo)):
                raise ValueError(f"parameter range width must be finite: {(lo, hi)!r}")
        if not (self.delta_L > 0.0 > self.delta_R):
            raise ValueError("sweeps require delta_L > 0 > delta_R")

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The tau_L and tau_R axis values, built once per grid; read-only."""
        axes = (
            np.linspace(self.tau_L_range[0], self.tau_L_range[1], self.nx),
            np.linspace(self.tau_R_range[0], self.tau_R_range[1], self.ny),
        )
        for axis in axes:
            axis.flags.writeable = False
        return axes

    def __getstate__(self) -> dict:
        # a worker rebuilds the axes read-only; unpickled arrays are writeable
        return {k: v for k, v in self.__dict__.items() if k != "_axes"}

    def tau_L_values(self) -> np.ndarray:
        return self._axes[0]

    def tau_R_values(self) -> np.ndarray:
        return self._axes[1]

    def params(self, i: int, j: int) -> NormalForm2D:
        """The map at cell (i, j): tau_L index i, tau_R index j."""
        tau_L, tau_R = self._axes
        return NormalForm2D(float(tau_L[i]), self.delta_L, float(tau_R[j]), self.delta_R)


class GridMode(Enum):
    MEASURE = "measure"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class GridResult:
    """Per-cell sweep outputs, indexed [tau_L index, tau_R index].

    Measure mode: ``values`` holds converged fractions and ``undecided`` the
    budget-exhausted fractions.  Asymptotic mode: ``values`` holds 1 where
    ``ga92``'s verdict is Stable, or -1 where the certificate declined (out
    of regime, not decided, or an instability witness was found).
    """

    spec: GridSpec
    mode: GridMode
    values: np.ndarray
    undecided: np.ndarray | None = None


def _measure_cell(spec: GridSpec, i: int, j: int, samples: int, base_seed: int):
    """(converged fraction, undecided fraction) of cell (i, j), seeded by its indices."""
    est = rho_sampled(spec.params(i, j), n_samples=samples, seed=mix_seed(base_seed, i, j))
    return est.rho_hat, est.undecided_fraction


def _measure_rows(spec: GridSpec, rows, samples: int, base_seed: int) -> list[list]:
    return [[_measure_cell(spec, i, j, samples, base_seed) for j in range(spec.ny)] for i in rows]


def _asymptotic_rows(spec: GridSpec, rows) -> list[list]:
    """1 where ga92's verdict in ``rows`` is Stable, or -1 where it declines;
    in-regime cells are scanned SCAN_BATCH at a time, across rows."""
    out = [[-1] * spec.ny for _ in rows]
    cells = [(k, j, params) for k, i in enumerate(rows) for j in range(spec.ny)
             if (params := spec.params(i, j)).in_certificate_regime]
    for start in range(0, len(cells), SCAN_BATCH):
        batch = cells[start : start + SCAN_BATCH]
        scans = periodic_orbits_many([c[2] for c in batch], WITNESS_P_MAX, LAMBDA_POS_TOL)
        for (k, j, params), scan in zip(batch, scans):
            out[k][j] = 1 if ga92(params, scan=scan).status is CertificateStatus.STABLE else -1
    return out


def _cells(rows, spec: GridSpec, workers: int) -> list[list]:
    """``rows(spec, row_indices)`` over the grid's tau_L rows, in order;
    worker k takes rows k, k + workers, ... as one task.

    The pool holds at most one process per row: a fork-based pool starts
    all of its processes up front, whether or not they get work.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    task = partial(rows, spec)
    workers = min(workers, spec.nx)
    if workers == 1:
        return task(range(spec.nx))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(task, [range(k, spec.nx, workers) for k in range(workers)]))
    return [parts[i % workers][i // workers] for i in range(spec.nx)]


def sweep_measure(
    spec: GridSpec, samples_per_cell: int = 100, base_seed: int = 0, workers: int = 1
) -> GridResult:
    """Monte-Carlo converged-fraction sweep; deterministic per (spec, seed)."""
    if samples_per_cell < 1:
        raise ValueError("samples_per_cell must be at least 1")
    rows = partial(_measure_rows, samples=samples_per_cell, base_seed=base_seed)
    cells = np.array(_cells(rows, spec, workers), dtype=np.float64)
    return GridResult(spec, GridMode.MEASURE, cells[..., 0], cells[..., 1])


def sweep_asymptotic(spec: GridSpec, workers: int = 1) -> GridResult:
    """Certificate sweep recording 1 where a cell's ``ga92`` verdict is Stable.

    Cells outside the certificate's regime (tau_L >= 2 sqrt(delta_L)) are
    marked with the sentinel -1, as are NotDecided cells and cells with an
    instability witness.  Each worker scans its rows' in-regime cells
    SCAN_BATCH at a time, then calls ``ga92`` once per cell.
    """
    values = np.array(_cells(_asymptotic_rows, spec, workers), dtype=np.int64)
    return GridResult(spec, GridMode.ASYMPTOTIC, values)


def write_grid_csv(result: GridResult, path) -> None:
    """Rows `tau_L,tau_R,value[,undecided]`, tau_R varying fastest from (lo,lo)."""
    tl_vals = result.spec.tau_L_values()
    tr_vals = result.spec.tau_R_values()
    with_und = result.undecided is not None
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("tau_L,tau_R,value,undecided\n" if with_und else "tau_L,tau_R,value\n")
            for i, tl in enumerate(tl_vals):
                for j, tr in enumerate(tr_vals):
                    v = result.values[i, j]
                    cell = str(int(v)) if result.mode is GridMode.ASYMPTOTIC else repr(float(v))
                    line = f"{float(tl)!r},{float(tr)!r},{cell}"
                    if with_und:
                        line += f",{float(result.undecided[i, j])!r}"
                    fh.write(line + "\n")
    except OSError as exc:
        raise OSError(f"cannot write grid CSV to {path}: {exc}") from exc


def write_grid_pgm(result: GridResult, path) -> None:
    """Binary 8-bit PGM: tau_L left to right, tau_R top (high) to bottom (low).

    Measure mode paints converged cells dark: pixel = 255 * (1 - fraction),
    so the stability region shows as the black shape.  Asymptotic mode paints
    certified cells white (255) and sentinel cells black (0).
    """
    nx, ny = result.spec.nx, result.spec.ny
    v = result.values.T[::-1].astype(np.float64)  # row 0 is the highest tau_R
    if not np.isfinite(v).all():
        raise ValueError("grid values must be finite")
    if result.mode is GridMode.MEASURE:
        px = np.rint(255.0 * (1.0 - v))
    else:
        px = np.where(v >= 0, 255.0, 0.0)
    pixels = np.clip(px, 0, 255).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write PGM to {path}: {exc}") from exc
