"""The three workloads: inputs made from the seed, the CLI calls of one
round, and the checks of every output.

One operation is one parameter point: a sweep cell or an analysed point.
Each round repeats the same operations, so the failed share is the same in
every run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

# The acceptance plane of the (tau_L, tau_R) sweeps, at a coarser resolution.
PLANE = {"tl": (0.0, 3.5), "tr": (-2.0, 1.0), "dl": 1.4, "dr": -1.2}
NX, NY = 16, 8
# Tiles per axis, one sweep call each.  The speed correction needs calls
# well under a second; the measure sweep keeps 32 cells per call, so that
# batching the cells of one sweep still has room to pay off.
TILES = {"asymptotic": (4, 2), "measure": (2, 2)}
M_MAX = 30
SAMPLES_PER_CELL = 100
# Reference directions per checked cell or point.  The reference misplaces
# each end of an attracted arc by at most one grid step, so rho_ref is
# within GRID_ARCS / n of the true fraction.
REF_DIRS_CELL = 1024
REF_DIRS_POINT = 2048
GRID_ARCS = 4
MEASURE_CHECKED_CELLS = 48
# Seeded points are redrawn in their stratum until every one of
# SETTLE_DIRS evenly spread directions settles within SETTLE_STEPS steps.
SETTLE_DIRS = 16
SETTLE_STEPS = 300

# Reference points of the test suite, with the Birkhoff averages that the
# source material quotes to two decimals.
REFERENCE_POINTS = {
    "PT_FOLD": (2.5, 1.4, -0.5, -1.2),
    "PT_STABLE": (2.0, 1.4, -0.8, -1.2),
    "PT_UNSTABLE": (1.4, 1.4, -1.4, -1.2),
    "PT_CONTRACT": (0.5, 0.2, -0.5, -0.2),
}
LAMBDA_QUOTED = {"PT_STABLE": -0.16, "PT_UNSTABLE": -0.06}

Point = tuple[float, float, float, float]


def spiral_bound(dl: float) -> float:
    return 2.0 * math.sqrt(dl)


# A fixed lattice over the closed-form domain (tau_L > 2 sqrt(delta_L) and
# tau_R > delta_R / lambda_L_plus, where rho_closed_form answers), the same
# for every seed.  rho_closed_form's fault shows on part of it; a fault that
# showed on seeded points would make the failed share differ between runs.
CLOSED_FORM_LATTICE = tuple(
    (round(1.25 * spiral_bound(dl), 4), dl, -0.1, dr)
    for dl in (0.35, 1.4)
    for dr in (-1.5, -0.5)
) + ((3.0009, 0.3504, 0.1890, -1.5365),)


def _draw_certificate(rng: random.Random, a: int, b: int) -> Point:
    """Stratum (a, b) of 4 x 4 over (tau_L / 2 sqrt(delta_L), tau_R)."""
    dl, dr = rng.uniform(0.3, 2.0), rng.uniform(-2.0, -0.3)
    u = (a + rng.random()) / 4.0
    tr = -2.5 + 4.0 * (b + rng.random()) / 4.0
    return (u * spiral_bound(dl), dl, tr, dr)


def _draw_open(rng: random.Random, a: int, b: int) -> Point:
    """Stratum (a, b) of 2 x 2: two left fixed rays, sector not invariant."""
    dl, dr = rng.uniform(0.3, 2.0), rng.uniform(-2.0, -0.3)
    tl = spiral_bound(dl) * (1.0 + 0.8 * (a + rng.random()) / 2.0)
    lam_plus = tl / 2.0 + math.sqrt(tl * tl / 4.0 - dl)
    tr = dr / lam_plus - 2.0 * (b + rng.random()) / 2.0
    return (tl, dl, tr, dr)


def _settled(points: list[Point]) -> np.ndarray:
    """Per point: do all SETTLE_DIRS directions reach 1e-9 or 1e9 within
    SETTLE_STEPS steps?  One array over all points and directions."""
    p = np.array(points)
    ang = 2.0 * math.pi * (np.arange(SETTLE_DIRS) + 0.5) / SETTLE_DIRS
    row = np.repeat(np.arange(len(points)), SETTLE_DIRS)
    x0 = np.tile(np.cos(ang), len(points))
    x1 = np.tile(np.sin(ang), len(points))
    for _ in range(SETTLE_STEPS):
        left = x0 <= 0.0
        tau = np.where(left, p[row, 0], p[row, 2])
        delta = np.where(left, p[row, 1], p[row, 3])
        x0, x1 = tau * x0 + x1, -delta * x0
        sq = x0 * x0 + x1 * x1
        alive = np.isfinite(sq) & (sq >= ref.CONV**2) & (sq <= ref.DIV**2)
        x0, x1, row = x0[alive], x1[alive], row[alive]
        if row.size == 0:
            break
    ok = np.ones(len(points), dtype=bool)
    ok[row] = False
    return ok


def analysis_points(seed: int) -> list[tuple[str, Point]]:
    """The reference points and the closed-form lattice, then seeded points
    stratified over the sign regime delta_L > 0 > delta_R with tau_L >= 0,
    outside the closed-form domain."""
    rng = random.Random(seed)
    strata = [(_draw_certificate, a, b) for a in range(4) for b in range(4)]
    strata += [(_draw_open, a, b) for a in range(2) for b in range(2)]
    drawn = [draw(rng, a, b) for draw, a, b in strata]
    for _ in range(100):
        redo = np.nonzero(~_settled(drawn))[0]
        if redo.size == 0:
            break
        for k in redo:
            draw, a, b = strata[k]
            drawn[k] = draw(rng, a, b)
    else:
        raise RuntimeError("could not draw settled points in every stratum")
    names = [f"{draw.__name__[6:]}_{a}{b}" for draw, a, b in strata]
    return (
        list(REFERENCE_POINTS.items())
        + [(f"closed_form_{k}", p) for k, p in enumerate(CLOSED_FORM_LATTICE)]
        + list(zip(names, drawn))
    )


def point_argv(point: Point) -> list[str]:
    tl, dl, tr, dr = point
    return ["--tl", repr(tl), "--dl", repr(dl), "--tr", repr(tr), "--dr", repr(dr)]


@dataclass
class Outcome:
    """Checks of one round's outputs."""

    problems: list[str] = field(default_factory=list)  # fail the run
    faults: list[str] = field(default_factory=list)  # the known rho_closed_form fault
    decided: int = 0


def rho_tolerance(n: int | None, counts: ref.DirectionCounts, undecided: float) -> float:
    """Allowed |rho - rho_ref|: 5 binomial sigmas of an n-sample estimate
    plus 1/n (none for an exact value), the reference's grid error and both
    undecided fractions.  Sigma is taken at the fraction within the grid
    error of rho_ref that is closest to 1/2."""
    grid = GRID_ARCS / counts.n
    tol = grid + undecided + counts.undecided_fraction
    if n is not None:
        p = min(max(0.5, counts.rho - grid), counts.rho + grid)
        tol += 5.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
    return tol


@dataclass
class Tile:
    """One sweep call over a block of the plane's NX x NY grid."""

    tl: np.ndarray
    tr: np.ndarray
    csv: Path
    pgm: Path
    argv: list[str]


class SweepWorkload:
    """`sweep --mode MODE` over the acceptance plane in tiles, one CLI call
    each; one operation is a cell."""

    def __init__(self, mode: str, seed: int, outdir: Path):
        self.mode = mode
        self.seed = seed
        self.ops_per_round = NX * NY
        tl_all = np.linspace(*PLANE["tl"], NX)
        tr_all = np.linspace(*PLANE["tr"], NY)
        ta, tb = TILES[mode]
        self.tiles = []
        for a in range(ta):
            for b in range(tb):
                tl = tl_all[a * NX // ta : (a + 1) * NX // ta]
                tr = tr_all[b * NY // tb : (b + 1) * NY // tb]
                self._add_tile(tl, tr, outdir)
        self.calls = [t.argv for t in self.tiles]

    def _add_tile(self, tl: np.ndarray, tr: np.ndarray, outdir: Path) -> None:
        k, mode = len(self.tiles), self.mode
        csv, pgm = outdir / f"{mode}-{k}.csv", outdir / f"{mode}-{k}.pgm"
        argv = [
            "sweep", "--mode", mode,
            "--tl-min", repr(float(tl[0])), "--tl-max", repr(float(tl[-1])),
            "--tr-min", repr(float(tr[0])), "--tr-max", repr(float(tr[-1])),
            "--nx", str(tl.size), "--ny", str(tr.size),
            "--dl", repr(PLANE["dl"]), "--dr", repr(PLANE["dr"]),
            "--out", str(csv), "--pgm", str(pgm), "--workers", "1",
        ]  # fmt: skip
        if mode == "measure":
            n_tiles = TILES[mode][0] * TILES[mode][1]
            argv += ["--samples", str(SAMPLES_PER_CELL), "--seed", str(n_tiles * self.seed + k)]
        else:
            argv += ["--m-max", str(M_MAX)]
        # The program's own grid for the tile, to check the row order.
        grid = np.linspace(tl[0], tl[-1], tl.size), np.linspace(tr[0], tr[-1], tr.size)
        self.tiles.append(Tile(*grid, csv, pgm, argv))

    def in_regime_cells(self) -> int:
        bound = spiral_bound(PLANE["dl"])
        return sum(int((t.tl < bound).sum()) * t.tr.size for t in self.tiles)

    def collect(self, results) -> tuple:
        for code, _, err in results:
            if code != 0:
                raise RuntimeError(f"sweep exited {code}: {err.strip()}")
        return tuple((t.csv.read_bytes(), t.pgm.read_bytes()) for t in self.tiles)

    def check(self, output, pwlstab) -> Outcome:
        res = Outcome()
        cells = {}
        for tile, (csv_bytes, pgm_bytes) in zip(self.tiles, output):
            rows = self._parse_csv(tile, csv_bytes, res)
            if rows is None:
                return res
            self._check_pgm(tile, pgm_bytes, rows, res)
            cells.update(rows)
        if self.mode == "asymptotic":
            self._check_certificate(cells, res)
        else:
            self._check_measure(cells, res)
        return res

    def _parse_csv(self, tile: Tile, data: bytes, res: Outcome):
        """Cell values keyed by point, in the documented row order."""
        lines = data.decode("ascii").splitlines()
        header = "tau_L,tau_R,value" + (",undecided" if self.mode == "measure" else "")
        nx, ny = tile.tl.size, tile.tr.size
        if not lines or lines[0] != header:
            res.problems.append(f"{tile.csv.name}: header {lines[:1]!r}, expected {header!r}")
            return None
        if len(lines) - 1 != nx * ny:
            res.problems.append(f"{tile.csv.name}: {len(lines) - 1} rows, expected {nx * ny}")
            return None
        rows = {}
        for k, line in enumerate(lines[1:]):
            i, j = divmod(k, ny)
            f = line.split(",")
            tl, tr = float(f[0]), float(f[1])
            if abs(tl - tile.tl[i]) > 1e-12 or abs(tr - tile.tr[j]) > 1e-12:
                res.problems.append(f"{tile.csv.name}: row {k} is ({tl}, {tr}), expected cell ({i}, {j})")
                return None
            pt = (tl, PLANE["dl"], tr, PLANE["dr"])
            rows[pt] = (i, j, (float(f[2]), float(f[3])) if self.mode == "measure" else int(f[2]))
        return rows

    def _check_pgm(self, tile: Tile, data: bytes, rows, res: Outcome) -> None:
        nx, ny = tile.tl.size, tile.tr.size
        header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
        if data[: len(header)] != header or len(data) != len(header) + nx * ny:
            res.problems.append(f"{tile.pgm.name}: header or size does not match the grid")
            return
        pix = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(ny, nx)
        for i, j, v in rows.values():
            if self.mode == "measure":
                want = int(round(255.0 * (1.0 - v[0])))
            elif v < 0:
                want = 0
            else:
                want = max(int(round(255.0 * (M_MAX - v + 1.0) / M_MAX)), 1)
            want = min(max(want, 0), 255)
            if pix[ny - 1 - j, i] != want:
                res.problems.append(f"{tile.pgm.name}: pixel of cell ({i}, {j}) is {pix[ny - 1 - j, i]}, expected {want}")
                return

    def _check_certificate(self, cells, res: Outcome) -> None:
        bound = spiral_bound(PLANE["dl"])
        for pt, (_, _, m) in sorted(cells.items()):
            if pt[0] >= bound and m != -1:
                res.problems.append(f"cell {pt} is out of regime but holds {m}")
            if m == -1:
                continue
            if not (pt[0] < bound and 1 <= m <= M_MAX):
                res.problems.append(f"cell {pt} certified with m={m}")
                continue
            expanding = [o for o in ref.periodic_orbits(pt) if o.lam > 0.0]
            if expanding:
                o = expanding[0]
                res.problems.append(
                    f"certified cell {pt} has an expanding period-{o.period} orbit, lambda={o.lam}"
                )
                continue
            counts = ref.classify_directions(pt, REF_DIRS_CELL)
            if counts.converged != counts.n:
                res.problems.append(f"certified cell {pt}: reference directions {counts}")
                continue
            res.decided += 1

    def _check_measure(self, cells, res: Outcome) -> None:
        n = SAMPLES_PER_CELL
        for pt, (_, _, (f, u)) in sorted(cells.items()):
            ok = 0.0 <= f <= 1.0 and 0.0 <= u <= 1.0 and f + u <= 1.0 + 1e-12
            ok = ok and abs(f * n - round(f * n)) < 1e-6 and abs(u * n - round(u * n)) < 1e-6
            if not ok:
                res.problems.append(f"cell {pt}: fraction {f}, undecided {u}")
            elif u == 0.0:
                res.decided += 1
        rng = random.Random(self.seed)
        for pt in rng.sample(sorted(cells), MEASURE_CHECKED_CELLS):
            f, u = cells[pt][2]
            counts = ref.classify_directions(pt, REF_DIRS_CELL)
            if abs(f - counts.rho) > rho_tolerance(n, counts, u):
                res.problems.append(f"cell {pt}: fraction {f}, reference {counts}")


class AnalysisWorkload:
    """`analyze --json` at every point of ``analysis_points(seed)``."""

    def __init__(self, seed: int, outdir: Path):
        self.points = analysis_points(seed)
        self.ops_per_round = len(self.points)
        self.calls = [["analyze", "--json"] + point_argv(p) for _, p in self.points]

    def collect(self, results) -> tuple:
        return tuple(results)

    def check(self, output, pwlstab) -> Outcome:
        res = Outcome()
        for (name, p), (code, out, err) in zip(self.points, output):
            problems, fault = self._check_point(name, p, code, out, err, pwlstab)
            if problems:
                res.problems += [f"{name} {p}: {msg}" for msg in problems]
            elif fault:
                res.faults.append(f"{name} {p}: {fault}")
            elif json.loads(out)["summary"]["kind"] != "Undecided":
                res.decided += 1
        return res

    @staticmethod
    def _check_point(name, p, code, out, err, pwlstab) -> tuple[list[str], str]:
        if code != 0:
            return [f"exit code {code}: {err.strip()}"], ""
        d = json.loads(out)
        problems = []
        if pwlstab.AnalysisReport.from_dict(d).to_dict() != d:
            problems.append("JSON does not round-trip through AnalysisReport")
        got = tuple(d["parameters"][k] for k in ("tau_L", "delta_L", "tau_R", "delta_R"))
        if got != p:
            problems.append(f"parameters read back as {got}")

        rho, cert, summary, ly = d["rho"], d["certificate"], d["summary"], d["lyapunov"]
        counts = ref.classify_directions(p, REF_DIRS_POINT)
        exact = rho["method"] == "closed_form"
        tol = rho_tolerance(None if exact else rho["n_samples"], counts, rho["undecided"] or 0.0)
        fault = ""
        if abs(rho["value"] - counts.rho) > tol:
            msg = f"rho {rho['method']} {rho['value']}, reference {counts.rho} (tolerance {tol:.4g})"
            if exact:
                fault = msg
            else:
                problems.append(msg)

        if (cert is not None) != (p[0] < spiral_bound(p[1])):
            problems.append("certificate present outside its regime or missing inside it")
        if cert is not None and cert["witness"] is not None:
            w = cert["witness"]
            orb = ref.verify_witness(p, w["thetas"])
            if orb is None:
                problems.append(f"witness {w['thetas']} does not re-verify")
            elif abs(orb.lam - w["lambda_value"]) > 1e-8 or abs(orb.multiplier / w["multiplier"] - 1.0) > 1e-8:
                problems.append(f"witness lambda {w['lambda_value']}, re-derived {orb.lam}")
        if cert is not None and cert["status"] == "Stable":
            expanding = [o for o in ref.periodic_orbits(p) if o.lam > 0.0]
            if expanding:
                problems.append(f"Stable, but a period-{expanding[0].period} orbit expands")
            if counts.converged != counts.n:
                problems.append(f"Stable, but reference directions {counts}")
            if ly is None or not ly["lambda_hat"] < 0.0:
                problems.append(f"Stable, but lyapunov {ly}")

        if summary != expected_summary(cert, rho):
            problems.append(f"summary {summary} disagrees with {expected_summary(cert, rho)}")
        if name in LAMBDA_QUOTED:
            if ly is None or abs(ly["lambda_hat"] - LAMBDA_QUOTED[name]) > 0.01:
                problems.append(f"lambda_hat {ly and ly['lambda_hat']}, quoted {LAMBDA_QUOTED[name]}")
        return problems, fault


def expected_summary(cert: dict | None, rho: dict) -> dict:
    """The report's documented summary: the certificate decides where it
    applies, otherwise the attracted fraction does."""
    if cert is not None:
        return {
            "Stable": {"kind": "ExponentiallyStable", "rho": 1.0},
            "InstabilityWitness": {"kind": "Unstable", "rho": None},
        }.get(cert["status"], {"kind": "Undecided", "rho": None})
    if rho["method"] == "closed_form":
        return {"kind": "MeasureRho", "rho": rho["value"]}
    if rho["undecided"] > 0.1:
        return {"kind": "Undecided", "rho": None}
    if rho["value"] == 0.0:
        return {"kind": "Unstable", "rho": None}
    return {"kind": "MeasureRho", "rho": rho["value"]}


WORKLOADS = {
    "certificate_sweep": lambda seed, outdir: SweepWorkload("asymptotic", seed, outdir),
    "measure_sweep": lambda seed, outdir: SweepWorkload("measure", seed, outdir),
    "point_analysis": AnalysisWorkload,
}
