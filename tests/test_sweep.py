"""Parameter-plane sweeps: seeding, grids, workers, CSV and PGM output."""

import hashlib
import math

import numpy as np
import pytest

from pwlstab import sweep
from pwlstab import (
    CertificateStatus,
    DegenerateImageError,
    GridMode,
    GridResult,
    GridSpec,
    NormalForm2D,
    ga92,
    mix_seed,
    periodic_orbits_G,
    rho_sampled,
    sweep_asymptotic,
    sweep_measure,
    write_grid_csv,
    write_grid_pgm,
)
from pwlstab.polygons import LAMBDA_POS_TOL, WITNESS_P_MAX


def spec1(tau_L, tau_R, delta_L=1.4, delta_R=-1.2) -> GridSpec:
    return GridSpec((tau_L, tau_L), (tau_R, tau_R), 1, 1, delta_L, delta_R)


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(0, 0, 0) == mix_seed(0, 0, 0)
        assert mix_seed(42, 3, 7) == mix_seed(42, 3, 7)

    def test_distinct_across_grid_and_base(self):
        seeds = {mix_seed(0, i, j) for i in range(32) for j in range(32)}
        assert len(seeds) == 32 * 32
        assert mix_seed(1, 0, 0) not in seeds

    def test_usable_as_rng_seed(self):
        s = mix_seed(123, 4, 5)
        assert isinstance(s, int) and s >= 0
        np.random.default_rng(s)


class TestGridSpec:
    def test_axis_values(self):
        spec = GridSpec((0.0, 3.5), (-2.0, 1.0), 8, 4, 1.4, -1.2)
        tl = spec.tau_L_values()
        tr = spec.tau_R_values()
        assert tl[0] == 0.0 and tl[-1] == 3.5 and len(tl) == 8
        assert tr[0] == -2.0 and tr[-1] == 1.0 and len(tr) == 4

    def test_params_read_the_axis_values(self):
        spec = GridSpec((0.0, 3.5), (-2.0, 1.0), 8, 4, 1.4, -1.2)
        tl, tr = spec.tau_L_values(), spec.tau_R_values()
        for i, j in ((0, 0), (3, 2), (7, 3)):
            assert spec.params(i, j) == NormalForm2D(float(tl[i]), 1.4, float(tr[j]), -1.2)
            assert type(spec.params(i, j).tau_L) is float

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            GridSpec((0.0, 1.0), (0.0, 1.0), 0, 4, 1.4, -1.2)
        with pytest.raises(ValueError, match="non-degenerate"):
            GridSpec((1.0, 1.0), (0.0, 1.0), 2, 2, 1.4, -1.2)
        with pytest.raises(ValueError, match="non-degenerate"):
            GridSpec((1.0, 0.0), (0.0, 1.0), 2, 2, 1.4, -1.2)
        with pytest.raises(ValueError, match="delta"):
            GridSpec((0.0, 1.0), (0.0, 1.0), 2, 2, -1.4, -1.2)
        with pytest.raises(ValueError, match="delta"):
            GridSpec((0.0, 1.0), (0.0, 1.0), 2, 2, 1.4, 1.2)

    @pytest.mark.parametrize(
        "tau_L_range, tau_R_range, nx",
        [
            ((-1.7e308, 1.7e308), (-1.0, 0.0), 3),
            ((1.0, 2.0), (np.float64(-1.7e308), np.float64(1.7e308)), 3),
            ((1.0, math.inf), (-1.0, 0.0), 3),
            ((-math.inf, -math.inf), (-1.0, 0.0), 1),
        ],
        ids=["tau_L_overflow", "tau_R_overflow_numpy", "inf_end", "inf_single"],
    )
    def test_rejects_a_range_of_infinite_width(self, tau_L_range, tau_R_range, nx):
        # finite ends whose difference overflows would give an axis with inf
        # and nan values, with numpy's overflow warnings on the way
        with pytest.raises(ValueError, match="width must be finite"):
            GridSpec(tau_L_range, tau_R_range, nx, 2, 1.4, -1.2)


class TestMeasureSweep:
    def test_single_cell_matches_direct_call(self):
        spec = spec1(2.5, -0.5)
        res = sweep_measure(spec, samples_per_cell=500, base_seed=9)
        direct = rho_sampled(
            NormalForm2D(2.5, 1.4, -0.5, -1.2),
            n_samples=500,
            seed=mix_seed(9, 0, 0),
        )
        assert res.values[0, 0] == direct.rho_hat
        assert res.undecided[0, 0] == direct.undecided_fraction
        assert res.mode is GridMode.MEASURE

    def test_deterministic(self):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        a = sweep_measure(spec, samples_per_cell=200, base_seed=4)
        b = sweep_measure(spec, samples_per_cell=200, base_seed=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.undecided, b.undecided)

    def test_worker_count_does_not_change_results(self):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        serial = sweep_measure(spec, samples_per_cell=200, base_seed=4, workers=1)
        forked = sweep_measure(spec, samples_per_cell=200, base_seed=4, workers=2)
        assert np.array_equal(serial.values, forked.values)
        assert np.array_equal(serial.undecided, forked.undecided)

    def test_seeded_plane_is_pinned(self, tmp_path):
        # the 16x8 bench plane at 100 samples per cell, seed 1.  The
        # reference of rho_sampled's loop-equality tests runs the same
        # NormalForm2D.step, so a step that changed its floats would pass
        # them; this pin holds the step to fixed bytes.
        spec = GridSpec((0.0, 3.5), (-2.0, 1.0), 16, 8, 1.4, -1.2)
        path = tmp_path / "grid.csv"
        write_grid_csv(sweep_measure(spec, samples_per_cell=100, base_seed=1), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "b003e4f12f9c8c84dce7dda0f0a956c4ee29552c121508d3703b0e43c7080994"

    def test_cell_error_is_raised_not_recorded(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("cell failed")

        monkeypatch.setattr(sweep, "rho_sampled", broken)
        with pytest.raises(RuntimeError, match="cell failed"):
            sweep_measure(spec1(2.5, -0.5), samples_per_cell=10)


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkers:
    SPEC = GridSpec((1.0, 2.0), (-1.0, 0.0), 4, 2, 1.4, -1.2)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        return FakePool.sizes

    def test_pool_has_at_most_one_process_per_row(self, pool_sizes):
        serial = sweep_measure(self.SPEC, samples_per_cell=20, base_seed=2)
        assert pool_sizes == []
        for workers, size in ((5000, 4), (4, 4), (3, 3), (2, 2)):
            res = sweep_measure(self.SPEC, samples_per_cell=20, base_seed=2, workers=workers)
            assert pool_sizes[-1] == size
            assert np.array_equal(res.values, serial.values)
        sweep_asymptotic(self.SPEC, workers=5000)
        assert pool_sizes[-1] == 4

    def test_single_row_runs_without_a_pool(self, pool_sizes):
        sweep_asymptotic(spec1(2.0, -0.8), workers=8)
        sweep_measure(spec1(2.0, -0.8), samples_per_cell=20, workers=8)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_rejected(self, workers, pool_sizes):
        with pytest.raises(ValueError, match="workers"):
            sweep_measure(self.SPEC, samples_per_cell=20, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sweep_asymptotic(self.SPEC, workers=workers)
        assert pool_sizes == []


class TestAsymptoticSweep:
    def test_stable_cell_records_generation(self):
        res = sweep_asymptotic(spec1(2.0, -0.8))
        assert res.values[0, 0] == 1
        assert res.mode is GridMode.ASYMPTOTIC

    def test_out_of_regime_cell_is_sentinel(self):
        # tau_L = 2.5 exceeds 2*sqrt(1.4): no certificate attempted
        res = sweep_asymptotic(spec1(2.5, -0.5))
        assert res.values[0, 0] == -1

    def test_witness_cell_is_sentinel(self):
        res = sweep_asymptotic(spec1(1.4, -1.4))
        assert res.values[0, 0] == -1

    def test_worker_count_does_not_change_results(self):
        spec = GridSpec((0.5, 2.0), (-0.8, -0.2), 2, 2, 1.4, -1.2)
        serial = sweep_asymptotic(spec, workers=1)
        forked = sweep_asymptotic(spec, workers=2)
        assert np.array_equal(serial.values, forked.values)

    def test_cell_error_is_raised_not_recorded(self, monkeypatch):
        def broken(*args, **kwargs):
            raise DegenerateImageError("cell failed")

        monkeypatch.setattr(sweep, "ga92", broken)
        with pytest.raises(DegenerateImageError, match="cell failed"):
            sweep_asymptotic(spec1(2.0, -0.8))

    # 7x5 cells, 25 of them in regime: with one worker a batch of 16 cells
    # that crosses rows, then a batch of 9
    RAGGED = GridSpec((0.0, 3.5), (-2.0, 1.0), 7, 5, 1.4, -1.2)

    def test_one_ga92_call_per_in_regime_cell(self, monkeypatch):
        calls = []

        def counted(params, *, scan=None):
            calls.append((params, scan))
            return ga92(params, scan=scan)

        monkeypatch.setattr(sweep, "ga92", counted)
        res = sweep_asymptotic(self.RAGGED)
        cells = [(i, j) for i in range(7) for j in range(5)
                 if self.RAGGED.params(i, j).in_certificate_regime]
        assert len(cells) == 25 and len(cells) % sweep.SCAN_BATCH != 0
        assert [params for params, _ in calls] == [self.RAGGED.params(i, j) for i, j in cells]
        for (i, j), (params, scan) in zip(cells, calls):
            assert repr(scan) == repr(periodic_orbits_G(params, WITNESS_P_MAX, LAMBDA_POS_TOL))
            stable = ga92(params).status is CertificateStatus.STABLE
            assert res.values[i, j] == (1 if stable else -1)

    def test_ragged_grid_is_the_same_at_any_worker_count(self, tmp_path):
        outputs = set()
        for workers in (1, 2, 3):
            res = sweep_asymptotic(self.RAGGED, workers=workers)
            csv, pgm = tmp_path / f"{workers}.csv", tmp_path / f"{workers}.pgm"
            write_grid_csv(res, csv)
            write_grid_pgm(res, pgm)
            outputs.add((csv.read_bytes(), pgm.read_bytes()))
        assert len(outputs) == 1


class TestCsvOutput:
    def test_layout_and_order(self, tmp_path):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        res = sweep_measure(spec, samples_per_cell=100, base_seed=0)
        path = tmp_path / "grid.csv"
        write_grid_csv(res, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0] == "tau_L,tau_R,value,undecided"
        first = lines[1].split(",")
        second = lines[2].split(",")
        # corner (lo, lo) first, tau_R varying fastest
        assert float(first[0]) == 1.0 and float(first[1]) == -1.0
        assert float(second[0]) == 1.0 and float(second[1]) == 0.0
        # values round-trip exactly through repr
        assert float(first[2]) == res.values[0, 0]

    def test_asymptotic_values_are_integers(self, tmp_path):
        res = sweep_asymptotic(spec1(2.0, -0.8))
        path = tmp_path / "grid.csv"
        write_grid_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_L,tau_R,value"
        assert lines[1].split(",")[2] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(sweep_measure(spec, samples_per_cell=150, base_seed=3), p1)
        write_grid_csv(sweep_measure(spec, samples_per_cell=150, base_seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self, tmp_path):
        res = sweep_asymptotic(spec1(2.0, -0.8))
        with pytest.raises(OSError, match="grid CSV"):
            write_grid_csv(res, tmp_path / "missing" / "grid.csv")


class TestPgmOutput:
    def test_measure_pixels(self, tmp_path):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        values = np.array([[0.0, 1.0], [0.5, 0.25]])
        res = GridResult(spec, GridMode.MEASURE, values, np.zeros((2, 2)))
        path = tmp_path / "grid.pgm"
        write_grid_pgm(res, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        body = raw[len(b"P5\n2 2\n255\n") :]
        # top row is high tau_R: fractions 1.0 and 0.25; bottom 0.0 and 0.5
        assert list(body) == [0, 191, 255, 128]

    def test_non_finite_fraction_is_an_error(self, tmp_path):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        for bad in (np.nan, np.inf):
            values = np.array([[0.0, 1.0], [bad, 0.25]])
            res = GridResult(spec, GridMode.MEASURE, values, np.zeros((2, 2)))
            with pytest.raises((ValueError, ArithmeticError)):
                write_grid_pgm(res, tmp_path / "grid.pgm")

    def test_asymptotic_pixels(self, tmp_path):
        spec = GridSpec((1.0, 1.0), (-1.0, 0.0), 1, 2, 1.4, -1.2)
        values = np.array([[-1, 1]], dtype=np.int64)
        res = GridResult(spec, GridMode.ASYMPTOTIC, values)
        path = tmp_path / "grid.pgm"
        write_grid_pgm(res, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n1 2\n255\n")
        assert list(raw[len(b"P5\n1 2\n255\n") :]) == [255, 0]

    def test_asymptotic_pixels_are_black_or_white(self, tmp_path):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        sentinels = np.full((2, 2), -1, dtype=np.int64)
        path = tmp_path / "grid.pgm"
        write_grid_pgm(GridResult(spec, GridMode.ASYMPTOTIC, sentinels), path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)
        certified = np.array([[-1, 1], [1, -1]], dtype=np.int64)
        write_grid_pgm(GridResult(spec, GridMode.ASYMPTOTIC, certified), path)
        assert list(path.read_bytes()[len(b"P5\n2 2\n255\n") :]) == [255, 0, 0, 255]

    def test_byte_identical_reruns(self, tmp_path):
        spec = GridSpec((1.0, 2.0), (-1.0, 0.0), 2, 2, 1.4, -1.2)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_grid_pgm(sweep_measure(spec, samples_per_cell=150, base_seed=3), p1)
        write_grid_pgm(sweep_measure(spec, samples_per_cell=150, base_seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()
