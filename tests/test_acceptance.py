"""Top-level acceptance checks, one pass/fail line per criterion.

Each test exercises the library or CLI exactly as a user would and records
a single summary line; the terminal summary collects all six.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from pwlstab import (
    CertificateStatus,
    GridSpec,
    NormalForm2D,
    OrbitStatus,
    PWLMap,
    birkhoff_lambda,
    circle_G,
    eig2,
    eval_pwl,
    ga92,
    orbit,
    periodic_orbits_G,
    perturbed_map,
    sweep_asymptotic,
    sweep_measure,
)
from pwlstab.polygons import (
    EPS_GEOM,
    StarPolygon,
    containment_protrusion,
    image_polygon,
    union_star,
)

from conftest import (
    LAMBDA_STABLE_REF,
    LAMBDA_UNSTABLE_REF,
    PT_STABLE,
    PT_UNSTABLE,
    record_acceptance,
)
from regions import certified_region


def run_cli(*args):
    out = subprocess.run(
        [sys.executable, "-m", "pwlstab.cli", *args],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def kv(stdout: str) -> dict:
    return dict(
        line.split("=", 1) for line in stdout.splitlines() if "=" in line
    )


def test_criterion_1_rho_reproduction():
    t0 = time.perf_counter()
    pairs = kv(run_cli("rho", "--tl", "2.5", "--dl", "1.4", "--tr", "-0.5", "--dr", "-1.2"))
    elapsed = time.perf_counter() - t0
    cf = float(pairs["rho_closed_form"])
    mc = float(pairs["rho_sampled"])
    ok = abs(cf - 0.37) <= 0.005 and abs(mc - cf) <= 0.02 and elapsed < 10.0
    assert record_acceptance(
        1,
        "attracted-fraction reproduction",
        ok,
        f"closed_form={cf:.4f} sampled={mc:.4f} ({int(pairs['n_samples'])} samples, {elapsed:.1f}s)",
    )


def test_criterion_2_lambda_reproduction():
    details = []
    ok = True
    for pt, ref in ((PT_STABLE, LAMBDA_STABLE_REF), (PT_UNSTABLE, LAMBDA_UNSTABLE_REF)):
        t0 = time.perf_counter()
        est = birkhoff_lambda(
            NormalForm2D(*pt), np.array([1.0, 0.0]), n=10**6, burn_in=1000
        )
        elapsed = time.perf_counter() - t0
        ok = ok and abs(est.lambda_hat - ref) <= 0.01 and elapsed < 5.0
        details.append(f"tau_L={pt[0]}: {est.lambda_hat:.4f} vs {ref} ({elapsed:.1f}s)")
    assert record_acceptance(
        2, "average log-stretch, 1e6 iterates", ok, "; ".join(details)
    )


def test_criterion_3_period_3_obstruction():
    t0 = time.perf_counter()
    orbits = periodic_orbits_G(NormalForm2D(*PT_UNSTABLE), p_max=6)
    p3 = [o for o in orbits if o.period == 3 and o.lambda_value > 0]
    witness = ga92(NormalForm2D(*PT_UNSTABLE))
    t_unstable = time.perf_counter() - t0
    t0 = time.perf_counter()
    stable = ga92(NormalForm2D(*PT_STABLE))
    t_stable = time.perf_counter() - t0
    ok = (
        len(p3) == 1
        and abs(p3[0].lambda_value - 0.03) <= 0.005
        and witness.status is CertificateStatus.INSTABILITY_WITNESS
        and stable.status is CertificateStatus.STABLE
        and stable.m is not None
        and stable.m <= 30
        and t_unstable < 30.0
        and t_stable < 30.0
    )
    assert record_acceptance(
        3,
        "period-3 obstruction vs certificate",
        ok,
        f"lambda3={p3[0].lambda_value:.4f} witness={witness.status.value} "
        f"stable=(m={stable.m},k={stable.k}) ({t_unstable:.1f}s/{t_stable:.1f}s)",
    )


def test_criterion_4_sweep_consistency():
    spec = GridSpec((0.0, 3.5), (-2.0, 1.0), 64, 32, 1.4, -1.2)
    t0 = time.perf_counter()
    asym = sweep_asymptotic(spec)
    meas = sweep_measure(spec, samples_per_cell=100, base_seed=0)
    elapsed = time.perf_counter() - t0

    stable_mask = asym.values >= 0
    n_stable = int(stable_mask.sum())
    n = 100
    f = meas.values[stable_mask]
    sigma = np.sqrt(f * (1.0 - f) / n)
    fraction_ok = bool(np.all(f >= 1.0 - 3.0 * sigma))

    bound = 2.0 * math.sqrt(1.4)
    tl = spec.tau_L_values()
    stable_cols = np.unique(np.nonzero(stable_mask)[0])
    left_of_bound = bool(np.all(tl[stable_cols] < bound)) if len(stable_cols) else True

    ok = fraction_ok and left_of_bound and n_stable > 0 and elapsed < 600.0
    assert record_acceptance(
        4,
        "64x32 sweep: certificate inside measure-1 region",
        ok,
        f"{n_stable} stable cells, min fraction {f.min():.3f}, "
        f"max tau_L {tl[stable_cols].max():.3f} < {bound:.3f} ({elapsed:.1f}s)",
    )


def _random_companion_params(rng) -> NormalForm2D:
    return NormalForm2D(
        float(rng.uniform(-2.5, 2.5)),
        float(rng.uniform(0.3, 1.8)),
        float(rng.uniform(-2.5, 2.5)),
        float(rng.uniform(-1.8, -0.3)),
    )


def _prop_homogeneity_continuity(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(10_000):
        m = _random_companion_params(rng).pwl()
        x = rng.normal(size=2)
        alpha = float(rng.uniform(0.01, 10.0))
        lhs = eval_pwl(m, alpha * x)
        rhs = alpha * eval_pwl(m, x)
        scale = max(1.0, float(np.linalg.norm(rhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
        # boundary point: both matrices must produce the same image
        y = float(rng.uniform(-3.0, 3.0))
        b = np.array([0.0, y])
        d = np.linalg.norm(m.A_left @ b - m.A_right @ b)
        worst = max(worst, float(d) / max(1.0, abs(y)))
    return worst <= 1e-12, f"homogeneity/continuity worst={worst:.2e}"


def _prop_eigen_bijection(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(1_000):
        params = _random_companion_params(rng)
        for tau, delta, mat in (
            (params.tau_L, params.delta_L, params.pwl().A_left),
            (params.tau_R, params.delta_R, params.pwl().A_right),
        ):
            lam1, lam2 = (p.value for p in eig2(tau, delta))
            # the matrices pwl() builds must have the eigenvalues of (tau, delta)
            mu1, mu2 = np.linalg.eigvals(mat)
            scale = max(1.0, abs(lam1), abs(lam2))
            worst = max(
                worst,
                abs((lam1 + lam2).real - tau) / max(1.0, abs(tau)),
                abs((lam1 * lam2).real - delta) / max(1.0, abs(delta)),
                min(max(abs(mu1 - lam1), abs(mu2 - lam2)),
                    max(abs(mu1 - lam2), abs(mu2 - lam1))) / scale,
            )
    return worst <= 1e-10, f"trace/det and eigvals roundtrip worst={worst:.2e}"


def _prop_factorization(rng) -> tuple[bool, str]:
    # |g^n(z)| must equal the product of the per-step stretches measured
    # on the unit circle along the same orbit
    worst = 0.0
    for _ in range(100):
        params = _random_companion_params(rng)
        m = params.pwl()
        n = int(rng.integers(1, 201))
        theta = float(rng.uniform(0.0, math.pi))
        x = np.array([math.cos(theta), math.sin(theta)])
        log_sum = 0.0
        for _ in range(n):
            r = float(np.linalg.norm(x))
            log_sum += math.log(float(np.linalg.norm(eval_pwl(m, x / r))))
            x = eval_pwl(m, x)
        direct = math.log(float(np.linalg.norm(x)))
        worst = max(worst, abs(direct - log_sum) / max(1.0, abs(log_sum)))
    return worst <= 1e-8, f"norm factorization (n<=200) worst={worst:.2e}"


def _prop_G_monotone(rng) -> tuple[bool, str]:
    pts = [NormalForm2D(*PT_STABLE), NormalForm2D(*PT_UNSTABLE)]
    pts += [_random_companion_params(rng) for _ in range(20)]
    ok = True
    for params in pts:
        right = circle_G(params, np.linspace(0.0, math.pi / 2, 2000))
        left = circle_G(params, np.linspace(math.pi / 2, math.pi - 1e-9, 2000))
        ok = ok and bool(np.all(np.diff(right) < 0.0))
        ok = ok and bool(np.all(np.diff(left) > 0.0))
        ok = ok and circle_G(params, math.pi / 2) == 0.0
    return ok, f"G branch monotonicity + G(pi/2)=0 on {len(pts)} parameter points"


def _prop_area_law(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        params = _random_companion_params(rng)
        k = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            lo, hi = 1e-3, math.pi / 2 - 1e-3
            det = abs(params.delta_R)
        else:
            lo, hi = math.pi / 2 + 1e-3, math.pi - 1e-3
            det = params.delta_L
        ang = np.sort(rng.uniform(lo, hi, size=k))
        poly = StarPolygon(ang, rng.uniform(0.3, 2.0, size=k))
        img = image_polygon(params, poly)
        worst = max(worst, abs(img.area() - det * poly.area()) / (det * poly.area()))
    return worst <= 1e-9, f"single-side area law worst={worst:.2e}"


def _sample_stable_points(rng, count=20, max_draws=400):
    found = []
    for _ in range(max_draws):
        params = NormalForm2D(
            float(rng.uniform(0.1, 2.3)), 1.4, float(rng.uniform(-1.1, 0.6)), -1.2
        )
        v = ga92(params)
        if v.status is CertificateStatus.STABLE:
            found.append((params, v))
            if len(found) == count:
                break
    return found


def _prop_absorption(stable_points) -> tuple[bool, str]:
    ok = True
    for params, v in stable_points:
        omega = certified_region(params, v)
        grown = union_star(omega, image_polygon(params, omega))
        ok = ok and containment_protrusion(grown, omega) <= EPS_GEOM
        ok = ok and containment_protrusion(omega, grown) <= EPS_GEOM
    return ok, f"trapped region stationary at {len(stable_points)} certified points"


def _prop_perturbation(stable_points, rng) -> tuple[bool, str]:
    n_conv = 0
    for params, _ in stable_points:
        step = perturbed_map(params.pwl(), c=0.1, gamma=0.5)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        x0 = 1e-3 * np.array([math.cos(phi), math.sin(phi)])
        res = orbit(step, x0)
        n_conv += res.status is OrbitStatus.CONVERGED
    return n_conv == len(stable_points), (
        f"{n_conv}/{len(stable_points)} perturbed orbits converged"
    )


def test_criterion_5_property_suites():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    parts = [
        _prop_homogeneity_continuity(rng),
        _prop_eigen_bijection(rng),
        _prop_factorization(rng),
        _prop_G_monotone(rng),
        _prop_area_law(rng),
    ]
    stable_points = _sample_stable_points(rng)
    parts.append(_prop_absorption(stable_points))
    parts.append(_prop_perturbation(stable_points, rng))
    elapsed = time.perf_counter() - t0
    ok = all(p[0] for p in parts) and len(stable_points) == 20
    assert record_acceptance(
        5,
        "property suites",
        ok,
        "; ".join(p[1] for p in parts) + f" ({elapsed:.1f}s)",
    )


def test_criterion_6_determinism(tmp_path):
    sweep_args = [
        "sweep", "--mode", "measure",
        "--tl-min", "1.0", "--tl-max", "2.0",
        "--tr-min", "-1.0", "--tr-max", "0.0",
        "--nx", "2", "--ny", "2", "--dl", "1.4", "--dr", "-1.2",
        "--samples", "100",
    ]
    paths = [
        (tmp_path / f"{tag}.csv", tmp_path / f"{tag}.pgm") for tag in ("a", "b", "c")
    ]
    for (csv, pgm), workers in zip(paths, ("1", "1", "2")):
        run_cli(*sweep_args, "--out", str(csv), "--pgm", str(pgm), "--workers", workers)
    byte_equal = (
        paths[0][0].read_bytes() == paths[1][0].read_bytes() == paths[2][0].read_bytes()
        and paths[0][1].read_bytes()
        == paths[1][1].read_bytes()
        == paths[2][1].read_bytes()
    )
    rho_args = ["rho", "--tl", "2.5", "--dl", "1.4", "--tr", "-0.5", "--dr", "-1.2",
                "--samples", "500", "--seed", "3"]
    stdout_equal = run_cli(*rho_args) == run_cli(*rho_args)
    ok = byte_equal and stdout_equal
    assert record_acceptance(
        6,
        "deterministic seeded output",
        ok,
        "CSV/PGM byte-identical across reruns and worker counts; CLI stdout stable",
    )
