"""Command-line front end: one subcommand per analysis, machine-readable output.

Exit codes: 0 on success, 2 on regime/precondition/usage errors, 1 on I/O
errors.  All randomness is seeded through flags, so every invocation is
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .errors import RegimeError
from .maps import NormalForm2D
from .polygons import ga92
from .report import analyze
from .sphere import (
    DEFAULT_BURN_IN,
    DEFAULT_ITERS,
    birkhoff_lambda,
    histogram_G,
    rho_closed_form,
    rho_sampled,
)
from .sweep import GridSpec, sweep_asymptotic, sweep_measure, write_grid_csv, write_grid_pgm


def _finite_float(text: str) -> float:
    """argparse type for a float option: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads ``-1e-3`` as a value, not as an option.

    argparse's own negative-number pattern has no exponent, so ``--tr -1e-3``
    would fail with "expected one argument".  Subparsers share the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_params(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tl", type=_finite_float, required=True, help="left trace tau_L")
    sp.add_argument("--dl", type=_finite_float, required=True, help="left determinant delta_L")
    sp.add_argument("--tr", type=_finite_float, required=True, help="right trace tau_R")
    sp.add_argument("--dr", type=_finite_float, required=True, help="right determinant delta_R")


def _params(args) -> NormalForm2D:
    return NormalForm2D(args.tl, args.dl, args.tr, args.dr)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _cmd_analyze(args) -> int:
    report = analyze(_params(args))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    d = report.to_dict()
    print("parameters: " + ", ".join(f"{k}={_fmt(v)}" for k, v in d["parameters"].items()))
    for side in ("left", "right"):
        e = d["eigen"][side]
        vals = ", ".join(f"{re!r}{im:+}j" if im else repr(re) for re, im in e["values"])
        print(f"eigenvalues {side}: {vals}")
    if d["fixed_points"]:
        for fp in d["fixed_points"]:
            print(
                "circle fixed point: theta={theta!r} multiplier={multiplier!r} "
                "side={side} branch={branch}".format(**fp)
            )
    else:
        print("circle fixed points: none (outside sign regime)" if d["regime"] is None
              else "circle fixed points: none")
    if d["regime"] is not None:
        r = d["regime"]
        print(
            f"regime: left={r['left_regime']} theta_Lambda={r['theta_Lambda']!r} "
            f"sector_invariant={r['lambda_invariant']} sector_absorbing={r['lambda_absorbing']}"
        )
        for w in r["warnings"]:
            print(f"warning: {w}")
    rho = d["rho"]
    if rho["method"] == "closed_form":
        print(f"rho (closed form): {rho['value']!r}")
    else:
        print(
            f"rho (sampled, n={rho['n_samples']}, seed={rho['seed']}): {rho['value']!r} "
            f"undecided={rho['undecided']!r}"
        )
    if d["lyapunov"] is not None:
        ly = d["lyapunov"]
        print(
            f"lyapunov estimate: {ly['lambda_hat']!r} +- {ly['std_error']!r} "
            f"(n={ly['n_used']}, burn_in={ly['burn_in']})"
        )
    if d["certificate"] is not None:
        c = d["certificate"]
        line = f"certificate: {c['status']}"
        if c["m"] is not None:
            line += f" m={c['m']}"
        if c["witness"] is not None:
            w = c["witness"]
            line += (
                f" witness period={w['period']} lambda={w['lambda_value']!r} "
                f"thetas={[repr(t) for t in w['thetas']]}"
            )
        if c["note"]:
            line += f" note={c['note']!r}"
        print(line)
    s = d["summary"]
    if s["rho"] is not None:
        print(f"summary: {s['kind']} rho={s['rho']!r}")
    else:
        print(f"summary: {s['kind']}")
    return 0


def _cmd_lambda(args) -> int:
    params = _params(args)
    z0 = np.array([math.cos(args.theta0), math.sin(args.theta0)])
    est = birkhoff_lambda(params, z0, n=args.iters, burn_in=args.burnin)
    print(f"lambda_hat={est.lambda_hat!r}")
    print(f"std_error={est.std_error!r}")
    print(f"n_used={est.n_used}")
    print(f"burn_in={est.burn_in}")
    return 0


def _cmd_hist(args) -> int:
    params = _params(args)
    density, edges = histogram_G(params, theta0=args.theta0, n=args.iters, bins=args.bins)
    try:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("bin_lo,bin_hi,density\n")
            for lo, hi, dv in zip(edges[:-1], edges[1:], density):
                fh.write(f"{float(lo)!r},{float(hi)!r},{float(dv)!r}\n")
    except OSError as exc:
        raise OSError(f"cannot write histogram to {args.out}: {exc}") from exc
    print(f"wrote {args.out} ({args.bins} bins, {args.iters} iterates)")
    return 0


def _cmd_rho(args) -> int:
    params = _params(args)
    try:
        closed_form = f"rho_closed_form={rho_closed_form(params)!r}"
    except (RegimeError, ArithmeticError) as exc:
        closed_form = f"rho_closed_form=unavailable reason={str(exc)!r}"
    est = rho_sampled(params, n_samples=args.samples, seed=args.seed)
    print(closed_form)
    print(f"rho_sampled={est.rho_hat!r}")
    print(f"undecided={est.undecided_fraction!r}")
    print(f"n_samples={est.n_samples}")
    print(f"seed={est.seed}")
    return 0


def _cmd_ga92(args) -> int:
    params = _params(args)
    verdict = ga92(params)
    print(f"status={verdict.status.value}")
    if verdict.m is not None:
        print(f"m={verdict.m}")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"witness_period={w.period}")
        print(f"witness_lambda={w.lambda_value!r}")
        print(f"witness_thetas={','.join(repr(t) for t in w.thetas)}")
    if verdict.note:
        print(f"note={verdict.note}")
    return 0


def _cmd_sweep(args) -> int:
    spec = GridSpec(
        tau_L_range=(args.tl_min, args.tl_max),
        tau_R_range=(args.tr_min, args.tr_max),
        nx=args.nx,
        ny=args.ny,
        delta_L=args.dl,
        delta_R=args.dr,
    )
    if args.mode == "measure":
        result = sweep_measure(
            spec, samples_per_cell=args.samples, base_seed=args.seed, workers=args.workers
        )
    else:
        result = sweep_asymptotic(spec, workers=args.workers)
    write_grid_csv(result, args.out)
    written = [str(args.out)]
    if args.pgm:
        write_grid_pgm(result, args.pgm)
        written.append(str(args.pgm))
    if args.mode == "measure":
        stat = f"mean_fraction={float(result.values.mean())!r}"
    else:
        stable = int((result.values >= 0).sum())
        stat = f"stable_cells={stable}/{result.values.size}"
    print(f"wrote {' and '.join(written)} ({args.mode}, {spec.nx}x{spec.ny}, {stat})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``main`` may run many times in-process."""
    p = _Parser(
        prog="pwlstab",
        description=(
            "Stability analyses for continuous piecewise-linear planar maps "
            "with one switching line"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full per-point report")
    _add_params(sp)
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("lambda", help="Birkhoff average of the log radial stretch")
    _add_params(sp)
    sp.add_argument("--theta0", type=_finite_float, default=0.0, help="initial angle")
    sp.add_argument("--iters", type=int, default=DEFAULT_ITERS, help="orbit length")
    sp.add_argument("--burnin", type=int, default=DEFAULT_BURN_IN, help="discarded prefix")
    sp.set_defaults(func=_cmd_lambda)

    sp = sub.add_parser("hist", help="empirical angle density of the circle map")
    _add_params(sp)
    sp.add_argument("--theta0", type=_finite_float, default=0.0)
    sp.add_argument("--iters", type=int, default=100_000)
    sp.add_argument("--bins", type=int, default=400)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_hist)

    sp = sub.add_parser("rho", help="attracted fraction of directions")
    _add_params(sp)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_rho)

    sp = sub.add_parser("ga92", help="sub-action asymptotic stability certificate")
    _add_params(sp)
    sp.set_defaults(func=_cmd_ga92)

    sp = sub.add_parser("sweep", help="parameter-plane sweep over (tau_L, tau_R)")
    sp.add_argument("--mode", choices=("measure", "asymptotic"), required=True)
    sp.add_argument("--tl-min", type=_finite_float, required=True)
    sp.add_argument("--tl-max", type=_finite_float, required=True)
    sp.add_argument("--tr-min", type=_finite_float, required=True)
    sp.add_argument("--tr-max", type=_finite_float, required=True)
    sp.add_argument("--nx", type=int, default=128)
    sp.add_argument("--ny", type=int, default=64)
    sp.add_argument("--dl", type=_finite_float, required=True)
    sp.add_argument("--dr", type=_finite_float, required=True)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--pgm", default=None, help="also write an 8-bit PGM image here")
    sp.add_argument("--samples", type=int, default=100, help="measure mode: samples per cell")
    sp.add_argument("--seed", type=int, default=0, help="measure mode: base seed")
    sp.add_argument(
        "--m-max", type=int, default=30, help="no effect; kept so that older command lines parse"
    )
    sp.add_argument("--workers", type=int, default=1, help="parallel worker processes, at most "
                    "one per CPU and per tau_L row; outputs do not depend on it")
    sp.set_defaults(func=_cmd_sweep)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
