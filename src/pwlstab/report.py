"""Aggregate analysis of one parameter point, with a JSON-stable report type.

Pulls together the eigen data, circle-map fixed points, regime
classification, attracted-fraction estimate, Birkhoff average and (when the
certificate applies) the arc-graph stability verdict, then condenses them into
one overall summary.  Every field is built from plain dicts/lists/floats so
a report survives a JSON round trip unchanged; the fixed-point, regime,
Lyapunov and certificate blocks are the engines' own records, converted
field by field, so a field added to one of them reaches the report as is.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum

import numpy as np

from .errors import RegimeError
from .maps import NormalForm2D, eig2
from .polygons import CertificateStatus, ga92
from .sphere import (
    birkhoff_lambda,
    classify_regimes,
    g_fixed_points,
    rho_closed_form,
    rho_sampled,
)

# Monte-Carlo runs with more than this fraction of budget-exhausted samples
# say nothing conclusive about the remaining mass.
UNDECIDED_SUMMARY_CAP = 0.1

# The Birkhoff average runs from angle LAMBDA_THETA0 for LAMBDA_ITERS steps
# after LAMBDA_BURN_IN discarded ones; the sampled attracted fraction, where
# no closed form applies, classifies RHO_SAMPLES directions drawn from
# RHO_SEED.
LAMBDA_ITERS = 100_000
LAMBDA_BURN_IN = 1_000
LAMBDA_THETA0 = 0.0
RHO_SAMPLES = 10_000
RHO_SEED = 0


@dataclass(frozen=True)
class AnalysisReport:
    """Full per-point analysis; all fields JSON-plain.

    ``summary`` holds {"kind": one of ExponentiallyStable / MeasureRho /
    Unstable / Undecided, "rho": fraction or None} and is always consistent
    with the constituent verdicts: a Stable certificate forces
    ExponentiallyStable, an instability witness forces Unstable.
    """

    parameters: dict
    eigen: dict
    fixed_points: list
    regime: dict | None
    rho: dict
    lyapunov: dict | None
    certificate: dict | None
    summary: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        return cls(**d)


def _plain(x):
    """JSON-plain copy of a record: a dataclass becomes the dict of its
    fields, an Enum its value, a tuple or list a list and a numpy scalar a
    Python scalar."""
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


def _eigen_side(tau: float, delta: float) -> dict:
    pairs = eig2(tau, delta)
    return {
        "values": [[float(p.value.real), float(p.value.imag)] for p in pairs],
        "angles": [None if p.angle is None else float(p.angle) for p in pairs],
        "degenerate": bool(pairs[0].degenerate),
    }


def _summary_from_rho(rho: dict) -> dict:
    if rho["method"] == "closed_form":
        return {"kind": "MeasureRho", "rho": rho["value"]}
    und = rho.get("undecided") or 0.0
    if und > UNDECIDED_SUMMARY_CAP:
        return {"kind": "Undecided", "rho": None}
    if rho["value"] == 0.0:
        return {"kind": "Unstable", "rho": None}
    return {"kind": "MeasureRho", "rho": rho["value"]}


def analyze(params: NormalForm2D) -> AnalysisReport:
    """Run every applicable analysis at one parameter point."""
    parameters = {
        "tau_L": float(params.tau_L),
        "delta_L": float(params.delta_L),
        "tau_R": float(params.tau_R),
        "delta_R": float(params.delta_R),
    }
    eigen = {
        "left": _eigen_side(params.tau_L, params.delta_L),
        "right": _eigen_side(params.tau_R, params.delta_R),
    }

    fixed_points: list = []
    regime = None
    if params.in_sign_regime:
        fixed_points = _plain(g_fixed_points(params))
        regime = _plain(classify_regimes(params))

    try:
        z0 = np.array([math.cos(LAMBDA_THETA0), math.sin(LAMBDA_THETA0)])
        est = birkhoff_lambda(params, z0, n=LAMBDA_ITERS, burn_in=LAMBDA_BURN_IN)
        lyapunov = {**_plain(est), "theta0": LAMBDA_THETA0}
    except ArithmeticError:
        lyapunov = None  # orbit hit an exact-kernel direction; rare and fatal only here

    rho: dict
    try:
        value = rho_closed_form(params)
        rho = {
            "method": "closed_form",
            "value": float(value),
            "undecided": None,
            "n_samples": None,
            "seed": None,
        }
    except (RegimeError, ArithmeticError):
        est_rho = rho_sampled(params, n_samples=RHO_SAMPLES, seed=RHO_SEED)
        rho = {
            "method": "sampled",
            "value": float(est_rho.rho_hat),
            "undecided": float(est_rho.undecided_fraction),
            "n_samples": int(est_rho.n_samples),
            "seed": int(est_rho.seed),
        }

    certificate = None
    if params.in_certificate_regime:
        verdict = ga92(params)
        certificate = _plain(verdict)
        if verdict.status is CertificateStatus.STABLE:
            summary = {"kind": "ExponentiallyStable", "rho": 1.0}
        elif verdict.status is CertificateStatus.INSTABILITY_WITNESS:
            summary = {"kind": "Unstable", "rho": None}
        else:
            summary = {"kind": "Undecided", "rho": None}
    else:
        summary = _summary_from_rho(rho)

    return AnalysisReport(
        parameters=parameters,
        eigen=eigen,
        fixed_points=fixed_points,
        regime=regime,
        rho=rho,
        lyapunov=lyapunov,
        certificate=certificate,
        summary=summary,
    )
