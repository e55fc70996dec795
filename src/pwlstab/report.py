"""Aggregate analysis of one parameter point, with a JSON-stable report type.

Pulls together the eigen data, circle-map fixed points, regime
classification, attracted-fraction estimate, Birkhoff average and (when the
certificate applies) the polygon stability verdict, then condenses them into
one overall summary.  Every field is built from plain dicts/lists/floats so
a report survives a JSON round trip unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .maps import NormalForm2D, eig2
from .polygons import CertificateStatus, Ga92Verdict, ga92
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
        return {
            "parameters": self.parameters,
            "eigen": self.eigen,
            "fixed_points": self.fixed_points,
            "regime": self.regime,
            "rho": self.rho,
            "lyapunov": self.lyapunov,
            "certificate": self.certificate,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        return cls(
            parameters=d["parameters"],
            eigen=d["eigen"],
            fixed_points=d["fixed_points"],
            regime=d["regime"],
            rho=d["rho"],
            lyapunov=d["lyapunov"],
            certificate=d["certificate"],
            summary=d["summary"],
        )


def _eigen_side(params: NormalForm2D, side: str) -> dict:
    plus, minus = eig2(params.matrix(side))
    return {
        "values": [
            [float(plus.value.real), float(plus.value.imag)],
            [float(minus.value.real), float(minus.value.imag)],
        ],
        "angles": [
            None if plus.angle is None else float(plus.angle),
            None if minus.angle is None else float(minus.angle),
        ],
        "degenerate": bool(plus.degenerate),
    }


def _certificate_dict(v: Ga92Verdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "thetas": [float(t) for t in v.witness.thetas],
            "period": int(v.witness.period),
            "lambda_value": float(v.witness.lambda_value),
            "multiplier": float(v.witness.multiplier),
        }
    return {
        "status": v.status.value,
        "m": None if v.m is None else int(v.m),
        "k": None if v.k is None else int(v.k),
        "m_max": int(v.m_max),
        "k_max": int(v.k_max),
        "witness": witness,
        "containment_residuals": [float(r) for r in v.containment_residuals],
        "note": v.note,
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


def analyze(
    params: NormalForm2D,
    lambda_iters: int = 100_000,
    lambda_burn_in: int = 1_000,
    lambda_theta0: float = 0.0,
    rho_samples: int = 10_000,
    seed: int = 0,
) -> AnalysisReport:
    """Run every applicable analysis at one parameter point."""
    parameters = {
        "tau_L": float(params.tau_L),
        "delta_L": float(params.delta_L),
        "tau_R": float(params.tau_R),
        "delta_R": float(params.delta_R),
    }
    eigen = {
        "left": _eigen_side(params, "left"),
        "right": _eigen_side(params, "right"),
    }

    fixed_points: list = []
    regime = None
    if params.in_sign_regime:
        fixed_points = [
            {
                "theta": float(fp.theta),
                "multiplier": float(fp.multiplier),
                "side": fp.side,
                "branch": fp.branch,
            }
            for fp in g_fixed_points(params)
        ]
        rep = classify_regimes(params)
        regime = {
            "left_regime": rep.left_regime,
            "left_fixed_points": (
                None
                if rep.left_fixed_points is None
                else [float(t) for t in rep.left_fixed_points]
            ),
            "right_fixed_point": float(rep.right_fixed_point),
            "right_multiplier": float(rep.right_multiplier),
            "right_attracting": bool(rep.right_attracting),
            "theta_Lambda": float(rep.theta_Lambda),
            "lambda_invariant": bool(rep.lambda_invariant),
            "lambda_absorbing": bool(rep.lambda_absorbing),
            "warnings": list(rep.warnings),
        }

    lyapunov = None
    try:
        z0 = np.array([math.cos(lambda_theta0), math.sin(lambda_theta0)])
        est = birkhoff_lambda(params, z0, n=lambda_iters, burn_in=lambda_burn_in)
        lyapunov = {
            "lambda_hat": float(est.lambda_hat),
            "std_error": float(est.std_error),
            "n_used": int(est.n_used),
            "burn_in": int(est.burn_in),
            "theta0": float(lambda_theta0),
        }
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
        est_rho = rho_sampled(params, n_samples=rho_samples, seed=seed)
        rho = {
            "method": "sampled",
            "value": float(est_rho.rho_hat),
            "undecided": float(est_rho.undecided_fraction),
            "n_samples": int(est_rho.n_samples),
            "seed": int(est_rho.seed),
        }

    certificate = None
    if params.in_sign_regime and params.tau_L < params.left_spiral_bound:
        certificate = _certificate_dict(ga92(params))

    if certificate is not None:
        if certificate["status"] == CertificateStatus.STABLE.value:
            summary = {"kind": "ExponentiallyStable", "rho": 1.0}
        elif certificate["status"] == CertificateStatus.INSTABILITY_WITNESS.value:
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
