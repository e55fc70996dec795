"""Spans around pwlstab's layer functions, recorded from outside the package.

``Tracer.install`` replaces each traced function at every module that binds
it (``sweep``, ``report`` and ``cli`` import ``ga92``, ``rho_sampled`` and
the others by name) and ``uninstall`` puts the originals back.  Each call
records a span in memory: name, start, end, parent span, the parameter
point it serves, and a few facts about its result.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

# Traced functions per module: the layers the per-layer metrics name.
TRACED = {
    "maps": ["NormalForm2D.pwl", "eig2"],
    "sphere": ["periodic_orbits_G", "rho_sampled", "birkhoff_lambda", "rho_closed_form"],
    "polygons": ["ga92", "image_polygon", "union_star", "containment_protrusion", "separated_from_gamma"],
    "sweep": ["sweep_asymptotic", "sweep_measure", "write_grid_csv", "write_grid_pgm"],
    "report": ["analyze"],
    "cli": ["main"],
}
WITNESS_LAMBDA = 1e-9  # the certificate's own threshold for a positive Birkhoff sum

_NAME, _START, _END, _PARENT, _POINT, _INFO = range(6)


def _point_of(arg):
    """(tau_L, delta_L, tau_R, delta_R) of a NormalForm2D or planar PWLMap."""
    if hasattr(arg, "tau_L"):
        return (arg.tau_L, arg.delta_L, arg.tau_R, arg.delta_R)
    a_left = getattr(arg, "A_left", None)
    if a_left is not None and a_left.shape == (2, 2):
        a_right = arg.A_right
        return (float(a_left[0, 0]), float(-a_left[1, 0]), float(a_right[0, 0]), float(-a_right[1, 0]))
    return None


def _info(name: str, fn, args, kwargs, out):
    """The facts a per-layer metric needs from one call's result."""
    if name == "sphere.periodic_orbits_G":
        return (len(out), any(o.lambda_value > WITNESS_LAMBDA for o in out))
    if name == "sphere.rho_sampled":
        return (out.n_samples, out.undecided_fraction)
    if name == "sphere.birkhoff_lambda":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n"] + bound.arguments["burn_in"]
    if name == "polygons.ga92":
        return (out.status.value, out.m, out.k, len(out.containment_residuals), out.note)
    if name == "polygons.image_polygon":
        return out.angles.size
    if name == "sweep.sweep_asymptotic":
        spec = args[0]
        bound = 2.0 * math.sqrt(spec.delta_L)
        return int((spec.tau_L_values() >= bound).sum()) * spec.ny
    if name.startswith("sweep.write_grid_"):
        path = args[1] if len(args) > 1 else kwargs["path"]
        return os.path.getsize(path)
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            point = _point_of(args[0]) if args else None
            if point is None and parent is not None:
                point = parent[_POINT]
            rec = [name, clock(), 0.0, parent, point, "raised"]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[_INFO] = _info(name, fn, args, kwargs, out)
                return out
            finally:
                rec[_END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        mods = [self.package] + [
            sys.modules[f"{self.package.__name__}.{m}"] for m in TRACED
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"{self.package.__name__}.{layer}"]
            for qual in names:
                if "." in qual:  # a method: patch it on its class
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(f"{layer}.{qual}", orig))
                    continue
                orig = getattr(home, qual)
                wrapper = self._wrap(f"{layer}.{qual}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as CSV: id, parent id, name, start and end in seconds, point."""
        ids = {id(rec): k for k, rec in enumerate(self.spans)}
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s,point\n")
            for k, rec in enumerate(self.spans):
                parent = "" if rec[_PARENT] is None else ids[id(rec[_PARENT])]
                point = "" if rec[_POINT] is None else " ".join(repr(x) for x in rec[_POINT])
                fh.write(f"{k},{parent},{rec[_NAME]},{rec[_START] - t0:.9f},{rec[_END] - t0:.9f},{point}\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round counts and self seconds of every traced layer.

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it on the one thread."""
        self_s: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for rec in self.spans:
            if rec[_PARENT] is not None:
                key = id(rec[_PARENT])
                child_time[key] = child_time.get(key, 0.0) + rec[_END] - rec[_START]
        by_name: dict[str, list[list]] = {}
        for rec in self.spans:
            name = rec[_NAME]
            by_name.setdefault(name, []).append(rec)
            self_s[name] = self_s.get(name, 0.0) + rec[_END] - rec[_START] - child_time.get(id(rec), 0.0)

        def recs(name):
            return by_name.get(name, [])

        def ok(name):
            return [r for r in recs(name) if r[_INFO] != "raised"]

        m: dict[str, float] = {}
        for layer, names in TRACED.items():
            for qual in names:
                name = f"{layer}.{qual}"
                m[f"{name}.calls"] = len(recs(name))
                m[f"{name}.self_s"] = self_s.get(name, 0.0)

        orbits = ok("sphere.periodic_orbits_G")
        m["sphere.periodic_orbits_G.orbits"] = sum(r[_INFO][0] for r in orbits)
        m["sphere.periodic_orbits_G.witness_ratio"] = _ratio(sum(r[_INFO][1] for r in orbits), len(orbits))
        rho = ok("sphere.rho_sampled")
        samples = sum(r[_INFO][0] for r in rho)
        m["sphere.rho_sampled.samples"] = samples
        m["sphere.rho_sampled.classified_ratio"] = _ratio(
            samples - sum(round(r[_INFO][0] * r[_INFO][1]) for r in rho), samples
        )
        m["sphere.birkhoff_lambda.steps"] = sum(r[_INFO] for r in ok("sphere.birkhoff_lambda"))
        m["sphere.rho_closed_form.answered"] = len(ok("sphere.rho_closed_form"))

        ga = recs("polygons.ga92")
        verdicts = ok("polygons.ga92")
        m["polygons.ga92.raised"] = len(ga) - len(verdicts)
        outcome = {"stable": [], "witness": [], "no_trap": [], "not_cleared": [], "marginal": []}
        for r in verdicts:
            status, mm, _, _, note = r[_INFO]
            if status == "Stable":
                outcome["stable"].append(r)
            elif status == "InstabilityWitness":
                outcome["witness"].append(r)
            elif mm is None:
                outcome["no_trap"].append(r)
            elif "marginal" in note:
                outcome["marginal"].append(r)
            else:
                outcome["not_cleared"].append(r)
        m["polygons.ga92.decided_ratio"] = _ratio(len(outcome["stable"]) + len(outcome["witness"]), len(ga))
        m["polygons.ga92.generations"] = sum(r[_INFO][3] for r in verdicts)
        m["polygons.ga92.iterates"] = sum(r[_INFO][2] or 0 for r in verdicts)
        for kind, rs in outcome.items():
            m[f"polygons.ga92.{kind}.count"] = len(rs)
            m[f"polygons.ga92.{kind}.s"] = sum(r[_END] - r[_START] for r in rs)
        m["polygons.image_polygon.vertices_out"] = sum(r[_INFO] for r in ok("polygons.image_polygon"))
        m["sweep.out_of_regime_cells"] = sum(r[_INFO] for r in ok("sweep.sweep_asymptotic"))
        for kind in ("csv", "pgm"):
            m[f"sweep.write_grid_{kind}.bytes"] = sum(r[_INFO] for r in ok(f"sweep.write_grid_{kind}"))
        ms = [1e3 * (r[_END] - r[_START]) for r in recs("report.analyze")]
        m["report.analyze.ms_p50"] = _percentile(ms, 0.5)
        m["report.analyze.ms_p90"] = _percentile(ms, 0.9)

        per_round = {k: v / rounds for k, v in m.items() if not _is_ratio_or_latency(k)}
        m.update(per_round)
        return m


def _is_ratio_or_latency(name: str) -> bool:
    return name.endswith(("_ratio", ".ms_p50", ".ms_p90"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, math.ceil(q * len(s)) - 1)]
