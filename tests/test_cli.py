"""End-to-end command-line checks through fresh interpreter processes."""

import hashlib
import importlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pwlstab import AnalysisReport, NormalForm2D, cli, ga92

from conftest import FOLD_RHO, PT_CONTRACT, PT_CYCLING, PT_FOLD, PT_STABLE, PT_UNSTABLE

STABLE_ARGS = ["--tl", "2", "--dl", "1.4", "--tr", "-0.8", "--dr", "-1.2"]
FOLD_ARGS = ["--tl", "2.5", "--dl", "1.4", "--tr", "-0.5", "--dr", "-1.2"]
UNSTABLE_ARGS = ["--tl", "1.4", "--dl", "1.4", "--tr", "-1.4", "--dr", "-1.2"]

README = Path(__file__).resolve().parent.parent / "README.md"
BENCH = Path(__file__).resolve().parent.parent / "bench"

# Key paths of `analyze --json`; the items of a list of dicts share its path.
REPORT_KEYS = {
    "parameters", "parameters.tau_L", "parameters.delta_L", "parameters.tau_R",
    "parameters.delta_R",
    "eigen", "eigen.left", "eigen.left.values", "eigen.left.angles",
    "eigen.left.degenerate", "eigen.right", "eigen.right.values",
    "eigen.right.angles", "eigen.right.degenerate",
    "fixed_points", "fixed_points.theta", "fixed_points.multiplier",
    "fixed_points.side", "fixed_points.branch",
    "regime", "regime.left_regime", "regime.left_fixed_points",
    "regime.right_fixed_point", "regime.right_multiplier",
    "regime.right_attracting", "regime.theta_Lambda", "regime.lambda_invariant",
    "regime.lambda_absorbing", "regime.warnings",
    "rho", "rho.method", "rho.value", "rho.undecided", "rho.n_samples", "rho.seed",
    "lyapunov", "lyapunov.lambda_hat", "lyapunov.std_error", "lyapunov.n_used",
    "lyapunov.burn_in", "lyapunov.theta0",
    "certificate",
    "summary", "summary.kind", "summary.rho",
}
CERTIFICATE_KEYS = {
    "certificate.status", "certificate.m", "certificate.k", "certificate.witness",
    "certificate.containment_residuals", "certificate.note",
}
WITNESS_KEYS = {
    "certificate.witness.thetas", "certificate.witness.period",
    "certificate.witness.lambda_value", "certificate.witness.multiplier",
}


def run_cli(*args, check=True):
    out = subprocess.run(
        [sys.executable, "-m", "pwlstab.cli", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert out.returncode == 0, out.stderr
    return out


def parse_kv(stdout: str) -> dict:
    pairs = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


def key_paths(d: dict, prefix: str = "") -> set[str]:
    paths = set()
    for key, value in d.items():
        paths.add(prefix + key)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                paths |= key_paths(item, f"{prefix}{key}.")
    return paths


def readme_examples() -> list[tuple[str, str]]:
    """(command, stdout) of each `$ pwlstab ...` example in the README: the
    lines after the command, up to a blank line or the end of its block."""
    examples = []
    lines = None
    for line in README.read_text().splitlines():
        if line.startswith("$ pwlstab "):
            lines = []
            examples.append((line[2:], lines))
        elif lines is not None and line and not line.startswith("```"):
            lines.append(line)
        else:
            lines = None
    return [(command, "".join(f"{line}\n" for line in out)) for command, out in examples]


class TestAnalyze:
    @pytest.mark.parametrize(
        "args, expected",
        [
            (UNSTABLE_ARGS, REPORT_KEYS | CERTIFICATE_KEYS | WITNESS_KEYS),
            (STABLE_ARGS, REPORT_KEYS | CERTIFICATE_KEYS),
            (FOLD_ARGS, REPORT_KEYS),
        ],
        ids=["witness", "stable", "closed_form"],
    )
    def test_json_key_paths(self, args, expected):
        out = run_cli("analyze", *args, "--json")
        assert key_paths(json.loads(out.stdout)) == expected

    def test_json_round_trip(self):
        out = run_cli("analyze", *STABLE_ARGS, "--json")
        d = json.loads(out.stdout)
        assert AnalysisReport.from_dict(d).to_dict() == d
        assert d["summary"] == {"kind": "ExponentiallyStable", "rho": 1.0}
        assert d["certificate"]["status"] == "Stable"

    def test_unstable_summary(self):
        out = run_cli("analyze", *UNSTABLE_ARGS, "--json")
        d = json.loads(out.stdout)
        assert d["summary"]["kind"] == "Unstable"
        assert d["certificate"]["witness"]["period"] == 3

    def test_measure_summary(self):
        out = run_cli("analyze", *FOLD_ARGS, "--json")
        d = json.loads(out.stdout)
        assert d["summary"]["kind"] == "MeasureRho"
        assert d["summary"]["rho"] == FOLD_RHO
        # rotating left half: no certificate attempted
        assert d["certificate"] is None

    def test_human_readable_mentions_verdict(self):
        out = run_cli("analyze", *STABLE_ARGS)
        assert "summary: ExponentiallyStable" in out.stdout

    @pytest.mark.parametrize(
        "point, digest",
        [
            (PT_FOLD, "ea01654e340d2edbe478c5ff834f5383e432db66af0b1a69c67b60b4cb3937bb"),
            (PT_STABLE, "109288a96fa5336eced5104f739d0cfd6a03d11f0baebdd9c619223ffe543825"),
            (PT_UNSTABLE, "d4c5c7fb1490e4ff69df494dbc23cea098fc9604c09808adf84d7ec800e444bf"),
            (PT_CONTRACT, "ff08f43fc5fc5ed0332fa580e069bf06ffed36f14765c79581ccd29fefab9c6b"),
        ],
        ids=["fold", "stable", "unstable", "contract"],
    )
    def test_json_output_pinned(self, point, digest):
        # every byte of the report, lambda_hat and rho (sampled or exact) included
        args = [a for flag, v in zip(("--tl", "--dl", "--tr", "--dr"), point)
                for a in (flag, repr(v))]
        out = run_cli("analyze", *args, "--json")
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("tr", ["-0.5", "0.5"])
    def test_huge_finite_tau_warns_nothing(self, tr):
        # tau_L^2 overflows: the left eigenvalues are +-inf, and no step of the
        # report may divide inf by inf on the way
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pwlstab.cli", "analyze",
             "--tl", "1e200", "--dl", "1.4", "--tr", tr, "--dr", "-1.2", "--json"],
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["rho"]["method"] == "sampled"

    @pytest.mark.parametrize(
        "tr, status, period",
        [("0.5", "InstabilityWitness", 1), ("-0.5", "NotDecided", None)],
    )
    def test_huge_negative_tau_certificate_warns_nothing(self, tr, status, period):
        # tau_L^2 overflows the witness scan's products and the arc graph's
        # bounds; a bound that is not finite declines, and no NaN is printed
        # (the left eigenvalues still print as +-Infinity, as eig2 gives them)
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pwlstab.cli", "analyze",
             "--tl", "-1e200", "--dl", "1.4", "--tr", tr, "--dr", "-1.2", "--json"],
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stderr) == (0, "")

        def no_nan(constant):
            if constant == "NaN":
                raise ValueError("NaN in the report")
            return float(constant)

        cert = json.loads(out.stdout, parse_constant=no_nan)["certificate"]
        assert cert["status"] == status
        assert (cert["witness"] or {}).get("period") == period
        if status == "NotDecided":
            assert cert["note"] == "arc graph at n = 2048 has a bound of ln D that is not finite"
            assert cert["containment_residuals"] == []


class TestRho:
    def test_closed_form_line(self):
        out = run_cli("rho", *FOLD_ARGS, "--samples", "400")
        pairs = parse_kv(out.stdout)
        assert float(pairs["rho_closed_form"]) == FOLD_RHO
        assert pairs["n_samples"] == "400"
        assert 0.0 <= float(pairs["rho_sampled"]) <= 1.0

    def test_deterministic(self):
        a = run_cli("rho", *FOLD_ARGS, "--samples", "300", "--seed", "7")
        b = run_cli("rho", *FOLD_ARGS, "--samples", "300", "--seed", "7")
        assert a.stdout == b.stdout

    def test_closed_form_unavailable(self):
        # neither sign of the sector is certified at the Milnor case
        out = run_cli("rho", *UNSTABLE_ARGS, "--samples", "200")
        assert "rho_closed_form=unavailable" in out.stdout

    def test_overflowing_orbits_print_no_warning(self):
        out = run_cli(
            "rho", "--tl", "1e200", "--dl", "1.4", "--tr", "-0.5", "--dr", "-1.2",
            "--samples", "100",
        )
        assert parse_kv(out.stdout)["rho_sampled"] == "0.0"
        assert out.stderr == ""

    @pytest.mark.parametrize(
        "tr, reason",
        [
            ("-0.5", "closed form requires tau_R > -delta_R/(lambda_L_minus - tau_L)"),
            ("0.5", "closed-form consistency check failed: G(psi) is not the repelling ray"),
        ],
        ids=["tr_negative", "tr_positive"],
    )
    def test_huge_finite_tau_gives_the_closed_forms_reason(self, tr, reason):
        # tau_L^2 overflows; the reason is the closed form's own, not an errno tuple
        out = run_cli(
            "rho", "--tl", "1e200", "--dl", "1.4", "--tr", tr, "--dr", "-1.2",
            "--samples", "100",
        )
        assert parse_kv(out.stdout)["rho_closed_form"] == f"unavailable reason={reason!r}"


class TestLambda:
    def test_output_and_determinism(self):
        args = ["lambda", *STABLE_ARGS, "--iters", "2000", "--burnin", "100"]
        a = run_cli(*args)
        pairs = parse_kv(a.stdout)
        assert float(pairs["lambda_hat"]) == pytest.approx(-0.16, abs=0.02)
        assert pairs["n_used"] == "2000"
        assert a.stdout == run_cli(*args).stdout

    @pytest.mark.parametrize(
        "point, digest",
        [
            (PT_CYCLING, "6b619c42299fd510b47f940ae9f115ca1631a5789d6d552484c4dd3787e0dd88"),
            (PT_STABLE, "d14e5ca3cd24295a6c2249c05a8d97f893427b692bb21edbcd14e27deeaa6a5b"),
        ],
        ids=["cycling", "stable"],
    )
    def test_default_length_output_pinned(self, point, digest):
        # the default --iters 1 000 000 and --burnin 1000: an orbit that
        # settles onto a float cycle and one that never repeats a state
        args = [a for flag, v in zip(("--tl", "--dl", "--tr", "--dr"), point)
                for a in (flag, repr(v))]
        out = run_cli("lambda", *args)
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest

    def test_negative_exponent_value_is_an_argument(self):
        # argparse's own negative-number pattern has no exponent, so
        # `--tr -1e-3` read as an option and failed with "expected one argument"
        base = ["lambda", "--tl", "2", "--dl", "1.4", "--dr", "-1.2", "--iters", "1000"]
        spaced = run_cli(*base, "--tr", "-1e-3")
        assert spaced.stdout == run_cli(*base, "--tr=-1e-3").stdout
        assert spaced.stdout.startswith("lambda_hat=")

    def test_every_float_option_reads_negative_exponents(self):
        params = ["--tl", "-2E0", "--dl", "1.4", "--tr", "-1e-3", "--dr", "-1.2e+0"]
        args = cli.build_parser().parse_args(["lambda", *params, "--theta0", "-.5e-1"])
        assert (args.tl, args.tr, args.dr, args.theta0) == (-2.0, -1e-3, -1.2, -0.05)
        args = cli.build_parser().parse_args([
            "sweep", "--mode", "measure", "--tl-min", "-1e-3", "--tl-max", "2",
            "--tr-min", "-2.5e0", "--tr-max", "-1e-9", "--dl", "1.4", "--dr", "-12e-1",
            "--out", "s.csv",
        ])
        assert (args.tl_min, args.tr_min, args.tr_max, args.dr) == (-1e-3, -2.5, -1e-9, -1.2)


class TestFileOutputs:
    def test_hist_writes_one_row_per_bin(self, tmp_path):
        path = tmp_path / "h.csv"
        run_cli("hist", *FOLD_ARGS, "--iters", "2000", "--bins", "10", "--out", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,density"
        assert len(lines) == 11

    def test_polygons_writes_generations(self, tmp_path):
        path = tmp_path / "p.csv"
        run_cli("polygons", *STABLE_ARGS, "--n", "3", "--out", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,vertex_index,x,y"
        assert lines[1] == "0,0,0.0,0.0"
        gens = {int(line.split(",")[0]) for line in lines[1:]}
        assert gens == {0, 1, 2, 3}


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--mode",
        "measure",
        "--tl-min", "1.0", "--tl-max", "2.0",
        "--tr-min", "-1.0", "--tr-max", "0.0",
        "--nx", "2", "--ny", "2",
        "--dl", "1.4", "--dr", "-1.2",
        "--samples", "100",
    ]

    def test_csv_and_pgm_byte_identical_reruns(self, tmp_path):
        c1, g1 = tmp_path / "a.csv", tmp_path / "a.pgm"
        c2, g2 = tmp_path / "b.csv", tmp_path / "b.pgm"
        run_cli(*self.ARGS, "--out", str(c1), "--pgm", str(g1))
        run_cli(*self.ARGS, "--out", str(c2), "--pgm", str(g2))
        assert c1.read_bytes() == c2.read_bytes()
        assert g1.read_bytes() == g2.read_bytes()
        assert c1.read_text().splitlines()[0] == "tau_L,tau_R,value,undecided"
        assert g1.read_bytes().startswith(b"P5\n2 2\n255\n")

    def test_worker_flag_does_not_change_output(self, tmp_path):
        c1 = tmp_path / "a.csv"
        c2 = tmp_path / "b.csv"
        run_cli(*self.ARGS, "--out", str(c1), "--workers", "1")
        run_cli(*self.ARGS, "--out", str(c2), "--workers", "2")
        assert c1.read_bytes() == c2.read_bytes()

    def test_m_max_changes_no_output(self, tmp_path):
        # --m-max is accepted and ignored: a certified cell is 1 and paints
        # 255, a sentinel cell is -1 and paints 0, whatever its value
        asym = ["sweep", "--mode", "asymptotic", "--tl-min", "1.0", "--tl-max", "3.0",
                "--tr-min", "-1.4", "--tr-max", "-0.8", "--nx", "3", "--ny", "2",
                "--dl", "1.4", "--dr", "-1.2"]
        outs = []
        for m_max in ("1", "30"):
            c, g = tmp_path / f"{m_max}.csv", tmp_path / f"{m_max}.pgm"
            run_cli(*asym, "--m-max", m_max, "--out", str(c), "--pgm", str(g))
            outs.append((c.read_bytes(), g.read_bytes()))
        assert outs[0] == outs[1]
        values = {line.split(",")[2] for line in outs[0][0].decode().splitlines()[1:]}
        assert values == {"1", "-1"}
        assert set(outs[0][1][len(b"P5\n3 2\n255\n"):]) == {0, 255}

    @pytest.mark.parametrize(
        "ranges",
        [
            ["--tl-min", "-1.7e308", "--tl-max", "1.7e308", "--tr-min", "-1", "--tr-max", "0"],
            ["--tl-min", "1", "--tl-max", "2", "--tr-min", "-1.7e308", "--tr-max", "1.7e308"],
        ],
        ids=["tau_L", "tau_R"],
    )
    def test_range_of_infinite_width_is_2_without_warning(self, ranges, tmp_path):
        # both ends are finite, their difference overflows; under -W error a
        # numpy overflow warning would end the run with a traceback and exit 1
        out = tmp_path / "s.csv"
        res = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pwlstab.cli", "sweep", "--mode", "measure",
             *ranges, "--nx", "3", "--ny", "2", "--dl", "1.4", "--dr", "-1.2",
             "--samples", "10", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith("error: parameter range width must be finite")
        assert "Warning" not in res.stderr
        assert not out.exists()


class TestReadme:
    def test_examples_print_what_they_show(self):
        examples = readme_examples()
        assert examples
        for command, expected in examples:
            assert run_cli(*shlex.split(command)[1:]).stdout == expected, command


class TestInProcess:
    def test_repeated_main_prints_what_a_fresh_process_prints(self, capsys):
        runs = [
            ["rho", *FOLD_ARGS, "--samples", "300", "--seed", "7"],
            ["ga92", *UNSTABLE_ARGS],
            ["rho", *STABLE_ARGS, "--samples", "200"],
        ]
        for argv in runs:
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == run_cli(*argv).stdout, argv
        assert cli.build_parser() is cli.build_parser()


class TestExitCodes:
    def test_regime_error_is_2(self):
        out = run_cli("ga92", *FOLD_ARGS, check=False)
        assert out.returncode == 2
        assert "regime error" in out.stderr

    def test_failed_rho_prints_nothing(self):
        out = run_cli("rho", *FOLD_ARGS, "--samples", "0", check=False)
        assert out.returncode == 2
        assert out.stdout == ""

    def test_negative_burnin_is_2(self):
        out = run_cli("lambda", *STABLE_ARGS, "--iters", "10", "--burnin", "-5", check=False)
        assert out.returncode == 2
        assert out.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--tl", "nan", "--dl", "1.4", "--tr", "-0.5", "--dr", "-1.2",
             "--samples", "100"],
            ["lambda", "--tl", "2", "--dl", "1.4", "--tr", "nan", "--dr", "-1.2",
             "--iters", "100"],
            ["analyze", "--tl", "2", "--dl", "1e400", "--tr", "-0.8", "--dr", "-1.2"],
            ["ga92", "--tl", "2", "--dl", "1.4", "--tr", "-0.8", "--dr=-inf"],
            ["lambda", *STABLE_ARGS, "--iters", "100", "--theta0", "inf"],
            ["hist", *STABLE_ARGS, "--iters", "100", "--theta0", "nan", "--out", "h.csv"],
            ["sweep", "--mode", "measure", "--tl-min", "1", "--tl-max", "inf",
             "--tr-min", "-1", "--tr-max", "0", "--nx", "2", "--ny", "2",
             "--dl", "1.4", "--dr", "-1.2", "--out", "s.csv"],
            ["sweep", "--mode", "asymptotic", "--tl-min", "1", "--tl-max", "2",
             "--tr-min", "-1", "--tr-max", "0", "--nx", "2", "--ny", "2",
             "--dl", "nan", "--dr", "-1.2", "--out", "s.csv"],
        ],
        ids=["rho_tl", "lambda_tr", "analyze_dl", "ga92_dr", "lambda_theta0", "hist_theta0",
             "sweep_tl_max", "sweep_dl"],
    )
    def test_non_finite_value_is_2(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_no_workers_is_2(self, workers, capsys, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--mode", "measure", "--tl-min", "1", "--tl-max", "2",
                "--tr-min", "-1", "--tr-max", "0", "--nx", "2", "--ny", "2",
                "--dl", "1.4", "--dr", "-1.2", "--out", str(out), "--workers", workers]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be at least 1" in captured.err
        assert not out.exists()

    def test_unknown_flag_is_2(self):
        out = run_cli("rho", "--nonsense", check=False)
        assert out.returncode == 2

    def test_io_error_is_1(self, tmp_path):
        out = run_cli(
            "hist",
            *FOLD_ARGS,
            "--iters", "100",
            "--out", str(tmp_path / "missing" / "h.csv"),
            check=False,
        )
        assert out.returncode == 1
        assert "i/o error" in out.stderr


class TestBenchEntryPoints:
    """The benchmark looks up its traced layers by name and calls the CLI
    with fixed options; removing either fails every benchmark run."""

    def test_traced_names_resolve(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        tracing = importlib.import_module("tracing")
        for layer, names in tracing.TRACED.items():
            home = importlib.import_module(f"pwlstab.{layer}")
            for qual in names:
                obj = home
                for part in qual.split("."):
                    obj = getattr(obj, part)
                assert callable(obj), f"{layer}.{qual}"

    @pytest.mark.parametrize(
        "pt",
        [PT_STABLE, PT_UNSTABLE, (2.3, 1.4, -1.9, -1.2)],
        ids=["stable", "witness", "undecided"],
    )
    def test_ga92_verdict_has_what_the_tracer_reads(self, monkeypatch, pt):
        monkeypatch.syspath_prepend(str(BENCH))
        tracing = importlib.import_module("tracing")
        params = NormalForm2D(*pt)
        v = ga92(params)
        for attr in ("status", "m", "k", "containment_residuals", "note"):
            assert hasattr(v, attr), attr
        info = tracing._info("polygons.ga92", ga92, (params,), {}, v)
        assert info == (v.status.value, v.m, v.k, len(v.containment_residuals), v.note)

    def test_workload_calls_parse(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        parser = cli.build_parser()
        for make in workloads.WORKLOADS.values():
            for argv in make(1, tmp_path).calls:
                args = parser.parse_args(argv)
                if args.command == "sweep" and args.mode == "asymptotic":
                    assert args.m_max == 30
