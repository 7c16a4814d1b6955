"""Command-line surface: values, CSV determinism, sampling, verification."""

import math

import numpy as np
import pytest

import unitgompertz as ug
from unitgompertz import Params, cdf, cli
from unitgompertz.cli import REGISTRY, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_mode_prints_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "mode", "--alpha", "3", "--beta", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_cdf_at_the_upper_endpoint(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "cdf", "--alpha", "1", "--beta", "1", "--x", "1"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_stress_strength_common_scale(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "ssr", "--alpha1", "1", "--beta1", "2",
            "--alpha2", "3", "--beta2", "2",
        )
        assert code == 0
        assert out.strip() == "0.25"

    def test_pdf_has_fifteen_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "pdf", "--alpha", "1", "--beta", "1", "--x", "0.5"
        )
        assert code == 0
        assert float(out) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-14)
        mantissa = out.strip().replace(".", "").lstrip("0")
        assert len(mantissa) >= 14

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run(
            capsys, "eval", "--fn", "pdf", "--alpha", "0", "--beta", "1", "--x", "0.5"
        )
        assert code == 2
        assert out == ""
        assert "domain error" in err

    def test_bonferroni_names_itself_in_domain_errors(self, capsys):
        code, out, err = run(
            capsys, "eval", "--fn", "bonferroni", "--alpha", "1.5", "--beta", "2", "--u", "0"
        )
        assert code == 2
        assert out == ""
        assert "bonferroni" in err

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "pdf", "--alpha", "1", "--beta", "1")
        assert code == 2
        assert "--x" in err

    def test_help_enumerates_every_function(self):
        help_text = build_parser().format_help()
        eval_help = [a for a in build_parser()._subparsers._group_actions[0].choices.items()]
        eval_parser = dict(eval_help)["eval"]
        text = eval_parser.format_help()
        for fn in REGISTRY:
            assert fn in text
        assert "eval" in help_text

    # Each --fn called directly on the library, to catch a miswired entry.
    # At (0.3, 2) the mode and the log-concavity bound both lie inside (0, 1).
    P = Params(0.3, 2.0)
    DIRECT = {
        "pdf": lambda p: ug.pdf(p, 0.6),
        "logpdf": lambda p: ug.log_pdf(p, 0.6),
        "cdf": lambda p: ug.cdf(p, 0.6),
        "sf": lambda p: ug.sf(p, 0.6),
        "quantile": lambda p: ug.quantile(p, 0.4),
        "hazard": lambda p: ug.hazard(p, 0.6),
        "rhr": lambda p: ug.reversed_hazard(p, 0.6),
        "mrl": lambda p: ug.mrl(p, 0.6),
        "eit": lambda p: ug.eit(p, 0.6),
        "mode": ug.mode,
        "lcbound": ug.log_concavity_bound,
        "moment": lambda p: ug.raw_moment(p, 3),
        "condmoment": lambda p: ug.conditional_moment(p, 3, 0.6),
        "meandev": lambda p: ug.mean_deviation_about(p, 0.6),
        "lorenz": lambda p: ug.lorenz(p, 0.4),
        "bonferroni": lambda p: ug.bonferroni(p, 0.4),
        "zenga": lambda p: ug.zenga(p, 0.6),
        "renyi": lambda p: ug.renyi_entropy(p, 2.0),
        "shannon": ug.shannon_entropy,
        "song": ug.song_measure,
        "osmoment": lambda p: ug.order_stat_moment(p, 3, 2, 1),
        "ssr": lambda p: ug.stress_strength(
            ug.StressStrengthPair(Params(1.0, 2.0), Params(3.0, 2.0))
        ),
    }

    @pytest.mark.parametrize("fn", list(REGISTRY))
    def test_registry_entry_matches_library(self, capsys, fn):
        code, out, err = run(
            capsys, "eval", "--fn", fn, "--alpha", "0.3", "--beta", "2", "--x", "0.6",
            "--u", "0.4", "--gamma", "2", "--n", "3", "--j", "2", "--k", "1",
            "--alpha1", "1", "--beta1", "2", "--alpha2", "3", "--beta2", "2",
        )
        assert (code, err) == (0, "")
        assert out == f"{self.DIRECT[fn](self.P):.15g}\n"


class TestCurve:
    def _read(self, path):
        return path.read_bytes()

    def test_byte_stable_reference_figures(self, tmp_path, capsys):
        # Density, hazard and reversed-hazard curve families.
        cases = [
            ("pdf", "0.25", "1", "0.001:0.999:200"),
            ("pdf", "2", "1", "0.001:0.999:200"),
            ("hazard", "2", "2", "0.001:0.999:999"),
            ("hazard", "1", "3", "0.001:0.999:999"),
            ("hazard", "0.5", "1", "0.001:0.999:999"),
            ("rhr", "0.25", "1", "0.01:0.999:500"),
            ("rhr", "0.5", "1", "0.01:0.999:500"),
            ("rhr", "0.75", "1", "0.01:0.999:500"),
            ("rhr", "1", "1", "0.01:0.999:500"),
        ]
        for i, (fn, a, b, grid) in enumerate(cases):
            first = tmp_path / f"run1_{i}.csv"
            second = tmp_path / f"run2_{i}.csv"
            for out in (first, second):
                code, _, _ = run(
                    capsys, "curve", "--fn", fn, "--alpha", a, "--beta", b,
                    "--grid", grid, "--out", str(out),
                )
                assert code == 0
            assert self._read(first) == self._read(second)
            lines = first.read_text().splitlines()
            assert lines[0] == f"x,{fn}"
            assert len(lines) == 1 + int(grid.split(":")[2])

    def test_values_round_trip(self, tmp_path, capsys):
        # Every curve function, whether it takes the grid as one array or
        # point by point, at alpha < 1 and at beta >= 2.
        out = tmp_path / "c.csv"
        curves = [fn for fn, (*_, window) in REGISTRY.items() if window is not None]
        assert len(curves) == 12
        for a, b in (("0.5", "1.5"), ("1.5", "2.5")):
            p = Params(float(a), float(b))
            for fn in curves:
                module, name, _, _ = REGISTRY[fn]
                code, _, err = run(capsys, "curve", "--fn", fn, "--alpha", a, "--beta", b,
                                   "--grid", "0.1:0.9:9", "--out", str(out))
                assert (code, err) == (0, "")
                lines = out.read_text().splitlines()
                assert lines[0] == f"x,{fn}" and len(lines) == 10
                for line in lines[1:]:
                    xs, ys = line.split(",")
                    assert float(ys) == getattr(module, name)(p, float(xs)), (fn, a, b, xs)

    def test_single_point_grid(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run(capsys, "curve", "--fn", "pdf", "--alpha", "1", "--beta", "1",
                         "--grid", "0.5:0.5:1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("fn", [
        "pdf", "logpdf", "cdf", "sf", "hazard", "rhr", "mrl", "eit", "zenga",
        "quantile", "lorenz", "bonferroni",
    ])
    def test_singular_endpoints_are_clamped(self, tmp_path, capsys, fn):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "curve", "--fn", fn, "--alpha", "1", "--beta", "1",
                         "--grid", "0:1:3", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        first = 1e-9 if fn in ("logpdf", "rhr", "eit", "zenga", "quantile", "lorenz",
                               "bonferroni") else 0.0
        last = 1.0 - 1e-9 if fn in ("hazard", "zenga") else 1.0
        assert (float(rows[0][0]), float(rows[-1][0])) == (first, last)
        assert all(math.isfinite(float(y)) for _, y in rows)

    @pytest.mark.parametrize("grid", ["0:1:11", "0:1:41"])
    @pytest.mark.parametrize("fn", ["quantile", "rhr", "eit", "lorenz", "bonferroni"])
    def test_last_point_is_hi_after_the_window_moves_lo(self, tmp_path, capsys, fn, grid):
        # lo = 1e-9 here, and lo + (count-1)*(hi-lo)/(count-1) rounds to 1 + 2^-52.
        out = tmp_path / "c.csv"
        code, _, err = run(capsys, "curve", "--fn", fn, "--alpha", "1", "--beta", "1",
                           "--grid", grid, "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_text().splitlines()[-1].split(",")[0] == "1.0"

    def test_steep_lower_tail_curve_completes(self, tmp_path, capsys):
        # z = alpha x^-beta reaches 1e30 at x = 0.001, past 2^53.
        out = tmp_path / "c.csv"
        code, _, err = run(capsys, "curve", "--fn", "eit", "--alpha", "1", "--beta", "10",
                           "--grid", "0.001:0.999:999", "--out", str(out))
        assert (code, err) == (0, "")
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 999
        assert all(math.isfinite(float(line.split(",")[1])) for line in rows)

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "curve", "--fn", "pdf", "--alpha", "1", "--beta", "1",
                           "--grid", "0.5:0.1:5", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "grid" in err


class TestSample:
    def test_small_sample_contents(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--alpha", "1", "--beta", "1",
                         "--n", "5", "--seed", "42", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 5
        assert all(0.0 < v < 1.0 for v in values)

    def test_repeat_invocations_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(capsys, "sample", "--alpha", "2", "--beta", "0.5",
                "--n", "1000", "--seed", "7", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "sample", "--alpha", "1", "--beta", "1",
                           "--n", "5", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert "seed" in err
        assert not out.exists()

    def test_large_sample_passes_ks(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        n = 100_000
        run(capsys, "sample", "--alpha", "1", "--beta", "2",
            "--n", str(n), "--seed", "13", "--out", str(out))
        draws = np.sort(np.loadtxt(out, skiprows=1))
        p = Params(1.0, 2.0)
        grid = np.arange(1, n + 1) / n
        cdf_vals = np.array([cdf(p, float(v)) for v in draws])
        d_stat = np.max(np.maximum(np.abs(grid - cdf_vals),
                                   np.abs(cdf_vals - (grid - 1.0 / n))))
        assert d_stat < 1.63 / math.sqrt(n)


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_tampered_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_TOL", 1e-30)
        code, out, err = run(capsys, "verify-paper")
        assert code == 3
        assert any(line.startswith("FAIL") for line in out.splitlines())
        assert "failed" in err
