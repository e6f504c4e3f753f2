import argparse
import ast
import inspect
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zetalab
from zetalab import cli
from zetalab.cli import main

RUN = [sys.executable, "-m", "zetalab"]

# The child runs in a temporary directory, where a relative PYTHONPATH entry
# such as `src` no longer resolves; put the absolute directory holding the
# package under test first so the child imports the same source tree.
_PKG_ROOT = str(Path(zetalab.__file__).resolve().parents[1])


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PKG_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(args, cwd, address_space=None):
    """Run the CLI in a child process, its address space limited to
    address_space bytes if given."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        RUN + args, cwd=cwd, env=_child_env(), capture_output=True, text=True,
        preexec_fn=limit if address_space else None,
    )


def test_scheme_command(tmp_path):
    out = tmp_path / "scheme.csv"
    res = run_cli(
        ["scheme", "--T", "1e5", "--boundaries", "7.389,14,30", "--out", str(out)],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "j,T_j,P_j,range_prime_count"
    assert len(lines) == 4


def test_eval_command_with_cache(tmp_path):
    out = tmp_path / "grid.csv"
    cache = tmp_path / "grid.zml"
    res = run_cli(
        ["eval", "--t-min", "100", "--t-max", "102", "--step", "0.5",
         "--out", str(out), "--cache", str(cache)],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert out.read_text().splitlines()[0] == "t,Z,Z_prime,theta,theta_prime"
    assert cache.read_bytes()[:4] == b"ZML1"


def test_eval_heights_inside_range(tmp_path):
    # The step shrinks to fit ceil((t_max - t_min) / step) equal panels, so
    # no height passes --t-max, even at the top of the range.
    out = tmp_path / "grid.csv"
    for t_min, t_max, rows in (("100", "110", 4), ("9999990", "1e7", 4)):
        res = run_cli(["eval", "--t-min", t_min, "--t-max", t_max, "--step", "3",
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        ts = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert len(ts) == rows
        assert float(t_min) <= min(ts) and max(ts) <= float(t_max)


def test_eval_bytes_are_repr_rows_at_any_worker_count(tmp_path, capsys):
    # A zero t0 of Z near 1e6, to about 1e-10: the grid below has t0 as a
    # height (all its steps are exact in binary), so one Z cell falls under
    # 1e-4, where repr switches to exponent form.
    from zetalab.critline import eval_grid
    from zetalab.csvio import PIECE_ROWS
    from zetalab.gridcache import read_grid

    ts = 1.0e6 + np.arange(0.0, 2.0, 0.01)
    z = eval_grid(ts).Z
    i = int(np.flatnonzero(np.sign(z[:-1]) != np.sign(z[1:]))[0])
    lo, hi, z_lo = float(ts[i]), float(ts[i + 1]), z[i]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if np.sign(eval_grid(np.array([mid])).Z[0]) == np.sign(z_lo):
            lo = mid
        else:
            hi = mid
    step = 2.0**-6
    rows = 2 * PIECE_ROWS + 700  # two full pieces and a partial one
    t_min = lo - (rows // 2 + 0.5) * step
    texts = []
    for workers in ("1", "2"):
        out, cache = tmp_path / f"grid{workers}.csv", tmp_path / f"grid{workers}.zml"
        assert main(["eval", "--t-min", repr(t_min), "--t-max", repr(t_min + rows * step),
                     "--step", repr(step), "--workers", workers,
                     "--out", str(out), "--cache", str(cache)]) == 0
        texts.append(out.read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]
    grid = read_grid(cache)
    assert grid.t.size == rows and grid.t[rows // 2] == lo
    assert np.min(np.abs(grid.Z)) < 1.0e-4 and np.min(grid.Z) < 0.0 < np.max(grid.Z)
    columns = (grid.t, grid.Z, grid.Z_prime, grid.theta, grid.theta_prime)
    lines = ["t,Z,Z_prime,theta,theta_prime"]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    assert texts[0] == ("\n".join(lines) + "\n").encode()


def test_inequality_workers_keep_bytes(tmp_path):
    # 9000 heights span two eval_grid pieces of 8192, so 4 workers split them.
    texts = []
    for workers in ("1", "4"):
        out = tmp_path / f"iq{workers}.csv"
        res = run_cli(["inequality", "--samples", "9000", "--workers", workers,
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_moments_command(tmp_path):
    out = tmp_path / "m.csv"
    res = run_cli(["moments", "--T", "1e3", "--k", "1", "--h", "0", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "ratio_to_conjectured_power" in out.read_text().splitlines()[0]


def test_moments_command_mesh_rule(tmp_path):
    # Without --points-per-gap, (1, 0) is on the bandwidth mesh of
    # moment_mesh; with it, on mean_zero_gap(T) / N.
    from zetalab.moments import MomentRequest, mean_zero_gap, moment_mesh

    for extra, mesh in (([], moment_mesh(MomentRequest(1.0e3, 1.0, 0.0))),
                        (["--points-per-gap", "20"], mean_zero_gap(1.0e3) / 20)):
        out = tmp_path / "m.csv"
        res = run_cli(["moments", "--T", "1e3", "--k", "1", "--h", "0", "--out", str(out)]
                      + extra, tmp_path)
        assert res.returncode == 0, res.stderr
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert int(fields["panels"]) == math.ceil(1.0e3 / mesh)


def test_inequality_command(tmp_path):
    out = tmp_path / "iq.csv"
    res = run_cli(
        ["inequality", "--samples", "25", "--t-min", "10000", "--t-max", "10050",
         "--k", "1.3", "--out", str(out)],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 26
    assert all(line.endswith(",1") for line in lines[1:])


def test_twisted_command(tmp_path):
    out = tmp_path / "tw.csv"
    res = run_cli(
        ["twisted", "--T", "2e3", "--poly", "one", "--weight", "dzeta2",
         "--nodes", "32", "--out", str(out)],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # direct and contour rows
    ratio = float(lines[2].rsplit(",", 1)[1])
    assert 0.5 < ratio < 2.0


def test_exit_codes(tmp_path):
    for args in (
        ["moments", "--T", "10", "--k", "1", "--h", "0"],
        # [T, 2T] reaches past 1e7, refused before any array is made.
        ["moments", "--T", "6e6", "--k", "1", "--h", "0", "--points-per-gap", "1"],
        # Heights above 1e7, caught before a grid is built.
        ["eval", "--t-min", "100", "--t-max", "1e300", "--step", "0.05"],
        ["twisted", "--T", "1e300", "--method", "direct"],
        # The contour sums overflow.
        ["twisted", "--T", "1e300", "--method", "contour", "--weight", "dzeta2"],
        ["twisted", "--T", "1e300", "--method", "contour", "--weight", "Z2dZ2"],
    ):
        regime = run_cli(args, tmp_path)
        assert regime.returncode == 3, regime.stderr
        assert "kind=regime" in regime.stderr
    capacity = run_cli(["scheme", "--T", "1e5", "--threshold", "0.5",
                        "--sieve-limit", "2000000000"], tmp_path)
    assert capacity.returncode == 4, capacity.stderr
    assert "kind=capacity" in capacity.stderr
    # Midpoint grids past moments.MAX_GRID_POINTS (1e16, 8.1e10 and 1.8e12
    # points), refused before any array is made: under a 2 GB address-space
    # limit an attempted allocation would end in a traceback (exit 1).
    for args in (
        ["eval", "--t-min", "100", "--t-max", "1e7", "--step", "1e-9"],
        ["moments", "--T", "1e3", "--k", "1.5", "--h", "0.75", "--points-per-gap", "100000000"],
        ["twisted", "--T", "1e4", "--poly", "one", "--method", "direct",
         "--points-per-gap", "100000000"],
    ):
        capacity = run_cli(args, tmp_path, address_space=2**31)
        assert capacity.returncode == 4, capacity.stderr
        assert "kind=capacity" in capacity.stderr
    badflag = run_cli(["moments", "--T", "1e3", "--k", "1"], tmp_path)  # missing --h
    assert badflag.returncode == 2, badflag.stderr
    for args in (
        ["eval", "--t-min", "100", "--t-max", "101", "--step", "0"],
        ["eval", "--t-min", "100", "--t-max", "101", "--points-per-gap", "0"],
        ["moments", "--T", "1e3", "--k", "1", "--h", "0", "--points-per-gap", "0"],
        ["twisted", "--T", "2e3", "--points-per-gap", "0"],
        ["eval", "--t-min", "200", "--t-max", "100"],
        ["eval", "--t-min", "100", "--t-max", "100"],
        ["inequality", "--samples", "-1"],
        ["inequality", "--t-min", "2e4", "--t-max", "1e4"],
        ["inequality", "--t-min", "1e4", "--t-max", "1e4"],
        ["twisted", "--T", "2e3", "--method", "contour", "--nodes", "7"],
        ["twisted", "--T", "2e3", "--method", "contour", "--nodes", "14"],
        ["twisted", "--T", "1", "--method", "contour", "--weight", "Z2dZ2"],
        ["twisted", "--T", "-5", "--method", "contour", "--weight", "Z2dZ2"],
        ["twisted", "--T", "-5", "--method", "contour", "--weight", "dzeta2"],
        ["moments", "--T", "1e3", "--k", "1", "--h", "0", "--workers", "0"],
        ["moments", "--T", "1e3", "--k", "1", "--h", "0", "--workers", "-3"],
        # Non-finite flags and boundaries.
        ["eval", "--t-min", "100", "--t-max", "inf", "--step", "0.05"],
        ["eval", "--t-min", "100", "--t-max", "101", "--step", "inf"],
        ["moments", "--T", "1e4", "--k", "1", "--h", "nan"],
        ["twisted", "--T", "inf", "--method", "direct"],
        ["inequality", "--t-max", "inf"],
        ["inequality", "--c-omega", "nan"],
        ["scheme", "--T", "1e5", "--boundaries", "7.4,14,inf", "--sieve-limit", "100"],
        # Unreadable input files.
        ["eval", "--t-min", "100", "--t-max", "101", "--config", str(tmp_path / "missing.cfg")],
        ["twisted", "--T", "2e3", "--poly", str(tmp_path / "missing.csv")],
    ):
        bad = run_cli(args, tmp_path)
        assert bad.returncode == 2, bad.stderr
        assert "kind=config" in bad.stderr
    # --nodes is read only by the contour method.
    direct = run_cli(["twisted", "--T", "2e3", "--method", "direct", "--nodes", "8",
                      "--out", str(tmp_path / "tw.csv")], tmp_path)
    assert direct.returncode == 0, direct.stderr


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_min = 100\nt-max = 103\nstep = 0.5\n")
    out = tmp_path / "grid.csv"
    # t-min/t-max are required flags; config cannot replace them, but step
    # comes from the file unless overridden.
    res = run_cli(
        ["eval", "--t-min", "100", "--t-max", "103", "--config", str(cfg),
         "--out", str(out)],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 7  # ceil(3 / 0.5) samples
    res2 = run_cli(
        ["eval", "--t-min", "100", "--t-max", "103", "--step", "1.0",
         "--config", str(cfg), "--out", str(out)],
        tmp_path,
    )
    assert res2.returncode == 0, res2.stderr
    assert len(out.read_text().splitlines()) == 4  # flag beats the file
    # A flag wins even where its value equals the default.
    cfg.write_text("points_per_gap = 10\n")
    args = ["eval", "--t-min", "1000", "--t-max", "1010", "--out", str(out)]
    res3 = run_cli(args + ["--points-per-gap", "20", "--config", str(cfg)], tmp_path)
    assert res3.returncode == 0, res3.stderr
    flagged = out.read_text()
    res4 = run_cli(args + ["--points-per-gap", "20"], tmp_path)
    assert res4.returncode == 0, res4.stderr
    assert out.read_text() == flagged
    assert len(flagged.splitlines()) == 163  # 162 samples


def test_config_file_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line\n")
    res = run_cli(
        ["eval", "--t-min", "100", "--t-max", "101", "--config", str(cfg)], tmp_path
    )
    assert res.returncode == 2, res.stderr
    assert "kind=config" in res.stderr
    cfg.write_text("unknown_key = 3\n")
    res2 = run_cli(
        ["eval", "--t-min", "100", "--t-max", "101", "--config", str(cfg)], tmp_path
    )
    assert res2.returncode == 2, res2.stderr
    assert "kind=config" in res2.stderr
    # `seed` is not an option of eval.
    for text in ("points_per_gap = many\n", "step = nan\n", "seed = 3\n"):
        cfg.write_text(text)
        res3 = run_cli(
            ["eval", "--t-min", "100", "--t-max", "101", "--config", str(cfg)], tmp_path
        )
        assert res3.returncode == 2, res3.stderr
        assert "kind=config" in res3.stderr


def test_main_callable_in_process(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["moments", "--T", "1e3", "--k", "1", "--h", "0.5", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_every_option_is_read():
    # A flag that neither the subcommand's handler nor main reads as
    # args.<dest> is accepted and then ignored.
    def reads(fn) -> set[str]:
        return {
            node.attr
            for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
        }

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    in_main = reads(cli.main)
    unread = [
        f"{name} --{action.dest}"
        for name, p in sub.choices.items()
        for action in p._actions
        if action.dest != "help" and action.dest not in in_main | reads(p.get_default("func"))
    ]
    assert unread == []
