"""The demos run end to end, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcdyn.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def run_script(path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path), *args], capture_output=True, text=True,
        env=env, timeout=120,
    )


def test_all_five_numbered_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    done = run_script(demo)
    assert done.returncode == 0, done.stderr


def test_plot_attractors_renders_an_aks_csv(tmp_path):
    cfg, csv = tmp_path / "aks.cfg", tmp_path / "aks.csv"
    cfg.write_text("map affine 4/5 1/10\nmap affine 3/5 1/20\nk_max 3\n")
    assert main(["aks", "--config", str(cfg), "--out", str(csv)]) == 0
    done = run_script(ROOT / "demos" / "plot_attractors.py", str(csv), "40")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0] == "k= 0 |" + "#" * 40 + "| measure 1.0000"
