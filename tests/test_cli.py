import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import pcdyn.cli
from pcdyn import Affine, Backend, Clamped, Composed
from pcdyn.cli import main
from pcdyn.config import ConfigError, descriptor_tokens, parse_config
from _support import generic_sequence

EX61 = """\
backend exact
map affine 4/5 1/10
map affine 3/5 1/20
k_max 3
"""

P3 = """\
backend exact
map affine 1/2 1/4
map affine 1/2 1/8
breakpoints 3/10
x0 0
k 2
"""


class TestParseConfig:
    def test_example_maps(self):
        cfg = parse_config(EX61)
        assert cfg.backend.is_exact
        assert cfg.maps == (Affine(F(4, 5), F(1, 10)), Affine(F(3, 5), F(1, 20)))
        assert cfg.k_max == 3

    def test_decimals_parse_exactly(self):
        cfg = parse_config(
            "backend exact\nmap affine 0.5 0.25\n"
            "map affine 0.5 0.125\nbreakpoints 0.3\n"
        )
        assert cfg.maps[0] == Affine(F(1, 2), F(1, 4))
        assert cfg.breakpoints == (F(3, 10),)

    def test_float_backend_numbers(self):
        cfg = parse_config("backend float\nmap affine 0.5 0.25\n")
        assert not cfg.backend.is_exact
        assert isinstance(cfg.maps[0].a, float)

    def test_unordered_breakpoints(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config("map affine 1/2 1/4\nbreakpoints 0.5 0.3\n")

    def test_slope_one_rejected(self):
        with pytest.raises(ConfigError, match="Lipschitz"):
            parse_config("map affine 1 1/10\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("backend exact\nseed 1\nmap affine 1 1/10\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("wibble 3\n")

    def test_x0_at_one_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("x0 1\n")

    def test_backend_override_reparses_numbers(self):
        cfg = parse_config("backend float\nmap affine 0.5 0.25\n", "exact")
        assert cfg.maps[0] == Affine(F(1, 2), F(1, 4))

    def test_seed_override(self):
        cfg = parse_config("seed 7\n", None, 99)
        assert cfg.seed == 99

    def test_nested_grammar_roundtrip(self):
        m = Clamped(
            Composed((Affine(F(1, 2), F(1, 4)), Affine(F(2, 5), F(1, 10)))),
            F(1, 10),
            F(9, 10),
        )
        text = f"map {descriptor_tokens(m)}\n"
        cfg = parse_config(text)
        assert cfg.maps == (m,)

    def test_mismatched_branch_count(self):
        with pytest.raises(ConfigError, match="breakpoints"):
            parse_config(
                "map affine 1/2 1/4\nmap affine 1/2 1/8\n"
                "breakpoints 1/4 1/2\n"
            )


class TestCommands:
    def write(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_aks_rows(self, tmp_path, capsys):
        code = main(["aks", "--config", self.write(tmp_path, EX61)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "k,component_index,lo,hi,measure_total"
        assert out[1] == "0,1,0,1,1"
        assert out[2] == "1,1,1/20,9/10,17/20"
        assert out[3] == "2,1,2/25,41/50,37/50"

    def test_aks_k_max_zero(self, tmp_path, capsys):
        cfg = EX61.replace("k_max 3", "k_max 0")
        code = main(["aks", "--config", self.write(tmp_path, cfg)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and out[1:] == ["0,1,0,1,1"]

    def test_aks_integer_path_byte_identical(self, tmp_path, capsys, monkeypatch):
        # a negative slope and sevenths, ninths and 21sts: the integer path's
        # common denominator is an lcm of non-dyadic denominators
        text = (
            "backend exact\nmap affine -3/7 4/9\nmap affine 2/7 1/9\n"
            "map affine 1/3 11/21\nk_max 8\n"
        )
        path = self.write(tmp_path, text)
        assert main(["aks", "--config", path]) == 0
        fast = capsys.readouterr().out
        monkeypatch.setattr(pcdyn.cli, "attractor_sequence", generic_sequence)
        assert main(["aks", "--config", path]) == 0
        assert fast == capsys.readouterr().out
        assert len(fast.splitlines()) == 506  # 282 components at k = 8
        assert hashlib.sha256(fast.encode()).hexdigest() == (
            "63b2a851d8fc271d455ce029debe593736c90dfe6d29285c69970a54102f9148"
        )

    def test_orbit_converged(self, tmp_path, capsys):
        code = main(["orbit", "--config", self.write(tmp_path, P3)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[-1] == "converged,1,3,2/7;11/28;9/28"

    def test_orbit_iteration_cap_exit(self, tmp_path, capsys):
        code = main(
            ["orbit", "--config", self.write(tmp_path, P3 + "max_iter 3\n")]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[-1].startswith("iteration-cap")

    def test_partition_blocks(self, tmp_path, capsys):
        code = main(["partition", "--config", self.write(tmp_path, P3)])
        out = capsys.readouterr().out
        assert code == 0
        for block in ("q_points", "intervals", "orbits", "classes"):
            assert block in out.splitlines()
        assert "1,3,2/7;11/28;9/28,1;2;2" in out.splitlines()

    def test_power_echiose_k1(self, tmp_path, capsys):
        cfg = P3.replace("k 2", "k 1")
        code = main(["power", "--config", self.write(tmp_path, cfg)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "1,3/10" in out
        assert out[-2:] == ["1,0,3/10,1", "2,3/10,1,2"]

    def test_power_refinement(self, tmp_path, capsys):
        code = main(["power", "--config", self.write(tmp_path, P3)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[out.index("breakpoints") + 2 :][:3] == [
            "1,1/10",
            "2,3/10",
            "3,7/20",
        ]

    def test_cap_emits_delta(self, tmp_path, capsys):
        text = (
            "backend exact\n"
            "map affine 2/5 1/10\nmap affine 2/5 3/10\nbreakpoints 3/10\n"
        )
        code = main(["cap", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "delta,1/10"
        assert out[1] == "rho,4/5"
        assert out[3] == "index,descriptor"
        assert out[4] == "1,clamped 0 2/5 affine 2/5 1/10"

    def test_cap_precondition_is_config_error(self, tmp_path, capsys):
        text = "map affine 3/5 1/10\nmap affine 2/5 3/10\nbreakpoints 1/2\n"
        code = main(["cap", "--config", self.write(tmp_path, text)])
        assert code == 2

    def test_config_error_exit(self, tmp_path, capsys):
        code = main(["aks", "--config", self.write(tmp_path, "map affine 1 0.1\n")])
        assert code == 2

    def test_missing_file(self, capsys):
        assert main(["aks", "--config", "/nonexistent/x.cfg"]) == 2

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "a.csv"
        code = main(
            ["aks", "--config", self.write(tmp_path, EX61), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("k,component_index")

    def test_backend_flag_overrides(self, tmp_path, capsys):
        code = main(
            [
                "aks",
                "--config",
                self.write(tmp_path, EX61),
                "--backend",
                "float",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[2].startswith("1,1,0.05,0.9")

    def test_survey_small(self, tmp_path, capsys):
        text = "samples 6\nn 2\nseed 11\ngrid 8\n"
        code = main(["survey", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregate" in out.splitlines()

    def test_survey_kappa_max_too_steep_is_config_error(self, tmp_path, capsys):
        text = "n 3\nsamples 20\nseed 1\nkappa_max 0.99\n"
        code = main(["survey", "--config", self.write(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 4: kappa_max 0.99 must be below" in err
        assert "31/32" in err and "eps_range 1/64" in err

    def test_survey_eps_range_too_wide_is_config_error(self, tmp_path, capsys):
        # two breakpoints 2/5 apart cannot fit inside (2/5, 3/5)
        text = "n 3\nsamples 1\neps_range 2/5\nkappa_max 0.1\n"
        code = main(["survey", "--config", self.write(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3: eps_range 2/5 must be >= 0 with n*eps_range < 1" in err
        assert "(n 3)" in err

    def test_survey_eps_range_negative_is_config_error(self):
        with pytest.raises(ConfigError, match="line 1: eps_range -1/64"):
            parse_config("eps_range -1/64\n")
        assert parse_config("n 2\neps_range 49/100\nkappa_max 0\n").n == 2

    def test_survey_kappa_max_negative_is_config_error(self):
        with pytest.raises(ConfigError, match="line 2: kappa_max -0.1 must be >= 0"):
            parse_config("n 3\nkappa_max -0.1\n")

    def test_survey_kappa_max_checked_after_every_key(self):
        # eps_range comes after kappa_max and moves the bound below it
        with pytest.raises(ConfigError, match="eps_range 1/4"):
            parse_config("kappa_max 0.6\neps_range 1/4\n")
        assert parse_config("kappa_max 0.6\neps_range 1/8\n").kappa_max == 0.6

    def test_module_entry_point(self, tmp_path):
        cfgp = self.write(tmp_path, "samples 3\nn 2\nseed 11\ngrid 4\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "pcdyn.cli", "survey", "--config", cfgp],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("samples\n")
        assert "aggregate" in done.stdout.splitlines()

    def test_survey_jobs_identical(self, tmp_path):
        text = "samples 8\nn 3\nseed 5\ngrid 8\n"
        cfgp = self.write(tmp_path, text)
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["survey", "--config", cfgp, "--out", str(o1), "--jobs", "1"]) == 0
        assert main(["survey", "--config", cfgp, "--out", str(o2), "--jobs", "4"]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_closure_flags_flow_through(self, tmp_path, capsys):
        text = P3.replace("x0 0", "x0 3/10") + "closures left-open\n"
        code = main(["orbit", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        # 3/10 now belongs to the first branch: 3/10 -> 2/5
        assert out[1] == "0,3/10,1"
        assert out[2].startswith("1,2/5,")

    def test_orbit_breakpoint_hit_guard(self, tmp_path, capsys):
        text = P3.replace("x0 0", "x0 1/10") + "fail_on_breakpoint_hit true\n"
        code = main(["orbit", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[-1].startswith("breakpoint-hit")

    def test_orbit_breakpoint_hit_guard_float_backend(self, tmp_path, capsys):
        text = P3.replace("x0 0", "x0 1/10") + "fail_on_breakpoint_hit true\n"
        code = main(
            ["orbit", "--config", self.write(tmp_path, text), "--backend", "float"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[-1].startswith("breakpoint-hit")

    def test_orbit_float_backend(self, tmp_path, capsys):
        code = main(
            ["orbit", "--config", self.write(tmp_path, P3), "--backend", "float"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        footer = out[-1].split(",")
        assert footer[0] == "converged" and footer[2] == "3"

    def test_float_backend_partition_is_config_error(self, tmp_path, capsys):
        code = main(
            [
                "partition",
                "--config",
                self.write(tmp_path, P3),
                "--backend",
                "float",
            ]
        )
        assert code == 2
