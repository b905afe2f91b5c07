import dataclasses
import hashlib
import inspect
import math
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import pcdyn.cli
from pcdyn import (
    Affine,
    Backend,
    Clamped,
    Composed,
    PiecewiseContraction,
    build_partition,
    is_generic,
    orbit,
    power_map,
    preimage_set,
)
from pcdyn import config
from pcdyn.cli import main
from pcdyn.config import (
    ConfigError,
    RunConfig,
    check_sampling,
    descriptor_tokens,
    parse_config,
)
from pcdyn.sampling import draw_breakpoints, draw_ifs
from _support import generic_sequence, sampling_check_error

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

# x/2 + 1/4 fixes the breakpoint 1/2, which right-open f sends to 3/8
BOUNDARY = """\
backend exact
map affine 1/2 1/4
map affine 1/2 1/8
breakpoints 1/2
"""

# both intervals end at the fixed point 1/6, but f(1/2) = 1/2 is a second
# periodic orbit, on the cut point 1/2
CUT_CYCLE = """\
backend exact
map affine 1/4 1/8
map affine -1/2 3/4
breakpoints 1/2
"""

# three decreasing branches whose closure takes 12 backward levels: 14
# points from both breakpoints, two orbits, two classes
STEEP = """\
backend exact
map affine -3582911237/4294967296 2021578479/2147483648
map affine -1744420223/2147483648 3598163031/4294967296
map affine -521705371/4294967296 301682787/2147483648
breakpoints 2683486193/4294967296 3162818053/4294967296
"""


# the quadratic's fixed point is a root of 1e-8 z^2 - 1e-5 z + 7.5e-6 near
# 3/4, where its slope is about 0.99999
SLOW_FP = """\
map affine 1/4 1/2
map quadratic 1e-8 0.99999 7.5e-6
breakpoints 1/2
"""

# at eps_orbit 0.1 this converges at step 28 with period 4; the earliest
# near point rule ended it "iteration-cap"
COARSE = """\
backend float
eps_orbit 0.1
map affine 0.7859375 0.11573955917358399
map affine 0.871875 0.03208896255493164
breakpoints 0.5046875
x0 0
"""

_NAN_ORBIT = (
    "map quadratic 1/10 1/5 1/4\nmap affine 1/3 1/2\nbreakpoints 1/2\n"
    "x0 1/10\nbackend float\n"
)


# one line per key that takes one value, each with a second value
_EXTRA_TOKEN_LINES = [
    "seed 5 6", "max_iter 10 20", "q_depth_cap 4 5", "q_size_cap 9 9",
    "composition_cap 1 2", "power_cap 1 2", "generic_depth 3 4", "k 2 3",
    "k_max 3 4", "samples 2 3", "n 3 4", "grid 8 16", "jobs 1 2",
    "eps_orbit 1e-10 1e-9", "eps_fp 1e-13 1e-12", "eps_cmp 1e-12 1e-11",
    "kappa_max 0.3 0.9", "x0 1/2 7", "eps_range 1/64 1/32",
    "backend exact float", "fail_on_breakpoint_hit true false",
]


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
        cfg = parse_config(
            "backend float\nmap affine 0.5 0.25\n", {"backend": "exact"}
        )
        assert cfg.maps[0] == Affine(F(1, 2), F(1, 4))

    def test_seed_override(self):
        cfg = parse_config("seed 7\n", {"seed": 99})
        assert cfg.seed == 99
        with pytest.raises(ConfigError, match="^seed -1 must be >= 0$"):
            parse_config("seed 7\n", {"seed": -1})

    def test_defaults_are_the_library_defaults(self):
        # each RunConfig default names the library constant that the
        # library call it feeds takes by default
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        cfg = RunConfig(backend=Backend.exact())
        pairs = [
            (cfg.eps_orbit, default(orbit, "eps_orbit")),
            (cfg.eps_fp, default(orbit, "eps_fp")),
            (cfg.eps_fp, default(build_partition, "eps_fp")),
            (cfg.q_depth_cap, default(preimage_set, "depth_cap")),
            (cfg.q_size_cap, default(preimage_set, "size_cap")),
            (cfg.composition_cap, default(is_generic, "cap")),
            (cfg.power_cap, default(power_map, "cap")),
            (cfg.eps_range, default(draw_breakpoints, "margin")),
            (cfg.eps_range, default(draw_ifs, "margin")),
            (
                parse_config("backend float\n").backend,
                Backend.floating(),
            ),
        ]
        for got, want in pairs:
            assert got == want and type(got) is type(want)

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

    def test_branch_count_error_names_the_first_map_line(self):
        with pytest.raises(
            ConfigError, match=r"^line 2: 2 maps need 1 breakpoints, got 2$"
        ):
            parse_config(
                "seed 1\nmap affine 1/2 1/4\nmap affine 1/2 1/8\n"
                "breakpoints 1/4 1/2\n"
            )

    def test_pc_is_the_system_parse_config_checked(self, monkeypatch):
        built = []
        post_init = PiecewiseContraction.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PiecewiseContraction, "__post_init__", counted)
        cfg = parse_config(P3)
        assert cfg.pc() is cfg.pc()
        assert len(built) == 1 and built[0] is cfg.pc()

    def test_replace_builds_its_own_system(self):
        cfg = parse_config(P3)
        moved = dataclasses.replace(cfg, breakpoints=(F(2, 5),))
        assert moved.pc().breakpoints.points == (F(2, 5),)
        same = dataclasses.replace(cfg)
        assert same.pc() is not cfg.pc() and same.pc() == cfg.pc()

    def test_config_pickles_with_and_without_its_system(self):
        # the --jobs pool sends configs to its workers by pickle
        warm = parse_config(P3)
        cold = dataclasses.replace(warm)
        for cfg, cached in ((cold, False), (warm, True)):
            back = pickle.loads(pickle.dumps(cfg))
            assert back == cfg and ("_pc" in vars(back)) == cached
            assert back.pc() == cfg.pc()
            assert back.pc()(F(1, 5)) == cfg.pc()(F(1, 5))


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

    @pytest.mark.parametrize(
        "second, backend, want",
        [
            ("-1/2 3/4", "exact", "converged,0,1,1/2"),
            ("-1/4 5/8", "float", "converged,0,1,0.5"),
        ],
    )
    def test_orbit_reports_the_primitive_period(
        self, tmp_path, capsys, second, backend, want
    ):
        # the word 2;2 used to be confirmed as it stood, a "period-2" cycle
        # through the fixed point 1/2 twice
        text = (
            f"backend {backend}\nmap affine 1/2 1/8\nmap affine {second}\n"
            "breakpoints 3/10\nx0 9/10\n"
        )
        code = main(["orbit", "--config", self.write(tmp_path, text)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == want

    def test_orbit_iteration_cap_exit(self, tmp_path, capsys):
        code = main(
            ["orbit", "--config", self.write(tmp_path, P3 + "max_iter 3\n")]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[-1].startswith("iteration-cap")

    @pytest.mark.parametrize(
        "text, code, digest",
        [
            (P3, 0, "8fbc0ab80d9d922d39667cc2da981ca4"
             "a93d552a808ef57684db3bfc45afbcdc"),
            (P3.replace("x0 0", "x0 2/7"), 0, "df9e0428f211997e9cc7a670b7601eaf"
             "5930955047946cb8625d57855c701a69"),
            (P3.replace("x0 0", "x0 1/10") + "fail_on_breakpoint_hit true\n",
             1, "322b82db52567bd69c9e7961cea15b12"
             "d89799f29d33bb914e476350ebff6640"),
            (P3 + "max_iter 3\n", 1, "3a5cfeec48efa2b10ee8ceb10a3fe392"
             "871a54e6b6f207e4de2f485063f67548"),
            (P3.replace("exact", "float"), 0, "1bc2a02f88c8ea7e7f16f98c92cb29e1"
             "e80761731ea94932ca705c1a6b5e5961"),
            ("backend float\neps_orbit 0.05\nmap affine -0.1 0.69\n"
             "map affine 0.7 0.07\nbreakpoints 0.3\nx0 0\nmax_iter 2000\n", 0,
             "94bb91da9b1b9c9e958dc4dd43b00a8be2f14713096dd3a14f469950f0b7d44f"),
            (COARSE, 0,
             "44b57070da07744eab57d44b4a737ee425bdd9288a6d2734b1eecf1315b36a8d"),
        ],
        ids=["candidate", "exact-repeat", "breakpoint-hit", "iteration-cap",
             "float", "float-refine-rejected", "coarse-width"],
    )
    def test_orbit_csv_pinned(self, tmp_path, text, code, digest):
        # pinned from the orbit loop whose doubling checkpoint proposes the
        # candidates; against the earliest-near-point rule, candidate, float
        # and float-refine-rejected gained step rows, and float solves its
        # word from another rotation (third point 0.3214285714285714, not
        # 0.32142857142857145)
        out = tmp_path / "orbit.csv"
        path = self.write(tmp_path, text)
        assert main(["orbit", "--config", path, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "text, digest",
        [
            (P3, "ecf03b73aa010055c6ffd2aaefeedd27"
             "956dcb602a3ec61b1f327591d4643b89"),
            (BOUNDARY + "closures left-open\n", "e114f1b756e6e81fdcb380788cea538d"
             "960976e8de53fefd72d67ad6c9292c75"),
            (STEEP, "d42bec209729a73ffcbd075ff4444b32"
             "0a6a492e856c2677060bc4982d75b763"),
        ],
        ids=["period-3", "boundary-left-open", "steep-12-levels"],
    )
    def test_partition_csv_pinned(self, tmp_path, text, digest):
        # every block is pinned, the q_points provenance rows included
        out = tmp_path / "partition.csv"
        path = self.write(tmp_path, text)
        assert main(["partition", "--config", path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_partition_blocks(self, tmp_path, capsys):
        code = main(["partition", "--config", self.write(tmp_path, P3)])
        out = capsys.readouterr().out
        assert code == 0
        for block in ("q_points", "intervals", "orbits", "classes"):
            assert block in out.splitlines()
        assert "1,3,2/7;11/28;9/28,1;2;2" in out.splitlines()

    def test_partition_boundary_orbit_is_a_reason_row(self, tmp_path, capsys):
        code = main(["partition", "--config", self.write(tmp_path, BOUNDARY)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "orbits" not in out
        assert out[-1] == (
            "reason,BoundaryOrbitError: the fixed point of index cycle 1 "
            "does not follow its word 1"
        )
        text = BOUNDARY + "closures left-open\n"
        code = main(["partition", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[out.index("orbits") + 1 :][:2] == [
            "id,period,points,word",
            "1,1,1/2,1",
        ]

    def test_partition_cut_cycle_is_a_reason_row(self, tmp_path, capsys):
        code = main(["partition", "--config", self.write(tmp_path, CUT_CYCLE)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[out.index("orbits") + 1 :] == [
            "id,period,points,word",
            "1,1,1/6,1",
            "classes",
            "id,members",
            "1,1;2",
            "reason,CutCycleError: the forward limit of 1/2 is the cycle 1/2 "
            "on the cut points, which no index cycle gives",
        ]

    def test_partition_truncated_closure_is_a_reason_row(self, tmp_path, capsys):
        text = CUT_CYCLE + "q_depth_cap 0\n"
        code = main(["partition", "--config", self.write(tmp_path, text)])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "q_points",
            "point,source,depth",
            "1/2,1,0",
            "reason,TruncatedClosureError: the backward closure hit a cap at "
            "depth 0, point count 1",
        ]

    def test_partition_slow_contraction_settles(self, tmp_path, capsys):
        # slope 0.99999 near the fixed point: the bracketed solve settles in
        # a few evaluations where contraction iteration took over 10**6
        code = main(["partition", "--config", self.write(tmp_path, SLOW_FP)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[out.index("orbits") + 1 :] == [
            "id,period,points,word",
            "1,1,0.750563345340893,2",
            "classes",
            "id,members",
            "1,1;2",
        ]
        # within 1e-8 of the true fixed point: g(z) = m(z) - z changes sign
        m = parse_config(SLOW_FP).maps[1]
        z, tol = F("0.750563345340893"), F(1, 10**8)
        assert m(z - tol) > z - tol and m(z + tol) < z + tol

    def test_partition_quadratic_closed_form(self, tmp_path, capsys):
        # branch 1's fixed point 1/2 is the quadratic's exact closed form
        text = (
            "map quadratic 1/4 1/4 5/16\nmap affine 1/2 1/8\n"
            "breakpoints 3/4\n"
        )
        code = main(["partition", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[out.index("orbits") + 1 :][:2] == [
            "id,period,points,word",
            "1,1,1/2,1",
        ]

    def test_float_orbit_slow_contraction_converges(self, tmp_path, capsys):
        text = SLOW_FP + "x0 3/4\nmax_iter 200\neps_orbit 1e-3\n"
        path = self.write(tmp_path, text)
        code = main(["orbit", "--backend", "float", "--config", path])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[:2] == ["step,x,digit", "0,0.75,2"]
        assert out[-2:] == [
            "outcome,preperiod,period,orbit_points",
            "converged,0,1,0.750563345340893",
        ]

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

    def test_power_irrational_preimage_is_a_reason_row(self, tmp_path, capsys):
        # the quadratic branch sends (-1 + sqrt(9/5))/2 onto the breakpoint
        text = (
            "backend exact\nmap quadratic 1/4 1/4 1/5\nmap affine 1/2 1/8\n"
            "breakpoints 1/4\nk 2\n"
        )
        code = main(["power", "--config", self.write(tmp_path, text)])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "reason,InexactPreimageError: irrational preimage of 1/4\n"

    @pytest.mark.parametrize(
        "text, rows, digest",
        [
            (P3.replace("k 2", "k 10"), 17, "4ec8a32b59ff28a56b48add9ed79a6ab"
             "9b3a3dc02c15eac7c5d20abc0a3b5502"),
            ("backend exact\nmap affine -2/5 3/5\nmap affine 1/3 1/7\n"
             "map affine 3/7 2/9\nbreakpoints 2/7 5/8\nk 4\n", 13,
             "18fa1f38b5c93592939e623f58c8475626a24a1ee93448f5fec15eb996c655a3"),
        ],
        ids=["period3-k10", "n3-k4"],
    )
    def test_power_csv_pinned(self, tmp_path, capsys, text, rows, digest):
        # pinned from the output of an emit_power that re-derived each word
        assert main(["power", "--config", self.write(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == rows
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_cap_composed_and_quadratic(self, tmp_path, capsys):
        # the joint slope bound walks a clamped composition's chain and a
        # clamped quadratic's window: 1/4 + 1/3 on (1/3, 2/3)
        text = (
            "map composed 2 affine 1/2 1/4 affine 1/2 1/8\n"
            "map quadratic 1/10 1/5 1/4\nbreakpoints 1/2\n"
        )
        code = main(["cap", "--config", self.write(tmp_path, text)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "delta,1/6",
            "rho,7/12",
            "maps",
            "index,descriptor",
            "1,clamped 0 2/3 composed 2 affine 1/2 1/4 affine 1/2 1/8",
            "2,clamped 1/3 1 quadratic 1/10 1/5 1/4",
        ]

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("kappa_max inf", "line 1: kappa_max inf must be below "
             "1 - 2*eps_range = 31/32 (eps_range 1/64)"),
            ("kappa_max -inf", "line 1: kappa_max -inf must be >= 0"),
            ("kappa_max nan", "line 1: kappa_max nan is not a number"),
            ("kappa_max 0.96875", "line 1: kappa_max 0.96875 must be below "
             "1 - 2*eps_range = 31/32 (eps_range 1/64)"),
            ("kappa_max 1e308", "line 1: kappa_max 1e+308 must be below "
             "1 - 2*eps_range = 31/32 (eps_range 1/64)"),
            ("kappa_max 0.9687499999999999", None),
            ("kappa_max -0.0", None),
            ("n 1", "line 1: n 1 must be >= 2"),
            ("eps_range 1/3", "line 1: eps_range 1/3 must be >= 0 with "
             "n*eps_range < 1 (n 3)"),
            ("eps_range -1/64", "line 1: eps_range -1/64 must be >= 0 with "
             "n*eps_range < 1 (n 3)"),
        ],
    )
    def test_survey_bounds_at_their_edges(self, line, message):
        if message is None:
            parse_config(line + "\n")
        else:
            with pytest.raises(ConfigError) as exc:
                parse_config(line + "\n")
            assert str(exc.value) == message

    def test_check_sampling_matches_the_generic_checks(self):
        """check_sampling passes or raises the same line and message as
        every check in order through the scalars' own operators, on
        Fraction, int and float bounds at and around their edges."""
        rng = random.Random(2609)
        kappas = [
            0.0, -0.0, 0.45, 0.96875, 0.9687499999999999, 1.0, 1e308,
            -1e-300, -0.5, math.inf, -math.inf, math.nan, 5e-324, 0, 1,
            F(31, 32), F(1, 3), 10**400, -10**400,
        ]
        eps = [F(0), F(1, 64), F(1, 3), F(1, 2), F(-1, 64), 0, 0.0, 0.25]
        where = {"n": 1, "eps_range": 2, "kappa_max": 3}
        seen = Counter()
        for _ in range(3000):
            e = rng.choice(eps) if rng.random() < 0.5 else F(
                rng.randrange(-3, 2**9), 2**rng.randrange(9, 14)
            )
            kappa = rng.choice(kappas) if rng.random() < 0.5 else float(
                1 - 2 * e
            ) + rng.choice((-1, 0, 1)) * rng.choice((1e-17, 1e-16, 1e-3))
            n = rng.choice((0, 1, 2, 3, 3, 7, 7, 64))
            cfg = RunConfig(Backend.exact(), n=n, eps_range=e, kappa_max=kappa)
            want = sampling_check_error(cfg, where)
            try:
                check_sampling(cfg, where)
            except ConfigError as exc:
                assert want == (exc.line, str(exc).split(": ", 1)[1]), cfg
                msg = want[1]
                seen[
                    "n" if msg.startswith("n ")
                    else "nan" if msg.endswith("number")
                    else "eps_range" if msg.startswith("eps_range")
                    else "below" if "below" in msg else "negative"
                ] += 1
            else:
                assert want is None, cfg
                seen["passed"] += 1
        assert len(seen) == 6 and min(seen.values()) >= 40, seen

    def test_check_sampling_matches_the_generic_checks_on_margins_and_draws(self):
        """The same differential check on float and NaN eps_range, which
        the draws cannot read, and on n = 20-30 at the default margin,
        where one breakpoint try passes its gap test with chance 1.5e-3 at
        n = 20 down to 2.7e-8 at n = 30; without n's line the draw-chance
        rule names eps_range's."""
        rng = random.Random(2810)
        eps = [0.0, 0.02, math.nan, math.inf, 0] + [F(1, 64)] * 5
        seen = Counter()
        for _ in range(1000):
            e, n = rng.choice(eps), rng.randrange(20, 31)
            kappa = rng.choice((0.45, 0.45, 0.45, -0.5, 0.99, math.nan))
            where = rng.choice(({"n": 1, "eps_range": 2, "kappa_max": 3},
                                {"eps_range": 2, "kappa_max": 3}, {}))
            cfg = RunConfig(Backend.exact(), n=n, eps_range=e, kappa_max=kappa)
            want = sampling_check_error(cfg, where)
            try:
                check_sampling(cfg, where)
            except ConfigError as exc:
                assert want is not None, cfg
                assert (exc.line, str(exc)) == (want[0], str(ConfigError(*want)))
                seen["floor" if "breakpoint tries" in want[1] else
                     "unread" if "an int or a Fraction" in want[1] else
                     "other"] += 1
            else:
                assert want is None, cfg
                seen["passed"] += 1
        assert len(seen) == 4 and min(seen.values()) >= 40, seen

    def test_survey_past_the_draw_floor_exits_at_once(self, tmp_path):
        # at n = 30 one try passes with chance 2.7e-8, some 12 minutes of
        # draws a sample at about 20 us a try; n = 27 expects 6.7e5 tries
        cfgp = self.write(tmp_path, "n 30\nsamples 1\nseed 0\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pcdyn.cli", "survey", "--config", cfgp],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - start < 2
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.strip() == (
            "config error: line 1: n 30 with eps_range 1/64 expects 3.7e+07 "
            "breakpoint tries a sample (chance 2.7e-08 a try, below 1e-06)"
        )
        assert parse_config("n 27\n").n == 27

    @pytest.mark.parametrize(
        "command, text, message",
        [
            # NaN passed both kappa_max bounds; numpy then raised
            ("survey", "n 3\nsamples 2\nkappa_max nan\n",
             "line 3: kappa_max nan is not a number"),
            # a NaN tolerance never settled the fixed-point iteration
            ("orbit", _NAN_ORBIT + "eps_fp nan\n",
             "line 6: eps_fp nan must be finite and positive"),
            ("orbit", _NAN_ORBIT + "eps_orbit nan\n",
             "line 6: eps_orbit nan must be finite and positive"),
            ("orbit", _NAN_ORBIT + "eps_cmp nan\n",
             "line 6: eps_cmp nan must be finite and positive"),
        ],
    )
    def test_nan_settings_are_config_errors(
        self, tmp_path, capsys, command, text, message
    ):
        code = main([command, "--config", self.write(tmp_path, text)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == f"config error: {message}"

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("sideways", "line 4: unknown closure flag 'sideways'"),
            ("left-open right-open",
             "line 4: one closure flag per breakpoint required"),
        ],
    )
    def test_closure_errors_name_the_closures_line(
        self, tmp_path, capsys, flags, message
    ):
        # both used to name line 1, the first map line
        text = BOUNDARY.replace("backend exact\n", "") + f"closures {flags}\n"
        code = main(["partition", "--config", self.write(tmp_path, text)])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("orbit", "x0 3/2", "initial condition 3/2 is outside [0, 1)"),
            ("orbit", "x0 -1/10", "initial condition -1/10 is outside [0, 1)"),
            ("orbit", "x0 1", "initial condition 1 is outside [0, 1)"),
            ("orbit", "max_iter 0", "max_iter 0 must be >= 1"),
            ("power", "k 0", "k 0 must be >= 1"),
            ("aks", "k_max -1", "k_max -1 must be >= 0"),
            ("survey", "generic_depth 0", "generic_depth 0 must be >= 1"),
            ("survey", "n 1", "n 1 must be >= 2"),
            # each of these used to run: an empty survey, numpy's seed
            # error, a truncated closure, a cap error naming the value
            ("survey", "samples -5", "samples -5 must be >= 0"),
            ("survey", "seed -1", "seed -1 must be >= 0"),
            ("survey", "composition_cap -1", "composition_cap -1 must be >= 0"),
            ("partition", "q_depth_cap -1", "q_depth_cap -1 must be >= 0"),
            ("partition", "q_size_cap -1", "q_size_cap -1 must be >= 0"),
            ("power", "power_cap -1", "power_cap -1 must be >= 0"),
            # ran serially and exited 0
            ("survey", "jobs 0", "jobs 0 must be >= 1"),
        ],
    )
    def test_range_errors_name_their_line(
        self, tmp_path, capsys, command, line, message
    ):
        # each used to reach the library's ValueError, which names no line
        text = P3.replace("x0 0\n", "") + line + "\n"
        code = main([command, "--config", self.write(tmp_path, text)])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"config error: line 6: {message}"
        )

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        # numpy used to reject it mid-survey, with a message naming no seed
        cfgp = self.write(tmp_path, "n 3\nsamples 2\n")
        code = main(["survey", "--config", cfgp, "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "config error: seed -1 must be >= 0"
        )

    def test_jobs_flag_below_one_is_config_error(self, tmp_path, capsys):
        # it used to run serially and exit 0
        cfgp = self.write(tmp_path, "n 3\nsamples 2\n")
        code = main(["survey", "--config", cfgp, "--jobs", "0"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "config error: jobs 0 must be >= 1"
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "1.5",
             "seed: invalid literal for int() with base 10: '1.5'"),
            ("--jobs", "x", "jobs: invalid literal for int() with base 10: 'x'"),
            ("--backend", "foo", "backend must be 'exact' or 'float'"),
        ],
    )
    def test_malformed_flags_get_the_key_table_message(
        self, tmp_path, capsys, flag, value, message
    ):
        # argparse used to reject each with its own usage error
        cfgp = self.write(tmp_path, "n 3\nsamples 2\n")
        assert main(["survey", "--config", cfgp, flag, value]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("aks", "map\n", "line 1: missing map descriptor"),
            ("aks", "map affine 1/2\n", "line 1: affine: missing coefficient"),
            ("aks", "map composed x affine 1/2 1/4\n",
             "line 1: composed: bad count 'x'"),
            ("aks", "map cubic 1 2\n", "line 1: unknown map kind 'cubic'"),
            ("aks", "map affine 1/2 1/4 9\n", "line 1: trailing tokens ['9']"),
            # a bad coefficient used to read "bad number 'abc': ...", unlike
            # a bad value of any other key
            ("aks", "map affine abc 1\n",
             "line 1: map: Invalid literal for Fraction: 'abc'"),
            ("aks", "map affine 1/0 1\n", "line 1: map: Fraction(1, 0)"),
            ("orbit", "map affine 1/2 1/4\n", "orbit needs an x0 line"),
        ],
    )
    def test_malformed_documents_are_config_errors(
        self, tmp_path, capsys, command, text, message
    ):
        code = main([command, "--config", self.write(tmp_path, text)])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"

    def test_malformed_backend_line_is_read_under_the_flag(
        self, tmp_path, capsys
    ):
        # the flag used to skip the document's backend lines unread
        text = EX61.replace("backend exact", "backend foo")
        bad = self.write(tmp_path, text)
        assert main(["aks", "--config", bad, "--backend", "exact"]) == 2
        assert capsys.readouterr().err.strip() == (
            "config error: line 1: backend must be 'exact' or 'float'"
        )
        # a well-formed line is read, then replaced by the flag
        good = self.write(tmp_path, text.replace("foo", "float"), "float.cfg")
        assert main(["aks", "--config", good, "--backend", "exact"]) == 0
        assert "1,1,1/20,9/10,17/20" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3\nn 1\n", "line 2: n 1 must be >= 2"),
            ("n 3\nkappa_max 0.3\nsamples 2\nseed 1\nkappa_max 0.99\n",
             "line 5: kappa_max 0.99 must be below"),
            ("eps_range 1/4\nkappa_max 0.3\neps_range -1/64\n",
             "line 3: eps_range -1/64 must be >= 0"),
        ],
    )
    def test_repeated_key_errors_name_the_line_read(self, text, message):
        # the line named used to be the key's first, not the one whose
        # value failed
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("line", _EXTRA_TOKEN_LINES)
    def test_one_value_keys_reject_extra_tokens(self, tmp_path, capsys, line):
        # each used to keep its first value and drop the rest unread
        key, *args = line.split()
        text = P3.replace("x0 0\n", "") + line + "\n"
        assert main(["orbit", "--config", self.write(tmp_path, text)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"config error: line 6: {key} takes one value, got {len(args)}"
        )

    def test_every_one_value_key_has_an_extra_token_case(self):
        one_value = set(config._KEYS) - set(config._LIST_KEYS)
        assert {line.split()[0] for line in _EXTRA_TOKEN_LINES} == one_value

    @pytest.mark.parametrize("key", ["x0", "seed", "backend", "eps_cmp"])
    def test_missing_value_is_config_error(self, key):
        # x0 used to leak "list index out of range"
        with pytest.raises(
            ConfigError, match=f"^line 2: {key} takes one value, got 0$"
        ):
            parse_config(f"n 3\n{key}\n")

    @pytest.mark.parametrize("value", ["0", "-1e-10", "inf", "-inf"])
    def test_tolerances_must_be_finite_and_positive(self, value):
        # eps_cmp 0 ran with 1e-12, and a negative one named no line
        for key in ("eps_fp", "eps_orbit", "eps_cmp"):
            with pytest.raises(
                ConfigError,
                match=f"^line 2: {key} {value} must be finite and positive$",
            ):
                parse_config(f"backend float\n{key} {value}\n")
        assert parse_config("eps_fp 1e-300\neps_orbit 0.5\n").eps_fp == 1e-300
        cfg = parse_config("backend float\neps_cmp 1e-300\n")
        assert cfg.backend.eps_cmp == 1e-300

    def test_survey_kappa_max_checked_after_every_key(self):
        # eps_range comes after kappa_max and moves the bound below it
        with pytest.raises(ConfigError, match="eps_range 1/4"):
            parse_config("kappa_max 0.6\neps_range 1/4\n")
        assert parse_config("kappa_max 0.6\neps_range 1/8\n").kappa_max == 0.6

    def test_cli_import_leaves_numpy_out(self):
        # numpy loads with the first sample stream and the process pool
        # with a survey of --jobs > 1, not with the CLI
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import pcdyn.cli; "
            "print(sorted({'numpy', 'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

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
        assert "partition requires the exact backend" in capsys.readouterr().err

    def test_float_backend_power_is_config_error(self, tmp_path, capsys):
        code = main(
            ["power", "--config", self.write(tmp_path, P3), "--backend", "float"]
        )
        assert code == 2
        assert "power requires the exact backend" in capsys.readouterr().err

    def test_float_backend_survey_is_config_error(self, tmp_path, capsys):
        text = "samples 2\nn 2\nseed 11\ngrid 4\n"
        code = main(
            ["survey", "--config", self.write(tmp_path, text), "--backend", "float"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "survey requires the exact backend" in captured.err
