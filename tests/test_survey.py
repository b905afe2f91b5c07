import concurrent.futures
import hashlib
import math
from fractions import Fraction as F

import pytest

import pcdyn.quasipartition
from pcdyn import (
    Backend,
    BoundaryOrbitError,
    BoundViolationError,
    Breakpoints,
    CapExceededError,
    CutCycleError,
    InconclusiveError,
    InexactPreimageError,
    NonDiscretePreimageError,
    PartitionInvarianceError,
    IteratedFunctionSystem,
    PeriodicOrbit,
    PiecewiseContraction,
    Quadratic,
    TruncatedClosureError,
    build_partition,
    certify_limits,
    periodic_orbits,
    preimage_set,
)
from pcdyn import survey
from pcdyn.cli import main
from pcdyn.config import ConfigError, RunConfig, parse_config
from pcdyn.maps import Affine
from pcdyn.survey import (
    SampleRecord,
    SurveyReport,
    run_sample,
    run_survey,
    survey_csv,
)
from _support import depth6_connection_pc


def small_cfg(**kw):
    base = dict(
        backend=Backend.exact(), seed=3, samples=10, n=2, grid=8
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunSample:
    def test_record_fields(self):
        rec = run_sample(small_cfg(), 0)
        assert rec.index == 0
        assert len(rec.breakpoints) == 1
        assert len(rec.maps) == 2
        if rec.conclusive:
            assert rec.q_status == "complete"
            assert rec.m >= 1
            assert 1 <= rec.orbit_count <= 2

    def test_periodic_orbits_computed_once_per_sample(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return periodic_orbits(*args)

        monkeypatch.setattr(survey, "periodic_orbits", spy)
        monkeypatch.setattr(pcdyn.quasipartition, "periodic_orbits", spy)
        reached = 0
        for i in range(10):
            calls.clear()
            rec = run_sample(small_cfg(n=3), i)
            assert len(calls) == (rec.m > 0)
            reached += rec.m > 0
        assert reached >= 5

    def test_truncated_closure_is_a_counted_reason(self):
        rec = run_sample(small_cfg(q_depth_cap=0), 0)
        assert (rec.reason, rec.q_status) == ("q-truncated", "truncated")
        assert (rec.q_size, rec.m) == (1, 0)
        assert not rec.conclusive
        assert not rec.generic  # a truncated closure certifies nothing

    def test_a_closure_that_raised_is_not_generic(self, monkeypatch):
        def inexact(*args):
            raise InexactPreimageError("irrational preimage")

        monkeypatch.setattr(survey, "preimage_set", inexact)
        rec = run_sample(small_cfg(), 0)
        assert (rec.reason, rec.generic, rec.q_status) == ("inexact-preimage", False, "")

    def test_a_connection_deeper_than_the_tree_is_not_generic(self, monkeypatch):
        # f sends 0 onto its breakpoint in six steps; a depth-5 tree over
        # all maps called it generic
        f = depth6_connection_pc()
        monkeypatch.setattr(survey, "draw_breakpoints", lambda *a: f.breakpoints.points)
        monkeypatch.setattr(survey, "draw_ifs", lambda *a: f.ifs)
        rec = run_sample(small_cfg(), 0)
        assert (rec.generic, rec.q_status, rec.q_size) == (False, "complete", 13)

    def test_the_tree_no_longer_caps_a_sample(self):
        # seed 0, n = 20, sample 10: one level of the depth-5 genericity
        # tree held 101,984 points and raised cap-exceeded; its closure
        # is complete at 22 points
        cfg = RunConfig(backend=Backend.exact(), seed=0, samples=40, n=20)
        rec = run_sample(cfg, 10)
        assert rec.conclusive and rec.generic
        assert (rec.q_status, rec.q_size, rec.orbit_count) == ("complete", 22, 1)

    def test_the_sources_are_stepped_by_the_closure_walk(self, monkeypatch):
        # the first 50 criterion-6 samples: connections and certify_limits
        # read the steps preimage_set kept, and evaluate no branch; the CSV
        # would not show steps evaluated again
        cfg = RunConfig(backend=Backend.exact(), seed=42, samples=200, n=3)
        inside, evals = [], []
        real_eval = Affine._eval

        def counted_eval(self, x):
            if inside:
                evals.append(x)
            return real_eval(self, x)

        def marked(stage):
            def run(*args):
                inside.append(stage)
                try:
                    return stage(*args)
                finally:
                    inside.pop()

            return run

        monkeypatch.setattr(Affine, "_eval", counted_eval)
        for name in ("connections", "certify_limits"):
            monkeypatch.setattr(survey, name, marked(getattr(survey, name)))
        assert all(run_sample(cfg, i).conclusive for i in range(50))
        assert evals == []
        # the count sees an evaluation: a closure read for another map
        f = fixed_breakpoint_pc()
        q = preimage_set(f)
        survey.connections(PiecewiseContraction(f.ifs, f.breakpoints), q)
        assert len(evals) == 2

    def test_samples_independent_of_order(self):
        a = [run_sample(small_cfg(), i) for i in range(5)]
        b = [run_sample(small_cfg(), i) for i in reversed(range(5))]
        assert a == list(reversed(b))


def fixed_breakpoint_pc():
    """x/4 + 1/8 and -x/2 + 3/4 split at 1/2.  Both intervals of the
    partition end at the fixed point 1/6, but f(1/2) = 1/2 is a second
    periodic orbit, sitting on the breakpoint."""
    return PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 4), F(1, 8)), Affine(F(-1, 2), F(3, 4)))
        ),
        Breakpoints((F(1, 2),)),
    )


class TestCutCycle:
    def test_orbit_missed_by_the_partition(self):
        f = fixed_breakpoint_pc()
        part = build_partition(f, preimage_set(f))
        orbits = periodic_orbits(f, part)
        assert [o.points for o in orbits] == [(F(1, 6),)]
        with pytest.raises(CutCycleError) as exc:
            certify_limits(f, part)
        assert exc.value.orbit == PeriodicOrbit((F(1, 2),), 1, (2,))

    def test_is_a_counted_reason(self, monkeypatch):
        f = fixed_breakpoint_pc()
        monkeypatch.setattr(
            survey, "draw_breakpoints", lambda rng, n, margin: f.breakpoints.points
        )
        monkeypatch.setattr(
            survey, "draw_ifs", lambda rng, n, kappa_max, margin: f.ifs
        )
        rec = run_sample(small_cfg(), 0)
        assert rec.reason == "cut-cycle"
        assert not rec.conclusive
        assert (rec.q_status, rec.m, rec.orbit_count) == ("complete", 2, 1)
        report = SurveyReport(2, (rec,))
        assert report.reason_counts() == {"cut-cycle": 1}
        assert "\nreason,count\ncut-cycle,1\n" in survey_csv(report)


def boundary_orbit_pc():
    """x/2 + 1/4 and x/2 + 1/8 split at 1/2.  The word map of the partition's
    only cycle fixes the breakpoint 1/2, but f(1/2) = 3/8: f has no
    periodic orbit."""
    return PiecewiseContraction(
        IteratedFunctionSystem(
            (Affine(F(1, 2), F(1, 4)), Affine(F(1, 2), F(1, 8)))
        ),
        Breakpoints((F(1, 2),)),
    )


class TestBoundaryOrbit:
    def test_is_a_counted_reason(self, monkeypatch):
        f = boundary_orbit_pc()
        monkeypatch.setattr(
            survey, "draw_breakpoints", lambda rng, n, margin: f.breakpoints.points
        )
        monkeypatch.setattr(
            survey, "draw_ifs", lambda rng, n, kappa_max, margin: f.ifs
        )
        rec = run_sample(small_cfg(), 0)
        assert rec.reason == "boundary-orbit"
        assert not rec.conclusive
        assert (rec.q_status, rec.m, rec.orbit_count) == ("complete", 3, 0)
        report = SurveyReport(2, (rec,))
        assert report.reason_counts() == {"boundary-orbit": 1}
        assert "\nreason,count\nboundary-orbit,1\n" in survey_csv(report)


class TestInconclusiveReasons:
    def test_each_error_names_its_survey_reason(self):
        # the README's survey contract lists the same reasons
        # (tests/test_readme.py)
        assert {
            cls: cls.reason
            for cls in (
                NonDiscretePreimageError,
                InexactPreimageError,
                PartitionInvarianceError,
                BoundaryOrbitError,
                CapExceededError,
                TruncatedClosureError,
                CutCycleError,
            )
            if issubclass(cls, InconclusiveError)
        } == {
            NonDiscretePreimageError: "non-discrete-preimage",
            InexactPreimageError: "inexact-preimage",
            PartitionInvarianceError: "partition-straddle",
            BoundaryOrbitError: "boundary-orbit",
            CapExceededError: "cap-exceeded",
            TruncatedClosureError: "q-truncated",
            CutCycleError: "cut-cycle",
        }
        # a failed certificate is not an undecided input
        assert not issubclass(BoundViolationError, InconclusiveError)

    def test_a_raised_error_is_its_reason(self, monkeypatch):
        def cap(*args, **kw):
            raise CapExceededError("too many orbits")

        monkeypatch.setattr(survey, "periodic_orbits", cap)
        rec = run_sample(small_cfg(), 0)
        assert rec.reason == "cap-exceeded" and rec.m >= 1
        assert (rec.orbit_count, rec.class_count) == (0, 0)


class TestRunSurvey:
    def test_report_aggregates(self):
        report = run_survey(small_cfg())
        assert len(report.records) == 10
        assert report.conclusive_count + report.inconclusive_count == 10
        hist = report.orbit_histogram()
        assert sum(hist.values()) == report.conclusive_count
        assert not report.bound_violated()

    def test_zero_samples(self):
        report = run_survey(small_cfg(samples=0))
        assert report.records == ()
        assert survey_csv(report).split("aggregate\n")[1].startswith(
            "samples,conclusive,inconclusive,periodic_fraction\n0,0,0,0.0\n"
        )

    def test_csv_stable(self):
        a = survey_csv(run_survey(small_cfg()))
        b = survey_csv(run_survey(small_cfg()))
        assert a == b

    def test_parallel_matches_serial(self):
        a = survey_csv(run_survey(small_cfg(jobs=1)))
        b = survey_csv(run_survey(small_cfg(jobs=3)))
        assert a == b

    def test_no_more_workers_than_samples(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process;
        # no real process is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        # run_survey imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", SerialPool
        )
        report = run_survey(small_cfg(jobs=10**6, samples=3))
        assert sizes == [3]
        assert report == run_survey(small_cfg(jobs=1, samples=3))
        run_survey(small_cfg(jobs=2, samples=3))
        assert sizes == [3, 2]

    def test_criterion_6_csv_pinned_across_versions(self):
        # the criterion-6 survey's CSV as first recorded (CPython 3.11.7);
        # a change to any stage of the pipeline that alters a row shows here
        cfg = RunConfig(
            backend=Backend.exact(), seed=42, samples=200, n=3,
            kappa_max=0.45, grid=64, jobs=1,
        )
        digest = hashlib.sha256(survey_csv(run_survey(cfg)).encode()).hexdigest()
        assert digest == (
            "ac7686442f7a4493ca57fa6048d81969d580920da0394b09fa15048b850f50f4"
        )

    @pytest.mark.parametrize("n", [6, 10, 12, 16, 20])
    def test_wide_surveys_pinned(self, n):
        # 40 samples at seed 0; n = 20 re-pinned when the generic column
        # moved from the depth-5 tree to the closure, which made sample 10
        # conclusive
        want = {
            6: "8684ea2680c242e8bb7626c1efdf3c53eceaddedc8fe7dfc49ec48d09a802370",
            10: "524c40600b3ec6cdb25a2ab59ba0fd368e6d3267316c75c2064422f4d3830559",
            12: "e8d9f0b9886208d3e8ddd27edbed4ba6d4452f7a51122ea99c335fffb1eb5bca",
            16: "60a15d45fc20232979d0ecfc201b987f582e7e99a9bf3437f45af5e6559e13a3",
            20: "45753e805c76a32dd25df4db3d1a5897008c046216bb9eda23ec19fb39b4063b",
        }[n]
        cfg = RunConfig(backend=Backend.exact(), samples=40, seed=0, n=n)
        digest = hashlib.sha256(survey_csv(run_survey(cfg)).encode()).hexdigest()
        assert digest == want


def _record(index, **kw):
    """A hand-built two-branch sample record."""
    maps = (Affine(F(1, 2), F(1, 4)),) * 2
    return SampleRecord(index, (F(1, 2),), maps, **kw)


class TestBoundViolated:
    def test_non_generic_samples_are_skipped(self):
        # a non-generic sample may break the bound: the theorem says nothing
        recs = (
            _record(0, violation=True),
            _record(1, orbit_count=0),
            _record(2, generic=True, orbit_count=2),
        )
        assert not SurveyReport(2, recs).bound_violated()

    def test_a_failed_certificate_breaks_it(self):
        rec = _record(0, generic=True, orbit_count=1, violation=True)
        assert SurveyReport(2, (rec,)).bound_violated()

    @pytest.mark.parametrize("count", [0, 3])
    def test_an_orbit_count_outside_one_to_n_breaks_it(self, count):
        ok = _record(0, generic=True, orbit_count=1)
        rec = _record(1, generic=True, orbit_count=count)
        assert SurveyReport(2, (ok, rec)).bound_violated()
        # an inconclusive sample's count is not a count of its orbits
        rec = _record(0, generic=True, orbit_count=count, reason="cut-cycle")
        assert not SurveyReport(2, (rec,)).bound_violated()

    def test_survey_exits_one_on_a_broken_bound(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            survey, "run_sample",
            lambda cfg, i: _record(i, generic=True, orbit_count=cfg.n + 1),
        )
        path = tmp_path / "run.cfg"
        path.write_text("n 2\nsamples 2\njobs 1\n")
        assert main(["survey", "--config", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[out.index("aggregate") + 2] == "2,2,0,1.0"

    def test_a_raised_class_bound_is_a_violation(self, tmp_path, monkeypatch):
        def violated(*args):
            raise BoundViolationError("more classes than breakpoints allow")

        monkeypatch.setattr(survey, "equivalence_classes", violated)
        rec = run_sample(small_cfg(), 0)
        assert (rec.generic, rec.violation, rec.reason) == (True, True, "")
        assert rec.orbit_count >= 1 and rec.class_count == 0
        report = run_survey(small_cfg(samples=2, jobs=1))
        assert report.bound_violated()
        assert all(r.violation for r in report.records if r.generic)
        path = tmp_path / "run.cfg"
        path.write_text("n 2\nsamples 2\njobs 1\n")
        assert main(["survey", "--config", str(path)]) == 1


class TestSamplingBounds:
    """run_survey checks a RunConfig built in code as parse_config does."""

    @pytest.mark.parametrize(
        "text, fields",
        [
            ("n 3\nsamples 20\nseed 1\nkappa_max 0.99\n",
             dict(samples=20, seed=1, n=3, kappa_max=0.99)),
            ("n 3\nsamples 1\neps_range 2/5\nkappa_max 0.1\n",
             dict(samples=1, n=3, eps_range=F(2, 5), kappa_max=0.1)),
            ("n 2\nsamples 1\neps_range -1/8\n",
             dict(samples=1, n=2, eps_range=F(-1, 8))),
            ("n 3\nsamples 1\nkappa_max -0.5\n",
             dict(samples=1, n=3, kappa_max=-0.5)),
            ("n 3\nsamples 2\nkappa_max nan\n",
             dict(samples=2, n=3, kappa_max=float("nan"))),
            ("samples 3\nn 1\n", dict(samples=3, n=1)),
        ],
    )
    def test_same_error_as_parse_config(self, text, fields):
        with pytest.raises(ConfigError) as parsed:
            parse_config(text)
        with pytest.raises(ConfigError) as built:
            run_survey(RunConfig(backend=Backend.exact(), **fields))
        assert built.value.line is None
        assert str(parsed.value) == f"line {parsed.value.line}: {built.value}"

    @pytest.mark.parametrize(
        "sign, rule", [(-1, "must be >= 0"), (1, "must be below 1 - 2*eps_range")]
    )
    def test_a_huge_int_kappa_max_is_a_range_error(self, sign, rule):
        # only a config built in code can hold one; a float test for NaN
        # would overflow on it
        kappa = sign * 10**400
        cfg = RunConfig(backend=Backend.exact(), n=3, samples=1, kappa_max=kappa)
        with pytest.raises(ConfigError) as built:
            run_survey(cfg)
        assert str(built.value).startswith(f"kappa_max {kappa} {rule}")

    @pytest.mark.parametrize("eps", [0.02, math.nan])
    def test_an_unreadable_margin_is_a_config_error(self, eps):
        # only a config built in code can hold one: parse_config reads a
        # Fraction, and the draw reads the margin's numerator
        cfg = RunConfig(backend=Backend.exact(), n=3, samples=1, eps_range=eps)
        with pytest.raises(ConfigError) as built:
            run_survey(cfg)
        assert str(built.value) == f"eps_range {eps} must be an int or a Fraction"


class TestQuadraticFlows:
    def test_backward_closure_flags_inexact(self):
        # the quadratic branch sends (-1 + sqrt(9/5))/2 onto the breakpoint:
        # an irrational backward iterate inside the branch domain
        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Quadratic(F(1, 4), F(1, 4), F(1, 5)), Affine(F(1, 2), F(1, 8)))
            ),
            Breakpoints((F(1, 4),)),
        )
        with pytest.raises(InexactPreimageError):
            preimage_set(f)

    def test_forward_orbit_uses_float_backend(self):
        # nonlinear families iterate in floats: exact denominators square
        # every step and are useless for long orbits
        from pcdyn import orbit

        f = PiecewiseContraction(
            IteratedFunctionSystem(
                (Quadratic(0.25, 0.25, 0.2), Affine(0.5, 0.125))
            ),
            Breakpoints((0.4,)),
        )
        rec = orbit(f, 1 / 3, 3000, backend=Backend.floating())
        assert rec.converged
        z = rec.orbit.points[0]
        x = z
        for _ in range(rec.orbit.period):
            x = f(x)
        assert abs(x - z) < 1e-8
