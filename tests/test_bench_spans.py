"""The benchmark's tracer patches pcdyn names by attribute; each must exist.

``bench/spans.py`` wraps module-level functions of pcdyn (and
``PiecewiseContraction.__call__``) for ``bench/run.py --trace 1``.  A name
removed or renamed in pcdyn makes ``install`` raise, so this test fails
instead of only the traced benchmark run.  The counters it applies to
results read fields of pcdyn's records, and run here on real results.
"""

import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pcdyn.quasipartition as qp
import pcdyn.survey
from pcdyn.config import RunConfig
from pcdyn import (
    Affine,
    Backend,
    IteratedFunctionSystem,
    attractor_sequence,
    build_partition,
    power_map,
    preimage_set,
)
from _support import period3_pc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def test_install_patches_every_traced_name_and_restore_undoes_it():
    tracer = spans.Tracer(None)
    patched = []
    try:
        tracer.install()
        patched = list(tracer._undo)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_result_counts_read_real_pcdyn_results():
    # the counters that --trace 1 applies to results, on results pcdyn
    # returns, so a record that changes shape fails here
    f = period3_pc()
    q = preimage_set(f)
    assert spans._q_points(q) == {"quasipartition.q_points": 6}
    part = build_partition(f, q)
    assert spans._intervals(part) == {"quasipartition.intervals": 7}
    ifs = IteratedFunctionSystem((Affine(F(1, 4), F(1, 10)), Affine(F(1, 4), F(13, 20))))
    seq = attractor_sequence(ifs, 2)  # 1, 2 and 4 components
    assert spans._components(seq) == {"ifs.components": 7}
    g = power_map(f, 2)  # breakpoints 1/10, 3/10 and 7/20
    assert spans._branches(g) == {"pcmap.power_map.branches": 4}


def test_a_partition_item_computes_its_orbits_once():
    # a partition-steep item on period3_pc, traced as the benchmark traces
    # it, with a stub for the clock's item list and segment
    tracer = spans.Tracer(SimpleNamespace(items=[], open_segment=0))
    try:
        tracer.install()
        f = period3_pc()
        part = qp.build_partition(f, qp.preimage_set(f))
        orbs = qp.periodic_orbits(f, part)
        ec = qp.equivalence_classes(f, part)
        lims = [qp.omega_limit(f, F(g, 64), part) for g in range(64)]
    finally:
        tracer.restore()
    assert (len(orbs), len(ec.classes), len(lims)) == (1, 1, 64)
    names = [span[0] for span in tracer.spans]
    assert names.count("quasipartition.periodic_orbits") == 1
    assert names.count("quasipartition.equivalence_classes") == 1


def test_a_survey_sample_certifies_from_0_and_the_breakpoints():
    # criterion-6 samples, traced as the benchmark traces survey-n3: 0 and
    # the n - 1 breakpoints are each stepped once, on their own branches
    # (no f call), and the certificate follows their closure provenance,
    # walking no limit with omega_limit; the generic column comes from the
    # closure, not the genericity tree, whose name the tracer still
    # patches in pcdyn.survey
    cfg = RunConfig(backend=Backend.exact(), seed=42, samples=20, n=3)
    tracer = spans.Tracer(SimpleNamespace(items=[], open_segment=0))
    checked = deep = 0
    try:
        tracer.install()
        for i in range(cfg.samples):
            start = len(tracer.spans)
            rec = pcdyn.survey.run_sample(cfg, i)
            names = [span[0] for span in tracer.spans[start:]]
            assert "pcmap.is_generic" not in names, i
            assert "pcmap.call" not in names, i
            if rec.conclusive:
                assert names.count("quasipartition.omega_limit") == 0, i
                assert names.count("quasipartition.periodic_orbits") == 1, i
                checked += 1
                deep += rec.q_size > cfg.n - 1
        assert any(attr == "is_generic" and owner is pcdyn.survey
                   for owner, attr, _ in tracer._undo)
    finally:
        tracer.restore()
    assert checked >= 10 and deep >= 5
