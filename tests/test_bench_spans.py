"""The benchmark's tracer patches pcdyn names by attribute; each must exist.

``bench/spans.py`` wraps module-level functions of pcdyn (and
``PiecewiseContraction.__call__``) for ``bench/run.py --trace 1``.  A name
removed or renamed in pcdyn makes ``install`` raise, so this test fails
instead of only the traced benchmark run.
"""

import sys
from pathlib import Path

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
