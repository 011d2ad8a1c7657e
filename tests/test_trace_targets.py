"""The benchmark's tracer must find every clik name it wraps.

``perfbench/tracing.py`` replaces clik functions by module or class
attribute for a traced run (``perfbench/run.py --trace 1``), which the
test suite does not otherwise run.  A traced name that leaves
``src/clik`` breaks every traced run, so the suite installs and removes
the wrappers once.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    places = [place for owners, _ in tracing.TARGETS.values()
              for place in owners]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in places
               if attr not in owner.__dict__]
    assert not missing
    before = [owner.__dict__[attr] for owner, attr in places]
    with tracing.Tracer().installed(0):
        during = [owner.__dict__[attr] for owner, attr in places]
    after = [owner.__dict__[attr] for owner, attr in places]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
