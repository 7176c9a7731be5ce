"""The benchmark's trace hooks must find every name they wrap.

``perfbench/spans.py`` patches pierihom functions and methods at the names
their callers look them up.  A refactor that drops or renames one of them
would break traced benchmark runs; this test fails first.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from pierihom import engine, linalg, polysys, tracker

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OWNERS = (
    engine, linalg, polysys, tracker,
    engine.EdgeHomotopy, engine.EdgeTask, engine.PieriTreeSource, polysys.Homotopy,
)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    sys.modules.pop("spans", None)


def test_install_wraps_hooks_and_uninstall_restores(spans) -> None:
    before = [dict(vars(owner)) for owner in OWNERS]
    uninstall = spans.install(spans.Recorder())
    try:
        for owner, name in [
            (engine, "cofactors_at"),
            (engine, "lu_decompose"),
            (tracker, "solve_linear"),
            (engine.EdgeHomotopy, "eval"),
            (engine.EdgeHomotopy, "jacobian_x"),
            (engine.EdgeHomotopy, "dt"),
        ]:
            assert vars(owner)[name] is not before[OWNERS.index(owner)][name]
    finally:
        uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        for name, value in saved.items():
            assert now[name] is value, f"{owner}.{name} not restored"
