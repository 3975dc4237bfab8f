"""Fixtures shared by the test modules."""

import pytest

from qmf import fanout


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"cpus{w}")
def cpus(request, monkeypatch):
    """The fan-out sees this many CPUs: 1 runs in process, 2 and 3 fork workers."""
    monkeypatch.setattr(fanout, "cpus", lambda: request.param)
    return request.param
