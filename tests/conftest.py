import pytest

from ffgmc import enumerator


@pytest.fixture
def two_cpus(monkeypatch):
    """Let `--jobs 2` start its two helper processes even on a one-CPU host."""
    monkeypatch.setattr(enumerator, "_usable_cpus", lambda: 2)
