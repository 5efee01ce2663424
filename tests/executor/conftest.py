"""Fixtures for the executor test package.

Every test here gets a shared-memory leak check: any ``rjits`` segment
this process created and left in ``/dev/shm`` after a test is a bug (the
registry unlinks on ``close()``/``shutdown()``), and leaked segments
would poison later tests' leak checks too. Segments carry their
creator's pid (``rjits{pid}x...``), so the check ignores other
processes' segments, a concurrent test run's included.
"""

from __future__ import annotations

import pytest

from repro.storage.shm import list_segments


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Fail any test that leaves its own /dev/shm segments behind."""
    before = set(list_segments())
    yield
    leaked = sorted(set(list_segments()) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture
def engine_factory():
    """Build engines and guarantee ``shutdown()`` at test teardown."""
    engines = []

    def build(db, config):
        from repro.engine import Engine

        engine = Engine(db, config)
        engines.append(engine)
        return engine

    yield build
    for engine in engines:
        engine.shutdown()
