"""Top-level shared fixtures: architecture contexts used across suites."""

import asyncio
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.arch import ALPHA, SPARC_32, SPARC_64, X86_32, X86_64
from repro.obs import Registry, Tracer, set_registry, set_tracer, set_wire_tracing
from repro.pbio import IOContext

ALL_ARCHES = [X86_32, X86_64, SPARC_32, SPARC_64, ALPHA]

# ``--hypothesis-profile=thorough``: CI's example count for property
# tests that pin none themselves (tests/property/test_framing_readahead.py).
settings.register_profile("thorough", max_examples=500, deadline=None)


@pytest.fixture(params=ALL_ARCHES, ids=[a.name for a in ALL_ARCHES])
def any_arch(request):
    """Parametrize a test over every modeled architecture."""
    return request.param


@pytest.fixture
def sparc_context():
    """A big-endian ILP32 endpoint (the paper's measurement machine)."""
    return IOContext(SPARC_32)


@pytest.fixture
def x86_context():
    """A little-endian LP64 endpoint (a modern host)."""
    return IOContext(X86_64)


@pytest.fixture(scope="session")
def pure_python():
    """``with pure_python():`` runs ``repro.pbio`` as on a host without numpy.

    numpy is detected once into ``repro.pbio.types.numpy``; patching that
    one attribute to ``None`` selects every pure-Python path, so one
    test can produce both paths' output and compare.  (Session-scoped
    and stateless, so hypothesis tests may use it.)
    """
    @contextmanager
    def without_numpy():
        patch = pytest.MonkeyPatch()
        patch.setattr("repro.pbio.types.numpy", None)
        try:
            yield
        finally:
            patch.undo()

    return without_numpy


@pytest.fixture
def arun():
    """Drive a coroutine to completion with a global deadline.

    Same contract as the async-plane suite's fixture (no pytest-asyncio
    dependency), available repo-wide for cross-plane tests.
    """
    def runner(coro, timeout=30.0):
        return asyncio.run(asyncio.wait_for(coro, timeout))

    return runner


@pytest.fixture
def fresh_registry():
    """Install an isolated metrics registry (and seeded tracer) for one test.

    The default registry is process-global, so observability tests swap
    in a fresh one and restore the original afterwards; wire tracing is
    always forced back off.
    """
    from repro.obs import metrics as metrics_mod
    from repro.obs import trace as trace_mod

    previous_registry = metrics_mod.get_registry()
    previous_tracer = trace_mod.get_tracer()
    registry = set_registry(Registry())
    set_tracer(Tracer(seed=1204))
    set_wire_tracing(False)
    try:
        yield registry
    finally:
        set_registry(previous_registry)
        set_tracer(previous_tracer)
        set_wire_tracing(False)
