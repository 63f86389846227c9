"""Shared fixtures: representative datasets and codec instances."""

import multiprocessing
import random
import sys

import pytest
from hypothesis import settings

from repro.compression import parallel
from repro.compression.parallel import shutdown_codec_pool
from repro.data.commercial import CommercialDataGenerator
from repro.data.molecular import MolecularDataGenerator
from tests.strategies import SUITE_SEED, TIER1_EXAMPLES

# Two depths of property testing, chosen with hypothesis' own
# ``--hypothesis-profile NAME`` flag: ``tier1`` (the default) runs each
# property on the count its ``@examples(n)`` names, ``nightly`` on ten
# times that.  Neither has a deadline: the pure-Python codecs are slow
# enough that a per-example time limit only reports the host's load.
settings.register_profile("tier1", max_examples=TIER1_EXAMPLES, deadline=None)
settings.register_profile("nightly", max_examples=10 * TIER1_EXAMPLES, deadline=None)
settings.load_profile("tier1")  # until the flag, read at configure time, says otherwise


#: ``@pytest.mark.race_shake``: the interpreter's thread switch interval
#: while a marked test runs (the default is 5 ms — a whole delivery fits
#: inside one slice and most interleavings never happen), and how many
#: times the body runs under each profile.
RACE_SWITCH_INTERVAL = 1e-5
RACE_ROUNDS = {"tier1": 3, "nightly": 20}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "race_shake(rounds=None): run the test body `rounds` times (default: "
        "3 under the tier1 profile, 20 under nightly) with a 10 us thread "
        "switch interval, restored afterwards",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("race_shake")
    if marker is None:
        yield
        return
    rounds = marker.kwargs.get("rounds") or RACE_ROUNDS.get(
        settings.get_current_profile_name(), RACE_ROUNDS["tier1"]
    )
    previous = sys.getswitchinterval()
    sys.setswitchinterval(RACE_SWITCH_INTERVAL)
    try:
        for _ in range(rounds - 1):
            item.runtest()
        yield  # pytest's own call is the last round
    finally:
        sys.setswitchinterval(previous)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"hypothesis profile: {settings.get_current_profile_name()}")


#: Seconds a child process gets to exit once its pool is shut down.
CHILD_EXIT_GRACE_S = 10.0


def pytest_sessionfinish(session):
    """No child process outlives the session once the codec pool is down.

    The codec pool lives for the whole process by design, so it is shut
    down first (which waits for its worker); every other pool a test
    started must already be shut down, and each child left gets a grace
    period to exit.  A straggler fails the session.
    """
    shutdown_codec_pool()
    for child in multiprocessing.active_children():
        child.join(CHILD_EXIT_GRACE_S)
    # Asked again, not read off join(): a pool's manager thread may be
    # reaping the same child, and the waiter that loses sees it alive.
    leaked = multiprocessing.active_children()
    if leaked:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line(f"FAIL: child processes outlived the session: {leaked}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def shared_pool(monkeypatch):
    """``shared_pool(pool)`` makes ``pool`` the shared codec pool for one test.

    The pool installed before it is shut down first, and the last one
    when the test ends, so no worker outlives the test.
    """

    def install(pool):
        shutdown_codec_pool()
        monkeypatch.setattr(parallel, "_codec_pool", pool)
        return pool

    yield install
    shutdown_codec_pool()


@pytest.fixture(autouse=True)
def pin_rng():
    """Reseed ambient RNGs before every test (the one seeding point).

    Mirrors ``benchmarks/conftest.py``: generators under test take
    explicit seeds, but pinning the global :mod:`random` / numpy
    generators on top keeps any test that forgets to pass one
    deterministic run-to-run.
    """
    random.seed(SUITE_SEED)
    try:
        import numpy

        numpy.random.seed(SUITE_SEED % (2**32))
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass
    yield


@pytest.fixture(scope="session")
def commercial_block() -> bytes:
    """~64 KB of OIS XML (string-repetitive, medium entropy)."""
    return CommercialDataGenerator(seed=99).xml_block(64 * 1024)


@pytest.fixture(scope="session")
def molecular_generator() -> MolecularDataGenerator:
    return MolecularDataGenerator(atom_count=1024, seed=7)


@pytest.fixture(scope="session")
def random_block() -> bytes:
    """16 KB of seeded pseudo-random bytes (incompressible)."""
    rng = random.Random(1234)
    return bytes(rng.getrandbits(8) for _ in range(16 * 1024))


@pytest.fixture(scope="session")
def lowentropy_block() -> bytes:
    """32 KB drawn from a 4-symbol skewed alphabet (low entropy)."""
    rng = random.Random(5)
    return bytes(rng.choices([65, 66, 67, 68], weights=[70, 20, 7, 3], k=32 * 1024))


@pytest.fixture(scope="session")
def corpus(commercial_block, random_block, lowentropy_block) -> dict:
    """Named byte corpora spanning the paper's data-characteristic classes."""
    return {
        "empty": b"",
        "single": b"x",
        "tiny": b"abcabc",
        "commercial": commercial_block,
        "random": random_block,
        "lowentropy": lowentropy_block,
        "zeros": b"\x00" * 20000,
        "alternating": b"ab" * 10000,
        "allbytes": bytes(range(256)) * 64,
    }
