"""Make ``src/`` importable for pytest runs without an installed package.

The canonical install is ``pip install -e .`` (or ``python setup.py
develop`` on machines without the ``wheel`` package); this shim only keeps
``pytest`` working from a bare checkout.  It also hosts the repo-wide
pytest options:

``--engine {fast,reference}``
    Simulation engine for the benchmark harness (``benchmarks/``).  The
    flag simply sets ``REPRO_BENCH_ENGINE`` before collection so
    :func:`benchmarks.common.bench_engine` — which reads the variable at
    call time — picks it up.  Tests are unaffected: the differential
    suite always runs *both* engines, that being its point.

``--regen-golden``
    Regenerate the golden-trace fixtures under ``tests/golden/`` instead
    of comparing against them (see ``tests/test_golden_traces.py``).

``--hypothesis-profile=wide``
    Run the property tests of ``tests/test_per_domain_driver.py``,
    ``tests/test_victim_stop.py`` and ``tests/test_reference_stop.py``
    on a larger, random example budget instead of their small
    derandomized one.
"""

import os
import sys

import pytest
from hypothesis import settings

settings.register_profile(
    "wide", max_examples=150, derandomize=False, deadline=None,
)

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        choices=("fast", "reference"),
        default=None,
        help="simulation engine for the benchmark harness "
             "(sets REPRO_BENCH_ENGINE; default: fast)",
    )
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden-trace fixtures under tests/golden/ "
             "from the current simulator instead of asserting against "
             "them",
    )


def pytest_configure(config):
    engine = config.getoption("--engine")
    if engine is not None:
        os.environ["REPRO_BENCH_ENGINE"] = engine


@pytest.fixture
def regen_golden(request) -> bool:
    """True when ``--regen-golden`` was passed on the command line."""
    return request.config.getoption("--regen-golden")
