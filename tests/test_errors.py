"""Tests for the exception hierarchy and package surface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    AlgorithmError,
    BenchmarkError,
    GraphFormatError,
    GraphValidationError,
    PartitionError,
    ReproError,
)


def test_hierarchy():
    for exc in (
        GraphFormatError,
        GraphValidationError,
        PartitionError,
        AlgorithmError,
        BenchmarkError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_catchable_as_repro_error():
    with pytest.raises(ReproError):
        raise GraphFormatError("boom")


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_from_docstring():
    from repro import apgre_bc, from_edges

    g = from_edges([(0, 1), (1, 2), (2, 3), (1, 3)], directed=False)
    scores = apgre_bc(g)
    assert scores.shape == (4,)
    assert scores[1] > 0


def test_run_selftest_api():
    from repro.selftest import run_selftest

    report = run_selftest()
    assert len(report.checks) >= 6
    assert "self-test" in str(report)


def test_import_and_default_run_stay_numpy_only():
    # scipy only backs the SpMM kernel, whose C extension loads straight
    # from its file: the package import loads no scipy at all, and the
    # default run (on an undirected and a directed graph) may load that
    # one extension but never runs the scipy.sparse package __init__
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')\n"
        "import repro\n"
        "print(scipy_modules())\n"
        "from repro.core.apgre import apgre_bc_detailed\n"
        "from repro.core.config import APGREConfig\n"
        "from repro.generators.suite import analogue_graph\n"
        "apgre_bc_detailed(analogue_graph('Email-Enron', scale=0.25), "
        "APGREConfig())\n"
        "apgre_bc_detailed(analogue_graph('Email-EuAll', scale=0.25), "
        "APGREConfig())\n"
        "print(scipy_modules())\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    after_import, after_runs = out.stdout.strip().splitlines()
    assert after_import == "[]", out.stdout
    assert after_runs in ("[]", "['scipy.sparse._sparsetools']"), out.stdout
