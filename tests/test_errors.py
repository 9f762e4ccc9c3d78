"""Tests for the exception hierarchy and package surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter over this package."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout


def _packages() -> list:
    root = Path(repro.__file__).parent
    return sorted(
        ".".join(("repro",) + init.parent.relative_to(root).parts)
        for init in root.rglob("__init__.py")
    )


#: re-exported functions that share their defining submodule's name
_SHADOWED = [
    ("repro.baselines", "async_bc"),
    ("repro.core", "bc_subgraph"),
    ("repro.metrics", "teps"),
]


def test_public_api_exports_resolve():
    # every package's __all__, in a fresh interpreter: dir() lists each
    # name before its first use, each name resolves, and a star import
    # binds exactly __all__
    code = (
        "import importlib, json, sys\n"
        "report = {}\n"
        "for name in sys.argv[1:]:\n"
        "    pkg = importlib.import_module(name)\n"
        "    listed = set(dir(pkg))\n"
        "    star = {}\n"
        "    exec(f'from {name} import *', star)\n"
        "    star.pop('__builtins__')\n"
        "    report[name] = {\n"
        "        'unlisted': [n for n in pkg.__all__ if n not in listed],\n"
        "        'unresolved': [n for n in pkg.__all__\n"
        "                       if not hasattr(pkg, n)],\n"
        "        'star': sorted(star) == sorted(pkg.__all__),\n"
        "        'listed_after': set(pkg.__all__) <= set(dir(pkg)),\n"
        "    }\n"
        "print(json.dumps(report))\n"
    )
    packages = _packages()
    assert "repro.baselines" in packages and "repro.graph.kernels" in packages
    report = json.loads(_fresh(code, *packages))
    for name in packages:
        assert report[name] == {
            "unlisted": [], "unresolved": [], "star": True,
            "listed_after": True,
        }, name
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("submodule_first", [True, False])
def test_shadowed_exports_stay_functions(submodule_first):
    # importing a submodule binds it onto its package; a re-export of
    # the same name must win whichever is loaded first
    code = (
        "import importlib, json, sys, types\n"
        "pairs = json.loads(sys.argv[1])\n"
        "for pkg, name in pairs:\n"
        "    if sys.argv[2] == '1':\n"
        "        importlib.import_module(f'{pkg}.{name}')\n"
        "    else:\n"
        "        getattr(importlib.import_module(pkg), name)\n"
        "        importlib.import_module(f'{pkg}.{name}')\n"
        "import repro\n"
        "from repro.baselines import async_bc\n"
        "print(json.dumps([\n"
        "    type(getattr(importlib.import_module(pkg), name)).__name__\n"
        "    for pkg, name in pairs] + [\n"
        "    type(async_bc).__name__, type(repro.async_bc).__name__]))\n"
    )
    kinds = json.loads(
        _fresh(code, json.dumps(_SHADOWED), "1" if submodule_first else "0")
    )
    assert kinds == ["function"] * (len(_SHADOWED) + 2)


def test_registries_list_one_order_whatever_loads_first():
    code = (
        "import importlib, json, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "import repro.baselines as B, repro.parallel as P\n"
        "from repro.graph import kernels as K\n"
        "print(json.dumps([B.algorithm_names(), list(K.kernel_names()),\n"
        "                  list(P.backend_names())]))\n"
    )
    firsts = [
        "repro", "repro.baselines.registry", "repro.graph.batched",
        "repro.graph.kernels", "repro.parallel.threaded",
        "repro.parallel.batched_pool", "repro.core.apgre",
    ]
    seen = {first: json.loads(_fresh(code, first)) for first in firsts}
    algorithms, kernels, backends = seen["repro"]
    assert algorithms == [
        "serial", "APGRE", "preds", "succs", "lockSyncFree", "async",
        "hybrid", "algebraic", "treefold", "batched",
    ]
    assert kernels == ["arcs", "spmm"]
    assert backends == ["serial", "threads", "processes"]
    for first, lists in seen.items():
        assert lists == seen["repro"], first


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


#: prints the loaded modules as one JSON line tagged ``modules``
_FOOTPRINT = (
    "import json, sys\n"
    "def footprint():\n"
    "    print('modules', json.dumps(sorted(sys.modules)), flush=True)\n"
)


def _modules(stdout: str) -> set:
    line = next(
        ln for ln in stdout.splitlines() if ln.startswith("modules ")
    )
    return set(json.loads(line.split(" ", 1)[1]))


def _under(modules: set, *packages: str) -> set:
    return {
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    }


def _edge_list(tmp_path) -> str:
    # two triangles and a square joined at cut vertices, plus a pendant
    path = tmp_path / "g.txt"
    path.write_text(
        "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n4 5\n5 6\n6 7\n7 4\n7 8\n"
    )
    return str(path)


#: what a cold ``import repro`` plus ``load_graph`` may load of repro
_COLD_LOAD = {
    "repro", "repro._version", "repro.errors", "repro.types",
    "repro.graph", "repro.graph.csr", "repro.io",
}


def test_import_and_default_run_stay_numpy_only(tmp_path):
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
    after_import, after_runs = _fresh(code).strip().splitlines()
    assert after_import == "[]", after_import
    assert after_runs in ("[]", "['scipy.sparse._sparsetools']"), after_runs

    graph = _edge_list(tmp_path)
    # a cold start (the e2e harness's setup_s): the package namespaces
    # are lazy, so only the graph and io layers load
    loaded = _modules(_fresh(
        _FOOTPRINT + "import repro\n"
        "from repro.io.registry import load_graph\n"
        "assert load_graph(sys.argv[1]).n == 9\n"
        "footprint()\n",
        graph,
    ))
    ours = _under(loaded, "repro")
    assert {m for m in ours if not m.startswith("repro.io.")} == _COLD_LOAD
    assert len(ours) <= 11, sorted(ours)
    assert not _under(loaded, "multiprocessing", "http", "scipy", "repro.core")

    # the client loads no numpy (repro.serve's promise)
    loaded = _modules(_fresh(
        _FOOTPRINT + "import repro.serve.client\nfootprint()\n"
    ))
    assert not _under(loaded, "numpy"), sorted(_under(loaded, "numpy"))

    # the daemon, up to its first full answer, loads only the serial
    # compute path
    daemon = (
        _FOOTPRINT
        + "import os, signal, threading, time\n"
        "from repro.cli import main\n"
        "graph, sock = sys.argv[1], sys.argv[2]\n"
        "def probe():\n"
        "    try:\n"
        "        from repro.serve.client import ServeClient\n"
        "        deadline = time.monotonic() + 60\n"
        "        while not os.path.exists(sock):\n"
        "            assert time.monotonic() < deadline\n"
        "            time.sleep(0.01)\n"
        "        client = ServeClient(unix_socket=sock, timeout=60)\n"
        "        body = client.bc(full=True)\n"
        "        assert len(body['scores']) == 9, body\n"
        "        footprint()\n"
        "    finally:\n"
        "        os.kill(os.getpid(), signal.SIGTERM)\n"
        "threading.Thread(target=probe, daemon=True).start()\n"
        "sys.exit(main(['serve', graph, '--unix-socket', sock]))\n"
    )
    loaded = _modules(_fresh(daemon, graph, str(tmp_path / "bc.sock")))
    assert _under(loaded, "repro.baselines") == {
        "repro.baselines", "repro.baselines.common"
    }
    assert not _under(
        loaded,
        "repro.parallel.backends", "repro.parallel.threaded",
        "repro.parallel.batched_pool", "repro.parallel.sharedmem",
        "repro.core.treefold", "repro.core.weighted_apgre",
        "repro.generators", "repro.bench", "repro.metrics", "repro.journal",
    ), sorted(loaded)

    # repro-bc compute (APGRE by default) loads no other algorithm
    loaded = _modules(_fresh(
        _FOOTPRINT + "from repro.cli import main\n"
        "assert main(['compute', sys.argv[1]]) == 0\n"
        "footprint()\n",
        graph,
    ))
    assert _under(loaded, "repro.baselines") == {
        "repro.baselines", "repro.baselines.common",
        "repro.baselines.registry",
    }
