"""Figure 8 — execution-time breakdown of APGRE.

Benchmarks the instrumented APGRE run per graph and emits the phase
shares (partition / α-β / top-sub-graph BC / other sub-graphs BC).
Paper shape: the extra computations (partition + α/β) stay a minority
of the run, and the top sub-graph dominates the BC phase.
"""

import pytest

from repro.bench.experiments import fig8
from repro.bench.workloads import bench_graph_names, get_graph
from repro.core.apgre import apgre_bc_detailed

from conftest import one_shot


@pytest.mark.parametrize("name", bench_graph_names())
def test_apgre_detailed(benchmark, name):
    graph = get_graph(name)
    result = one_shot(benchmark, apgre_bc_detailed, graph)
    assert result.stats.timings.total > 0
    fr = result.stats.timings.fractions()
    benchmark.extra_info["extra_share"] = round(
        fr["partition"] + fr["alpha_beta"], 4
    )


def test_report_fig8(benchmark, report):
    result = one_shot(benchmark, fig8)
    # the BC phase (top + rest) dominates on at least half the graphs
    # (at small REPRO_SCALE the near-linear decomposition is relatively
    # more expensive than at paper scale, so the bound is looser than
    # the paper's ~25% extra-share ceiling)
    dominated = 0
    for row in result.rows:
        extra = float(row[5].rstrip("%"))
        if extra < 50.0:
            dominated += 1
    assert dominated >= len(result.rows) // 2
    report(result)
