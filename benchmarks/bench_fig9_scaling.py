"""Figure 9 — parallel scaling of the algorithms on the dblp analogue.

Benchmarks APGRE at several worker counts (the ``processes`` engine;
one worker runs the same batched kernel inline) and emits the
measured-speedup table with the LPT work-model column (this host has a
single core, so measured curves are flat; the model column carries the
paper's shape — see EXPERIMENTS.md).
"""

import pytest

from repro.bench.experiments import fig9
from repro.bench.workloads import get_partition, scaling_graph
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig

from conftest import one_shot


@pytest.mark.parametrize("workers", [1, 2, 4, 8, 12])
def test_apgre_workers(benchmark, workers):
    name, graph = scaling_graph()
    partition = get_partition(name)
    config = APGREConfig(backend="processes", workers=workers)
    result = one_shot(
        benchmark, apgre_bc_detailed, graph, config, partition=partition
    )
    assert result.scores.shape == (graph.n,)
    benchmark.group = f"fig9-{name}"
    benchmark.extra_info["workers"] = workers


def test_report_fig9(benchmark, report, results_dir, capsys):
    result = one_shot(benchmark, fig9)
    # the model column grows monotonically with workers
    model = [row[-1] for row in result.rows]
    assert all(b >= a - 1e-9 for a, b in zip(model, model[1:]))
    assert model[0] == pytest.approx(1.0)
    report(result)
    from repro.bench.report import render_lines

    x = [row[0] for row in result.rows]
    series = {
        header: [row[i + 1] for row in result.rows]
        for i, header in enumerate(result.headers[1:])
    }
    chart = render_lines(
        "Figure 9 (chart): speedup vs workers", x, series
    )
    (results_dir / "figure9_chart.txt").write_text(chart + "\n")
    with capsys.disabled():
        print(f"\n{chart}\n")
