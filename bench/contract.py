"""``BENCHMARK.json``: the benchmark's definitions in the shape the
driver reads.

The driver runs ``<command> --workload W --seed N --seconds S --trace
0|1`` and wants *every* listed ``end_to_end`` metric, non-zero, from
every workload.  So ``end_to_end`` lists the metrics all six workloads
can give (those with a ``driver_bound`` in :mod:`bench.metrics`); the
workload-specific ones ride in ``per_layer`` under their own names,
where a workload they do not apply to reports 0 and no bound is
enforced.  ``bench compare`` gates all 16 on the workloads they apply
to, with its own per-workload bounds.
"""

from __future__ import annotations

from bench.layers import PER_LAYER
from bench.metrics import END_TO_END
from bench.workloads import WORKLOADS

COMMAND = ["python3", "-m", "bench", "run"]
PATHS = ["bench"]
RUN_SECONDS = 10


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.driver_bound}
            for m in END_TO_END if m.driver_bound is not None],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in (*PER_LAYER,
                      *(m for m in END_TO_END if m.driver_bound is None))],
    }
