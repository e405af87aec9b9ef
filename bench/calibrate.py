"""How fast the machine is right now, so times can be stated at one speed.

The reference box is a shared 2-core VM whose cores run 10-35 % slower
or faster for minutes at a time (README "Bounds"): longer than a trial,
so nothing inside a trial averages it out, and enough to push the spread
of every wall-clock metric past its bound.  A trial therefore times one
fixed piece of pure-Python work before every timed cycle and before
every operation of a set-up, and divides its wall-clock numbers by how
much slower than :data:`REFERENCE_MS` that work ran.  The work is of the
program's kind — string-keyed dicts, a sort, a ``deepcopy``, a join —
because what the machine takes away it takes from the interpreter, and
it shares no code with :mod:`repro`, so no later change moves it.
"""

from __future__ import annotations

import copy
import gc
import statistics
from time import perf_counter

#: median of :func:`sample` on the reference box in a quiet spell: times
#: are reported as they would be on a machine where it takes this long
REFERENCE_MS = 0.62

_ROUNDS = 5


def _work() -> int:
    table = {}
    for i in range(60):
        key = f"node-{i % 17}-port-{i}"
        table[key] = {"id": key, "ports": [i, i + 1, i + 2],
                      "res": {"cpu": i * 0.5, "mem": float(i)}}
    order = sorted(table, key=lambda k: table[k]["res"]["cpu"], reverse=True)
    clone = copy.deepcopy([table[key] for key in order[:12]])
    return len(",".join(f"{c['id']}={c['res']['cpu']:.2f}" for c in clone))


def sample() -> float:
    """Wall milliseconds of the fixed work.  The collector is held off
    meanwhile: a collection here would be timed as machine slowness, and
    would shift the program's own collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(_ROUNDS):
            _work()
        return (perf_counter() - started) * 1e3
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference speed the machine ran
    while ``samples`` were taken (1.0 with none)."""
    return statistics.median(samples) / REFERENCE_MS if samples else 1.0
