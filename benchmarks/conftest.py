"""Shared helpers for the experiment harnesses.

Every benchmark prints the table rows it reproduces (run with ``-s`` to
see them inline; they are also summarized in EXPERIMENTS.md).  When a
``group`` is given, the rows also go to
``benchmarks/BENCH_<group>.json`` — in place of the last run of the
same experiment at the same sizes — so runs can be diffed across
commits.

Set ``REPRO_BENCH_SMOKE=1`` to shrink problem sizes (CI smoke job).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

#: CI smoke mode: small sizes, same code paths
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

_BENCH_DIR = Path(__file__).resolve().parent


def bench_sizes(full: list[int], smoke: list[int]) -> list[int]:
    """Problem sizes for this run: ``smoke`` under REPRO_BENCH_SMOKE."""
    return smoke if SMOKE else full


def emit(title: str, rows: list[dict], group: str | None = None) -> None:
    """Print an experiment's result table; with ``group``, also record
    it in ``benchmarks/BENCH_<group>.json``."""
    if not rows:
        return
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(_fmt(row[c])) for row in rows))
              for c in columns}
    print(f"\n== {title} ==")
    print("  " + " | ".join(c.ljust(widths[c]) for c in columns))
    print("  " + "-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        print("  " + " | ".join(_fmt(row[c]).ljust(widths[c])
                                for c in columns))
    if group is not None:
        _record_json(group, title, rows)


def _record_json(group: str, title: str, rows: list[dict]) -> None:
    path = _BENCH_DIR / f"BENCH_{group}.json"
    entries: list[dict] = []
    if path.exists():
        try:
            entries = json.loads(path.read_text())
        except (ValueError, OSError):
            entries = []
    entries = [entry for entry in entries if (
        entry.get("title"), entry.get("smoke")) != (title, SMOKE)]
    entries.append({
        "title": title,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": SMOKE,
        "rows": rows,
    })
    path.write_text(json.dumps(entries, indent=2) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@pytest.fixture
def encoded_datanodes(monkeypatch):
    """A one-element counter of the ``DataNode``s constructed inside
    ``_NetconfAdapter._encode`` — what an adapter builds to encode a
    push — while the test runs."""
    from repro.orchestration.adapters import _NetconfAdapter
    from repro.yang.data import DataNode

    built = [0]
    construct, encode = DataNode.__init__, _NetconfAdapter._encode

    def counted_construct(node, *args, **kwargs):
        built[0] += 1
        construct(node, *args, **kwargs)

    def counted_encode(adapter, install, touched):
        DataNode.__init__ = counted_construct
        try:
            return encode(adapter, install, touched)
        finally:
            DataNode.__init__ = construct

    monkeypatch.setattr(_NetconfAdapter, "_encode", counted_encode)
    return built


@pytest.fixture
def table_printer():
    return emit
