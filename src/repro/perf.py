"""Lightweight control-plane instrumentation.

A process-global :class:`Counters` registry that the hot paths report
into: DoV rebuild/incremental-apply counts, NFFG clone sizes, path-cache
hits and misses.  Reading it costs nothing when nobody looks; updating
it is a dict increment — cheap enough to leave enabled everywhere.
Alongside the counters lives a :class:`MetricsRegistry` of fixed-bucket
histograms and gauges for the latency distributions the flat counters
cannot express (p50/p95/p99 in the benches and ``repro metrics``).

Counter names are dotted strings, grouped by subsystem::

    dov.rebuild              full merge_nffgs rebuilds of the global view
    dov.apply_inplace        incremental per-service applies
    dov.remove_inplace       incremental per-service removals
    dov.replay_skipped       booked services left out of a degraded merge
                             (their domain's substrate was unreachable)
    mapping.apply            mappings written into a graph by
                             ``apply_mapping``: one per commit into the
                             DoV (deploy, update, heal) and per booked
                             service a rebuild or ``verify()`` replays
    nffg.copy.calls          NFFG.copy() fast-path invocations
    nffg.copy.nodes          total nodes cloned by NFFG.copy()
    nffg.copy.edges          total edges cloned by NFFG.copy()
    pathcache.hit            routes served from the shared path cache
    pathcache.miss           routes that needed a fresh Dijkstra
    pathcache.invalidate     whole-cache invalidations (topology change)

Push-pipeline counters (concurrent delta-based domain programming)::

    push.delta               installs shipped as an edit-config patch
    push.full                installs shipped as a full-config replace
    push.delta_noop          installs skipped entirely (empty diff)
    push.bytes_saved         full-config bytes minus delta bytes, summed
    push.delta_fallback      delta attempts the server rejected
                             (stale base digest -> full resync)
    yang.measured            subtrees measured afresh: a
                             ``DataNode.measure`` its cache did not
                             answer (a tree read whole, a member where it
                             lands), client and server side, added once
                             per NETCONF push
    yang.hashed              leaves hashed: in those measures, and a leaf
                             set or removed under a measured node;
                             nothing a tree already measured leaves, so 0
                             for a teardown; added once per NETCONF push
    yang.resolved            tree paths resolved (``DataNode.find`` and
                             the patch applier's walks), added once per
                             NETCONF push
    unify.parts_rederived    client services a Unify agent re-derived
                             from its running config, added once per edit
                             (the parts that hold a member it named)
    dispatch.parallel        dispatcher fan-outs that used worker threads
    dispatch.inline          dispatcher batches run on the caller thread
                             (single op, or serial mode)

CAL counters (per-domain view cache + push planning)::

    cal.fetch                domain views refetched for a stitch (the
                             domain was stale)
    cal.fetch.reused         domain views served from the cache at a
                             stitch (the domain was not refetched)
    cal.stitch               global pristine views stitched from the
                             cached domain views
    cal.push.planned         domain pushes submitted by the push planner
    cal.push.skipped         registered domains the planner did not
                             contact (their config cannot have changed)
    cal.view.slice           install views sliced whole out of the DoV
                             (a domain's first push of a topology epoch)
    cal.view.refresh         pushes whose install view only re-read the
                             members touched since the push before
    cal.view.compare         re-slices compared with the view they
                             replace, so that push too carries an edit
    cal.view.whole           views handed to an adapter with no telling
                             what changed (``touched=None``: first
                             contact, a domain in doubt, moved infras)
    cal.fold_links           links-only refetches folded into live views

Mapping-index counters (the CAL-owned :class:`SubstrateIndex` that
seeds embedding runs — candidate sets, capacity buckets, copy-on-write
ledger bases; see :mod:`repro.mapping.index`)::

    mapping.index.hit        mapping runs seeded from the substrate index
                             (shared topology tables + O(1) ledger)
    mapping.index.skip       an index was offered but covered a different
                             view object (full per-run rescan fallback)
    mapping.index.apply      deploy/teardown deltas folded into the index's
                             free maps in place (no graph is written)
    mapping.index.rebuild    full index rebuilds from a resource view
    mapping.index.stale      inconsistencies that marked the index stale
                             (next sync rebuilds)
    mapping.index.candidates candidate-set queries served by the index
    mapping.index.fallback   pruned candidate scans that found no feasible
                             host and widened to the full supporting set

Resilience counters (all zero on a fault-free run)::

    resilience.faults.injected    faults fired by a FaultPlan (+ per-kind
                                  resilience.faults.<error|drop|delay|...>)
    resilience.retry.attempts     retries scheduled after a transient failure
    resilience.retry.nonretryable failures classified as not worth retrying
    resilience.retry.deadline     retry loops stopped by the overall deadline
    resilience.retry.giveup       operations that failed after all attempts
    resilience.breaker.trip       circuit breakers tripped open
    resilience.breaker.halfopen   open -> half-open recoveries
    resilience.breaker.close      half-open probes that closed the breaker
    resilience.breaker.skip       pushes skipped because a breaker was open
    resilience.breaker.reconcile  queued configs successfully replayed
    resilience.view.quarantined   view merges that excluded an open domain
    resilience.view.unreachable   view fetches that failed after retries
    resilience.rollback.failures  rollback pushes that themselves failed
    resilience.heal.domains_lost  domains absent when heal() ran
    resilience.heal.evacuations   services evacuated off a lost domain
    resilience.heal.rerouted      broken services healed keeping placements
    resilience.heal.reembedded    broken services re-embedded whole instead

Recovery counters (write-ahead intent journal + crash recovery; the
``recovery.journal.*`` and ``recovery.intent.*`` names tick on every
lifecycle operation, the rest only when crashes are injected or
``recover()`` runs)::

    recovery.journal.appends      records appended to the intent journal
    recovery.journal.checkpoints  checkpoints folded into the journal
    recovery.journal.truncated    journal records dropped by checkpoints
    recovery.journal.loaded       journal files re-opened for recovery
    recovery.intent.committed     intents that reached their commit record
    recovery.intent.aborted       intents closed by an abort record
    recovery.crash.injected       seeded CrashPlan kills between appends
    recovery.runs                 recover() invocations (plus
                                  recovery.runs.dry for --dry-run passes)
    recovery.restored             services rebuilt from checkpoint+replay
    recovery.inflight.rolled_back in-flight intents discarded by replay
    recovery.pending.restored     pending-replay domains re-queued by a
                                  resilience-state import
    recovery.reconcile.<removed|replaced|kept>
                                  import_state(reconcile=True) diff fates

Observability counters (``repro.obs``; all zero unless tracing is
enabled via ``REPRO_OBS=1`` or ``obs.enable()``)::

    trace.spans              spans started by the tracer
    trace.dropped            finished spans evicted from the bounded ring
    obs.events               structured events appended to the event log
    obs.events_dropped       events evicted from the bounded event ring

Histograms and gauges live in the module-global :data:`metrics`
registry and — like the counters — stay enabled everywhere (an
``observe()`` is a bucket increment under a small lock)::

    deploy.latency_s         end-to-end deploy() wall clock (histogram)
    push.latency_s           per-domain push wall clock, labelled by
                             {domain=...} (histogram)
    retry.backoff_s          per-retry backoff delay (histogram)
    dov.rebuild_s            from-scratch DoV merge time (histogram)
    map.latency_s            RO orchestrate() wall clock, labelled by
                             {embedder=...} (histogram)
    cal.stitch_s             global stitch time over the cached domain
                             views (histogram)
    recovery.latency_s       recover() end-to-end wall clock (histogram)
    cal.services_deployed    services currently booked in the CAL (gauge)
    cal.pending_reconcile    domains holding stale config (gauge)

Use :func:`snapshot` to read every counter at once (e.g. in benchmark
tables) and :func:`reset` between measurement windows; :func:`observe`
and :func:`set_gauge` are the one-line recording helpers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, Optional, Tuple

from repro.sanitize import make_lock


class Counters:
    """A named-counter registry with per-name totals.

    Thread-safe: the concurrent push dispatcher increments counters from
    worker threads, so every mutation takes a small lock.  Reads through
    :meth:`snapshot` copy under the same lock.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}  # guarded-by: _lock
        self._lock = make_lock("perf.counters")

    def incr(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> float:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """Copy of the current counters, optionally filtered by prefix."""
        with self._lock:
            return {name: value
                    for name, value in sorted(self._counts.items())
                    if name.startswith(prefix)}

    def reset(self, prefix: str = "") -> None:
        """Zero all counters (or only those under ``prefix``)."""
        with self._lock:
            if not prefix:
                self._counts.clear()
                return
            for name in [n for n in self._counts if n.startswith(prefix)]:
                del self._counts[name]

    def __repr__(self) -> str:
        return f"<Counters {len(self._counts)} names>"


#: default histogram buckets: latency in seconds, 0.5 ms .. 10 s plus
#: an implicit overflow bucket — wide enough for a deploy, fine enough
#: for a single domain push
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: labels are stored as a sorted tuple of (key, value) pairs
Labels = Tuple[Tuple[str, str], ...]


class Histogram:
    """A fixed-bucket histogram with quantile estimation.

    Observations land in the first bucket whose upper bound is >= the
    value (plus one overflow bucket past the last bound).  Quantiles
    interpolate linearly inside the winning bucket and are clamped to
    the observed min/max, so a histogram fed a single value reports
    that value at every quantile.
    """

    def __init__(self, name: str, *,
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S,
                 labels: Labels = ()) -> None:
        self.name = name
        self.labels = tuple(labels)
        self.bounds = tuple(sorted(float(bound) for bound in buckets))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._min = math.inf  # guarded-by: _lock
        self._max = -math.inf  # guarded-by: _lock
        self._lock = make_lock(f"perf.hist.{name}")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_right(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """Bucket counts plus sum/count/min/max, copied atomically."""
        with self._lock:
            return {
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
            }

    def quantile(self, q: float) -> float:
        """The estimated q-quantile (q in [0, 1]); 0.0 when empty."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            low, high = self._min, self._max
        if total == 0:
            return 0.0
        rank = min(1.0, max(0.0, q)) * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= rank:
                lower = low if index == 0 else self.bounds[index - 1]
                upper = high if index >= len(self.bounds) \
                    else min(high, self.bounds[index])
                lower = min(lower, upper)
                fraction = (rank - previous) / count
                value = lower + (upper - lower) * fraction
                return min(high, max(low, value))
        return high

    def percentile(self, p: float) -> float:
        """The estimated p-th percentile (p in [0, 100])."""
        return self.quantile(p / 100.0)

    def __repr__(self) -> str:
        return f"<Histogram {self.name}{dict(self.labels) or ''}>"


class Gauge:
    """A set/add instantaneous value (services deployed, queue depth)."""

    def __init__(self, name: str, *, labels: Labels = ()) -> None:
        self.name = name
        self.labels = tuple(labels)
        self._value = 0.0  # guarded-by: _lock
        self._lock = make_lock(f"perf.gauge.{name}")

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    def get(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{dict(self.labels) or ''}>"


class MetricsRegistry:
    """Get-or-create registry of histograms and gauges, keyed by metric
    name plus sorted label pairs.  Thread-safe like :class:`Counters`."""

    def __init__(self) -> None:
        self._metrics: Dict[tuple, object] = {}  # guarded-by: _lock
        self._lock = make_lock("perf.metrics")

    @staticmethod
    def _key(kind: str, name: str, labels: Optional[dict]) -> tuple:
        pairs = tuple(sorted((str(k), str(v))
                             for k, v in (labels or {}).items()))
        return (kind, name, pairs)

    def histogram(self, name: str, *, labels: Optional[dict] = None,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S,
                  ) -> Histogram:
        key = self._key("histogram", name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Histogram(name, buckets=buckets, labels=key[2])
                self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, *, labels: Optional[dict] = None) -> Gauge:
        key = self._key("gauge", name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Gauge(name, labels=key[2])
                self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def histograms(self) -> list[Histogram]:
        with self._lock:
            found = [m for m in self._metrics.values()
                     if isinstance(m, Histogram)]
        return sorted(found, key=lambda m: (m.name, m.labels))

    def gauges(self) -> list[Gauge]:
        with self._lock:
            found = [m for m in self._metrics.values()
                     if isinstance(m, Gauge)]
        return sorted(found, key=lambda m: (m.name, m.labels))

    def names(self) -> set[str]:
        with self._lock:
            return {key[1] for key in self._metrics}

    def reset(self, prefix: str = "") -> None:
        """Drop all metrics (or only those whose name has ``prefix``)."""
        with self._lock:
            if not prefix:
                self._metrics.clear()
                return
            for key in [k for k in self._metrics
                        if k[1].startswith(prefix)]:
                del self._metrics[key]

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._metrics)} metrics>"


#: the process-global registry the library reports into
counters = Counters()

#: the process-global histogram/gauge registry
metrics = MetricsRegistry()


def snapshot(prefix: str = "") -> dict[str, float]:
    return counters.snapshot(prefix)


def reset(prefix: str = "") -> None:
    """Zero counters and drop histograms/gauges (optionally by prefix)."""
    counters.reset(prefix)
    metrics.reset(prefix)


def observe(name: str, value: float, **labels: str) -> None:
    """Record one observation into the named global histogram."""
    metrics.histogram(name, labels=labels or None).observe(value)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set the named global gauge to an instantaneous value."""
    metrics.gauge(name, labels=labels or None).set(value)
