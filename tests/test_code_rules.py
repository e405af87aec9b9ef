"""The code rules of this repository (CC001-CC007), run as tests.

The control plane is concurrent (dispatcher fan-out, breaker replays,
heal) and its past defects cluster around a few mechanical patterns:
sleeping while holding a lock, mutating a dict while iterating it,
taking two locks in opposite orders, mutable default arguments, writes
to lock-guarded state outside the owning lock, tracing spans with no
close path, and desired-state writes the write-ahead intent journal
never saw.  Each pattern is a plain function over a parsed module that
returns ``(path, line, message)`` findings.  Each ``TestCC00x`` class
walks every module under ``src/repro`` with its rule and asserts that
there are no findings (``test_src_repro_is_clean``); its other cases
seed violations and near misses into small sources and pin the verdict.

Two trailing comments in ``src/`` feed the rules:

- ``self.specs = []  # guarded-by: _lock`` names the lock that owns an
  attribute: CC005 flags every write outside ``__init__`` that is not
  lexically inside ``with self._lock:``;
- ``self._deployed = {}  # journaled: commit_mapping remove_service``
  names the only methods that may write journaled desired state
  (CC007); on a call line it exempts that call.

The analysis is lexical: anything whose name contains ``lock``,
``guard`` or ``mutex`` is a lock in a ``with``, and nested function,
lambda and class bodies are not part of the code around them.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint import (
    RESERVED_PREFIXES,
    LintRule,
    RuleRegistry,
    Severity,
    default_registry,
)

_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_LOCK_HINTS = ("lock", "guard", "mutex")
#: dict/set methods that corrupt (or raise in) a loop over the container
_CONTAINER_MUTATORS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault",
    "add", "remove", "discard"})
#: mutator methods that count as writes of a guarded/journaled attribute
_WRITE_MUTATORS = _CONTAINER_MUTATORS | {"append", "extend", "insert"}
_SPAN_OPENERS = frozenset({"span", "start_span"})
#: the desired-state mutators the write-ahead journal protects
_JOURNALED_MUTATORS = frozenset({
    "commit_mapping", "remove_service", "restore_service"})
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_JOURNALED = re.compile(r"#\s*journaled:\s*([A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*)")


# -- AST helpers -------------------------------------------------------------

def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def final_name(node):
    name = dotted_name(node)
    return name.rsplit(".", 1)[-1] if name else None


def self_attr(node):
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def lock_token(expr):
    """The final name of a lock-looking with-item (``self._pending_lock``
    and ``cal._pending_lock`` are both ``_pending_lock``; a call such as
    ``self._lock_for(domain)`` names its function), else None."""
    final = final_name(expr.func if isinstance(expr, ast.Call) else expr)
    if final and any(hint in final.lower() for hint in _LOCK_HINTS):
        return final
    return None


def is_intent(expr):
    """True for a ``with <...>.intent(...)`` item."""
    return isinstance(expr, ast.Call) and final_name(expr.func) == "intent"


def body_nodes(stmts):
    """Every node lexically inside ``stmts``, nested bodies excluded."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _NESTED))


def walk_scoped(stmts, state, enter):
    """``(node, state)`` for every node lexically inside ``stmts``,
    nested bodies excluded; each ``with`` item moves the state of what
    follows it to ``enter(context expression, state)``."""
    for stmt in stmts:
        yield from _walk_scoped(stmt, state, enter)


def _walk_scoped(node, state, enter):
    if isinstance(node, _NESTED):
        return
    yield node, state
    if isinstance(node, ast.With):
        inner = state
        for item in node.items:
            yield from _walk_scoped(item.context_expr, inner, enter)
            inner = enter(item.context_expr, inner)
        yield from walk_scoped(node.body, inner, enter)
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_scoped(child, state, enter)


def holding(expr, held):
    token = lock_token(expr)
    return held + (token,) if token is not None else held


def functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def classes(tree):
    """``(class, its methods)`` for every class in ``tree``."""
    return [(cls, [method for method in cls.body if isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef))])
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]


def comment_lines(source, pattern):
    """1-based line -> the first group of ``pattern`` on that line."""
    return {lineno: match.group(1)
            for lineno, line in enumerate(source.splitlines(), start=1)
            for match in [pattern.search(line)] if match}


def annotated_attrs(cls, lines):
    """``attr -> annotation`` for ``self.<attr> = ...`` statements of
    ``cls`` that carry an annotated comment on one of their lines."""
    found = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        notes = [lines[n] for n in range(node.lineno, node.end_lineno + 1)
                 if n in lines]
        if notes:
            for target in targets:
                if self_attr(target) is not None:
                    found[self_attr(target)] = notes[0]
    return found


def written_attrs(node):
    """``(attr, how)`` for every write of a ``self.<attr>`` in ``node``."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            for element in (target.elts if isinstance(
                    target, (ast.Tuple, ast.List)) else [target]):
                if self_attr(element) is not None:
                    yield self_attr(element), "assigned"
                elif isinstance(element, ast.Subscript) \
                        and self_attr(element.value) is not None:
                    yield self_attr(element.value), "item-assigned"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            base = target.value if isinstance(target, ast.Subscript) \
                else target
            if self_attr(base) is not None:
                yield self_attr(base), "deleted"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _WRITE_MUTATORS \
            and self_attr(node.func.value) is not None:
        yield self_attr(node.func.value), f"mutated via .{node.func.attr}()"


# -- the rules: (path, source, tree) -> [(path, line, message)] ---------------

def cc001_blocking_under_lock(path, source, tree):
    """A blocking call (``sleep``, adapter ``install`` / ``fetch_view``)
    lexically inside a ``with <lock>`` block."""
    findings = []
    for function in functions(tree):
        for node, held in walk_scoped(function.body, (), holding):
            if not held or not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            final = name and name.rsplit(".", 1)[-1]
            if final == "sleep" or final in ("install", "fetch_view"):
                kind = "blocking call" if final == "sleep" else "adapter I/O"
                findings.append((path, node.lineno,
                                 f"{function.name}: {kind} {name}() while "
                                 f"holding {list(held)}; release the lock "
                                 "first"))
    return findings


def iteration_base(expr):
    """The container a ``for`` iterates directly (``d``, ``d.items()``,
    ``d.keys()``, ``d.values()``), or None for a snapshot (``list(d)``,
    ``sorted(d)``, ``d.copy()``, ...)."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("items", "keys", "values"):
            return dotted_name(func.value)
        return None
    return dotted_name(expr)


def cc002_iterate_while_mutate(path, source, tree):
    """A dict/set mutated (``.pop`` / ``.add`` / ``del d[k]`` / ``d[k] =``)
    inside a ``for`` over the same container."""
    findings = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        base = iteration_base(loop.iter)
        if base is None:
            continue
        for node in body_nodes(loop.body):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in _CONTAINER_MUTATORS \
                        and dotted_name(func.value) == base:
                    findings.append((path, node.lineno,
                                     f"{base}.{func.attr}() called while "
                                     f"iterating {base} (line {loop.lineno})"))
            elif isinstance(node, (ast.Delete, ast.Assign)):
                verb = "deleted" if isinstance(node, ast.Delete) \
                    else "assigned"
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and dotted_name(target.value) == base:
                        findings.append((path, node.lineno,
                                         f"{base}[...] {verb} while "
                                         f"iterating {base} "
                                         f"(line {loop.lineno})"))
    return findings


def cc003_inconsistent_lock_order(path, source, tree):
    """Two methods of one class nest the same two locks in opposite
    orders: a potential deadlock."""
    findings = []
    for cls, methods in classes(tree):
        #: (outer, inner) -> (method, line) of the first witness
        pairs = {}
        for method in methods:
            for node, held in walk_scoped(method.body, (), holding):
                if not isinstance(node, ast.With):
                    continue
                for item in node.items:
                    token = lock_token(item.context_expr)
                    if token is None:
                        continue
                    for outer in held:
                        if outer != token:
                            pairs.setdefault((outer, token), (
                                method.name, item.context_expr.lineno))
                    held += (token,)
        reported = set()
        for (outer, inner), (name, line) in sorted(
                pairs.items(), key=lambda kv: kv[1][1]):
            key = frozenset((outer, inner))
            if (inner, outer) not in pairs or key in reported:
                continue
            reported.add(key)
            other, other_line = pairs[(inner, outer)]
            findings.append((path, max(line, other_line),
                             f"class {cls.name}: {name} (line {line}) takes "
                             f"{outer!r} then {inner!r} but {other} "
                             f"(line {other_line}) the other way round"))
    return findings


def cc004_mutable_default(path, source, tree):
    """A mutable default argument (``def f(x=[])``, ``def f(x=dict())``)."""
    findings = []
    for function in functions(tree):
        args = function.args
        for default in [*args.defaults, *filter(None, args.kw_defaults)]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call) and not default.args
                    and not default.keywords
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                findings.append((path, default.lineno,
                                 f"{function.name}: mutable default argument "
                                 "is shared across calls"))
    return findings


def cc005_guarded_by(path, source, tree):
    """An attribute annotated ``# guarded-by: <lock>`` written outside
    ``__init__`` and outside a ``with`` on its lock."""
    lines = comment_lines(source, _GUARDED_BY)
    findings = []
    for cls, methods in classes(tree):
        guarded = annotated_attrs(cls, lines)
        for method in methods if guarded else ():
            if method.name == "__init__":
                continue  # construction is single-threaded
            for node, held in walk_scoped(method.body, (), holding):
                for attr, how in written_attrs(node):
                    lock = guarded.get(attr)
                    if lock is None or lock in held or node.lineno in lines:
                        continue
                    findings.append((path, node.lineno,
                                     f"{cls.name}.{method.name}: self.{attr} "
                                     f"{how} outside its owning lock "
                                     f"{lock!r}"))
    return findings


def span_opener(node):
    """The dotted call name when ``node`` opens a tracing span."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.rsplit(".", 1)[-1] in _SPAN_OPENERS:
            return name
    return None


def cc006_leaked_span(path, source, tree):
    """A span opened (``obs.span`` / ``tracer.start_span``) with no close
    path.  It is closed when it is a ``with`` item, returned (the caller
    owns it), or assigned to a name the function later uses as a
    ``with`` item or calls ``.end()`` / ``.close()`` on."""
    findings = []
    for function in functions(tree):
        nodes = list(body_nodes(function.body))
        safe = set()
        closed = set()
        for node in nodes:
            if isinstance(node, ast.With):
                for item in node.items:
                    if span_opener(item.context_expr):
                        safe.add(id(item.context_expr))
                    closed.add(dotted_name(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                safe.update(id(sub) for sub in ast.walk(node.value)
                            if span_opener(sub))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("end", "close"):
                closed.add(dotted_name(node.func.value))
        closed.discard(None)
        for node in nodes:
            if isinstance(node, ast.Assign) and span_opener(node.value) \
                    and any(dotted_name(t) in closed for t in node.targets):
                safe.add(id(node.value))
        findings.extend(
            (path, node.lineno, f"{function.name}: {span_opener(node)}(...) "
             "opens a span that is never closed")
            for node in nodes if span_opener(node) and id(node) not in safe)
    return findings


def cc007_journaled_writes(path, source, tree):
    """Journaled desired state mutated where the journal cannot see it:
    an attribute annotated ``# journaled: m1 m2`` written by a method
    other than ``__init__``, ``m1`` or ``m2``; or a journaled mutator
    called on another object outside ``with <journal>.intent(...)``, in
    a function without an ``intent`` parameter, on a line without its
    own ``# journaled:`` comment."""
    lines = {lineno: tuple(names.split()) for lineno, names
             in comment_lines(source, _JOURNALED).items()}
    findings = []
    for cls, methods in classes(tree):
        journaled = annotated_attrs(cls, lines)
        for method in methods if journaled else ():
            if method.name == "__init__":
                continue  # construction precedes any intent
            for node in body_nodes(method.body):
                for attr, how in written_attrs(node):
                    if attr not in journaled or node.lineno in lines \
                            or method.name in journaled[attr]:
                        continue
                    findings.append((path, node.lineno,
                                     f"{cls.name}.{method.name}: self.{attr} "
                                     f"{how} but only {list(journaled[attr])} "
                                     "may mutate it"))
    for function in functions(tree):
        args = function.args
        if "intent" in [a.arg for a in
                        args.posonlyargs + args.args + args.kwonlyargs]:
            continue  # runs under its caller's open intent
        scoped = walk_scoped(function.body, False,
                             lambda expr, inside: inside or is_intent(expr))
        for node, inside in scoped:
            if inside or not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute) \
                    or node.func.attr not in _JOURNALED_MUTATORS:
                continue
            receiver = dotted_name(node.func.value)
            if receiver in (None, "self") or node.lineno in lines:
                continue
            findings.append((path, node.lineno,
                             f"{function.name}: {receiver}.{node.func.attr}"
                             "(...) mutates journaled desired state outside "
                             "a `with journal.intent(...)` scope"))
    return findings


RULES = {
    "CC001": cc001_blocking_under_lock,
    "CC002": cc002_iterate_while_mutate,
    "CC003": cc003_inconsistent_lock_order,
    "CC004": cc004_mutable_default,
    "CC005": cc005_guarded_by,
    "CC006": cc006_leaked_span,
    "CC007": cc007_journaled_writes,
}


@pytest.fixture(scope="module")
def package_modules():
    """``(path, source, tree)`` of every module under ``src/repro``,
    parsed once for this file's tree walks."""
    modules = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        modules.append((str(path), source, ast.parse(source, str(path))))
    return modules


def lint(source):
    """``(rule, line, message)`` of every rule's findings in ``source``."""
    source = textwrap.dedent(source)
    tree = ast.parse(source, "synthetic.py")
    return [(rule, line, message) for rule, check in RULES.items()
            for _, line, message in check("synthetic.py", source, tree)]


def codes(findings):
    return [rule for rule, _, _ in findings]


class RuleCase:
    """Runs the class's rule over every module of ``src/repro``."""

    rule = None

    def test_src_repro_is_clean(self, package_modules):
        check = RULES[self.rule]
        findings = [finding for module in package_modules
                    for finding in check(*module)]
        assert findings == []


class TestCC001BlockingUnderLock(RuleCase):
    rule = "CC001"

    def test_sleep_under_lock_flagged(self):
        diags = lint("""
            import time

            class Plan:
                def before(self):
                    with self._lock:
                        time.sleep(0.1)
            """)
        assert codes(diags) == ["CC001"]
        assert diags[0][1] == 7

    def test_sleep_outside_lock_clean(self):
        diags = lint("""
            import time

            class Plan:
                def before(self):
                    with self._lock:
                        delay = 0.1
                    time.sleep(delay)
            """)
        assert codes(diags) == []

    def test_adapter_io_under_lock_flagged(self):
        diags = lint("""
            class Dispatcher:
                def push(self, adapter, nffg):
                    with self._guard:
                        adapter.install(nffg)
            """)
        assert codes(diags) == ["CC001"]

    def test_nested_function_bodies_not_attributed(self):
        # a closure defined (not called) under the lock is not a
        # blocking call at that point
        diags = lint("""
            import time

            class Plan:
                def before(self):
                    with self._lock:
                        def later():
                            time.sleep(0.1)
                        self._callback = later
            """)
        assert codes(diags) == []

    def test_nested_with_mutex_variants(self):
        diags = lint("""
            import time

            class Kernel:
                def step(self):
                    with self._schedule_mutex:
                        time.sleep(0.5)
            """)
        assert codes(diags) == ["CC001"]


class TestCC002IterateWhileMutate(RuleCase):
    rule = "CC002"

    def test_pop_during_items_flagged(self):
        # the shape of an old CAL.reconcile bug
        diags = lint("""
            class Cal:
                def reconcile(self):
                    for key, value in self._pending.items():
                        if value.done:
                            self._pending.pop(key)
            """)
        assert codes(diags) == ["CC002"]

    def test_snapshot_iteration_clean(self):
        diags = lint("""
            class Cal:
                def reconcile(self):
                    for key in list(self._pending):
                        self._pending.pop(key)
                    for key in sorted(self._queue):
                        self._queue.discard(key)
                    for key, value in self._pending.copy().items():
                        self._pending.pop(key)
            """)
        assert codes(diags) == []

    def test_set_mutation_during_iteration_flagged(self):
        diags = lint("""
            def drain(active):
                for item in active:
                    if item.stale:
                        active.remove(item)
            """)
        assert codes(diags) == ["CC002"]

    def test_del_subscript_flagged(self):
        diags = lint("""
            def drain(table):
                for key in table:
                    del table[key]
            """)
        assert codes(diags) == ["CC002"]

    def test_subscript_assign_is_warning(self):
        # a finding, like every other: any finding fails the tree walk
        diags = lint("""
            def bump(table):
                for key in table:
                    table[key] = table[key] + 1
            """)
        assert codes(diags) == ["CC002"]
        assert "table[...] assigned" in diags[0][2]

    def test_mutating_other_container_clean(self):
        diags = lint("""
            def copy_keys(src, dst):
                for key in src:
                    dst.add(key)
            """)
        assert codes(diags) == []


class TestCC003InconsistentLockOrder(RuleCase):
    rule = "CC003"

    def test_reversed_nesting_flagged(self):
        diags = lint("""
            class Orchestrator:
                def submit(self):
                    with self._book_lock:
                        with self._view_lock:
                            pass

                def teardown(self):
                    with self._view_lock:
                        with self._book_lock:
                            pass
            """)
        assert codes(diags) == ["CC003"]
        assert "_book_lock" in diags[0][2]
        assert "_view_lock" in diags[0][2]

    def test_consistent_nesting_clean(self):
        diags = lint("""
            class Orchestrator:
                def submit(self):
                    with self._book_lock:
                        with self._view_lock:
                            pass

                def teardown(self):
                    with self._book_lock:
                        with self._view_lock:
                            pass
            """)
        assert codes(diags) == []

    def test_separate_classes_not_compared(self):
        # different classes own different locks even if the attribute
        # names collide; no cross-class pairing
        diags = lint("""
            class A:
                def f(self):
                    with self._x_lock:
                        with self._y_lock:
                            pass

            class B:
                def g(self):
                    with self._y_lock:
                        with self._x_lock:
                            pass
            """)
        assert codes(diags) == []


class TestCC004MutableDefault(RuleCase):
    rule = "CC004"

    def test_literal_defaults_flagged(self):
        diags = lint("""
            def f(items=[]):
                return items

            def g(table={}, tags=set()):
                return table, tags
            """)
        assert codes(diags) == ["CC004", "CC004", "CC004"]

    def test_none_default_clean(self):
        diags = lint("""
            def f(items=None, count=0, name=""):
                return items or []
            """)
        assert codes(diags) == []

    def test_keyword_only_default_flagged(self):
        diags = lint("""
            def f(*, hooks=list()):
                return hooks
            """)
        assert codes(diags) == ["CC004"]


class TestCC005GuardedBy(RuleCase):
    rule = "CC005"

    def test_unguarded_write_flagged(self):
        diags = lint("""
            class Plan:
                def __init__(self):
                    self.specs = []  # guarded-by: _lock
                    self._lock = object()

                def add(self, spec):
                    self.specs.append(spec)
            """)
        assert codes(diags) == ["CC005"]
        assert "specs" in diags[0][2]

    def test_write_under_owning_lock_clean(self):
        diags = lint("""
            class Plan:
                def __init__(self):
                    self.specs = []  # guarded-by: _lock
                    self._lock = object()

                def add(self, spec):
                    with self._lock:
                        self.specs.append(spec)
            """)
        assert codes(diags) == []

    def test_write_under_wrong_lock_flagged(self):
        diags = lint("""
            class Plan:
                def __init__(self):
                    self.specs = []  # guarded-by: _lock
                    self._lock = object()
                    self._other_lock = object()

                def add(self, spec):
                    with self._other_lock:
                        self.specs.append(spec)
            """)
        assert codes(diags) == ["CC005"]

    def test_init_writes_exempt(self):
        # construction is single-threaded; only post-init writes need
        # the lock
        diags = lint("""
            class Plan:
                def __init__(self):
                    self.specs = []  # guarded-by: _lock
                    self.specs = ["seed"]
                    self._lock = object()
            """)
        assert codes(diags) == []

    def test_augassign_and_del_flagged(self):
        diags = lint("""
            class Stats:
                def __init__(self):
                    self.total = 0  # guarded-by: _lock
                    self._lock = object()

                def bump(self):
                    self.total += 1

                def wipe(self):
                    del self.total
            """)
        assert codes(diags) == ["CC005", "CC005"]

    def test_reads_not_flagged(self):
        diags = lint("""
            class Stats:
                def __init__(self):
                    self.total = 0  # guarded-by: _lock
                    self._lock = object()

                def peek(self):
                    return self.total
            """)
        assert codes(diags) == []


class TestCC006LeakedSpans(RuleCase):
    rule = "CC006"

    def test_bare_span_call_flagged(self):
        diags = lint("""
            from repro import obs

            def deploy(self, service):
                obs.span("deploy", service=service.id)
                return self._deploy(service)
            """)
        assert codes(diags) == ["CC006"]
        assert "never closed" in diags[0][2]

    def test_assigned_but_never_closed_flagged(self):
        diags = lint("""
            def deploy(tracer):
                span = tracer.start_span("deploy")
                span.set(outcome="ok")
            """)
        assert codes(diags) == ["CC006"]

    def test_with_statement_clean(self):
        diags = lint("""
            from repro import obs

            def deploy(service):
                with obs.span("deploy", service=service.id) as root:
                    root.set(outcome="ok")
            """)
        assert codes(diags) == []

    def test_assigned_then_with_clean(self):
        diags = lint("""
            def deploy(tracer):
                span = tracer.start_span("deploy")
                with span:
                    pass
            """)
        assert codes(diags) == []

    def test_assigned_then_end_in_finally_clean(self):
        diags = lint("""
            def deploy(tracer):
                span = tracer.start_span("deploy")
                try:
                    work()
                finally:
                    span.end()
            """)
        assert codes(diags) == []

    def test_returned_span_is_callers_problem(self):
        # obs.span() itself hands the span to the caller; the opener
        # is exempt when the call is returned directly
        diags = lint("""
            def span(name, **attrs):
                current = _STATE
                if current is None:
                    return NOOP_SPAN
                return current.tracer.start_span(name, attrs)
            """)
        assert codes(diags) == []

    def test_nested_function_not_credited_with_outer_close(self):
        # the inner function leaks its span even though the outer one
        # closes a same-named variable
        diags = lint("""
            def outer(tracer):
                span = tracer.start_span("outer")
                span.end()

                def inner():
                    span = tracer.start_span("inner")
            """)
        assert codes(diags) == ["CC006"]

    def test_unrelated_calls_not_flagged(self):
        diags = lint("""
            def work(nffg):
                Span(tracer, "x")
                nffg.copy()
                lifespan("x")
            """)
        assert codes(diags) == []


class TestCC007JournaledWrites(RuleCase):
    rule = "CC007"

    def test_rogue_method_write_flagged(self):
        diags = lint("""
            class Books:
                def __init__(self):
                    self._deployed = {}  # journaled: commit_mapping remove_service

                def commit_mapping(self, sid, data):
                    self._deployed[sid] = data

                def sneaky_drop(self, sid):
                    self._deployed.pop(sid, None)
            """)
        assert codes(diags) == ["CC007"]
        assert "sneaky_drop" in diags[0][2]

    def test_listed_mutators_are_clean(self):
        diags = lint("""
            class Books:
                def __init__(self):
                    self._deployed = {}  # journaled: commit_mapping remove_service

                def commit_mapping(self, sid, data):
                    self._deployed[sid] = data

                def remove_service(self, sid):
                    self._deployed.pop(sid, None)
            """)
        assert codes(diags) == []

    def test_unscoped_mutator_call_flagged(self):
        diags = lint("""
            class Orchestrator:
                def teardown(self, sid):
                    self.cal.remove_service(sid)
            """)
        assert codes(diags) == ["CC007"]
        assert "remove_service" in diags[0][2]

    def test_call_inside_intent_scope_clean(self):
        diags = lint("""
            class Orchestrator:
                def teardown(self, sid):
                    with self.journal.intent("teardown", sid) as intent:
                        self.cal.remove_service(sid)
                        intent.commit({sid: None})
            """)
        assert codes(diags) == []

    def test_intent_parameter_exempts_helper(self):
        # helpers receiving the open scope as a parameter are running
        # inside the caller's intent — cross-function analysis is out
        # of scope for a lexical rule, the parameter is the contract
        diags = lint("""
            class Orchestrator:
                def _rollback(self, sid, intent):
                    self.cal.remove_service(sid)
            """)
        assert codes(diags) == []

    def test_journaled_comment_exempts_call_line(self):
        diags = lint("""
            class Orchestrator:
                def emergency_purge(self, sid):
                    self.cal.remove_service(sid)  # journaled: remove_service
            """)
        assert codes(diags) == []

    def test_self_receiver_calls_are_clean(self):
        # calling the mutator on *self* is the mutator's own class —
        # the attribute half already polices writes inside it
        diags = lint("""
            class Registry:
                def restore_service(self, sid, data):
                    self._apply(sid, data)

                def import_state(self, state):
                    for sid, data in state.items():
                        self.restore_service(sid, data)
            """)
        assert codes(diags) == []

    def test_call_outside_with_body_flagged(self):
        diags = lint("""
            class Orchestrator:
                def teardown(self, sid):
                    with self.journal.intent("teardown", sid):
                        pass
                    self.cal.remove_service(sid)
            """)
        assert codes(diags) == ["CC007"]


class TestSelfLint:
    def test_syntax_error_raises(self):
        # an unparseable module fails the walk instead of passing it
        with pytest.raises(SyntaxError):
            lint("def broken(:\n")


class TestRuleNamespace:
    def make_rule(self, rule_id, category="custom", scope="graph"):
        return LintRule(id=rule_id, title="test rule",
                        severity=Severity.ERROR, category=category,
                        check=lambda ctx: [], scope=scope)

    def test_duplicate_id_rejected(self):
        registry = RuleRegistry()
        registry.register(self.make_rule("ZZ901"))
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(self.make_rule("ZZ901"))

    def test_bad_id_format_rejected(self):
        registry = RuleRegistry()
        for bad in ("ZZ1", "zz001", "Z0001", "ZZZ01", "ZZ0001", ""):
            with pytest.raises(ValueError):
                registry.register(self.make_rule(bad))

    def test_mp_prefix_reserved_for_mapping_validator(self):
        registry = RuleRegistry()
        with pytest.raises(ValueError, match="MP"):
            registry.register(self.make_rule("MP001", category="mapping"))

    def test_reserved_prefix_wrong_category_rejected(self):
        registry = RuleRegistry()
        with pytest.raises(ValueError, match="reserved"):
            registry.register(self.make_rule("NF901", category="resources"))

    def test_reserved_prefix_right_category_accepted(self):
        registry = RuleRegistry()
        registry.register(self.make_rule("NF901", category="graph"))
        assert "NF901" in registry

    def test_unreserved_prefix_accepted(self):
        registry = RuleRegistry()
        registry.register(self.make_rule("ZZ001"))
        assert "ZZ001" in registry

    def test_invalid_scope_rejected(self):
        registry = RuleRegistry()
        for scope in ("bogus", "code"):
            with pytest.raises(ValueError, match="scope"):
                registry.register(self.make_rule("ZZ902", scope=scope))

    def test_default_registry_collision_free_and_reserved(self):
        rules = list(default_registry())
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            prefix = rule.id[:2]
            assert prefix in RESERVED_PREFIXES, rule.id
            assert RESERVED_PREFIXES[prefix] == rule.category, rule.id
