"""Click process: an element graph compiled from a textual config.

The config syntax is a pragmatic subset of Click's::

    in0 :: FromPort(0);
    fw  :: FirewallFilter(deny tp_dst=22, allow );
    out :: ToPort(1);
    in0[0] -> [0]fw;
    fw[0] -> [0]out;

Shorthand chains are also accepted::

    FromPort(0) -> FirewallFilter(deny tp_dst=22) -> ToPort(1)

Pushing a packet into an external port runs it through the graph
synchronously; emissions reaching ``ToPort`` elements are collected and
handed back to the host (which forwards them on the wire with the NF's
processing delay applied).
"""

from __future__ import annotations

import re
from typing import Callable

from repro.click.elements import (
    Classifier,
    Counter,
    DPIElement,
    Discard,
    Element,
    FirewallFilter,
    FromPort,
    LatencyProbe,
    NATRewriter,
    PayloadRewriter,
    RateLimiter,
    Tee,
    ToPort,
    VlanTagger,
    VlanUntagger,
)
from repro.netem.packet import Packet


class ClickConfigError(ValueError):
    """Raised on unparsable configs or invalid wiring."""


_ELEMENT_FACTORIES: dict[str, Callable[..., Element]] = {}


def register_element(type_name: str, factory: Callable[..., Element]) -> None:
    """Make an element type available to configs (plug-and-play NFs)."""
    _ELEMENT_FACTORIES[type_name] = factory


def _register_builtins() -> None:
    register_element("FromPort", lambda name, args: FromPort(name, int(args or 0)))
    register_element("ToPort", lambda name, args: ToPort(name, int(args or 1)))
    register_element("Counter", lambda name, args: Counter(name))
    register_element("Discard", lambda name, args: Discard(name))
    register_element("Tee", lambda name, args: Tee(name, int(args or 2)))
    register_element("VlanTagger", lambda name, args: VlanTagger(name, int(args)))
    register_element("VlanUntagger", lambda name, args: VlanUntagger(name))
    register_element("LatencyProbe", lambda name, args: LatencyProbe(name))
    register_element("RateLimiter", lambda name, args: RateLimiter(
        name, *(float(a) for a in args.split() if a)) if args else RateLimiter(name))
    register_element("Classifier", lambda name, args: Classifier(
        name, [spec.strip() for spec in args.split("|") if spec.strip()]))
    register_element("DPIElement", lambda name, args: DPIElement(
        name, [sig.strip() for sig in args.split("|")] if args else ("malware",)))
    register_element("NATRewriter", lambda name, args: NATRewriter(
        name, args.strip() or "192.0.2.1"))
    register_element("PayloadRewriter", lambda name, args: PayloadRewriter(
        name, *(token for token in args.split("|"))))
    register_element("FirewallFilter", _firewall_factory)


def _firewall_factory(name: str, args: str) -> FirewallFilter:
    rules: list[tuple[str, str]] = []
    default = "allow"
    for clause in args.split(","):
        clause = clause.strip()
        if not clause:
            continue
        verdict, _, spec = clause.partition(" ")
        verdict = verdict.lower()
        if verdict not in ("allow", "deny", "default"):
            raise ClickConfigError(f"firewall {name!r}: bad verdict {verdict!r}")
        if verdict == "default":
            default = spec.strip() or "allow"
        else:
            rules.append((verdict, spec.strip()))
    return FirewallFilter(name, rules, default=default)


_register_builtins()

_DECL_RE = re.compile(r"^(?P<name>\w+)\s*::\s*(?P<type>\w+)\((?P<args>.*)\)$")
_INLINE_RE = re.compile(r"^(?P<type>\w+)\((?P<args>.*)\)$")
_WIRE_RE = re.compile(
    r"^(?P<src>\w+)(\[(?P<src_gate>\d+)\])?\s*->\s*(\[(?P<dst_gate>\d+)\])?(?P<dst>\w+)$")


class ClickProcess:
    """An instantiated element graph with external numbered ports."""

    def __init__(self, name: str, processing_delay_ms: float = 0.05):
        self.name = name
        self.processing_delay_ms = processing_delay_ms
        self.elements: dict[str, Element] = {}
        #: (element_name, out_gate) -> (element_name, in_gate)
        self.wires: dict[tuple[str, int], tuple[str, int]] = {}
        self._ingress: dict[int, str] = {}
        self.running = True

    # -- construction ------------------------------------------------------

    def add_element(self, element: Element) -> Element:
        if element.name in self.elements:
            raise ClickConfigError(f"duplicate element {element.name!r}")
        self.elements[element.name] = element
        if isinstance(element, FromPort):
            if element.port in self._ingress:
                raise ClickConfigError(f"duplicate FromPort({element.port})")
            self._ingress[element.port] = element.name
        return element

    def wire(self, src: str, src_gate: int, dst: str, dst_gate: int = 0) -> None:
        if src not in self.elements or dst not in self.elements:
            raise ClickConfigError(f"wire references unknown element "
                                   f"{src!r} or {dst!r}")
        key = (src, src_gate)
        if key in self.wires:
            raise ClickConfigError(f"gate {src}[{src_gate}] already wired")
        self.wires[key] = (dst, dst_gate)

    # -- execution -----------------------------------------------------------

    def push(self, packet: Packet, external_port: int = 0,
             now: float = 0.0) -> list[tuple[int, Packet]]:
        """Run a packet through the graph; returns (out_port, packet)."""
        if not self.running:
            return []
        entry = self._ingress.get(external_port)
        if entry is None:
            return []
        packet.record(f"nf:{self.name}")
        outputs: list[tuple[int, Packet]] = []
        queue: list[tuple[str, int, Packet]] = [(entry, 0, packet)]
        hops = 0
        while queue:
            hops += 1
            if hops > 10_000:
                raise ClickConfigError(f"element loop in {self.name!r}")
            element_name, in_gate, current = queue.pop(0)
            element = self.elements[element_name]
            if hasattr(element, "observe_time"):
                element.observe_time(now)
            for out_gate, emitted in element.push(current, in_gate):
                if isinstance(element, ToPort):
                    continue
                target = self.wires.get((element_name, out_gate))
                if target is None:
                    continue  # unwired gate = drop
                next_name, next_gate = target
                next_element = self.elements[next_name]
                if isinstance(next_element, ToPort):
                    outputs.append((next_element.port, emitted))
                else:
                    queue.append((next_name, next_gate, emitted))
        return outputs

    def stop(self) -> None:
        self.running = False

    def stats(self) -> dict[str, dict[str, int]]:
        return {name: {"in": el.packets_in, "out": el.packets_out}
                for name, el in self.elements.items()}

    def __repr__(self) -> str:
        return f"<ClickProcess {self.name}: {len(self.elements)} elements>"


def compile_config(name: str, config: str,
                   processing_delay_ms: float = 0.05) -> ClickProcess:
    """Compile a textual config into a :class:`ClickProcess`."""
    process = ClickProcess(name, processing_delay_ms=processing_delay_ms)
    statements = [stmt.strip() for stmt in config.replace("\n", ";").split(";")
                  if stmt.strip()]
    anon_seq = 0
    for statement in statements:
        decl = _DECL_RE.match(statement)
        if decl is not None:
            _instantiate(process, decl.group("name"), decl.group("type"),
                         decl.group("args"))
            continue
        if "->" in statement:
            segments = [seg.strip() for seg in statement.split("->")]
            resolved: list[str] = []
            gates: list[tuple[int, int]] = []
            previous_out = 0
            for segment in segments:
                out_gate = previous_out
                in_gate = 0
                gate_prefix = re.match(r"^\[(\d+)\](.*)$", segment)
                if gate_prefix:
                    in_gate = int(gate_prefix.group(1))
                    segment = gate_prefix.group(2).strip()
                gate_suffix = re.match(r"^(.*?)\[(\d+)\]$", segment)
                if gate_suffix and not segment.endswith(")"):
                    segment = gate_suffix.group(1).strip()
                    previous_out = int(gate_suffix.group(2))
                else:
                    previous_out = 0
                inline = _INLINE_RE.match(segment)
                if inline is not None:
                    anon_seq += 1
                    auto_name = f"_{inline.group('type').lower()}{anon_seq}"
                    _instantiate(process, auto_name, inline.group("type"),
                                 inline.group("args"))
                    segment = auto_name
                if segment not in process.elements:
                    raise ClickConfigError(
                        f"unknown element {segment!r} in {statement!r}")
                resolved.append(segment)
                gates.append((out_gate, in_gate))
            for index in range(len(resolved) - 1):
                src = resolved[index]
                dst = resolved[index + 1]
                out_gate = gates[index + 1][0]
                in_gate = gates[index + 1][1]
                process.wire(src, out_gate, dst, in_gate)
            continue
        raise ClickConfigError(f"unparsable statement {statement!r}")
    if not process._ingress:
        raise ClickConfigError(f"config for {name!r} has no FromPort")
    return process


def _instantiate(process: ClickProcess, name: str, type_name: str,
                 args: str) -> None:
    factory = _ELEMENT_FACTORIES.get(type_name)
    if factory is None:
        raise ClickConfigError(f"unknown element type {type_name!r}")
    try:
        process.add_element(factory(name, args.strip()))
    except ClickConfigError:
        raise
    except Exception as exc:
        raise ClickConfigError(
            f"cannot instantiate {type_name}({args!r}): {exc}") from exc
