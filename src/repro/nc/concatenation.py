"""Tandem-system analysis: concatenation of servers.

The defining strength of network calculus (and the reason the paper can
analyse "any desired subset of the streaming application") is that
servers in series compose by min-plus convolution:

    a flow crossing beta_1 then beta_2 sees the single service curve
    beta_1 (*) beta_2,

which yields the *pay-bursts-only-once* phenomenon: the end-to-end delay
bound through the convolved curve is tighter than the sum of per-node
delay bounds.  :class:`Tandem` packages a node chain with helpers for
whole-system and contiguous-subset analysis, used by
:mod:`repro.streaming.analysis` for the per-node buffer-contribution
breakdown described in the paper's §4.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .curve import Curve
from .minplus import convolve_many
from .bounds import backlog_bound, delay_bound, output_arrival_curve

__all__ = ["TandemNode", "Tandem"]


@dataclass(frozen=True)
class TandemNode:
    """One server in a tandem: a minimum service curve, optionally a
    maximum service curve and a name for reporting."""

    beta: Curve
    gamma: Curve | None = None
    name: str = ""


@dataclass
class Tandem:
    """A chain of servers crossed by a single flow with arrival curve ``alpha``."""

    alpha: Curve
    nodes: list[TandemNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a tandem needs at least one node")

    # ------------------------------------------------------------------ #

    def system_service_curve(self, start: int = 0, stop: int | None = None) -> Curve:
        """Convolved service curve of nodes ``start..stop`` (Python slice bounds)."""
        sel = self.nodes[start:stop]
        if not sel:
            raise ValueError("empty node selection")
        return convolve_many([n.beta for n in sel])

    def system_max_service_curve(self, start: int = 0, stop: int | None = None) -> Curve | None:
        """Convolved maximum service curve, or ``None`` if any node lacks one."""
        sel = self.nodes[start:stop]
        if not sel or any(n.gamma is None for n in sel):
            return None
        return convolve_many([n.gamma for n in sel])  # type: ignore[misc]

    def arrivals(self) -> Iterator[Curve]:
        """Arrival curves of the flow entering nodes 0, 1, ..., and leaving
        the last one, in one forward fold.

        Propagates ``alpha`` through the output-envelope operator node by
        node (using each node's maximum service curve when available).
        Lazy: a caller that stops early never pays for, or trips over,
        the nodes it did not reach.
        """
        a = self.alpha
        yield a
        for node in self.nodes:
            a = output_arrival_curve(a, node.beta, node.gamma)
            yield a

    def arrival_at(self, index: int) -> Curve:
        """Arrival curve of the flow entering node ``index``."""
        return next(islice(self.arrivals(), len(self.nodes[:index]), None))

    # ------------------------------------------------------------------ #

    def end_to_end_delay_bound(self) -> float:
        """Pay-bursts-only-once delay bound through the whole tandem."""
        return delay_bound(self.alpha, self.system_service_curve())

    def end_to_end_backlog_bound(self) -> float:
        """Total backlog bound against the convolved system service curve."""
        return backlog_bound(self.alpha, self.system_service_curve())

    def sum_of_per_node_delay_bounds(self) -> float:
        """Naive per-node delay sum (for quantifying pay-bursts-only-once)."""
        total = 0.0
        for node, a in zip(self.nodes, self.arrivals()):
            d = delay_bound(a, node.beta)
            if math.isinf(d):
                return math.inf
            total += d
        return total

    def per_node_backlog_bounds(self) -> list[float]:
        """Backlog bound of each node against its local arrival curve.

        This is the paper's buffer-allocation aid: "the contributions of
        the data occupancy bounds that are due to each node ... can be
        determined analytically".
        """
        return [backlog_bound(a, node.beta) for node, a in zip(self.nodes, self.arrivals())]

    def subset_delay_bound(self, start: int, stop: int) -> float:
        """Delay bound across the contiguous node subset ``[start, stop)``."""
        return delay_bound(self.arrival_at(start), self.system_service_curve(start, stop))

    def subset_backlog_bound(self, start: int, stop: int) -> float:
        """Backlog bound across the contiguous node subset ``[start, stop)``."""
        return backlog_bound(self.arrival_at(start), self.system_service_curve(start, stop))

    def output_envelope(self) -> Curve:
        """Arrival curve of the flow leaving the last node."""
        return self.arrival_at(len(self.nodes))
