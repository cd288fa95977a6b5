"""Electrical wiring topology.

The grid is an undirected multigraph of *outlets* connected by *cable
segments*. Two special outlet kinds exist: distribution *boards* (the roots of
the in-wall wiring trees) and plain wall outlets. PLC stations and appliances
plug into outlets.

The model needs three queries, all used by :mod:`repro.plc.channel`:

* :meth:`GridTopology.electrical_distance` — cable metres between two outlets
  (the x-axis of the paper's Fig. 7);
* :meth:`GridTopology.signal_path` — the outlet sequence a signal traverses;
* :meth:`GridTopology.tap_branches` — branch points hanging off that path,
  each with its branch length and the outlet at its end. Appliances on taps
  create the impedance mismatches responsible for multipath reflections
  (paper §5, Fig. 5).

Distances follow cable runs, *not* straight lines — the paper stresses that
the two distribution boards of the floor are joined only in the basement,
> 200 m of cable apart, which splits the testbed into two PLC networks.

The wiring is static: only the appliances' on/off state changes (§6.3). So
the grid resolves its geometry once per *source* outlet: the first query
from an outlet runs one single-source Dijkstra search and keeps its
distances and paths, and :meth:`~GridTopology.connected`,
:meth:`~GridTopology.electrical_distance`,
:meth:`~GridTopology.signal_path` and :meth:`~GridTopology.distances_from`
answer from that tree. For unknown or unreachable outlets they raise the
errors networkx's pairwise searches raise. Once a tree exists the wiring
is fixed, and :meth:`~GridTopology.add_cable` refuses further cables, so
no memo built on the trees (receiver rows, channel geometry) can go
stale. On the office floor every cable length is a multiple of 0.5 m and
the wiring is a tree, so a route sums to the same float in either
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Tuple

import networkx as nx


@dataclass(frozen=True)
class Outlet:
    """A point where a station or appliance can plug into the grid.

    Attributes
    ----------
    outlet_id:
        Unique name, e.g. ``"B1/office-3/wall-0"``.
    position:
        (x, y) floor coordinates in metres — used by the *WiFi* model for
        over-the-air distance; PLC uses cable distance instead.
    board:
        Identifier of the distribution board feeding this outlet.
    is_board:
        True for the distribution-board node itself.
    """

    outlet_id: str
    position: Tuple[float, float]
    board: str
    is_board: bool = False


@dataclass(frozen=True)
class TapBranch:
    """A stub branching off a transmission path.

    ``junction`` is the outlet on the path where the branch starts,
    ``end_outlet`` the outlet at the end of the stub and ``branch_length``
    the cable metres of the stub.
    """

    junction: str
    end_outlet: str
    branch_length: float


class _ShortestPathTree(NamedTuple):
    """Every shortest cable route from one source outlet (never mutated)."""

    distance: Dict[str, float]
    path: Dict[str, List[str]]


class GridTopology:
    """The wiring graph of (part of) a building."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._outlets: Dict[str, Outlet] = {}
        # Source outlet -> its shortest-path tree. Forks share the grid
        # across threads: each tree is written with one insert and never
        # mutated.
        self._trees: Dict[str, _ShortestPathTree] = {}

    # --- construction --------------------------------------------------------

    def add_outlet(self, outlet: Outlet) -> Outlet:
        if outlet.outlet_id in self._outlets:
            raise ValueError(f"duplicate outlet {outlet.outlet_id!r}")
        self._outlets[outlet.outlet_id] = outlet
        self._graph.add_node(outlet.outlet_id)
        return outlet

    def add_cable(self, a: str, b: str, length: float) -> None:
        """Connect outlets ``a`` and ``b`` with ``length`` metres of cable.

        A query sums a route's lengths from its source outlet, so a
        length that is not an exact binary fraction (0.1 m, say) can
        leave ``electrical_distance(a, b)`` and ``electrical_distance(b,
        a)`` a rounding step apart; multiples of 0.5 m sum exactly.
        """
        if length <= 0:
            raise ValueError(f"cable length must be positive, got {length}")
        if self._trees:
            raise RuntimeError(
                "the wiring is fixed once its geometry has been queried: "
                "add every cable before the first distance or path query")
        for end in (a, b):
            if end not in self._outlets:
                raise KeyError(f"unknown outlet {end!r}")
        self._graph.add_edge(a, b, length=float(length))

    # --- lookups --------------------------------------------------------------

    def outlet(self, outlet_id: str) -> Outlet:
        return self._outlets[outlet_id]

    def outlets(self) -> List[Outlet]:
        return list(self._outlets.values())

    def __contains__(self, outlet_id: str) -> bool:
        return outlet_id in self._outlets

    def __len__(self) -> int:
        return len(self._outlets)

    # --- signal-path queries ----------------------------------------------------

    def degree(self, outlet_id: str) -> int:
        """Number of cable segments meeting at an outlet (junction order)."""
        return int(self._graph.degree(outlet_id))

    def _tree(self, source: str) -> _ShortestPathTree:
        """The memoized shortest-path tree rooted at ``source``."""
        tree = self._trees.get(source)
        if tree is None:
            tree = _ShortestPathTree(*nx.single_source_dijkstra(
                self._graph, source, weight="length"))
            self._trees[source] = tree
        return tree

    def _check_ends(self, a: str, b: str) -> None:
        """Raise networkx's error for an unknown end of a pairwise query."""
        if a not in self._outlets:
            raise nx.NodeNotFound(f"Source {a} is not in G")
        if b not in self._outlets:
            raise nx.NodeNotFound(f"Target {b} is not in G")

    def connected(self, a: str, b: str) -> bool:
        """Whether a conductive path exists between two outlets."""
        self._check_ends(a, b)
        return b in self._tree(a).distance

    def electrical_distance(self, a: str, b: str) -> float:
        """Shortest cable distance in metres between two outlets."""
        distance = self._tree(a).distance
        if b not in distance:
            raise nx.NetworkXNoPath(f"Node {b} not reachable from {a}")
        return float(distance[b])

    def signal_path(self, a: str, b: str) -> List[str]:
        """Outlet sequence of the shortest cable route from ``a`` to ``b``."""
        self._check_ends(a, b)
        path = self._tree(a).path.get(b)
        if path is None:
            raise nx.NetworkXNoPath(f"No path between {a} and {b}.")
        return list(path)

    def distances_from(self, source: str) -> Mapping[str, float]:
        """Cable metres from ``source`` to every outlet connected to it
        (a read-only view; unreachable outlets are absent)."""
        return MappingProxyType(self._tree(source).distance)

    def tap_branches(self, a: str, b: str,
                     max_branch_length: float = 60.0) -> List[TapBranch]:
        """Branches hanging off the a→b signal path.

        For every outlet *not* on the path, we find its nearest junction on
        the path and the stub length to it; stubs longer than
        ``max_branch_length`` contribute negligible reflections and are
        dropped. Each returned branch is a potential reflection point once an
        appliance with mismatched impedance sits at its end.
        """
        path = self.signal_path(a, b)
        on_path = set(path)
        # Distance from every node to the path: multi-source Dijkstra.
        dist, routes = nx.multi_source_dijkstra(
            self._graph, sources=on_path, weight="length")
        branches: List[TapBranch] = []
        for node, d in dist.items():
            if node in on_path or d > max_branch_length:
                continue
            junction = routes[node][0]
            branches.append(TapBranch(junction=junction, end_outlet=node,
                                      branch_length=float(d)))
        branches.sort(key=lambda br: (br.junction, br.end_outlet))
        return branches

    def distance_along_path(self, path: Iterable[str]) -> List[float]:
        """Cumulative cable distance at each outlet of ``path``."""
        path = list(path)
        out = [0.0]
        for u, v in zip(path, path[1:]):
            out.append(out[-1] + self._graph[u][v]["length"])
        return out
