"""Truncated Hofbauer towers (canonical Markov extensions) of interval maps.

Nodes are interval-domains obtained by pushing cylinders forward;
two domains with the same interval (within tolerance) are one node.
Edges are labelled by branch letters.  The tower is cut at level R;
targets first reached beyond R are kept as frontier stubs so downstream
consumers can see where mass escapes the truncation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError, ResourceError
from .interval_map import IntervalMap
from .symbolic import _branch_images

#: Two domains whose endpoints differ by at most this are identified.
IDENT_TOL = 1e-12
#: Tower nodes built before construction gives up.
NODE_CAP = 10_000


@dataclass
class TowerDomain:
    index: int
    lo: float
    hi: float
    level: int
    is_stub: bool = False

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains_interval(self, lo: float, hi: float, tol: float = 1e-9) -> bool:
        return self.lo <= lo + tol and hi - tol <= self.hi


@dataclass
class HofbauerTower:
    map: IntervalMap
    nodes: list[TowerDomain]
    edges: dict[tuple[int, int], int]  # (node, letter) -> node
    R: int
    complete: bool

    def successors(self, i: int) -> list[tuple[int, int]]:
        """(letter, target) pairs out of node i."""
        out = [(a, j) for (src, a), j in self.edges.items() if src == i]
        out.sort()
        return out

    def edge_list(self) -> list[tuple[int, int, int]]:
        """(source, letter, target) triples, sorted."""
        return sorted((src, a, dst) for (src, a), dst in self.edges.items())

    def real_nodes(self) -> list[TowerDomain]:
        return [d for d in self.nodes if not d.is_stub]

    def real_edges(self) -> list[tuple[int, int, int]]:
        return [(s, a, t) for s, a, t in self.edge_list()
                if not (self.nodes[s].is_stub or self.nodes[t].is_stub)]

    def count_paths(self, n: int) -> int:
        """Number of length-n edge paths starting at the base.

        Exact for n <= R: every node a path of that length can visit has
        all its outgoing edges explored.
        """
        if n > self.R + 1 and not self.complete:
            raise DomainError(f"path count beyond truncation R={self.R}")
        weights = {0: 1}
        for _ in range(n):
            nxt: dict[int, int] = {}
            for i, w in weights.items():
                for _, j in self.successors(i):
                    nxt[j] = nxt.get(j, 0) + w
            weights = nxt
        return sum(weights.values())


def build_tower(m: IntervalMap, R: int) -> HofbauerTower:
    """Breadth-first tower construction up to level R.

    complete=True means every node's successors are known, i.e. the
    directed graph closed up within the truncation (no stubs remain).
    """
    if R < 0:
        raise DomainError("truncation level must be >= 0")
    dlo, dhi = m.domain
    nodes: list[TowerDomain] = [TowerDomain(0, dlo, dhi, 0)]
    edges: dict[tuple[int, int], int] = {}

    def find(lo: float, hi: float) -> int | None:
        for d in nodes:
            if abs(d.lo - lo) <= IDENT_TOL and abs(d.hi - hi) <= IDENT_TOL:
                return d.index
        return None

    frontier = [0]
    level = 0
    any_stub = False
    while frontier and level <= R:
        nxt: list[int] = []
        for i in frontier:
            src = nodes[i]
            for a, _, _, t_lo, t_hi in _branch_images(m, src.lo, src.hi):
                j = find(t_lo, t_hi)
                if j is None:
                    if len(nodes) >= NODE_CAP:
                        err = ResourceError(
                            f"tower node cap {NODE_CAP} exceeded", count=len(nodes))
                        err.partial = HofbauerTower(m, nodes, edges, R, False)
                        raise err
                    j = len(nodes)
                    stub = level == R
                    nodes.append(TowerDomain(j, t_lo, t_hi, level + 1, is_stub=stub))
                    if stub:
                        any_stub = True
                    else:
                        nxt.append(j)
                edges[(i, a)] = j
        frontier = nxt
        level += 1
    complete = not any_stub and not frontier
    return HofbauerTower(m, nodes, edges, R, complete)


# ---------------------------------------------------------------------------
# strongly connected components and the closed primitive subgraph
# ---------------------------------------------------------------------------

def strongly_connected_components(n_nodes: int,
                                  adj: dict[int, list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index = {}
    low = {}
    on_stack = set()
    stack: list[int] = []
    counter = [0]
    comps: list[list[int]] = []

    for root in range(n_nodes):
        if root in index:
            continue
        work = [(root, iter(adj.get(root, [])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, []))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


@dataclass(frozen=True)
class SubgraphResult:
    """Result of the closed-primitive-subgraph search."""

    members: tuple[int, ...] | None
    primitive_sccs: tuple[tuple[int, ...], ...]
    closed_sccs: tuple[tuple[int, ...], ...]

    @property
    def found(self) -> bool:
        return self.members is not None


def closed_primitive_subgraph(tower: HofbauerTower) -> SubgraphResult:
    """The unique closed strongly connected set of domains, if one exists.

    Primitive means strongly connected with at least one edge inside
    (a singleton needs a self-loop).  Closed means no edge leaves the
    set; edges into frontier stubs count as leaving, so on incomplete
    towers the answer is truncation-relative.
    """
    n = len(tower.nodes)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for (src, _a), dst in tower.edges.items():
        adj[src].append(dst)
    comps = strongly_connected_components(n, adj)
    primitive = []
    closed_primitive = []
    for comp in comps:
        comp_set = set(comp)
        has_inner_edge = any(w in comp_set for v in comp for w in adj[v])
        if not has_inner_edge:
            continue
        primitive.append(tuple(comp))
        leaves = any(w not in comp_set for v in comp for w in adj[v])
        if not leaves:
            closed_primitive.append(tuple(comp))
    members = closed_primitive[0] if len(closed_primitive) == 1 else None
    return SubgraphResult(members, tuple(primitive), tuple(closed_primitive))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def tower_to_dot(tower: HofbauerTower) -> str:
    """Graph-description text of the real nodes and edges; members of the
    closed subgraph are styled."""
    result = closed_primitive_subgraph(tower)
    members = set(result.members or ())
    lines = ["digraph tower {", "  rankdir=LR;"]
    for d in tower.real_nodes():
        attr = f'label="L{d.level}:[{d.lo:.6g},{d.hi:.6g}]"'
        if d.index in members:
            attr += ' style=bold color="red"'
        lines.append(f"  n{d.index} [{attr}];")
    for src, a, dst in tower.real_edges():
        lines.append(f'  n{src} -> n{dst} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tower_to_json(tower: HofbauerTower) -> str:
    data = {
        "R": tower.R,
        "complete": tower.complete,
        "nodes": [
            {"index": d.index, "lo": d.lo, "hi": d.hi, "level": d.level,
             "stub": d.is_stub}
            for d in tower.nodes
        ],
        "edges": [
            {"src": s, "letter": a, "dst": t} for s, a, t in tower.edge_list()
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)
