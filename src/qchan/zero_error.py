"""Zero-error analysis.

Builds confusability graphs from pairwise output-overlap tests, takes
strong graph powers for block codes, computes exact maximum independent
sets by branch and bound, and turns independence numbers into zero-error
rate lower bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .channels import QuantumChannel, apply
from .errors import InvalidParameter, InvalidState, TooLarge
from .qmath import DensityMatrix, from_bloch

OVERLAP_TOL = 1e-10
_PRODUCT_VERTEX_LIMIT = 100000
_EXACT_MIS_LIMIT = 130


class ConfusabilityGraph:
    """Undirected graph whose edges join inputs the channel can confuse."""

    __slots__ = ("labels", "adjacency")

    def __init__(self, labels: Sequence[str], adjacency):
        labels = tuple(str(x) for x in labels)
        adj = np.array(adjacency, dtype=bool)
        n = len(labels)
        if adj.shape != (n, n):
            raise InvalidParameter(
                f"adjacency shape {adj.shape} does not match {n} labels"
            )
        if not np.array_equal(adj, adj.T):
            raise InvalidParameter("adjacency must be symmetric")
        if adj.diagonal().any():
            raise InvalidParameter("adjacency must have an empty diagonal")
        adj.setflags(write=False)
        self.labels = labels
        self.adjacency = adj

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degree(self, v: int) -> int:
        return int(self.adjacency[v].sum())

    def is_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j])

    def edges(self):
        idx_i, idx_j = np.nonzero(np.triu(self.adjacency, 1))
        return [(int(i), int(j)) for i, j in zip(idx_i, idx_j)]

    def __repr__(self):
        return f"ConfusabilityGraph({self.vertex_count} vertices, {self.edge_count} edges)"


@dataclass(frozen=True)
class ZeroErrorReport:
    """Lower bound on the zero-error capacity from n channel uses."""

    n: int
    K: int
    rate: float
    witness: Tuple[str, ...] = ()
    notes: tuple = field(default_factory=tuple)
    nodes: int = 0  # calls of the search's expand, summed over the searches run


def non_adjacent(channel: QuantumChannel, rho1, rho2) -> bool:
    """True when the two inputs stay perfectly distinguishable.

    Their two-vertex confusability graph has no edge: the output overlap
    Tr(N(rho1) N(rho2)) vanishes, so the outputs have orthogonal supports.
    """
    return not confusability_graph(channel, [rho1, rho2]).is_edge(0, 1)


def pauli_eigenstates():
    """The six single-qubit Pauli eigenstates, labeled +z,-z,+x,-x,+y,-y."""
    vectors = {
        "+z": (0.0, 0.0, 1.0),
        "-z": (0.0, 0.0, -1.0),
        "+x": (1.0, 0.0, 0.0),
        "-x": (-1.0, 0.0, 0.0),
        "+y": (0.0, 1.0, 0.0),
        "-y": (0.0, -1.0, 0.0),
    }
    return [(name, from_bloch(r)) for name, r in vectors.items()]


def confusability_graph(
    channel: QuantumChannel,
    states: Optional[Sequence[DensityMatrix]] = None,
    labels: Optional[Sequence[str]] = None,
) -> ConfusabilityGraph:
    """Graph over candidate inputs with edges between confusable pairs.

    The default candidate alphabet is the six Pauli eigenstates; two
    vertices are joined exactly when the channel outputs overlap.
    """
    if states is None:
        named = pauli_eigenstates()
        labels = [name for name, _ in named]
        states = [rho for _, rho in named]
    states = list(states)
    if not states:
        raise InvalidState("need at least one candidate state")
    if labels is None:
        labels = [f"s{k}" for k in range(len(states))]
    outs = [apply(channel, rho).matrix for rho in states]
    n = len(outs)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            overlap = float(np.trace(outs[i] @ outs[j]).real)
            adj[i, j] = adj[j, i] = overlap > OVERLAP_TOL
    return ConfusabilityGraph(labels, adj)


def strong_product(g: ConfusabilityGraph, n: int) -> ConfusabilityGraph:
    """n-fold strong power: codewords are n-tuples of single-use inputs.

    Two distinct tuples are adjacent exactly when every coordinate pair
    is adjacent or equal, i.e. no coordinate distinguishes them.
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    _require_size(g.vertex_count, n, _PRODUCT_VERTEX_LIMIT, "the strong-product limit")
    loop = g.adjacency | np.eye(g.vertex_count, dtype=bool)
    acc = loop.astype(np.uint8)
    for _ in range(n - 1):
        acc = np.kron(acc, loop.astype(np.uint8))
    adj = acc.astype(bool)
    np.fill_diagonal(adj, False)
    labels = ["(" + ",".join(combo) + ")" for combo in itertools.product(g.labels, repeat=n)]
    return ConfusabilityGraph(labels, adj)


def _greedy_independent_set(full: int, masks) -> int:
    """Min-degree greedy independent set, used to seed the exact search."""
    chosen = 0
    cand = full
    while cand:
        best_v, best_deg = -1, None
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            deg = (masks[v] & cand).bit_count()
            if best_deg is None or deg < best_deg:
                best_v, best_deg = v, deg
        chosen |= 1 << best_v
        cand &= ~masks[best_v] & ~(1 << best_v)
    return chosen


def _require_size(nv: int, n: int, limit: int, what: str) -> None:
    """TooLarge when nv^n vertices exceed limit, found without forming nv^n for large n."""
    # past `cap` uses, nv >= 2 already gives nv^cap > limit
    cap = limit.bit_length()
    if nv ** min(n, cap) > limit:
        shown = nv**n if n <= cap else f"{nv}^{n}"
        raise TooLarge(f"{shown} vertices exceeds {what} {limit}")


def max_independent_set(g: ConfusabilityGraph) -> Tuple[int, Tuple[int, ...]]:
    """Exact independence number with one witness set.

    Runs as a max-clique search on the complement graph over bitsets: at
    every node the candidates are greedily colored (each color class is a
    clique of the original graph, so the color count bounds how much the
    independent set can still grow) and branching walks the colors from
    the top. Seeded with a min-degree greedy solution. Vertex order is
    fixed, so results are deterministic; the witness is re-verified
    edge-free before returning.
    """
    return _search(g)[:2]


def _search(g: ConfusabilityGraph) -> Tuple[int, Tuple[int, ...], int]:
    """max_independent_set plus the count of nodes it expanded."""
    nv = g.vertex_count
    _require_size(nv, 1, _EXACT_MIS_LIMIT, "the exact-search limit")
    order = sorted(range(nv), key=lambda v: (-g.degree(v), v))
    rows = g.adjacency[np.ix_(order, order)].tolist()
    masks = [sum(1 << k for k, edge in enumerate(row) if edge) for row in rows]
    full = (1 << nv) - 1
    comp = [full & ~masks[v] & ~(1 << v) for v in range(nv)]

    best_mask = _greedy_independent_set(full, masks)
    best_size = best_mask.bit_count()
    nodes = 0

    def color_sort(cand: int):
        """Candidates in ascending greedy-color order with their colors."""
        vs, colors = [], []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail ^= low
                avail &= ~comp[v]
                rest ^= low
                vs.append(v)
                colors.append(color)
        return vs, colors

    def expand(cur_mask: int, cur_size: int, cand: int):
        nonlocal best_size, best_mask, nodes
        nodes += 1
        vs, colors = color_sort(cand)
        for i in range(len(vs) - 1, -1, -1):
            if cur_size + colors[i] <= best_size:
                return
            v = vs[i]
            bit = 1 << v
            new_cand = cand & comp[v]
            if new_cand:
                expand(cur_mask | bit, cur_size + 1, new_cand)
            elif cur_size + 1 > best_size:
                best_size = cur_size + 1
                best_mask = cur_mask | bit
            cand &= ~bit

    expand(0, 0, full)

    witness = tuple(sorted(order[k] for k in range(nv) if best_mask >> k & 1))
    _check_independent(g, witness)
    return best_size, witness, nodes


def _check_independent(g: ConfusabilityGraph, witness: Sequence[int]) -> None:
    if g.adjacency[np.ix_(witness, witness)].any():
        raise AssertionError("witness is not independent")


def _vertex_transitive(g: ConfusabilityGraph) -> bool:
    """True when automorphisms map vertex 0 to every vertex, found by backtracking."""
    rows = g.adjacency.tolist()
    deg = [sum(r) for r in rows]

    def extend(images) -> bool:
        # images[u] is the image of vertex u; vertex k's image keeps its
        # degree and its adjacency to every vertex already placed
        k = len(images)
        return k == len(rows) or any(
            w not in images
            and deg[w] == deg[k]
            and all(rows[k][u] == rows[w][x] for u, x in enumerate(images))
            and extend(images + [w])
            for w in range(len(rows))
        )

    return bool(rows) and all(extend([v]) for v in range(1, len(rows)))


def zero_error_lower_bound(
    g: ConfusabilityGraph, n: int, hsw_upper: Optional[float] = None
) -> ZeroErrorReport:
    """Zero-error rate achievable with n uses: log2 alpha(G^n) / n.

    Always a lower bound on the zero-error capacity, which is itself at
    most the classical capacity; pass hsw_upper to have that ordering
    recorded against a concrete capacity value.
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    if g.vertex_count == 0:
        raise InvalidParameter("the graph has no vertices, so no codeword exists")
    # refuse before strong_product builds the dense power
    _require_size(g.vertex_count, n, _EXACT_MIS_LIMIT, "the exact-search limit")
    g_n = strong_product(g, n) if n > 1 else g
    notes = ["lower bound from finite block length; rate <= zero-error capacity"]
    if n > 1 and _vertex_transitive(g):
        # Aut(G)^n is transitive on G^n, so vertex 0 is in some maximum independent set
        rest = np.flatnonzero(~g_n.adjacency[0])[1:]
        sub = ConfusabilityGraph(rest, g_n.adjacency[np.ix_(rest, rest)])
        alpha, sub_witness, nodes = _search(sub)
        alpha, witness = alpha + 1, (0, *(int(rest[v]) for v in sub_witness))
        _check_independent(g_n, witness)
        notes.append(f"vertex-transitive base: {g_n.labels[0]} fixed")
    else:
        alpha, witness, nodes = _search(g_n)
    rate = math.log2(alpha) / n
    if hsw_upper is not None:
        if rate <= hsw_upper + 1e-3:
            notes.append(f"ordering holds: rate <= classical capacity {hsw_upper:.6f}")
        else:
            notes.append(
                f"ordering violated: rate {rate:.6f} exceeds classical capacity {hsw_upper:.6f}"
            )
    return ZeroErrorReport(
        n=n,
        K=alpha,
        rate=rate,
        witness=tuple(g_n.labels[v] for v in witness),
        notes=tuple(notes),
        nodes=nodes,
    )


def pentagon_graph() -> ConfusabilityGraph:
    """The 5-cycle: each vertex confusable with its two cyclic neighbors."""
    adj = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = True
    return ConfusabilityGraph([f"v{i}" for i in range(5)], adj)


def graph_to_json(g: ConfusabilityGraph) -> dict:
    return {"labels": list(g.labels), "edges": [[i, j] for i, j in g.edges()]}


def graph_from_json(data: dict) -> ConfusabilityGraph:
    data = data if isinstance(data, dict) else {}
    labels, edges = data.get("labels"), data.get("edges", [])
    if not (isinstance(labels, list) and labels and isinstance(edges, list)):
        raise InvalidParameter('graph JSON must be {"labels": [...], "edges": [[i, j], ...]}')
    n = len(labels)
    adj = np.zeros((n, n), dtype=bool)
    for pair in edges:
        # exact ints only: JSON true/false are bools and 1.7 a float, neither an index
        ok = isinstance(pair, list) and len(pair) == 2
        if not (ok and all(type(k) is int and 0 <= k < n for k in pair)) or pair[0] == pair[1]:
            raise InvalidParameter(f"bad edge {pair!r}: need two distinct indices below {n}")
        adj[pair[0], pair[1]] = adj[pair[1], pair[0]] = True
    return ConfusabilityGraph(labels, adj)
