"""Zero-error analysis.

Builds confusability graphs from pairwise output-overlap tests, takes
strong graph powers for block codes, computes exact maximum independent
sets by branch and bound, and turns independence numbers into zero-error
rate lower bounds, on a vertex-transitive base with vertex 0 fixed and one
root branch per orbit of its stabilizer. A graph is one int bitset per
vertex, so numpy is loaded only to build one from a channel or to read
its `adjacency`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .errors import InvalidParameter, InvalidState, TooLarge

if TYPE_CHECKING:
    from .channels import QuantumChannel
    from .qmath import DensityMatrix

OVERLAP_TOL = 1e-10
_PRODUCT_VERTEX_LIMIT = 20000  # 20000 rows of 20000 bits take 50 MB
_EXACT_MIS_LIMIT = 130


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _distinct(labels: Tuple[str, ...]) -> Tuple[str, ...]:
    """labels, or InvalidParameter naming one repeated: a witness must tell its codewords apart."""
    if len(set(labels)) < len(labels):
        repeated = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise InvalidParameter(f"label {repeated!r} is repeated")
    return labels


class ConfusabilityGraph:
    """Undirected graph joining inputs the channel can confuse; masks[v] is v's neighbour bitset."""

    __slots__ = ("labels", "masks")

    def __init__(self, labels: Sequence[str], adjacency):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        rows = adjacency.tolist() if hasattr(adjacency, "tolist") else adjacency
        try:  # len raises TypeError on a scalar, or on a row that is one
            square = len(rows) == n and all(len(r) == n for r in rows)
            square = square and not any(hasattr(x, "__len__") for r in rows for x in r)
        except TypeError:
            square = False
        if not square:
            raise InvalidParameter(f"adjacency is not a {n} x {n} matrix for {n} labels")
        masks = [sum(1 << k for k, x in enumerate(r) if x) for r in rows]
        if any(masks[u] >> v & 1 == 0 for v, m in enumerate(masks) for u in _bits(m)):
            raise InvalidParameter("adjacency must be symmetric")
        if any(m >> v & 1 for v, m in enumerate(masks)):
            raise InvalidParameter("adjacency must have an empty diagonal")
        self.labels, self.masks = _distinct(labels), tuple(masks)

    @classmethod
    def _of(cls, labels, masks) -> ConfusabilityGraph:
        """The graph of masks already symmetric and loop-free, one per label."""
        g = cls.__new__(cls)
        g.labels, g.masks = tuple(labels), tuple(masks)
        return g

    @property
    def adjacency(self):
        """The adjacency matrix as a read-only numpy bool array, built on each access."""
        import numpy as np

        n, width = len(self.masks), (len(self.masks) + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in self.masks), np.uint8)
        adj = np.unpackbits(packed, bitorder="little").reshape(n, 8 * width)[:, :n].astype(bool)
        adj.setflags(write=False)
        return adj

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def is_edge(self, i: int, j: int) -> bool:
        return bool(self.masks[i] >> j & 1)

    def edges(self):
        return [(i, j) for i, m in enumerate(self.masks) for j in _bits(m) if j > i]

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
    from .qmath import from_bloch

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
    from .channels import apply

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
    adj = [[False] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        adj[i][j] = adj[j][i] = float((outs[i] @ outs[j]).trace().real) > OVERLAP_TOL
    return ConfusabilityGraph(labels, adj)


def strong_product(g: ConfusabilityGraph, n: int) -> ConfusabilityGraph:
    """n-fold strong power: codewords are n-tuples of single-use inputs.

    Two distinct tuples are adjacent exactly when every coordinate pair
    is adjacent or equal, i.e. no coordinate distinguishes them.
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    _require_size(g.vertex_count, n, _PRODUCT_VERTEX_LIMIT, "the strong-product limit")
    # closed neighbourhoods; tuple (b, a) of G x G^k is vertex b * |G^k| + a, as in np.kron
    acc = loop = [m | 1 << v for v, m in enumerate(g.masks)]
    for _ in range(n - 1):
        shifts = [[u * len(acc) for u in _bits(m)] for m in loop]
        acc = [sum(x << s for s in row) for row in shifts for x in acc]  # disjoint shifts: sum is OR
    labels = ["(" + ",".join(combo) + ")" for combo in itertools.product(g.labels, repeat=n)]
    return ConfusabilityGraph._of(labels, (m ^ 1 << v for v, m in enumerate(acc)))


def _greedy_independent_set(full: int, masks) -> int:
    """Min-degree greedy independent set, used to seed the exact search."""
    chosen, cand = 0, full
    while cand:
        v = min(_bits(cand), key=lambda v: (masks[v] & cand).bit_count())
        chosen |= 1 << v
        cand &= ~masks[v] & ~(1 << v)
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
    edge-free before returning. Nothing is pruned by symmetry here.
    """
    return _search(g)[:2]


def _search(g: ConfusabilityGraph, within: int = -1, orbits=()) -> Tuple[int, Tuple[int, ...], int]:
    """max_independent_set on the vertex bitset within (all by default), plus the nodes expanded.

    orbits[v] is v's orbit (v alone by default) under automorphisms that keep within. Once
    every set through v is searched, the root drops v's orbit, not v alone: an automorphism
    keeping the orbits dropped so far maps each set through an orbit-mate onto one through v.
    """
    within &= (1 << g.vertex_count) - 1
    nv = within.bit_count()
    _require_size(nv, 1, _EXACT_MIS_LIMIT, "the exact-search limit")
    order = sorted(_bits(within), key=lambda v: (-(g.masks[v] & within).bit_count(), v))
    orbits = orbits or [1 << v for v in range(g.vertex_count)]
    masks = [sum(1 << k for k, u in enumerate(order) if g.masks[v] >> u & 1) for v in order]
    orbit = [sum(1 << k for k, u in enumerate(order) if orbits[v] >> u & 1) for v in order]
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
        root = cur_size == 0
        vs, colors = color_sort(cand)
        for i in range(len(vs) - 1, -1, -1):
            if cur_size + colors[i] <= best_size:
                return
            v = vs[i]
            bit = 1 << v
            if root and not cand & bit:
                continue  # dropped with an earlier vertex's orbit
            new_cand = cand & comp[v]
            if new_cand:
                expand(cur_mask | bit, cur_size + 1, new_cand)
            elif cur_size + 1 > best_size:
                best_size = cur_size + 1
                best_mask = cur_mask | bit
            cand &= ~(orbit[v] if root else bit)

    expand(0, 0, full)

    witness = tuple(sorted(order[k] for k in _bits(best_mask)))
    _check_independent(g, witness)
    return best_size, witness, nodes


def _check_independent(g: ConfusabilityGraph, witness: Sequence[int]) -> None:
    if any(g.is_edge(u, v) for u in witness for v in witness):
        raise AssertionError("witness is not independent")


def _automorphism(masks, pins: dict) -> Optional[dict]:
    """An automorphism (vertex -> image) extending pins, or None, found by backtracking.

    Pins go first, then always the vertex with the most neighbours placed;
    each image keeps the degree and the adjacency to every vertex placed.
    """
    nv, deg, full = len(masks), [m.bit_count() for m in masks], (1 << len(masks)) - 1
    order, rest = [*pins], full - sum(1 << v for v in pins)
    while rest:
        order.append(max(_bits(rest), key=lambda v: (masks[v] & ~rest).bit_count()))
        rest ^= 1 << order[-1]

    def extend(images, taken: int):
        if len(images) == nv:
            yield dict(zip(order, images))
            return
        v = order[len(images)]
        # the images of v's placed neighbours, which w's placed neighbours must be
        want = sum(1 << x for u, x in zip(order, images) if masks[v] >> u & 1)
        for w in _bits(~taken & (1 << pins[v] if v in pins else full)):
            if deg[w] == deg[v] and masks[w] & taken == want:
                yield from extend(images + [w], taken | 1 << w)

    return next(extend([], 0), None)


def _vertex_transitive(g: ConfusabilityGraph) -> bool:
    """True when automorphisms map vertex 0 to every vertex."""
    nv = g.vertex_count
    return nv > 0 and all(_automorphism(g.masks, {0: v}) for v in range(1, nv))


def _stabilizer_orbits(g: ConfusabilityGraph, n: int) -> list:
    """Per vertex of G^n, its orbit's bitset under Stab_G(0)^n and coordinate permutations."""
    nv, base = g.vertex_count, list(range(g.vertex_count))
    for u, w in itertools.combinations(range(1, nv), 2):
        if base[u] == u and base[w] == w and _automorphism(g.masks, {0: 0, u: w}):
            base[w] = u
    # a tuple's orbit: the tuples whose coordinates' orbits under Stab_G(0) form the same multiset
    keys = [sorted(base[c] for c in coords) for coords in itertools.product(range(nv), repeat=n)]
    return [sum(1 << v for v, other in enumerate(keys) if other == key) for key in keys]


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
    if hsw_upper is not None and not math.isfinite(hsw_upper):
        raise InvalidParameter(f"hsw_upper must be finite, got {hsw_upper}")
    if g.vertex_count == 0:
        raise InvalidParameter("the graph has no vertices, so no codeword exists")
    # refuse before strong_product builds the power
    _require_size(g.vertex_count, n, _EXACT_MIS_LIMIT, "the exact-search limit")
    g_n = strong_product(g, n) if n > 1 else g
    notes = ["lower bound from finite block length; rate <= zero-error capacity"]
    if n > 1 and _vertex_transitive(g):
        # Aut(G)^n is transitive on G^n, so a maximum independent set is 0 and non-neighbours of 0
        alpha, witness, nodes = _search(g_n, ~g_n.masks[0] & ~1, _stabilizer_orbits(g, n))
        alpha, witness = alpha + 1, (0, *witness)
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
    adj = [[(i - j) % 5 in (1, 4) for j in range(5)] for i in range(5)]
    return ConfusabilityGraph([f"v{i}" for i in range(5)], adj)


def graph_to_json(g: ConfusabilityGraph) -> dict:
    return {"labels": list(g.labels), "edges": [[i, j] for i, j in g.edges()]}


def graph_from_json(data: dict) -> ConfusabilityGraph:
    data = data if isinstance(data, dict) else {}
    labels, edges = data.get("labels"), data.get("edges", [])
    if not (isinstance(labels, list) and labels and isinstance(edges, list)):
        raise InvalidParameter('graph JSON must be {"labels": [...], "edges": [[i, j], ...]}')
    n = len(labels)
    masks = [0] * n
    for pair in edges:
        # exact ints only: JSON true/false are bools and 1.7 a float, neither an index
        ok = isinstance(pair, list) and len(pair) == 2
        if not (ok and all(type(k) is int and 0 <= k < n for k in pair)) or pair[0] == pair[1]:
            raise InvalidParameter(f"bad edge {pair!r}: need two distinct indices below {n}")
        masks[pair[0]] |= 1 << pair[1]
        masks[pair[1]] |= 1 << pair[0]
    return ConfusabilityGraph._of(_distinct(tuple(str(x) for x in labels)), masks)
