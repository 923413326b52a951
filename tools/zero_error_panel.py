"""Time the exact zero-error search on a fixed graph panel and check alpha.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/zero_error_panel.py [--passes 5] [--graphs C5^3,C9^2]
        [--full-search]

Panel: C5^2, C5^3, C9^2, Petersen^2 and C11^2, each with its known
independence number (Shannon 1956 for C5^2; Baumert et al. for C5^3;
floor(k(2k+1)/2) for C_{2k+1}^2; alpha(P)^2 = theta(P)^2 = 16 for the
Petersen graph).

By default each pass calls zero_error_lower_bound, the route users get.
--full-search instead runs the exact search on the whole strong power, the
route taken before the vertex-transitive symmetry was used.

Prints one JSON object: per graph, the median over passes of the wall
time, the nodes the search expanded (null when the qchan under test does
not count them), alpha and whether it equals the known value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import qchan
from qchan import zero_error


def graph_of_edges(m, edges):
    adj = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return qchan.ConfusabilityGraph([f"v{k}" for k in range(m)], adj)


def cycle(m):
    return graph_of_edges(m, [(i, (i + 1) % m) for i in range(m)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_of_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


# name: (base graph, uses, known alpha of the strong power)
PANEL = {
    "C5^2": (cycle(5), 2, 5),
    "C5^3": (cycle(5), 3, 10),
    "C9^2": (cycle(9), 2, 18),
    "Petersen^2": (petersen(), 2, 16),
    "C11^2": (cycle(11), 2, 27),
}


def run_once(g, n, full_search: bool):
    """(alpha, nodes or None) of one search."""
    if not full_search:
        report = qchan.zero_error_lower_bound(g, n)
        return report.K, getattr(report, "nodes", None)
    g_n = qchan.strong_product(g, n)
    if hasattr(zero_error, "_search"):
        alpha, _, nodes = zero_error._search(g_n)
        return alpha, nodes
    return qchan.max_independent_set(g_n)[0], None


def measure(name: str, passes: int, full_search: bool):
    g, n, known = PANEL[name]
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        alpha, nodes = run_once(g, n, full_search)
        times.append(time.perf_counter() - start)
    return {
        "wall_s_median": round(statistics.median(times), 4),
        "wall_s_passes": [round(t, 4) for t in times],
        "nodes": nodes,
        "alpha": alpha,
        "known_alpha": known,
        "alpha_ok": alpha == known,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--graphs", default=",".join(PANEL), help="comma-separated panel names")
    parser.add_argument("--full-search", action="store_true")
    args = parser.parse_args()
    out = {name: measure(name, args.passes, args.full_search) for name in args.graphs.split(",")}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
