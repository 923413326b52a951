"""Time hsw_geometric and hsw_numeric on two fixed qubit panels and report their accuracy.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/hsw_geometric_panel.py [--passes 5]

Panels:
  qubit_capacity  the 12 channels of perfbench's qubit_capacity workload
                  (six unital families, amplitude damping at 0.2, 0.4, 0.7,
                  three random 2->2 draws from default_rng(1))
  criterion_02    the 66 channels of test_criterion_02 (six families on
                  p = 0, 0.1, ..., 1)

Prints one JSON object: per panel, the median over passes of the total
hsw_geometric wall time, its evaluations, the worst |r* - C_hsw| against
hsw_numeric, the worst certificate_residual with the notes raised, and, when
every report carries an ensemble, the worst r* - chi of that ensemble.
Under "hsw_numeric", the same panel's median total hsw_numeric wall time,
its evaluations, the worst C_hsw - chi of the returned ensemble and the
count of results not converged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import qchan


def qubit_capacity_panel(seed: int = 1):
    channels = [
        qchan.make_channel(kind, p=p)
        for kind, p in (
            ("depolarizing", 0.1),
            ("depolarizing", 0.4),
            ("bit_flip", 0.2),
            ("phase_flip", 0.3),
            ("bit_phase_flip", 0.15),
            ("dephasing", 0.4),
        )
    ]
    channels += [qchan.make_channel("amplitude_damping", gamma=g) for g in (0.2, 0.4, 0.7)]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        k = int(rng.integers(2, 5))
        channels.append(qchan.random_cptp_channel(2, 2, k, rng))
    return channels


def criterion_02_panel():
    kinds = ("depolarizing", "bit_flip", "phase_flip", "bit_phase_flip", "dephasing", "amplitude_damping")
    grid = [round(0.1 * k, 10) for k in range(11)]
    return [qchan.make_channel(kind, p=p) for kind in kinds for p in grid]


def ensemble_chi(channel, ensemble) -> float:
    outputs = [qchan.apply(channel, state) for state in ensemble.states]
    return float(qchan.holevo_quantity(qchan.Ensemble(ensemble.weights, outputs)))


def timed(solver, channels, passes: int, cfg):
    """(reports of the last pass, total wall time of each pass) of solver on the panel."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        reports = [solver(ch, cfg) for ch in channels]
        times.append(time.perf_counter() - start)
    return reports, times


def measure(channels, passes: int, cfg):
    reports, times = timed(qchan.hsw_geometric, channels, passes, cfg)
    numeric, numeric_times = timed(qchan.hsw_numeric, channels, passes, cfg)
    notes = sorted({n for rep in reports for n in rep.notes if "single-letter" not in n})
    # r* minus chi of the ensemble the report returns, recomputed through the public API
    gaps = [
        rep.r_star - ensemble_chi(ch, rep.optimal_ensemble)
        for ch, rep in zip(channels, reports)
        if rep.optimal_ensemble is not None
    ]
    return {
        "channels": len(channels),
        "wall_s_median": round(statistics.median(times), 4),
        "wall_s_passes": [round(t, 4) for t in times],
        "evaluations": sum(rep.optimizer.evaluations for rep in reports),
        "worst_abs_rstar_minus_C_hsw": max(abs(rep.r_star - num.C_hsw) for rep, num in zip(reports, numeric)),
        "worst_certificate_residual": max(rep.optimizer.certificate_residual for rep in reports),
        "worst_ensemble_gap": max(gaps) if len(gaps) == len(channels) else None,
        "all_converged": all(rep.optimizer.converged for rep in reports),
        "notes": notes,
        "hsw_numeric": {
            "wall_s_median": round(statistics.median(numeric_times), 4),
            "wall_s_passes": [round(t, 4) for t in numeric_times],
            "evaluations": sum(rep.optimizer.evaluations for rep in numeric),
            "worst_C_hsw_minus_ensemble_chi": max(
                rep.C_hsw - ensemble_chi(ch, rep.optimal_ensemble) for ch, rep in zip(channels, numeric)
            ),
            "unconverged": sum(not rep.optimizer.converged for rep in numeric),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    cfg = qchan.OptimizerConfig()
    out = {
        "qubit_capacity": measure(qubit_capacity_panel(), args.passes, cfg),
        "criterion_02": measure(criterion_02_panel(), args.passes, cfg),
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
