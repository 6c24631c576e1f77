"""Regenerate the frozen reference outputs in refs/frozen.json.

Usage, from the repository root:

    python3 perfbench/freeze.py

Computes every analytic value the asymptotic-sweep and window-search
workloads check against: the fixed, shared-budget (FBL) and dynamic-sharing
(VBL) diversities at each rate point, and the winning windows and total
error of each window-search budget.  Rerun it only when a change is meant to
move these numbers, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    from facts import git_sha, pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import mharq
    from mharq.asymptotic import fbl_dmdt_3node, fixed_optimal_windows, nnode_vbl_dmdt, vbl_dmdt_3node
    from mharq.finite_snr import optimize_windows
    from mharq.tradeoff import Topology

    import workloads as w

    asym: dict = {}
    for key, antennas, budget, channel in w.ASYMPTOTIC_GRIDS:
        topo = Topology(list(antennas))
        rates = w.rate_points(antennas)
        asym[key] = {
            "rates": rates,
            "fixed": [fixed_optimal_windows(topo, budget, r).value for r in rates],
            "fbl": [fbl_dmdt_3node(topo, budget, r, channel, allow_zero_rounds=True) for r in rates],
            "vbl": [vbl_dmdt_3node(topo, budget, r, channel) for r in rates],
        }
    key, antennas, budget, channel = w.NNODE_GRID
    topo = Topology(list(antennas))
    rates = w.rate_points(antennas)
    asym[key] = {"rates": rates, "vbl": [nnode_vbl_dmdt(topo, budget, r, channel) for r in rates]}

    scenario = w._scenario(w.WINDOW_POINT)
    windows: dict = {}
    for key, antennas, lo, hi in w.WINDOW_CHAINS:
        topo = Topology(list(antennas))
        budgets = set(range(lo, hi + 1))
        if key == w.CLI_CHAIN:
            budgets |= {w.CLI_BUDGET, w.CLI_BUDGET_TINY}
        windows[key] = {}
        for b in sorted(budgets):
            opt = optimize_windows(topo, scenario, budget=b)
            windows[key][str(b)] = {
                "windows": list(opt.allocation.windows),
                "p_total": opt.breakdown.p_total,
            }

    frozen = {
        "source": {"mharq_version": mharq.__version__, "git_sha": git_sha(ROOT)},
        "asymptotic": asym,
        "windows": windows,
    }
    w.FROZEN.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {w.FROZEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
