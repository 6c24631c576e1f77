"""The four benchmark workloads: ops built from a seed, and their checks.

An op is one call into a public entry point of mharq, or one in-process
``mharq.cli.main`` invocation.  Ops look functions up on their module at
call time, so a traced pass sees the wrapped functions and an untraced pass
the originals.  Every op carries a check; checks run outside the timed
region and use references fixed before the first op runs.

The seed sets the op order of the two analytic workloads (their inputs are
otherwise pinned, because their references are frozen) and every simulator
seed of the two simulation workloads.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import mharq.asymptotic as asymptotic
import mharq.cli as cli
import mharq.finite_snr as finite_snr
import mharq.netsim as netsim
from mharq.finite_snr import FiniteSnrScenario
from mharq.netsim import SimConfig
from mharq.tradeoff import ChannelAssumption, FixedArq, Topology

LT = ChannelAssumption.LONG_TERM_STATIC
ST = ChannelAssumption.SHORT_TERM_STATIC

FROZEN = Path(__file__).resolve().parent / "refs" / "frozen.json"

# asymptotic-sweep: (key, antennas, round budget, channel); every rate point
# of each grid runs the best fixed split, the shared-budget (FBL) and the
# dynamic-sharing (VBL) curve
ASYMPTOTIC_GRIDS = (
    ("444-st", (4, 4, 4), 10, ST),
    ("413-st", (4, 1, 3), 4, ST),
    ("222-lt", (2, 2, 2), 10, LT),
)
NNODE_GRID = ("23241-st", (2, 3, 2, 4, 1), 8, ST)
CLOSED_FORM_GRIDS = ("222-lt",)  # grids whose antennas have a closed form
RATE_STEP = 0.05

# window-search: the `dmdt-finite` total_window sweep pattern
WINDOW_CHAINS = (
    ("413", (4, 1, 3), 2, 60),
    ("4132", (4, 1, 3, 2), 3, 30),
    ("23241", (2, 3, 2, 4, 1), 4, 22),
    ("2x6", (2,) * 6, 5, 16),
    ("2x7", (2,) * 7, 6, 13),
)
CLI_CHAIN, CLI_BUDGET, CLI_BUDGET_TINY = "2x6", 18, 10
WINDOW_POINT = dict(snr=100.0, multiplexing_gain=1.0, arrival_mean_blocks=10.0, deadline_blocks=25.0)

# sim-physical and sim-queue operating points
SIM_POINT = dict(snr=10.0, multiplexing_gain=1.0, arrival_mean_blocks=10.0, deadline_blocks=25.0)
PHYSICAL_SIMS = (
    # class, antennas, windows, channel, code model, messages
    ("logdet-lt", (4, 1, 3), (2, 3), LT, "logdet", 200_000),
    ("logdet-st", (4, 4, 4), (3, 3), ST, "logdet", 50_000),
    ("ostbc-st", (4, 4, 4), (3, 3), ST, "ostbc", 200_000),
    ("ostbc-lt", (4, 1, 3), (2, 3), LT, "ostbc", 1_000_000),
)
VALIDATE_RUNS = (
    # antennas, known defect (ROADMAP item 3) or None
    ((4, 1, 3), None),
    ((2, 2, 2), "min-2 log-det outage reference is only a lower bound: mismatch"),
    ((4, 3, 4), "min>=3 log-det outage reference crashes on roundoff: exit 2"),
)
VALIDATE_MESSAGES = 200_000
QUEUE_RUNS = (
    # key, antennas, hop service means, acceptance-7 deadline grid, band
    ("413", (4, 1, 3), (2.5, 2.5), tuple(range(10, 61, 5)), (0.1, 0.015)),
    ("2222", (2, 2, 2, 2), (2.5, 2.5, 5.5), tuple(range(60, 241, 20)), (0.025, 0.00625)),
)
QUEUE_SEEDS, QUEUE_MESSAGES, QUEUE_WARMUP = 10, 1_000_000, 10_000
TINY_SCALE = 20  # --tiny divides message counts by this
Z_LIMIT = 4.0


@dataclass
class Op:
    """One timed call.  check(result, ctx) returns a failure reason or None."""

    key: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]
    keep: Callable[[Any], Any] = lambda result: result
    known_defect: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # failures that need several ops' results: [(op key, reason)]
    cross_check: Callable[[dict], list[tuple[str, str]]] = lambda ctx: []
    # per-pass statistics read off the kept results
    stats: Callable[[dict], dict[str, float]] = lambda ctx: {}
    # ROADMAP baseline rows: (row, ROADMAP figure, unit, op-key selector);
    # the selector "prefix" takes the median time of the ops whose key starts
    # with it, "sum:part" the median per-pass sum of the ops containing part
    baseline: list[tuple[str, str, str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# independent references


def poisson_tail(lam: float, k: int) -> float:
    """P{Poisson(lam) >= k}, summed from whichever side has positive terms."""
    if k <= 0:
        return 1.0
    if lam < k:
        term = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) if lam > 0 else 0.0
        total, j = term, k
        while term > total * 1e-17 and term > 0.0:
            j += 1
            term *= lam / j
            total += term
        return min(total, 1.0)
    term = math.exp(-lam)
    total = term
    for j in range(1, k):
        term *= lam / j
        total += term
    return max(1.0 - total, 0.0)


def gamma_cdf(shape: int, x: float) -> float:
    """P{Gamma(shape, 1) <= x} for integer shape: a Poisson tail."""
    return poisson_tail(x, shape) if x > 0.0 else 0.0


def exact_outage(m_tx: int, m_rx: int, window: int, point: dict, r_s: float = 1.0) -> float:
    """Outage of one long-term static hop whose capacity is r_s*log2(1 + snr*G/m_tx).

    G ~ Gamma(m_tx*m_rx, 1) is the squared Frobenius norm (space-time code)
    or, for a rank-1 hop, the only channel eigenvalue (log-det), so both
    cases share this law.  The target rate is r*log2(1 + m_rx*snr), as in
    the simulator; a window of one block is also the first-round failure
    probability of a short-term static hop.
    """
    snr = point["snr"]
    target = point["multiplexing_gain"] * math.log2(1.0 + m_rx * snr)
    g = m_tx / snr * (2.0 ** (target / (window * r_s)) - 1.0)
    return gamma_cdf(m_tx * m_rx, g)


def z_score(hits: int, n: int, p: float) -> float:
    """Deviation of hits/n from rate p in standard errors.

    Below 50 expected hits the normal approximation inflates the tails, so
    the exact Poisson tail probability is mapped to its normal quantile.
    """
    if n == 0:
        return math.inf
    lam = n * p
    if lam >= 50.0:
        return (hits - lam) / math.sqrt(lam * (1.0 - p))
    upper = poisson_tail(lam, hits)
    lower = 1.0 - poisson_tail(lam, hits + 1)
    tail = min(upper, lower, 0.5)
    if tail <= 0.0:
        return math.inf
    z = -statistics.NormalDist().inv_cdf(tail)
    return z if upper < lower else -z


def load_frozen() -> dict:
    with open(FROZEN, encoding="utf-8") as fh:
        return json.load(fh)


def rate_points(antennas: tuple[int, ...]) -> list[float]:
    """0.05-step grid from zero to the chain's largest multiplexing gain."""
    top = min(min(a, b) for a, b in zip(antennas, antennas[1:]))
    return [round(RATE_STEP * i, 10) for i in range(int(round(top / RATE_STEP)) + 1)]


def _scenario(point: dict) -> FiniteSnrScenario:
    return FiniteSnrScenario(
        point["snr"],
        point["multiplexing_gain"],
        arrival_mean_blocks=point["arrival_mean_blocks"],
        deadline_blocks=point["deadline_blocks"],
    )


def _close(value: float, ref: float, tol: float, what: str) -> str | None:
    if not abs(value - ref) <= tol:
        return f"{what} {value!r} differs from {ref!r} by more than {tol:g}"
    return None


# ---------------------------------------------------------------------------
# asymptotic-sweep


def asymptotic_sweep(seed: int, tiny: bool, out_dir: Path) -> Workload:
    frozen = load_frozen()["asymptotic"]
    ops: list[Op] = []
    points: list[tuple[str, int]] = []
    for key, antennas, budget, channel in ASYMPTOTIC_GRIDS:
        topo = Topology(list(antennas))
        for i, r in enumerate(rate_points(antennas)):
            if tiny and i % 10:
                continue
            points.append((key, i))
            ref = {p: frozen[key][p][i] for p in ("fixed", "fbl", "vbl")}
            closed = None
            if key in CLOSED_FORM_GRIDS:
                closed = asymptotic.vbl_closed_form(topo, budget, r)

            def check_fixed(res, ctx, ref=ref["fixed"]):
                return _close(res.value, ref, 1e-3, "fixed optimum")

            def check_fbl(res, ctx, ref=ref["fbl"]):
                return _close(res, ref, 1e-3, "FBL diversity")

            def check_vbl(res, ctx, ref=ref["vbl"], closed=closed):
                if closed is not None:
                    bad = _close(res, closed, 1e-6, "VBL diversity vs closed form")
                    if bad:
                        return bad
                return _close(res, ref, 1e-3, "VBL diversity")

            ops += [
                Op(
                    f"fixed/{key}/{i}",
                    lambda ctx, t=topo, b=budget, r=r: asymptotic.fixed_optimal_windows(t, b, r),
                    check_fixed,
                    keep=lambda res: res.value,
                ),
                Op(
                    f"fbl/{key}/{i}",
                    lambda ctx, t=topo, b=budget, r=r, c=channel: asymptotic.fbl_dmdt_3node(
                        t, b, r, c, allow_zero_rounds=True
                    ),
                    check_fbl,
                ),
                Op(
                    f"vbl/{key}/{i}",
                    lambda ctx, t=topo, b=budget, r=r, c=channel: asymptotic.vbl_dmdt_3node(
                        t, b, r, c
                    ),
                    check_vbl,
                ),
            ]
    key, antennas, budget, channel = NNODE_GRID
    topo = Topology(list(antennas))
    for i, r in enumerate(rate_points(antennas)):
        if tiny and i % 10:
            continue
        ops.append(
            Op(
                f"nnode/{key}/{i}",
                lambda ctx, t=topo, b=budget, r=r, c=channel: asymptotic.nnode_vbl_dmdt(t, b, r, c),
                lambda res, ctx, ref=frozen[key]["vbl"][i]: _close(res, ref, 1e-3, "chain VBL"),
            )
        )
    random.Random(seed).shuffle(ops)

    def cross_check(ctx: dict) -> list[tuple[str, str]]:
        bad = []
        for key, i in points:
            v = ctx.get(f"vbl/{key}/{i}")
            for other in ("fbl", "fixed"):
                o = ctx.get(f"{other}/{key}/{i}")
                if v is not None and o is not None and v < o - 1e-9:
                    bad.append((f"vbl/{key}/{i}", f"VBL {v!r} below {other} {o!r}"))
        return bad

    return Workload(
        ops,
        cross_check=cross_check,
        baseline=[
            ("vbl_dmdt_3node short-term (4,1,3) L=4", "9.8 ms", "ms", "vbl/413-st/"),
            ("vbl_dmdt_3node short-term (4,4,4) L=10", "57 ms", "ms", "vbl/444-st/"),
            ("dmdt-asymptotic all, short-term (4,4,4) L=10, 81 rates", "3.44 s", "s", "sum:/444-st/"),
        ],
    )


# ---------------------------------------------------------------------------
# window-search


def window_search(seed: int, tiny: bool, out_dir: Path) -> Workload:
    frozen = load_frozen()["windows"]
    scenario = _scenario(WINDOW_POINT)
    ops: list[Op] = []
    for key, antennas, lo, hi in WINDOW_CHAINS:
        topo = Topology(list(antennas))
        n_hops = len(antennas) - 1
        # --tiny keeps one budget per chain: the smallest whose total error
        # is below one, so the check still tells a right winner from a wrong one
        for budget in [2 * n_hops] if tiny else range(lo, hi + 1):
            ref = frozen[key][str(budget)]

            def check(res, ctx, ref=ref):
                got = (list(res.allocation.windows), res.breakdown.p_total)
                if got != (ref["windows"], ref["p_total"]):
                    return f"winner {got} differs from frozen {ref}"
                return None

            ops.append(
                Op(
                    f"ows/{key}/{budget}",
                    lambda ctx, t=topo, b=budget: finite_snr.optimize_windows(t, scenario, budget=b),
                    check,
                    keep=lambda res: None,
                )
            )

    budget = CLI_BUDGET_TINY if tiny else CLI_BUDGET
    antennas = dict((k, a) for k, a, *_ in WINDOW_CHAINS)[CLI_CHAIN]
    config_path = out_dir / f"optimize-arq-{CLI_CHAIN}-b{budget}-config.json"
    config = dict(
        topology=list(antennas),
        budget=budget,
        snr_linear=WINDOW_POINT["snr"],
        multiplexing_gain=WINDOW_POINT["multiplexing_gain"],
        arrival_mean_blocks=WINDOW_POINT["arrival_mean_blocks"],
        deadline_blocks=WINDOW_POINT["deadline_blocks"],
    )
    config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    ref = frozen[CLI_CHAIN][str(budget)]
    n_hops = len(antennas) - 1
    for fmt in ("csv", "json"):
        out_path = out_dir / f"optimize-arq-{CLI_CHAIN}-b{budget}.{fmt}"
        argv = ["optimize-arq", "--config", str(config_path), "--format", fmt, "--out", str(out_path)]

        def check(code, ctx, fmt=fmt, out_path=out_path):
            if code != 0:
                return f"exit code {code}"
            if fmt == "json":
                best = json.loads(out_path.read_text(encoding="utf-8"))["meta"]["best"]
                got = (best["windows"], best["p_total"])
                want = (ref["windows"], ref["p_total"])
            else:
                with open(out_path, encoding="utf-8", newline="") as fh:
                    fh.readline()  # provenance comment
                    reader = csv.DictReader(fh)
                    top = next(reader)
                got = ([int(top[f"window_{i + 1}"]) for i in range(n_hops)], top["p_total"])
                want = (ref["windows"], f"{ref['p_total']:.9g}")
            if got != want:
                return f"{fmt} winner {got} differs from frozen {want}"
            return None

        ops.append(
            Op(f"cli/optimize-arq/{fmt}", lambda ctx, argv=argv: cli.main(argv), check)
        )
    random.Random(seed).shuffle(ops)
    return Workload(
        ops,
        baseline=[
            ("optimize_windows (4,1,3) budget 10", "1.0 ms", "ms", "ows/413/10"),
            ("optimize_windows (4,1,3) budget 40", "14.3 ms", "ms", "ows/413/40"),
        ],
    )


# ---------------------------------------------------------------------------
# sim-physical


def _sim_invariants(res) -> str | None:
    if res.delivered + res.outage_drops + res.deadline_drops != res.analyzed:
        return "delivered + drops != analyzed"
    if res.config.service_mode == "markovian":
        return "markovian service produced outage drops" if res.outage_drops else None
    windows = res.config.protocol.windows
    for h, hist in enumerate(res.round_histograms):
        if int(hist.sum()) != res.per_hop_attempts[h]:
            return f"hop {h + 1} round histogram does not sum to its attempts"
        if int(hist[windows[h] + 1]) != res.per_hop_outage_drops[h]:
            return f"hop {h + 1} overrun bin differs from its outage drops"
    return None


def _sim_summary(res) -> dict:
    return {
        "drops": res.per_hop_outage_drops,
        "attempts": res.per_hop_attempts,
        "first_round_fail": tuple(
            int(a - hist[1]) for a, hist in zip(res.per_hop_attempts, res.round_histograms)
        ),
    }


def sim_physical(seed: int, tiny: bool, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    scenario = _scenario(SIM_POINT)
    scale = TINY_SCALE if tiny else 1
    ops: list[Op] = []
    for cls, antennas, windows, channel, code_model, messages in PHYSICAL_SIMS:
        cfg = SimConfig(
            topology=Topology(list(antennas)),
            protocol=FixedArq(windows),
            channel=channel,
            scenario=scenario,
            message_count=messages // scale,
            seed=rng.getrandbits(63),
            code_model=code_model,
        )
        hops = list(zip(antennas, antennas[1:]))
        if channel is LT:
            # every hop here is rank-1 or space-time coded: exact gamma law
            refs = [exact_outage(t, r, w, SIM_POINT) for (t, r), w in zip(hops, windows)]

            def check(res, ctx, refs=refs):
                bad = _sim_invariants(res)
                for h, p in enumerate(refs):
                    z = z_score(res.per_hop_outage_drops[h], res.per_hop_attempts[h], p)
                    if bad is None and abs(z) > Z_LIMIT:
                        bad = f"hop {h + 1} outage z={z:+.2f} against exact {p:.6g}"
                return bad

        else:
            # first-round failure of a fresh-fade hop: exact for the
            # space-time code, and an upper bound for log-det, whose
            # capacity is never below the code's on the same channel
            refs = [exact_outage(t, r, 1, SIM_POINT) for t, r in hops]

            def check(res, ctx, refs=refs, bound=code_model == "logdet"):
                bad = _sim_invariants(res)
                s = _sim_summary(res)
                for h, p in enumerate(refs):
                    z = z_score(s["first_round_fail"][h], s["attempts"][h], p)
                    if bad is None and (z > Z_LIMIT if bound else abs(z) > Z_LIMIT):
                        bad = f"hop {h + 1} first-round failure z={z:+.2f} against {p:.6g}"
                return bad

        ops.append(
            Op(f"sim/{cls}", lambda ctx, cfg=cfg: netsim.run_network_sim(cfg), check, keep=_sim_summary)
        )

    for antennas, defect in VALIDATE_RUNS:
        tag = "".join(map(str, antennas))
        config_path = out_dir / f"validate-{tag}.json"
        out_path = out_dir / f"validate-{tag}.csv"
        config = dict(
            topology=list(antennas),
            windows=[2, 2],
            snr_linear=SIM_POINT["snr"],
            multiplexing_gain=SIM_POINT["multiplexing_gain"],
            arrival_mean_blocks=SIM_POINT["arrival_mean_blocks"],
            deadline_blocks=SIM_POINT["deadline_blocks"],
            message_count=VALIDATE_MESSAGES // scale,
            code_model="logdet",
            seed=rng.getrandbits(63),
        )
        config_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        argv = ["validate", "--config", str(config_path), "--out", str(out_path)]
        hops = list(zip(antennas, antennas[1:]))
        rank1 = [exact_outage(t, r, 2, SIM_POINT) if min(t, r) == 1 else None for t, r in hops]

        def check(code, ctx, out_path=out_path, rank1=rank1):
            if code != 0:
                return f"exit code {code}"
            with open(out_path, encoding="utf-8", newline="") as fh:
                fh.readline()
                rows = list(csv.DictReader(fh))
            for row in rows:
                if row["verdict"] != "ok":
                    return f"{row['check']}: verdict {row['verdict']} (z={row['z_score']})"
            for h, ref in enumerate(rank1):
                if ref is not None:
                    bad = _close(float(rows[h]["analytic"]), ref, 1e-8 * ref + 1e-15, "rank-1 reference")
                    if bad:
                        return f"hop {h + 1}: {bad}"
            return None

        ops.append(
            Op(f"validate/{tag}", lambda ctx, argv=argv: cli.main(argv), check, known_defect=defect)
        )
    return Workload(
        ops,
        baseline=[
            ("run_network_sim ostbc long-term (4,1,3) [2,3], 1e6 messages", "0.67 s", "s", "sim/ostbc-lt"),
            ("run_network_sim logdet long-term (4,1,3) [2,3], 2e5 messages", "2.54 s at 1e6", "s", "sim/logdet-lt"),
            ("run_network_sim logdet short-term (4,4,4) [3,3], 5e4 messages", "2.33 s at 1e5", "s", "sim/logdet-st"),
            ("run_network_sim ostbc short-term (4,4,4) [3,3], 2e5 messages", "0.49 s, 320 MB peak", "s", "sim/ostbc-st"),
        ],
    )


# ---------------------------------------------------------------------------
# sim-queue


def sim_queue(seed: int, tiny: bool, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    scenario = _scenario(SIM_POINT)
    scale = TINY_SCALE if tiny else 1
    n_seeds = 2 if tiny else QUEUE_SEEDS
    ops: list[Op] = []
    for s in range(n_seeds):
        for key, antennas, means, grid, (target, band) in QUEUE_RUNS:
            n_hops = len(antennas) - 1
            cfg = SimConfig(
                topology=Topology(list(antennas)),
                protocol=FixedArq((2,) * n_hops),
                channel=LT,
                scenario=scenario,
                message_count=QUEUE_MESSAGES // 5 if tiny else QUEUE_MESSAGES,
                warmup_count=QUEUE_WARMUP // scale,
                seed=rng.getrandbits(63),
                service_mode="markovian",
                service_means=means,
            )
            slot = f"delays/{key}/{s}"

            def run(ctx, cfg=cfg, slot=slot):
                res = netsim.run_network_sim(cfg)
                ctx[slot] = res.delays
                return res

            def fit(ctx, slot=slot, grid=grid):
                return netsim.estimate_delay_exponent(ctx.pop(slot), grid)

            def check_fit(res, ctx, target=target, band=band):
                return _close(res.exponent, target, band, "fitted delay exponent")

            ops.append(
                Op(f"queue/{key}/{s}", run, lambda res, ctx: _sim_invariants(res), keep=lambda res: None)
            )
            ops.append(
                Op(f"fit/{key}/{s}", fit, check_fit, keep=lambda res: (res.exponent, res.stderr))
            )

    def stats(ctx: dict) -> dict[str, float]:
        ratios = []
        for key, *_ in QUEUE_RUNS:
            fits = [ctx[k] for k in ctx if k.startswith(f"fit/{key}/") and ctx[k]]
            if len(fits) >= 2:
                spread = statistics.stdev(e for e, _ in fits)
                ratios.append(spread / statistics.median(se for _, se in fits))
        return {"stderr_ratio": statistics.median(ratios) if ratios else 0.0}

    return Workload(
        ops,
        stats=stats,
        baseline=[
            ("run_network_sim markovian (2,2,2,2), 1e6 messages", "0.085 s", "s", "queue/2222/"),
        ],
    )


WORKLOADS: dict[str, Callable[[int, bool, Path], Workload]] = {
    "asymptotic-sweep": asymptotic_sweep,
    "window-search": window_search,
    "sim-physical": sim_physical,
    "sim-queue": sim_queue,
}
