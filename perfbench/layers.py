"""Per-layer metrics of the traced run and the hooks that count work.

Each metric reads one of: a traced layer's calls, total or self time; a
counter a hook adds while the layer runs; a per-pass workload statistic; or
the tracing overhead.  Times and counts are per traced pass.  A metric whose
layer the program no longer defines, or whose hook no longer fits it, is
reported with value null and ``"absent": true``, never as zero.
"""

from __future__ import annotations

import os
from time import perf_counter

from mharq.tradeoff import ChannelAssumption
from tracing import Hook, Tracer

# name, unit, better, source; source is one of
#   ("layer", layer, field)       field in calls / total_s / self_s
#   ("counter", counter, layer)   summed by a hook on layer
#   ("ratio", num, den, layer)    counter over counter, not per pass
#   ("stat", key)                 workload statistic, not per pass
#   ("overhead",)                 traced over untraced pass time, minus one
SIM_CLASSES = ("logdet-lt", "logdet-st", "ostbc-st", "ostbc-lt", "markov")


def _calls_total(layer: str, *fields: str) -> list[tuple]:
    units = {"calls": ("count", "lower"), "total_s": ("s", "lower"), "self_s": ("s", "lower")}
    return [(f"{layer}.{f}", *units[f], ("layer", layer, f)) for f in fields]


PER_LAYER: list[tuple] = [
    *_calls_total("asymptotic.vbl_dmdt_3node", "calls", "total_s", "self_s"),
    *_calls_total("numerics.minimize_box", "calls", "total_s"),
    ("numerics.minimize_box.evals", "count", "lower", ("counter", "minimize_box.evals", "numerics.minimize_box")),
    *_calls_total("tradeoff.dmt", "calls", "total_s"),
    *_calls_total("asymptotic.fixed_optimal_windows", "calls", "total_s", "self_s"),
    *_calls_total("asymptotic.fbl_dmdt_3node", "calls", "total_s"),
    *_calls_total("asymptotic.nnode_vbl_dmdt", "calls", "total_s"),
    *_calls_total("finite_snr.optimize_windows", "calls", "total_s", "self_s"),
    ("finite_snr.optimize_windows.candidates", "count", "lower",
     ("counter", "optimize_windows.candidates", "finite_snr.optimize_windows")),
    ("finite_snr.optimize_windows.tuples_scanned", "count", "lower",
     ("counter", "optimize_windows.tuples_scanned", "finite_snr.optimize_windows")),
    ("finite_snr.optimize_windows.feasible_frac", "frac", "higher",
     ("ratio", "optimize_windows.feasible", "optimize_windows.candidates", "finite_snr.optimize_windows")),
    *_calls_total("finite_snr.deadline_probability", "calls", "total_s"),
    *_calls_total("cli.main", "calls", "self_s"),
    ("cli.output_bytes", "bytes", "lower", ("counter", "cli.output_bytes", "cli.main")),
    *[
        (f"netsim.run_network_sim.{cls}.s", "s", "lower", ("counter", f"sim.{cls}.s", "netsim.run_network_sim"))
        for cls in SIM_CLASSES
    ],
    ("netsim.uniforms_drawn", "count", "lower", ("counter", "sim.uniforms", "netsim.run_network_sim")),
    ("netsim.bytes_drawn_computed", "bytes", "lower", ("counter", "sim.bytes", "netsim.run_network_sim")),
    *_calls_total("finite_snr.per_hop_outage", "calls", "total_s"),
    *_calls_total("numerics.regularized_lower_gamma", "calls", "total_s"),
    *_calls_total("netsim.estimate_delay_exponent", "calls", "total_s"),
    ("netsim.fit.stderr_ratio", "ratio", "lower", ("stat", "stderr_ratio")),
    ("trace.overhead_frac", "frac", "lower", ("overhead",)),
]


def sim_class(config) -> str:
    if config.service_mode == "markovian":
        return "markov"
    long_term = config.channel is ChannelAssumption.LONG_TERM_STATIC
    return f"{config.code_model}-{'lt' if long_term else 'st'}"


def uniforms_drawn(config) -> int:
    """Uniform draws of one run, from its shape: arrivals, then service."""
    n = config.message_count
    topo = config.topology
    if config.service_mode == "markovian":
        return n * (1 + max(topo.n_hops - 1, 1))
    long_term = config.channel is ChannelAssumption.LONG_TERM_STATIC
    total = n
    for h, window in enumerate(config.protocol.windows):
        pair = topo.hop(h)
        total += n * (1 if long_term else window) * pair.m_rx * pair.m_tx * 2
    return total


def hooks(tracer: Tracer) -> dict[str, Hook]:
    def count_evals(args, kwargs):
        args = list(args)
        f = args[0] if args else kwargs["f"]
        vectorized = kwargs.get("vectorized", False)

        def objective(*a):
            tracer.count("minimize_box.evals", len(a[0]) if vectorized else 1)
            return f(*a)

        if args:
            args[0] = objective
        else:
            kwargs = dict(kwargs, f=objective)
        return tuple(args), kwargs

    def window_table(args, kwargs, result):
        topology = args[0] if args else kwargs["topology"]
        scenario = args[1] if len(args) > 1 else kwargs["scenario"]
        budget = kwargs.get("budget")
        if budget is None:
            budget = int(scenario.deadline_blocks // 1)
        # computed from the inputs: the search walks the whole budget^hops cube
        tracer.count("optimize_windows.tuples_scanned", budget ** topology.n_hops)
        tracer.count("optimize_windows.candidates", len(result.table))
        tracer.count("optimize_windows.feasible", sum(row.feasible for row in result.table))

    def output_size(args, kwargs, result):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                tracer.count("cli.output_bytes", os.path.getsize(path))

    started: list[tuple[str, float]] = []

    def sim_start(args, kwargs):
        config = args[0] if args else kwargs["config"]
        started.append((sim_class(config), perf_counter()))
        draws = uniforms_drawn(config)
        tracer.count("sim.uniforms", draws)
        tracer.count("sim.bytes", 8 * draws)
        return args, kwargs

    def sim_end(args, kwargs, result):
        cls, t0 = started.pop()
        tracer.count(f"sim.{cls}.s", perf_counter() - t0)

    return {
        "numerics.minimize_box": (count_evals, None),
        "finite_snr.optimize_windows": (None, window_table),
        "cli.main": (None, output_size),
        "netsim.run_network_sim": (sim_start, sim_end),
    }


def per_layer_metrics(
    tracer: Tracer, traced_passes: int, stats: dict, overhead: float
) -> dict[str, dict]:
    totals = tracer.layer_totals()
    out: dict[str, dict] = {}
    for name, unit, _better, source in PER_LAYER:
        kind = source[0]
        value: float | None
        layer = {"layer": 1, "counter": 2, "ratio": 3}.get(kind)
        if layer is not None and (
            not tracer.present(source[layer])
            or (kind != "layer" and source[layer] in tracer.hook_failures)
        ):
            out[name] = {"value": None, "unit": unit, "absent": True}
            continue
        if kind == "layer":
            value = totals.get(source[1], {}).get(source[2], 0.0) / traced_passes
        elif kind == "counter":
            value = tracer.counters.get(source[1], 0.0) / traced_passes
        elif kind == "ratio":
            den = tracer.counters.get(source[2], 0.0)
            value = tracer.counters.get(source[1], 0.0) / den if den else 0.0
        elif kind == "stat":
            value = float(stats.get(source[1], 0.0))
        else:
            value = overhead
        out[name] = {"value": value, "unit": unit}
    return out
