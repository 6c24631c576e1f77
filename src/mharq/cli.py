"""Command-line front end.

Every subcommand reads a JSON config file, validates it strictly (all
problems reported at once, unknown keys refused), and writes a table to
stdout or --out as CSV or JSON.  Outputs are deterministic: no timestamps,
sorted JSON keys, fixed float formatting, and a config hash in the header
so results can be traced back to their inputs byte for byte.  Every
subcommand accepts --seed, but only simulate and validate read it: it
overrides the config seed and is recorded in their output.

Exit codes: 0 success, 2 invalid config or arguments, 3 infeasible
(no stable window allocation, unstable queue).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from . import __version__
from .asymptotic import (
    fbl_dmdt_3node,
    fixed_dmdt_3node,
    fixed_optimal_windows,
    nnode_vbl_dmdt,
)
from .finite_snr import (
    CODE_MODELS,
    FiniteSnrScenario,
    UnstableQueueError,
    WindowInfeasibleError,
    evaluate_windows,
    optimize_windows,
)
from .netsim import (
    SERVICE_MODES,
    SimConfig,
    decode_chain,
    run_network_sim,
    validation_checks,
    validation_references,
)
from .tradeoff import AntennaPair, ChannelAssumption, FixedArq, Topology, dmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# A rate_grid refuses to expand to more points than this.
_MAX_RATES = 10**6
# dmdt-asymptotic refuses larger round budgets.  At this cap a short-term
# (4,4,4) rate costs at most about 21 ms, nearly all VBL, and the fixed split
# under 0.1 ms (best of 3 a rate, r in 0..4 and 50..400 step 50, the worst
# at r = 1, on a shared 2-core x86-64 VM).
_MAX_TOTAL_WINDOW = 1000
# A window of more blocks is refused: the simulator keeps window + 2 round
# counts a hop, and dmdt-finite builds every hop's outage tail up to it.  The
# largest window optimize-arq can produce under its 10**6-split cap, on a
# two-node chain, is this one.
_MAX_WINDOW = 10**6
# Tables become text and are written this many rows at a time.
_ROW_BLOCK = 1 << 12


class ConfigError(ValueError):
    """Invalid config; collects every problem before failing."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("\n".join(errors))
        self.errors = tuple(errors)


# ---------------------------------------------------------------------------
# config reading


def _rule(ok: Callable[[Any], bool], problem: str) -> Callable[[Any], str | None]:
    """A check: None for a value ok accepts, else problem with {v} filled in."""
    return lambda v: None if ok(v) else problem.format(v=v)


def _antennas(lo: int, hi: float) -> Callable[[list[int]], bool]:
    return lambda v: lo <= len(v) <= hi and all(1 <= a <= 8 for a in v)


def _increasing(v: list[float]) -> bool:
    return all(b > a for a, b in zip(v, v[1:]))


_positive = _rule(lambda v: v > 0, "must be positive, got {v}")
_nonnegative = _rule(lambda v: v >= 0, "must be nonnegative, got {v}")
_rates = _rule(
    lambda v: v[0] >= 0 and _increasing(v),
    "must be nonnegative and strictly increasing",
)

# Each value a sweep axis takes must pass its rule; the axis's top-level key
# holds the placeholder until a sweep point replaces it.
_SWEEP_AXES: dict[str, tuple[Callable[[float], bool], str, float | None]] = {
    "multiplexing_gain": (lambda v: v >= 0, "multiplexing gains must be >= 0", 0.0),
    "deadline_blocks": (lambda v: v >= 1, "deadlines must be at least one block", 1.0),
    "total_window": (
        lambda v: v == int(v) and v >= 1,
        "window budgets must be whole blocks >= 1",
        None,
    ),
}

# Every config key, the sub-keys of rate_grid and sweep included, as
# (kind, default, choices, check).  Which keys a subcommand reads, which of
# them it requires, and the rules that tie keys together stay with it.
_FIELDS: dict[str, tuple[str, Any, Sequence[Any] | None, Callable | None]] = {
    "antennas": (
        "list[int]", None, None,
        _rule(_antennas(2, 2), "expected [m_tx, m_rx] with 1..8 antennas"),
    ),
    "topology": (
        "list[int]", None, None,
        _rule(
            _antennas(2, math.inf), "needs at least two nodes with 1..8 antennas each"
        ),
    ),
    "windows": (
        "list[int]", None, None,
        lambda v: "windows must be >= 1" if min(v) < 1
        else f"windows must be at most {_MAX_WINDOW} blocks, got {max(v)}"
        if max(v) > _MAX_WINDOW
        else None,
    ),
    "channel": ("str", "long_term", tuple(c.value for c in ChannelAssumption), None),
    # at power exponent g every printed cell is g * K(r / g), where K is a
    # library kernel: the library holds the g = 1 curves only
    "power_exponent": (
        "number", 1.0, None, _rule(lambda v: v >= 1, "must be >= 1, got {v}")
    ),
    "multiplexing_gains": ("list[number]", None, None, _rates),
    "protocol": ("str", None, ("fixed", "fbl", "vbl", "all"), None),
    "allow_zero_rounds": ("bool", False, None, None),
    "total_window": ("int", None, None, _positive),
    "rates": ("list[number]", None, None, _rates),
    "rate_grid": ("dict", None, None, None),
    "start": ("number", 0.0, None, _nonnegative),
    "stop": ("number", None, None, _positive),
    "step": ("number", 0.05, None, _positive),
    "snr_db": ("number", None, None, None),
    "snr_linear": ("number", None, None, _positive),
    "multiplexing_gain": ("number", None, None, _nonnegative),
    "spatial_code_rate": (
        "number", 1.0, None, _rule(lambda v: 0 < v <= 1, "must be in (0, 1], got {v}")
    ),
    "arrival_mean_blocks": ("number", None, None, _positive),
    "deadline_blocks": (
        "number", None, None,
        _rule(lambda v: v >= 1, "must be at least one block, got {v}"),
    ),
    "sweep": ("dict", None, None, None),
    "axis": ("str", None, tuple(_SWEEP_AXES), None),
    "values": (
        "list[number]", None, None, _rule(_increasing, "must be strictly increasing")
    ),
    "budget": ("int", None, None, _positive),
    "service_mode": ("str", "physical", SERVICE_MODES, None),
    "code_model": ("str", "logdet", CODE_MODELS, None),
    "message_count": ("int", None, None, _positive),
    "warmup_count": ("int", 0, None, _nonnegative),
    "seed": ("int", 0, None, _rule(lambda v: 0 <= v < 2**64, "must fit in 64 bits")),
    "service_means": (
        "list[number]", None, None,
        _rule(lambda v: all(m > 0 for m in v), "means must be positive"),
    ),
}


class _Checker:
    """Walks one flat config dict, typing fields and tracking unknowns."""

    def __init__(self, cfg: dict, path: str = "config"):
        self.cfg = cfg
        self.path = path
        self.errors: list[str] = []
        self.seen: set[str] = set()

    def error(self, key: str, message: str) -> None:
        self.errors.append(f"{self.path}.{key}: {message}")

    def _convert(self, key: str, value: Any, kind: str) -> Any:
        if kind == "bool":
            if isinstance(value, bool):
                return value
            self.error(key, f"expected true/false, got {value!r}")
        elif kind == "int":
            if isinstance(value, bool):
                self.error(key, f"expected an integer, got {value!r}")
            elif isinstance(value, int):
                return value
            elif isinstance(value, float) and value.is_integer():
                return int(value)
            else:
                self.error(key, f"expected an integer, got {value!r}")
        elif kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.error(key, f"expected a number, got {value!r}")
            elif isinstance(value, float) and not math.isfinite(value):
                self.error(key, f"expected a finite number, got {value!r}")
            else:
                return float(value)
        elif kind == "str":
            if isinstance(value, str):
                return value
            self.error(key, f"expected a string, got {value!r}")
        elif kind == "list[int]":
            if not isinstance(value, list) or not value:
                self.error(key, f"expected a non-empty list of integers, got {value!r}")
            elif any(isinstance(v, bool) or not isinstance(v, int) for v in value):
                self.error(key, f"expected integers, got {value!r}")
            else:
                return [int(v) for v in value]
        elif kind == "list[number]":
            if not isinstance(value, list) or not value:
                self.error(key, f"expected a non-empty list of numbers, got {value!r}")
            elif any(
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or not math.isfinite(float(v))
                for v in value
            ):
                self.error(key, f"expected finite numbers, got {value!r}")
            else:
                return [float(v) for v in value]
        elif kind == "dict":
            if isinstance(value, dict):
                return value
            self.error(key, f"expected an object, got {value!r}")
        else:  # pragma: no cover - schema author mistake
            raise AssertionError(f"unknown kind {kind}")
        return None

    def get(self, key: str, *, required: bool = False, default: Any = None) -> Any:
        """The typed value of key, or its default when absent or invalid.

        Kind, default, choices and check come from _FIELDS; default, when
        given, stands in for the table's (a default that depends on other
        keys).
        """
        kind, table_default, choices, check = _FIELDS[key]
        if default is None:
            default = table_default
        self.seen.add(key)
        if key not in self.cfg:
            if required:
                self.error(key, "required field is missing")
            return default
        before = len(self.errors)
        value = self._convert(key, self.cfg[key], kind)
        if len(self.errors) > before:
            return default
        if choices is not None and value not in choices:
            self.error(key, f"must be one of {list(choices)}, got {value!r}")
            return default
        if check is not None:
            problem = check(value)
            if problem is not None:
                self.error(key, problem)
                return default
        return value

    def absorb(self, sub: _Checker) -> bool:
        """Take a nested checker's errors, unknown keys included; True if clean."""
        sub.reject_unknown()
        self.errors.extend(sub.errors)
        return not sub.errors

    def reject_unknown(self) -> None:
        for key in sorted(set(self.cfg) - self.seen):
            self.errors.append(f"{self.path}.{key}: unknown field")

    def done(self) -> None:
        self.reject_unknown()
        if self.errors:
            raise ConfigError(self.errors)


def _topology(chk: _Checker) -> Topology | None:
    raw = chk.get("topology", required=True)
    return None if raw is None else Topology(tuple(raw))


def _snr(chk: _Checker) -> float | None:
    has_db = "snr_db" in chk.cfg
    has_linear = "snr_linear" in chk.cfg
    db = chk.get("snr_db")
    linear = chk.get("snr_linear")
    if has_db == has_linear:
        chk.errors.append(
            f"{chk.path}.snr_db / {chk.path}.snr_linear: "
            "exactly one of the two must be given"
        )
        return None
    if not has_db:
        return linear
    if db is None:
        return None
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        chk.error("snr_db", f"{db:g} dB overflows the linear SNR")
        return None


def _rate_grid(chk: _Checker, default_stop: float) -> list[float] | None:
    has_list = "rates" in chk.cfg
    rates = chk.get("rates")
    spec = chk.get("rate_grid")
    if has_list and "rate_grid" in chk.cfg:
        chk.errors.append(
            f"{chk.path}.rates / {chk.path}.rate_grid: give at most one of the two"
        )
        return None
    if has_list:
        return rates
    sub = _Checker(spec or {}, path=f"{chk.path}.rate_grid")
    start = sub.get("start")
    stop = sub.get("stop", default=default_stop)
    step = sub.get("step")
    if not chk.absorb(sub):
        return None
    if stop <= start:
        chk.error("rate_grid", f"stop {stop} must exceed start {start}")
        return None
    # compared as a float, so a span that overflows to inf is refused too
    span = (stop - start) / step + 1e-9
    if span >= _MAX_RATES:
        chk.error(
            "rate_grid",
            f"step {step} from {start} to {stop} gives more than {_MAX_RATES} rates",
        )
        return None
    grid = [start + i * step for i in range(int(math.floor(span)) + 1)]
    # a step below the spacing of floats near the rates repeats a rate
    if not _increasing(grid):
        chk.error(
            "rate_grid",
            f"step {step} from {start} to {stop} gives rates that do not strictly "
            "increase",
        )
        return None
    return grid


# The operating point's keys in the order every finite-SNR command reads
# them; errors print in read order.
_OPERATING_POINT = (
    "multiplexing_gain",
    "spatial_code_rate",
    "arrival_mean_blocks",
    "deadline_blocks",
)


def _already_swept(chk: _Checker, key: str, remedy: str) -> None:
    if key in chk.cfg:
        chk.error(key, f"already swept; {remedy}")
        chk.seen.add(key)


def _scenario_fields(chk: _Checker, swept: str | None = None) -> dict[str, Any]:
    """The SNR, then the operating-point keys in _OPERATING_POINT order.

    Every key without a default is required, except the swept one: that
    comes from the sweep, so a top-level value for it is refused, and it
    holds the axis's placeholder until a sweep point replaces it.
    """
    fields = {"snr": _snr(chk)}
    for key in _OPERATING_POINT:
        if key == swept:
            _already_swept(chk, key, "remove the top-level value")
            fields[key] = _SWEEP_AXES[key][2]
        else:
            fields[key] = chk.get(key, required=_FIELDS[key][1] is None)
    return fields


def _build_scenario(fields: dict[str, Any], chk: _Checker) -> FiniteSnrScenario | None:
    """The scenario of the fields _scenario_fields read.

    Fields that pass the schema can still fail here: an snr_db far enough
    below zero underflows to a linear SNR of 0.  No scenario is built once a
    field has failed, and a refusal joins the checker's errors.
    """
    if chk.errors:
        return None
    try:
        return FiniteSnrScenario(**fields)
    except ValueError as exc:
        chk.errors.append(f"{chk.path}: {exc}")
        return None


def _windows(chk: _Checker, topo: Topology | None, *, required: bool) -> list[int] | None:
    windows = chk.get("windows", required=required)
    if windows is not None and topo is not None and len(windows) != topo.n_hops:
        chk.error("windows", f"got {len(windows)} windows for {topo.n_hops} hops")
        return None
    return windows


# ---------------------------------------------------------------------------
# output


# The text of a cell by its type: CSV prints floats to 9 significant
# digits and JSON as json.dumps does; a NaN is empty in CSV, and every
# non-finite float is null in JSON.
_CSV_TEXT: dict[type, Callable[[Any], str]] = {
    type(None): lambda v: "",
    bool: lambda v: "true" if v else "false",
    int: str,
    float: lambda v: "" if v != v else format(v, ".9g"),
    str: str,
}
_JSON_TEXT: dict[type, Callable[[Any], str]] = {
    type(None): lambda v: "null",
    bool: _CSV_TEXT[bool],
    int: int.__repr__,
    float: lambda v: float.__repr__(v) if math.isfinite(v) else "null",
    str: encode_basestring_ascii,
}


def _column_text(
    values: Sequence[Any], texts: dict[type, Callable], head: str
) -> tuple[list[str], Iterable[str]]:
    """Every cell of one column as head + text, formatting each distinct value
    once, and the texts formatted, among them each distinct text.

    Array cells are told apart by their bits, list cells by value and type.
    """
    if hasattr(values, "dtype"):
        bits = values.view(f"u{values.itemsize}")
        keys, cells = np.unique(bits, return_inverse=True)
        distinct = keys.view(values.dtype).tolist()
        text = texts[type(distinct[0])]
        out = [head + text(v) for v in distinct]
        return np.array(out, dtype=object)[cells].tolist(), out
    by_type = {kind: texts[kind] for kind in set(map(type, values))}
    distinct = dict.fromkeys(values)
    # equal keys can need different texts: 1 == 1.0 == True, and 0.0 == -0.0
    if len(by_type) != 1 or (0.0 in distinct and type(values[0]) is float):
        out = [head + by_type[type(v)](v) for v in values]
        return out, out
    (text,) = by_type.values()
    memo = {v: head + text(v) for v in distinct}
    return list(map(memo.__getitem__, values)), memo.values()


def _text_blocks(data: Sequence, texts: dict[type, Callable], heads: list) -> Iterator[tuple]:
    """The cells of each _ROW_BLOCK rows as text, column by column, after their
    heads, and each column's distinct texts.
    """
    for lo in range(0, len(data[0]) if data else 0, _ROW_BLOCK):
        yield tuple(
            zip(*(_column_text(v[lo : lo + _ROW_BLOCK], texts, h) for v, h in zip(data, heads)))
        )


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _config_hash(config: dict) -> str:
    import hashlib  # loads OpenSSL; only runs that emit a hash need it

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Table(NamedTuple):
    """What a subcommand prints: its columns, data[j] holding column j, the
    fields it adds to the JSON meta block, and the seed a simulation ran with.
    """

    columns: Sequence[str]
    data: Sequence[Sequence[Any]]
    meta: Mapping[str, Any] = {}
    seed: int | None = None


def _emit(stream: TextIO, fmt: str, command: str, config: dict, table: _Table) -> None:
    """Write a table with its provenance header.

    The rows become text a block at a time; the bytes are those csv.writer
    and json.dumps(indent=2, sort_keys=True) write for the same rows.
    """
    columns, data, meta_extra, seed = table
    digest = _config_hash(config)
    if fmt == "csv":
        header = f"# tool=mharq version={__version__} command={command} config_hash={digest}"
        if seed is not None:
            header += f" seed={seed}"
        stream.write(header + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for cells, distinct in _text_blocks(data, _CSV_TEXT, [""] * len(data)):
            # only csv.writer quotes: a cell holding , " \r or \n, and the
            # empty cell of a one-column row
            if len(cells) < 2 or any(
                c in t for column in distinct for t in column for c in ',"\r\n'
            ):
                writer.writerows(zip(*cells))
            else:
                stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        return
    meta: dict[str, Any] = {
        "tool": "mharq",
        "version": __version__,
        "command": command,
        "config": config,
        "config_hash": digest,
    }
    if seed is not None:
        meta["seed"] = seed
    meta.update(meta_extra)
    head = {"columns": list(columns), "meta": _json_safe(meta)}
    text = json.dumps(head, indent=2, sort_keys=True, allow_nan=False)
    # "rows" sorts after "columns" and "meta": reopen the object to append it
    stream.write(text[: -len("\n}")] + ',\n  "rows": ')
    if not data or not len(data[0]):
        stream.write("[]\n}\n")
        return
    # a later column of the same name wins, as in a dict built from the row
    index = {name: i for i, name in enumerate(columns)}
    keys = sorted(index)
    heads = [f"      {encode_basestring_ascii(k)}: " for k in keys]
    # a row is its cells joined by ",\n"; the braces of its object join the rows
    lead, between = "[\n    {\n", "\n    },\n    {\n"
    for cells, _ in _text_blocks([data[index[k]] for k in keys], _JSON_TEXT, heads):
        stream.write(lead + between.join(map(",\n".join, zip(*cells))))
        lead = between
    stream.write("\n    }\n  ]\n}\n")


# ---------------------------------------------------------------------------
# subcommands


def _check_finite(power: float, cells: Sequence[float]) -> None:
    """Refuse a power_exponent g so large that a g * d(r / g) cell overflows."""
    if not all(map(math.isfinite, cells)):
        raise ConfigError(
            [f"config.power_exponent: {power:g} overflows the diversity curve"]
        )


def _run_dmt(config: dict, seed_override: int | None) -> _Table:
    chk = _Checker(config)
    antennas = chk.get("antennas", required=True)
    g = chk.get("power_exponent")
    grid = chk.get("multiplexing_gains")
    chk.done()
    pair = AntennaPair(antennas[0], antennas[1])
    if grid is None:
        grid = [float(k) for k in range(pair.min_dim + 1)]
    rows = [[r, g * dmt(pair, r / g)] for r in grid]
    _check_finite(g, [d for _, d in rows])
    return _Table(["multiplexing_gain", "diversity_gain"], list(zip(*rows)))


def _run_dmdt_asymptotic(config: dict, seed_override: int | None) -> _Table:
    chk = _Checker(config)
    topo = _topology(chk)
    protocol = chk.get("protocol", required=True)
    channel_name = chk.get("channel")
    g = chk.get("power_exponent")
    allow_zero = chk.get("allow_zero_rounds")
    total = chk.get("total_window")
    if total is not None and total > _MAX_TOTAL_WINDOW:
        chk.error("total_window", f"must be at most {_MAX_TOTAL_WINDOW}, got {total}")
    windows = _windows(chk, topo, required=False)

    if protocol in ("fbl", "vbl", "all") and total is None:
        chk.error("total_window", f"required for protocol {protocol!r}")
    if protocol == "fixed" and (windows is None) == (total is None):
        chk.errors.append(
            "config.windows / config.total_window: fixed protocol needs "
            "exactly one of explicit windows or a budget to split"
        )
    if protocol in ("fixed", "fbl", "all") and topo is not None and topo.n_nodes != 3:
        chk.error("topology", f"protocol {protocol!r} needs exactly three nodes")
    if protocol == "vbl" and topo is not None and topo.n_nodes < 3:
        chk.error("topology", "protocol 'vbl' needs at least three nodes")
    if windows is not None and protocol != "fixed":
        chk.error("windows", f"not accepted for protocol {protocol!r}")
    if allow_zero and protocol not in ("fbl", "all"):
        chk.error("allow_zero_rounds", "only meaningful for the fbl protocol")
    # a round a hop, and fbl's split round; allow_zero_rounds lets one hop go without
    least = {"fixed": 2, "fbl": 3 - allow_zero, "all": 3 - allow_zero}.get(protocol, 1)
    if total is not None and total < least:
        chk.error(
            "total_window", f"protocol {protocol!r} needs at least {least} rounds, got {total}"
        )

    # the default grid ends where the narrowest hop's curve reaches zero
    hops = [] if topo is None else [topo.hop(i) for i in range(topo.n_hops)]
    grid = _rate_grid(chk, float(min((h.min_dim for h in hops), default=1.0)))
    chk.done()
    channel = ChannelAssumption(channel_name)

    # the fixed optimum picks its windows and split at r / g
    def fixed(r: float):
        return fixed_optimal_windows(topo, total, r / g)

    def fbl(r: float) -> float:
        return g * fbl_dmdt_3node(topo, total, r / g, channel, allow_zero_rounds=allow_zero)

    def vbl(r: float) -> float:
        return g * nnode_vbl_dmdt(topo, total, r / g, channel)

    if protocol == "all":
        columns = ["multiplexing_gain", "diversity_fixed", "diversity_fixed_equalized"]
        columns += ["diversity_fbl", "diversity_vbl"]
        rows = []
        for r in grid:
            best = fixed(r)
            rows.append([r, g * best.value, g * best.split_value, fbl(r), vbl(r)])
        _check_finite(g, [v for row in rows for v in row[1:]])
        return _Table(columns, list(zip(*rows)))

    if protocol == "fixed" and windows is None:
        values = [g * fixed(r).value for r in grid]
    elif protocol == "fixed":
        values = [g * fixed_dmdt_3node(topo, *windows, r / g) for r in grid]
    else:
        values = list(map(fbl if protocol == "fbl" else vbl, grid))
    _check_finite(g, values)
    return _Table(["multiplexing_gain", "diversity_gain"], [grid, values])


def _run_dmdt_finite(config: dict, seed_override: int | None) -> _Table:
    chk = _Checker(config)
    topo = _topology(chk)
    sweep = chk.get("sweep", required=True)
    axis = values = None
    if sweep is not None:
        sub = _Checker(sweep, path=f"{chk.path}.sweep")
        axis = sub.get("axis", required=True)
        values = sub.get("values", required=True)
        chk.absorb(sub)
    fields = _scenario_fields(chk, swept=axis)
    if axis == "total_window":
        _already_swept(chk, "windows", "remove the explicit windows")
    else:
        windows = _windows(chk, topo, required=True)
    if axis is not None and values is not None:
        valid, problem, _ = _SWEEP_AXES[axis]
        if not all(map(valid, values)):
            chk.errors.append(f"{chk.path}.sweep.values: {problem}")
    base = _build_scenario(fields, chk)
    chk.done()

    unstable: list[float] = []
    rows = []
    if axis == "total_window":
        columns = ["total_window"]
        columns += [f"window_{i + 1}" for i in range(topo.n_hops)]
        columns += ["p_outage", "p_deadline", "p_total"]
        for v in values:
            try:  # the only other refusal: too many allocations
                opt = _refused_as(
                    "config.sweep.values", optimize_windows, topo, base, budget=int(v)
                )
            except WindowInfeasibleError:
                unstable.append(v)
                rows.append([int(v)] + [None] * (topo.n_hops + 3))
                continue
            b = opt.breakdown
            rows.append(
                [int(v)]
                + list(opt.allocation.windows)
                + [b.p_outage, b.p_deadline, b.p_total]
            )
        meta = {"infeasible_points": unstable} if unstable else {}
        return _Table(columns, list(zip(*rows)), meta)

    for v in values:
        scenario = dataclasses.replace(base, **{axis: v})
        c = evaluate_windows(topo, scenario, np.array([windows]))
        if c.feasible[0]:
            probs = (c.p_outage, c.p_deadline, c.p_total)
            rows.append([v, *(float(p[0]) for p in probs)])
        else:
            unstable.append(v)
            rows.append([v, float(c.p_outage[0]), None, None])
    meta = {"unstable_points": unstable} if unstable else {}
    return _Table([axis, "p_outage", "p_deadline", "p_total"], list(zip(*rows)), meta)


def _refused_as(path: str, call: Callable, *args: Any, **kwargs: Any) -> Any:
    """call(*args, **kwargs), with any ValueError but an infeasible or
    unstable queue, which keep their own exit, refused as a line of path."""
    try:
        return call(*args, **kwargs)
    except (WindowInfeasibleError, UnstableQueueError):
        raise
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def _run_optimize(config: dict, seed_override: int | None) -> _Table:
    chk = _Checker(config)
    topo = _topology(chk)
    budget = chk.get("budget")
    scenario = _build_scenario(_scenario_fields(chk), chk)
    chk.done()

    path = "config.budget" if budget else "config.deadline_blocks"  # past the row cap
    result = _refused_as(path, optimize_windows, topo, scenario, budget=budget)
    n = topo.n_hops
    columns = [f"window_{i + 1}" for i in range(n)]
    columns += [f"mu_{i + 1}" for i in range(n)]
    columns += ["p_outage", "p_deadline", "p_total"]
    columns += ["feasible", "constraint_conflict", "violations"]
    # feasible rows first, by total error; the table is in lexicographic window
    # order and lexsort is stable, so ties keep the smallest windows first
    c = result.columns
    order = np.lexsort((np.where(c.feasible, c.p_total, math.inf), ~c.feasible))
    ranked = (c.p_outage, c.p_deadline, c.p_total, c.feasible, c.conflict)
    n_feasible = np.count_nonzero(c.feasible)
    data = [
        *c.windows[order].T,
        *c.means[order].T,
        *(column[order] for column in ranked),
        [""] * n_feasible + ["; ".join(v) for v in c.violations(order[n_feasible:])],
    ]
    meta = {
        "best": {
            "windows": list(result.allocation.windows),
            "p_outage": result.breakdown.p_outage,
            "p_deadline": result.breakdown.p_deadline,
            "p_total": result.breakdown.p_total,
            "threshold_variant": result.threshold_variant,
        }
    }
    return _Table(columns, data, meta)


def _sim_config(config: dict, seed_override: int | None) -> SimConfig:
    chk = _Checker(config)
    topo = _topology(chk)
    windows = _windows(chk, topo, required=True)
    channel_name = chk.get("channel")
    mode = chk.get("service_mode")
    code_model = chk.get("code_model")
    messages = chk.get("message_count", required=True)
    warmup = chk.get("warmup_count")
    seed = chk.get("seed")
    service_means = chk.get("service_means")
    scenario = _build_scenario(_scenario_fields(chk), chk)
    chk.done()
    if seed_override is not None:
        seed = seed_override
    return _refused_as(
        "config",
        SimConfig,
        topology=topo,
        protocol=FixedArq(tuple(windows)),
        channel=ChannelAssumption(channel_name),
        scenario=scenario,
        message_count=messages,
        warmup_count=warmup,
        seed=seed,
        service_mode=mode,
        code_model=code_model,
        service_means=tuple(service_means) if service_means is not None else None,
    )


def _simulate(sim_cfg: SimConfig, run: Callable[[SimConfig], Any]):
    """run(sim_cfg) (run_network_sim or decode_chain), too-large arrays refused as config."""
    try:
        # numpy refuses an array past sys.maxsize bytes with a ValueError of
        # its own, not MemoryError; the queue stage's one float per message
        # is already past it, and no address space holds the decode stage's
        # byte a message per hop at this count either
        if sim_cfg.message_count > sys.maxsize // 8:
            raise MemoryError
        return run(sim_cfg)
    except MemoryError as exc:
        raise ConfigError(
            [f"config.message_count: {sim_cfg.message_count} messages do not fit in memory"]
        ) from exc


def _run_simulate(config: dict, seed_override: int | None) -> _Table:
    sim_cfg = _sim_config(config, seed_override)
    result = _simulate(sim_cfg, run_network_sim)
    rows: list[list[Any]] = [
        ["analyzed", float(result.analyzed)],
        ["delivered", float(result.delivered)],
        ["outage_drops", float(result.outage_drops)],
        ["deadline_drops", float(result.deadline_drops)],
        ["p_outage", result.p_outage],
        ["p_deadline", result.p_deadline],
        ["p_total", result.p_total],
    ]
    for i, drops in enumerate(result.per_hop_outage_drops):
        rows.append([f"outage_drops_hop_{i + 1}", float(drops)])
    for i, att in enumerate(result.per_hop_attempts):
        rows.append([f"attempts_hop_{i + 1}", float(att)])
    if result.delays.size:
        rows.append(["mean_delay", float(result.delays.mean())])
        rows.append(["max_delay", float(result.delays.max())])
    return _Table(["metric", "value"], list(zip(*rows)), seed=sim_cfg.seed)


def _run_validate(config: dict, seed_override: int | None) -> _Table:
    sim_cfg = _sim_config(config, seed_override)
    physical = sim_cfg.service_mode == "physical"
    if physical and sim_cfg.channel is not ChannelAssumption.LONG_TERM_STATIC:
        raise ConfigError(
            [
                "config.channel: the analytic outage references assume "
                "long_term fading; simulate short_term without validate"
            ]
        )
    # the references come first, so a refused one (an unstable queue, or a
    # log-det hop of rank >= 3) exits before simulating
    references = _refused_as("config.code_model", validation_references, sim_cfg)
    # physical checks read only outage counts, so no queue runs for them;
    # the markovian tail fit reads the delays
    result = _simulate(sim_cfg, decode_chain if physical else run_network_sim)
    rows = _refused_as("config.message_count", validation_checks, sim_cfg, references, result)
    columns = ["check", "analytic", "empirical", "samples", "sigma", "z_score", "verdict"]
    meta = {"note": "z compares the empirical rate against the analytic model"}
    return _Table(columns, list(zip(*rows)), meta, sim_cfg.seed)


# ---------------------------------------------------------------------------
# entry point


# Every subcommand by name: its help text and its runner, which takes the
# config and the --seed override (only simulate and validate read it) and
# returns the table to print.
_COMMANDS: dict[str, tuple[str, Callable[[dict, int | None], _Table]]] = {
    "dmt": ("single-hop diversity against multiplexing gain", _run_dmt),
    "dmdt-asymptotic": (
        "high-SNR tradeoff curves for a relay chain", _run_dmdt_asymptotic
    ),
    "dmdt-finite": ("finite-SNR error probabilities along one axis", _run_dmdt_finite),
    "optimize-arq": ("best window split of a deadline budget", _run_optimize),
    "simulate": ("Monte Carlo run of the fading and queueing chain", _run_simulate),
    "validate": ("hold simulator rates against the analytic numbers", _run_validate),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mharq",
        description="diversity-multiplexing-delay analysis for multihop ARQ relays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the config seed (simulate and validate only)",
        )
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from exc
    if not isinstance(loaded, dict):
        raise ConfigError([f"config {path} must be a JSON object"])
    return loaded


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("mharq: --seed must fit in 64 bits", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = _load_config(args.config)
        table = _COMMANDS[args.command][1](config, args.seed)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"mharq: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except (WindowInfeasibleError, UnstableQueueError) as exc:
        print(f"mharq: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        # inputs that pass the schema but fail a library precondition
        print(f"mharq: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # every refusal is raised above, so an --out file is never left partial
    if args.out is None:
        stream = contextlib.nullcontext(sys.stdout)
    else:
        stream = open(args.out, "w", encoding="utf-8", newline="")
    with stream as fh:
        _emit(fh, args.format, args.command, config, table)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
