"""End-to-end coverage of the command-line surface.

Each test drives mharq.cli.main with a JSON config on disk, the same way a
shell invocation would, and inspects the emitted CSV/JSON or stderr.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mharq.cli as cli
import mharq.finite_snr as finite_snr
import mharq.netsim as netsim
from mharq.asymptotic import (
    fbl_dmdt_3node,
    fixed_dmdt_3node,
    fixed_optimal_windows,
    nnode_vbl_dmdt,
)
from mharq.cli import main
from mharq.finite_snr import (
    CandidateColumns,
    FiniteSnrScenario,
    UnstableQueueError,
    WindowInfeasibleError,
    message_error,
    optimize_windows,
)
from mharq.tradeoff import AntennaPair, ChannelAssumption, FixedArq, Topology, dmt
from oracles import stdlib_emit


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = out.strip("\n").split("\n")
    return code, lines


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)


SIM_CONFIG = {
    "topology": [1, 1],
    "windows": [2],
    "snr_linear": 1.0,
    "multiplexing_gain": 1.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 60.0,
    "message_count": 2000,
    "code_model": "ostbc",
    "seed": 0,
}

OPT_CONFIG = {
    "topology": [4, 1, 3],
    "snr_db": 20.0,
    "multiplexing_gain": 1.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 5.0,
}


def test_dmt_default_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, {"antennas": [2, 2]})
    code, lines = run_csv(capsys, ["dmt", "--config", cfg])
    assert code == 0
    assert lines[0].startswith("# tool=mharq version=")
    assert "command=dmt" in lines[0]
    assert "config_hash=" in lines[0]
    assert lines[1] == "multiplexing_gain,diversity_gain"
    assert lines[2:] == ["0,4", "1,1", "2,0"]


def test_dmt_json_round_trips_config(tmp_path, capsys):
    payload = {"antennas": [3, 2], "multiplexing_gains": [0.0, 0.5, 1.0]}
    cfg = write_config(tmp_path, payload)
    code, doc = run_json(capsys, ["dmt", "--config", cfg, "--format", "json"])
    assert code == 0
    assert doc["meta"]["config"] == payload
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert doc["meta"]["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert doc["columns"] == ["multiplexing_gain", "diversity_gain"]
    assert [row["diversity_gain"] for row in doc["rows"]] == [6.0, 4.0, 2.0]


def test_asymptotic_all_protocols(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "protocol": "all",
            "total_window": 4,
            "rates": [0.0, 1.0],
        },
    )
    code, doc = run_json(capsys, ["dmdt-asymptotic", "--config", cfg, "--format", "json"])
    assert code == 0
    assert doc["columns"] == [
        "multiplexing_gain",
        "diversity_fixed",
        "diversity_fixed_equalized",
        "diversity_fbl",
        "diversity_vbl",
    ]
    last = doc["rows"][1]
    assert last["diversity_fixed"] == pytest.approx(1.5)
    assert last["diversity_fixed_equalized"] == pytest.approx(1.6812706956, abs=1e-6)
    assert last["diversity_fbl"] == pytest.approx(1.5)
    assert last["diversity_vbl"] == pytest.approx(2.0)


def test_asymptotic_power_exponent_reaches_fixed_columns(tmp_path, capsys):
    base = {"topology": [4, 1, 3], "power_exponent": 2.0, "rates": [0.5]}
    got = {}
    for name, extra in (
        ("all", {"protocol": "all", "total_window": 4}),
        ("optimum", {"protocol": "fixed", "total_window": 4}),
        ("split_2_2", {"protocol": "fixed", "windows": [2, 2]}),
    ):
        cfg = write_config(tmp_path, {**base, **extra}, name=f"{name}.json")
        code, doc = run_json(
            capsys, ["dmdt-asymptotic", "--config", cfg, "--format", "json"]
        )
        assert code == 0
        got[name] = doc["rows"][0]
    # windows (1,3) at r/g = 0.25 give 2.75, scaled by g = 2
    assert got["all"]["diversity_fixed"] == pytest.approx(5.5)
    assert got["optimum"]["diversity_gain"] == pytest.approx(5.5)
    assert got["split_2_2"]["diversity_gain"] == pytest.approx(5.25)
    assert got["all"]["diversity_fixed_equalized"] >= 5.5 - 1e-9


@pytest.mark.parametrize(
    "command, payload",
    [
        ("dmt", {"antennas": [2, 2], "power_exponent": 1e308}),
        (
            "dmdt-asymptotic",
            {
                "topology": [2, 2, 2],
                "protocol": "all",
                "total_window": 4,
                "power_exponent": 1e308,
                "rates": [0.0, 1.0],
            },
        ),
    ],
)
# any warning fails the run: stderr holds the one mharq: line, not numpy's
@pytest.mark.filterwarnings("error")
def test_power_exponent_that_overflows_the_curve_is_refused(
    tmp_path, capsys, command, payload
):
    # g * d(r / g) is inf at g = 1e308; those cells used to print as inf
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mharq: config.power_exponent: 1e+308 overflows the diversity curve\n"


@st.composite
def _powered_runs(draw):
    """A dmt or dmdt-asymptotic config at power exponent g in [1, 8].

    Returns the subcommand, the config, its rates and the g = 1 library
    kernels whose scaled values g * K(r / g) the printed columns must hold.
    """
    g = draw(st.floats(1.0, 8.0))
    rates = sorted(set(draw(st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4))))
    case = draw(st.sampled_from(
        ["dmt", "fixed windows", "fixed budget", "fbl", "fbl zero", "vbl", "all"]
    ))
    if case == "dmt":
        pair = AntennaPair(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        config = {"antennas": [pair.m_tx, pair.m_rx], "multiplexing_gains": rates}
        return "dmt", {**config, "power_exponent": g}, rates, [lambda r: dmt(pair, r)]
    n_nodes = draw(st.integers(3, 5)) if case == "vbl" else 3
    antennas = draw(st.lists(st.integers(1, 4), min_size=n_nodes, max_size=n_nodes))
    topo = Topology(antennas)
    channel = draw(st.sampled_from(ChannelAssumption))
    total = draw(st.integers(3, 8))
    zero = case == "fbl zero" or (case == "all" and draw(st.booleans()))
    config = {
        "topology": antennas, "channel": channel.value, "power_exponent": g, "rates": rates
    }
    if case == "fixed windows":
        windows = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
        config.update(protocol="fixed", windows=windows)
        return "dmdt-asymptotic", config, rates, [
            lambda r: fixed_dmdt_3node(topo, *windows, r)
        ]
    config.update(protocol=case.split()[0], total_window=total)
    if zero:
        config["allow_zero_rounds"] = True
    fixed = [
        lambda r: fixed_optimal_windows(topo, total, r).value,
        lambda r: fixed_optimal_windows(topo, total, r).split_value,
    ]
    fbl = [lambda r: fbl_dmdt_3node(topo, total, r, channel, allow_zero_rounds=zero)]
    vbl = [lambda r: nnode_vbl_dmdt(topo, total, r, channel)]
    kernels = {"fixed": fixed[:1], "fbl": fbl, "vbl": vbl, "all": fixed + fbl + vbl}
    return "dmdt-asymptotic", config, rates, kernels[config["protocol"]]


@settings(max_examples=150, deadline=None)
@given(_powered_runs())
def test_printed_cells_are_the_scaled_unit_power_kernels(tmp_path_factory, run):
    # the library kernels are the g = 1 curves; the CLI prints g * K(r / g)
    command, config, rates, kernels = run
    g = config["power_exponent"]
    path = tmp_path_factory.getbasetemp() / "powered.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([command, "--config", str(path), "--format", "json"]) == 0
    doc = json.loads(out.getvalue())
    assert [row["multiplexing_gain"] for row in doc["rows"]] == rates
    got = [[row[c].hex() for c in doc["columns"][1:]] for row in doc["rows"]]
    assert got == [[(g * kernel(r / g)).hex() for kernel in kernels] for r in rates]


def test_power_exponent_below_one_is_refused_before_any_kernel(tmp_path, capsys):
    # a budget of one round leaves the fixed optimum no split either: both
    # are checked with the rest of the config, before any kernel runs
    cfg = write_config(
        tmp_path,
        {"topology": [3, 3, 2], "protocol": "fixed", "total_window": 1,
         "power_exponent": 0.5},
    )
    assert main(["dmdt-asymptotic", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "mharq: config.power_exponent: must be >= 1, got 0.5\n"
        "mharq: config.total_window: protocol 'fixed' needs at least 2 rounds, got 1\n"
    )


# one small config each subcommand prints a table for
SMALL_RUNS = {
    "dmt": {"antennas": [2, 2]},
    "dmdt-asymptotic": {
        "topology": [2, 2, 2], "protocol": "all", "total_window": 3, "rates": [0.5, 1]
    },
    "dmdt-finite": {
        **{k: v for k, v in OPT_CONFIG.items() if k != "multiplexing_gain"},
        "windows": [2, 3],
        "sweep": {"axis": "multiplexing_gain", "values": [0.5, 1.0]},
    },
    "optimize-arq": dict(OPT_CONFIG, topology=[4, 1, 3, 2], budget=9),
    "simulate": SIM_CONFIG,
    "validate": SIM_CONFIG,
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_table_to_stdout_and_to_out_file_are_the_same_bytes(
    tmp_path, capsys, command, fmt
):
    cfg = write_config(tmp_path, SMALL_RUNS[command])
    assert main([command, "--config", cfg, "--format", fmt]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / f"table.{fmt}"
    assert main([command, "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL; only runs that emit a config hash import it.
    # The simulator's hop pool is imported by the physical runs that use it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, mharq.cli; "
        "print([m in sys.modules for m in ('hashlib', 'concurrent.futures')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "[False, False]"


def test_asymptotic_single_protocol_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "protocol": "vbl",
            "total_window": 4,
            "rates": [0.5, 1.0],
        },
    )
    code, lines = run_csv(capsys, ["dmdt-asymptotic", "--config", cfg])
    assert code == 0
    assert lines[2] == "0.5,2.57142857"
    assert lines[3] == "1,2"


def test_asymptotic_kernel_refusal_exits_two(tmp_path, capsys):
    # a budget the FBL kernel cannot split fails the whole run as a config
    # problem, before the first rate, not each rate as a gap
    cfg = write_config(
        tmp_path,
        {"topology": [4, 1, 3], "protocol": "fbl", "total_window": 2, "rates": [0.0, 0.5]},
    )
    assert main(["dmdt-asymptotic", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "mharq: config.total_window: protocol 'fbl' needs at least 3 rounds, got 2\n"
    )


def test_rate_grid_refuses_more_rates_than_the_cap(tmp_path, capsys):
    # a tiny step used to expand the grid until memory ran out; a span that
    # overflows to inf is refused the same way
    base = {"topology": [2, 2, 2], "protocol": "vbl", "total_window": 3}
    for spec, reason in (
        ({"step": 1e-300}, "step 1e-300 from 0.0 to 2.0"),
        ({"stop": 1e300, "step": 1e-300}, "step 1e-300 from 0.0 to 1e+300"),
    ):
        cfg = write_config(tmp_path, dict(base, rate_grid=spec))
        assert main(["dmdt-asymptotic", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"mharq: config.rate_grid: {reason} gives more than 1000000 rates\n"
        )


@pytest.mark.parametrize(
    "protocol, budget",
    [
        ("vbl", {"total_window": 4}),
        ("fbl", {"total_window": 4}),
        ("fixed", {"windows": [2, 2]}),
        ("fixed", {"total_window": 4}),
        ("all", {"total_window": 4}),
    ],
)
def test_rate_grid_refuses_repeated_rates(tmp_path, capsys, protocol, budget):
    # a step below the spacing of floats near start repeats a rate
    grid = {"start": 1.0, "stop": 1.0000000000000002, "step": 1e-17}
    cfg = write_config(
        tmp_path, {"topology": [2, 2, 2], "protocol": protocol, **budget, "rate_grid": grid}
    )
    assert main(["dmdt-asymptotic", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "mharq: config.rate_grid: step 1e-17 from 1.0 to 1.0000000000000002 "
        "gives rates that do not strictly increase\n"
    )


@pytest.mark.parametrize(
    "topology, protocol, last",
    [
        ([2, 2, 2], "vbl", "1e-16,4"),
        ([2, 2, 2, 2], "vbl", "1e-16,4"),
        ([2, 2, 2], "all", "1e-16,4,4,8,4"),
    ],
)
def test_asymptotic_vbl_at_a_tiny_rate(tmp_path, capsys, topology, protocol, last):
    # the long-term VBL minimum divided by zero below r/L ~ 1e-16 * min_dim
    cfg = write_config(
        tmp_path,
        {"topology": topology, "protocol": protocol, "total_window": 4, "rates": [0, 1e-16]},
    )
    code, lines = run_csv(capsys, ["dmdt-asymptotic", "--config", cfg])
    assert code == 0
    assert lines[-1] == last


def test_rate_grid_cap_boundary(monkeypatch):
    # on a cap small enough to reach: 5 rates pass, 6 are refused
    monkeypatch.setattr(cli, "_MAX_RATES", 5)
    chk = cli._Checker({"rate_grid": {"stop": 0.4, "step": 0.1}})
    assert len(cli._rate_grid(chk, 1.0)) == 5
    assert chk.errors == []
    chk = cli._Checker({"rate_grid": {"stop": 0.5, "step": 0.1}})
    assert cli._rate_grid(chk, 1.0) is None
    assert chk.errors == [
        "config.rate_grid: step 0.1 from 0.0 to 0.5 gives more than 5 rates"
    ]


def test_total_window_past_the_cap_is_refused(tmp_path, capsys):
    # the short-term VBL, FBL and fixed-window kernels loop over the budget;
    # this one was still running after five seconds
    cfg = write_config(
        tmp_path,
        {"topology": [2, 2, 2], "protocol": "vbl", "channel": "short_term",
         "total_window": 1e9, "rates": [0.5]},
    )
    assert main(["dmdt-asymptotic", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mharq: config.total_window: must be at most 1000, got 1000000000\n"


def test_total_window_cap_boundary(tmp_path, capsys, monkeypatch):
    # on a cap small enough to reach: a budget of 5 runs, 6 is refused;
    # "all" runs the fixed, FBL and VBL kernels on the budget
    monkeypatch.setattr(cli, "_MAX_TOTAL_WINDOW", 5)
    base = {"topology": [2, 2, 2], "protocol": "all", "rates": [0.5]}
    cfg = write_config(tmp_path, dict(base, total_window=5))
    code, lines = run_csv(capsys, ["dmdt-asymptotic", "--config", cfg])
    assert code == 0
    assert len(lines) == 3
    cfg = write_config(tmp_path, dict(base, total_window=6))
    assert main(["dmdt-asymptotic", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "mharq: config.total_window: must be at most 5, got 6\n"
    )


def test_windows_cap_boundary():
    # a window of the cap passes the schema, one block more is refused; a
    # window below one keeps its own reason
    chk = cli._Checker({"windows": [cli._MAX_WINDOW, 1]})
    assert chk.get("windows") == [cli._MAX_WINDOW, 1]
    assert chk.errors == []
    chk = cli._Checker({"windows": [2, cli._MAX_WINDOW + 1]})
    assert chk.get("windows") is None
    assert chk.errors == [
        "config.windows: windows must be at most 1000000 blocks, got 1000001"
    ]
    chk = cli._Checker({"windows": [0, cli._MAX_WINDOW + 1]})
    assert chk.get("windows") is None
    assert chk.errors == ["config.windows: windows must be >= 1"]


@pytest.mark.parametrize("value, shown", [(math.inf, "inf"), (math.nan, "nan")])
def test_integer_key_refuses_nonfinite_floats(tmp_path, capsys, value, shown):
    # JSON Infinity used to raise OverflowError from int(); NaN lost its path
    cfg = write_config(tmp_path, dict(OPT_CONFIG, budget=value))
    assert main(["optimize-arq", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mharq: config.budget: expected an integer, got {shown}\n"


def test_snr_db_overflowing_the_linear_snr_is_refused(tmp_path, capsys):
    # 10 ** (4000 / 10) used to raise OverflowError
    cfg = write_config(tmp_path, dict(OPT_CONFIG, snr_db=4000.0))
    assert main(["optimize-arq", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mharq: config.snr_db: 4000 dB overflows the linear SNR\n"


@pytest.mark.parametrize("snr", [{"snr_linear": 1e308}, {"snr_db": 3082.0}])
def test_optimize_at_a_huge_finite_snr(tmp_path, capsys, snr):
    # 1 + 3 snr overflows on the (1, 3) hop; the outage tails stay finite
    payload = {k: v for k, v in OPT_CONFIG.items() if k != "snr_db"} | snr
    cfg = write_config(tmp_path, payload)
    code, doc = run_json(capsys, ["optimize-arq", "--config", cfg, "--format", "json"])
    assert code == 0
    assert doc["meta"]["best"]["windows"] == [2, 2]
    for row in doc["rows"]:
        assert 0.0 <= row["p_outage"] <= 1.0
        assert row["feasible"] and 0.0 <= row["p_total"] <= 1.0


def test_window_search_refuses_budgets_past_the_row_cap(tmp_path, capsys):
    # each of these ran the window search over C(budget, 2) rows and never
    # finished; now the search refuses before it computes anything, naming
    # the key the budget came from
    refused = "over 2 hops gives more than 1000000 window allocations to enumerate"
    for command, payload, key, budget in (
        ("optimize-arq", dict(OPT_CONFIG, budget=1e30), "budget", int(1e30)),
        (
            "optimize-arq",
            dict(OPT_CONFIG, deadline_blocks=1e300),
            "deadline_blocks",
            int(1e300),
        ),
        (
            "dmdt-finite",
            dict(OPT_CONFIG, sweep={"axis": "total_window", "values": [4, 1e30]}),
            "sweep.values",
            int(1e30),
        ),
    ):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"mharq: config.{key}: budget {budget} {refused}\n"


def test_config_errors_are_reported_together(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"protocol": "laser", "total_window": -3, "mystery": True},
    )
    code = main(["dmdt-asymptotic", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "config.topology" in err
    assert "config.protocol" in err
    assert "config.total_window" in err
    assert "config.mystery" in err
    assert err.count("mharq:") >= 4


def test_unknown_key_is_fatal(tmp_path, capsys):
    cfg = write_config(tmp_path, {"antennas": [2, 2], "extra": 1})
    code = main(["dmt", "--config", cfg])
    assert code == 2
    assert "config.extra" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("optimize-arq", OPT_CONFIG),
        (
            "dmdt-finite",
            {
                "topology": [4, 1, 3],
                "windows": [2, 3],
                "snr_db": 20.0,
                "arrival_mean_blocks": 10.0,
                "deadline_blocks": 5.0,
                "sweep": {"axis": "multiplexing_gain", "values": [0.5]},
            },
        ),
    ],
)
def test_clamp_min_one_is_an_unknown_key(tmp_path, capsys, command, payload):
    # mean service is always counted in whole blocks; there is nothing to clamp
    cfg = write_config(tmp_path, dict(payload, clamp_min_one=False))
    assert main([command, "--config", cfg]) == 2
    assert "config.clamp_min_one: unknown field" in capsys.readouterr().err


def test_workers_is_an_unknown_key(tmp_path, capsys):
    # channel draws are chunked by a fixed uniform count; there is no knob
    cfg = write_config(tmp_path, dict(SIM_CONFIG, workers=3))
    assert main(["simulate", "--config", cfg]) == 2
    assert "config.workers: unknown field" in capsys.readouterr().err


def test_snr_must_be_given_exactly_once(tmp_path, capsys):
    bad = dict(OPT_CONFIG)
    bad["snr_linear"] = 100.0  # alongside snr_db
    cfg = write_config(tmp_path, bad)
    code = main(["optimize-arq", "--config", cfg])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err
    del bad["snr_db"], bad["snr_linear"]
    cfg = write_config(tmp_path, bad)
    assert main(["optimize-arq", "--config", cfg]) == 2


def test_unreadable_configs(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["dmt", "--config", missing]) == 2
    capsys.readouterr()
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["dmt", "--config", str(garbled)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    assert main(["dmt", "--config", str(listy)]) == 2


def test_optimize_reports_best_split(tmp_path, capsys):
    cfg = write_config(tmp_path, OPT_CONFIG)
    code, doc = run_json(capsys, ["optimize-arq", "--config", cfg, "--format", "json"])
    assert code == 0
    best = doc["meta"]["best"]
    assert best["windows"] == [2, 3]
    assert best["p_total"] == pytest.approx(0.10617647, abs=1e-6)
    assert best["threshold_variant"] == "per_receiver"
    # table is ranked: the winning allocation leads
    first = doc["rows"][0]
    assert (first["window_1"], first["window_2"]) == (2, 3)
    assert first["feasible"] is True


def test_optimize_infeasible_exits_three(tmp_path, capsys):
    tight = dict(OPT_CONFIG, arrival_mean_blocks=1.9)
    cfg = write_config(tmp_path, tight)
    code = main(["optimize-arq", "--config", cfg])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_violation_texts_are_formatted_only_for_rows_that_are_printed(
    tmp_path, capsys, monkeypatch
):
    formatted = []
    format_rows = CandidateColumns.violations

    def counting(columns, rows):
        texts = format_rows(columns, rows)
        formatted.extend(texts)
        return texts

    monkeypatch.setattr(CandidateColumns, "violations", counting)
    tight = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=1.9, deadline_blocks=5.0)
    # C(12, 2) = 66 rows, none feasible: the raise formats no text, and the
    # message, once read, lists the first 20
    with pytest.raises(WindowInfeasibleError) as err:
        optimize_windows(Topology([4, 1, 3]), tight, budget=12)
    assert formatted == []
    assert str(err.value).endswith("; and 46 more)")
    assert len(formatted) == finite_snr._LISTED_CANDIDATES
    formatted.clear()
    # a feasible search, an unstable allocation and a sweep with an unstable
    # point print no text
    mixed = FiniteSnrScenario(1.0, 4.0, arrival_mean_blocks=4.0, deadline_blocks=8.0)
    columns = optimize_windows(Topology([4, 1, 3, 2]), mixed).columns
    with pytest.raises(UnstableQueueError):
        message_error(Topology([4, 1, 3]), FixedArq([1, 1]), tight)
    sweep = {
        "topology": [4, 1, 3],
        "windows": [2, 3],
        "snr_db": 20.0,
        "arrival_mean_blocks": 2.05,
        "deadline_blocks": 5.0,
        "sweep": {"axis": "multiplexing_gain", "values": [0.1, 1.0]},
    }
    assert main(["dmdt-finite", "--config", write_config(tmp_path, sweep)]) == 0
    assert formatted == []
    # optimize-arq prints the texts of its infeasible rows alone
    opt = {
        "topology": [4, 1, 3, 2],
        "snr_linear": 1.0,
        "multiplexing_gain": 4.0,
        "arrival_mean_blocks": 4.0,
        "deadline_blocks": 8.0,
    }
    assert main(["optimize-arq", "--config", write_config(tmp_path, opt)]) == 0
    n_infeasible = int(np.count_nonzero(~columns.feasible))
    assert 0 < n_infeasible < len(columns.feasible)
    assert len(formatted) == n_infeasible
    capsys.readouterr()


def test_finite_sweep_flags_unstable_points(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "windows": [2, 3],
            "snr_db": 20.0,
            "arrival_mean_blocks": 2.05,
            "deadline_blocks": 5.0,
            "sweep": {"axis": "multiplexing_gain", "values": [0.1, 1.0]},
        },
    )
    code, doc = run_json(capsys, ["dmdt-finite", "--config", cfg, "--format", "json"])
    assert code == 0
    assert doc["meta"]["unstable_points"] == [1.0]
    stable, unstable = doc["rows"]
    assert stable["p_total"] is not None
    assert unstable["p_outage"] is not None  # outage survives instability
    assert unstable["p_deadline"] is None and unstable["p_total"] is None


def test_finite_sweep_rejects_duplicate_axis_value(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "windows": [2, 3],
            "snr_db": 20.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 5.0,
            "sweep": {"axis": "multiplexing_gain", "values": [0.5, 1.0]},
        },
    )
    code = main(["dmdt-finite", "--config", cfg])
    assert code == 2
    assert "already swept" in capsys.readouterr().err


def test_window_sweep_leaves_infeasible_rows_blank(tmp_path, capsys, monkeypatch):
    def refuse(columns, rows):
        raise AssertionError("a sweep never prints a violation text")

    # budgets 12 and 30 have more candidates than an infeasible search's
    # message lists, and the sweep reads none of them
    monkeypatch.setattr(CandidateColumns, "violations", refuse)
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "multiplexing_gain": 1.0,
            "snr_db": 20.0,
            "arrival_mean_blocks": 1.9,
            "deadline_blocks": 5.0,
            "sweep": {"axis": "total_window", "values": [2, 4, 12, 30]},
        },
    )
    code, lines = run_csv(capsys, ["dmdt-finite", "--config", cfg])
    assert code == 0
    assert lines[1] == "total_window,window_1,window_2,p_outage,p_deadline,p_total"
    assert lines[2:] == ["2,,,,,", "4,,,,,", "12,,,,,", "30,,,,,"]


def test_finite_sweep_reads_the_small_snr_limit(tmp_path, capsys):
    # 1 + m_rx snr rounds to 1 below an SNR of about 1e-16, and m_tx / snr is
    # inf at a subnormal one; the outage must still tend to its limit, about
    # 0.2232 here, and print finite numbers
    outage = {}
    for snr in (1e-9, 1e-15, 1e-300, 5e-324):
        cfg = write_config(
            tmp_path,
            {
                "topology": [4, 1, 3],
                "windows": [2, 3],
                "snr_linear": snr,
                "arrival_mean_blocks": 10.0,
                "deadline_blocks": 25.0,
                "sweep": {"axis": "multiplexing_gain", "values": [1.0]},
            },
        )
        code, lines = run_csv(capsys, ["dmdt-finite", "--config", cfg])
        assert code == 0
        assert lines[1] == "multiplexing_gain,p_outage,p_deadline,p_total"
        cells = [float(cell) for cell in lines[2].split(",")]
        assert all(math.isfinite(cell) for cell in cells)
        outage[snr] = cells[1]
    assert outage[5e-324] == pytest.approx(0.2232, abs=1e-4)
    for snr in (1e-9, 1e-15, 1e-300):
        assert outage[snr] == pytest.approx(outage[5e-324], rel=1e-6)


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    capsys.readouterr()
    first = open(out1, "rb").read()
    assert first == open(out2, "rb").read()
    assert b"seed=0" in first


def test_simulate_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    code, doc = run_json(
        capsys, ["simulate", "--config", cfg, "--format", "json", "--seed", "5"]
    )
    assert code == 0
    assert doc["meta"]["seed"] == 5
    base_code, base_doc = run_json(capsys, ["simulate", "--config", cfg, "--format", "json"])
    assert base_code == 0
    assert base_doc["meta"]["seed"] == 0
    assert base_doc["rows"] != doc["rows"]


def test_simulate_reports_conserved_counts(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    code, doc = run_json(capsys, ["simulate", "--config", cfg, "--format", "json"])
    assert code == 0
    metrics = {row["metric"]: row["value"] for row in doc["rows"]}
    assert metrics["analyzed"] == 2000
    assert (
        metrics["delivered"] + metrics["outage_drops"] + metrics["deadline_drops"]
        == metrics["analyzed"]
    )
    assert metrics["p_outage"] == pytest.approx(
        metrics["outage_drops"] / metrics["analyzed"]
    )


def test_validate_physical_link(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, message_count=20000))
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    rows = {row["check"]: row for row in doc["rows"]}
    assert rows["outage_hop_1"]["verdict"] == "ok"
    assert rows["outage_total"]["verdict"] == "ok"
    assert rows["outage_hop_1"]["analytic"] == pytest.approx(0.339140199, abs=1e-6)
    assert abs(rows["outage_hop_1"]["z_score"]) <= 4.0


@pytest.mark.parametrize("code_model", ["ostbc", "logdet"])
def test_validate_at_a_huge_finite_snr(tmp_path, capsys, code_model):
    # snr * ||H||^2 and 1 + m_rx * snr overflow at 1e308; the simulated
    # capacities and target rate must not
    payload = dict(
        SIM_CONFIG,
        topology=[1, 3, 1],
        windows=[1, 1],
        snr_linear=1e308,
        message_count=20000,
        code_model=code_model,
    )
    cfg = write_config(tmp_path, payload)
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    assert [row["verdict"] for row in doc["rows"]] == ["ok", "ok", "ok"]


@pytest.mark.parametrize("snr", [1e-300, 5e-324])
@pytest.mark.parametrize("code_model", ["ostbc", "logdet"])
def test_validate_at_a_tiny_snr(tmp_path, capsys, snr, code_model):
    # 1 + m_rx * snr and 1 + snr * ||H||^2 / m_tx round to 1 here; the coded
    # and rank-1 hops must still decode at the small-SNR limit the analysis
    # reads, not at a target rate of 0
    payload = dict(
        SIM_CONFIG,
        topology=[4, 1, 3],
        windows=[2, 3],
        snr_linear=snr,
        deadline_blocks=25.0,
        message_count=20000,
        code_model=code_model,
    )
    cfg = write_config(tmp_path, payload)
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    assert [row["verdict"] for row in doc["rows"]] == ["ok", "ok", "ok"]
    assert all(row["empirical"] > 0.05 for row in doc["rows"])


def _smoke_validate_configs(count, seed):
    """Seeded physical validate configs: rank-1 and rank-2 log-det hops and
    ostbc hops, windows 1-3, r in [0.5, 3], SNR in [0.1, 100], 200 messages.
    """
    rng = random.Random(seed)
    chains = {"logdet": [[1, 1], [1, 3, 1], [2, 2], [2, 2, 2], [3, 2, 1], [2, 4, 2]]}
    chains["ostbc"] = [[1, 1], [2, 2, 2], [4, 1, 3], [3, 3, 4]]
    for _ in range(count):
        code_model = rng.choice(sorted(chains))
        topology = rng.choice(chains[code_model])
        yield dict(
            SIM_CONFIG,
            topology=topology,
            windows=[rng.randint(1, 3) for _ in topology[1:]],
            snr_linear=10.0 ** rng.uniform(-1.0, 2.0),
            multiplexing_gain=rng.uniform(0.5, 3.0),
            message_count=200,
            code_model=code_model,
            seed=rng.randrange(2**32),
        )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_validate_smoke_exits_cleanly(tmp_path, capsys, fmt):
    # every run prints a table or refuses with a reason: no traceback
    codes = []
    for payload in _smoke_validate_configs(100, seed=42):
        cfg = write_config(tmp_path, payload)
        codes.append(main(["validate", "--config", cfg, "--format", fmt]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2, 3), payload
        assert all(line.startswith("mharq: ") for line in err.splitlines()), err
    assert codes.count(0) >= 75  # the draws mostly reach a table


def test_validate_total_keeps_outages_below_the_rounding_of_one(tmp_path, capsys):
    # each (2, 2) log-det hop's outage at SNR 1e308 is subnormal, so every
    # 1 - p rounds to 1; the total is still about their sum, not 0
    payload = dict(
        SIM_CONFIG,
        topology=[2, 2, 2],
        windows=[1, 1],
        snr_linear=1e308,
        code_model="logdet",
    )
    cfg = write_config(tmp_path, payload)
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    hop_1, hop_2, total = doc["rows"]
    assert 0.0 < hop_1["analytic"] < 1e-300 and 0.0 < hop_2["analytic"] < 1e-300
    want = hop_1["analytic"] + hop_2["analytic"]
    assert total["analytic"] == pytest.approx(want, rel=1e-9, abs=0.0)
    assert total["sigma"] > 0.0


def test_simulate_refuses_times_past_the_largest_float(tmp_path, capsys):
    payload = dict(
        SIM_CONFIG,
        topology=[4, 1, 3],
        windows=[2, 3],
        arrival_mean_blocks=1e308,
        service_mode="markovian",
    )
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mharq: config: ")


def test_validate_hop_without_attempts(tmp_path, capsys):
    # at r = 40 and SNR 1 every message is lost on hop 1, so hop 2 sees none
    payload = dict(SIM_CONFIG, topology=[1, 1, 1], windows=[1, 1], multiplexing_gain=40.0)
    cfg = write_config(tmp_path, payload)
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    row = {row["check"]: row for row in doc["rows"]}["outage_hop_2"]
    assert row["samples"] == 0
    assert row["empirical"] is None and row["z_score"] is None
    assert row["verdict"] == "no_samples"


def test_validate_rejects_short_term_physical(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, channel="short_term"))
    code = main(["validate", "--config", cfg])
    assert code == 2
    assert "long_term" in capsys.readouterr().err


def test_validate_refuses_short_term_physical_before_simulating(
    tmp_path, capsys, monkeypatch
):
    def no_simulation(sim_cfg):
        raise AssertionError("validate simulated a config it refuses")

    monkeypatch.setattr(cli, "run_network_sim", no_simulation)
    monkeypatch.setattr(cli, "decode_chain", no_simulation)
    cfg = write_config(tmp_path, dict(SIM_CONFIG, channel="short_term"))
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "mharq: config.channel: the analytic outage references assume "
        "long_term fading; simulate short_term without validate\n"
    )


class QueueRan(Exception):
    pass


def test_only_markovian_validate_runs_a_queue(tmp_path, capsys, monkeypatch):
    # physical checks read outage counts alone, so physical validate runs
    # the decode stage and no tandem; the markovian tail fit needs delays
    def no_queue(*args):
        raise QueueRan

    monkeypatch.setattr(netsim, "_tandem_delays", no_queue)
    physical = write_config(tmp_path, dict(SIM_CONFIG, warmup_count=100))
    assert main(["validate", "--config", physical]) == 0
    assert capsys.readouterr().err == ""
    markovian = write_config(tmp_path, dict(MARKOV_VALIDATE, message_count=2000, warmup_count=0))
    with pytest.raises(QueueRan):
        main(["validate", "--config", markovian])


@pytest.mark.parametrize(
    "payload, code, err",
    [
        # stage 0 serves 2.5 + 2.5 blocks against a mean inter-arrival of 4
        (
            {
                "topology": [2, 2, 2, 2],
                "windows": [2, 2, 2],
                "snr_linear": 10.0,
                "multiplexing_gain": 1.0,
                "arrival_mean_blocks": 4.0,
                "deadline_blocks": 25.0,
                "message_count": 2_000_000,
                "service_mode": "markovian",
                "service_means": [2.5, 2.5, 5.5],
            },
            3,
            "mharq: infeasible: stage 0 is unstable: mean occupancy 5 blocks "
            "against mean inter-arrival 4\n",
        ),
        # the log-det outage reference is exact up to rank 2, and a rank-3
        # hop refuses it as a config.code_model line
        (
            {
                "topology": [4, 3, 4],
                "windows": [2, 2],
                "snr_linear": 10.0,
                "multiplexing_gain": 1.0,
                "arrival_mean_blocks": 10.0,
                "deadline_blocks": 25.0,
                "message_count": 400_000,
                "code_model": "logdet",
            },
            2,
            "mharq: config.code_model: the log-det outage reference is exact up to "
            "rank 2, not at rank 3 (4x3 hop); code_model ostbc has an exact outage "
            "reference at every rank\n",
        ),
    ],
    ids=["markovian-unstable", "logdet-rank-3"],
)
def test_validate_refuses_its_reference_before_simulating(
    tmp_path, capsys, monkeypatch, payload, code, err
):
    def no_simulation(sim_cfg):
        raise AssertionError("validate simulated a config whose reference it refuses")

    monkeypatch.setattr(cli, "run_network_sim", no_simulation)
    monkeypatch.setattr(cli, "decode_chain", no_simulation)
    cfg = write_config(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == code
    stderr = capsys.readouterr().err
    assert stderr == err


def test_validate_markovian_exponent(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "windows": [2, 3],
            "snr_db": 20.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 25.0,
            "message_count": 40000,
            "warmup_count": 1000,
            "service_mode": "markovian",
            "service_means": [2.5, 2.5],
            "seed": 3,
        },
    )
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    row = doc["rows"][0]
    assert row["check"] == "delay_exponent"
    assert row["analytic"] == pytest.approx(0.1)
    assert row["verdict"] == "ok"
    assert abs(row["empirical"] - 0.1) <= 0.015
    # sigma is the batch-jackknife stderr, so z is on the scale of the
    # seed-to-seed spread rather than several times past it
    assert math.isfinite(row["sigma"]) and row["sigma"] > 0.0
    assert math.isfinite(row["z_score"]) and row["z_score"] > 0.0
    assert row["z_score"] == pytest.approx(
        (row["empirical"] - row["analytic"]) / row["sigma"]
    )
    assert abs(row["z_score"]) <= 3.0


def test_validate_markovian_holds_two_copies_of_the_delays(tmp_path, capsys):
    # the returned delays and their sorted copy are 7.6 MiB each at 10**6
    # messages; the tandem's chunk buffers and the fit come on top, and a
    # third copy for the quantile would add another 7.6 MiB
    cfg = write_config(
        tmp_path,
        {
            "topology": [4, 1, 3],
            "windows": [2, 3],
            "snr_db": 20.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 25.0,
            "message_count": 1_000_000,
            "service_mode": "markovian",
            "service_means": [2.5, 2.5],
            "seed": 3,
        },
    )
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["validate", "--config", cfg]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2**20
    assert ",ok\n" in capsys.readouterr().out


MARKOV_VALIDATE = {
    "topology": [2, 2, 2, 2],
    "windows": [2, 2, 2],
    "snr_db": 20.0,
    "multiplexing_gain": 1.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 25.0,
    "message_count": 40000,
    "warmup_count": 1000,
    "service_mode": "markovian",
    "service_means": [2.5, 2.5, 5.5],
}


def spy_on_tail_fits(monkeypatch):
    """Record every deadline grid validate fits and what each fit raised."""
    fits = []
    fit = netsim.estimate_delay_exponent

    def recording(delays, grid):
        fits.append([list(grid), None])
        try:
            return fit(delays, grid)
        except ValueError as exc:
            fits[-1][1] = exc
            raise

    monkeypatch.setattr(netsim, "estimate_delay_exponent", recording)
    return fits


def test_validate_markovian_refits_tail_from_one_excursion(
    tmp_path, capsys, monkeypatch
):
    # at this seed every delay past the top grid point comes from a single
    # queue excursion, so no batch-jackknife stderr exists for that grid;
    # validate refits on a grid that ends at the largest usable deadline
    fits = spy_on_tail_fits(monkeypatch)
    cfg = write_config(tmp_path, dict(MARKOV_VALIDATE, seed=5))
    code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert code == 0
    (first, refused), (second, refit_error) = fits
    assert refused.largest_usable is not None
    assert f"largest usable deadline is {refused.largest_usable:g}" in str(refused)
    assert refit_error is None
    assert second[0] == first[0]
    assert second[-1] == refused.largest_usable
    assert len(second) == 8
    assert doc["rows"][0]["check"] == "delay_exponent"
    assert doc["rows"][0]["verdict"] == "ok"


def test_validate_markovian_refuses_tail_from_one_excursion(
    tmp_path, capsys, monkeypatch
):
    # the deepest 1.5 % of the delays sit in one batch, so beyond the 0.9
    # quantile no deadline of the grid has a jackknife stderr to refit on,
    # and validate refuses rather than fit
    simulate = cli.run_network_sim

    def one_burst(config):
        result = simulate(config)
        delays = np.random.default_rng(0).random(result.delays.size)
        delays[:150] += 100.0
        return dataclasses.replace(result, delays=delays)

    monkeypatch.setattr(cli, "run_network_sim", one_burst)
    fits = spy_on_tail_fits(monkeypatch)
    cfg = write_config(tmp_path, dict(MARKOV_VALIDATE, message_count=12000, seed=0))
    assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config.message_count" in err
    assert "largest usable deadline" in err
    assert "falls in one of 20 batches" in err
    ((grid, refused),) = fits
    assert refused.largest_usable == grid[0]


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("base", [SIM_CONFIG, MARKOV_VALIDATE], ids=["physical", "markovian"])
def test_message_count_past_memory_is_a_config_error(tmp_path, capsys, command, base):
    # 10**18 messages take at least 10**18 bytes, past any 64-bit address
    # space, so the first array allocation fails at once; from 2**60 numpy
    # refuses the array's size itself, and 2**63 is past its largest dimension
    for count in (10**18, 2**60, 2**63):
        cfg = write_config(tmp_path, dict(base, message_count=count))
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"mharq: config.message_count: {count} messages do not fit in memory\n"


def test_validate_markovian_verdict_follows_z(tmp_path, capsys):
    # on the two-stage chain the fitted exponent often lies more than 15 %
    # from the analytic one while |z| stays small; the verdict goes by z.
    # Seeds 5 and 7 fit only on the refit grid.
    for seed in range(12):
        cfg = write_config(tmp_path, dict(MARKOV_VALIDATE, seed=seed))
        code, doc = run_json(capsys, ["validate", "--config", cfg, "--format", "json"])
        assert code == 0, seed
        row = doc["rows"][0]
        assert row["verdict"] == "ok", (seed, row)


def test_seed_flag_ignored_outside_simulation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"antennas": [2, 2]})
    code, lines = run_csv(capsys, ["dmt", "--config", cfg, "--seed", "9"])
    assert code == 0
    assert "seed=" not in lines[0]


# cells of every type a table holds, with the values whose text is easy to
# get wrong: non-finite floats (empty / null), -0.0 beside 0.0, subnormals,
# bools beside the ints they equal, and strings csv must quote or json escape
_FLOAT = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e308]
)
_CELLS = [
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    _FLOAT,
    st.text(),
    st.sampled_from(
        ["a,b", 'say "hi"', "two\nlines", "cr\r", "tab\t", "", " ", "%s", "nan", "é€😀", "\x00\x1f"]
    ),
]
_COLUMN = st.one_of(
    *(st.lists(cell, min_size=1, max_size=6) for cell in _CELLS),
    st.lists(st.one_of(*_CELLS), min_size=1, max_size=6),
)
# the numpy columns optimize-arq hands over: windows, masks and floats
_ARRAY = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    st.lists(st.booleans(), min_size=1, max_size=6).map(lambda v: np.array(v, dtype=bool)),
    st.lists(_FLOAT, min_size=1, max_size=6).map(lambda v: np.array(v, dtype=np.float64)),
)


@st.composite
def _tables(draw):
    """Column names (repeats allowed) and equally long columns of cells."""
    name = st.sampled_from(["mu_1", "mu_10", "mu_2", "%d"]) | st.text()
    names = draw(st.lists(name, max_size=5))
    n_rows = draw(st.integers(0, 6))
    # repeating a drawn column gives the repeated values real tables have
    columns = []
    for _ in names:
        column = draw(_COLUMN | _ARRAY)
        if isinstance(column, np.ndarray):
            columns.append(np.resize(column, n_rows))
        else:
            columns.append((column * n_rows)[:n_rows])
    return names, columns


@settings(max_examples=300, deadline=None)
@given(
    _tables(),
    st.sampled_from(["csv", "json"]),
    st.none() | st.integers(0, 2**64 - 1),
    st.dictionaries(
        st.text(max_size=3), st.none() | st.floats() | st.lists(st.floats(), max_size=2)
    ),
    st.sampled_from([2, cli._ROW_BLOCK]),
)
# csv.writer quotes the empty cell of a one-column row, so its empty line
# is not read back as no row
@example((["only"], [np.array([1.0, math.nan, 0.0])]), "csv", None, {}, 2)
def test_emit_matches_the_stdlib_writer(table, fmt, seed, meta, block):
    columns, data = table
    # the stdlib writer sees each cell as the Python value an array holds
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in data]
    got, want = io.StringIO(), io.StringIO()
    # blocks of two rows mix blocks that csv.writer must quote and blocks
    # that need no quoting
    with mock.patch.object(cli, "_ROW_BLOCK", block):
        table = cli._Table(columns, data, meta, seed)
        cli._emit(got, fmt, "optimize-arq", {"budget": 3}, table)
    stdlib_emit(want, fmt, "optimize-arq", {"budget": 3}, columns, list(zip(*cells)), meta, seed)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("text", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
def test_emit_quotes_only_the_block_that_needs_it(text):
    # in blocks of two rows only the last holds a cell csv.writer must quote:
    # that block, and no other, goes through it
    real = csv.writer
    quoted = []

    class Spy:
        def __init__(self, stream, **kwargs):
            self.writer = real(stream, **kwargs)
            self.writerow = self.writer.writerow

        def writerows(self, rows):
            rows = list(rows)
            quoted.append(rows)
            self.writer.writerows(rows)

    columns = ["p", "name", "ok"]
    data = [np.array([0.5, 0.5, 0.25, 0.5]), ["x", "y", "x", text], [True] * 4]
    got, want = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_ROW_BLOCK", 2), mock.patch.object(csv, "writer", Spy):
        cli._emit(got, "csv", "optimize-arq", {"budget": 3}, cli._Table(columns, data))
    assert quoted == [[("0.25", "x", "true"), ("0.5", text, "true")]]
    rows = list(zip(data[0].tolist(), data[1], data[2]))
    stdlib_emit(want, "csv", "optimize-arq", {"budget": 3}, columns, rows, {}, None)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_formats_each_distinct_value_once_a_block(fmt):
    # the six-node budget-18 table, in blocks of 500 rows: within a block,
    # each distinct float of a column (told apart by its bits) is formatted
    # once, however many rows repeat it
    config = {
        "topology": [2] * 6,
        "budget": 18,
        "snr_linear": 100.0,
        "multiplexing_gain": 1.0,
        "arrival_mean_blocks": 10.0,
        "deadline_blocks": 25.0,
    }
    table = cli._run_optimize(config, None)
    texts = {"csv": cli._CSV_TEXT, "json": cli._JSON_TEXT}[fmt]
    calls = []
    text = texts[float]
    block = 500
    got, want = io.StringIO(), io.StringIO()
    with mock.patch.dict(texts, {float: lambda v: calls.append(v) or text(v)}):
        with mock.patch.object(cli, "_ROW_BLOCK", block):
            cli._emit(got, fmt, "optimize-arq", config, table)
    floats = [c for c in table.data if getattr(c, "dtype", None) == np.float64]
    rows = len(table.data[0])
    distinct = sum(
        np.unique(column[lo : lo + block].view(np.uint64)).size
        for column in floats
        for lo in range(0, rows, block)
    )
    assert rows == 8568 and len(floats) == 8
    assert 0 < len(calls) <= distinct < rows
    # the block size moves no byte
    cli._emit(want, fmt, "optimize-arq", config, table)
    assert got.getvalue() == want.getvalue()
