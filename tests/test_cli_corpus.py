"""Golden corpus of the command line: configs, exit codes and full outputs.

Every case runs through mharq.cli.main three ways (csv, --format json and
--seed 7) and is held against tests/cli_corpus.json: the exit code and the
full stderr always, and the full stdout for the paths whose code moved when
the config schema became one field table (the three dmdt-finite sweep axes
and dmdt-asymptotic's fixed protocol with explicit windows).  The corpus
reaches every error path of the schema: missing, mistyped, out-of-choice
and failed-check keys, unknown keys at the top level and inside rate_grid
and sweep, and every cross-field rule.

The expectations were recorded on the commit before that change.  To
record them again from a checkout, run

    PYTHONPATH=src python tests/test_cli_corpus.py > tests/cli_corpus.json
"""

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mharq.cli import main

GOLDEN = Path(__file__).with_name("cli_corpus.json")

MODES = {"csv": [], "json": ["--format", "json"], "seed": ["--seed", "7"]}

FINITE = {
    "topology": [4, 1, 3],
    "windows": [2, 3],
    "snr_db": 20.0,
    "multiplexing_gain": 1.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 5.0,
}
OPT = {k: v for k, v in FINITE.items() if k != "windows"}
SIM = {
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
MARKOV = {
    "topology": [4, 1, 3],
    "windows": [2, 3],
    "snr_db": 20.0,
    "multiplexing_gain": 1.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 25.0,
    "message_count": 20000,
    "warmup_count": 500,
    "service_mode": "markovian",
    "seed": 3,
}
ASYM = {"topology": [2, 2, 2], "protocol": "vbl", "total_window": 3, "rates": [0.5]}


def _drop(cfg, *keys):
    return {k: v for k, v in cfg.items() if k not in keys}


def _mg_sweep(values):
    return {"axis": "multiplexing_gain", "values": values}


# (case id, subcommand, config, stdout asserted)
CASES = [
    # dmt
    ("dmt-default", "dmt", {"antennas": [2, 2]}, False),
    (
        "dmt-grid-power",
        "dmt",
        {"antennas": [3, 2], "multiplexing_gains": [0, 0.5, 1], "power_exponent": 2},
        False,
    ),
    ("dmt-missing", "dmt", {}, False),
    ("dmt-antennas-type", "dmt", {"antennas": "2x2"}, False),
    ("dmt-antennas-bools", "dmt", {"antennas": [True, 2]}, False),
    ("dmt-antennas-check", "dmt", {"antennas": [2, 9]}, False),
    (
        "dmt-gains-decreasing",
        "dmt",
        {"antennas": [2, 2], "multiplexing_gains": [1, 0.5]},
        False,
    ),
    (
        "dmt-power-unknown",
        "dmt",
        {"antennas": [2, 2], "power_exponent": -1, "extra": 1},
        False,
    ),
    ("dmt-power-below-one", "dmt", {"antennas": [2, 2], "power_exponent": 0.5}, False),
    # dmdt-asymptotic
    (
        "asym-fixed-windows",
        "dmdt-asymptotic",
        {
            "topology": [4, 1, 3],
            "protocol": "fixed",
            "windows": [2, 2],
            "rates": [0, 0.5, 1],
        },
        True,
    ),
    (
        "asym-fixed-windows-grid-power",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2],
            "protocol": "fixed",
            "windows": [1, 3],
            "power_exponent": 2,
            "rate_grid": {"start": 0.1, "stop": 1.5, "step": 0.25},
        },
        True,
    ),
    (
        "asym-fixed-windows-default-grid",
        "dmdt-asymptotic",
        {
            "topology": [3, 1, 2],
            "protocol": "fixed",
            "windows": [3, 1],
            "channel": "short_term",
        },
        True,
    ),
    (
        "asym-fixed-windows-power-below-one",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2],
            "protocol": "fixed",
            "windows": [1, 1],
            "power_exponent": 0.5,
        },
        True,
    ),
    (
        "asym-fixed-total",
        "dmdt-asymptotic",
        {
            "topology": [4, 1, 3],
            "protocol": "fixed",
            "total_window": 4,
            "rates": [0.5, 1],
        },
        False,
    ),
    (
        "asym-all",
        "dmdt-asymptotic",
        {
            "topology": [4, 1, 3],
            "protocol": "all",
            "total_window": 4,
            "rates": [0, 1],
            "allow_zero_rounds": True,
        },
        False,
    ),
    (
        "asym-fbl-grid",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2],
            "protocol": "fbl",
            "total_window": 3,
            "rate_grid": {"stop": 2, "step": 0.5},
        },
        False,
    ),
    (
        "asym-vbl-four-nodes",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2, 2],
            "protocol": "vbl",
            "total_window": 5,
            "rates": [0.25, 0.5],
        },
        False,
    ),
    ("asym-missing", "dmdt-asymptotic", {}, False),
    (
        "asym-bad-choices",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2],
            "protocol": "laser",
            "channel": "medium",
            "total_window": 3,
        },
        False,
    ),
    ("asym-total-not-int", "dmdt-asymptotic", dict(ASYM, total_window=2.5), False),
    ("asym-total-not-positive", "dmdt-asymptotic", dict(ASYM, total_window=0), False),
    (
        "asym-fbl-needs-total",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fbl"},
        False,
    ),
    (
        "asym-fixed-both",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2],
            "protocol": "fixed",
            "windows": [1, 1],
            "total_window": 2,
        },
        False,
    ),
    (
        "asym-fixed-neither",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fixed"},
        False,
    ),
    (
        "asym-fbl-four-nodes",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2, 2], "protocol": "fbl", "total_window": 3},
        False,
    ),
    (
        "asym-vbl-two-nodes",
        "dmdt-asymptotic",
        {"topology": [2, 2], "protocol": "vbl", "total_window": 3},
        False,
    ),
    ("asym-vbl-windows", "dmdt-asymptotic", dict(ASYM, windows=[1, 2]), False),
    (
        "asym-zero-rounds-vbl",
        "dmdt-asymptotic",
        dict(ASYM, allow_zero_rounds=True),
        False,
    ),
    (
        "asym-zero-rounds-type",
        "dmdt-asymptotic",
        dict(ASYM, protocol="fbl", allow_zero_rounds=1),
        False,
    ),
    (
        "asym-windows-count",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fixed", "windows": [1, 2, 3]},
        False,
    ),
    (
        "asym-windows-check",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fixed", "windows": [0, 2]},
        False,
    ),
    ("asym-rates-and-grid", "dmdt-asymptotic", dict(ASYM, rate_grid={}), False),
    ("asym-rates-decreasing", "dmdt-asymptotic", dict(ASYM, rates=[0.5, 0.2]), False),
    ("asym-rates-negative", "dmdt-asymptotic", dict(ASYM, rates=[-0.5, 0.2]), False),
    (
        "asym-rates-infinite",
        "dmdt-asymptotic",
        dict(ASYM, rates=[0.1, float("inf")]),
        False,
    ),
    ("asym-rates-empty", "dmdt-asymptotic", dict(ASYM, rates=[]), False),
    (
        "asym-grid-nested-errors",
        "dmdt-asymptotic",
        dict(
            _drop(ASYM, "rates"),
            rate_grid={"start": -1, "stop": "x", "step": 0, "extra": 1},
        ),
        False,
    ),
    (
        "asym-grid-stop-below-start",
        "dmdt-asymptotic",
        dict(_drop(ASYM, "rates"), rate_grid={"start": 1, "stop": 0.5}),
        False,
    ),
    (
        "asym-grid-not-object",
        "dmdt-asymptotic",
        dict(_drop(ASYM, "rates"), rate_grid=[0, 1]),
        False,
    ),
    ("asym-topology-short", "dmdt-asymptotic", dict(ASYM, topology=[1]), False),
    (
        "asym-topology-antennas",
        "dmdt-asymptotic",
        dict(ASYM, topology=[9, 1, 2]),
        False,
    ),
    ("asym-power-string", "dmdt-asymptotic", dict(ASYM, power_exponent="1"), False),
    (
        "asym-power-nan",
        "dmdt-asymptotic",
        dict(ASYM, power_exponent=float("nan")),
        False,
    ),
    ("asym-unknown", "dmdt-asymptotic", dict(ASYM, mystery=True), False),
    # dmdt-finite
    (
        "finite-mg-unstable-point",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            arrival_mean_blocks=2.05,
            sweep=_mg_sweep([0.1, 1.0]),
        ),
        True,
    ),
    (
        "finite-mg-plain-coded",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            threshold_variant="plain",
            spatial_code_rate=0.5,
            sweep=_mg_sweep([0, 0.25, 0.5]),
        ),
        True,
    ),
    (
        "finite-deadline",
        "dmdt-finite",
        dict(
            _drop(FINITE, "deadline_blocks", "snr_db"),
            snr_linear=100.0,
            sweep={"axis": "deadline_blocks", "values": [1, 5, 20.5]},
        ),
        True,
    ),
    (
        "finite-deadline-unstable",
        "dmdt-finite",
        dict(
            _drop(FINITE, "deadline_blocks"),
            arrival_mean_blocks=2.05,
            sweep={"axis": "deadline_blocks", "values": [3, 8]},
        ),
        True,
    ),
    (
        "finite-total-window",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            arrival_mean_blocks=3.0,
            sweep={"axis": "total_window", "values": [2, 3, 5]},
        ),
        True,
    ),
    (
        "finite-total-window-three-hops",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            topology=[2, 2, 2, 2],
            threshold_variant="plain",
            sweep={"axis": "total_window", "values": [3, 6]},
        ),
        True,
    ),
    (
        "finite-total-window-budget-short",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            sweep={"axis": "total_window", "values": [1, 4]},
        ),
        True,
    ),
    ("finite-sweep-missing", "dmdt-finite", FINITE, False),
    ("finite-sweep-not-object", "dmdt-finite", dict(FINITE, sweep=[0.5]), False),
    (
        "finite-sweep-nested-errors",
        "dmdt-finite",
        dict(FINITE, sweep={"axis": "snr", "values": [2, 1], "step": 1}),
        False,
    ),
    ("finite-sweep-empty", "dmdt-finite", dict(FINITE, sweep={}), False),
    (
        "finite-sweep-values-type",
        "dmdt-finite",
        dict(_drop(FINITE, "multiplexing_gain"), sweep=_mg_sweep([True, 2])),
        False,
    ),
    (
        "finite-mg-already-swept",
        "dmdt-finite",
        dict(FINITE, sweep=_mg_sweep([0.5, 1.0])),
        False,
    ),
    (
        "finite-deadline-already-swept",
        "dmdt-finite",
        dict(FINITE, sweep={"axis": "deadline_blocks", "values": [2, 3]}),
        False,
    ),
    (
        "finite-windows-already-swept",
        "dmdt-finite",
        dict(FINITE, sweep={"axis": "total_window", "values": [2.5, 4]}),
        False,
    ),
    (
        "finite-mg-values-negative",
        "dmdt-finite",
        dict(_drop(FINITE, "multiplexing_gain"), sweep=_mg_sweep([-1, 0.5])),
        False,
    ),
    (
        "finite-deadline-values-short",
        "dmdt-finite",
        dict(
            _drop(FINITE, "deadline_blocks"),
            sweep={"axis": "deadline_blocks", "values": [0.5, 2]},
        ),
        False,
    ),
    (
        "finite-total-window-values-zero",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            sweep={"axis": "total_window", "values": [0, 3]},
        ),
        False,
    ),
    (
        "finite-bad-variant-missing-windows",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows", "multiplexing_gain"),
            threshold_variant="loose",
            sweep=_mg_sweep([0.5]),
        ),
        False,
    ),
    (
        "finite-snr-both",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            snr_linear=5.0,
            sweep=_mg_sweep([0.5]),
        ),
        False,
    ),
    (
        "finite-snr-neither-bad-fields",
        "dmdt-finite",
        dict(
            _drop(FINITE, "snr_db", "multiplexing_gain", "arrival_mean_blocks"),
            spatial_code_rate=1.5,
            deadline_blocks=0.5,
            sweep=_mg_sweep([0.5]),
        ),
        False,
    ),
    (
        "finite-snr-underflow",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            snr_db=-4000.0,
            sweep=_mg_sweep([0.5]),
        ),
        False,
    ),
    (
        "finite-snr-underflow-unknown",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            snr_db=-4000.0,
            clamp_min_one=False,
            sweep=_mg_sweep([0.5]),
        ),
        False,
    ),
    # optimize-arq
    ("opt-default-budget", "optimize-arq", OPT, False),
    (
        "opt-budget-plain",
        "optimize-arq",
        {
            "topology": [2, 2, 2, 2],
            "snr_db": 10.0,
            "multiplexing_gain": 0.5,
            "arrival_mean_blocks": 8.0,
            "deadline_blocks": 6.0,
            "budget": 5,
            "threshold_variant": "plain",
        },
        False,
    ),
    ("opt-infeasible", "optimize-arq", dict(OPT, arrival_mean_blocks=1.9), False),
    ("opt-budget-short", "optimize-arq", dict(OPT, budget=1), False),
    ("opt-budget-zero", "optimize-arq", dict(OPT, budget=0), False),
    ("opt-budget-string", "optimize-arq", dict(OPT, budget="5"), False),
    (
        "opt-missing",
        "optimize-arq",
        _drop(OPT, "multiplexing_gain", "arrival_mean_blocks", "deadline_blocks"),
        False,
    ),
    ("opt-windows-unknown", "optimize-arq", dict(OPT, windows=[2, 3]), False),
    (
        "opt-bad-fields",
        "optimize-arq",
        dict(
            OPT,
            deadline_blocks=0.5,
            arrival_mean_blocks=-1,
            spatial_code_rate=0,
            threshold_variant=3,
        ),
        False,
    ),
    ("opt-snr-underflow", "optimize-arq", dict(OPT, snr_db=-4000.0), False),
    (
        "opt-snr-underflow-unknown",
        "optimize-arq",
        dict(OPT, snr_db=-4000.0, clamp_min_one=False),
        False,
    ),
    # simulate
    ("sim-physical", "simulate", SIM, False),
    (
        "sim-short-term-logdet",
        "simulate",
        dict(
            SIM,
            topology=[2, 2, 2],
            windows=[2, 2],
            code_model="logdet",
            channel="short_term",
            snr_linear=10.0,
            arrival_mean_blocks=6.0,
            message_count=1000,
        ),
        False,
    ),
    (
        "sim-markovian-means",
        "simulate",
        dict(MARKOV, message_count=3000, warmup_count=100, service_means=[2.5, 2.5]),
        False,
    ),
    (
        "sim-markovian-derived-means",
        "simulate",
        dict(MARKOV, message_count=3000),
        False,
    ),
    ("sim-missing", "simulate", _drop(SIM, "message_count", "windows"), False),
    (
        "sim-bad-choices",
        "simulate",
        dict(SIM, channel="slow", service_mode="fluid", code_model="turbo"),
        False,
    ),
    ("sim-seed-range", "simulate", dict(SIM, seed=2**64), False),
    ("sim-warmup-too-long", "simulate", dict(SIM, warmup_count=2000), False),
    ("sim-means-physical", "simulate", dict(SIM, service_means=[2.0]), False),
    (
        "sim-means-count",
        "simulate",
        dict(MARKOV, service_means=[2.0, 2.0, 2.0]),
        False,
    ),
    ("sim-means-check", "simulate", dict(MARKOV, service_means=[2.0, 0.0]), False),
    (
        "sim-counts-checks",
        "simulate",
        dict(SIM, message_count=2.5, warmup_count=-1, windows=[1, 1]),
        False,
    ),
    ("sim-message-count-zero", "simulate", dict(SIM, message_count=0), False),
    # validate
    ("val-physical-ostbc", "validate", dict(SIM, message_count=5000), False),
    (
        "val-physical-logdet",
        "validate",
        dict(
            SIM,
            topology=[2, 1, 2],
            windows=[2, 2],
            code_model="logdet",
            snr_linear=10.0,
            message_count=4000,
        ),
        False,
    ),
    ("val-short-term", "validate", dict(SIM, channel="short_term"), False),
    ("val-markovian-means", "validate", dict(MARKOV, service_means=[2.5, 2.5]), False),
    ("val-markovian-derived-means", "validate", MARKOV, False),
    (
        "val-markovian-too-few",
        "validate",
        dict(MARKOV, message_count=50, warmup_count=0),
        False,
    ),
    ("val-markovian-thin", "validate", dict(MARKOV, message_count=5000), False),
    ("val-unknown", "validate", dict(SIM, workers=2), False),
]


def run_case(command, config, mode):
    """Exit code, stdout and stderr of one run of main on a config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), *MODES[mode]])
    return code, out.getvalue(), err.getvalue()


def record():
    golden = {}
    for case, command, config, with_stdout in CASES:
        for mode in MODES:
            code, out, err = run_case(command, config, mode)
            entry = {"exit": code, "stderr": err}
            if with_stdout:
                entry["stdout"] = out
            golden[f"{case}-{mode}"] = entry
    return golden


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_subcommand_and_case():
    commands = {command for _, command, _, _ in CASES}
    assert commands == {
        "dmt",
        "dmdt-asymptotic",
        "dmdt-finite",
        "optimize-arq",
        "simulate",
        "validate",
    }
    ids = [case for case, _, _, _ in CASES]
    assert len(ids) == len(set(ids)) >= 60
    assert sorted(golden()) == sorted(
        f"{case}-{mode}" for case in ids for mode in MODES
    )


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_corpus(case, mode):
    name, command, config, with_stdout = case
    want = golden()[f"{name}-{mode}"]
    code, out, err = run_case(command, config, mode)
    assert code == want["exit"]
    assert err == want["stderr"]
    if with_stdout:
        assert out == want["stdout"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
