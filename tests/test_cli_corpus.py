"""Golden corpus of the command line: configs, exit codes and full outputs.

Every case runs through mharq.cli.main three ways (csv, --format json and
--seed 7) and is held against tests/cli_corpus.json: the exit code, the
full stderr and the full stdout, byte for byte.  The corpus reaches every
error path of the config schema (missing, mistyped, out-of-choice and
failed-check keys, unknown keys at the top level and inside rate_grid and
sweep, and every cross-field rule) and a successful run of every output
path of the six subcommands, including optimize-arq tables whose JSON key
order differs from their column order (mu_10 sorts before mu_2) and whose
infeasible rows carry violation texts.

The corpus is the one registry of pinned output bytes: the window search's
large tables, the finite-SNR sweeps, the equalized fixed split and the
simulator's chunked runs are cases like any other.  A stdout of at most
TEXT_LIMIT bytes is stored in full; a larger one as its md5 and line count.
Each exit-0 table must also be what json.dumps or csv.writer would write for
it, every validate verdict ok and every simulated message counted once.

The expectations were recorded before the table writer became column-wise,
so they hold it to the bytes the json and csv modules wrote.  To record
them again from a checkout, printing each moved, added or removed id, run

    PYTHONPATH=src python tests/test_cli_corpus.py record

and to run every entry through an installed script as a subprocess, with
every warning an error, run

    python tests/test_cli_corpus.py check "$(command -v mharq)"

which exits 1 and lists each id whose run moved.
"""

import argparse
import builtins
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from mharq.cli import main
from oracles import compensated_builtin_sum

GOLDEN = Path(__file__).with_name("cli_corpus.json")

MODES = {"csv": [], "json": ["--format", "json"], "seed": ["--seed", "7"]}
# a stdout past this many bytes is stored as its md5 and line count
TEXT_LIMIT = 64 * 1024

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
SIX_NODES = {
    "topology": [2] * 6,
    "budget": 18,
    "snr_linear": 100.0,
    "multiplexing_gain": 1.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 25.0,
}
HUGE_SNR = {
    "topology": [2, 2, 2],
    "windows": [1, 1],
    "snr_linear": 1e306,
    "multiplexing_gain": 2.0,
    "arrival_mean_blocks": 10.0,
    "deadline_blocks": 25.0,
    "message_count": 20000,
}
# one block past the windows cap; a window of 2**31 would make an unchecked
# simulation allocate 16 GiB of round counts, so no case uses one
HUGE_WINDOW = 10**6 + 1


def _drop(cfg, *keys):
    return {k: v for k, v in cfg.items() if k not in keys}


def _mg_sweep(values):
    return {"axis": "multiplexing_gain", "values": values}


# (case id, subcommand, config)
CASES = [
    # dmt
    ("dmt-default", "dmt", {"antennas": [2, 2]}),
    (
        "dmt-grid-power",
        "dmt",
        {"antennas": [3, 2], "multiplexing_gains": [0, 0.5, 1], "power_exponent": 2},
    ),
    ("dmt-missing", "dmt", {}),
    ("dmt-antennas-type", "dmt", {"antennas": "2x2"}),
    ("dmt-antennas-bools", "dmt", {"antennas": [True, 2]}),
    ("dmt-antennas-check", "dmt", {"antennas": [2, 9]}),
    (
        "dmt-gains-decreasing",
        "dmt",
        {"antennas": [2, 2], "multiplexing_gains": [1, 0.5]},
    ),
    (
        "dmt-power-unknown",
        "dmt",
        {"antennas": [2, 2], "power_exponent": -1, "extra": 1},
    ),
    ("dmt-power-below-one", "dmt", {"antennas": [2, 2], "power_exponent": 0.5}),
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
    ),
    # a four-node VBL chain is its weakest three-node window, 38/11 at r = 1
    (
        "asym-vbl-weakest-window",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2, 2], "protocol": "vbl", "total_window": 6, "rates": [0, 1]},
    ),
    # at power exponent g every cell is g * K(r / g) of the g = 1 kernel; the
    # fixed columns pick their split at r / g
    (
        "asym-all-power",
        "dmdt-asymptotic",
        {
            "topology": [4, 1, 3],
            "protocol": "all",
            "total_window": 4,
            "power_exponent": 2,
            "rates": [0, 1],
        },
    ),
    # the total_window cap, where the short-term table keeps the bytes it had
    # when the fixed split walked every pair
    (
        "asym-total-window-cap",
        "dmdt-asymptotic",
        {
            "topology": [4, 4, 4],
            "protocol": "all",
            "channel": "short_term",
            "total_window": 1000,
            "rates": [0.5, 2],
        },
    ),
    # the equalized fixed split is solved exactly and its value correctly
    # rounded; JSON prints every float with repr, so these tables hold all
    # its bits
    (
        "asym-split-short-term",
        "dmdt-asymptotic",
        {
            "topology": [4, 4, 4],
            "protocol": "all",
            "channel": "short_term",
            "total_window": 10,
            "rate_grid": {"start": 0, "step": 0.05},
        },
    ),
    (
        "asym-split-long-term",
        "dmdt-asymptotic",
        {
            "topology": [4, 1, 3],
            "protocol": "all",
            "total_window": 4,
            "rate_grid": {"start": 0, "step": 0.05},
        },
    ),
    ("asym-missing", "dmdt-asymptotic", {}),
    (
        "asym-bad-choices",
        "dmdt-asymptotic",
        {
            "topology": [2, 2, 2],
            "protocol": "laser",
            "channel": "medium",
            "total_window": 3,
        },
    ),
    ("asym-total-not-int", "dmdt-asymptotic", dict(ASYM, total_window=2.5)),
    ("asym-total-not-positive", "dmdt-asymptotic", dict(ASYM, total_window=0)),
    (
        "asym-fbl-needs-total",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fbl"},
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
    ),
    # fbl spends one of its two rounds deciding the split: none is left
    (
        "asym-fbl-budget-too-small",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fbl", "total_window": 2, "rates": [1]},
    ),
    (
        "asym-fixed-neither",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fixed"},
    ),
    (
        "asym-fbl-four-nodes",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2, 2], "protocol": "fbl", "total_window": 3},
    ),
    (
        "asym-vbl-two-nodes",
        "dmdt-asymptotic",
        {"topology": [2, 2], "protocol": "vbl", "total_window": 3},
    ),
    ("asym-vbl-windows", "dmdt-asymptotic", dict(ASYM, windows=[1, 2])),
    (
        "asym-zero-rounds-vbl",
        "dmdt-asymptotic",
        dict(ASYM, allow_zero_rounds=True),
    ),
    (
        "asym-zero-rounds-type",
        "dmdt-asymptotic",
        dict(ASYM, protocol="fbl", allow_zero_rounds=1),
    ),
    (
        "asym-windows-count",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fixed", "windows": [1, 2, 3]},
    ),
    (
        "asym-windows-check",
        "dmdt-asymptotic",
        {"topology": [2, 2, 2], "protocol": "fixed", "windows": [0, 2]},
    ),
    ("asym-rates-and-grid", "dmdt-asymptotic", dict(ASYM, rate_grid={})),
    ("asym-rates-decreasing", "dmdt-asymptotic", dict(ASYM, rates=[0.5, 0.2])),
    ("asym-rates-negative", "dmdt-asymptotic", dict(ASYM, rates=[-0.5, 0.2])),
    (
        "asym-rates-infinite",
        "dmdt-asymptotic",
        dict(ASYM, rates=[0.1, float("inf")]),
    ),
    ("asym-rates-empty", "dmdt-asymptotic", dict(ASYM, rates=[])),
    (
        "asym-grid-nested-errors",
        "dmdt-asymptotic",
        dict(
            _drop(ASYM, "rates"),
            rate_grid={"start": -1, "stop": "x", "step": 0, "extra": 1},
        ),
    ),
    (
        "asym-grid-stop-below-start",
        "dmdt-asymptotic",
        dict(_drop(ASYM, "rates"), rate_grid={"start": 1, "stop": 0.5}),
    ),
    (
        "asym-grid-not-object",
        "dmdt-asymptotic",
        dict(_drop(ASYM, "rates"), rate_grid=[0, 1]),
    ),
    ("asym-topology-short", "dmdt-asymptotic", dict(ASYM, topology=[1])),
    (
        "asym-topology-antennas",
        "dmdt-asymptotic",
        dict(ASYM, topology=[9, 1, 2]),
    ),
    ("asym-power-string", "dmdt-asymptotic", dict(ASYM, power_exponent="1")),
    (
        "asym-power-nan",
        "dmdt-asymptotic",
        dict(ASYM, power_exponent=float("nan")),
    ),
    ("asym-unknown", "dmdt-asymptotic", dict(ASYM, mystery=True)),
    # dmdt-finite
    (
        "finite-mg-unstable-point",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            arrival_mean_blocks=2.05,
            sweep=_mg_sweep([0.1, 1.0]),
        ),
    ),
    (
        "finite-mg-plain-coded",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            spatial_code_rate=0.5,
            sweep=_mg_sweep([0, 0.25, 0.5]),
        ),
    ),
    (
        "finite-deadline",
        "dmdt-finite",
        dict(
            _drop(FINITE, "deadline_blocks", "snr_db"),
            snr_linear=100.0,
            sweep={"axis": "deadline_blocks", "values": [1, 5, 20.5]},
        ),
    ),
    (
        "finite-deadline-unstable",
        "dmdt-finite",
        dict(
            _drop(FINITE, "deadline_blocks"),
            arrival_mean_blocks=2.05,
            sweep={"axis": "deadline_blocks", "values": [3, 8]},
        ),
    ),
    (
        "finite-total-window",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            arrival_mean_blocks=3.0,
            sweep={"axis": "total_window", "values": [2, 3, 5]},
        ),
    ),
    (
        "finite-total-window-three-hops",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            topology=[2, 2, 2, 2],
            sweep={"axis": "total_window", "values": [3, 6]},
        ),
    ),
    (
        "finite-total-window-budget-short",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            sweep={"axis": "total_window", "values": [1, 4]},
        ),
    ),
    (
        "finite-mg-known-tail",
        "dmdt-finite",
        dict(_drop(FINITE, "multiplexing_gain"), sweep=_mg_sweep([0.5, 1.0, 1.5])),
    ),
    # a total_window sweep reads every hop's tails from the process-wide tail
    # cache, and a deadline sweep at long windows; both tables are the bytes
    # the search printed when it computed every tail per call
    (
        "finite-total-window-long",
        "dmdt-finite",
        {
            "topology": [4, 1, 3],
            "snr_linear": 100.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 25.0,
            "sweep": {"axis": "total_window", "values": list(range(2, 61))},
        },
    ),
    (
        "finite-deadline-long-windows",
        "dmdt-finite",
        {
            "topology": [4, 1, 3],
            "windows": [40, 40],
            "snr_linear": 100.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "sweep": {"axis": "deadline_blocks", "values": [5, 10, 25, 50, 100]},
        },
    ),
    ("finite-sweep-missing", "dmdt-finite", FINITE),
    ("finite-sweep-not-object", "dmdt-finite", dict(FINITE, sweep=[0.5])),
    (
        "finite-sweep-nested-errors",
        "dmdt-finite",
        dict(FINITE, sweep={"axis": "snr", "values": [2, 1], "step": 1}),
    ),
    ("finite-sweep-empty", "dmdt-finite", dict(FINITE, sweep={})),
    (
        "finite-sweep-values-type",
        "dmdt-finite",
        dict(_drop(FINITE, "multiplexing_gain"), sweep=_mg_sweep([True, 2])),
    ),
    (
        "finite-mg-already-swept",
        "dmdt-finite",
        dict(FINITE, sweep=_mg_sweep([0.5, 1.0])),
    ),
    (
        "finite-deadline-already-swept",
        "dmdt-finite",
        dict(FINITE, sweep={"axis": "deadline_blocks", "values": [2, 3]}),
    ),
    (
        "finite-windows-already-swept",
        "dmdt-finite",
        dict(FINITE, sweep={"axis": "total_window", "values": [2.5, 4]}),
    ),
    (
        "finite-mg-values-negative",
        "dmdt-finite",
        dict(_drop(FINITE, "multiplexing_gain"), sweep=_mg_sweep([-1, 0.5])),
    ),
    (
        "finite-deadline-values-short",
        "dmdt-finite",
        dict(
            _drop(FINITE, "deadline_blocks"),
            sweep={"axis": "deadline_blocks", "values": [0.5, 2]},
        ),
    ),
    (
        "finite-total-window-values-zero",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows"),
            sweep={"axis": "total_window", "values": [0, 3]},
        ),
    ),
    (
        "finite-bad-variant-missing-windows",
        "dmdt-finite",
        dict(
            _drop(FINITE, "windows", "multiplexing_gain"),
            threshold_variant="loose",
            sweep=_mg_sweep([0.5]),
        ),
    ),
    (
        "finite-snr-both",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            snr_linear=5.0,
            sweep=_mg_sweep([0.5]),
        ),
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
    ),
    (
        "finite-window-above-cap",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            windows=[HUGE_WINDOW, 3],
            sweep=_mg_sweep([0.5]),
        ),
    ),
    (
        "finite-snr-underflow",
        "dmdt-finite",
        dict(
            _drop(FINITE, "multiplexing_gain"),
            snr_db=-4000.0,
            sweep=_mg_sweep([0.5]),
        ),
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
    ),
    # optimize-arq
    ("opt-default-budget", "optimize-arq", OPT),
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
        },
    ),
    (
        "opt-ten-hops",
        "optimize-arq",
        {
            "topology": [2] * 11,
            "snr_db": 30.0,
            "multiplexing_gain": 0.5,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 12.0,
        },
    ),
    (
        "opt-stage-violations",
        "optimize-arq",
        {
            "topology": [4, 1, 3, 2],
            "snr_linear": 10.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 3.0,
            "deadline_blocks": 8.0,
        },
    ),
    (
        "opt-hop-and-stage-violations",
        "optimize-arq",
        {
            "topology": [4, 1, 3],
            "snr_linear": 10.0,
            "multiplexing_gain": 2.0,
            "arrival_mean_blocks": 4.0,
            "deadline_blocks": 9.0,
        },
    ),
    ("opt-infeasible", "optimize-arq", dict(OPT, arrival_mean_blocks=1.9)),
    # 120 allocations: the 20 listed mix hop and stage texts, then a tail
    (
        "opt-infeasible-listed",
        "optimize-arq",
        {
            "topology": [4, 1, 3, 2],
            "snr_linear": 1.0,
            "multiplexing_gain": 2.0,
            "arrival_mean_blocks": 1.9,
            "deadline_blocks": 10.0,
        },
    ),
    # the six-node budget-18 window search the benchmark runs: 8,568 rows
    ("opt-six-nodes", "optimize-arq", SIX_NODES),
    # the same chain at SNR 1 and gain 4: 8,525 of its rows are infeasible and
    # carry a long violations cell
    (
        "opt-six-nodes-infeasible-heavy",
        "optimize-arq",
        dict(SIX_NODES, snr_linear=1.0, multiplexing_gain=4.0, arrival_mean_blocks=4.0),
    ),
    ("opt-budget-short", "optimize-arq", dict(OPT, budget=1)),
    # C(3000, 2) allocations are past the window search's row cap
    (
        "opt-budget-past-row-cap",
        "optimize-arq",
        dict(OPT, topology=[2, 2, 2], budget=3000),
    ),
    ("opt-budget-zero", "optimize-arq", dict(OPT, budget=0)),
    ("opt-budget-string", "optimize-arq", dict(OPT, budget="5")),
    (
        "opt-missing",
        "optimize-arq",
        _drop(OPT, "multiplexing_gain", "arrival_mean_blocks", "deadline_blocks"),
    ),
    ("opt-windows-unknown", "optimize-arq", dict(OPT, windows=[2, 3])),
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
    ),
    ("opt-snr-underflow", "optimize-arq", dict(OPT, snr_db=-4000.0)),
    (
        "opt-snr-underflow-unknown",
        "optimize-arq",
        dict(OPT, snr_db=-4000.0, clamp_min_one=False),
    ),
    # simulate
    ("sim-physical", "simulate", SIM),
    # four physical stages: every hop drops messages, over two tandem chunks
    (
        "sim-physical-five-node",
        "simulate",
        dict(
            SIM,
            topology=[2, 1, 2, 2, 1, 3],
            windows=[2, 3, 1, 2, 2],
            snr_linear=3.0,
            arrival_mean_blocks=6.0,
            deadline_blocks=25.0,
            message_count=40000,
        ),
    ),
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
    ),
    (
        "sim-markovian-means",
        "simulate",
        dict(MARKOV, message_count=3000, warmup_count=100, service_means=[2.5, 2.5]),
    ),
    (
        "sim-markovian-derived-means",
        "simulate",
        dict(MARKOV, message_count=3000),
    ),
    # runs longer than one tandem chunk (1 << 15 messages) and many channel
    # chunks; their delays print to 17 digits in json
    (
        "sim-chunks-ostbc-long-term",
        "simulate",
        dict(
            SIM,
            topology=[4, 1, 3],
            windows=[2, 3],
            snr_linear=3.0,
            deadline_blocks=25.0,
            message_count=200_000,
            warmup_count=40_000,
        ),
    ),
    (
        "sim-chunks-logdet-rank3",
        "simulate",
        dict(
            SIM,
            topology=[4, 3, 4],
            windows=[2, 2],
            code_model="logdet",
            snr_linear=3.0,
            multiplexing_gain=2.0,
            deadline_blocks=25.0,
            message_count=50_000,
            warmup_count=5_000,
        ),
    ),
    (
        "sim-chunks-logdet-rank4-short-term",
        "simulate",
        dict(
            SIM,
            topology=[4, 4, 4],
            windows=[3, 3],
            code_model="logdet",
            channel="short_term",
            snr_linear=3.0,
            multiplexing_gain=4.0,
            deadline_blocks=25.0,
            message_count=50_000,
        ),
    ),
    # 2e5 messages over four physical stages: six full tandem chunks and a
    # ragged tail, every hop drops messages and the warmup ends inside the
    # second chunk
    (
        "sim-physical-five-node-chunks",
        "simulate",
        dict(
            SIM,
            topology=[2, 1, 2, 2, 1, 3],
            windows=[2, 3, 1, 2, 2],
            snr_linear=3.0,
            arrival_mean_blocks=6.0,
            deadline_blocks=25.0,
            message_count=200_000,
            warmup_count=40_000,
            seed=3,
        ),
    ),
    # the queue's inputs are drawn a chunk ahead on a worker thread; 2e5
    # messages span six full tandem chunks and a ragged tail
    (
        "sim-markovian-chunks",
        "simulate",
        {
            "topology": [2, 2, 2, 2],
            "windows": [2, 2, 2],
            "snr_linear": 10.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 25.0,
            "message_count": 200_000,
            "warmup_count": 1000,
            "seed": 7,
            "service_mode": "markovian",
            "service_means": [2.5, 2.5, 5.5],
        },
    ),
    # past SNR 1e307 a rank-2 pivot's a * b overflows; its log2 is then
    # log2 a + log2 b, so the drops at 1e308 are those at 1e306
    ("sim-snr-1e306", "simulate", HUGE_SNR),
    ("sim-snr-1e308", "simulate", dict(HUGE_SNR, snr_linear=1e308)),
    # a target rate near the largest float needs infinitely many rounds,
    # which the window caps: every message is an outage drop
    (
        "sim-huge-gain",
        "simulate",
        dict(
            _drop(SIM, "seed"),
            topology=[4, 1, 3],
            windows=[2, 3],
            snr_linear=0.5,
            multiplexing_gain=1e308,
            deadline_blocks=25.0,
        ),
    ),
    # arrival times that can pass the largest float are refused before
    # anything is drawn
    (
        "sim-huge-arrival",
        "simulate",
        dict(
            _drop(MARKOV, "warmup_count", "seed"),
            arrival_mean_blocks=1e308,
            message_count=2000,
        ),
    ),
    ("sim-missing", "simulate", _drop(SIM, "message_count", "windows")),
    (
        "sim-bad-choices",
        "simulate",
        dict(SIM, channel="slow", service_mode="fluid", code_model="turbo"),
    ),
    ("sim-seed-range", "simulate", dict(SIM, seed=2**64)),
    ("sim-warmup-too-long", "simulate", dict(SIM, warmup_count=2000)),
    ("sim-means-physical", "simulate", dict(SIM, service_means=[2.0])),
    (
        "sim-means-count",
        "simulate",
        dict(MARKOV, service_means=[2.0, 2.0, 2.0]),
    ),
    ("sim-means-check", "simulate", dict(MARKOV, service_means=[2.0, 0.0])),
    (
        "sim-counts-checks",
        "simulate",
        dict(SIM, message_count=2.5, warmup_count=-1, windows=[1, 1]),
    ),
    ("sim-message-count-zero", "simulate", dict(SIM, message_count=0)),
    (
        "sim-window-above-cap",
        "simulate",
        dict(SIM, topology=[4, 1, 3], windows=[HUGE_WINDOW, 3]),
    ),
    # validate
    ("val-physical-ostbc", "validate", dict(SIM, message_count=5000)),
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
    ),
    # a rank-2 log-det hop has an exact outage reference; a rank-3 one refuses
    (
        "val-physical-logdet-rank-2",
        "validate",
        dict(
            SIM,
            topology=[2, 2, 2],
            windows=[1, 1],
            code_model="logdet",
            snr_linear=10.0,
            message_count=4000,
        ),
    ),
    (
        "val-physical-logdet-rank-3",
        "validate",
        dict(SIM, topology=[4, 3, 4], windows=[2, 2], code_model="logdet", snr_linear=10.0),
    ),
    ("val-short-term", "validate", dict(SIM, channel="short_term")),
    ("val-markovian-means", "validate", dict(MARKOV, service_means=[2.5, 2.5])),
    ("val-markovian-derived-means", "validate", MARKOV),
    (
        "val-markovian-too-few",
        "validate",
        dict(MARKOV, message_count=50, warmup_count=0),
    ),
    ("val-markovian-thin", "validate", dict(MARKOV, message_count=5000)),
    (
        "val-physical-ostbc-chain",
        "validate",
        dict(
            _drop(SIM, "seed"),
            topology=[4, 1, 3],
            windows=[2, 3],
            snr_linear=3.0,
            deadline_blocks=25.0,
            message_count=20000,
        ),
    ),
    # at multiplexing gain 0 no hop is ever in outage, and the total prints
    # 0, not -0
    (
        "val-zero-outage",
        "validate",
        {
            "topology": [1, 1, 1],
            "windows": [1, 1],
            "snr_linear": 10,
            "multiplexing_gain": 0,
            "arrival_mean_blocks": 10,
            "deadline_blocks": 25,
            "message_count": 2000,
        },
    ),
    # the analytic reference comes before the simulation: an unstable queue
    # exits 3 at once, not after 2e6 messages
    (
        "val-unstable",
        "validate",
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
    ),
    ("val-unknown", "validate", dict(SIM, workers=2)),
    (
        "val-window-above-cap",
        "validate",
        dict(SIM, topology=[4, 1, 3], windows=[HUGE_WINDOW, 3]),
    ),
]


def run_case(command, config, mode, script=None):
    """Exit code, stdout and stderr of one run on a config file.

    The run is mharq.cli.main in-process, or with script the named mharq
    executable as a subprocess, from the config's directory and with every
    warning an error.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(path), *MODES[mode]]
        if script is not None:
            env = dict(os.environ, PYTHONWARNINGS="error")
            run = subprocess.run([script, *argv], cwd=tmp, env=env, capture_output=True)
            return run.returncode, run.stdout.decode(), run.stderr.decode()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def stored(code, out, err):
    """One run as the corpus stores it: stdout in full up to TEXT_LIMIT bytes,
    a larger one as its md5 and line count."""
    entry = {"exit": code, "stderr": err}
    data = out.encode()
    if len(data) <= TEXT_LIMIT:
        return dict(entry, stdout=out)
    return dict(
        entry, stdout_md5=hashlib.md5(data).hexdigest(), stdout_lines=out.count("\n")
    )


def runs(cases=CASES, script=None):
    """(corpus id, stored run) of every mode of each case."""
    for case, command, config in cases:
        for mode in MODES:
            yield f"{case}-{mode}", stored(*run_case(command, config, mode, script))


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def record():
    """Rewrite the corpus from this checkout; print each moved, added or removed id."""
    old = golden()
    new = dict(runs())
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print("removed", key)
        elif key not in old:
            print("added", key)
        elif old[key] != new[key]:
            print("moved", key)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def check(script):
    """Run every entry through an installed mharq; 1 if any run moved."""
    moved = [key for key, run in runs(script=script) if run != golden()[key]]
    for key in moved:
        print("moved", key)
    print(f"{len(golden()) - len(moved)} of {len(golden())} entries keep their bytes")
    return 1 if moved else 0


def check_table(command, mode, out):
    """The writer and count properties of one exit-0 table."""
    if mode == "json":
        # the JSON table is written by hand, column by column
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        rows = doc["rows"]
    else:
        # the CSV rows are cells joined by commas, with csv.writer only for
        # blocks that need quoting
        head, body = out.split("\n", 1)
        assert head.startswith("# tool=mharq ")
        cells = list(csv.reader(io.StringIO(body)))
        written = io.StringIO()
        csv.writer(written, lineterminator="\n").writerows(cells)
        assert written.getvalue() == body
        rows = (dict(zip(cells[0], row)) for row in cells[1:])
    if command == "validate":
        assert {row["verdict"] for row in rows} == {"ok"}
    if command == "simulate":
        # every analyzed message is delivered or dropped, once
        metric = {row["metric"]: float(row["value"]) for row in rows}
        kept = ("delivered", "outage_drops", "deadline_drops")
        assert metric["analyzed"] == sum(metric[key] for key in kept)


def test_corpus_covers_every_subcommand_and_case():
    commands = {command for _, command, _ in CASES}
    assert commands == {
        "dmt",
        "dmdt-asymptotic",
        "dmdt-finite",
        "optimize-arq",
        "simulate",
        "validate",
    }
    ids = [case for case, _, _ in CASES]
    assert len(ids) == len(set(ids)) >= 60
    assert sorted(golden()) == sorted(
        f"{case}-{mode}" for case in ids for mode in MODES
    )
    # every subcommand writes at least one table the corpus holds byte for byte
    assert {
        command for case, command, _ in CASES if golden()[f"{case}-csv"]["exit"] == 0
    } == commands
    # the size rule: text up to TEXT_LIMIT bytes, md5 and line count past it
    # (test_corpus stores each live run by the same rule, so an md5 entry
    # whose table shrank below the limit fails there)
    for key, want in golden().items():
        if "stdout" in want:
            assert want.keys() == {"exit", "stderr", "stdout"}, key
            assert len(want["stdout"].encode()) <= TEXT_LIMIT, key
        else:
            assert want.keys() == {"exit", "stderr", "stdout_md5", "stdout_lines"}, key
            assert re.fullmatch("[0-9a-f]{32}", want["stdout_md5"]), key
            assert want["stdout_lines"] > 0, key


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_corpus(case, mode):
    name, command, config = case
    code, out, err = run_case(command, config, mode)
    assert stored(code, out, err) == golden()[f"{name}-{mode}"]
    if code == 0:
        check_table(command, mode, out)


# the corpus cases Python 3.12's compensated sum() would move
SUM_CASES = (
    "opt-ten-hops",
    "opt-stage-violations",
    "opt-hop-and-stage-violations",
    "opt-six-nodes",
    "opt-six-nodes-infeasible-heavy",
)


def test_window_search_bytes_do_not_follow_the_builtin_sum():
    # the stand-in adds floats as Python 3.12's sum() does, on any Python;
    # the window search folds its sums itself, so every Python prints these
    cases = [case for case in CASES if case[0] in SUM_CASES]
    assert len(cases) == len(SUM_CASES)
    with mock.patch.object(builtins, "sum", compensated_builtin_sum):
        moved = [key for key, run in runs(cases) if run != golden()[key]]
    assert moved == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record or check the CLI corpus.")
    verbs = parser.add_subparsers(dest="verb", required=True)
    verbs.add_parser("record", help="rewrite the corpus from this checkout")
    verbs.add_parser("check", help="run every entry through a mharq script").add_argument(
        "script", help="path of the installed mharq executable"
    )
    args = parser.parse_args()
    sys.exit(record() if args.verb == "record" else check(args.script))
