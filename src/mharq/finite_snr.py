"""Finite-SNR message-error analysis for fixed-window ARQ chains.

At finite SNR a message is lost two ways: the channel stays in outage past a
hop's retransmission window, or queueing pushes the end-to-end delay past
the deadline.  This module computes both pieces (per-hop outage from the
rate-split supremum or the space-time-coded closed form, whole-block mean
service times, and the deadline probability in the paper's M/M/1-stage
approximation) and evaluates the C(budget, n_hops) integer window
allocations, in lexicographic order, to find the best split of a deadline
budget.

The window search's outage tails P(S > j) come from one process-wide
cache, one entry per antenna pair, snr, multiplexing_gain,
spatial_code_rate and j, the last four as floats.  A sweep over the window
budget, the arrival mean or the deadline so computes each tail once.  The
cache holds at most _TAIL_CAP tails and drops the least recently used.

Conventions used throughout: SNR is linear, rates are bits per channel use,
and times are in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, compress
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .numerics import minimize_box, regularized_lower_gamma
from .tradeoff import AntennaPair, FixedArq, Topology

__all__ = [
    "FiniteSnrScenario",
    "ErrorBreakdown",
    "CandidateRow",
    "CandidateColumns",
    "WindowOptimum",
    "UnstableQueueError",
    "WindowInfeasibleError",
    "per_hop_outage",
    "mean_service_time",
    "deadline_exponent",
    "deadline_probability",
    "message_error",
    "evaluate_windows",
    "optimize_windows",
]

# Allocations whose queue drifts slower than this against the arrival rate
# are treated as unstable outright; the deadline exponent would blow up.
STABILITY_MARGIN = 1e-9

# The window search refuses budgets with more allocations than this; the
# CandidateRows of its table, texts formatted, hold about 0.75 KB a row once read.
_MAX_ALLOCATIONS = 10**6
# An infeasible search names the violations of this many candidates.
_LISTED_CANDIDATES = 20
# The window search keeps at most this many outage tails per process; one
# takes about 210 bytes with its key, so the cache stays under 7 MB.
_TAIL_CAP = 2**15

# Outage models of one hop: the log-det capacity of the MIMO channel, or an
# orthogonal space-time code; the simulator draws the same two.
CODE_MODELS = ("logdet", "ostbc")


class UnstableQueueError(ValueError):
    """A stage's mean service cannot keep up with the arrival rate."""


class WindowInfeasibleError(ValueError):
    """No window allocation satisfies the stability and budget constraints."""

    def __init__(self, message: str, columns: CandidateColumns | None):
        super().__init__(message)
        self.columns = columns

    def __reduce__(self):
        return type(self), (self.args[0], self.columns)

    def __str__(self) -> str:
        if self.columns is None:
            return super().__str__()
        listed = self.columns.windows[:_LISTED_CANDIDATES]
        texts = self.columns.violations(np.arange(len(listed)))
        detail = "; ".join(
            f"{w}: {', '.join(v)}" for w, v in zip(_row_tuples(listed), texts)
        )
        if len(self.columns.windows) > len(listed):
            detail += f"; and {len(self.columns.windows) - len(listed)} more"
        return f"{super().__str__()} (per candidate: {detail})"


@dataclass(frozen=True)
class FiniteSnrScenario:
    """Operating point of a finite-SNR evaluation.

    arrival_mean_blocks and deadline_blocks may be left unset for pure
    outage computations; every queueing operation requires them.
    """

    snr: float
    multiplexing_gain: float
    spatial_code_rate: float = 1.0
    arrival_mean_blocks: float | None = None
    deadline_blocks: float | None = None

    def __post_init__(self) -> None:
        if not self.snr > 0.0:
            raise ValueError(f"snr must be positive (linear scale), got {self.snr}")
        if math.isnan(self.multiplexing_gain) or self.multiplexing_gain < 0.0:
            raise ValueError(
                f"multiplexing gain must be nonnegative, got {self.multiplexing_gain}"
            )
        if not 0.0 < self.spatial_code_rate <= 1.0:
            raise ValueError(
                f"spatial code rate must be in (0, 1], got {self.spatial_code_rate}"
            )
        if self.arrival_mean_blocks is not None and not self.arrival_mean_blocks > 0.0:
            raise ValueError(
                f"arrival mean must be positive, got {self.arrival_mean_blocks}"
            )
        if self.deadline_blocks is not None and not self.deadline_blocks >= 1.0:
            raise ValueError(
                f"deadline must be at least one block, got {self.deadline_blocks}"
            )

    def require_queueing(self) -> tuple[float, float]:
        if self.arrival_mean_blocks is None or self.deadline_blocks is None:
            raise ValueError(
                "scenario needs arrival_mean_blocks and deadline_blocks "
                "for queueing computations"
            )
        return self.arrival_mean_blocks, self.deadline_blocks


@dataclass(frozen=True)
class ErrorBreakdown:
    """Message-error probability split into its two loss mechanisms."""

    p_outage: float
    p_deadline: float
    p_total: float

    def __post_init__(self) -> None:
        for name, p in (
            ("p_outage", self.p_outage),
            ("p_deadline", self.p_deadline),
            ("p_total", self.p_total),
        ):
            if math.isnan(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        expected = self.p_outage + (1.0 - self.p_outage) * self.p_deadline
        if abs(expected - self.p_total) > 1e-12:
            raise ValueError(
                f"inconsistent breakdown: outage {self.p_outage} and deadline "
                f"{self.p_deadline} compose to {expected}, not {self.p_total}"
            )


def _target_base(pair: AntennaPair, snr: float, log=math.log) -> tuple[float, float]:
    """The base 1 + m_rx snr of a hop's target rate r log(base), and its log.

    Each reader passes its own log, math.log or math.log2.  Where m_rx snr
    overflows, the base is inf and its log is log m_rx + log snr.
    """
    base = 1.0 + pair.m_rx * snr
    return base, log(base) if base < math.inf else log(pair.m_rx) + log(snr)


def _code_rate(pair: AntennaPair, scenario: FiniteSnrScenario, code_model: str):
    """A hop's rate factor on log(1 + snr/m_tx ||H||^2), or None for no gamma law.

    A space-time code has spatial_code_rate, a rank-1 log-det hop 1.0 (its
    one eigenmode is ||H||^2) and a log-det hop of rank >= 2 None.
    """
    if code_model == "ostbc":
        return scenario.spatial_code_rate
    if code_model == "logdet":
        return 1.0 if pair.min_dim == 1 else None
    raise ValueError(f"unknown code model {code_model!r}; choose from {CODE_MODELS}")


def _gamma_tail(pair: AntennaPair, snr: float, r: float, rate: float, t: float) -> float:
    """The outage tail at SNR snr and multiplexing gain r.

    ||H||^2 is gamma of shape m_tx m_rx, so this is regularized_lower_gamma
    at x = (m_tx / snr) (base**exponent - 1), exponent = r / (rate t).  Where
    base**exponent overflows, or the base did, x is formed in log form;
    every x that fits in a float keeps its bits.
    """
    if r == 0.0:
        return 0.0
    shape = pair.m_tx * pair.m_rx
    exponent = r / (rate * t)
    base, log_base = _target_base(pair, snr)
    if base < math.inf:
        try:
            x = (pair.m_tx / snr) * (base**exponent - 1.0)
        except OverflowError:  # base**exponent is past the largest float
            pass
        else:
            return regularized_lower_gamma(shape, x)
    # x = (m_tx / snr) e^g (1 - e^-g) with g = exponent * log(base); an x past
    # e^709 saturates the tail anyway
    g = exponent * log_base
    log_x = math.log(pair.m_tx) - math.log(snr) + g + math.log(-math.expm1(-g))
    return regularized_lower_gamma(shape, math.exp(min(log_x, 709.0)))


def _outage_window_logdet(
    pair: AntennaPair, t: float, scenario: FiniteSnrScenario
) -> float:
    """P{hop in outage after t blocks} for an uncoded MIMO hop of rank >= 2.

    The outage event partitions the rate exponent budget B = r/t across the
    shared eigenmodes as 0 = b_0 <= b_1 <= ... <= b_M*, with the dominant
    partition found by supremum.  Free coordinates are mapped onto the
    ordered region by construction, so every grid point is feasible.
    """
    r = scenario.multiplexing_gain
    if r == 0.0:
        return 0.0
    rho = scenario.snr
    base, log_base = _target_base(pair, rho)
    mstar = pair.min_dim
    gap = abs(pair.m_tx - pair.m_rx)
    shapes = [gap + 2 * l - 1 for l in range(1, mstar + 1)]
    budget = r / t
    dim = mstar - 1
    if dim > 6:
        raise ValueError(
            f"outage search supports at most 7 shared eigenmodes, got {mstar}"
        )
    grid = {1: 65, 2: 25, 3: 13}.get(dim, 7)

    def negated(pts: np.ndarray) -> np.ndarray:
        n = pts.shape[0]
        prob = np.ones(n)
        prev_b = np.zeros(n)
        used = np.zeros(n)
        prev_pow = np.ones(n)
        for l in range(1, mstar + 1):
            if l < mstar:
                upper = (budget - used) / (mstar - l + 1)
                b = prev_b + pts[:, l - 1] * (upper - prev_b)
            else:
                b = budget - used
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                cur_pow = base**b
                x = (pair.m_tx / rho) * (cur_pow - prev_pow)
                # where that overflows, x = (m_tx / rho) e^(b L) (1 - e^((b_prev - b) L))
                # with L = log(base), in logs; past e^709 it saturates the tail anyway
                far = ~np.isfinite(x)
                log_x = math.log(pair.m_tx) - math.log(rho) + b[far] * log_base
                log_x += np.log(-np.expm1((prev_b[far] - b[far]) * log_base))
                x[far] = np.exp(np.minimum(log_x, 709.0))
            prob *= np.array(
                [regularized_lower_gamma(shapes[l - 1], float(v)) for v in x]
            )
            used = used + b
            prev_b = b
            prev_pow = cur_pow
        return -prob

    _, neg_best = minimize_box(negated, dim, grid, vectorized=True)
    return min(max(-neg_best, 0.0), 1.0)


def per_hop_outage(
    pair: AntennaPair,
    window: float,
    scenario: FiniteSnrScenario,
    *,
    code_model: str = "logdet",
) -> float:
    """Probability one hop exhausts its retransmission window in outage.

    The window is a length in blocks; protocol windows are whole blocks of
    at least one, but any positive length is accepted.  Zero rate never
    sees outage.
    """
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window}")
    rate = _code_rate(pair, scenario, code_model)
    if rate is None:
        return _outage_window_logdet(pair, window, scenario)
    return _gamma_tail(pair, scenario.snr, scenario.multiplexing_gain, rate, window)


# The window search's tail of one hop after j blocks, keyed by what it reads.
_block_tail = lru_cache(maxsize=_TAIL_CAP)(_gamma_tail)


def _block_tails(
    pair: AntennaPair, longest: int, scenario: FiniteSnrScenario
) -> list[float]:
    """P(S > j), j = 1..longest, of the whole blocks S a hop needs to decode.

    The window search's law: the space-time-coded gamma tail at the
    scenario's spatial code rate, whatever code model a simulation draws.
    Each tail is computed once per process, up to _TAIL_CAP of them.
    """
    snr, r = float(scenario.snr), float(scenario.multiplexing_gain)
    r_s = float(scenario.spatial_code_rate)
    return [_block_tail(pair, snr, r, r_s, float(j)) for j in range(1, longest + 1)]


def _window_means(tails: Sequence[float]) -> list[float]:
    """Whole-block means of windows 1..len(tails) + 1: 1 + the tails below each."""
    return [1.0 + s for s in accumulate(tails, initial=0.0)]


def mean_service_time(
    pair: AntennaPair, window: int, scenario: FiniteSnrScenario
) -> float:
    """Mean blocks a hop occupies per message under a window of whole blocks.

    The service is counted in whole blocks: mu = E[min(S, window)] = 1 + the
    sum of _block_tails below the window (_window_means), which guarantees
    mu >= 1 and matches the queueing unit of the delay analysis.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1 block, got {window}")
    return _window_means(_block_tails(pair, int(window) - 1, scenario))[-1]


def _stage_means(means: Sequence[float] | np.ndarray) -> np.ndarray:
    """Half-duplex stage means on the last axis: hops i and i + 1, or the one hop."""
    means = np.asarray(means, dtype=float)
    if means.shape[-1] == 1:
        return means
    return means[..., :-1] + means[..., 1:]


def _decay_rates(stages: float | np.ndarray, arrival_mean_blocks: float):
    """Each stage's theta = 1/stage - 1/arrival; stable iff above STABILITY_MARGIN."""
    return 1.0 / stages - 1.0 / arrival_mean_blocks


def deadline_exponent(means: Sequence[float], arrival_mean_blocks: float) -> float:
    """Smallest stage theta of positive per-hop means; raises on an unstable stage."""
    hops = np.asarray(means, dtype=float)
    if not hops.size:
        raise ValueError("service model needs at least one hop")
    if not (hops > 0.0).all():  # NaN compares false too
        raise ValueError(f"service means must be positive, got {tuple(hops.tolist())}")
    if not arrival_mean_blocks > 0.0:
        raise ValueError(f"arrival mean must be positive, got {arrival_mean_blocks}")
    stages = _stage_means(hops)
    thetas = _decay_rates(stages, arrival_mean_blocks)
    unstable = np.flatnonzero(thetas <= STABILITY_MARGIN)
    if unstable.size:
        i = int(unstable[0])
        raise UnstableQueueError(
            f"stage {i} is unstable: mean occupancy {stages[i]:.6g} blocks "
            f"against mean inter-arrival {arrival_mean_blocks:.6g}"
        )
    return float(thetas.min())


def deadline_probability(
    means: Sequence[float],
    arrival_mean_blocks: float,
    deadline_blocks: float,
) -> float:
    """Probability the end-to-end delay exceeds the deadline, from per-hop means.

    This is the paper's M/M/1-stage approximation: each half-duplex stage
    is read as an M/M/1 queue with decay rate theta = 1/stage - 1/arrival.
    Chains with one queueing stage (up to three nodes) use the M/M/1
    waiting-time tail rho * exp(-k * theta), rho = stage mean / arrival
    mean.  Longer chains keep only the dominant exponent exp(-k * theta*),
    theta* being the slowest stage's decay rate.  The exponent is exact for
    a tandem of M/M/1 stages, the prefactor is not: the exact sojourn tail
    is hypoexponential, exp(-k * theta) for one stage.
    """
    if deadline_blocks < 0.0:
        raise ValueError(f"deadline must be nonnegative, got {deadline_blocks}")
    deadline_exponent(means, arrival_mean_blocks)  # raises on an unstable stage
    stages = _stage_means(means)
    tail = _bottleneck_deadline_probabilities(
        stages.max(keepdims=True), arrival_mean_blocks, deadline_blocks, stages.size == 1
    )
    return float(tail[0])


def _bottleneck_deadline_probabilities(
    bottlenecks: np.ndarray,
    arrival_mean_blocks: float,
    deadline_blocks: float,
    one_stage: bool,
) -> np.ndarray:
    """deadline_probability of stable chains from their largest stage means.

    theta = 1/stage - 1/arrival falls as the stage grows, and IEEE division
    and subtraction are monotone, so the bottleneck's theta is the smallest
    stage theta bit for bit.  one_stage adds the M/M/1 prefactor
    stage / arrival of a single queueing stage.  The exponentials go
    through math.exp, as np.exp need not round as it does.
    """
    exponents = -deadline_blocks * _decay_rates(bottlenecks, arrival_mean_blocks)
    tails = np.fromiter(map(math.exp, exponents.tolist()), float, len(exponents))
    return bottlenecks / arrival_mean_blocks * tails if one_stage else tails


def message_error(
    topology: Topology,
    allocation: FixedArq,
    scenario: FiniteSnrScenario,
) -> ErrorBreakdown:
    """Total message-error probability of one window allocation.

    The one-row evaluate_windows, which refuses an allocation without one
    window of at least one block per hop.  An allocation with an unstable
    stage raises UnstableQueueError, naming the first such stage.
    """
    row = evaluate_windows(topology, scenario, np.array([allocation.windows]))
    if not row.feasible[0]:  # infeasible rows are exactly the unstable ones
        deadline_exponent(row.means[0], row.arrival)
    return row.breakdown(0)


@dataclass(frozen=True)
class CandidateRow:
    """One enumerated allocation in the window search."""

    windows: tuple[int, ...]
    means: tuple[float, ...]
    p_outage: float
    p_deadline: float | None
    p_total: float | None
    feasible: bool
    constraint_conflict: bool
    violations: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class CandidateColumns:
    """Evaluated window allocations as columns, one row per allocation.

    windows, means and hop_over have one column per hop, stage_over one per
    stage.  The masks mark hops above the arrival mean and unstable stages;
    infeasible rows have NaN p_deadline and p_total.
    """

    windows: np.ndarray
    means: np.ndarray
    p_outage: np.ndarray
    p_deadline: np.ndarray
    p_total: np.ndarray
    feasible: np.ndarray
    hop_over: np.ndarray
    stage_over: np.ndarray
    arrival: float

    @property
    def conflict(self) -> np.ndarray:
        """Rows where the per-hop bounds and the stage stability disagree."""
        return self.hop_over.any(axis=1) != self.stage_over.any(axis=1)

    def violations(self, rows: np.ndarray) -> list[tuple[str, ...]]:
        """Violation texts of rows: hops over the arrival mean, then unstable stages."""
        arrival = f"arrival mean {self.arrival:.6g}"
        means = self.means[rows]
        return [
            tuple(
                f"mu[{i}]={m:.6g} exceeds {arrival}"
                for i, m in compress(enumerate(hop_means), hops)
            )
            + tuple(
                f"stage {i} occupancy {stage:.6g} not stable against {arrival}"
                for i, stage in compress(enumerate(stage_means), stages)
            )
            for hop_means, hops, stage_means, stages in zip(
                means.tolist(),
                self.hop_over[rows].tolist(),
                _stage_means(means).tolist(),
                self.stage_over[rows].tolist(),
            )
        ]

    def breakdown(self, row: int) -> ErrorBreakdown:
        """The error split of a feasible row, as evaluate_windows composed it."""
        return ErrorBreakdown(
            float(self.p_outage[row]), float(self.p_deadline[row]), float(self.p_total[row])
        )

    @cached_property
    def rows(self) -> tuple[CandidateRow, ...]:
        """The same table as CandidateRows, built when first read."""
        dl, total = (
            np.where(self.feasible, p.astype(object), None).tolist()
            for p in (self.p_deadline, self.p_total)
        )
        feasible = self.feasible.tolist()
        texts = iter(self.violations(np.flatnonzero(~self.feasible)))
        return tuple(
            map(
                CandidateRow,
                _row_tuples(self.windows),
                _row_tuples(self.means),
                self.p_outage.tolist(),
                dl,
                total,
                feasible,
                self.conflict.tolist(),
                [() if ok else next(texts) for ok in feasible],
            )
        )


@dataclass(frozen=True)
class WindowOptimum:
    """Result of the exhaustive window search; table is built when first read."""

    # the one target-rate convention, r log(1 + m_rx snr)
    threshold_variant: ClassVar[str] = "per_receiver"
    allocation: FixedArq
    breakdown: ErrorBreakdown
    columns: CandidateColumns = field(repr=False, compare=False)

    @property
    def table(self) -> tuple[CandidateRow, ...]:
        return self.columns.rows


def _composition_matrix(n_hops: int, budget: int) -> np.ndarray:
    """Every n_hops-tuple of windows >= 1 with sum <= budget, lexicographically.

    Row k is the k-th of the C(budget, n_hops) tuples.  They are the gaps
    between 0 and n_hops strictly increasing cut points in 1..budget, and
    cut points sort in the same order as the windows they cut.  Each prefix
    of cuts is repeated once per value its next cut can take, in order.
    """
    cuts = np.arange(1, budget - n_hops + 2)[:, None]
    for k in range(1, n_hops):
        last = cuts[:, -1]
        counts = budget - n_hops + k + 1 - last  # the next cut runs last + 1 .. top
        prefix = np.repeat(np.arange(len(cuts)), counts)
        step = np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts, counts)
        cuts = np.column_stack((cuts[prefix], last[prefix] + 1 + step))
    return np.diff(cuts, axis=1, prepend=0)


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Each row folded left to right from 0 + its first value, on every Python.

    builtin sum() of floats is compensated from 3.12 on; numpy sums in pairs.
    """
    return reduce(np.add, matrix.T, 0.0)


def _row_tuples(matrix: np.ndarray) -> Iterator[tuple]:
    """Rows of a 2-D array as tuples of Python objects, with no per-row list."""
    return zip(*matrix.T.tolist())


def evaluate_windows(
    topology: Topology,
    scenario: FiniteSnrScenario,
    windows: np.ndarray,
) -> CandidateColumns:
    """Message error of every allocation in an int matrix, one row each.

    Outage is the space-time-coded union bound, and the deadline tail runs
    on the whole-block mean service times.  A row is feasible when every
    half-duplex stage is stable against the arrival mean.  A stable stage
    is shorter than the arrival mean, and so is each hop in it, so a
    feasible row also keeps every hop mean mu <= arrival mean.  Both
    constraint families come back as masks, with no text.  A matrix without
    one column per hop, or with a window below one block, raises ValueError.
    """
    arrival, deadline = scenario.require_queueing()
    n_hops = topology.n_hops
    if windows.shape[1:] != (n_hops,):
        raise ValueError(
            f"allocation matrix of shape {windows.shape} needs {n_hops} windows a row"
        )
    if (windows < 1).any():
        raise ValueError(f"window must be >= 1 block, got {windows.min()}")
    # per-hop outage tails are shared across rows, and across the hops of
    # one antenna pair; _block_tails keeps them across calls too
    longest = int(windows.max())
    pairs = list(map(topology.hop, range(n_hops)))
    pair_tail = {pair: _block_tails(pair, longest, scenario) for pair in set(pairs)}
    # whole-block means of windows 1..longest, as in mean_service_time
    pair_mean = {pair: _window_means(tail[:-1]) for pair, tail in pair_tail.items()}

    # one column per hop, indexed by window - 1; every expression below is
    # the IEEE arithmetic the scalar definitions do, so the bits match them
    picks = (np.arange(n_hops), windows - 1)
    means = np.array([pair_mean[pair] for pair in pairs])[picks]
    tails = np.array([pair_tail[pair] for pair in pairs])[picks]
    p_outage = np.minimum(_row_sums(tails), 1.0)
    stages = _stage_means(means)
    hop_over = means > arrival
    stage_over = _decay_rates(stages, arrival) <= STABILITY_MARGIN
    feasible = ~(hop_over.any(axis=1) | stage_over.any(axis=1))

    # Every stage of a feasible row is stable, so the deadline term depends
    # on the largest stage alone: evaluate it once per distinct bottleneck
    # and share the value.
    modelled = np.flatnonzero(feasible)
    bottlenecks, group = np.unique(
        stages[modelled].max(axis=1), return_inverse=True
    )
    p_deadline = np.full(len(windows), math.nan)
    p_deadline[modelled] = _bottleneck_deadline_probabilities(
        bottlenecks, arrival, deadline, stages.shape[1] == 1
    )[group]
    p_total = p_outage + (1.0 - p_outage) * p_deadline

    return CandidateColumns(
        windows, means, p_outage, p_deadline, p_total, feasible, hop_over,
        stage_over, arrival,
    )


def optimize_windows(
    topology: Topology,
    scenario: FiniteSnrScenario,
    *,
    budget: int | None = None,
) -> WindowOptimum:
    """Best integer window allocation under the deadline budget.

    Evaluates every allocation with all windows >= 1 and total at most the
    budget (the deadline, rounded down, unless given explicitly): the
    C(budget, n_hops) compositions, in lexicographic order, which is also
    the order of the table.  Returns the feasible argmin of the total error
    (see evaluate_windows); ties break toward the lexicographically
    smallest windows.  A budget with more than _MAX_ALLOCATIONS allocations
    is refused with a ValueError before any of them is built.  With no
    feasible row, WindowInfeasibleError names the violations of the first
    _LISTED_CANDIDATES candidates once its text is read.

    Every candidate comes back as arrays and masks in the result's columns;
    its table of CandidateRows, texts included, is built when first read.
    """
    _, deadline = scenario.require_queueing()
    n_hops = topology.n_hops
    if budget is None:
        budget = int(math.floor(deadline))
    if budget < n_hops:
        raise WindowInfeasibleError(
            f"budget {budget} cannot give each of {n_hops} hops a block", None
        )
    if math.comb(budget, n_hops) > _MAX_ALLOCATIONS:
        raise ValueError(
            f"budget {budget} over {n_hops} hops gives more than "
            f"{_MAX_ALLOCATIONS} window allocations to enumerate"
        )
    columns = evaluate_windows(topology, scenario, _composition_matrix(n_hops, budget))
    feasible = np.flatnonzero(columns.feasible)
    if not feasible.size:
        raise WindowInfeasibleError(
            f"no feasible window allocation within budget {budget}", columns
        )
    # argmin takes the first minimum, which is the lexicographically
    # smallest windows
    best = int(feasible[np.argmin(columns.p_total[feasible])])
    return WindowOptimum(
        allocation=FixedArq(columns.windows[best].tolist()),
        breakdown=columns.breakdown(best),
        columns=columns,
    )
