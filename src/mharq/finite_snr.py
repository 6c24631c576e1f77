"""Finite-SNR message-error analysis for fixed-window ARQ chains.

At finite SNR a message is lost two ways: the channel stays in outage past a
hop's retransmission window, or queueing pushes the end-to-end delay past
the deadline.  This module computes both pieces (per-hop outage from the
log-det eigenvalue integral or the space-time-coded closed form,
whole-block mean service times, and the deadline probability in the
paper's M/M/1-stage approximation) and evaluates the C(budget, n_hops)
integer window allocations, in lexicographic order, to find the best split
of a deadline budget.

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

from .numerics import regularized_lower_gamma, regularized_lower_gammas
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
# Below this m_rx snr an outage tail forms x from log1p and expm1, and the
# simulator compares a coded hop's rates per unit snr: 1 + m_rx snr has lost
# two or more bits of m_rx snr there.  Every output and reference at
# SNR >= 0.5 stays above it.
_LOW_SNR = 0.25

_NODES = 16  # Gauss-Legendre nodes a panel of the log-det outage integral

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
    every x that fits in a float keeps its bits.  Below _LOW_SNR, where the
    base 1 + y, y = m_rx snr, rounds toward 1, x is m_tx (e^g - 1) / snr with
    g = exponent log1p(y), formed as shape exponent (log1p(y) / y)
    ((e^g - 1) / g): its limit shape exponent as snr -> 0, times two ratios
    near 1, so that a subnormal snr gives the limit, not inf * 0.
    """
    if r == 0.0:
        return 0.0
    shape = pair.m_tx * pair.m_rx
    exponent = r / (rate * t)
    base, log_base = _target_base(pair, snr)
    y = pair.m_rx * snr
    if y < _LOW_SNR:
        log_base = math.log1p(y)
        g = exponent * log_base
        if g < 709.0:  # e^g is finite
            growth = math.expm1(g) / g if g else 1.0
            x = shape * exponent * (log_base / y) * growth
            return regularized_lower_gamma(shape, x)
    elif base < math.inf:
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


def _logdet_outage(pair: AntennaPair, t: float, scenario: FiniteSnrScenario) -> float:
    """P{hop in outage after t blocks} for a log-det hop of rank 2, exactly.

    The eigenvalues l1 <= l2 of H H^H have density proportional to
    (l1 l2)^q (l2 - l1)^2 e^-(l1 + l2), q = max(m_tx, m_rx) - 2 (James 1964;
    Telatar 1999), and the hop is in outage while l2 < L = expm1(c -
    log1p(a l1)) / a, a = snr / m_tx, c = (r / t) log(base).  Over l2 in
    [l1, L) that is l1^q e^-2l1 sum_k C(q, k) l1^(q-k) gamma(k + 3, L - l1);
    l1 runs _NODES-point Gauss-Legendre panels in u = log1p(a l1) on
    [0, c/2], cut where e^-2l1 has no mass left.  Above 1/2 the nodes' mass
    out of outage is taken from the exact mass of that range instead, so a
    sure outage reads 1.
    """
    c = scenario.multiplexing_gain / t * _target_base(pair, scenario.snr)[1]
    if not c > 0.0:  # zero rate, or a base that rounds to 1
        return 0.0
    if pair.min_dim > 2:
        raise ValueError(
            f"the log-det outage reference is exact up to rank 2, not at rank "
            f"{pair.min_dim} ({pair.m_tx}x{pair.m_rx} hop); code_model ostbc "
            "has an exact outage reference at every rank"
        )
    q, log_a = max(pair.m_tx, pair.m_rx) - 2, math.log(scenario.snr / pair.m_tx)
    # panels 2 wide in u up to l1 = 1, then 4 wide in l1 up to 41, which l1
    # passes with probability below 1e-20 at up to 8 antennas
    knots = np.logaddexp(0.0, log_a + np.log(np.arange(1.0, 42.0, 4.0)))
    top = min(c / 2.0, float(knots[-1]))
    edges = np.unique(np.r_[np.arange(0.0, min(knots[0], top), 2.0), knots[knots < top], top])
    beta = np.arange(1.0, _NODES) / np.sqrt(4.0 * np.arange(1.0, _NODES) ** 2 - 1.0)
    x, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))  # Golub-Welsch
    half = np.diff(edges)[:, None] / 2.0
    u = (edges[:-1, None] + half + half * x).ravel()
    jac = np.exp(u - log_a)  # dl1/du
    l1 = jac * -np.expm1(-u)
    # L - l1 = (e^(c - u) - e^u) / a, held finite: past e^700 every P is 1
    y = np.exp(np.minimum(c - u - log_a, 700.0)) * np.maximum(-np.expm1(2.0 * u - c), 0.0)
    # C(q, k) (k + 2)! l1^(2q - k) e^-2l1 for each k, in shares of their mass
    k = np.arange(q + 1)
    weight = np.array([math.comb(q, j) * math.factorial(j + 2) for j in k], float)
    mass = weight * [math.factorial(2 * q - j) / 2.0 ** (2 * q - j + 1) for j in k]
    weight, mass = weight / mass.sum(), mass / mass.sum()
    dens = weight[:, None] * l1 ** (2 * q - k)[:, None] * np.exp(-2.0 * l1) * jac
    dens *= (half * 2.0 * vectors[0] ** 2).ravel()
    p = float(np.sum(dens * regularized_lower_gammas(y, q + 3)[2:]))
    if p > 0.5:
        x_top = 2.0 * math.exp(top - log_a) * -math.expm1(-top)  # 2 l1 at u = top
        reach = sum(m * regularized_lower_gamma(s, x_top) for s, m in zip(2 * q + 1 - k, mass))
        p = min(reach - (float(np.sum(dens)) - p), 1.0)
    return p


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
    sees outage.  A log-det hop of rank 3 or more has no exact reference
    yet and raises ValueError at any other rate.
    """
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window}")
    rate = _code_rate(pair, scenario, code_model)
    if rate is None:
        return _logdet_outage(pair, window, scenario)
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
        return _row_any(self.hop_over) != _row_any(self.stage_over)

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

    The C(budget, n_hops) rows come as a column-major intp matrix, built
    one window column at a time.  A prefix of windows has spent some of the
    budget - n_hops blocks left once every hop has one; its next window runs
    from 1 to one more than what is still left, and each prefix row is
    repeated once per value, in order, so the rows stay sorted.
    """
    spare = budget - n_hops
    used = np.zeros(int(spare >= 0), np.intp)  # spare blocks each prefix spent
    columns: list[np.ndarray] = []
    for _ in range(n_hops):
        counts = spare + 1 - used  # the next window runs 1 .. counts
        # 1, 2, .. within each prefix's run: a cumsum of ones that drops
        # back to 1 where the next prefix's run starts
        window = np.ones(counts.sum(), np.intp)
        window[np.cumsum(counts[:-1])] -= counts[:-1]
        np.cumsum(window, out=window)
        columns = [np.repeat(column, counts) for column in columns]
        columns.append(window)
        used = np.repeat(used, counts) + window - 1
    return np.array(columns).T


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Each row folded left to right from 0 + its first value, on every Python.

    builtin sum() of floats is compensated from 3.12 on; numpy sums in pairs.
    """
    return reduce(np.add, matrix.T, 0.0)


def _row_any(mask: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix with any column set, ORed column by column.

    numpy reduces each row in a loop of its own, which costs more than the
    few entries of a row; one OR a column does the same over whole columns.
    """
    return reduce(np.logical_or, mask.T)


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

    # one column per hop, taken from its pair's table at window - 1 and held
    # column-major, as every reader below reads by column; every expression
    # is the IEEE arithmetic the scalar definitions do, so the bits match them
    means = np.empty((n_hops, len(windows))).T
    tails = np.empty_like(means)
    for h, pair in enumerate(pairs):
        picks = windows[:, h] - 1
        np.take(pair_mean[pair], picks, out=means[:, h])
        np.take(pair_tail[pair], picks, out=tails[:, h])
    p_outage = np.minimum(_row_sums(tails), 1.0)
    stages = _stage_means(means)
    hop_over = means > arrival
    stage_over = _decay_rates(stages, arrival) <= STABILITY_MARGIN
    feasible = ~(_row_any(hop_over) | _row_any(stage_over))

    # Every stage of a feasible row is stable, so the deadline term depends
    # on the largest stage alone: evaluate it once per distinct bottleneck
    # and share the value.
    modelled = np.flatnonzero(feasible)
    bottlenecks, group = np.unique(
        reduce(np.maximum, stages[modelled].T), return_inverse=True
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
