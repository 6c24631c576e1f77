"""Monte Carlo fading and queueing simulator for fixed-window ARQ chains.

Messages arrive as a Poisson stream, each hop retransmits until decoding
succeeds or its window runs out, and consecutive hop pairs share a
half-duplex queueing stage.  The simulator reproduces exactly the dynamics
the finite-SNR analysis works with, so its empirical outage and delay tails
can be held against the analytic numbers.

Reproducibility contract: every random draw comes from counter-based
streams keyed by (seed, stream index), consumed through plain uniforms with
fixed per-message draw counts.  Results are therefore byte-identical across
runs and platforms, and the chunks the channel draws are taken in never
change a number.

The tandem of queueing stages is streamed too: arrivals, markovian
services and the Lindley reflection of every stage run over chunks of
``_TANDEM_CHUNK`` messages, and each stage carries its queue state from one
chunk to the next, so every sum is formed from the same operands in the
same order as over whole arrays and no number depends on the chunk size.
A worker thread forms the arrivals and services one chunk ahead, into the
idle one of two buffers per stream, while the Lindley reflections of the
chunk before run; it alone reads the streams, in message order, so no
number depends on the core count.

In physical mode the hops are decoded at the same time, on a pool of
threads with one hop per task: each hop reads only its own stream, so no
number depends on the core count.  What stays full-length is per message:
the total delay, the returned delays and, with physical service, each
hop's rounds in a small integer dtype and the hop at which the message was
dropped.  Each tandem chunk builds its stage services from those.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .finite_snr import (
    CODE_MODELS,
    FiniteSnrScenario,
    _stage_means,
    mean_service_time,
)
from .tradeoff import ChannelAssumption, FixedArq, Topology

__all__ = [
    "RandomSource",
    "SimConfig",
    "SimResult",
    "DelayExponentFit",
    "TailFitError",
    "run_network_sim",
    "estimate_delay_exponent",
]

SERVICE_MODES = ("physical", "markovian")

# Stream layout: arrivals on 0, the channel of 1-based hop h on h, and the
# markovian service of 0-based stage i on 1001 + i.  The gap keeps hop and
# stage streams disjoint for any topology the antenna cap allows.
_STREAM_ARRIVALS = 0
_STREAM_MARKOV_BASE = 1001

# Uniforms per channel chunk: each hop's stream is drawn, turned into
# capacities and decoded this many uniforms (whole messages) at a time, so
# memory stays flat in message_count.
_CHUNK_UNIFORMS = 1 << 17

# Messages per tandem chunk: one chunk's arrivals, services and Lindley
# temporaries (8 bytes a message each) stay inside a 2 MiB L2 cache.
# Each stream has two chunk buffers: a worker thread fills one a chunk ahead
# while the other is reflected, and no number depends on the core count.
_TANDEM_CHUNK = 1 << 15


class RandomSource:
    """Family of independent counter-based generators under one seed."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = int(seed)

    def stream(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, int(index)]))


def _exponential(
    rng: np.random.Generator, mean: float, size: int, out: np.ndarray | None = None
) -> np.ndarray:
    # inverse-CDF from uniforms; log1p keeps the u -> 1 tail exact.  Worked
    # in place on the uniforms, in ``out`` when given: log1p(-u) * -mean has
    # the bits of -mean * log1p(-u), as IEEE multiplication commutes
    u = rng.random(size, out=out)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.multiply(u, -mean, out=u)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    topology: Topology
    protocol: FixedArq
    channel: ChannelAssumption
    scenario: FiniteSnrScenario
    message_count: int
    warmup_count: int = 0
    seed: int = 0
    service_mode: str = "physical"
    code_model: str = "logdet"
    service_means: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, FixedArq):
            raise ValueError(
                "only fixed-window protocols are simulated; negotiate variable "
                "windows down to per-hop budgets first"
            )
        if len(self.protocol.windows) != self.topology.n_hops:
            raise ValueError(
                f"protocol has {len(self.protocol.windows)} windows for "
                f"{self.topology.n_hops} hops"
            )
        if self.message_count < 1:
            raise ValueError(f"message_count must be >= 1, got {self.message_count}")
        if not 0 <= self.warmup_count < self.message_count:
            raise ValueError(
                f"warmup_count must be in [0, message_count), got {self.warmup_count}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.service_mode not in SERVICE_MODES:
            raise ValueError(
                f"unknown service mode {self.service_mode!r}; "
                f"choose from {SERVICE_MODES}"
            )
        if self.code_model not in CODE_MODELS:
            raise ValueError(
                f"unknown code model {self.code_model!r}; "
                f"choose from {CODE_MODELS}"
            )
        if self.service_means is not None:
            if self.service_mode != "markovian":
                raise ValueError("service_means only applies to markovian mode")
            if len(self.service_means) != self.topology.n_hops:
                raise ValueError(
                    f"service_means has {len(self.service_means)} entries for "
                    f"{self.topology.n_hops} hops"
                )
            if any(m <= 0.0 for m in self.service_means):
                raise ValueError(f"service means must be positive: {self.service_means}")
        self.scenario.require_queueing()

    def hop_service_means(self) -> tuple[float, ...]:
        """Mean service of each hop in markovian mode, in blocks.

        service_means when given, else each hop's whole-block mean service
        time under its window (finite_snr.mean_service_time).
        """
        if self.service_means is not None:
            return self.service_means
        return tuple(
            mean_service_time(self.topology.hop(i), w, self.scenario)
            for i, w in enumerate(self.protocol.windows)
        )


@dataclass(frozen=True, eq=False)
class SimResult:
    """Counts and delays from one run; rates exclude warmup messages."""

    config: SimConfig
    delays: np.ndarray = field(repr=False)  # all non-outage messages
    delivered: int
    outage_drops: int
    deadline_drops: int
    per_hop_outage_drops: tuple[int, ...]
    per_hop_attempts: tuple[int, ...]
    round_histograms: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def analyzed(self) -> int:
        return self.config.message_count - self.config.warmup_count

    @property
    def p_outage(self) -> float:
        return self.outage_drops / self.analyzed

    @property
    def p_deadline(self) -> float:
        return self.deadline_drops / self.analyzed

    @property
    def p_total(self) -> float:
        return (self.outage_drops + self.deadline_drops) / self.analyzed


def _channel_uniforms(
    rng: np.random.Generator, n_msgs: int, rounds: int, m_rx: int, m_tx: int
) -> np.ndarray:
    """Fixed per-message block of uniforms: (msg, round, rx, tx, [mag, phase])."""
    return rng.random((n_msgs, rounds, m_rx, m_tx, 2))


def _capacities(
    u: np.ndarray, snr: float, r_s: float, m_tx: int, code_model: str
) -> np.ndarray:
    """Per-round capacities in bits per use from raw uniforms.

    Entries are unit complex Gaussians via the polar transform, so the
    squared magnitudes are unit exponentials.  Log-det capacity is
    sum_i log2(1 + a * lambda_i) = log2 det(I + a * G) with a = snr / m_tx
    and G the Gram matrix of H on its min(m_rx, m_tx) side (Telatar 1999).
    A rank-1 hop reduces to log2(1 + a * ||H||^2), which needs only the
    magnitudes, and so does the space-time-coded (ostbc) model.

    Every rank >= 2 takes one path in plain real arithmetic:

    - The uniforms are copied once into entry-major order (rank side, other
      side, [mag, phase], msg, round), so each matrix entry is one
      contiguous vector over the messages and rounds.
    - Row i of H is multiplied by exp(-i phi_i0) and column k by
      exp(-i (phi_0k - phi_00)).  G goes to a unitary similarity of itself,
      so det(I + a G) does not move, and row 0 and column 0 turn real:
      only (rank - 1) * (other side - 1) angles need a cosine and a sine.
    - The Gram entries are sums of real and imaginary vector products, and
      the LDL^H pivot recursion of I + a G runs on them as vector ops.
      Each pivot is a Schur complement of a matrix >= I, so it is at least
      1: it is 1 + a * b with b >= 0 a pivot of the positive semidefinite
      part, and b is clamped at 0.  Roundoff can then neither make a log
      negative nor overflow a later step, however singular G and however
      high the SNR.
    - The capacity is the sum of the pivots' log2, not the log2 of their
      product, so no SNR overflows it.

    No rank has a closed form of its own, and no rank calls a batched
    LAPACK determinant.
    """
    m_rx = u.shape[2]
    if code_model == "ostbc" or min(m_rx, m_tx) == 1:
        frob = -np.log1p(-u[..., 0]).sum(axis=(2, 3))
        with np.errstate(over="ignore"):
            cap = np.log2(1.0 + snr * frob / m_tx)
        over = np.isinf(cap)
        if over.any():  # snr * frob overflowed, so the 1 is far below an ulp
            cap[over] = np.log2(frob[over]) + (math.log2(snr) - math.log2(m_tx))
        return r_s * cap if code_model == "ostbc" else cap
    a = snr / m_tx
    sides = (2, 3) if m_rx <= m_tx else (3, 2)  # rank side first
    e = np.ascontiguousarray(u.transpose(*sides, 4, 0, 1))
    rank = e.shape[0]
    mags_sq = -np.log1p(-e[:, :, 0])  # (rank side, other side, msg, round)
    mags = np.sqrt(mags_sq)
    phase = e[:, :, 1]  # in turns
    turns = phase[1:, 1:] - phase[1:, :1] - phase[:1, 1:] + phase[0, 0]
    turns -= np.rint(turns)  # cos and sin are cheapest on [-pi, pi]
    angle = 2.0 * np.pi * turns
    h_re = mags.copy()
    h_im = np.zeros_like(mags)
    h_re[1:, 1:] *= np.cos(angle)
    np.multiply(mags[1:, 1:], np.sin(angle), out=h_im[1:, 1:])
    # lower triangle of G, row by row; the upper one is never read
    g_re = np.zeros((rank, rank) + mags.shape[2:])
    g_im = np.zeros_like(g_re)
    diag = np.arange(rank)
    g_re[diag, diag] = mags_sq.sum(axis=1)
    for i in range(1, rank):
        re, im = h_re[:i], h_im[:i]
        g_re[i, :i] = (h_re[i] * re).sum(axis=1) + (h_im[i] * im).sum(axis=1)
        g_im[i, :i] = (h_im[i] * re).sum(axis=1) - (h_re[i] * im).sum(axis=1)
    cap = np.zeros(mags.shape[2:])
    for k in range(rank):
        # the Schur complement of I + a G at pivot k is I + a B with
        # B = G[k+1:, k+1:] - a / (1 + a G[k, k]) G[k+1:, k] G[k+1:, k]^H,
        # so the recursion runs on B, at the scale of G for any SNR
        b = np.maximum(g_re[k, k], 0.0)
        pivot = 1.0 + a * b
        cap += np.log2(pivot)
        # a semidefinite B with a zero pivot has a zero column there, so
        # whatever roundoff left in that column is dropped, not scaled by a
        scale = np.where(b > 0.0, a / pivot, 0.0)
        col_re, col_im = g_re[k + 1 :, k], g_im[k + 1 :, k]
        w_re, w_im = scale * col_re, scale * col_im
        g_re[k + 1 :, k + 1 :] -= w_re[:, None] * col_re + w_im[:, None] * col_im
        g_im[k + 1 :, k + 1 :] -= w_im[:, None] * col_re - w_re[:, None] * col_im
    return cap


def _decode_rounds(
    u: np.ndarray,
    capacity: Callable[[np.ndarray], np.ndarray],
    target_rate: float,
    window: int,
    long_term: bool,
) -> np.ndarray:
    """Blocks each message needs on one hop; window + 1 marks outage.

    ``capacity`` maps uniforms of shape (msg, round, rx, tx, [mag, phase])
    to per-round capacities (msg, round).  Long-term static fading holds one
    draw for the whole message, so the accumulated rate after n rounds is n
    times the first round's capacity.  Short-term fading draws afresh each
    round; round k's capacities are computed only for the messages still
    short of the target after round k - 1, and added one round at a time,
    so the accumulated rates are the bits of a cumulative sum over rounds.
    """
    if long_term:
        c = capacity(u)[:, 0]
        needed = np.ceil(target_rate / np.maximum(c, 1e-300))
        rounds = np.minimum(needed, window + 1).astype(np.int64)
        return np.maximum(rounds, 1)
    rounds = np.full(u.shape[0], window + 1, dtype=np.int64)
    pending = np.arange(u.shape[0])
    accum = 0.0
    for k in range(window):
        accum = accum + capacity(u[pending, k : k + 1])[:, 0]
        done = accum >= target_rate
        rounds[pending[done]] = k + 1
        pending, accum = pending[~done], accum[~done]
        if not pending.size:
            break
    return rounds


def _hop_workers(n_hops: int) -> int:
    """Threads that decode the hops of one run: one per hop, one per core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(n_hops, cores)


def _hop_rounds(config: SimConfig, h: int) -> np.ndarray:
    """Blocks each message needs on hop h; window + 1 marks outage.

    The hop's channel is drawn from its own stream, turned into capacities
    and decoded in chunks of whole messages, about ``_CHUNK_UNIFORMS``
    uniforms each.  The rounds come in the narrowest integer dtype that
    holds window + 1.
    """
    pair = config.topology.hop(h)
    window = config.protocol.windows[h]
    scenario = config.scenario
    n_msgs = config.message_count
    long_term = config.channel is ChannelAssumption.LONG_TERM_STATIC
    draw_rounds = 1 if long_term else window
    base = 1.0 + pair.m_rx * scenario.snr
    # where m_rx * snr overflows, the 1 is far below an ulp of it
    log_base = (
        math.log2(base)
        if base < math.inf
        else math.log2(pair.m_rx) + math.log2(scenario.snr)
    )
    target = scenario.multiplexing_gain * log_base
    rng = RandomSource(config.seed).stream(1 + h)
    capacity = partial(
        _capacities,
        snr=scenario.snr,
        r_s=scenario.spatial_code_rate,
        m_tx=pair.m_tx,
        code_model=config.code_model,
    )
    per_msg = draw_rounds * pair.m_rx * pair.m_tx * 2
    step = max(1, _CHUNK_UNIFORMS // per_msg)
    rounds = np.empty(n_msgs, dtype=np.min_scalar_type(window + 1))
    for start in range(0, n_msgs, step):
        stop = min(start + step, n_msgs)
        u = _channel_uniforms(rng, stop - start, draw_rounds, pair.m_rx, pair.m_tx)
        rounds[start:stop] = _decode_rounds(u, capacity, target, window, long_term)
    return rounds


# Queue state a stage carries between chunks: last arrival, last service,
# last cumulative drift C and the running minimum of C.
_LindleyState = tuple[float, float, float, float]


def _lindley_chunk(
    services: np.ndarray, arrivals: np.ndarray, state: _LindleyState | None
) -> tuple[np.ndarray, _LindleyState]:
    """Waiting times of one chunk of a FIFO queue, by cumulative-sum reflection.

    The recursion W_n = max(0, W_{n-1} + T_{n-1} - dA_n) telescopes to
    W_n = C_n - min_{j<=n} C_j with C the cumulative sum of the drift terms
    and C_0 = 0, which vectorizes.  ``state`` is the previous chunk's (None
    for the first): the chunk's first drift is added to its last C and the
    running minimum is clamped by its minimum, so each C is the sum of the
    same terms, in the same order, as over the whole message sequence.
    Returns the waits and the state for the next chunk.
    """
    cum = np.empty_like(services)
    np.subtract(services[:-1], np.diff(arrivals), out=cum[1:])
    if state is None:
        cum[0] = 0.0
    else:
        a_last, s_last, c_last, c_min = state
        cum[0] = c_last + (s_last - (arrivals[0] - a_last))
    np.cumsum(cum, out=cum)
    mins = np.minimum.accumulate(cum)
    if state is not None:
        np.minimum(mins, c_min, out=mins)
    next_state = (arrivals[-1], services[-1], cum[-1], mins[-1])
    return np.subtract(cum, mins, out=mins), next_state


def _drawn_services(
    rng: np.random.Generator, mean: float, start: int, stop: int, out=None
) -> np.ndarray:
    """Markovian services of messages start:stop, the stream's next draws."""
    return _exponential(rng, mean, stop - start, out)


def _block_services(
    rounds: Sequence[np.ndarray],
    windows: Sequence[int],
    outage_hop: np.ndarray,
    stage: int,
    start: int,
    stop: int,
    out=None,
) -> np.ndarray:
    """Physical services of messages start:stop: the stage's hops' blocks.

    A hop serves min(rounds, window) blocks, none once an earlier hop has
    dropped the message.  The sums are of small integers, so exact.
    """
    hops = (0,) if len(rounds) == 1 else (stage, stage + 1)
    dropped_at = outage_hop[start:stop]
    services = np.empty(stop - start) if out is None else out
    services.fill(0.0)
    for h in hops:
        blocks = np.minimum(rounds[h][start:stop], windows[h])
        blocks[dropped_at < h] = 0
        services += blocks
    return services


def _tandem_delays(
    arrival_rng: np.random.Generator,
    arrival_mean: float,
    n_msgs: int,
    stage_services: Sequence[Callable[..., np.ndarray]],
) -> np.ndarray:
    """Total sojourn of every message through the tandem of FIFO stages.

    Messages run through every stage ``_TANDEM_CHUNK`` at a time; each
    stage's departures are the next stage's arrivals.  The Poisson arrival
    times continue their cumulative sum from the previous chunk's last
    arrival, and ``stage_services[i](start, stop, out=buffer)`` writes stage
    i's service times of messages start:stop into the buffer.  One worker
    thread forms each chunk's inputs, in message order, while this thread
    reflects the chunk before; its exceptions are raised here, once joined.
    """
    # imported here so that loading mharq starts no pool machinery
    from concurrent.futures import ThreadPoolExecutor

    step = min(_TANDEM_CHUNK, n_msgs)
    # chunks alternate between two buffer sets; rows: the arrivals, then
    # each stage's services
    buffer_sets = [np.empty((1 + len(stage_services), step)) for _ in range(2)]
    last_arrival = 0.0

    def draw(start: int) -> np.ndarray:
        nonlocal last_arrival
        stop = min(start + step, n_msgs)
        buffers = buffer_sets[start // step % 2][:, : stop - start]
        arrivals = _exponential(arrival_rng, arrival_mean, stop - start, buffers[0])
        arrivals[0] += last_arrival
        np.cumsum(arrivals, out=arrivals)
        last_arrival = arrivals[-1]
        for take, services in zip(stage_services, buffers[1:]):
            take(start, stop, out=services)
        return buffers

    total_delay = np.zeros(n_msgs)
    states: list[_LindleyState | None] = [None] * len(stage_services)
    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(draw, 0)
        for start in range(0, n_msgs, step):
            arrivals, *stage_inputs = ahead.result()
            if start + step < n_msgs:
                ahead = worker.submit(draw, start + step)
            delay = total_delay[start : start + arrivals.size]
            for i, services in enumerate(stage_inputs):
                sojourn, states[i] = _lindley_chunk(services, arrivals, states[i])
                sojourn += services
                delay += sojourn
                arrivals += sojourn  # departures feed the next stage
    return total_delay


def run_network_sim(config: SimConfig) -> SimResult:
    """Simulate the chain and classify every message.

    A message is outage-dropped at the first hop whose window runs out; it
    still flows through the remaining stages with zero service so queue
    positions stay aligned.  Non-outage messages past the deadline count as
    deadline drops; their delays are recorded either way.

    Each hop's channel is drawn, turned into capacities and decoded in
    chunks of whole messages, about ``_CHUNK_UNIFORMS`` uniforms each, taken
    one after another from the hop's stream.  Draws are message-major, so
    the chunks see the same uniforms as one draw of every message would,
    and no number depends on the chunk size; memory does not grow with
    ``message_count`` beyond the per-message arrays.  The hops run
    concurrently on ``_hop_workers(n_hops)`` threads; each reads only its
    own stream, so no number depends on the worker count.  On short-term
    hops a later round's capacities are computed only for the messages it
    has not decoded yet; every round's uniforms are still drawn for every
    message, so the draws, and every number, are those of computing them
    all.

    The tandem of queueing stages is streamed in chunks of
    ``_TANDEM_CHUNK`` messages: each chunk draws its arrivals (and, in
    markovian mode, each stage's services) as the next uniforms of their
    streams, one chunk ahead on a worker thread, and each stage carries its
    Lindley state to the next chunk, so no number depends on the chunk size
    either.  Full-length arrays remain only per message: the total delay,
    the returned delays and, in physical mode, each hop's rounds and the
    outage hop; a physical stage's services are formed from them chunk by
    chunk.  Markovian service has no window to overrun, so it counts no
    outage at all.
    """
    topo = config.topology
    proto = config.protocol
    scenario = config.scenario
    arrival_mean, deadline = scenario.require_queueing()
    n_msgs = config.message_count
    n_hops = topo.n_hops
    cut = config.warmup_count
    source = RandomSource(config.seed)

    if config.service_mode == "markovian":
        stage_services = [
            partial(_drawn_services, source.stream(_STREAM_MARKOV_BASE + i), m)
            for i, m in enumerate(_stage_means(config.hop_service_means()))
        ]
        histograms = tuple(
            np.zeros(proto.windows[i] + 2, dtype=np.int64) for i in range(n_hops)
        )
        per_hop_drops = (0,) * n_hops  # no window to overrun, so no outage
    else:
        windows = proto.windows
        # threads, as numpy releases the GIL in the draws and the ufuncs;
        # imported here so that loading mharq starts no pool machinery
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(_hop_workers(n_hops)) as pool:
            rounds = list(pool.map(partial(_hop_rounds, config), range(n_hops)))
        # the first window overrun kills the message and later hops carry it
        # for free; n_hops marks no outage, and filling the hops in reverse
        # leaves the first overrun in place
        outage_hop = np.full(n_msgs, n_hops, dtype=np.min_scalar_type(n_hops))
        for h in reversed(range(n_hops)):
            outage_hop[rounds[h] > windows[h]] = h
        kept = outage_hop[cut:]
        histograms = tuple(
            np.bincount(rounds[h][cut:][kept >= h], minlength=windows[h] + 2)
            for h in range(n_hops)
        )
        # slot h counts the drops at hop h, slot n_hops the messages in no outage
        by_hop = np.bincount(kept, minlength=n_hops + 1)
        per_hop_drops = tuple(int(c) for c in by_hop[:n_hops])
        stage_services = [
            partial(_block_services, rounds, windows, outage_hop, i)
            for i in range(max(1, n_hops - 1))
        ]

    total_delay = _tandem_delays(
        source.stream(_STREAM_ARRIVALS), arrival_mean, n_msgs, stage_services
    )

    analyzed = n_msgs - cut
    per_hop_attempts = tuple(
        analyzed - sum(per_hop_drops[:h]) for h in range(n_hops)
    )
    outage_drops = sum(per_hop_drops)
    ok_delays = total_delay[cut:]
    if outage_drops:
        ok_delays = ok_delays[outage_hop[cut:] == n_hops]
    delivered = int(np.count_nonzero(ok_delays <= deadline))
    deadline_drops = int(ok_delays.size - delivered)
    return SimResult(
        config=config,
        delays=ok_delays,
        delivered=delivered,
        outage_drops=outage_drops,
        deadline_drops=deadline_drops,
        per_hop_outage_drops=per_hop_drops,
        per_hop_attempts=per_hop_attempts,
        round_histograms=histograms,
    )


@dataclass(frozen=True)
class DelayExponentFit:
    """Least-squares fit of the log delay tail against the deadline.

    The delays are taken in arrival order.  ``stderr`` is the
    delete-one-batch jackknife error of ``exponent`` over 20 contiguous
    batches of them, so it carries the correlation between nearby sojourns
    that a regression error ignores.
    """

    exponent: float
    stderr: float
    intercept: float
    k_used: tuple[float, ...]
    exceedance_counts: tuple[int, ...]
    r_squared: float


# Contiguous batches of the delay sequence in the jackknife stderr.
_JACKKNIFE_BATCHES = 20


class TailFitError(ValueError):
    """The delay tail is too thin for the requested deadline grid.

    largest_usable is the largest grid deadline whose tail the fit could
    still use, or None when no grid point is usable.
    """

    def __init__(self, message: str, largest_usable: float | None):
        super().__init__(message)
        self.largest_usable = largest_usable


def estimate_delay_exponent(
    delays: np.ndarray, k_grid: Sequence[float]
) -> DelayExponentFit:
    """Fit exp(-theta * k) to the empirical delay tail over a deadline grid.

    ``delays`` must be in arrival order.  The slope comes from least squares
    on the log exceedance fractions; its standard error is the
    delete-one-batch jackknife (Kuensch 1989) over 20 contiguous batches:
    the slope is refit with each batch left out and stderr is
    sqrt((B - 1) / B * sum((theta_b - mean(theta))**2)).  Exceedances
    cluster in queue excursions, so neighbouring sojourns are correlated and
    batches of them, unlike single points, are close to independent
    (Schmeiser 1982).  Sorting the delays first destroys that structure.

    Refuses to fit when the tail is too thin to trust: fewer than 1e4
    delay samples overall, fewer than 50 exceedances at the largest
    deadline, or a left-out batch holding every exceedance of some deadline,
    raise TailFitError with the largest deadline that would still work.
    """
    delays = np.asarray(delays, dtype=float)
    grid = [float(k) for k in k_grid]
    if len(grid) < 2:
        raise ValueError("need at least two deadline points to fit a slope")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"deadline grid must be strictly increasing: {grid}")
    if delays.size < 10_000:
        raise ValueError(
            f"tail fit needs at least 10000 delay samples, got {delays.size}"
        )
    n = delays.size
    edges = np.arange(_JACKKNIFE_BATCHES + 1) * n // _JACKKNIFE_BATCHES
    batch_counts = np.array(
        [
            [np.count_nonzero(delays[a:b] > k) for k in grid]
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )
    totals = batch_counts.sum(axis=0)
    counts = [int(c) for c in totals]
    loo_counts = totals - batch_counts  # (batch, deadline), batch left out
    # both conditions only weaken as the deadline grows
    usable = [
        k
        for k, c, held in zip(grid, counts, (loo_counts > 0).all(axis=0))
        if c >= 50 and held
    ]
    if usable[-1:] != grid[-1:]:
        hint = (
            f"largest usable deadline is {usable[-1]:g}"
            if usable
            else "no grid point has a usable tail"
        )
        if counts[-1] < 50:
            reason = (
                f"only {counts[-1]} exceedances at deadline {grid[-1]:g}; "
                f"need 50 for a stable tail"
            )
        else:
            reason = (
                f"every exceedance at deadline {grid[-1]:g} falls in one of "
                f"{_JACKKNIFE_BATCHES} batches, so the jackknife stderr is "
                f"undefined"
            )
        raise TailFitError(f"{reason} ({hint})", usable[-1] if usable else None)
    k = np.array(grid)
    log_tail = np.log(totals / n)
    slope, intercept = np.polyfit(k, log_tail, 1)
    resid = log_tail - (slope * k + intercept)
    loo_sizes = n - np.diff(edges)
    loo_slopes = np.polyfit(k, np.log(loo_counts / loo_sizes[:, None]).T, 1)[0]
    stderr = math.sqrt(
        (_JACKKNIFE_BATCHES - 1)
        / _JACKKNIFE_BATCHES
        * float(((loo_slopes - loo_slopes.mean()) ** 2).sum())
    )
    ss_tot = float(((log_tail - log_tail.mean()) ** 2).sum())
    r_sq = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 1.0
    return DelayExponentFit(
        exponent=float(-slope),
        stderr=stderr,
        intercept=float(intercept),
        k_used=tuple(grid),
        exceedance_counts=tuple(counts),
        r_squared=r_sq,
    )
