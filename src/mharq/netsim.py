"""Monte Carlo fading and queueing simulator for fixed-window ARQ chains.

Messages arrive as a Poisson stream, each hop retransmits until decoding
succeeds or its window runs out, and consecutive hop pairs share a
half-duplex queueing stage.  Markovian mode serves each stage exponentials
of the analysis's stage means, so its delay tail checks the analytic decay
rate.  Physical mode's drops check the analytic outage only: its whole-block
M/G/1 stages decay at about twice the analytic rate.

Reproducibility contract: every random draw comes from counter-based
Philox streams keyed by (seed, stream index), consumed as uniforms with
fixed per-message draw counts.  A uniform is the stream's next 64-bit word
w turned into (w >> 11) * 2**-53, exactly as Generator.random turns it:
the arrivals and markovian services draw through Generator.random, and the
channel takes its raw words and turns only the ones it reads.  Results are
therefore byte-identical across runs and platforms, and the chunks the
channel draws are taken in never change a number.

The tandem of queueing stages is streamed too: arrivals, markovian
services and the Lindley reflection of every stage run over chunks of
``_TANDEM_CHUNK`` messages, and each stage carries its queue state from one
chunk to the next, so every sum is formed from the same operands in the
same order as over whole arrays and no number depends on the chunk size.
A worker thread forms the arrivals and services one chunk ahead, into the
idle one of two buffers per stream, while the Lindley reflections of the
chunk before run; it alone reads the streams, in message order, so no
number depends on the core count.

A run has two stages.  The decode stage (``decode_chain``) draws and
decodes every hop's channel, on a pool of threads with one hop per task
that reads only its hop's stream, so no number depends on the core count,
then counts each hop's round histogram, outage drops and attempts in one
pass.  The queue stage is the tandem, which ``run_network_sim`` runs after
the decode stage: its ``SimResult`` is a ``DecodeResult`` plus the queue's
results.  Per message only the returned delay stays full-length, with
physical service also each hop's rounds and the hop at which the message
was dropped, a byte each for windows below 255.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .finite_snr import (
    CODE_MODELS,
    _LOW_SNR,
    FiniteSnrScenario,
    _code_rate,
    _row_sums,
    _stage_means,
    _target_base,
    deadline_exponent,
    mean_service_time,
    per_hop_outage,
)
from .tradeoff import ChannelAssumption, FixedArq, Topology

__all__ = [
    "RandomSource",
    "SimConfig",
    "SimResult",
    "DecodeResult",
    "DelayExponentFit",
    "TailFitError",
    "decode_chain",
    "run_network_sim",
    "estimate_delay_exponent",
    "validation_references",
    "validation_checks",
    "verdict",
]

SERVICE_MODES = ("physical", "markovian")

# Stream layout: arrivals on 0, the channel of 1-based hop h on h, and the
# markovian service of 0-based stage i on 1001 + i.  Hop and stage streams
# never meet in one run, whatever its node count: a physical run reads no
# stage stream and a markovian run reads no hop stream.
_STREAM_ARRIVALS = 0
_STREAM_MARKOV_BASE = 1001

# Draws per channel chunk (1 MiB of 64-bit words, whole messages) that each
# hop thread takes, turns into capacities and decodes at a time; the kernel's
# temporaries peak at up to 0.9 MiB (ostbc, rank 1) or 2.2 MiB (ranks 2-8).
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
        # an explicit uint64 key: numpy reads a list holding a seed past
        # 2**63 - 1 as float64, which merges neighbouring seeds
        key = np.array([self.seed, int(index)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


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
    """Everything one simulation run depends on.

    Let N be message_count, H the hop count and m the largest of the arrival
    mean and each hop's service_means entry, else window, which its mean
    service never passes.  A draw from 53-bit uniforms is at most 53 ln 2
    times its mean, so no time or delay passes T = N 53 ln 2 (1 + 2H) m and
    the delays mean_delay sums stay under N T.  N T past the largest float
    is refused.
    """

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
        arrival, _ = self.scenario.require_queueing()
        n, bounds = self.message_count, self.service_means or self.protocol.windows
        # in logs, as a count or a window may be an int past the float range
        reach = math.log(n * n * (1 + 2 * len(bounds))) + math.log(max(arrival, *bounds))
        if reach > math.log(sys.float_info.max / (53 * math.log(2.0))):
            raise ValueError(
                f"{n} messages at arrival mean {arrival:.6g} and hop service "
                f"bounds {bounds} can take times past the largest float"
            )

    def hop_service_means(self) -> tuple[float, ...]:
        """Mean service of each hop in markovian mode, in blocks.

        service_means when given, else each hop's whole-block mean service
        time under its window (finite_snr.mean_service_time).  Those derived
        means use the space-time-coded (ostbc) outage law of the window
        search whatever code_model says; on a rank-1 hop at spatial code
        rate 1 that is the log-det law too.
        """
        if self.service_means is not None:
            return self.service_means
        return tuple(
            mean_service_time(self.topology.hop(i), w, self.scenario)
            for i, w in enumerate(self.protocol.windows)
        )


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """The decode stage's counts from one run; they exclude warmup messages.

    round_histograms[h][k] counts hop h's attempts that took k blocks; its
    last bin, window + 1, counts its outage drops.  Markovian service
    decodes nothing: its histograms are all zero.
    """

    config: SimConfig
    per_hop_outage_drops: tuple[int, ...]
    per_hop_attempts: tuple[int, ...]
    round_histograms: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def outage_drops(self) -> int:
        return sum(self.per_hop_outage_drops)

    @property
    def analyzed(self) -> int:
        return self.config.message_count - self.config.warmup_count


@dataclass(frozen=True, eq=False)
class SimResult(DecodeResult):
    """A run's decode-stage counts plus its queue's delays; rates exclude warmup messages."""

    delays: np.ndarray = field(repr=False)  # every non-outage message after the warm-up
    delivered: int
    deadline_drops: int

    @property
    def p_outage(self) -> float:
        return self.outage_drops / self.analyzed

    @property
    def p_deadline(self) -> float:
        return self.deadline_drops / self.analyzed

    @property
    def p_total(self) -> float:
        return (self.outage_drops + self.deadline_drops) / self.analyzed


def _channel_words(
    rng: np.random.Generator, n_msgs: int, rounds: int, m_rx: int, m_tx: int
) -> np.ndarray:
    """Fixed per-message block of raw words: (msg, round, rx, tx, [mag, phase])."""
    return rng.bit_generator.random_raw((n_msgs, rounds, m_rx, m_tx, 2))


def _uniforms(words: np.ndarray, mags_only: bool) -> np.ndarray:
    """The doubles Generator.random gives for these words, formed in place.

    Generator.random turns each 64-bit word w of the stream into
    (w >> 11) * 2**-53 (numpy's next_double); w >> 11 is below 2**53, so
    both steps are exact.  With mags_only only the magnitude slots
    [..., 0] are turned, and the phase slots hold words that must not be
    read.  ``words`` must be C-contiguous, as random_raw and fancy-indexed
    rows are: the work runs on one-dimensional views of its memory, where
    numpy casts in place with no temporary.
    """
    flat = words.reshape(-1)
    np.right_shift(flat, 11, out=flat)  # all of it: a strided pass costs more
    ints, u = flat.view(np.int64), flat.view(np.float64)
    if mags_only:
        ints, u = ints[::2], u[::2]
    u[...] = ints
    u *= 2.0**-53
    return words.view(np.float64)


def _capacities(
    u: np.ndarray, snr: float, m_tx: int, rate: float | None, per_snr: bool = False
) -> np.ndarray:
    """Per-round capacities in bits per use from the channel's uniforms.

    Entries are unit complex Gaussians via the polar transform, so the
    squared magnitudes are unit exponentials.  Log-det capacity is
    sum_i log2(1 + a * lambda_i) = log2 det(I + a * G) with a = snr / m_tx
    and G the Gram matrix of H on its min(m_rx, m_tx) side (Telatar 1999).
    A hop with a code rate factor (finite_snr._code_rate: a space-time code,
    or a rank-1 log-det hop at rate 1) has rate * log2(1 + a * ||H||^2),
    which needs only the magnitudes; rate None takes the log-det path.
    With per_snr, such a hop's capacity is given per unit snr and in nats,
    rate * (||H||^2 / m_tx) * log1p(z) / z with z = a * ||H||^2 (1 at z = 0),
    which keeps its bits where 1 + z rounds to 1.

    Every rank >= 2 takes one path in plain real arithmetic:

    - The magnitudes, negated as they are copied, then the angles, are
      formed in entry-major order (rank side, other side, msg, round), so
      each matrix entry is one contiguous vector over the messages and
      rounds.
    - Row i of H is multiplied by exp(-i phi_i0) and column k by
      exp(-i (phi_0k - phi_00)).  G goes to a unitary similarity of itself,
      so det(I + a G) does not move, and row 0 and column 0 turn real:
      only (rank - 1) * (other side - 1) angles need a cosine and a sine,
      and the imaginary part of row 0 enters no product.
    - Only what the pivots read is formed: G's lower triangle, one vector
      per entry, column by column, and no imaginary diagonal.  Each entry
      is a sum of real and imaginary vector products, and the LDL^H pivot
      recursion of I + a G runs on the entries as vector ops, with no
      Schur complement after the last pivot.  Every message gets the
      operations, in the order, of the whole (rank, rank) matrices, less
      sums of exact zeros, which change no bit.
    - Each pivot is a Schur complement of a matrix >= I, so it is at least
      1: it is 1 + a * b with b >= 0 a pivot of the positive semidefinite
      part, and b is clamped at 0.  Roundoff can then neither make a log
      negative nor overflow a later step, however singular G and however
      high the SNR.
    - The capacity is the sum of the pivots' log2, not the log2 of their
      product, and a pivot whose a * b overflows is taken as a * b, so no
      SNR overflows it.

    No rank has a closed form of its own, and no rank calls a batched
    LAPACK determinant.
    """
    m_rx = u.shape[2]
    if rate is not None:
        # -log1p(-u) in one array: each fresh chunk-sized temporary costs
        # more in page faults than the arithmetic that fills it
        entries = np.negative(u[..., 0])
        np.negative(np.log1p(entries, out=entries), out=entries)
        n_entries = m_rx * u.shape[3]
        if n_entries < 8:
            # numpy sums fewer than 8 entries from 0 left to right, in a loop
            # per row; the same fold over whole entry columns keeps the bits
            frob = _row_sums(entries.reshape(-1, n_entries)).reshape(entries.shape[:2])
        else:  # numpy sums in pairs here, and its row loop no longer dominates
            frob = entries.sum(axis=(2, 3))
        if per_snr:
            z = snr * frob / m_tx
            ratio = np.divide(np.log1p(z), z, out=np.ones_like(z), where=z > 0.0)
            return rate * (frob / m_tx) * ratio
        with np.errstate(over="ignore"):
            cap = np.log2(1.0 + snr * frob / m_tx)
        over = np.isinf(cap)
        if over.any():  # snr * frob overflowed, so the 1 is far below an ulp
            cap[over] = np.log2(frob[over]) + (math.log2(snr) - math.log2(m_tx))
        return rate * cap
    a = snr / m_tx
    sides = (2, 3) if m_rx <= m_tx else (3, 2)  # rank side first
    phase = u[..., 1].transpose(*sides, 0, 1)  # in turns
    # -log1p(-u), negated as it is copied entry-major
    mags_sq = np.negative(u[..., 0].transpose(*sides, 0, 1), order="C")
    np.negative(np.log1p(mags_sq, out=mags_sq), out=mags_sq)
    rank, n_other, *batch = mags_sq.shape
    # column j of G's lower triangle: re[j][i - j] = Re G[i, j] for i >= j,
    # im[j][i - j - 1] = Im G[i, j] for i > j; the pivots read nothing else
    re = [np.empty((rank - j, *batch)) for j in range(rank)]
    im = [np.empty((rank - j - 1, *batch)) for j in range(rank)]
    for j, col in enumerate(re):
        mags_sq[j].sum(axis=0, out=col[0])
    h_re = np.sqrt(mags_sq, out=mags_sq)  # |H| now, Re H once turned below
    # the angle in turns, rounded as cos and sin are cheapest on [-pi, pi]
    angle = np.subtract(phase[1:, 1:], phase[1:, :1], order="C")
    angle -= phase[:1, 1:]
    angle += phase[0, 0]
    angle -= np.rint(angle)
    angle *= 2.0 * np.pi
    # Im H off row 0, which the turn made exactly 0; column 0 is 0 too
    h_im = np.zeros((rank - 1, n_other, *batch))
    np.multiply(h_re[1:, 1:], np.sin(angle), out=h_im[:, 1:])
    h_re[1:, 1:] *= np.cos(angle, out=angle)
    for j in range(rank - 1):
        np.sum(h_re[j + 1 :] * h_re[j], axis=1, out=re[j][1:])
        np.sum(h_im[j:] * h_re[j], axis=1, out=im[j])
        if j:
            re[j][1:] += (h_im[j:] * h_im[j - 1]).sum(axis=1)
            im[j] -= (h_re[j + 1 :] * h_im[j - 1]).sum(axis=1)
    del h_re, h_im, angle  # the pivots read only G
    with np.errstate(over="ignore"):  # a * b overflows past SNR ~1e307
        for k in range(rank):
            # the Schur complement of I + a G at pivot k is I + a B with
            # B = G[k+1:, k+1:] - a / (1 + a G[k, k]) G[k+1:, k] G[k+1:, k]^H,
            # so the recursion runs on B, at the scale of G for any SNR
            b = np.maximum(re[k][0], 0.0)
            pivot = 1.0 + a * b
            log_pivot = np.log2(pivot)
            over = np.isinf(pivot) if pivot.max(initial=1.0) == math.inf else None
            if over is not None:
                log_pivot[over] = np.log2(b[over]) + math.log2(a)
            if k == 0:
                cap = log_pivot
            else:
                cap += log_pivot
            if k == rank - 1:  # no Schur complement is left to read
                break
            # a semidefinite B with a zero pivot has a zero column there, so
            # whatever roundoff left in that column is dropped, not scaled by a
            scale = np.where(b > 0.0, a / pivot, 0.0)
            if over is not None:
                scale[over] = 1.0 / b[over]
            col_re, col_im = re[k][1:], im[k]
            w_re, w_im = scale * col_re, scale * col_im
            for t, j in enumerate(range(k + 1, rank)):
                re[j] -= w_re[t:] * col_re[t] + w_im[t:] * col_im[t]
                im[j] -= w_im[t + 1 :] * col_re[t] - w_re[t + 1 :] * col_im[t]
    return cap


def _decode_rounds(
    u: np.ndarray,
    capacity: Callable[[np.ndarray], np.ndarray],
    target_rate: float,
    window: int,
    long_term: bool,
) -> np.ndarray:
    """Blocks each message needs on one hop; window + 1 marks outage.

    ``capacity`` maps a block of the hop's draws, shape (msg, round, rx, tx,
    [mag, phase]), to per-round capacities (msg, round).  Long-term static
    fading holds one draw for the whole message, so the accumulated rate
    after n rounds is n times the first round's capacity.  Short-term
    fading draws afresh each round; round k's capacities are computed only
    for the messages still short of the target after round k - 1, and
    added one round at a time, so the accumulated rates are the bits of a
    cumulative sum over rounds.
    """
    if long_term:
        c = capacity(u)[:, 0]
        with np.errstate(over="ignore"):  # window + 1 caps an inf quotient
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

    The hop's channel is drawn from its own stream as raw 64-bit words and
    decoded in chunks of whole messages, about ``_CHUNK_UNIFORMS`` words
    each.  Only the words a capacity reads are turned into uniforms
    (``_uniforms``): the magnitudes alone on a hop with a code rate, and on
    short-term hops a round's words only for the messages it still decodes.
    The rounds come in the narrowest integer dtype that holds window + 1.
    Below finite_snr._LOW_SNR a hop with a code rate compares capacity /
    snr against r m_rx log1p(y) / y, y = m_rx snr, both in nats, so a tiny
    or subnormal SNR decodes at the small-SNR limit the analysis reads.  A
    log-det hop of rank >= 2 has no code rate and compares bits at every
    SNR, against the log of the base that its outage reference reads too
    (finite_snr._target_base).
    """
    pair = config.topology.hop(h)
    window = config.protocol.windows[h]
    scenario = config.scenario
    n_msgs = config.message_count
    long_term = config.channel is ChannelAssumption.LONG_TERM_STATIC
    draw_rounds = 1 if long_term else window
    rng = RandomSource(config.seed).stream(1 + h)
    rate = _code_rate(pair, scenario, config.code_model)
    y = pair.m_rx * scenario.snr
    per_snr = rate is not None and y < _LOW_SNR
    if per_snr:
        target = scenario.multiplexing_gain * pair.m_rx * (math.log1p(y) / y)
    else:
        target = scenario.multiplexing_gain * _target_base(pair, scenario.snr, math.log2)[1]

    def capacity(words: np.ndarray) -> np.ndarray:
        u = _uniforms(words, mags_only=rate is not None)
        return _capacities(u, scenario.snr, pair.m_tx, rate, per_snr)

    per_msg = draw_rounds * pair.m_rx * pair.m_tx * 2
    step = max(1, _CHUNK_UNIFORMS // per_msg)
    rounds = np.empty(n_msgs, dtype=np.min_scalar_type(window + 1))
    for start in range(0, n_msgs, step):
        stop = min(start + step, n_msgs)
        words = _channel_words(rng, stop - start, draw_rounds, pair.m_rx, pair.m_tx)
        rounds[start:stop] = _decode_rounds(words, capacity, target, window, long_term)
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


def _hop_blocks(
    rounds: Sequence[np.ndarray],
    windows: Sequence[int],
    outage_hop: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Whole blocks each hop serves messages start:stop, one column per hop.

    A hop serves min(rounds, window) blocks, none once an earlier hop has
    dropped the message.
    """
    blocks = np.empty((stop - start, len(rounds)))
    dropped_at = outage_hop[start:stop]
    for h, (hop_rounds, window) in enumerate(zip(rounds, windows)):
        np.minimum(hop_rounds[start:stop], window, out=blocks[:, h])
        blocks[dropped_at < h, h] = 0.0
    return blocks


def _tandem_delays(
    arrival_rng: np.random.Generator,
    arrival_mean: float,
    n_msgs: int,
    n_stages: int,
    fill: Callable[[int, int, np.ndarray], None],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yields (start, delay): message start + j's sojourn in the tandem is delay[j].

    Messages run through every stage ``_TANDEM_CHUNK`` at a time; each
    stage's departures are the next stage's arrivals.  The Poisson arrival
    times continue their cumulative sum from the previous chunk's last
    arrival, and ``fill(start, stop, out)`` writes every stage's service
    times of messages start:stop into out, one row per stage.  One worker
    thread forms each chunk's inputs, in message order, while this thread
    reflects the chunk before; its exceptions are raised here, once joined.
    Delays are summed in one buffer that the next chunk reuses.
    """
    # imported here so that loading mharq starts no pool machinery
    from concurrent.futures import ThreadPoolExecutor

    step = min(_TANDEM_CHUNK, n_msgs)
    # chunks alternate between two buffer sets; rows: the arrivals, then
    # each stage's services
    buffer_sets = [np.empty((1 + n_stages, step)) for _ in range(2)]
    last_arrival = 0.0

    def draw(start: int) -> np.ndarray:
        nonlocal last_arrival
        stop = min(start + step, n_msgs)
        buffers = buffer_sets[start // step % 2][:, : stop - start]
        arrivals = _exponential(arrival_rng, arrival_mean, stop - start, buffers[0])
        arrivals[0] += last_arrival
        np.cumsum(arrivals, out=arrivals)
        last_arrival = arrivals[-1]
        fill(start, stop, buffers[1:])
        return buffers

    delay_buffer = np.empty(step)
    states: list[_LindleyState | None] = [None] * n_stages
    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(draw, 0)
        for start in range(0, n_msgs, step):
            arrivals, *stage_inputs = ahead.result()
            if start + step < n_msgs:
                ahead = worker.submit(draw, start + step)
            delay = delay_buffer[: arrivals.size]
            delay.fill(0.0)
            for i, services in enumerate(stage_inputs):
                sojourn, states[i] = _lindley_chunk(services, arrivals, states[i])
                sojourn += services
                delay += sojourn
                arrivals += sojourn  # departures feed the next stage
            yield start, delay


def _decode(
    config: SimConfig,
) -> tuple[DecodeResult, tuple[np.ndarray, ...], np.ndarray | None]:
    """decode_chain's result, each hop's rounds and each message's outage hop.

    rounds[h] holds the blocks each message needs on hop h (window + 1 marks
    outage) and outage_hop the hop that dropped it (n_hops for none), or ()
    and None in markovian mode; the queue stage forms its services from them.
    """
    windows = config.protocol.windows
    n_msgs = config.message_count
    n_hops = config.topology.n_hops
    cut = config.warmup_count
    analyzed = n_msgs - cut
    # the last bin of hop h's histogram counts the outage drops at hop h
    histograms = tuple(np.zeros(w + 2, dtype=np.int64) for w in windows)
    if config.service_mode == "markovian":
        return DecodeResult(config, (0,) * n_hops, (analyzed,) * n_hops, histograms), (), None
    # threads, as numpy releases the GIL in the draws and the ufuncs, and
    # one pool thread even on one core: inline on the main thread, glibc
    # trims the kernel's freed temporaries and a (2,2,2) decode of 2e5
    # messages takes about 12,000 page faults and a third longer;
    # imported here so that loading mharq starts no pool machinery
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_hop_workers(n_hops)) as pool:
        rounds = tuple(pool.map(partial(_hop_rounds, config), range(n_hops)))
    # the first window overrun kills the message and later hops carry it
    # for free; n_hops marks no outage, and filling the hops in reverse
    # leaves the first overrun in place
    outage_hop = np.full(n_msgs, n_hops, dtype=np.min_scalar_type(n_hops))
    for h in reversed(range(n_hops)):
        outage_hop[rounds[h] > windows[h]] = h
    # counted a tandem chunk at a time, as bincount widens its input to intp;
    # hop h sees the messages whose outage hop is h or later, so hop 0 all
    for lo in range(cut, n_msgs, _TANDEM_CHUNK):
        dropped_at = outage_hop[lo : lo + _TANDEM_CHUNK]
        for h, hist in enumerate(histograms):
            reached = rounds[h][lo : lo + dropped_at.size]
            if h:
                reached = reached[dropped_at >= h]
            hist += np.bincount(reached, minlength=hist.size)
    drops = tuple(int(hist[-1]) for hist in histograms)
    attempts = tuple(analyzed - sum(drops[:h]) for h in range(n_hops))
    return DecodeResult(config, drops, attempts, histograms), rounds, outage_hop


def decode_chain(config: SimConfig) -> DecodeResult:
    """The decode stage: each hop's round histogram, outage drops and attempts.

    A message is outage-dropped at the first hop whose window runs out;
    hop h's attempts are the analyzed messages that no earlier hop dropped.
    One pass over them counts every hop's round histogram, whose last bin
    is the hop's outage drops.  Each hop's channel is drawn, turned into
    capacities and decoded in chunks of whole messages, about
    ``_CHUNK_UNIFORMS`` words each, taken one after another from the hop's
    stream.  Draws are message-major, so no number depends on the chunk
    size.  The hops run concurrently on ``_hop_workers(n_hops)`` threads;
    each reads only its own stream, so no number depends on the worker
    count.  On short-term hops a later round's capacities are computed only
    for the messages it has not decoded yet; every round's words are still
    drawn for every message, so the draws, and every number, are those of
    computing them all.  Markovian service has no window to overrun: it
    draws nothing here.
    """
    return _decode(config)[0]


def run_network_sim(config: SimConfig) -> SimResult:
    """Run the decode stage, then the queue stage, and classify every message.

    The decode stage is ``decode_chain``: the result is its DecodeResult
    plus the queue's delays and counts.  An outage-dropped message still
    flows through the remaining stages with zero service so queue positions
    stay aligned.  Non-outage messages past the deadline count as deadline
    drops; their delays are recorded either way.

    The queue stage is the tandem of queueing stages, streamed in chunks of
    ``_TANDEM_CHUNK`` messages: each chunk draws its arrivals (and, in
    markovian mode, each stage's services) as the next uniforms of their
    streams, one chunk ahead on a worker thread, and each stage carries its
    Lindley state to the next chunk, so no number depends on the chunk size.
    Per message only the returned delays and, in physical mode, each hop's
    rounds and the outage hop are held; each chunk forms its hops' whole
    blocks from them, and its stage services are the analysis's stages of
    those blocks, finite_snr._stage_means.  The delays are sized once the
    drops are counted.
    """
    windows = config.protocol.windows
    arrival_mean, deadline = config.scenario.require_queueing()
    n_msgs = config.message_count
    n_hops = config.topology.n_hops
    cut = config.warmup_count
    source = RandomSource(config.seed)
    decoded, rounds, outage_hop = _decode(config)
    n_stages = _stage_means(windows).size

    if config.service_mode == "markovian":
        rngs = [source.stream(_STREAM_MARKOV_BASE + i) for i in range(n_stages)]
        means = _stage_means(config.hop_service_means())

        def fill(start: int, stop: int, out: np.ndarray) -> None:
            for rng, mean, row in zip(rngs, means, out):
                _exponential(rng, mean, stop - start, row)

    else:
        def fill(start: int, stop: int, out: np.ndarray) -> None:
            # sums of small integers, so exact
            blocks = _hop_blocks(rounds, windows, outage_hop, start, stop)
            out[:] = _stage_means(blocks).T

    analyzed, outage_drops = decoded.analyzed, decoded.outage_drops
    delays = np.empty(analyzed - outage_drops)
    filled = delivered = 0
    for start, delay in _tandem_delays(
        source.stream(_STREAM_ARRIVALS), arrival_mean, n_msgs, n_stages, fill
    ):
        kept = delay[max(cut - start, 0) :]
        if outage_drops:
            stop = start + delay.size
            kept = kept[outage_hop[stop - kept.size : stop] == n_hops]
        delays[filled : filled + kept.size] = kept
        filled += kept.size
        delivered += int(np.count_nonzero(kept <= deadline))
    return SimResult(
        **vars(decoded),
        delays=delays,
        delivered=delivered,
        deadline_drops=delays.size - delivered,
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

    def __reduce__(self):
        return type(self), (self.args[0], self.largest_usable)


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


def validation_references(config: SimConfig) -> tuple[tuple[str, float], ...]:
    """(check name, analytic value) of each check, formed before any simulation.

    Physical mode: each hop's outage and outage_total = 1 - prod(1 - p), in
    logs so outages below the rounding of 1 - p count.  Markovian mode: the
    delay_exponent.  Raises UnstableQueueError for an unstable queue.
    """
    if config.service_mode != "physical":
        arrival, _ = config.scenario.require_queueing()
        return (("delay_exponent", deadline_exponent(config.hop_service_means(), arrival)),)
    scenario, code = config.scenario, config.code_model
    outages = [
        per_hop_outage(config.topology.hop(i), float(w), scenario, code_model=code)
        for i, w in enumerate(config.protocol.windows)
    ]
    survive = math.fsum(math.log1p(-p) for p in outages if p < 1.0)
    total = 1.0 if 1.0 in outages else 0.0 - math.expm1(survive)  # +0, not -0, at no outage
    hops = [(f"outage_hop_{h}", p) for h, p in enumerate(outages, 1)]
    return (*hops, ("outage_total", total))


def validation_checks(
    config: SimConfig,
    references: Sequence[tuple[str, float]],
    result: DecodeResult,
) -> list[tuple[str, float, float, int, float, float, str]]:
    """Rows (check, analytic, empirical, samples, sigma, z_score, verdict).

    Physical mode reads only the decode stage's counts, so decode_chain's
    result serves as well as run_network_sim's SimResult, which extends it;
    markovian mode reads the SimResult's delays.
    An outage's sigma is binomial, sqrt(p (1 - p) / n).  The delay tail shares the
    analytic exponent, not its prefactor, so the exponent is fit on 8 deadlines from
    the 0.9 quantile to the 100th largest delay (again up to the largest usable one
    a TailFitError names); sigma is its jackknife stderr.  Thin tails: ValueError.
    """
    if config.service_mode == "physical":
        drops = (*result.per_hop_outage_drops, result.outage_drops)
        samples = (*result.per_hop_attempts, result.analyzed)
        checks = []
        for (name, p), k, n in zip(references, drops, samples):
            sigma = math.sqrt(p * (1.0 - p) / n) if n > 0 and 0.0 < p < 1.0 else 0.0
            checks.append((name, p, k / n if n else math.nan, n, sigma))
    else:
        delays = result.delays
        if delays.size < 60:
            raise ValueError("too few delays to fit the tail exponent")
        # the fit's batch stderr needs the delays in arrival order; the grid
        # ends come from a sorted copy, which the quantile partitions once hi is read
        ranked = np.sort(delays)
        hi = float(ranked[-100]) if ranked.size >= 100 else float(ranked[-60])
        lo = float(np.quantile(ranked, 0.9, overwrite_input=True))
        if hi <= lo:
            raise ValueError("delay tail too thin to fit an exponent")
        try:
            fit = estimate_delay_exponent(delays, list(np.linspace(lo, hi, 8)))
        except TailFitError as exc:
            # the fit's conditions hold at every deadline below a usable
            # one, so a grid ending at the largest usable deadline fits
            if exc.largest_usable is None or exc.largest_usable <= lo:
                raise
            fit = estimate_delay_exponent(delays, list(np.linspace(lo, exc.largest_usable, 8)))
        checks = [(*references[0], fit.exponent, delays.size, fit.stderr)]
    return [(*check, *verdict(*check[1:])) for check in checks]


def verdict(ana: float, emp: float, n: int, sigma: float) -> tuple[float, str]:
    """(z_score, verdict): no_samples at n = 0, else ok iff |z| <= 4, else mismatch."""
    if n == 0:
        return math.nan, "no_samples"
    z = (emp - ana) / sigma if sigma > 0.0 else 0.0 if emp == ana else math.inf
    return z, "ok" if abs(z) <= 4.0 else "mismatch"
