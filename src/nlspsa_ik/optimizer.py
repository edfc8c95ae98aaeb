"""Norm-limited SPSA solver for the joint-space optimization problem.

The update rule follows stochastic approximation with a simultaneous
perturbation gradient estimate: two loss measurements per iteration at
symmetric random perturbations, regardless of problem dimension. Every
component of the update vector saturates at a bound ``d``, which keeps
single-iteration joint motion small and stabilizes the iteration; ``d = inf``
applies the raw update, which is plain SPSA (Spall 1992).
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverFault
from .kinematics import ChainModel, Pose, forward_kinematics, require_number
from .objective import LossEvaluator, ObjectiveSpec

# Perturbation vectors are drawn per seed in blocks of iterations, as the
# bits of one getrandbits call. Each iteration takes whole 32-bit words of
# the stream (getrandbits drops the unused bits of a partial word), so block
# draws consume the stream exactly like per-iteration draws, and the block
# length cannot change a result. The run's bookkeeping is settled once
# per block, too. Each block costs a draw per seed and a settle pass, while
# its iterate history costs 8 bytes per iteration, seed and joint. So a
# block holds at most _BLOCK_VALUES iterate values (512 KiB), within
# _BLOCK_MIN.._BLOCK_MAX iterations: small batches keep the long block they
# run fastest with, and large ones trade a few percent of time for memory.
_BLOCK_VALUES = 1 << 16
_BLOCK_MIN = 128
_BLOCK_MAX = 512
# Iterations per slice of a block. The settle pass walks a block by slices,
# evaluating each slice's traced iterates in one call and scanning its
# history, so its work buffers stay a fraction of the history buffer.
_SCAN_ROWS = 64
# The faults that can end a seed's run at iteration k, in the order the
# checks apply there; 0 is no fault.
_LOSS, _ITERATE, _TRACE_LOSS = 1, 2, 3


@dataclass(frozen=True)
class SolverParams:
    """Gain schedule, saturation bound, and budget, shared by every seed of
    a run or batch (the seed is an argument of ``solve`` and ``solve_many``).

    Step size decays as a/(A+k)^alpha and the perturbation size as c/k^gamma
    with the iteration index k starting at 1. ``d`` bounds each component of
    an update (degrees per joint per iteration); ``d = inf`` is plain SPSA.
    The gains are finite and the counts integers. Every run that does not
    fault takes exactly ``n_max`` iterations.
    """

    a: float = 3000.0
    A: float = 10.0
    c: float = 0.1
    alpha: float = 0.602
    gamma: float = 0.101
    d: float = 0.03
    n_max: int = 25000
    trace_every: int = 1

    def __post_init__(self):
        for name in ("a", "A", "c", "alpha", "gamma", "d"):
            object.__setattr__(self, name, require_number(getattr(self, name), name))
        for name in ("a", "A", "c", "alpha", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("a", "c", "alpha", "gamma", "d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.A < 0:
            raise ValueError(f"A must be nonnegative, got {self.A}")
        for name in ("n_max", "trace_every"):
            if require_count(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def require_count(params, name: str) -> int:
    """The integer field ``name`` of the frozen ``params``, stored back as an int."""
    value = getattr(params, name)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(params, name, int(value))
    return int(value)


def require_seed(seed) -> int:
    """``seed`` as an int: an integer (Python or numpy, not bool) in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    value = int(seed)
    if value < 0:
        raise ValueError(f"seed must be nonnegative, got {value}")
    if value >= 1 << 64:
        raise ValueError(f"seed must be below 2**64, got {value}")
    return value


@dataclass(eq=False)
class RunRecord:
    """Outcome of one solver run.

    ``final_iterate`` is the iterate after the last executed iteration (the
    answer), not the best-so-far. ``evaluations``
    counts loss measurements consumed by the optimizer itself (exactly two
    per iteration); the ``trace_evaluations`` bookkeeping measurements are
    counted separately. ``loss_trace[i]`` is the loss after
    ``trace_iterations[i]`` updates, starting from 0 (the initial value) and
    always ending at the final iterate; ``initial_loss``, ``final_loss`` and
    ``best_loss`` are its first, last and lowest value (``best_loss`` is
    diagnostic only). From ``solve_many``, ``loss_trace`` and
    ``trace_iterations`` are read-only views into arrays that the records of
    one batch share; copy them before writing. ``elapsed`` is the wall time, in seconds, of the
    batch the seed ran in divided by the seeds in that batch; a single-seed
    solve reports its own wall time.
    """

    final_iterate: np.ndarray
    final_pose: Pose
    loss_trace: np.ndarray
    trace_iterations: np.ndarray
    evaluations: int
    trace_evaluations: int
    iterations: int
    max_step_inf: float
    seed: int
    elapsed: float

    @property
    def initial_loss(self) -> float:
        return float(self.loss_trace[0])

    @property
    def final_loss(self) -> float:
        return float(self.loss_trace[-1])

    @property
    def best_loss(self) -> float:
        return float(self.loss_trace.min())


def _estimate(plus, minus, c_k):
    """The two-measurement difference quotient (J+ - J-) / (2*c_k)."""
    return (plus - minus) / (2.0 * c_k)


def saturate(x: np.ndarray, d: float) -> np.ndarray:
    """Componentwise clamp to [-d, d]; NaN stays NaN and -0.0 stays -0.0, so
    ``d = inf`` returns ``x`` bit for bit."""
    if not d > 0:
        raise ValueError(f"saturation bound must be positive, got {d}")
    return np.minimum(np.maximum(x, -d), d)


def solve(
    spec: ObjectiveSpec, chain: ChainModel, params: SolverParams, seed: int = 0
) -> RunRecord:
    """Run the solver once, seeded from ``seed``: ``solve_many`` on one seed.

    Starts from the reference configuration, runs ``n_max`` iterations (two
    loss measurements each), and returns the final iterate. Raises
    :class:`SolverFault` if any loss measurement or iterate goes non-finite.
    """
    outcome = solve_many(spec, chain, params, [seed])[0]
    if isinstance(outcome, SolverFault):
        raise outcome
    return outcome


def _block_length(n_seeds: int, n: int) -> int:
    """Iterations per perturbation block for a batch of this shape."""
    return min(_BLOCK_MAX, max(_BLOCK_MIN, _BLOCK_VALUES // (n_seeds * n)))


def solve_many(
    spec: ObjectiveSpec,
    chain: ChainModel,
    params: SolverParams,
    seeds: Sequence[int],
) -> list:
    """Run one solver instance per seed, batched over a shared iteration loop.

    Each seed, an integer in [0, 2**64) (any other raises ``ValueError``),
    owns an independent PRNG stream and every batch size
    runs the same arithmetic, so a seed's result is bit-identical whichever
    seeds share its batch. A failed seed's slot holds its :class:`SolverFault`
    instead of a record, and the other seeds keep running. ``elapsed`` is
    apportioned evenly across the batch.

    Each iteration only measures the two losses, in one loss call on every
    seed's stacked plus and minus configurations, and takes the step, storing
    the losses and the new iterate in per-block buffers. One pass per block
    then walks those buffers by slices of ``_SCAN_ROWS`` iterations: it
    evaluates each slice's traced iterates in one call (the first slice's
    call also holds the start), checks finiteness and bounds the step, with
    the same outcome, down to the fault iteration, as checking after every
    iteration. Every seed that does not fault runs all ``n_max``
    iterations, and its trace values are all finite.
    """
    seeds = [require_seed(s) for s in seeds]
    if not seeds:
        return []
    evaluate = LossEvaluator(spec, chain).evaluate_many
    n = chain.n
    n_seeds = len(seeds)
    n_iter = params.n_max
    d = params.d
    limits = chain.joint_limits
    if limits is not None:
        q_lo = np.asarray(limits[0])
        q_hi = np.asarray(limits[1])

    started = time.perf_counter()
    # CPython's MT19937, one stream per seed; Random seeds from abs(seed),
    # which is why a negative seed is refused above.
    gens = [random.Random(s) for s in seeds]
    # Iteration j's perturbation of joint i is bit 32*words*j + i of its
    # seed's block draw, little-endian: bit 1 is +1 and bit 0 is -1.
    words = -(-n // 32)

    trace_ks = np.arange(0, n_iter + 1, params.trace_every)
    if trace_ks[-1] != n_iter:
        trace_ks = np.append(trace_ks, n_iter)
    traces = np.full((len(trace_ks), n_seeds), np.nan)

    # hist[0] is the current iterate; a block's perturbations are drawn into
    # hist[1:], and iteration j overwrites its perturbation hist[j + 1] with
    # the iterate it produces.
    block = _block_length(n_seeds, n)
    hist = np.empty((block + 1, n_seeds, n))
    hist[0] = spec.reference
    # Each iteration measures its plus and its minus configurations in one
    # call: configs stacks them, and measured[j] holds their losses.
    configs = np.empty((2 * n_seeds, n))
    plus_configs, minus_configs = configs[:n_seeds], configs[n_seeds:]
    measured = np.empty((block, 2 * n_seeds))
    # row views made once, so the loop does not index the buffers
    hist_rows, measured_rows = list(hist), list(measured)
    plus_rows, minus_rows = list(measured[:, :n_seeds]), list(measured[:, n_seeds:])
    step_buf = np.empty((_SCAN_ROWS, n_seeds, n))

    active = np.ones(n_seeds, dtype=bool)
    faults: list[SolverFault | None] = [None] * n_seeds
    max_step = np.zeros(n_seeds)

    def settle_block(block_start: int, block_len: int, slot: int) -> int:
        """Trace points, checks and bookkeeping for iterations block_start+1
        .. block_start + block_len, whose trace points start at ``slot``
        (slot 0, the initial point hist[0], is evaluated and settled with
        the first block's first slice). Returns the first trace point of the
        next block."""
        history = hist[: block_len + 1]
        traced = slot  # the first trace point not yet evaluated
        steps = np.empty((block_len, n_seeds))
        for lo in range(0, block_len, _SCAN_ROWS):
            hi = min(lo + _SCAN_ROWS, block_len)
            # the slice's trace points, in one call
            upto = np.searchsorted(trace_ks, block_start + hi, "right")
            if upto > traced:
                rows = hist[trace_ks[traced:upto] - block_start]
                evaluate(rows.reshape(-1, n), out=traces[traced:upto].reshape(-1))
                traced = upto
            step = np.subtract(
                history[lo + 1 : hi + 1], history[lo:hi], out=step_buf[: hi - lo]
            )
            np.abs(step, out=step).max(axis=2, out=steps[lo:hi])
        # kind[r, s] is seed s's fault at iteration block_start + r. Later
        # assignments win, so each iteration records its earliest check.
        kind = np.zeros((block_len + 1, n_seeds), np.int8)
        values = traces[slot:traced]
        kind[trace_ks[slot:traced] - block_start] = _TRACE_LOSS * ~np.isfinite(values)
        # An active seed's previous iterate is finite and max propagates
        # NaN, so a step is non-finite exactly where its new iterate is.
        kind[1:][~np.isfinite(steps)] = _ITERATE
        losses = measured[:block_len].reshape(block_len, 2, n_seeds)  # plus, minus
        kind[1:][~np.isfinite(losses).all(axis=1)] = _LOSS
        kind[:, ~active] = 0
        faulty = kind.any(axis=0)
        np.maximum(max_step, steps.max(axis=0), out=max_step, where=active & ~faulty)
        first = (kind != 0).argmax(axis=0)
        faulted = np.flatnonzero(faulty)
        active[faulted] = False
        for s in faulted:
            k = block_start + int(first[s])
            what = "iterate" if kind[first[s], s] == _ITERATE else "loss"
            faults[s] = SolverFault(
                f"non-finite {what} at iteration {k} (seed {seeds[s]})", iteration=k
            )
        return traced

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slot = 0  # the first trace point not yet settled
        for block_start in range(0, n_iter, block):
            if not active.any():
                break
            block_len = min(block, n_iter - block_start)
            deltas = hist[1 : block_len + 1]
            n_bits = 32 * words * block_len
            drawn = b"".join(
                gen.getrandbits(n_bits).to_bytes(n_bits // 8, "little") for gen in gens
            )
            bits = np.unpackbits(np.frombuffer(drawn, np.uint8), bitorder="little")
            bits = bits.reshape(n_seeds, block_len, 32 * words)[:, :, :n]
            np.multiply(bits.transpose(1, 0, 2), 2.0, out=deltas)
            deltas -= 1.0
            # the gain schedules of this block only: elementwise, so equal to
            # the full run's schedules bit for bit
            ks = np.arange(block_start + 1, block_start + block_len + 1)
            a_block = (params.a / (params.A + ks) ** params.alpha).tolist()
            c_block = (params.c / ks**params.gamma).tolist()

            for j in range(block_len):
                c_k = c_block[j]
                phi = hist_rows[j]
                new_phi = hist_rows[j + 1]  # holds this iteration's delta
                perturbation = c_k * new_phi
                np.add(phi, perturbation, out=plus_configs)
                np.subtract(phi, perturbation, out=minus_configs)
                evaluate(configs, out=measured_rows[j])
                # delta is +-1, so a_k times the gradient estimate (J+ - J-) /
                # (2 c_k delta) is +-factor in every component, and saturating
                # the factor saturates each component of the update.
                factor = saturate(a_block[j] * _estimate(plus_rows[j], minus_rows[j], c_k), d)
                np.subtract(phi, factor[:, None] * new_phi, out=new_phi)
                if limits is not None:
                    np.clip(new_phi, q_lo, q_hi, out=new_phi)

            slot = settle_block(block_start, block_len, slot)
            hist[0] = hist[block_len]

    elapsed = (time.perf_counter() - started) / n_seeds
    # A record's trace is a read-only view of its column of the batch's
    # trace: no per-seed copies.
    traces.setflags(write=False)
    trace_ks.setflags(write=False)
    results: list = []
    for s in range(n_seeds):
        if faults[s] is not None:
            results.append(faults[s])
            continue
        results.append(
            RunRecord(
                final_iterate=hist[0, s].copy(),
                final_pose=forward_kinematics(chain, hist[0, s]),
                loss_trace=traces[:, s],
                trace_iterations=trace_ks,
                evaluations=2 * n_iter,
                trace_evaluations=len(trace_ks),
                iterations=n_iter,
                max_step_inf=float(max_step[s]),
                seed=seeds[s],
                elapsed=elapsed,
            )
        )
    return results
