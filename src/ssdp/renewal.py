"""Monte-Carlo diagnostics for the renewal quantities behind the finiteness bounds.

N(y) counts demand partial sums not exceeding y; the first passage is
S_{N(y)+1} and the overshoot is R(y) = S_{N(y)+1} - y.  The module checks
Wald's identity E S_{N(y)+1} = E(N(y)+1) E D and the overshoot cost bound
E h*(x - S_{N(y)+1}) <= (1 + E N(y)) E h*(x - y - D), where h* equals the
holding curve on the nonpositive half-line and 0 elsewhere.  The sampler
draws into buffers made once per call and compacts its active paths in
place; the checks take their means and standard deviations in place, over
one sample-sized temporary (Wald) or two (the overshoot: points and costs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DRAW_CHUNK, DemandDistribution, InventoryModel, ModelError

__all__ = [
    "RenewalSample",
    "sample_renewal",
    "check_paths",
    "wald_check",
    "WaldReport",
    "overshoot_bound_check",
    "OvershootReport",
]

_MAX_ROUNDS = 10_000_000
MAX_PATHS = 10_000_000  # about 280 MB of per-path arrays; path ids fit int32


@dataclass(eq=False)
class RenewalSample:
    """Per-path renewal counts and first-passage sums."""

    seed: int
    n_paths: int
    counts: np.ndarray  # N(y) per path
    first_passage: np.ndarray  # S_{N(y)+1} per path
    y: float

    @property
    def mean_count(self) -> float:
        return float(self.counts.mean())


def check_paths(n_paths: int) -> None:
    """Raise ModelError unless 1 <= n_paths <= ``MAX_PATHS``."""
    if n_paths < 1:
        raise ModelError(f"n_paths (--paths) must be at least 1, got {n_paths}")
    if n_paths > MAX_PATHS:
        raise ModelError(f"n_paths (--paths) {n_paths:,} is above the cap of {MAX_PATHS:,} paths")


def sample_renewal(
    demand: DemandDistribution, y: float, n_paths: int, seed: int
) -> RenewalSample:
    """Draw i.i.d. demands per path until the partial sum exceeds y.

    Deterministic given the seed: one stream, one draw per still-active path
    per round, in path order.  Each round draws ``DRAW_CHUNK`` levels at a
    time (``DemandDistribution.draw_values``) into buffers made once per call
    and adds them straight into that chunk of the partial sums.  No sum can
    pass y while ``rounds * max atom`` (summed in floats, as the sums are)
    stays at or below y, so those rounds test nothing.  Later rounds record
    each chunk's finished paths and move its active path ids (int32) and sums
    down in place, in order: 28 bytes a path and the chunk buffers.  For
    y < 0 the renewal interval is empty: N = 0 and the first passage is the
    first demand.
    """
    if demand.p_positive == 0.0:
        raise ModelError("renewal process degenerate: P(D > 0) = 0")
    check_paths(n_paths)
    rng = np.random.default_rng(seed)
    counts = np.empty(n_paths, dtype=np.int64)
    passage = np.empty(n_paths)
    ids = np.arange(n_paths, dtype=np.int32)  # the active paths, first `active` entries
    sums = np.zeros(n_paths)  # their partial sums, in the same order
    chunk = min(n_paths, DRAW_CHUNK)
    draws, levels, kept_sums = np.empty((3, chunk))
    buckets, kept_ids = np.empty(chunk, np.intp), np.empty(chunk, np.int32)
    done = np.empty(chunk, bool)
    active, rounds, reach = n_paths, 0, 0.0  # reach: no partial sum exceeds it
    while active:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ModelError("renewal sampling did not terminate; check the demand table")
        reach += demand.max_value
        kept = 0
        for j in range(0, active, chunk):
            k = min(chunk, active - j)
            d, s, i = draws[:k], sums[j : j + k], ids[j : j + k]
            demand.draw_values(rng, d, levels[:k], buckets[:k])
            s += d
            if reach <= y:
                continue
            ended = np.flatnonzero(np.greater(s, y, out=done[:k]))
            if ended.size:
                finished = i.take(ended, mode="clip").astype(np.intp)
                passage[finished], counts[finished] = s.take(ended, mode="clip"), rounds - 1
                stay = np.flatnonzero(np.logical_not(done[:k], out=done[:k]))
                s = s.take(stay, out=kept_sums[: stay.size], mode="clip")
                i = i.take(stay, out=kept_ids[: stay.size], mode="clip")
            if ended.size or kept < j:
                sums[kept : kept + s.size], ids[kept : kept + s.size] = s, i
            kept += s.size
        if reach > y:
            active = kept
    return RenewalSample(seed=seed, n_paths=n_paths, counts=counts, first_passage=passage, y=y)


def _mean_and_sd(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std(ddof=1)`` (0.0 for one element) as numpy computes them,
    bitwise, with ``x`` overwritten by its squared deviations instead of a copy."""
    mean = np.add.reduce(x) / x.size
    if x.size < 2:
        return float(mean), 0.0
    x -= mean
    np.multiply(x, x, out=x)
    return float(mean), math.sqrt(np.add.reduce(x) / (x.size - 1))


@dataclass(frozen=True)
class WaldReport:
    lhs: float  # mean of S_{N(y)+1}
    rhs: float  # (mean N(y) + 1) * E D
    z: Optional[float]  # studentized difference; None when inconclusive
    n_paths: int

    @property
    def passes(self) -> bool:
        return self.z is not None and abs(self.z) <= 4.0


def wald_check(sample: RenewalSample, demand: DemandDistribution) -> WaldReport:
    """Studentized check of the stopped-sum identity.

    Uses the per-path statistic X = S_{N+1} - (N + 1) E D, which has mean
    zero exactly.  A single-path sample has no spread estimate and is
    reported as inconclusive (z = None); zero spread with zero mean is an
    exact match (z = 0).
    """
    ed = demand.mean
    lhs = float(sample.first_passage.mean())
    rhs = float((sample.counts.mean() + 1.0) * ed)
    if sample.n_paths < 2:
        return WaldReport(lhs=lhs, rhs=rhs, z=None, n_paths=sample.n_paths)
    x = np.add(sample.counts, 1.0)
    x *= ed
    mean, sd = _mean_and_sd(np.subtract(sample.first_passage, x, out=x))
    if sd == 0.0:
        z = 0.0 if abs(mean) == 0.0 else math.inf
    else:
        z = mean / (sd / math.sqrt(sample.n_paths))
    return WaldReport(lhs=lhs, rhs=rhs, z=z, n_paths=sample.n_paths)


@dataclass(frozen=True)
class OvershootReport:
    lhs: float
    rhs: float
    margin: float  # rhs + 3 se - lhs
    mean_count: float

    @property
    def passes(self) -> bool:
        return self.margin >= 0.0


def overshoot_bound_check(
    model: InventoryModel,
    x: float,
    y: float,
    n_paths: int,
    seed: int,
    sample: Optional[RenewalSample] = None,
) -> OvershootReport:
    """Estimate both sides of the overshoot cost bound from one sample.

    The left side averages h*(x - S_{N(y)+1}) over paths; the right side
    uses the empirical mean of N(y) and the exact atom expectation of
    h*(x - y - D).
    """
    if y < 0:
        raise ModelError("overshoot bound requires y >= 0")
    smp = sample or sample_renewal(model.demand, y, n_paths, seed)

    def hstar(z: np.ndarray) -> np.ndarray:
        out = model.h(z)
        out[z > 0] = 0.0
        return out

    lhs, sd = _mean_and_sd(hstar(np.subtract(x, smp.first_passage)))
    se = sd / math.sqrt(smp.n_paths)
    exact = float(np.dot(model.demand.probs, hstar(x - y - model.demand.values)))
    rhs = (1.0 + smp.mean_count) * exact
    return OvershootReport(
        lhs=lhs, rhs=rhs, margin=rhs + 3.0 * se - lhs, mean_count=smp.mean_count
    )
