"""Monte-Carlo diagnostics for the renewal quantities behind the finiteness bounds.

N(y) counts demand partial sums not exceeding y; the first passage is
S_{N(y)+1} and the overshoot is R(y) = S_{N(y)+1} - y.  The module checks
Wald's identity E S_{N(y)+1} = E(N(y)+1) E D and the overshoot cost bound
E h*(x - S_{N(y)+1}) <= (1 + E N(y)) E h*(x - y - D), where h* equals the
holding curve on the nonpositive half-line and 0 elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DemandDistribution, InventoryModel, ModelError

__all__ = [
    "RenewalSample",
    "sample_renewal",
    "wald_check",
    "WaldReport",
    "overshoot_bound_check",
    "OvershootReport",
]

_MAX_ROUNDS = 10_000_000


@dataclass(eq=False)
class RenewalSample:
    """Per-path renewal counts, first-passage sums, and overshoots."""

    seed: int
    n_paths: int
    counts: np.ndarray  # N(y) per path
    first_passage: np.ndarray  # S_{N(y)+1} per path
    overshoot: np.ndarray  # R(y) = S_{N(y)+1} - y

    @property
    def mean_count(self) -> float:
        return float(self.counts.mean())


def sample_renewal(
    demand: DemandDistribution, y: float, n_paths: int, seed: int
) -> RenewalSample:
    """Draw i.i.d. demands per path until the partial sum exceeds y.

    Deterministic given the seed (single vectorized stream, one draw per
    still-active path per round).  The active paths and their sums are compacted
    only after a round in which some path finished.  For y < 0 the renewal
    interval is empty: N = 0 and the first passage is the first demand.
    """
    if demand.p_positive == 0.0:
        raise ModelError("renewal process degenerate: P(D > 0) = 0")
    if n_paths < 1:
        raise ModelError("need at least one path")
    rng = np.random.default_rng(seed)
    counts = np.empty(n_paths, dtype=np.int64)
    passage = np.empty(n_paths)
    active = np.arange(n_paths)
    sums = np.zeros(n_paths)  # partial sums of the active paths, in the same order
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ModelError("renewal sampling did not terminate; check the demand table")
        sums += demand.sample(rng, active.size)
        done = sums > y
        if (ended := np.flatnonzero(done)).size:  # compact only when some path finished
            finished = active.take(ended)
            passage[finished], counts[finished] = sums.take(ended), rounds - 1
            del ended, finished  # freed before the compaction, which keeps peak RSS down
            active, sums = active[~done], sums[~done]
    return RenewalSample(
        seed=seed,
        n_paths=n_paths,
        counts=counts,
        first_passage=passage,
        overshoot=passage - y,
    )


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
    x = sample.first_passage - (sample.counts + 1.0) * ed
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        z = 0.0 if abs(float(x.mean())) == 0.0 else math.inf
    else:
        z = float(x.mean()) / (sd / math.sqrt(sample.n_paths))
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
        z = np.asarray(z, dtype=float)
        return np.where(z <= 0, model.h(z), 0.0)

    lhs_samples = hstar(x - smp.first_passage)
    lhs = float(lhs_samples.mean())
    se = float(lhs_samples.std(ddof=1) / math.sqrt(smp.n_paths)) if smp.n_paths > 1 else 0.0
    exact = float(np.dot(model.demand.probs, hstar(x - y - model.demand.values)))
    rhs = (1.0 + smp.mean_count) * exact
    return OvershootReport(
        lhs=lhs, rhs=rhs, margin=rhs + 3.0 * se - lhs, mean_count=smp.mean_count
    )
