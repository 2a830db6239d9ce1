"""Model primitives: state grid, demand atoms, cost structure, transition kernel.

The state space is a uniform lattice of inventory levels.  Actions are
order-up-to moves on the same lattice, so ordering ``a`` from state ``x``
lands at the grid point ``x + a``.  Demand atoms may sit off-lattice; the
kernel then splits transition mass between the two neighbouring grid points
with linear weights, and clamps anything that would fall below the bottom
of the grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ModelError",
    "Grid",
    "PiecewiseLinear",
    "DemandDistribution",
    "ContinuousDemand",
    "discretize_demand",
    "InventoryModel",
    "Kernel",
    "build_kernel",
    "post_expectation_matrix",
    "build_cost",
    "PolicyTable",
]

CONVEXITY_SLACK = 1e-12
TRUNCATION_FLOOR = 1.0 - 1e-8
EH_BUCKETS_CAP = 2**16  # most buckets in the E h knot table
DRAW_CHUNK = 8192  # levels drawn at a time (the stream is that of one draw)
# largest n x band work array post_expectation_matrix may allocate
OPERATOR_BAND_BYTES_CAP = 256 * 2**20


class ModelError(ValueError):
    """Raised when a grid, demand, cost, or model specification is invalid."""


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def finite_number(value, field: str) -> float:
    """``value`` as a float, or a ModelError naming ``field`` (bools and strings too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ModelError(f"{field} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Grid:
    """Uniform lattice of inventory levels spanning [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    step: float = 1.0
    integer_mode: bool = False

    def __post_init__(self) -> None:
        for name in ("x_lo", "x_hi", "step"):
            finite_number(getattr(self, name), f"grid.{name}")
        if not self.step > 0:
            raise ModelError(f"grid step must be positive, got {self.step}")
        if not isinstance(self.integer_mode, bool):
            raise ModelError(f"grid.integer_mode must be true or false, got {self.integer_mode!r}")
        if not self.x_lo < self.x_hi:
            raise ModelError(f"grid needs x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        n_real = (self.x_hi - self.x_lo) / self.step + 1.0
        n = int(round(n_real))
        if n < 2 or abs(n_real - n) > 1e-9:
            raise ModelError(
                f"grid span ({self.x_lo}, {self.x_hi}) is not a whole number of steps {self.step}"
            )
        if self.integer_mode:
            if self.step != 1.0:
                raise ModelError("integer_mode requires step = 1")
            if self.x_lo != int(self.x_lo) or self.x_hi != int(self.x_hi):
                raise ModelError("integer_mode requires integer endpoints")
        points = self.x_lo + self.step * np.arange(n, dtype=float)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", read_only(points))

    n: int = field(init=False, default=0)
    # points: np.ndarray, filled in __post_init__

    def index_of(self, x: float) -> int:
        pos = (x - self.x_lo) / self.step  # fractional grid coordinate: 0 at x_lo, n-1 at x_hi
        idx = int(round(pos))
        if idx < 0 or idx >= self.n or abs(pos - idx) > 1e-9:
            raise ModelError(f"{x} is not a grid point of [{self.x_lo}, {self.x_hi}] step {self.step}")
        return idx


class PiecewiseLinear:
    """Piecewise-linear function given by breakpoints, extended linearly.

    Beyond the first/last breakpoint the end segments continue with their
    slopes, so the function is defined (and exact) on all of R.  This is the
    canonical representation for holding/backorder cost curves: expectations
    over demand atoms and convexity checks are then exact sums.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs_arr = np.asarray(xs, dtype=float)
        ys_arr = np.asarray(ys, dtype=float)
        if xs_arr.ndim != 1 or xs_arr.shape != ys_arr.shape or xs_arr.size < 2:
            raise ModelError("need at least two (x, y) breakpoints")
        if not (np.all(np.isfinite(xs_arr)) and np.all(np.isfinite(ys_arr))):
            raise ModelError("piecewise-linear curve h must have finite breakpoints")
        order = np.argsort(xs_arr)
        xs_arr, ys_arr = xs_arr[order], ys_arr[order]
        if np.any(np.diff(xs_arr) <= 0):
            raise ModelError("breakpoint x values must be distinct")
        self.xs = xs_arr
        self.ys = ys_arr
        self.slopes = np.diff(ys_arr) / np.diff(xs_arr)

    @classmethod
    def from_breakpoints(cls, pairs: Iterable[Sequence[float]]) -> "PiecewiseLinear":
        pts = list(pairs)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        flat = arr.reshape(-1)
        out = np.interp(flat, self.xs, self.ys)
        # past an end, y_end + (x - x_end) * slope_end, in place and only where it applies
        for end, side in ((0, np.less), (-1, np.greater)):
            past = side(flat, self.xs[end])
            if past.any():
                np.subtract(flat, self.xs[end], out=out, where=past)
                np.multiply(out, self.slopes[end], out=out, where=past)
                np.add(out, self.ys[end], out=out, where=past)
        return float(out[0]) if np.isscalar(x) or arr.ndim == 0 else out.reshape(arr.shape)

    def is_convex(self) -> bool:
        return bool(np.all(np.diff(self.slopes) >= -CONVEXITY_SLACK))

    def shifted_to_origin(self) -> tuple["PiecewiseLinear", float, float]:
        """Recentre so the (smallest) minimum sits at 0 with value 0; returns (h, x*, offset)."""
        if self.slopes[0] > 0 or self.slopes[-1] < 0:
            raise ModelError("function is unbounded below; no finite minimizer")
        k = int(np.argmin(self.ys))
        x_star, y_min = float(self.xs[k]), float(self.ys[k])
        if x_star == 0.0 and y_min == 0.0:
            return self, 0.0, 0.0
        return PiecewiseLinear(self.xs - x_star, self.ys - y_min), x_star, y_min


@dataclass(frozen=True, eq=False)
class DemandDistribution:
    """Finite probability mass table for the per-period demand.

    ``truncation_mass`` records how much probability the atoms covered
    before renormalization (1.0 for native discrete tables, 1 - 1e-8 for
    quantile-discretized continuous demand).
    """

    values: np.ndarray
    probs: np.ndarray
    source: str = "native-discrete"
    truncation_mass: float = 1.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.size == 0:
            raise ModelError("demand needs at least one atom")
        if v.shape != p.shape or v.ndim != 1:
            raise ModelError("demand values/probs must be matching 1-d arrays")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise ModelError("demand atom values and probabilities must be finite")
        if np.any(v < 0):
            raise ModelError("demand atoms must be nonnegative")
        if np.any(p <= 0):
            raise ModelError("demand atom probabilities must be positive")
        if np.any(np.diff(v) <= 0):
            raise ModelError("demand atoms must be sorted and distinct")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ModelError("demand probabilities must sum to 1 (renormalize first)")
        if self.truncation_mass < TRUNCATION_FLOOR - 1e-12:
            raise ModelError(
                f"atoms cover mass {self.truncation_mass}, below the {TRUNCATION_FLOOR} floor"
            )
        object.__setattr__(self, "values", read_only(v))
        object.__setattr__(self, "probs", read_only(p))

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[Sequence[float]], source: str = "native-discrete"
    ) -> "DemandDistribution":
        """Build from (value, prob) pairs: merge duplicates, drop zero mass, renormalize."""
        pts = [(float(v), float(p)) for v, p in atoms]
        for v, p in pts:
            if not (math.isfinite(v) and math.isfinite(p)):
                raise ModelError(f"demand atom ({v}, {p}): value and probability must be finite")
        if any(p < 0 for _, p in pts):
            raise ModelError("demand atom probabilities must be nonnegative")
        raw_mass = sum(p for _, p in pts)
        merged: dict[float, float] = {}
        for v, p in pts:
            if p > 0.0:
                merged[v] = merged.get(v, 0.0) + p
        if not merged:
            raise ModelError("demand needs at least one atom with positive probability")
        vals = np.array(sorted(merged), dtype=float)
        probs = np.array([merged[v] for v in vals], dtype=float)
        probs = probs / probs.sum()
        return cls(values=vals, probs=probs, source=source, truncation_mass=raw_mass)

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    @property
    def p_positive(self) -> float:
        return float(self.probs[self.values > 0].sum())

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF edges (-inf first; +inf last: sums may end below 1) and 2**k >= max(4096, 64
        atoms) level buckets [b, b + 1) / 2**k, each holding its atom, or n_atoms if split."""
        edges = np.concatenate(([-np.inf], np.cumsum(self.probs)[:-1], [np.inf]))
        size = 1 << max(12, (64 * self.n_atoms - 1).bit_length())
        atom = np.searchsorted(edges, np.arange(size + 1) / size) - 1
        table = np.where(atom[:-1] == atom[1:], atom[:-1], self.n_atoms)
        return edges, table.astype(np.min_scalar_type(self.n_atoms))

    def _atoms_of(self, v: np.ndarray) -> np.ndarray:
        """Atom k with edges[k] < v <= edges[k + 1] per level v in [0, 1): v * 2**k is
        exact, so its floor is v's bucket, and only sentinels take ``np.searchsorted``."""
        edges, table = self._guide
        k = table.take((v * table.size).astype(np.intp))
        split = np.flatnonzero(k == self.n_atoms)
        k[split] = np.searchsorted(edges, v[split]) - 1
        return k

    def sample_atoms(self, rng: np.random.Generator, size) -> np.ndarray:
        """Atom indices of inverse-CDF draws, in the smallest unsigned dtype that holds them.

        Levels are drawn ``DRAW_CHUNK`` at a time (the stream of one ``rng.random(size)``) and
        read from the level table of ``_guide`` (Chen & Asau 1974; Devroye 1986, III.2.4).
        """
        atoms = np.empty(size, dtype=np.min_scalar_type(self.n_atoms - 1))
        for out in _chunks(atoms):
            out[:] = self._atoms_of(rng.random(out.size))
        return atoms

    @cached_property
    def _bucket_values(self) -> np.ndarray:
        """Per level bucket of ``_guide``: its atom's value, or NaN where a CDF edge splits
        the bucket (the atom values are finite, so NaN marks only split buckets)."""
        table = self._guide[1]
        values = np.append(self.values, np.nan)  # index n_atoms: the split sentinel
        return read_only(values.take(table))

    def draw_values(self, rng: np.random.Generator, out: np.ndarray, levels: np.ndarray,
                    buckets: np.ndarray) -> None:
        """Write the demands of the next ``out.size`` levels of ``rng``'s stream into ``out``.

        Each level reads its bucket's value from ``_bucket_values``; only levels in split
        buckets take ``np.searchsorted``, so every draw is ``sample_atoms``' atom.
        ``levels`` (float) and ``buckets`` (intp) are work buffers of ``out``'s shape, so a
        caller that draws chunk after chunk allocates them once.
        """
        edges, table = self._guide
        rng.random(out=levels)
        # level * 2**k is exact, and its truncation is the floor: the bucket, in range
        np.multiply(levels, table.size, out=buckets, casting="unsafe")
        self._bucket_values.take(buckets, out=out, mode="clip")
        split = np.flatnonzero(np.isnan(out))
        out[split] = self.values.take(np.searchsorted(edges, levels.take(split)) - 1)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Values of ``sample_atoms``' draws, ``draw_values`` chunk by chunk with no atom array."""
        draws = np.empty(size)
        levels = np.empty(min(draws.size, DRAW_CHUNK))
        buckets = np.empty(levels.size, np.intp)
        for out in _chunks(draws):
            self.draw_values(rng, out, levels[: out.size], buckets[: out.size])
        return draws


def _chunks(a: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of ``DRAW_CHUNK`` elements over the flattened array."""
    return np.split(a.reshape(-1), range(DRAW_CHUNK, a.size, DRAW_CHUNK))


# family -> {parameter: (comparison, lower bound: a number or an earlier parameter)}
DEMAND_FAMILIES = {
    "uniform": {"low": (">=", 0.0), "high": (">", "low")},
    "exponential": {"mean": (">", 0.0)},
    "gamma": {"shape": (">", 0.0), "scale": (">", 0.0)},
    "point": {"value": (">=", 0.0)},
}


@dataclass(frozen=True)
class ContinuousDemand:
    """Parametric continuous demand to be quantile-discretized.

    Families and parameters are those of ``DEMAND_FAMILIES``; ``normal`` is
    always rejected, since it puts mass on negative demand.  Each parameter
    must be a finite real, and an error names its config field.
    """

    family: str
    params: dict

    def __post_init__(self) -> None:
        where = "demand.continuous"
        if self.family == "normal":
            raise ModelError(f"{where}.family 'normal' has P(D < 0) > 0")
        if not isinstance(self.family, str) or self.family not in DEMAND_FAMILIES:
            raise ModelError(f"{where}.family {self.family!r} not in {list(DEMAND_FAMILIES)}")
        rules = DEMAND_FAMILIES[self.family]
        if not isinstance(self.params, dict):
            raise ModelError(f"{where}.params must be an object, got {self.params!r}")
        p = {}
        for name, (op, bound) in rules.items():
            if name not in self.params:
                raise ModelError(f"{where}.params.{name} is required for {self.family} demand")
            v = finite_number(self.params[name], f"{where}.params.{name}")
            floor = p[bound] if isinstance(bound, str) else bound
            if not (v > floor if op == ">" else v >= floor):
                raise ModelError(f"{where}.params.{name} must be {op} {bound}, got {v}")
            p[name] = v
        extra = sorted(set(self.params) - set(p), key=str)
        if extra:
            raise ModelError(f"{where}.params.{extra[0]}: {self.family} takes only {list(p)}")
        object.__setattr__(self, "params", p)

    def _quantile(self, q: np.ndarray) -> np.ndarray:
        """Quantiles of D at the probability levels q, in closed form."""
        p = self.params
        if self.family == "uniform":
            return p["low"] + q * (p["high"] - p["low"])
        if self.family == "exponential":
            return -p["mean"] * np.log1p(-q)
        from scipy.special import gammaincinv

        return p["scale"] * gammaincinv(p["shape"], q)

    def _bin_means(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """E[D | lo < D < hi] per bin, in closed form (nan where hi == lo)."""
        p = self.params
        if self.family == "uniform":
            return lo + 0.5 * (hi - lo)
        if self.family == "exponential":
            # memoryless: D - lo given D > lo is exponential; no cancellation in narrow bins
            w = (hi - lo) / p["mean"]
            return lo + p["mean"] * (1.0 - w / np.expm1(w))
        from scipy.special import gammainc

        k, theta = p["shape"], p["scale"]
        # t f(t; k, theta) = k theta f(t; k + 1, theta)
        upper = gammainc(k + 1.0, hi / theta) - gammainc(k + 1.0, lo / theta)
        return k * theta * upper / (gammainc(k, hi / theta) - gammainc(k, lo / theta))


def discretize_demand(spec: ContinuousDemand, n_atoms: int) -> DemandDistribution:
    """Quantile-discretize a continuous demand into equal-probability atoms.

    The distribution is truncated at its 1 - 1e-8 quantile, split into
    ``n_atoms`` equal-probability bins, and each bin is replaced by an atom
    at its closed-form conditional mean.  By the tower property the atom
    mean equals the truncated mean exactly.
    """
    if isinstance(n_atoms, bool) or not isinstance(n_atoms, numbers.Integral) or n_atoms < 2:
        raise ModelError(f"demand.continuous.n_atoms must be an integer >= 2, got {n_atoms!r}")
    if spec.family == "point":
        value = spec.params["value"]
        return DemandDistribution.from_atoms([(value, 1.0)], source="discretized-continuous")
    edges = spec._quantile(np.linspace(0.0, TRUNCATION_FLOOR, n_atoms + 1))
    edges[0] = max(edges[0], 0.0)
    lo, hi = edges[:-1], edges[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(hi > lo, spec._bin_means(lo, hi), lo)
    atoms = [(float(m), 1.0 / n_atoms * TRUNCATION_FLOOR) for m in means]
    return DemandDistribution.from_atoms(atoms, source="discretized-continuous")


def _expected_h_curve(h: PiecewiseLinear, demand: DemandDistribution) -> PiecewiseLinear:
    """y -> E h(y - D) as a piecewise-linear curve, exact for every y.

    Between consecutive knots h.xs + d no atom crosses a breakpoint of h, so
    the expectation is linear there; the knot values are exact atom sums.
    One padding knot at each end opens an outer segment on which every atom
    sits on the same end segment of h, so its slope is h's end slope (the
    probabilities sum to 1).  It is set exactly rather than by differencing,
    because the linear extension carries it arbitrarily far.
    """
    knots = np.unique(np.add.outer(demand.values, h.xs))
    pad = 1.0 + knots[-1] - knots[0]
    knots = np.concatenate(([knots[0] - pad], knots, [knots[-1] + pad]))
    ys = np.zeros_like(knots)
    for d, p in zip(demand.values, demand.probs):
        ys += p * h(knots - d)
    if not np.all(np.isfinite(ys)):
        raise ModelError("cost.h is too large: E h(y - D) is not finite at its knots")
    curve = PiecewiseLinear(knots, ys)
    curve.slopes[[0, -1]] = h.slopes[[0, -1]]
    return curve


class _KnotTable:
    """Bucket table over a curve's knots: bitwise ``curve(x)`` without a binary search.

    Guide table (Chen & Asau 1974), as in ``sample_atoms``.  Segment t of x
    counts the knots at or below x (0 below xs[0], K at or above xs[-1]).
    Equal buckets over [xs[0], xs[-1]], at most the smallest knot gap wide and
    at most ``EH_BUCKETS_CAP`` of them, each hold the segment of their left
    edge, so one step up and one down bracket x unless a bucket holds two
    knots; those points take ``np.searchsorted``.  A value is then
    ``slope[t] * (x - x_a) + y_a`` at the segment's anchor knot a = max(t-1, 0),
    with the slope ``np.interp`` uses inside and the curve's end slopes outside
    (its linear extension), and exactly y_a on a knot, as ``np.interp`` gives.
    """

    def __init__(self, curve: PiecewiseLinear):
        xs, ys = curve.xs, curve.ys
        span = xs[-1] - xs[0]
        with np.errstate(over="ignore"):  # a subnormal knot gap overflows to inf: the cap
            self.n_buckets = math.ceil(min(span / np.diff(xs).min(), EH_BUCKETS_CAP))
        self.x0, self.scale, self.top = xs[0], self.n_buckets / span, self.n_buckets - 1.0
        self.xs = xs
        left_edges = xs[0] + np.arange(self.n_buckets) * (span / self.n_buckets)
        guide = np.searchsorted(xs, left_edges, side="right")
        self.guide = guide.astype(np.min_scalar_type(xs.size))  # 1 byte a bucket up to 255 knots
        # segment t spans [lower[t], upper[t]); NaN as the last upper bound compares
        # false with everything, +inf included, so no step goes past segment K
        self.lower = np.concatenate(([-np.inf], xs))
        self.upper = np.concatenate((xs, [np.nan]))
        self.anchor_x = np.concatenate((xs[:1], xs))
        self.anchor_y = np.concatenate((ys[:1], ys))
        inner = np.diff(ys) / np.diff(xs)
        self.slope = np.concatenate((curve.slopes[:1], inner, curve.slopes[-1:]))

    def __call__(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = np.empty(arr.shape)
        for v, o in zip(_chunks(arr), _chunks(out)):
            b = v - self.x0
            b *= self.scale
            np.fmin(np.fmax(b, 0.0, out=b), self.top, out=b)  # fmax/fmin map NaN into range
            t = self.guide.take(b.astype(np.intp)).astype(np.intp)
            t += self.upper.take(t) <= v
            t -= self.lower.take(t) > v
            off = (self.lower.take(t) > v) | (self.upper.take(t) <= v)
            if off.any():
                t[off] = np.searchsorted(self.xs, v[off], side="right")
            dx = v - self.anchor_x.take(t)
            np.multiply(self.slope.take(t), dx, out=o)
            y = self.anchor_y.take(t)
            o += y
            np.copyto(o, y, where=dx == 0)
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class InventoryModel:
    """Inventory control instance: fixed cost K, unit cost c_bar, holding curve h,
    demand atoms, and the state grid.

    On construction, ``h`` is recentred so its minimum sits at 0 with value 0
    (the ``h_shift`` attribute records the applied shift).  Hard validation
    covers convexity and nonnegativity of ``h`` on the region where costs are
    evaluated; coercivity-style conditions are recorded as soft flags in
    ``h_flags`` so degenerate test stubs (e.g. h = 0) remain constructible.
    """

    K: float
    c_bar: float
    h: PiecewiseLinear
    demand: DemandDistribution
    grid: Grid

    # costs that overflow are named by their field below, not warned about
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self) -> None:
        for name in ("K", "c_bar"):
            if not finite_number(getattr(self, name), f"cost.{name}") >= 0:
                raise ModelError(f"cost.{name} must be nonnegative, got {getattr(self, name)}")
        if not np.all(np.isfinite(self.c_bar * self.grid.points)):
            raise ModelError(
                f"cost.c_bar {self.c_bar} is too large: c_bar * x is not finite on the grid"
            )
        if not self.h.is_convex():
            raise ModelError("holding/backorder cost h must be convex")
        try:
            h_norm, x_star, offset = self.h.shifted_to_origin()
        except ModelError:
            # One-sided curves (no global minimizer) are usable when the grid
            # never probes the unbounded direction; they must come anchored.
            if abs(self.h(0.0)) > 1e-12:
                raise ModelError(
                    "h has no finite minimizer to recentre on and h(0) != 0"
                ) from None
            h_norm, x_star, offset = self.h, 0.0, 0.0
        object.__setattr__(self, "h", h_norm)
        object.__setattr__(self, "h_shift", (x_star, offset))

        # h is evaluated (exactly, never clamped) on [x_lo - d_max, x_hi].
        lo = self.grid.x_lo - self.demand.max_value
        hi = self.grid.x_hi
        probes = np.concatenate(
            ([lo, hi], h_norm.xs[(h_norm.xs > lo) & (h_norm.xs < hi)], self.grid.points)
        )
        vals = h_norm(probes)
        if np.any(vals < -1e-12):
            raise ModelError("h must be nonnegative on the cost evaluation region")
        # Convexity on grid triples (redundant with slope convexity, kept as a
        # direct certificate of the discretized curve).
        gv = h_norm(self.grid.points)
        if self.grid.n >= 3:
            mid_excess = gv[1:-1] - 0.5 * (gv[:-2] + gv[2:])
            if np.any(mid_excess > CONVEXITY_SLACK):
                raise ModelError("h fails the convexity check on grid triples")

        neg = self.grid.points < 0
        flags = {
            "positive_on_negatives": bool(np.all(gv[neg] > 0)) if np.any(neg) else True,
            "coercive_left": bool(h_norm.slopes[0] < 0),
            "coercive_right": bool(h_norm.slopes[-1] > 0),
        }
        object.__setattr__(self, "h_flags", flags)
        curve = _expected_h_curve(h_norm, self.demand)
        eh = curve(self.grid.points)  # np.interp on sorted points: no bucket table
        if not np.all(np.isfinite(eh)):
            raise ModelError("cost.h is too large: E h(x - D) is not finite on the grid")
        # K and c_bar are nonnegative, so every one-step cost is nonnegative exactly when E h is
        if np.any(eh < -1e-12):
            raise ModelError("expected holding cost E h is negative on the grid")
        object.__setattr__(self, "eh_curve", curve)
        object.__setattr__(self, "eh", read_only(eh))

    h_shift: tuple = field(init=False, default=(0.0, 0.0))
    # filled in __post_init__: h_flags (dict), eh_curve (PiecewiseLinear) and
    # eh, E h(x_j - D) at every grid point (read-only)

    def expected_h(self, x_post) -> np.ndarray:
        """E h(x_post - D), exact over atoms, unclamped: bitwise ``eh_curve(x_post)``,
        read from a bucket table of its knots built on first use."""
        return self._eh_table(x_post)

    _eh_table = cached_property(lambda self: _KnotTable(self.eh_curve))

    # read-only, on first use: c_bar x and c_bar x + E h, each Bellman stage's g less alpha E v
    cbar_x = cached_property(lambda self: read_only(self.c_bar * self.grid.points))
    g_base = cached_property(lambda self: read_only(self.cbar_x + self.eh))

    def order_cost(self, a) -> np.ndarray:
        arr = np.asarray(a, dtype=float)
        out = self.K * (arr > 0) + self.c_bar * arr
        return float(out) if arr.ndim == 0 else out

    @cached_property
    def kernel(self) -> Kernel:
        """The clamp transition kernel, built on first use and kept with the model."""
        return build_kernel(self)

    def one_step_cost(self, i, k) -> np.ndarray:
        """c(x_i, a) for an order of a = k grid steps, elementwise over index arrays.

        Feasibility (0 <= k and i + k < n) is the caller's responsibility.
        """
        return self.order_cost(np.multiply(k, self.grid.step)) + self.eh[np.add(i, k)]


def post_expectation_matrix(
    model: InventoryModel,
) -> tuple[sparse.csr_array, int, np.ndarray]:
    """Banded operator W with (W @ v)[j] = E v(x_j - D) under grid evaluation of v.

    Off-lattice points are linearly interpolated and points below x_lo are
    clamped to x_lo (transition-kernel semantics).  Row j only touches the
    columns between x_j - d_max - step and x_j + step, so W is a CSR matrix
    with O(n atoms) nonzeros; each entry sums its atoms' weights in atom
    order.  Also returned: the number of (post-state, atom) pairs that fall
    below the grid, and the n-vector ``below[j] = sum_d p_d min(pos_jd, 0)``
    with ``pos_jd = (x_j - d - x_lo) / step``.  Extrapolating linearly from
    the two lowest grid points instead of clamping adds a rank-one term:

        W_ext v = W v + below * (v[1] - v[0]).

    The band is built in an n x (d_max / step + 3) work array; a grid whose
    array would exceed ``OPERATOR_BAND_BYTES_CAP`` bytes is rejected with a
    ``ModelError`` naming ``grid.step`` before it is allocated.
    """
    from scipy import sparse

    g = model.grid
    n = g.n
    rows = np.arange(n)
    # row j spans columns j - reach .. j + 1; the extra step absorbs rounding in floor(pos)
    reach = min(math.ceil(model.demand.max_value / g.step) + 1, n - 1)
    band_bytes = n * (reach + 2) * 8
    if band_bytes > OPERATOR_BAND_BYTES_CAP:
        raise ModelError(
            f"grid.step {g.step} is too fine: the transition operator would need a "
            f"{band_bytes:,}-byte work array, above the {OPERATOR_BAND_BYTES_CAP:,}-byte cap"
        )
    band = np.zeros((n, reach + 2))
    below = np.zeros(n)
    clamped = 0
    for d, p in zip(model.demand.values, model.demand.probs):
        pos = (g.points - d - g.x_lo) / g.step
        clamped += int(np.count_nonzero(pos < 0))
        below += p * np.minimum(pos, 0.0)
        pos = np.minimum(np.maximum(pos, 0.0), n - 1.0)
        i0 = np.clip(np.floor(pos).astype(int), 0, n - 2)
        w = pos - i0
        np.add.at(band, (rows, i0 - rows + reach), p * (1.0 - w))
        np.add.at(band, (rows, i0 - rows + reach + 1), p * w)
    keep = band != 0
    cols = (rows[:, None] + np.arange(-reach, 2)).astype(np.int32)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1)))).astype(np.int32)
    W = sparse.csr_array((band[keep], cols[keep], indptr), shape=(n, n))
    return W, clamped, below


@dataclass(eq=False)
class Kernel:
    """Demand-driven transition kernel q(. | x, a) on the grid.

    Next state is x + a - D clamped to the grid; mass off the lattice is
    split between neighbouring grid points.  ``matrix`` is the banded CSR
    operator of ``post_expectation_matrix``.  ``clamp_events`` counts
    (post-state, atom) pairs that hit the lower boundary, and ``below``
    turns clamping into linear extrapolation below the grid:
    ``matrix @ v + below * (v[1] - v[0])``.  The kernel holds no reference
    to its model, so a model that caches it forms no cycle.
    """

    matrix: sparse.csr_array
    clamp_events: int
    below: np.ndarray

    def expect(self, v: np.ndarray) -> np.ndarray:
        """E v(next) indexed by post-order position j (state + order), along v's last axis."""
        return (self.matrix @ v.T).T


def build_kernel(model: InventoryModel) -> Kernel:
    """A fresh kernel; solvers share the one cached as ``model.kernel``."""
    W, clamped, below = post_expectation_matrix(model)
    for arr in (W.data, W.indices, W.indptr, below):
        arr.flags.writeable = False
    return Kernel(matrix=W, clamp_events=clamped, below=below)


def build_cost(model: InventoryModel):
    """c(x, a) over the grid and all feasible order-up-to actions: ``model.one_step_cost``."""
    return model.one_step_cost


def _suffix_min_levels(G: np.ndarray) -> np.ndarray:
    """``levels[L, p, ...] = min(G[..., p : p + 2**L])``, +inf past the end (position n
    is +inf).  G's leading axes trail, so a run past position n reads the last entry."""
    levels = [np.concatenate((np.moveaxis(G, -1, 0), np.full((1,) + G.shape[:-1], np.inf)))]
    for w in (1 << L for L in range(G.shape[-1].bit_length() - 1)):
        prev = levels[-1]
        levels.append(np.concatenate((np.minimum(prev[:-w], prev[w:]), prev[-w:])))
    return np.array(levels)


def _first_at_most(levels: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Smallest j >= p with G[..., j] <= t (n if none), elementwise along G's last axis
    (``t`` has G's leading axes, or any for a 1-D G), by an exact binary descent
    that skips each 2**L block whose minimum exceeds t."""
    rows = levels[0, 0].size  # row r of G at position j is flat entry j * rows + r
    pos = np.asarray(p, dtype=np.intp) * rows + np.arange(rows).reshape(levels.shape[2:] + (1,))
    for L in range(levels.shape[0] - 1, -1, -1):  # entries past the end clip to the last, +inf
        np.add(pos, rows << L, out=pos, where=levels[L].take(pos, mode="clip") > t)
    return np.minimum(pos // rows, levels.shape[1] - 1)


@dataclass(eq=False)
class PolicyTable:
    """The eps-optimal order-up-to actions of one Bellman update, or of a stack.

    ``g`` is the order-up-to target cost on the grid and
    ``m[i] = min(g[i], K + min_{j > i} g[j])`` the minimized cost at state i.
    Ordering nothing is eps-optimal at state i iff ``g[i] <= m[i] + eps``, and
    ordering k > 0 grid steps iff ``K + g[i+k] <= m[i] + eps``.  The table
    stores these O(n) arrays and, from first use, power-of-two suffix-minimum
    tables of ``K + g``, forwards and mirrored, so the first member at or after
    a position, or the last before it, is one log2(n) descent.  ``chosen`` is
    the smallest eps-optimal order ("do not order" wins near-ties).  g and m may
    also be (T, n) stacks of T updates: ``chosen`` then answers every row in one
    descent, bitwise as row by row; the other queries take one update.
    """

    grid: Grid
    g: np.ndarray
    m: np.ndarray
    K: float
    eps: float

    def __post_init__(self) -> None:
        if self.g.shape[-1:] != (self.grid.n,) or self.m.shape != self.g.shape:
            raise ModelError("policy table shape does not match the grid")
        if not self.eps >= 0:
            raise ModelError(f"action tolerance eps must be nonnegative, got {self.eps}")

    _forward = cached_property(lambda self: _suffix_min_levels(self.K + self.g))
    _mirrored = cached_property(lambda self: _suffix_min_levels((self.K + self.g)[::-1]))

    @cached_property
    def chosen(self) -> np.ndarray:
        """Smallest eps-optimal order quantity per state."""
        thr, i = self.m + self.eps, np.arange(self.grid.n)
        # j = n (no member) -> 0, as the argmax of an empty row of the set
        j = np.where(self.g <= thr, i, _first_at_most(self._forward, i + 1, thr) % self.grid.n)
        return (j - i) * self.grid.step

    def set_sizes(self) -> np.ndarray:
        """Number of eps-optimal actions per state, counted in row blocks."""
        n, G, thr = self.grid.n, self.K + self.g, self.m + self.eps
        sizes, rows = (self.g <= thr).astype(int), max(1, 2**16 // n)
        for r in range(0, n, rows):
            i = np.arange(r, min(r + rows, n))[:, None]
            sizes[r : r + rows] += ((G[r + 1 :] <= thr[i]) & (np.arange(r + 1, n) > i)).sum(axis=1)
        return sizes

    def contains(self, i, k) -> np.ndarray:
        """Whether ordering k grid steps from state i is eps-optimal (elementwise)."""
        i, k = np.broadcast_arrays(np.asarray(i, dtype=int), np.asarray(k, dtype=int))
        thr = self.m[i] + self.eps
        feasible = (k >= 0) & (i + k < self.grid.n)
        j = np.where(feasible, i + k, i)
        member = np.where(k == 0, self.g[i] <= thr, self.K + self.g[j] <= thr)
        return feasible & member

    def distance(self, actions) -> np.ndarray:
        """Per state i, ``min |(j - i) step - a|`` over the eps-optimal j, for actions
        of shape (n,) or (T, n).  It rises with j away from the least k >= 1 with
        k step >= a, so only j = i and the members nearest i + k on each side count."""
        a, n, step = np.asarray(actions, dtype=float), self.grid.n, self.grid.step
        i = np.broadcast_to(np.arange(n), a.shape)
        thr = self.m[i] + self.eps
        k = np.minimum(np.searchsorted(np.arange(1, n + 1) * step, a, side="left") + 1, n - i)
        up = _first_at_most(self._forward, i + k, thr)
        down = n - 1 - _first_at_most(self._mirrored, n - i - k, thr)
        return np.minimum.reduce([
            np.where(ok, np.abs((j - i) * step - a), np.inf)
            for j, ok in ((i, self.g[i] <= thr), (up, up < n), (down, down > i))
        ])

    def order_steps(self) -> np.ndarray:
        return np.round(self.chosen / self.grid.step).astype(int)
