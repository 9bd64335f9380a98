"""Seeded synthetic prescription generator and demand estimation.

Orders are multivariate binary vectors drawn by thresholding a correlated
multivariate normal sample at per-drug quantiles: drug g is included when its
latent normal component falls below the quantile of its marginal probability.
Order sizes are enforced by rejection (resampling the whole order), which
preserves the conditional dependence structure at the cost of a marginal shift
that ``achieved_marginals`` reports.

Randomness comes from numpy's default PCG64 bit generator seeded through
``SeedSequence``, so regeneration is portable across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import DrugCatalog, Order

_NORMAL = NormalDist()

PSD_TOLERANCE = 1e-8
MAX_REJECTIONS = 10_000  # whole-order redraws per order before the size range is given up


@dataclass(frozen=True)
class OrderSet:
    orders: tuple[Order, ...]
    provenance: dict = field(compare=False)

    def __iter__(self):
        return iter(self.orders)

    def __len__(self):
        return len(self.orders)

    def achieved_marginals(self, catalog: DrugCatalog) -> dict[str, float]:
        """Per-drug frequency after size filtering."""
        n = len(self.orders)
        counts = {g: 0 for g in catalog.drugs}
        for o in self.orders:
            for g in o.drugs:
                counts[g] += 1
        return {g: counts[g] / n if n else 0.0 for g in catalog.drugs}


@dataclass(frozen=True)
class DemandVector:
    """Total expected dispensing ticks per drug, accumulated from history."""

    u: dict[str, float]

    def __getitem__(self, drug: str) -> float:
        return self.u.get(drug, 0.0)


def nearest_psd(corr: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalise the diagonal to 1."""
    sym = (corr + corr.T) / 2.0
    eigval, eigvec = np.linalg.eigh(sym)
    if eigval.min() >= -PSD_TOLERANCE:
        repaired = sym
    else:
        eigval = np.clip(eigval, 0.0, None)
        repaired = (eigvec * eigval) @ eigvec.T
    d = np.sqrt(np.clip(np.diag(repaired), PSD_TOLERANCE, None))
    repaired = repaired / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return repaired


_erf = np.vectorize(math.erf)


def _std_normal_cdf(v: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(v / math.sqrt(2.0)))


def _bivariate_normal_cdf(t1: float, t2: float, rho: float, grid=None) -> float:
    # P(Z1 <= t1, Z2 <= t2) by quadrature over the first component.
    if abs(rho) >= 1.0 - 1e-12:
        if rho > 0:
            return _NORMAL.cdf(min(t1, t2))
        return max(0.0, _NORMAL.cdf(t1) - _NORMAL.cdf(-t2))
    if grid is None:
        xs = np.linspace(-8.0, t1, 1001)
        phi = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    else:
        xs, phi = grid
    inner = _std_normal_cdf((t2 - rho * xs) / math.sqrt(1 - rho**2))
    return float(np.trapezoid(phi * inner, xs))


def tetrachoric_correlation(p1: float, p2: float, target: float) -> float:
    """Latent normal correlation whose thresholded binary correlation matches target."""
    denom = math.sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    if denom == 0.0:
        return 0.0
    t1, t2 = _NORMAL.inv_cdf(p1), _NORMAL.inv_cdf(p2)
    want = p1 * p2 + target * denom
    xs = np.linspace(-8.0, t1, 1001)
    grid = (xs, np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi))

    def binary_corr(rho):
        return _bivariate_normal_cdf(t1, t2, rho, grid)

    lo, hi = -0.999, 0.999
    if binary_corr(lo) > want:
        return lo
    if binary_corr(hi) < want:
        return hi
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if binary_corr(mid) < want:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _copula_matrix(catalog: DrugCatalog, mode: str) -> np.ndarray:
    k = catalog.n_drugs
    corr = np.array(catalog.correlation, dtype=float)
    if mode == "tetrachoric":
        adj = np.zeros_like(corr)
        for i in range(k):
            for j in range(i + 1, k):
                if corr[i, j] != 0.0:
                    adj[i, j] = adj[j, i] = tetrachoric_correlation(
                        catalog.marginals[i], catalog.marginals[j], corr[i, j]
                    )
        corr = adj
    elif mode != "raw":
        raise ValueError(f"unknown copula mode {mode!r}")
    np.fill_diagonal(corr, 1.0)
    return nearest_psd(corr)


def _latent_model(catalog: DrugCatalog, copula_mode: str):
    """Factor F and thresholds of the latent normal model.

    A draw is ``F @ standard_normal(k)``; drug g is included when its
    component is at most its threshold, the normal quantile of its marginal.
    """
    sigma = _copula_matrix(catalog, copula_mode)
    eigval, eigvec = np.linalg.eigh(sigma)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    thresholds = np.array(
        [_NORMAL.inv_cdf(p) if 0.0 < p < 1.0 else (math.inf if p >= 1.0 else -math.inf)
         for p in catalog.marginals]
    )
    return factor, thresholds


def sample_orders(
    catalog: DrugCatalog,
    n_orders: int,
    size_range: tuple[int, int],
    duration_rule: str = "fixed",
    seed: int = 0,
    dispensing_speed: int = 100,
    copula_mode: str = "raw",
) -> OrderSet:
    """Draw ``n_orders`` prescriptions matching the catalog's marginals/correlation.

    duration_rule: "fixed" gives every item ``dispensing_speed`` ticks (one
    cartridge fill); "dose" multiplies by a per-item integer dose in 1..3.
    """
    lo, hi = size_range
    if lo < 1 or hi > catalog.n_drugs or lo > hi:
        raise ValueError(f"size range {size_range} infeasible for {catalog.n_drugs} drugs")
    if duration_rule not in ("fixed", "dose"):
        raise ValueError(f"unknown duration rule {duration_rule!r}")

    factor, thresholds = _latent_model(catalog, copula_mode)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    k = catalog.n_drugs
    orders = []
    for oid in range(n_orders):
        for _ in range(MAX_REJECTIONS):
            z = factor @ rng.standard_normal(k)
            mask = z <= thresholds
            size = int(mask.sum())
            if lo <= size <= hi:
                break
        else:
            raise ValueError(
                f"rejection sampling failed to hit sizes {size_range} "
                f"within {MAX_REJECTIONS} draws; marginals too extreme"
            )
        items = []
        for gi in np.flatnonzero(mask):
            dur = dispensing_speed
            if duration_rule == "dose":
                dur *= int(rng.integers(1, 4))
            items.append((catalog.drugs[gi], dur))
        orders.append(Order(oid, tuple(items)))

    provenance = {
        "seed": seed,
        "n_orders": n_orders,
        "size_range": [lo, hi],
        "duration_rule": duration_rule,
        "dispensing_speed": dispensing_speed,
        "copula_mode": copula_mode,
        "bit_generator": "PCG64",
    }
    return OrderSet(tuple(orders), provenance)


def sample_inclusion_matrix(
    catalog: DrugCatalog, n_samples: int, seed: int = 0, copula_mode: str = "raw"
) -> np.ndarray:
    """Raw thresholded draws with no size filtering, as a boolean matrix.

    Used to check marginal fidelity before rejection sampling distorts it.
    """
    factor, thresholds = _latent_model(catalog, copula_mode)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal((n_samples, catalog.n_drugs)) @ factor.T
    return z <= thresholds


def estimate_demand(history) -> DemandVector:
    """u_g = total dispensing ticks requested for drug g across the history."""
    u: dict[str, float] = {}
    for order in history:
        for g, d in order.items:
            u[g] = u.get(g, 0.0) + d
    return DemandVector(u)
