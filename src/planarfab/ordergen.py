"""Seeded synthetic prescription generator and demand estimation.

Orders are multivariate binary vectors drawn by thresholding a correlated
multivariate normal sample at per-drug quantiles: drug g is included when its
latent normal component falls below the quantile of its marginal probability.
Order sizes are enforced by rejection (resampling the whole order), which
preserves the conditional dependence structure at the cost of a marginal shift
that ``achieved_marginals`` reports.

Randomness comes from numpy's PCG64 seeded through ``SeedSequence``, whose
normal stream is portable across platforms. Inclusion compares a BLAS product
with the thresholds, so an order could differ across BLAS builds only where a
latent value lies within rounding of its threshold.
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


def _bivariate_normal_cdf(t1: float, t2: float, rho: float, grid) -> float:
    # P(Z1 <= t1, Z2 <= t2) by quadrature over grid = (xs, pdf(xs)); callers keep |rho| < 1
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
    """Factor F and thresholds of the latent normal model (see ``_inclusion``)."""
    sigma = _copula_matrix(catalog, copula_mode)
    eigval, eigvec = np.linalg.eigh(sigma)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    thresholds = np.array(
        [_NORMAL.inv_cdf(p) if 0.0 < p < 1.0 else (math.inf if p >= 1.0 else -math.inf)
         for p in catalog.marginals]
    )
    return factor, thresholds


def _inclusion(rng, factor, thresholds, rows: int) -> np.ndarray:
    """Inclusion masks of ``rows`` draws ``F @ standard_normal(k)``: component <= threshold."""
    return rng.standard_normal((rows, factor.shape[0])) @ factor.T <= thresholds


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

    Trial orders come in blocks of ``max(16, 8 * missing)`` rows, at most
    ``MAX_REJECTIONS``, with one latent product and one size test per block; the
    in-range rows are taken in stream order (a block holds the normals of that
    many single draws). Sampling fails once one order has seen ``MAX_REJECTIONS``
    consecutive rejected draws. duration_rule: "fixed" gives every item
    ``dispensing_speed`` ticks (one cartridge fill); "dose" multiplies by a
    per-item dose in 1..3, drawn after the orders, so the drug sets stay the same.
    """
    lo, hi = size_range
    if lo < 1 or hi > catalog.n_drugs or lo > hi:
        raise ValueError(f"size range {size_range} infeasible for {catalog.n_drugs} drugs")
    if duration_rule not in ("fixed", "dose"):
        raise ValueError(f"unknown duration rule {duration_rule!r}")
    if n_orders < 0:
        raise ValueError(f"n_orders must be >= 0, got {n_orders}")

    factor, thresholds = _latent_model(catalog, copula_mode)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    accepted = np.empty((n_orders, catalog.n_drugs), dtype=bool)
    done = rejected = 0  # orders accepted; draws rejected since the last acceptance
    while done < n_orders:
        rows = min(MAX_REJECTIONS, max(16, 8 * (n_orders - done)))
        mask = _inclusion(rng, factor, thresholds, rows)
        sizes = mask.sum(axis=1)
        hits = np.flatnonzero((lo <= sizes) & (sizes <= hi))
        if rejected + (hits[0] if hits.size else rows) >= MAX_REJECTIONS:
            raise ValueError(f"rejection sampling failed to hit sizes {size_range} within "
                             f"{MAX_REJECTIONS} draws; marginals too extreme")
        rejected = rows - 1 - hits[-1] if hits.size else rejected + rows
        take = hits[: n_orders - done]
        accepted[done : done + take.size] = mask[take]
        done += take.size

    drug_of = np.nonzero(accepted)[1]
    doses = rng.integers(1, 4, size=drug_of.size) if duration_rule == "dose" else 1
    durations = (np.full(drug_of.size, dispensing_speed) * doses).tolist()
    items = list(zip([catalog.drugs[g] for g in drug_of.tolist()], durations))
    ends = np.cumsum(accepted.sum(axis=1)).tolist()
    orders = [Order(oid, tuple(items[a:b])) for oid, (a, b) in enumerate(zip([0, *ends], ends))]
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


def estimate_demand(history) -> DemandVector:
    """u_g = total dispensing ticks requested for drug g across the history."""
    u: dict[str, float] = {}
    for order in history:
        for g, d in order.items:
            u[g] = u.get(g, 0.0) + d
    return DemandVector(u)
