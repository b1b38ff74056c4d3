"""Model parameters and the scaling constants of the two fluctuation regimes."""

import math
from dataclasses import dataclass, field


class ParameterError(ValueError):
    """Raised when (q, c) leave the admissible domain."""


@dataclass(frozen=True)
class ModelParams:
    """Bulk parameter q in (0,1) and boundary parameter c in [0, 1/q).

    The phase is decided by c: subcritical c < 1, critical c = 1,
    supercritical c > 1.
    """

    q: float
    c: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ParameterError(f"q must be in (0,1), got {self.q}")
        if not (0.0 <= self.c < 1.0 / self.q):
            raise ParameterError(f"c must be in [0, 1/q) = [0, {1.0/self.q}), got {self.c}")

    @property
    def phase(self):
        if self.c < 1.0:
            return "subcritical"
        if self.c == 1.0:
            return "critical"
        return "supercritical"


@dataclass(frozen=True)
class ScalingConstantsBulk:
    """Constants of the N^{1/3} (near-diagonal) scaling window.

    sigma centers and scales the curves themselves (lpp.rescale_bulk);
    sigma1, p1 and h1 enter the prelimit kernel and its lattice, and f1 the
    limit kernel.  sigma1/sigma == (2 f1)^(-1/2) holds identically and is
    asserted in tests.
    """

    q: float
    sigma: float = field(init=False)
    sigma1: float = field(init=False)
    f1: float = field(init=False)
    p1: float = field(init=False)
    h1: float = field(init=False)

    def __post_init__(self):
        q = self.q
        if not (0.0 < q < 1.0):
            raise ParameterError(f"q must be in (0,1), got {q}")
        object.__setattr__(self, "sigma", math.sqrt(q) / (1.0 - q))
        object.__setattr__(
            self, "sigma1", q ** (1.0 / 3.0) * (1.0 + q) ** (1.0 / 3.0) / (1.0 - q)
        )
        object.__setattr__(self, "f1", q ** (1.0 / 3.0) / (2.0 * (1.0 + q) ** (2.0 / 3.0)))
        object.__setattr__(self, "p1", q / (1.0 - q))
        object.__setattr__(self, "h1", 2.0 * q / (1.0 - q))


@dataclass(frozen=True)
class ScalingConstantsEdge:
    """Constants of the N^{1/2} window around the escaping top curve (c > 1).

    kappa_bar is the length of the time window on which the top curve is
    diffusive; its law of large numbers line is C_top N + p2 t, and sigma2 =
    sqrt(p2 (1 + p2)) scales its fluctuations (lpp.rescale_top_batch).
    """

    q: float
    c: float
    p2: float = field(init=False)
    sigma2: float = field(init=False)
    kappa_bar: float = field(init=False)
    C_top: float = field(init=False)

    def __post_init__(self):
        q, c = self.q, self.c
        if not (0.0 < q < 1.0):
            raise ParameterError(f"q must be in (0,1), got {q}")
        if not (1.0 < c < 1.0 / q):
            raise ParameterError(f"edge constants need c in (1, 1/q), got {c}")
        p2 = q / (c - q)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "sigma2", math.sqrt(p2 * (1.0 + p2)))
        object.__setattr__(self, "kappa_bar", (c - q) ** 2 / (1.0 - q * c) ** 2 - 1.0)
        object.__setattr__(
            self, "C_top", q * (c * c - 2.0 * q * c + 1.0) / ((c - q) * (1.0 - q * c))
        )

    def z_crit(self, kappa):
        """Critical point z_c(kappa) = (q + sqrt(1+kappa)) / (1 + q sqrt(1+kappa))."""
        s = math.sqrt(1.0 + kappa)
        return (self.q + s) / (1.0 + self.q * s)

    def h1_kappa(self, kappa):
        q = self.q
        s = math.sqrt(1.0 + kappa)
        return (2.0 * q * s + 2.0 * q * q + q * q * kappa) / (1.0 - q * q)

    def h2_kappa(self, kappa):
        return kappa * self.p2 + self.C_top
