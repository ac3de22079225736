"""Splitting-coefficient algebra for two-operator compositions.

A ``p``-stage step is

    B^{b_p dt} A^{a_p dt} ... B^{b_1 dt} A^{a_1 dt}

applied right to left, i.e. the ``A`` substep of fraction ``a_1`` runs first
(in the solver ``A`` is diffusion and ``B`` the reaction).  This module owns
the algebraic order conditions through third order, the closed-form one-
parameter second- and third-order families, the three distinguished
third-order points located by minimising the largest coefficient magnitude,
and two fourth-order symmetric compositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

__all__ = [
    "BranchSolution",
    "ConvergenceFailure",
    "InvalidOmega",
    "OMEGA_U",
    "OMEGA_V",
    "SplitCoefficients",
    "discriminant",
    "first_order",
    "fourth_order_u",
    "fourth_order_v",
    "named_scheme",
    "order_residuals",
    "second_order_family",
    "special_omegas",
    "third_order_family",
]

RESIDUAL_TOL = 1e-12
# construction-time validation is looser: evaluating the closed forms close to
# a removable singularity (e.g. the negative branch near omega = 1, where a_3
# is a 0/0 limit) loses digits to cancellation long before it loses correctness
CONSTRUCTION_TOL = 1e-6
SINGULAR_RADIUS = 1e-6
# at omega = 1/4 the closed form is 0/0 only at the exact point; evaluation a
# hair above it is well conditioned (b_1 ~ eta^-1/2, no cancellation), so the
# guard radius is just wide enough to catch the representable neighbourhood
QUARTER_RADIUS = 1e-12

OMEGA_U = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
OMEGA_V = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))

Branch = Literal["positive", "negative"]


class InvalidOmega(ValueError):
    """The requested family parameter has no (stable) real solution."""


class ConvergenceFailure(RuntimeError):
    """Root bracketing or verification failed; indicates an implementation bug."""


@dataclass(frozen=True)
class SplitCoefficients:
    """Ordered substep fractions; ``b`` is zero-padded so both lists have p entries."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    claimed_order: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.a) != len(self.b) or not self.a:
            raise ValueError("a and b must be non-empty and of equal length")
        if not 1 <= self.claimed_order <= 4:
            raise ValueError(f"claimed_order must be 1..4, got {self.claimed_order}")
        r = order_residuals(self)
        # rejection floor scales with the squared coefficient size: near-singular
        # family parameters give large, exactly-cancelling terms
        scale = max(1.0, max(abs(v) for v in self.a + self.b) ** 2)
        checks = {1: r[:2], 2: r[:4], 3: r[:6], 4: r[:6]}[self.claimed_order]
        if any(not abs(v) <= CONSTRUCTION_TOL * scale for v in checks):  # NaN fails too
            raise ValueError(
                f"{self.label}: order-{self.claimed_order} residuals not satisfied: {r}"
            )

    @property
    def p(self) -> int:
        return len(self.a)

    def substeps(self):
        """Pairs (a_j, b_j) in application order."""
        return zip(self.a, self.b)

    def max_magnitude(self) -> float:
        return max(abs(v) for v in self.a + self.b)


def order_residuals(c: SplitCoefficients) -> tuple[float, float, float, float, float, float]:
    """Defects of the first/second/third-order conditions, in the order

    (sum a - 1,
     sum b - 1,
     sum_{j>=2} a_j (sum_{k<j} b_k)   - 1/2,
     sum_j     b_j (sum_{k<=j} a_k)   - 1/2,
     sum_{j>=2} a_j (sum_{k<j} b_k)^2 - 1/3,
     sum_j     b_j (sum_{k<=j} a_k)^2 - 1/3).
    """
    a = np.asarray(c.a)
    b = np.asarray(c.b)
    b_before = np.concatenate(([0.0], np.cumsum(b)[:-1]))  # sum_{k<j} b_k
    a_through = np.cumsum(a)  # sum_{k<=j} a_k
    return (
        float(a.sum() - 1.0),
        float(b.sum() - 1.0),
        float(np.sum(a * b_before) - 0.5),
        float(np.sum(b * a_through) - 0.5),
        float(np.sum(a * b_before**2) - 1.0 / 3.0),
        float(np.sum(b * a_through**2) - 1.0 / 3.0),
    )


def first_order() -> SplitCoefficients:
    """Single forward pass of each operator."""
    return SplitCoefficients((1.0,), (1.0,), 1, "S1")


def _require_finite(omega: float, label: str) -> None:
    if not math.isfinite(omega):
        raise InvalidOmega(f"{label}: omega must be finite")


def second_order_family(omega: float) -> SplitCoefficients:
    """One-parameter second-order family.

    a = (1 - 1/(2w), 1/(2w)), b = (w, 1 - w).  All substeps are forward
    exactly when ``1/2 <= w <= 1``; ``w = 1`` is the classic three-evaluation
    palindrome.
    """
    _require_finite(omega, f"S2({omega:g})")
    if omega == 0.0:
        raise InvalidOmega("second-order family is singular at omega = 0")
    half = 1.0 / (2.0 * omega)
    return SplitCoefficients(
        (1.0 - half, half), (omega, 1.0 - omega), 2, f"S2({omega:g})"
    )


def discriminant(omega: float) -> float:
    """D(w) = (w-1)^2 (4w-1)^2 + 12 (4w-1) (w - 1/3)^2.

    Real third-order solutions need D >= 0, which holds for w > 1/4 and for
    w <= w* ~ -1.217 (the real root of D(w)/(4w-1)).
    """
    return (omega - 1.0) ** 2 * (4.0 * omega - 1.0) ** 2 + 12.0 * (4.0 * omega - 1.0) * (
        omega - 1.0 / 3.0
    ) ** 2


@dataclass(frozen=True)
class BranchSolution:
    """A third-order solution: free parameter ``omega`` (= b_3), branch sign, p = 3."""

    omega: float
    branch: Branch
    coefficients: SplitCoefficients
    discriminant: float


# Exact limit of the negative branch at omega = 1, where the closed form is 0/0.
_NEGATIVE_AT_ONE = (
    (7.0 / 24.0, 3.0 / 4.0, -1.0 / 24.0),
    (2.0 / 3.0, -2.0 / 3.0, 1.0),
)


def _normalize_branch(branch) -> Branch:
    key = str(branch).lower()
    if key in ("+", "pos", "positive", "1"):
        return "positive"
    if key in ("-", "neg", "negative", "-1"):
        return "negative"
    raise ValueError(f"branch must be positive/negative (+/-), got {branch!r}")


def third_order_family(omega: float, branch) -> BranchSolution:
    """Closed-form third-order coefficients for free parameter ``omega = b_3``.

    b_1 = (1-w)/2 -+ sqrt(D(w)) / (2(4w-1)),
    a_2 = (4w-1) / (2(3w-1)),
    a_3 = (1/2 - b_1 a_2) / (1-w),   a_1 = 1 - a_2 - a_3,
    b_2 = 1 - b_1 - w,

    with the upper sign on the positive branch.  Both branches are singular
    at w = 1/4 and w = 1/3 (degeneration to second order), the positive
    branch additionally at w = 1; the negative branch has a removable
    singularity at w = 1 where the exact limit values are returned.  Every
    valid solution has exactly one negative a_j and one negative b_j.
    """
    branch = _normalize_branch(branch)
    label = f"S3({omega:g},{'+' if branch == 'positive' else '-'})"
    _require_finite(omega, label)
    dval = discriminant(omega)

    if abs(omega - 0.25) <= QUARTER_RADIUS:
        raise InvalidOmega(f"{label}: singular point omega = 1/4 (0/0 in b_1)")
    if abs(omega - 1.0 / 3.0) <= SINGULAR_RADIUS:
        raise InvalidOmega(f"{label}: singular point omega = 1/3 (a_2 diverges)")
    if branch == "positive" and abs(omega - 1.0) <= SINGULAR_RADIUS:
        raise InvalidOmega(f"{label}: positive branch diverges at omega = 1")
    if branch == "negative" and omega == 1.0:
        a, b = _NEGATIVE_AT_ONE
        coeffs = SplitCoefficients(a, b, 3, label)
        return BranchSolution(1.0, branch, coeffs, dval)
    if dval < 0.0:
        raise InvalidOmega(f"{label}: discriminant D = {dval:g} < 0, no real solution")

    sign = 1.0 if branch == "positive" else -1.0
    b1 = (1.0 - omega) / 2.0 - sign * np.sqrt(dval) / (2.0 * (4.0 * omega - 1.0))
    a2 = (4.0 * omega - 1.0) / (2.0 * (3.0 * omega - 1.0))
    a3 = (0.5 - b1 * a2) / (1.0 - omega)
    a1 = 1.0 - a2 - a3
    b2 = 1.0 - b1 - omega
    coeffs = SplitCoefficients((a1, a2, a3), (b1, b2, omega), 3, label)
    return BranchSolution(float(omega), branch, coeffs, dval)


def _bisect(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceFailure(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def _verify_local_min(omega: float, branch: Branch, delta: float = 1e-3) -> None:
    mid = third_order_family(omega, branch).coefficients.max_magnitude()
    left = third_order_family(omega - delta, branch).coefficients.max_magnitude()
    right = third_order_family(omega + delta, branch).coefficients.max_magnitude()
    if not (mid < left and mid < right):
        raise ConvergenceFailure(
            f"omega = {omega} is not a local minimum of the coefficient magnitude"
        )


@lru_cache(maxsize=1)
def special_omegas() -> tuple[BranchSolution, BranchSolution, BranchSolution]:
    """The three distinguished third-order solutions (X, Y, Z).

    Each is a local minimum of ``max{|a_j|, |b_j|}`` inside a window where
    all six coefficients lie in [-1, 1], located by bisecting its defining
    coefficient coincidence:

        X (positive branch): a_1 = b_2,
        Y (negative branch): b_1 = a_3,
        Z (negative branch): a_2 = b_3.

    Root-finding, not a printed table, is the source of truth; the located
    points are verified to be local minima.
    """

    def defect_x(w: float) -> float:
        c = third_order_family(w, "positive").coefficients
        return c.a[0] - c.b[1]

    def defect_y(w: float) -> float:
        c = third_order_family(w, "negative").coefficients
        return c.b[0] - c.a[2]

    def defect_z(w: float) -> float:
        c = third_order_family(w, "negative").coefficients
        return c.a[1] - w

    omega_x = _bisect(defect_x, 0.2640, 0.2916)
    omega_y = _bisect(defect_y, 0.2640, 0.2736)
    omega_z = _bisect(defect_z, 0.5100, 0.9900)
    for omega, branch in ((omega_x, "positive"), (omega_y, "negative"), (omega_z, "negative")):
        _verify_local_min(omega, branch)

    def relabel(sol: BranchSolution, name: str) -> BranchSolution:
        c = sol.coefficients
        return BranchSolution(
            sol.omega,
            sol.branch,
            SplitCoefficients(c.a, c.b, 3, name),
            sol.discriminant,
        )

    return (
        relabel(third_order_family(omega_x, "positive"), "S3X"),
        relabel(third_order_family(omega_y, "negative"), "S3Y"),
        relabel(third_order_family(omega_z, "negative"), "S3Z"),
    )


def _triple_jump(omega: float, label: str) -> SplitCoefficients:
    """Flatten T^{w} T^{1-2w} T^{w} with T^{c} = A^{c/2} B^{c} A^{c/2}."""
    return _flatten_palindromes((omega, 1.0 - 2.0 * omega, omega), label, 4)


def _five_jump(omega: float, label: str) -> SplitCoefficients:
    """Flatten T^{w} T^{w} T^{1-4w} T^{w} T^{w}."""
    return _flatten_palindromes(
        (omega, omega, 1.0 - 4.0 * omega, omega, omega), label, 4
    )


def _flatten_palindromes(
    weights: tuple[float, ...], label: str, claimed_order: int
) -> SplitCoefficients:
    """Compose palindromic stages T^{c} = A^{c/2} B^{c} A^{c/2}, merging adjacent A substeps."""
    a = [weights[0] / 2.0]
    b = []
    for c, cnext in zip(weights, weights[1:]):
        b.append(c)
        a.append(c / 2.0 + cnext / 2.0)
    b.append(weights[-1])
    a.append(weights[-1] / 2.0)
    # shift so the step starts with an A substep: a_j pairs with the b_j after it
    b.append(0.0)
    return SplitCoefficients(tuple(a), tuple(b), claimed_order, label)


def fourth_order_u() -> SplitCoefficients:
    """Seven-evaluation fourth-order palindrome, w = 1/(2 - 2^(1/3)) ~ 1.3512.

    a = (w/2, (1-w)/2, (1-w)/2, w/2), b = (w, 1-2w, w, 0); equals the
    flattening of T^{w} T^{1-2w} T^{w}.
    """
    return _triple_jump(OMEGA_U, "S4U")


def fourth_order_v() -> SplitCoefficients:
    """Eleven-evaluation fourth-order palindrome, w = 1/(4 - 4^(1/3)) ~ 0.4145.

    a = (w/2, w, (1-3w)/2, (1-3w)/2, w, w/2), b = (w, w, 1-4w, w, w, 0).
    Less work-efficient than the seven-evaluation composition but with
    smaller backward fractions, hence a better stability margin.
    """
    return _five_jump(OMEGA_V, "S4V")


def named_scheme(scheme_id: str, omega: float | None = None, branch=None) -> SplitCoefficients:
    """Dispatch on a scheme id: S1, S2(w), S3X, S3Y, S3Z, S3(w, +/-), S4U, S4V."""
    key = scheme_id.upper()
    if key == "S1":
        return first_order()
    if key == "S2":
        if omega is None:
            raise ValueError("S2 needs the free parameter omega")
        return second_order_family(omega)
    if key in ("S3X", "S3Y", "S3Z"):
        return special_omegas()["XYZ".index(key[-1])].coefficients
    if key == "S3":
        if omega is None or branch is None:
            raise ValueError("S3 needs omega and branch")
        return third_order_family(omega, branch).coefficients
    if key == "S4U":
        return fourth_order_u()
    if key == "S4V":
        return fourth_order_v()
    raise ValueError(f"unknown scheme id {scheme_id!r}")
