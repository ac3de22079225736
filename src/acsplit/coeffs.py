"""Splitting-coefficient algebra for two-operator compositions.

A ``p``-stage step is

    B^{b_p dt} A^{a_p dt} ... B^{b_1 dt} A^{a_1 dt}

applied right to left, i.e. the ``A`` substep of fraction ``a_1`` runs first
(in the solver ``A`` is diffusion and ``B`` the reaction).  This module owns
the algebraic order conditions through third order, the closed-form one-
parameter second- and third-order families, the three distinguished
third-order points located by minimising the largest coefficient magnitude,
two fourth-order symmetric compositions, and the scheme-id grammar:
:func:`named_scheme` reads back every label the constructors print.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

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
    "parse_decimal",
    "second_order_family",
    "special_omegas",
    "split_scheme_ids",
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
# claimed order -> how many of the order_residuals it must satisfy; a
# fourth-order claim is checked through third order
_CHECKED_RESIDUALS = {1: 2, 2: 4, 3: 6, 4: 6}

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
        a, b = tuple(map(float, self.a)), tuple(map(float, self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) or not a:
            raise ValueError("a and b must be non-empty and of equal length")
        if not 1 <= self.claimed_order <= 4:
            raise ValueError(f"claimed_order must be 1..4, got {self.claimed_order}")
        # rejection floor scales with the squared coefficient size: near-singular
        # family parameters give large, exactly-cancelling terms
        scale = max([1.0] + [v * v for v in a + b])  # * overflows to inf, ** would raise
        if not scale < math.inf:
            raise InvalidOmega(f"{self.label}: coefficient {self.max_magnitude():g} squares past the float range")
        r = order_residuals(self)
        floor = CONSTRUCTION_TOL * scale
        for v in r[: _CHECKED_RESIDUALS[self.claimed_order]]:
            if not abs(v) <= floor:  # NaN fails too
                raise ValueError(f"{self.label}: order-{self.claimed_order} residuals not satisfied: {r}")

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

    Evaluated in Python floats, each sum left to right from its first
    term, as numpy sums fewer than eight terms, so every residual has the
    bits of the numpy form; one pass keeps the running sums.
    """
    a, b = c.a, c.b
    a_through, b_before = a[0], 0.0  # sum_{k<=j} a_k and sum_{k<j} b_k at j = 0
    r3, r4, r5, r6 = a[0] * b_before, b[0] * a_through, a[0] * (b_before * b_before), b[0] * (a_through * a_through)
    b_before = b[0]
    for j in range(1, len(a)):
        x, y = a[j], b[j]
        a_through += x
        r3 += x * b_before
        r4 += y * a_through
        r5 += x * (b_before * b_before)
        r6 += y * (a_through * a_through)
        b_before += y
    return a_through - 1.0, b_before - 1.0, r3 - 0.5, r4 - 0.5, r5 - 1.0 / 3.0, r6 - 1.0 / 3.0


def first_order() -> SplitCoefficients:
    """Single forward pass of each operator."""
    return SplitCoefficients((1.0,), (1.0,), 1, "S1")


def _omega_text(omega: float) -> str:
    """``omega`` in a label: ``:g`` if that reads back to the same float, else ``repr``."""
    short = f"{omega:g}"
    return short if float(short) == omega else repr(float(omega))


def _require_finite(omega: float, label: str) -> None:
    if not math.isfinite(omega):
        raise InvalidOmega(f"{label}: omega must be finite")


def second_order_family(omega: float) -> SplitCoefficients:
    """One-parameter second-order family.

    a = (1 - 1/(2w), 1/(2w)), b = (w, 1 - w).  All substeps are forward
    exactly when ``1/2 <= w <= 1``; ``w = 1`` is the classic three-evaluation
    palindrome.
    """
    label = f"S2({_omega_text(omega)})"
    _require_finite(omega, label)
    if omega == 0.0:
        raise InvalidOmega("second-order family is singular at omega = 0")
    half = 1.0 / (2.0 * omega)
    return SplitCoefficients((1.0 - half, half), (omega, 1.0 - omega), 2, label)


def discriminant(omega: float) -> float:
    """D(w) = (w-1)^2 (4w-1)^2 + 12 (4w-1) (w - 1/3)^2.

    Real third-order solutions need D >= 0, which holds for w > 1/4 and for
    w <= w* ~ -1.217 (the real root of D(w)/(4w-1)).
    """
    u, v, w = omega - 1.0, 4.0 * omega - 1.0, omega - 1.0 / 3.0  # squared with *, which overflows to inf
    return (u * u) * (v * v) + 12.0 * v * (w * w)


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
    if key in ("+", "positive"):
        return "positive"
    if key in ("-", "negative"):
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
    label = f"S3({_omega_text(omega)},{'+' if branch == 'positive' else '-'})"
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
    if not dval < math.inf:
        raise InvalidOmega(f"{label}: discriminant D = {dval:g} is not finite")

    sign = 1.0 if branch == "positive" else -1.0
    b1 = (1.0 - omega) / 2.0 - sign * math.sqrt(dval) / (2.0 * (4.0 * omega - 1.0))
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
    return _flatten_palindromes((OMEGA_U, 1.0 - 2.0 * OMEGA_U, OMEGA_U), "S4U", 4)


def fourth_order_v() -> SplitCoefficients:
    """Eleven-evaluation fourth-order palindrome, w = 1/(4 - 4^(1/3)) ~ 0.4145.

    a = (w/2, w, (1-3w)/2, (1-3w)/2, w, w/2), b = (w, w, 1-4w, w, w, 0), the
    flattening of T^{w} T^{w} T^{1-4w} T^{w} T^{w}.  Less work-efficient than
    the seven-evaluation composition but with smaller backward fractions.
    """
    w = OMEGA_V
    return _flatten_palindromes((w, w, 1.0 - 4.0 * w, w, w), "S4V", 4)


# The scheme-id grammar, matched case-insensitively after stripping outer
# whitespace.  Omega is a decimal literal, nan or inf, with optional
# whitespace around it (so "S2( 0.5 )" is accepted); the branch sign must
# follow the comma directly.
_OMEGA = r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|nan|inf(?:inity)?)\s*"
_SCHEME_ID = re.compile(
    r"(?P<name>S1|S4U|S4V|S3X|S3Y|S3Z)"
    rf"|S2\((?P<w2>{_OMEGA})\)"
    rf"|S3\((?P<w3>{_OMEGA}),(?P<branch>[+-])\)",
    re.IGNORECASE | re.ASCII,
)
_DECIMAL = re.compile(_OMEGA, re.IGNORECASE | re.ASCII)
# A comma splits a list of ids unless a ")" closes it before any "(" opens.
_ID_SEPARATOR = re.compile(r",(?![^(]*\))")


def named_scheme(scheme_id: str) -> SplitCoefficients:
    """Parse a scheme id: S1, S2(w), S3X, S3Y, S3Z, S3(w,+|-), S4U, S4V.

    Malformed ids raise ``ValueError``; a well-formed id whose omega has no
    (stable) solution raises :class:`InvalidOmega`.
    """
    m = _SCHEME_ID.fullmatch(scheme_id.strip())
    if m is None:
        raise ValueError(f"cannot parse scheme {scheme_id!r}")
    if m["w2"] is not None:
        return second_order_family(float(m["w2"]))
    if m["w3"] is not None:
        return third_order_family(float(m["w3"]), m["branch"]).coefficients
    name = m["name"].upper()
    if name.startswith("S3"):
        return special_omegas()["XYZ".index(name[-1])].coefficients
    return {"S1": first_order, "S4U": fourth_order_u, "S4V": fourth_order_v}[name]()


def parse_decimal(text: str) -> float:
    """Read ``text`` in the omega grammar of scheme ids (an ASCII decimal
    literal, nan or inf, optionally padded with whitespace); anything else,
    such as ``abc`` or ``1_0``, raises ``ValueError``."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


def split_scheme_ids(text: str) -> list[str]:
    """Split a comma-separated list of ids; the comma of S3(w,+|-) stays in its id."""
    return _ID_SEPARATOR.split(text)
