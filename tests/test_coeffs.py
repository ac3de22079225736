import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from acsplit.coeffs import (
    OMEGA_U,
    OMEGA_V,
    InvalidOmega,
    SplitCoefficients,
    discriminant,
    first_order,
    fourth_order_u,
    fourth_order_v,
    named_scheme,
    order_residuals,
    second_order_family,
    special_omegas,
    split_scheme_ids,
    third_order_family,
)

from oracles import OMEGA_X_REF, OMEGA_Y_REF, OMEGA_Z_REF, TABLE_ROWS


def flat(c: SplitCoefficients):
    """(a1, b1, a2, b2, a3, b3, ...) interleaving."""
    return tuple(v for pair in zip(c.a, c.b) for v in pair)


# ---------------------------------------------------------------------------
# order conditions


def test_residuals_of_plain_first_order():
    r = order_residuals(first_order())
    assert r == pytest.approx((0.0, 0.0, -0.5, 0.5, -1.0 / 3.0, 2.0 / 3.0), abs=1e-15)


def test_residuals_of_palindromic_second_order():
    c = SplitCoefficients((0.5, 0.5), (1.0, 0.0), 2, "strang")
    r = order_residuals(c)
    assert r[:4] == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-15)
    assert abs(r[4]) > 1e-3 and abs(r[5]) > 1e-3  # genuinely not third order


def test_claimed_order_is_validated():
    with pytest.raises(ValueError):
        SplitCoefficients((1.0,), (1.0,), 2, "bogus")
    with pytest.raises(ValueError):
        SplitCoefficients((0.5, 0.5), (1.0, 0.0), 3, "bogus")
    with pytest.raises(ValueError):
        SplitCoefficients((0.7, 0.4), (1.0, 0.0), 1, "sums off")
    with pytest.raises(ValueError, match="of equal length"):
        SplitCoefficients((0.5, 0.5), (1.0,), 2, "ragged")
    with pytest.raises(ValueError, match="claimed_order must be 1..4, got 5"):
        SplitCoefficients((0.5, 0.5), (1.0, 0.0), 5, "fifth")


# ---------------------------------------------------------------------------
# second-order family


def test_second_order_examples():
    c = second_order_family(1.0)
    assert c.a == (0.5, 0.5) and c.b == (1.0, 0.0)
    c = second_order_family(0.5)
    assert c.a == (0.0, 1.0) and c.b == (0.5, 0.5)
    c = second_order_family(0.25)
    assert c.a == (-1.0, 2.0) and c.b == (0.25, 0.75)
    assert order_residuals(c)[:4] == pytest.approx((0, 0, 0, 0), abs=1e-15)


def test_second_order_rejects_zero():
    with pytest.raises(InvalidOmega):
        second_order_family(0.0)


def test_second_order_forward_window():
    # all substeps forward exactly for omega in [1/2, 1]
    for omega in [0.5, 0.62, 0.85, 1.0]:
        c = second_order_family(omega)
        assert min(c.a + c.b) >= 0.0
    for omega in [0.3, 0.49, 1.1]:
        c = second_order_family(omega)
        assert min(c.a + c.b) < 0.0


# ---------------------------------------------------------------------------
# third-order family


def test_discriminant_examples():
    assert discriminant(0.0) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert discriminant(1.0) == pytest.approx(16.0, rel=1e-14)
    assert discriminant(0.25) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("branch", ["+", "-"])
def test_invalid_omegas(branch):
    with pytest.raises(InvalidOmega):
        third_order_family(0.0, branch)  # D < 0
    with pytest.raises(InvalidOmega):
        third_order_family(1.0 / 3.0, branch)  # singular a2
    with pytest.raises(InvalidOmega):
        third_order_family(1.0 / 3.0 + 5e-7, branch)  # inside the exclusion radius
    with pytest.raises(InvalidOmega):
        third_order_family(0.25, branch)  # 0/0 in b1
    with pytest.raises(InvalidOmega):
        third_order_family(0.25 - 1e-9, branch)  # D < 0 just below 1/4
    with pytest.raises(InvalidOmega):
        third_order_family(-1.0, branch)  # between omega* and 1/4


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_non_finite_omega_is_invalid_without_warnings(omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for branch in ("+", "-"):
            with pytest.raises(InvalidOmega, match="finite"):
                third_order_family(omega, branch)
        with pytest.raises(InvalidOmega, match="finite"):
            second_order_family(omega)


def test_parameters_that_overflow_are_invalid_without_warnings():
    # D squares terms of omega's size, and the residual check squares the
    # largest coefficient: past about 1.3e154 each overflows to inf, which
    # names the scheme instead of raising OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert discriminant(1e200) == np.inf
        for omega, branch in ((1e308, "+"), (-1e308, "-"), (1e200, "-"), (1e100, "+")):
            with pytest.raises(InvalidOmega, match=r"S3\(.*: discriminant D = (inf|nan) is not finite"):
                third_order_family(omega, branch)
        with pytest.raises(InvalidOmega, match=r"S2\(1e-300\): coefficient 5e\+299 squares past"):
            second_order_family(1e-300)
        with pytest.raises(InvalidOmega, match="squares past"):
            SplitCoefficients((2e154, 1.0 - 2e154), (1.0, 0.0), 1, "big")


def test_positive_branch_rejects_omega_one():
    with pytest.raises(InvalidOmega):
        third_order_family(1.0, "+")
    with pytest.raises(InvalidOmega):
        third_order_family(1.0 + 5e-7, "+")


def test_negative_branch_limit_at_one_is_exact():
    c = third_order_family(1.0, "-").coefficients
    assert flat(c) == (7.0 / 24.0, 2.0 / 3.0, 3.0 / 4.0, -2.0 / 3.0, -1.0 / 24.0, 1.0)
    assert max(abs(r) for r in order_residuals(c)) < 1e-15


def test_negative_branch_near_one_matches_limit():
    limit = np.array(flat(third_order_family(1.0, "-").coefficients))
    near = np.array(flat(third_order_family(1.0 - 1e-9, "-").coefficients))
    np.testing.assert_allclose(near, limit, rtol=0, atol=1e-6)


@pytest.mark.parametrize("branch", ["+", "-"])
def test_degeneration_toward_one_quarter(branch):
    sol = third_order_family(0.25 + 1e-8, branch)
    a1, a2, a3 = sol.coefficients.a
    b1, b2, b3 = sol.coefficients.b
    assert abs(a2) < 1e-6
    # with a2 ~ 0 the two middle reaction substeps merge: effectively a
    # four-substep second-order scheme (1/3, 3/4, 2/3, 1/4)
    assert a1 == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert b1 + b2 == pytest.approx(3.0 / 4.0, abs=1e-4)
    assert a3 == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert b3 == pytest.approx(0.25, abs=1e-4)


def valid_omega_grid(n=200):
    grid = np.linspace(0.251, 3.0, n)
    keep = (np.abs(grid - 1.0 / 3.0) > 2e-3) & (np.abs(grid - 1.0) > 2e-3)
    return grid[keep]


def _numpy_residuals(c: SplitCoefficients) -> tuple[float, ...]:
    """The order residuals in numpy, as :func:`order_residuals` once computed them."""
    a, b = np.asarray(c.a), np.asarray(c.b)
    b_before = np.concatenate(([0.0], np.cumsum(b)[:-1]))
    a_through = np.cumsum(a)
    return (
        float(a.sum() - 1.0),
        float(b.sum() - 1.0),
        float(np.sum(a * b_before) - 0.5),
        float(np.sum(b * a_through) - 0.5),
        float(np.sum(a * b_before**2) - 1.0 / 3.0),
        float(np.sum(b * a_through**2) - 1.0 / 3.0),
    )


def test_order_residuals_keep_the_bits_of_the_numpy_form():
    class Fractions:  # order_residuals reads only a and b
        def __init__(self, a, b):
            self.a, self.b = tuple(float(v) for v in a), tuple(float(v) for v in b)

    rng = np.random.default_rng(31)
    for p in range(1, 7):
        for _ in range(500):
            # magnitudes over many decades, so that the order of each sum shows
            a, b = (rng.uniform(-3.0, 3.0, p) * 10.0 ** rng.integers(-8, 4, p) for _ in range(2))
            c = Fractions(a, b)
            assert np.array(order_residuals(c)).tobytes() == np.array(_numpy_residuals(c)).tobytes(), (a, b)
    for label in ("S1", "S2(1)", "S2(0.5)", "S2(0.7000001)", "S3X", "S3Y", "S3Z", "S3(0.62,-)", "S4U", "S4V"):
        c = named_scheme(label)
        assert np.array(order_residuals(c)).tobytes() == np.array(_numpy_residuals(c)).tobytes(), label


@pytest.mark.parametrize("branch", ["+", "-"])
def test_third_order_family_keeps_the_bits_of_the_numpy_closed_form(branch):
    sign = 1.0 if branch == "+" else -1.0
    omegas = np.concatenate([np.linspace(0.2505, 1.2, 150), np.linspace(-3.0, -1.25, 50)])
    checked = 0
    for omega in omegas.tolist():
        try:
            got = third_order_family(omega, branch).coefficients
        except InvalidOmega:
            continue
        b1 = (1.0 - omega) / 2.0 - sign * np.sqrt(discriminant(omega)) / (2.0 * (4.0 * omega - 1.0))
        a2 = (4.0 * omega - 1.0) / (2.0 * (3.0 * omega - 1.0))
        a3 = (0.5 - b1 * a2) / (1.0 - omega)
        want = (1.0 - a2 - a3, a2, a3), (b1, 1.0 - b1 - omega, omega)
        assert np.array(got.a + got.b).tobytes() == np.array(want[0] + want[1]).tobytes(), omega
        checked += 1
    assert checked >= 190


@pytest.mark.parametrize("branch", ["+", "-"])
def test_residuals_vanish_across_the_family(branch):
    for omega in valid_omega_grid():
        c = third_order_family(omega, branch).coefficients
        assert max(abs(r) for r in order_residuals(c)) < 1e-10, f"omega={omega}"


@pytest.mark.parametrize("branch", ["+", "-"])
@pytest.mark.parametrize("omega", [-3.0, -2.0, -1.5, -1.25])
def test_family_is_real_below_omega_star(branch, omega):
    # D(omega)/(4*omega - 1) has its real root near -1.217; below it the
    # closed form is real again
    c = third_order_family(omega, branch).coefficients
    assert max(abs(r) for r in order_residuals(c)) < 1e-10


@pytest.mark.parametrize("branch", ["+", "-"])
def test_exactly_one_negative_fraction_per_operator(branch):
    for omega in np.concatenate([valid_omega_grid(60), [-2.0, -1.5]]):
        c = third_order_family(omega, branch).coefficients
        assert sum(1 for v in c.a if v < 0) == 1, f"omega={omega}"
        assert sum(1 for v in c.b if v < 0) == 1, f"omega={omega}"


def test_max_dominates_min_when_bounded():
    for branch in ("+", "-"):
        for omega in valid_omega_grid(120):
            c = third_order_family(omega, branch).coefficients
            if all(abs(v) <= 1.0 for v in c.a):
                assert max(c.a) >= -min(c.a)
            if all(abs(v) <= 1.0 for v in c.b):
                assert max(c.b) >= -min(c.b)


def test_bounded_windows():
    def bounded(omega, branch):
        c = third_order_family(omega, branch).coefficients
        return all(abs(v) <= 1.0 for v in c.a + c.b)

    for omega in [0.2640, 0.275, 0.2916]:
        assert bounded(omega, "+")
    assert not bounded(0.2625, "+")
    assert not bounded(0.2930, "+")
    for omega in [0.2640, 0.270, 0.2735]:
        assert bounded(omega, "-")
    for omega in [0.51, 0.75, 0.9999]:
        assert bounded(omega, "-")
    assert not bounded(0.30, "-")
    assert not bounded(1.02, "-")


# ---------------------------------------------------------------------------
# distinguished points


def test_special_omegas_match_reference_roots():
    x, y, z = special_omegas()
    assert x.omega == pytest.approx(OMEGA_X_REF, abs=1e-10)
    assert y.omega == pytest.approx(OMEGA_Y_REF, abs=1e-10)
    assert z.omega == pytest.approx(OMEGA_Z_REF, abs=1e-12)
    # z has a closed form: the larger root of 6 w^2 - 6 w + 1 = 0
    assert z.omega == pytest.approx((3.0 + np.sqrt(3.0)) / 6.0, abs=1e-12)


def test_special_omegas_match_table_rows():
    for sol in special_omegas():
        row = TABLE_ROWS[sol.coefficients.label]
        np.testing.assert_allclose(flat(sol.coefficients), row, rtol=0, atol=1e-5)


def test_special_omegas_defining_conditions():
    x, y, z = special_omegas()
    assert x.coefficients.a[0] == pytest.approx(x.coefficients.b[1], abs=1e-12)
    assert y.coefficients.b[0] == pytest.approx(y.coefficients.a[2], abs=1e-12)
    assert z.coefficients.a[1] == pytest.approx(z.omega, abs=1e-12)


def test_special_omegas_are_local_minima_of_coefficient_size():
    for sol in special_omegas():
        mid = sol.coefficients.max_magnitude()
        for delta in (-1e-3, 1e-3):
            other = third_order_family(sol.omega + delta, sol.branch)
            assert other.coefficients.max_magnitude() > mid


def test_x_and_z_are_operator_swaps_of_each_other():
    x, _, z = special_omegas()
    np.testing.assert_allclose(x.coefficients.a, z.coefficients.b[::-1], atol=1e-12)
    np.testing.assert_allclose(x.coefficients.b, z.coefficients.a[::-1], atol=1e-12)


def test_y_is_its_own_operator_swap():
    _, y, _ = special_omegas()
    np.testing.assert_allclose(y.coefficients.a, y.coefficients.b[::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# fourth-order compositions


def test_fourth_order_u_closed_form():
    c = fourth_order_u()
    w = OMEGA_U
    assert w == pytest.approx(1.0 / (2.0 - 2.0 ** (1.0 / 3.0)), abs=1e-14)
    np.testing.assert_allclose(c.a, (w / 2, (1 - w) / 2, (1 - w) / 2, w / 2), atol=1e-15)
    np.testing.assert_allclose(c.b, (w, 1 - 2 * w, w, 0.0), atol=1e-15)
    # quoted approximations
    assert w == pytest.approx(1.3512, abs=1e-4)
    assert (1 - w) / 2 == pytest.approx(-0.1756, abs=1e-4)
    assert 1 - 2 * w == pytest.approx(-1.7024, abs=1e-4)
    assert sum(c.a) == pytest.approx(1.0, abs=1e-15)
    assert sum(c.b) == pytest.approx(1.0, abs=1e-15)
    assert max(abs(r) for r in order_residuals(c)) < 1e-12


def test_fourth_order_v_closed_form():
    c = fourth_order_v()
    w = OMEGA_V
    assert w == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)), abs=1e-14)
    np.testing.assert_allclose(
        c.a, (w / 2, w, (1 - 3 * w) / 2, (1 - 3 * w) / 2, w, w / 2), atol=1e-15
    )
    np.testing.assert_allclose(c.b, (w, w, 1 - 4 * w, w, w, 0.0), atol=1e-15)
    assert w == pytest.approx(0.4145, abs=1e-4)
    assert (1 - 3 * w) / 2 == pytest.approx(-0.1217, abs=1e-4)
    assert 1 - 4 * w == pytest.approx(-0.6580, abs=1e-4)
    assert max(abs(r) for r in order_residuals(c)) < 1e-12


def test_fourth_order_v_has_smaller_backward_fractions():
    u = fourth_order_u()
    v = fourth_order_v()
    assert max(-min(v.a), -min(v.b)) < max(-min(u.a), -min(u.b))


def test_palindromic_symmetry():
    for c in (fourth_order_u(), fourth_order_v()):
        assert c.a == c.a[::-1]
        assert c.b[:-1] == c.b[:-1][::-1]
        assert c.b[-1] == 0.0


# ---------------------------------------------------------------------------
# dispatch


def test_named_scheme_dispatch():
    assert named_scheme("S1").a == (1.0,)
    assert named_scheme("S2(1)").b == (1.0, 0.0)
    np.testing.assert_allclose(
        flat(named_scheme("S3Y")), TABLE_ROWS["S3Y"], atol=1e-5
    )
    s3 = named_scheme("S3(0.62,-)")
    assert s3.claimed_order == 3
    assert named_scheme("S4U").p == 4
    assert named_scheme("S4V").p == 6
    with pytest.raises(ValueError):
        named_scheme("S2")
    with pytest.raises(ValueError):
        named_scheme("S9")
    with pytest.raises(ValueError, match="branch must be positive/negative"):
        third_order_family(0.5, "sideways")


ACCEPTED_IDS = [
    "S1", "s4u", " S3X ", "S2(0.7)", "S2( 0.5 )", "S2(1e-1)", "S2(-0.5)",
    "S3(0.62,-)", "s3(0.62,+)", "S3( 0.62,+)", "S3(1,-)",
]
MALFORMED_IDS = [
    "S3(0.62, +)", "S3(0.62,+ )", "S3(0.62)", "S2()", "S2", "S9", "S3X(1)", "", "nope",
    "S2(0.5)x", "S2(abc)", "S3(x,+)", "S2(1_0)",
]
SINGULAR_IDS = ["S2(nan)", "S3(inf,+)", "S2(0)", "S3(1,+)"]


@pytest.mark.parametrize("text", ACCEPTED_IDS)
def test_scheme_id_language_accepts(text):
    assert isinstance(named_scheme(text), SplitCoefficients)


@pytest.mark.parametrize("text", MALFORMED_IDS)
def test_scheme_id_language_rejects_malformed(text):
    with pytest.raises(ValueError) as err:
        named_scheme(text)
    assert not isinstance(err.value, InvalidOmega)


@pytest.mark.parametrize("text", SINGULAR_IDS)
def test_scheme_id_language_rejects_singular_omega(text):
    with pytest.raises(InvalidOmega):
        named_scheme(text)


def test_split_scheme_ids_keeps_the_branch_comma():
    assert split_scheme_ids("S3(0.62,-),S1, S2(1),S3(0.5, +)") == [
        "S3(0.62,-)", "S1", " S2(1)", "S3(0.5, +)"
    ]
    assert [named_scheme(t).label for t in split_scheme_ids("s3x, S3(1,-)")] == ["S3X", "S3(1,-)"]


LABEL_OMEGAS = [0.5, 1.0, 0.62, 0.7000001, 0.2525 + 0.0025 * 7]


def labelled_schemes():
    yield first_order()
    yield from (sol.coefficients for sol in special_omegas())
    yield fourth_order_u()
    yield fourth_order_v()
    for omega in LABEL_OMEGAS:
        yield second_order_family(omega)
        for branch in "+-":
            try:
                yield third_order_family(omega, branch).coefficients
            except InvalidOmega:  # S3(1,+)
                pass


@pytest.mark.parametrize("scheme", list(labelled_schemes()), ids=lambda c: c.label)
def test_every_label_reads_back(scheme):
    assert named_scheme(scheme.label) == scheme


# ---------------------------------------------------------------------------
# order from matrix exponentials

# two fixed non-commuting 3x3 generators: a damped rotation and a shear
GEN_A = np.array([[-1.0, 2.0, 0.0], [-2.0, -0.5, 1.0], [0.0, -1.0, -0.3]])
GEN_B = np.array([[0.4, 0.0, 1.0], [1.5, -1.0, 0.0], [0.0, 0.7, 0.2]])
ORDER_STEPS = [2.0**-k for k in (3, 4, 5, 6)]


def composed_step(c: SplitCoefficients, h: float) -> np.ndarray:
    """The solver's order: A over a_1 h first, then B over b_1 h, ..., B over b_p h last."""
    m = np.eye(3)
    for a_j, b_j in c.substeps():
        m = expm(h * b_j * GEN_B) @ expm(h * a_j * GEN_A) @ m
    return m


def test_order_generators_do_not_commute():
    assert np.linalg.norm(GEN_A @ GEN_B - GEN_B @ GEN_A) > 1.0


@pytest.mark.parametrize(
    "scheme",
    [
        first_order(),
        second_order_family(1.0),
        second_order_family(0.6),
        *(named_scheme(key) for key in ("S3X", "S3Y", "S3Z", "S4U", "S4V")),
        *(
            third_order_family(omega, branch).coefficients
            for omega in (0.5, 2.0)
            for branch in ("+", "-")
        ),
    ],
    ids=lambda c: c.label,
)
def test_local_error_falls_with_the_claimed_order(scheme):
    errors = [
        np.linalg.norm(composed_step(scheme, h) - expm(h * (GEN_A + GEN_B)), 2)
        for h in ORDER_STEPS
    ]
    slope = np.polyfit(np.log(ORDER_STEPS), np.log(errors), 1)[0]
    assert slope >= scheme.claimed_order + 1 - 0.3, (scheme.label, slope, errors)
