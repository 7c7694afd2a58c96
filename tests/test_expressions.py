"""Expression parsing, evaluation, and symbolic differentiation."""

import math
import re
import sys

import numpy as np
import pytest

from tsvar import (
    DomainError,
    ExpressionSyntaxError,
    NonDifferentiablePoint,
    UnknownIdentifier,
    parse_lagrangian,
)
from tsvar.expressions import BinOp, Num, derivative
from conftest import SMOOTH_TEMPLATES, random_point


class TestParsing:
    def test_polynomial(self):
        L = parse_lagrangian("r^2 - r^4")
        assert L.eval(0.0, 0.0, 2.0) == -12.0

    def test_constant_zero(self):
        assert parse_lagrangian("0").eval(1.0, 2.0, 3.0) == 0.0

    def test_mixed_expression(self):
        L = parse_lagrangian("t*(x^2) + sin(r)")
        assert L.eval(1.0, 2.0, 0.0) == pytest.approx(4.0, abs=1e-15)

    def test_whitespace_insensitive(self):
        a = parse_lagrangian("r^2-r^4")
        b = parse_lagrangian("  r ^ 2   -  r ^ 4 ")
        for r in (-2.0, 0.5, 3.0):
            assert a.eval(0, 0, r) == b.eval(0, 0, r)

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_lagrangian("-x^2").eval(0.0, 3.0, 0.0) == -9.0
        assert parse_lagrangian("(-x)^2").eval(0.0, 3.0, 0.0) == 9.0

    def test_power_right_associative(self):
        assert parse_lagrangian("x^x^2").eval(0.0, 2.0, 0.0) == 16.0  # 2^(2^2)

    def test_left_associative_subtraction(self):
        assert parse_lagrangian("x - x - x").eval(0.0, 5.0, 0.0) == -5.0

    def test_division_chain(self):
        assert parse_lagrangian("x / 2 / 2").eval(0.0, 8.0, 0.0) == 2.0

    def test_scientific_notation(self):
        assert parse_lagrangian("1e-3 + 2.5e2").eval(0, 0, 0) == pytest.approx(250.001)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_lagrangian("r + ")
        assert exc.value.position == 4
        with pytest.raises(ExpressionSyntaxError):
            parse_lagrangian("(r + 1")
        with pytest.raises(ExpressionSyntaxError):
            parse_lagrangian("")
        with pytest.raises(ExpressionSyntaxError):
            parse_lagrangian("r @ 2")

    @pytest.mark.parametrize(
        "src, literal, position",
        [
            ("1e400*r", "1e400", 0),
            ("0*1e400", "1e400", 2),
            ("r - 2.5e308", "2.5e308", 4),
            ("-1e309", "1e309", 1),
        ],
    )
    def test_a_number_beyond_the_float_range_is_a_syntax_error(self, src, literal, position):
        # it parsed to inf: 1e400*r evaluated to inf and 0*1e400 to nan
        message = f"number '{literal}' is outside the float range (at position {position})"
        with pytest.raises(ExpressionSyntaxError, match=re.escape(message)) as exc:
            parse_lagrangian(src)
        assert exc.value.position == position

    def test_the_largest_and_smallest_literals_parse(self):
        assert parse_lagrangian("1.7976931348623157e308").eval(0.0, 0.0, 0.0) == sys.float_info.max
        assert parse_lagrangian("1e-400 + r").eval(0.0, 0.0, 1.0) == 1.0  # rounds to 0, in range

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_lagrangian("y + 1")
        with pytest.raises(UnknownIdentifier):
            parse_lagrangian("foo(r)")


class TestEvaluation:
    def test_spike_slope_value(self):
        # the d/mu = 6 term of the harmonic spike
        assert parse_lagrangian("r^2 - r^4").eval(0, 0, 6.0) == -1260.0

    def test_projection(self):
        L = parse_lagrangian("x")
        for xv in (-3.0, 0.0, 7.5):
            assert L.eval(0.0, xv, 1.0) == xv

    def test_even_symmetry(self):
        assert parse_lagrangian("r^2").eval(0, 0, -2.0) == 4.0

    def test_negative_base_integer_power(self):
        assert parse_lagrangian("r^3").eval(0, 0, -2.0) == -8.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            parse_lagrangian("log(r)").eval(0, 0, -1.0)
        with pytest.raises(DomainError):
            parse_lagrangian("sqrt(r)").eval(0, 0, -1.0)
        with pytest.raises(DomainError):
            parse_lagrangian("1 / r").eval(0, 0, 0.0)
        with pytest.raises(DomainError):
            parse_lagrangian("r^-1").eval(0, 0, 0.0)
        with pytest.raises(DomainError):
            parse_lagrangian("r^0.5").eval(0, 0, -4.0)

    def test_domain_error_names_offending_node(self):
        with pytest.raises(DomainError) as exc:
            parse_lagrangian("x + log(r - 1)").eval(0.0, 0.0, 0.5)
        assert "log" in str(exc.value)


class TestPartials:
    def test_quartic_slope_derivative_at_zero(self):
        _, _, f_r = parse_lagrangian("r^2 - r^4").partials(0.0, 0.0, 0.0)
        assert f_r == 0.0

    def test_quartic_slope_derivative(self):
        _, _, f_r = parse_lagrangian("r^2 - r^4").partials(0.0, 0.0, 2.0)
        assert f_r == -28.0  # 2*2 - 4*8

    def test_bilinear(self):
        f, f_x, f_r = parse_lagrangian("x*r").partials(0.0, 3.0, 5.0)
        assert (f, f_x, f_r) == (15.0, 5.0, 3.0)

    def test_an_operation_on_two_numbers_is_derived_as_its_value(self):
        # f_rr of 0.7368*r^2 is 0.7368*2.0, and f_r of exp(r/3) has the factor 1/3
        assert parse_lagrangian("0.7368*r^2")._second[5] == Num(0.7368 * 2.0)
        assert derivative(parse_lagrangian("exp(r/3)").ast, "r").rhs == Num(1.0 / 3.0)
        # one that fails stays a node: f fails first wherever it is evaluated
        lagr = parse_lagrangian("r/0")
        assert derivative(lagr.ast, "r") == BinOp("/", Num(1.0), Num(0.0))
        with pytest.raises(DomainError, match=r"division by zero in '\(r / 0\.0\)'"):
            lagr.partials(0.0, 0.0, 1.0)

    def test_primal_matches_eval(self, rng):
        for src in SMOOTH_TEMPLATES:
            L = parse_lagrangian(src)
            for _ in range(10):
                t, x, r = random_point(rng)
                f, _, _ = L.partials(t, x, r)
                assert abs(f - L.eval(t, x, r)) <= 1e-14

    def test_abs_not_differentiable_at_zero(self):
        L = parse_lagrangian("abs(r)")
        assert L.eval(0, 0, 0.0) == 0.0
        with pytest.raises(NonDifferentiablePoint):
            L.partials(0.0, 0.0, 0.0)
        assert L.partials(0.0, 0.0, 2.0)[2] == 1.0
        assert L.partials(0.0, 0.0, -2.0)[2] == -1.0

    def test_matches_central_differences(self, rng):
        h = 1e-6
        for src in SMOOTH_TEMPLATES:
            L = parse_lagrangian(src)
            for _ in range(20):
                t, x, r = random_point(rng)
                _, f_x, f_r = L.partials(t, x, r)
                fd_x = (L.eval(t, x + h, r) - L.eval(t, x - h, r)) / (2 * h)
                fd_r = (L.eval(t, x, r + h) - L.eval(t, x, r - h)) / (2 * h)
                assert abs(f_x - fd_x) <= 1e-5 * max(1.0, abs(f_x))
                assert abs(f_r - fd_r) <= 1e-5 * max(1.0, abs(f_r))


class TestRoundTrip:
    def test_reparse_evaluates_identically(self, rng):
        for src in SMOOTH_TEMPLATES:
            L = parse_lagrangian(src)
            re_parsed = parse_lagrangian(L.to_source())
            for _ in range(10):
                t, x, r = random_point(rng)
                assert re_parsed.eval(t, x, r) == L.eval(t, x, r)


class TestDualNumbers:
    """The forward-mode rules that dual numbers implemented, on the symbolic partials.

    Each test keeps the case of the dual-number test it replaced. Second
    derivatives, which nested dual numbers gave, come from second_partials.
    """

    def test_arithmetic_chain_rule(self):
        # d/dx x*x*x = 3x^2 and d2/dx2 = 6x, at x = 2
        f, f_x, _, f_xx, _, _ = parse_lagrangian("x * x * x").second_partials(0.0, 2.0, 0.0)
        assert (f, f_x, f_xx) == (8.0, 12.0, 12.0)

    def test_division(self):
        f, f_x, _ = parse_lagrangian("x / t").partials(2.0, 1.0, 0.0)
        assert f == 0.5 and f_x == 0.5
        # x/r: f_r = -x/r^2, f_xr = -1/r^2, f_rr = 2x/r^3, at x = 1, r = 2
        _, f_x, f_r, f_xx, f_xr, f_rr = parse_lagrangian("x / r").second_partials(0.0, 1.0, 2.0)
        assert (f_x, f_r, f_xx, f_xr, f_rr) == (0.5, -0.25, 0.0, -0.25, 0.25)

    def test_transcendentals(self):
        u = 0.7
        for src, first, second in [
            ("sin(x)", math.cos(u), -math.sin(u)),
            ("cos(x)", -math.sin(u), -math.cos(u)),
            ("exp(x)", math.exp(u), math.exp(u)),
            ("log(x)", 1 / u, -1 / u**2),
            ("sqrt(x)", 0.5 / math.sqrt(u), -0.25 / u**1.5),
        ]:
            _, f_x, f_r, f_xx, f_xr, f_rr = parse_lagrangian(src).second_partials(0.0, u, 0.0)
            assert f_x == pytest.approx(first, abs=1e-15)
            assert f_xx == pytest.approx(second, abs=1e-15)
            assert f_r == f_xr == f_rr == 0.0

    def test_nested_duals_give_second_derivative(self):
        # f(u) = u^3, f''(2) = 12
        f, _, _, f_xx, _, _ = parse_lagrangian("x^3").second_partials(0.0, 2.0, 0.0)
        assert f == 8.0
        assert f_xx == 12.0

    def test_partials_accept_dual_inputs_without_confusion(self):
        # each second partial differentiates in its own pair of variables
        _, _, f_r, f_xx, f_xr, f_rr = parse_lagrangian("r^2").second_partials(0.0, 0.0, 3.0)
        assert (f_r, f_xx, f_xr, f_rr) == (6.0, 0.0, 0.0, 2.0)
        _, f_x, f_r, f_xx, f_xr, f_rr = parse_lagrangian("x*r").second_partials(0.0, 3.0, 5.0)
        assert (f_x, f_r) == (5.0, 3.0)
        assert (f_xx, f_xr, f_rr) == (0.0, 1.0, 0.0)  # f_x = r does not move with x

    @pytest.mark.parametrize("src, f_rr", [("r^2", 2.0), ("r^3", 0.0), ("r^2.5", 0.0)])
    def test_nested_tangent_survives_base_zero(self, src, f_rr):
        _, f_x, f_r, f_xx, f_xr, got = parse_lagrangian(src).second_partials(0.0, 0.0, 0.0)
        assert (f_r, got) == (0.0, f_rr)
        assert f_x == f_xx == f_xr == 0.0

    @pytest.mark.parametrize("src", ["r^2", "r^3", "r^2.5", "x*r^2 + r^4/4"])
    def test_nested_scalar_partials_match_the_array_path_at_zero(self, src):
        L = parse_lagrangian(src)
        scalar = L.second_partials(0.5, 2.0, 0.0)
        array = L.second_partials(np.array([0.5]), np.array([2.0]), np.zeros(1))
        for s, a in zip(scalar, array):
            assert a.shape == (1,)
            assert s == a[0]

    def test_partials_of_array_duals_are_broadcast_to_the_rows(self):
        # every partial of x + r is a constant; each still comes back one per row
        f, *partials = parse_lagrangian("x + r").second_partials(
            np.zeros(3), np.arange(3.0), np.ones(3)
        )
        assert f.tolist() == [1.0, 2.0, 3.0]
        assert [p.tolist() for p in partials] == [[1.0] * 3, [1.0] * 3] + [[0.0] * 3] * 3

    def test_array_dual_error_names_the_sub_expression(self):
        # r^1.5 has a first derivative at r = 0 but no second one
        L = parse_lagrangian("r^1.5")
        L.partials(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(NonDifferentiablePoint, match=r"in '\(r \^ 1\.5\)' at t=0\.0, x=0\.0, r=0\.0") as info:
            L.second_partials(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
        assert info.value.index == 1

    def test_pow_dual_exponent_requires_positive_base(self):
        L = parse_lagrangian("x^r")
        f, _, f_r = L.partials(0.0, 2.0, 3.0)
        assert f == pytest.approx(8.0, rel=1e-14)
        assert f_r == pytest.approx(8.0 * math.log(2.0), rel=1e-12)
        with pytest.raises(DomainError):
            L.partials(0.0, -2.0, 3.0)
