"""Solved and closed-form sharp constants.

Reference values below come from mpmath findroot / 40-digit closed forms,
computed outside the package. The double pipeline is allowed a few ulp.
"""

import math

import pytest

from ineqforge import constants as C
from ineqforge.errors import BracketError, ConvergenceError, DomainError
from ineqforge.kernels import ln_cos

P1 = 0.650553679760664036463
P0 = 0.3473072454648888749628
BETA = 2.094191170361282205403
GAMMA = 1.498952307566243254602


def test_solved_exponents_match_reference():
    assert abs(C.constant_p1() - P1) < 5e-15 * P1
    assert abs(C.constant_p0() - P0) < 5e-15 * P0


def test_closed_forms_match_reference():
    assert abs(C.constant_beta() - BETA) < 5e-15 * BETA
    assert abs(C.constant_gamma() - GAMMA) < 5e-15 * GAMMA


def test_residuals_vanish_at_the_solutions():
    assert abs(C.p1_residual(C.constant_p1())) < 1e-13
    assert abs(C.p0_residual(C.constant_p0())) < 1e-13


def test_p1_defining_equation():
    # (cos(p pi/2))^(1/p) = 1/e at p1
    p = C.constant_p1()
    assert math.exp(ln_cos(p * math.pi / 2.0) / p) == pytest.approx(
        math.exp(-1.0), abs=1e-13)


def test_p0_defining_equation():
    # (cos(p pi/2))^(1/p) = 2/pi at p0
    p = C.constant_p0()
    value = math.exp(ln_cos(p * math.pi / 2.0) / p)
    assert abs(value - 0.6366197723675813430755) < 1e-12


def test_beta_defining_equation():
    assert C.constant_beta() * math.log(2.0) == pytest.approx(
        math.log(math.pi) - math.log(2.0) + 1.0, rel=1e-15)


def test_gamma_defining_equation():
    lhs = C.constant_gamma() * 2.0 * ln_cos(math.pi / (2.0 * math.sqrt(3.0)))
    assert lhs == pytest.approx(math.log(2.0) - math.log(math.pi) - 1.0, rel=1e-14)


def test_constant_relationships():
    # ordering facts the chain catalog leans on
    assert 0.34 < C.constant_p0() < 0.35
    assert 0.65 < C.constant_p1() < 0.66
    assert math.sqrt(10.0) / 5.0 < C.constant_p1()
    assert math.log(3.0) < 6.0 / 5.0


def test_determinism():
    assert C.constant_p1() == C.constant_p1()
    a = C.solve_root(C.p1_residual, (0.5, 0.9))
    b = C.solve_root(C.p1_residual, (0.5, 0.9))
    assert a == b == C.constant_p1()


REGISTRY_EXPECTED = {
    "e_inv_plus_2_over_pi": 1.004499213539023664671,
    "e_pi_minus2_over_pi": 0.9877698695945150609247,
    "two_over_e": 0.735758882342884643191,
    "log_ratio_q": 1.321366734866759533729,
    "sqrt_8_over_pi_e": 0.9678828980765733991913,
    "two_sqrt2_over_e": 1.040520190045777792716,
    "pow2_10_3_over_pi2": 1.021253536569963632591,
    "ln3": 1.098612288668109691395,
}


def test_registry_values_and_order():
    rows = C.constant_registry()
    assert [name for name, _ in rows] == list(REGISTRY_EXPECTED)
    for name, value in rows:
        assert abs(value - REGISTRY_EXPECTED[name]) < 5e-15 * abs(value), name


def test_solve_root_on_a_known_function():
    root = C.solve_root(lambda x: x * x - 2.0, (1.0, 2.0))
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_solve_root_rejects_bad_bracket():
    with pytest.raises(BracketError):
        C.solve_root(lambda x: x * x - 2.0, (0.1, 0.2))  # same sign at both ends


def test_solve_root_reports_non_convergence():
    # halving a 2e300-wide bracket down to 1e-15 around the root 1 takes
    # about 1050 bisections; the cap of 200 must turn that into an error
    with pytest.raises(ConvergenceError, match="200 bisections"):
        C.solve_root(lambda x: x - 1.0, (-1e300, 1e300))


def test_solve_root_validates_inputs():
    with pytest.raises(DomainError):
        C.solve_root(lambda x: x, (2.0, 1.0))
    with pytest.raises(DomainError):
        C.solve_root(lambda x: x, (1.0,))


def test_solve_root_returns_exact_hits():
    assert C.solve_root(lambda x: x - 1.5, (1.5, 2.0)) == 1.5
    assert C.solve_root(lambda x: x - 2.0, (1.5, 2.0)) == 2.0
