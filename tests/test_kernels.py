"""Kernel functions: frozen spot values, endpoint limits, monotonicity.

Spot values were computed with mpmath at 40 digits from the defining
formulas (not from this package) and pasted in. Where a kernel switches to
a small-argument series, the checks straddle the seam.
"""

import math

import mpmath as mp
import pytest

from ineqforge import kernels as K
from ineqforge.errors import DomainError

mp.mp.dps = 40

HALF_PI = math.pi / 2.0

# (callable, frozen 40-digit oracle value) pairs; tolerance 1e-13 relative.
SPOTS = [
    (lambda: K.sinc(0.7), 0.9203109817681300766752),
    (lambda: K.t_cot_minus1(0.15), -0.00751127416150748519884),  # series path
    (lambda: K.t_cot_minus1(1.0), -0.3579073840656692969936),  # direct path
    (lambda: K.t_cot_minus1(0.01), -3.333355555767197883619e-05),
    (lambda: K.exp_tcot(1.2), 0.5865692662974016434761),
    (lambda: K.exp_tcot_half(2.5), 0.3105791629810135648465),
    (lambda: K.cos_power_U(0.5, 0.9), 0.8108049841353322282424),
    (lambda: K.cos_power_V(0.3, 1.1), 0.5399328174814498784509),
    (lambda: K.F_p(0.5, 0.8), 2.712282378998695720487),
    (lambda: K.F_p(math.sqrt(10.0) / 5.0, 0.8), 1.666059398327501065733),
    (lambda: K.G_p(0.5, 0.8), 4.038327266222668214955),
    (lambda: K.G_p(0.5, 0.15), 4.001253210471853434884),  # series numerator
    (lambda: K.u_ratio(1.2, 0.6), 0.6668530751953763535297),
    (lambda: K.u_ratio(0.5, 1.0), 0.6184449192241362455973),
    (lambda: K.u_ratio(-1.0, 0.7), 0.5985772005539162119647),
    (lambda: K.h_ratio(1.0), 1.000198988373540699815),
    (lambda: K.ratio_u5_u4(0.3), 1.193791398469496387393),  # series path
    (lambda: K.ratio_u5_u4(1.0), 1.126657985343287382008),  # direct path
    (lambda: K.sinhc(2.0), 1.813430203923509383834),
    (lambda: K.t_coth_minus1(0.1), 0.003331113225398961014527),
    (lambda: K.t_coth_minus1(3.0), 2.014909469941067513279),
    (lambda: K.exp_tcoth(1.5), 1.929357583995354488),
    (lambda: K.cosh_power(2.0 / 3.0, 5.0), 52.57217388608524138021),
    (lambda: K.cosh_power(math.log(2.0), 30.0), 3931334297144.041947778),
    (lambda: K.cosh_power(math.log(2.0), 50.0), 1.907346572495099626711e21),
    (lambda: K.k_ratio(10.0), 0.8356830308427326529824),
    (lambda: K.k_ratio(0.5), 0.9999977309174783792883),
]


@pytest.mark.parametrize("fn,want", SPOTS, ids=range(len(SPOTS)))
def test_frozen_spot_values(fn, want):
    got = fn()
    assert abs(got - want) <= 1e-13 * abs(want)


def test_exact_special_points():
    assert K.exp_tcot_half(math.pi) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert K.cos_power_U(0.5, HALF_PI) == pytest.approx(0.5, rel=1e-15)
    assert K.cos_power_U(0.5, 0.0) == 1.0
    assert K.cos_power_U(0.0, 1.3) == 1.0
    assert K.cos_power_V(0.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert K.cos_power_V(0.5, HALF_PI) == pytest.approx(0.25, rel=1e-15)
    assert K.cos_power_V(0.4, 0.0) == 1.0


def test_ln_cos_agrees_with_log_of_cos():
    # the log1p path engages for cos >= 0.7; check both branches
    for t in (0.05, 0.3, 0.7, 0.795, 0.8, 1.2, 1.5):
        want = float(mp.log(mp.cos(mp.mpf(t))))
        assert abs(K.ln_cos(t) - want) <= 1e-14 * abs(want)


# --- registry ------------------------------------------------------------------

def test_registry_ids_are_stable():
    assert set(K.KERNELS) == {
        "sinc", "t_cot_minus1", "exp_tcot", "exp_tcot_half",
        "U(p=0.5)", "U(p=2/3)", "V(p=0)", "V(p=0.5)",
        "Fp(p=0.5)", "Fp(p=sqrt10/5)", "Gp(p=0.5)", "Gp(p=1/sqrt3)",
        "u(p=6/5)", "u(p=0.5)", "u(p=-1)", "h_ratio", "ratio_u5_u4",
        "sinhc", "t_coth_minus1", "exp_tcoth",
        "coshpow(p=2/3)", "coshpow(p=ln2)", "k_ratio",
    }


def test_registry_frozen_limits():
    reg = K.KERNELS
    assert reg["U(p=2/3)"].limit_hi == pytest.approx(0.3535533905932737622004, rel=1e-14)
    assert reg["V(p=0)"].limit_hi == pytest.approx(0.2912129332140208660588, rel=1e-14)
    assert reg["V(p=0.5)"].limit_hi == pytest.approx(0.25, rel=1e-14)
    assert reg["Fp(p=0.5)"].limit_hi == pytest.approx(2.88539008177792681472, rel=1e-14)
    assert reg["Fp(p=sqrt10/5)"].limit_hi == pytest.approx(1.651494969483066071215, rel=1e-13)
    assert reg["Gp(p=0.5)"].limit_hi == pytest.approx(4.188382340722564410806, rel=1e-14)
    assert reg["Gp(p=1/sqrt3)"].limit_hi == pytest.approx(2.997904615132486509204, rel=1e-13)
    assert reg["h_ratio"].limit_hi == pytest.approx(1.004499213539023664671, rel=1e-14)
    assert reg["u(p=6/5)"].limit_hi == pytest.approx(0.698805788087797903355, rel=1e-14)
    assert reg["u(p=0.5)"].limit_hi == pytest.approx(0.3934693402873665763962, rel=1e-14)
    assert reg["u(p=-1)"].limit_hi == 0.0
    assert reg["k_ratio"].limit_hi == pytest.approx(0.735758882342884643191, rel=1e-14)
    assert reg["Fp(p=0.5)"].limit_lo == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert reg["Fp(p=sqrt10/5)"].limit_lo == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert reg["Gp(p=0.5)"].limit_lo == 4.0
    assert reg["Gp(p=1/sqrt3)"].limit_lo == pytest.approx(3.0, rel=1e-15)


def test_get_kernel_and_eval():
    k = K.get_kernel("sinc")
    assert k.fn(0.7) == K.sinc(0.7)
    with pytest.raises(DomainError) as err:
        K.get_kernel("nope")
    assert "sinc" in str(err.value)  # the error lists the known ids


def test_endpoint_consistency_at_lo():
    # every kernel must sit within 1e-7 of its stored lo limit at lo + 1e-8
    for kid, k in K.KERNELS.items():
        got = k.fn(k.lo + 1e-8)
        assert abs(got - k.limit_lo) < 1e-7, kid


# --- series/direct seam agreement ----------------------------------------------

def _mp_tcm1(t):
    t = mp.mpf(t)
    return t * mp.cos(t) / mp.sin(t) - 1


def _mp_tcoth(t):
    t = mp.mpf(t)
    return t * mp.cosh(t) / mp.sinh(t) - 1


def _mp_r54(t):
    t = mp.mpf(t)
    cot = mp.cos(t) / mp.sin(t)
    tan = mp.sin(t) / mp.cos(t)
    return (3 * t * cot + t * tan - 3) / (
        2 * t * cot - t * t / mp.sin(t) ** 2 + t * tan - 1
    )


def _mp_g_over_lncos(t):
    t = mp.mpf(t)
    num = mp.log(mp.sin(t) / t) + t * mp.cos(t) / mp.sin(t) - 1
    return num / mp.log(mp.cos(t / 2))


@pytest.mark.parametrize(
    "fn,oracle,lo,hi",
    [
        (K.t_cot_minus1, _mp_tcm1, 0.1, 0.4),
        (K.t_coth_minus1, _mp_tcoth, 0.25, 1.0),
        (K.ratio_u5_u4, _mp_r54, 0.25, 1.0),
        (lambda t: K.G_p(0.5, t), _mp_g_over_lncos, 0.1, 0.4),
    ],
    ids=["t_cot_minus1", "t_coth_minus1", "ratio_u5_u4", "G_p"],
)
def test_seam_agreement(fn, oracle, lo, hi):
    # [threshold/2, 2*threshold]: series on the left of the switch, direct on
    # the right, both against the 40-digit formula
    for i in range(121):
        t = lo + i * (hi - lo) / 120
        want = float(oracle(t))
        assert abs(fn(t) - want) <= 1e-13 * abs(want), f"t={t}"


def test_small_t_thresholds_recorded():
    assert K.KERNELS["t_cot_minus1"].small_t_threshold == K.SMALL_T
    assert K.KERNELS["t_coth_minus1"].small_t_threshold == K.SMALL_T_HYPERBOLIC == 0.5
    assert K.KERNELS["ratio_u5_u4"].small_t_threshold == 0.5


# --- monotonicity in the parameter and in t -------------------------------------

@pytest.mark.parametrize("t", [0.3, 0.8, 1.3])
def test_U_and_V_decrease_in_p(t):
    ps = [i / 10.0 for i in range(10)]
    u_vals = [K.cos_power_U(p, t) for p in ps]
    v_vals = [K.cos_power_V(p, t) for p in ps]
    assert all(a > b for a, b in zip(u_vals, u_vals[1:]))
    assert all(a > b for a, b in zip(v_vals, v_vals[1:]))


def _grid(lo, hi, n=10_000):
    span = hi - lo
    lo, hi = lo + 1e-6 * span, hi - 1e-6 * span
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _steps(values, increasing):
    sign = 1.0 if increasing else -1.0
    return [sign * (b - a) for a, b in zip(values, values[1:])]


@pytest.mark.parametrize(
    "fn,increasing",
    [
        (lambda t: K.F_p(0.4, t), True),
        (lambda t: K.F_p(0.7, t), False),
        (lambda t: K.G_p(0.4, t), True),
        (lambda t: K.G_p(0.6, t), False),
        (lambda t: K.u_ratio(1.2, t), True),
        (lambda t: K.u_ratio(0.5, t), False),
    ],
    ids=["F(0.4)", "F(0.7)", "G(0.4)", "G(0.6)", "u(6/5)", "u(1/2)"],
)
def test_parameterized_kernels_monotone_in_t(fn, increasing):
    # Forward differences on the grid; near a flat endpoint consecutive
    # doubles plateau, so steps inside the 1e-13 tie band are treated as
    # roundoff rather than direction violations.
    values = [fn(t) for t in _grid(0.0, HALF_PI)]
    steps = _steps(values, increasing)
    theta = 1e-13 * max(1.0, max(abs(v) for v in values))
    assert min(steps) > -theta
    assert sum(1 for s in steps if s > theta) > 0.99 * len(steps)


def test_u5_u4_ratio_range_and_direction():
    values = [K.ratio_u5_u4(t) for t in _grid(0.0, HALF_PI)]
    assert all(1.0 < v < 1.2 for v in values)
    steps = _steps(values, increasing=False)
    theta = 1e-13 * max(1.0, max(abs(v) for v in values))
    assert min(steps) > -theta
    assert sum(1 for s in steps if s > theta) > 0.99 * len(steps)


# --- domain errors ---------------------------------------------------------------

def test_domain_errors():
    with pytest.raises(DomainError):
        K.ln_cos(2.0)  # cos <= 0; note cos(fl(pi/2)) is still 6e-17 > 0
    with pytest.raises(DomainError):
        K.sinc(0.0)
    with pytest.raises(DomainError):
        K.sinc(math.pi)
    with pytest.raises(DomainError):
        K.cos_power_U(1.0, 0.5)  # p must stay below 1
    with pytest.raises(DomainError):
        K.cos_power_V(-0.1, 0.5)
    with pytest.raises(DomainError):
        K.F_p(0.0, 0.5)
    with pytest.raises(DomainError):
        K.F_p(0.5, HALF_PI)
    with pytest.raises(DomainError):
        K.G_p(0.5, 0.0)
    with pytest.raises(DomainError):
        K.u_ratio(0.0, 0.5)
    with pytest.raises(DomainError):
        K.h_ratio(2.0)
    with pytest.raises(DomainError):
        K.exp_tcot_half(2.0 * math.pi)
    with pytest.raises(DomainError):
        K.sinhc(0.0)
    with pytest.raises(DomainError):
        K.t_coth_minus1(-1.0)
    with pytest.raises(DomainError):
        K.cosh_power(0.0, 1.0)
