"""Every mean chain is an exact transcription of its kernel chain.

A mean chain's members, over its scale, are its counterpart kernel members
under the arcsin or arctan substitution. This module proves each packaged
(member, counterpart) pair identically over the substitution's t-range, with
sympy as the oracle, from the catalog's own expression strings; the verifier
then checks the identity only at each link's reported ratio.

For a pair (x, y) with x > y and u = (x-y)/(x+y), the substitution is
t = arcsin(u) in (0, pi/2) with scale lam = A, or t = arctan(u) in (0, pi/4)
with scale lam = Q. The means are written below in t and lam > 0. Every sine,
cosine and cotangent of t, t/2 and t/4 is then written through
h = cos(t/2) > 0 by the half-angle formulas, which hold because sin(t/2) and
cos(t/4) are positive on both ranges. A pair is proved when member / scale -
counterpart, normalised with lam, t and h positive, expands to 0.
"""

import pytest
import sympy as sp

from ineqforge import catalog as C
from ineqforge import kernels as K
from ineqforge import means as M

lam = sp.Symbol("lam", positive=True)
t = sp.Symbol("t", positive=True)
h = sp.Symbol("h", positive=True)

_EXP_TCOT = sp.exp(t * sp.cot(t) - 1)
_EXP_TCOT_HALF = sp.exp(t * (1 + sp.cos(t)) / sp.sin(t) - 2)
MEANS = {
    "arcsin": {"A": lam, "G": lam * sp.cos(t), "P": lam * sp.sin(t) / t,
               "X": lam * _EXP_TCOT, "J": lam * _EXP_TCOT_HALF},
    "arctan": {"Q": lam, "A": lam * sp.cos(t), "T": lam * sp.sin(t) / t,
               "B": lam * _EXP_TCOT, "K": lam * _EXP_TCOT_HALF},
}
KERNELS = {
    "t": t,
    "sinc": lambda x: sp.sin(x) / x,
    "exp_tcot": lambda x: sp.exp(x * sp.cot(x) - 1),
    "exp_tcot_half": lambda x: sp.exp(x * sp.cot(x / 2) - 2),
}
SHARED = {
    "cos": sp.cos, "sqrt": sp.sqrt, "exp": sp.exp, "log": sp.log, "pi": sp.pi, "e": sp.E,
    "wpm": lambda r, w, x, y: (w * x**r + (1 - w) * y**r) ** (1 / r),
}
_SIN_HALF = sp.sqrt(1 - h**2)
HALF_ANGLE = {
    sp.cos(t): 2 * h**2 - 1,
    sp.sin(t): 2 * h * _SIN_HALF,
    sp.cot(t): (2 * h**2 - 1) / (2 * h * _SIN_HALF),
    sp.cos(t / 2): h,
    sp.cot(t / 2): h / _SIN_HALF,
    sp.cos(t / 4): sp.sqrt((1 + h) / 2),
}


@pytest.fixture(scope="module")
def cat():
    return C.load_catalog()


def _parse(expr, names):
    return sp.parse_expr(expr, local_dict={**SHARED, **names})


def _normal(expr):
    """expr with every power's base expanded and its common factors pulled
    out, bottom up, then split into powers of those factors: a power of a
    product of positive factors is the product of their powers."""
    if expr.is_Atom:
        return expr
    args = [_normal(arg) for arg in expr.args]
    if expr.is_Pow:
        base, exponent = args
        base = sp.factor_terms(sp.expand(base))
        return sp.expand_power_base(sp.powdenest(sp.Pow(base, exponent)))
    return expr.func(*args)


def unproved(chain):
    """One message per member of a mean chain whose identity with its
    counterpart is not proved."""
    names = MEANS[chain.substitution]
    scale = _parse(chain.scale, names)
    failures = []
    for i, (member, twin) in enumerate(zip(chain.members, chain.twin_members)):
        gap = _parse(member, names) / scale - _parse(twin, KERNELS)
        rest = sp.expand(_normal(gap.subs(HALF_ANGLE)))
        if rest != 0:
            failures.append(
                f"chain {chain.id} member {i}: {member} over {chain.scale} is not "
                f"{twin}: the difference reduces to {rest}"
            )
    return failures


def test_every_mean_member_is_its_counterpart_under_the_substitution(cat):
    chains = [chain for chain in cat.chains.values() if chain.kind == "mean"]
    assert sum(len(chain.members) for chain in chains) == 67
    assert [f for chain in chains for f in unproved(chain)] == []


def _mean_record(chain, **changes):
    record = {
        "id": chain.id,
        "kind": "mean",
        "substitution": chain.substitution,
        "scale": chain.scale,
        "members": list(chain.members),
        "counterpart": [list(ref) for ref in chain.counterpart],
    }
    return {**record, **changes}


def test_a_mutated_member_fails_the_proof_by_chain_and_index(cat):
    chain = cat.get_chain("M1c-i1")
    assert chain.members[4] == "(2*A+G)/3"
    members = list(chain.members[:4]) + ["(A+2*G)/3"]
    mutated = C._build_chain(_mean_record(chain, members=members), cat.chains)
    (failure,) = unproved(mutated)
    assert failure.startswith("chain M1c-i1 member 4: (A+2*G)/3 over A is not (2+cos(t))/3")


def test_a_wrong_counterpart_fails_the_proof_by_chain_and_index(cat):
    # cos(t/3)**3, M1c's member 6, follows member 5 too, so the chain loads.
    chain = cat.get_chain("M1c-i1")
    refs = [list(ref) for ref in chain.counterpart]
    wrong = C._build_chain(
        _mean_record(chain, counterpart=refs[:-1] + [["M1c", 6]]), cat.chains
    )
    (failure,) = unproved(wrong)
    assert failure.startswith("chain M1c-i1 member 4: (2*A+G)/3 over A is not cos(t/3)**3")


@pytest.mark.parametrize("substitution", ["arcsin", "arctan"])
def test_the_definitions_are_the_package_means_and_kernels(substitution):
    # The proof is about the package only if its means, kernels and
    # half-angle table are the package's, checked here at sample points.
    kernels = {"sinc": K.sinc, "exp_tcot": K.exp_tcot, "exp_tcot_half": K.exp_tcot_half}
    for ratio in (1.01, 3.0, 40.0, 1e6):
        angle = M._pair_angle(substitution, ratio, 1.0)
        bundle = M.mean_bundle(ratio, 1.0)
        point = {lam: bundle["A" if substitution == "arcsin" else "Q"], t: angle}
        for kind, value in MEANS[substitution].items():
            assert float(value.subs(point)) == pytest.approx(bundle[kind], rel=1e-12), kind
        for name, fn in kernels.items():
            assert float(KERNELS[name](t).subs(t, angle)) == pytest.approx(fn(angle), rel=1e-12)
        for trig, half in HALF_ANGLE.items():
            gap = (half.subs(h, sp.cos(t / 2)) - trig).subs(t, sp.Rational(angle))
            assert abs(gap.evalf(30)) < 1e-25, trig
