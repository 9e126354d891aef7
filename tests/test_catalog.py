"""Chain catalog: JSON loading, expression compilation, parametric builders."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqforge import catalog as C
from ineqforge.errors import CatalogError


def test_packaged_catalog_shape():
    cat = C.load_catalog()
    assert len(cat.chains) == 55
    assert len(cat.probes) == 12
    kinds = {chain.kind for chain in cat.chains.values()}
    assert kinds == {"kernel", "mean"}
    # every probe points at a registered chain
    for probe in cat.probes.values():
        assert probe.chain in cat.chains


def test_mean_chains_carry_twins():
    cat = C.load_catalog()
    for chain in cat.chains.values():
        if chain.kind == "mean":
            assert chain.substitution in ("arcsin", "arctan")
            assert chain.scale is not None
            assert len(chain.twin_members) == len(chain.members)
        else:
            assert chain.substitution is None
            assert chain.domain[0] < chain.domain[1]


def test_get_chain_error_lists_ids():
    cat = C.load_catalog()
    with pytest.raises(CatalogError) as err:
        cat.get_chain("M999")
    assert "M1" in str(err.value)
    with pytest.raises(CatalogError):
        cat.get_probe("nope")


# --- expression compilation -----------------------------------------------------

def test_compile_basic_expression():
    fn = C.compile_expression("sin(t)/t", ("t",))
    assert fn(0.7) == math.sin(0.7) / 0.7


def test_compile_uses_kernel_helpers():
    fn = C.compile_expression("exp_tcot(t)**2", ("t",))
    from ineqforge.kernels import exp_tcot
    assert fn(0.9) == exp_tcot(0.9) ** 2


def test_compile_exposes_solved_constants():
    fn = C.compile_expression("cos(t)**p1", ("t",))
    from ineqforge.constants import constant_p1
    assert fn(0.5) == math.cos(0.5) ** constant_p1()


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "t.__class__",
        "(lambda: 1)()",
        "[1,2][0]",
        "{'a': 1}",
        "'text'",
        "unknown_name(t)",
        "sin(t, extra=1)",
        "t if t > 0 else 1",
    ],
)
def test_compile_rejects_unsafe_or_unknown(expr):
    with pytest.raises(CatalogError):
        C.compile_expression(expr, ("t",))


# Expressions the whitelist accepts, built from names and calls the catalog uses.
_ACCEPTED = st.recursive(
    st.sampled_from(["t", "2", "0.5", "pi", "p1", "exp(t)"]),
    lambda inner: st.one_of(
        st.builds("({} + {})".format, inner, inner),
        st.builds("({} * {})".format, inner, inner),
        st.builds("({} ** {})".format, inner, inner),
        st.builds("(-{})".format, inner),
        st.builds("sinc({})".format, inner),
        st.builds("wpm({}, 0.5, {}, 1)".format, inner, inner),
    ),
    max_leaves=5,
)
# One rejected construct wrapped around an accepted expression: an attribute,
# a subscript, a lambda, a comprehension, a comparison, a keyword argument, a
# string constant or an unknown name.
_REJECTED = st.sampled_from(
    [
        "({}).real",
        "({}).__class__",
        "({})[0]",
        "(lambda: {})()",
        "[{} for t in (1,)]",
        "sum({} for t in (1, 2))",
        "({} < 1)",
        "(1 == {})",
        "sin(x={})",
        "({} + 'a')",
        "len('{}')",
        "({} + undefined_name)",
        "__import__('os')({})",
    ]
)


@settings(max_examples=60, deadline=None)
@given(_ACCEPTED, _REJECTED, _ACCEPTED)
def test_whitelist_rejects_with_catalog_error_only(inner, construct, outer):
    C.compile_expression(f"{outer} + {inner}", ("t",))
    with pytest.raises(CatalogError):
        C.compile_expression(f"{outer} + {construct.format(inner)}", ("t",))


def test_evaluate_constant_expression():
    assert C.evaluate_constant_expression("pi/2") == math.pi / 2.0
    assert C.evaluate_constant_expression("1-exp(-1.2)") == 1.0 - math.exp(-1.2)
    with pytest.raises(CatalogError):
        C.evaluate_constant_expression("t + 1")  # no free variables allowed
    # arithmetic failures are catalog errors, not bare Python exceptions
    for bad in ("2**2000", "1/0", "log(0)"):
        with pytest.raises(CatalogError):
            C.evaluate_constant_expression(bad)


# --- parametric chain family ----------------------------------------------------

def test_m6_regimes():
    assert C.make_m6_chain(2.0).members[0].startswith("(1-exp(")  # high: alpha first
    assert C.make_m6_chain(1.0).members[0].startswith("(2/3)")  # unit: third first
    assert C.make_m6_chain(-1.0).members[0] == "1"  # negative: constant first
    assert len(C.make_m6_chain(1.2).members) == 3


@pytest.mark.parametrize("p", [0.0, 1.05, 1.1, 1.19])
def test_m6_rejects_gap_and_zero(p):
    # no containment holds for p in (1, 6/5); p = 0 has no power form
    with pytest.raises(CatalogError):
        C.make_m6_chain(p)


def test_m6_probe_specs_by_regime():
    high = {pr.id.split("-")[-1]: pr for pr in C.m6_probe_specs(2.0)}
    assert high["alpha"].region == "near_right"
    assert high["beta"].region == "near_zero"
    assert high["alpha"].direction == "-"
    assert high["beta"].direction == "+"

    unit = {pr.id.split("-")[-1]: pr for pr in C.m6_probe_specs(1.0)}
    assert unit["alpha"].region == "near_zero"
    assert unit["beta"].region == "near_right"

    neg = {pr.id.split("-")[-1]: pr for pr in C.m6_probe_specs(-1.0)}
    assert neg["alpha"].base_value == 0.0
    assert neg["alpha"].direction == "+"
    assert neg["beta"].base_value == pytest.approx(2.0 / 3.0)


def test_flipped_catalog_swaps_one_pair():
    cat = C.load_catalog()
    original = cat.get_chain("M1")
    flipped = C.flipped_catalog(cat, "M1", 0)
    swapped = flipped.get_chain("M1")
    assert swapped.members[0] == original.members[1]
    assert swapped.members[1] == original.members[0]
    assert swapped.members[2:] == original.members[2:]
    # the compiled members move with their strings
    assert swapped.member_fns[:2] == original.member_fns[1::-1]
    assert swapped.domain == original.domain
    # other chains untouched
    assert flipped.get_chain("M2").members == cat.get_chain("M2").members


def test_flipped_catalog_mean_chain_swaps_twins_too():
    cat = C.load_catalog()
    cid = "M1c-i1"
    original = cat.get_chain(cid)
    flipped = C.flipped_catalog(cat, cid, 1).get_chain(cid)
    assert flipped.members[1] == original.members[2]
    assert flipped.twin_members[1] == original.twin_members[2]
    assert flipped.member_fns[1:3] == original.member_fns[2:0:-1]
    assert flipped.twin_fns[1:3] == original.twin_fns[2:0:-1]


def test_flipped_catalog_rejects_bad_index():
    cat = C.load_catalog()
    chain = cat.get_chain("M1")
    with pytest.raises(CatalogError):
        C.flipped_catalog(cat, "M1", len(chain.members) - 1)
    with pytest.raises(CatalogError):
        C.flipped_catalog(cat, "M1", -1)


# --- record validation ------------------------------------------------------------

def test_build_chain_validation():
    with pytest.raises(CatalogError):
        C._build_chain({"id": "x", "kind": "weird", "members": ["t", "t+1"]})
    with pytest.raises(CatalogError):
        C._build_chain(
            {"id": "x", "kind": "kernel", "domain": ["0", "1"], "members": ["t"]})
    with pytest.raises(CatalogError):
        C._build_chain(
            {"id": "x", "kind": "kernel", "domain": ["1", "1"], "members": ["t", "t+1"]})
    with pytest.raises(CatalogError):
        C._build_chain(
            {
                "id": "x",
                "kind": "mean",
                "substitution": "polar",
                "scale": "A",
                "members": ["t", "t+1"],
                "twin_members": ["t", "t+1"],
            })
    with pytest.raises(CatalogError):
        C._build_chain(
            {
                "id": "x",
                "kind": "mean",
                "substitution": "arcsin",
                "scale": "A",
                "members": ["G", "A"],
                "twin_members": ["cos(t)"],
            })
