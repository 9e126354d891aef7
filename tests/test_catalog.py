"""Chain catalog: JSON loading, expression compilation, parametric builders."""

import ast
import json
import math
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqforge import catalog as C
from ineqforge.errors import CatalogError
from ineqforge.means import mean_bundle


def _packaged_chain_records() -> list:
    raw = resources.files("ineqforge.data").joinpath("chains.json").read_text("utf-8")
    return json.loads(raw)["chains"]


def test_packaged_catalog_shape():
    cat = C.load_catalog()
    assert len(cat.chains) == 55
    assert len(cat.probes) == 12
    kinds = {chain.kind for chain in cat.chains.values()}
    assert kinds == {"kernel", "mean"}
    # every probe points at a registered kernel chain and scans its domain
    for probe in cat.probes.values():
        chain = cat.get_chain(probe.chain)
        assert chain.kind == "kernel" and probe.domain == chain.domain, probe.id


def test_mean_chains_carry_twins():
    cat = C.load_catalog()
    for chain in cat.chains.values():
        if chain.kind == "mean":
            assert chain.substitution in ("arcsin", "arctan")
            assert chain.scale is not None
            assert len(chain.twin_members) == len(chain.members)
            assert len(chain.counterpart) == len(chain.members)
        else:
            assert chain.substitution is None
            assert chain.domain[0] < chain.domain[1]


def test_mean_chains_read_only_the_means_their_members_and_scale_name():
    # the verifier computes only these means, so the set must be exact
    cat = C.load_catalog()
    for chain in cat.chains.values():
        if chain.kind != "mean":
            assert chain.mean_kinds == ()
            continue
        names = {
            node.id
            for expr in (*chain.members, chain.scale)
            for node in ast.walk(ast.parse(expr, mode="eval"))
            if isinstance(node, ast.Name)
        }
        assert chain.mean_kinds == tuple(v for v in C.MEAN_VARS if v in names), chain.id
        assert not {"L", "I"} & set(chain.mean_kinds), chain.id


def test_get_chain_error_lists_ids():
    cat = C.load_catalog()
    with pytest.raises(CatalogError) as err:
        cat.get_chain("M999")
    assert "M1" in str(err.value)
    with pytest.raises(CatalogError):
        cat.get_probe("nope")


def test_load_compiles_each_distinct_expression_once(monkeypatch):
    calls = Counter()
    parses = Counter()
    compile_expression = C.compile_expression
    parse = ast.parse

    def counted(expr, args):
        calls[expr, args] += 1
        return compile_expression(expr, args)

    def counted_parse(source, *args, **kwargs):
        parses[source] += 1
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(C, "compile_expression", counted)
    monkeypatch.setattr(C.ast, "parse", counted_parse)
    C.load_catalog.cache_clear()
    try:
        cat = C.load_catalog()
    finally:
        C.load_catalog.cache_clear()
    assert set(calls.values()) == {1}
    # one parse per distinct (expression, arguments) pair: the mean chains'
    # read sets come from the compile's own walk of the tree
    assert parses == Counter(expr for expr, _ in calls)
    # every member and probe side came through the counted compiler, except
    # the members of the records built from the M6 templates:
    # test_packaged_expressions_match_a_fresh_compile_of_their_text covers them
    templated = {r["id"] for r in _packaged_chain_records() if "m6_exponent" in r}
    for chain in cat.chains.values():
        if chain.id in templated:
            continue
        args = ("t",) if chain.kind == "kernel" else C.MEAN_VARS
        assert all((m, args) in calls for m in chain.members), chain.id
    for probe in cat.probes.values():
        assert (probe.lhs, ("p", "t")) in calls and (probe.rhs, ("p", "t")) in calls


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


def test_compile_takes_a_long_sum_without_source_text():
    # ast.unparse of a 600-term sum recursed past the interpreter's limit
    fn = C.compile_expression("+".join(["t"] * 600), ("t",))
    assert fn(1.0) == 600.0


@pytest.mark.parametrize(
    "expr, stage",
    [
        ("+".join(["t"] * 1000), "compile"),  # compiler recursion
        ("+".join(["t"] * 20000), "parse"),  # parser recursion
        ("-" * 5000 + "t", "parse"),  # parser recursion
        ("**".join(["t"] * 3000), "parse"),  # parser stack overflow (MemoryError)
    ],
    ids=["sum-1000", "sum-20000", "neg-5000", "pow-3000"],
)
def test_a_too_deep_expression_is_a_catalog_error(expr, stage):
    with pytest.raises(CatalogError, match=f"is nested too deeply to {stage}") as err:
        C.compile_expression(expr, ("t",))
    assert repr(expr) in str(err.value)


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


_M6_EXPONENTS = [2.0, 1.2, 1.0, 0.5, 1e-3, -1e-3, -1.0, -3, 3.7, 40.0, 2]
_T_POINTS = [1e-9, 0.3, math.pi / 4, 1.2, 1.5707]
_T_GRID = np.linspace(0.0, math.pi / 2, 20001)[1:-1]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", _M6_EXPONENTS, ids=repr)
def test_m6_templates_match_a_fresh_compile_of_the_printed_strings(p):
    chain = C.make_m6_chain(p)
    assert chain.id == f"M6(p={p!r})"
    assert chain.domain == (C.evaluate_constant_expression("0"),
                            C.evaluate_constant_expression("pi/2"))
    for member, fn in zip(chain.members, chain.member_fns):
        fresh = C.compile_expression(member, ("t",))
        for t in _T_POINTS:
            assert _same_bits(fn(t), fresh(t)), (member, t)
        assert _same_bits(fn(_T_GRID), fresh(_T_GRID)), member
    probes = C.m6_probe_specs(p)
    assert [pr.id for pr in probes] == [f"{chain.id}-alpha", f"{chain.id}-beta"]
    for probe in probes:
        assert probe.chain == chain.id and probe.domain == chain.domain
        assert _same_bits(probe.base_value, C.evaluate_constant_expression(probe.base))
        for side, fn in ((probe.lhs, probe.lhs_fn), (probe.rhs, probe.rhs_fn)):
            fresh = C.compile_expression(side, ("p", "t"))
            for coef in (probe.base_value - 1e-3, probe.base_value, probe.base_value + 1e-3):
                for t in _T_POINTS:
                    assert _same_bits(fn(coef, t), fresh(coef, t)), (side, coef, t)
                assert _same_bits(fn(coef, _T_GRID), fresh(coef, _T_GRID)), (side, coef)


def _bits_or_error(fn, *args):
    """fn(*args) as float64 bytes, or the name of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(fn(*args), dtype=float)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return value.shape, value.tobytes()


def _kernel_points(domain):
    """Five floats inside ``domain`` and a 4097-point array across it."""
    lo, hi = domain
    floats = [lo + (hi - lo) * f for f in (1e-6, 0.25, 0.5, 0.75, 1 - 1e-6)]
    return [*floats, np.linspace(lo, hi, 4099)[1:-1]]


def _bundle_args(ratio) -> list:
    bundle = mean_bundle(ratio, 1.0)
    return [bundle[v] for v in C.MEAN_VARS]


def test_packaged_expressions_match_a_fresh_compile_of_their_text():
    # What a report prints must be what was evaluated: each packaged
    # expression, compiled again from its text, gives the bound function's
    # bits. This covers the members built from the M6 templates too.
    cat = C.load_catalog()
    ratios = (1.0 + 1e-6, 1.5, 3.0, 47.5, 1e4, np.geomspace(1.0 + 1e-6, 1e4, 4097))
    mean_points = [_bundle_args(r) for r in ratios]
    for chain in cat.chains.values():
        if chain.kind == "kernel":
            args, points = ("t",), [(t,) for t in _kernel_points(chain.domain)]
            exprs = zip(chain.members, chain.member_fns)
        else:
            args, points = C.MEAN_VARS, mean_points
            exprs = [*zip(chain.members, chain.member_fns), (chain.scale, chain.scale_fn)]
        for expr, fn in exprs:
            fresh = C.compile_expression(expr, args)
            for point in points:
                assert _bits_or_error(fn, *point) == _bits_or_error(fresh, *point), (chain.id, expr)
    for probe in cat.probes.values():
        assert _same_bits(probe.base_value, C.evaluate_constant_expression(probe.base)), probe.id
        for side, fn in ((probe.lhs, probe.lhs_fn), (probe.rhs, probe.rhs_fn)):
            fresh = C.compile_expression(side, ("p", "t"))
            for coef in (probe.base_value - 1e-3, probe.base_value + 1e-3):
                for t in _kernel_points(probe.domain):
                    assert _bits_or_error(fn, coef, t) == _bits_or_error(fresh, coef, t), (
                        probe.id, side, coef)


# The packaged records built from the M6 templates: exponent, position in the
# catalog and printed members.
_M6_RECORDS = {
    "M6": ("6/5", 27, ("(1-exp(-(6/5)))*cos(t)**(6/5)+exp(-(6/5))",
                       "exp_tcot(t)**(6/5)", "(2/3)*cos(t)**(6/5)+1/3")),
    "M6-p05": ("1/2", 28, ("(2/3)*cos(t)**(1/2)+1/3", "exp_tcot(t)**(1/2)",
                           "(1-exp(-(1/2)))*cos(t)**(1/2)+exp(-(1/2))")),
    "M6-pm1": ("-1", 29, ("1", "exp_tcot(t)**(-1)", "(2/3)*cos(t)**(-1)+1/3")),
}


def test_packaged_m6_records_are_the_regime_chains_at_their_exponents():
    assert [r for r in _packaged_chain_records() if "m6_exponent" in r] == [
        {"id": cid, "kind": "kernel", "m6_exponent": exponent}
        for cid, (exponent, _, _) in _M6_RECORDS.items()
    ]
    cat = C.load_catalog()
    ids = list(cat.chains)
    for cid, (_, position, members) in _M6_RECORDS.items():
        chain = cat.get_chain(cid)
        assert ids.index(cid) == position
        assert (chain.kind, chain.domain, chain.members) == ("kernel", (0.0, math.pi / 2), members)


@pytest.mark.parametrize(
    "record",
    [
        {"m6_exponent": "0"},  # no two-sided form at 0 or in (1, 6/5)
        {"m6_exponent": "11/10"},
        {"m6_exponent": "6/"},  # does not parse
        {"m6_exponent": "t"},
        {"m6_exponent": "1/0"},
        {"m6_exponent": 1.2},  # not a string
        {"m6_exponent": ["6/5"]},
        {"m6_exponent": "6/5", "members": ["1", "cos(t)"]},
        {"m6_exponent": "6/5", "domain": ["0", "pi/2"]},
        {"m6_exponent": "6/5", "kind": "mean"},
        {"m6_exponent": "6/5", "kind": "mean", "substitution": "arcsin", "scale": "A",
         "counterpart": [["M1c", 0], ["M1c", 3], ["M1c", 4]]},
    ],
)
def test_a_malformed_m6_exponent_record_names_the_chain(record):
    with pytest.raises(CatalogError, match=r"^chain 'm6-x'.*'m6_exponent'"):
        C._build_chain({"id": "m6-x", "kind": "kernel", **record})


def test_m6_builders_compile_nothing_once_warm(monkeypatch):
    C.make_m6_chain(2.0)
    C.m6_probe_specs(2.0)

    def refuse(expr, args):
        raise AssertionError(f"compiled {expr!r}")

    monkeypatch.setattr(C, "compile_expression", refuse)
    for p in (3.3, 0.7, -2.5):
        assert len(C.make_m6_chain(p).member_fns) == 3
        assert len(C.m6_probe_specs(p)) == 2


def test_m6_names_a_non_builtin_exponent_by_its_float_value():
    plain = C.make_m6_chain(2.0)
    for p in (np.float64(2.0), np.int64(2)):
        chain = C.make_m6_chain(p)
        assert chain.id == "M6(p=2.0)" and chain.members == plain.members
        assert [pr.id for pr in C.m6_probe_specs(p)] == ["M6(p=2.0)-alpha", "M6(p=2.0)-beta"]
    assert C.make_m6_chain(2).id == "M6(p=2)"
    assert C.make_m6_chain(2).members[1] == "exp_tcot(t)**2"
    for bad in ("2.0", None, 10**400, np.float64("nan")):
        with pytest.raises(CatalogError):
            C.make_m6_chain(bad)
        with pytest.raises(CatalogError):
            C.m6_probe_specs(bad)


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
    assert flipped.counterpart[1:3] == original.counterpart[2:0:-1]


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
                "counterpart": [["M1", 0], ["M1", 1]],
            })
    with pytest.raises(CatalogError):
        C._build_chain(
            {
                "id": "x",
                "kind": "mean",
                "substitution": "arcsin",
                "scale": "A",
                "members": ["G", "A"],
                "counterpart": [["M1c", 0]],
            })


def test_mean_chain_twins_are_their_counterpart_members():
    # nothing is compiled for a twin: it is the kernel member itself
    cat = C.load_catalog()
    for chain in cat.chains.values():
        if chain.kind != "mean":
            continue
        for (kid, index), twin, fn in zip(chain.counterpart, chain.twin_members, chain.twin_fns):
            kernel = cat.get_chain(kid)
            assert kernel.kind == "kernel", chain.id
            assert (twin, fn) == (kernel.members[index], kernel.member_fns[index]), chain.id
    assert cat.get_chain("M2c3-i").counterpart == (
        ("M23c", 3), ("M2c3", 0), ("M2c3", 1), ("M2c3", 2))


def _mean_record(counterpart, substitution="arcsin"):
    return {
        "id": "mean-x",
        "kind": "mean",
        "substitution": substitution,
        "scale": "A",
        "members": ["G", "X", "(A+G)/2"],
        "counterpart": counterpart,
    }


# A kernel chain whose domain covers arctan's (0, pi/4) but not arcsin's (0, pi/2).
_SHORT = C._build_chain(
    {"id": "short", "kind": "kernel", "domain": ["0", "1"],
     "members": ["cos(t)", "exp_tcot(t)", "cos(t/2)**2"]})


@pytest.mark.parametrize(
    "counterpart",
    [
        [["M1c", 0], ["M1c", 3]],  # two references for three members
        [["M1c", 0], ["M1c", 3], ["no-such-chain", 0]],
        [["M1c", 0], ["M1c", 3], ["M1c-i1", 2]],  # not a kernel chain
        [["M1c", 0], ["M1c", 3], ["M1c", 8]],
        [["M1c", -1], ["M1c", 3], ["M1c", 4]],
        [["short", 0], ["short", 1], ["short", 2]],  # domain ends at 1
        [["M1c", 0], ["M1c", 4], ["M1c", 3]],  # right member before left
        [["M1c", 0], ["M1c", 0], ["M1c", 4]],  # a member does not follow itself
        # a switch to M1 at cos(2*t/3)**(3/2), which M1c holds before member 3
        [["M1c", 3], ["M1", 0], ["M1c", 4]],
        [["M1c", 0], ["M1c", 3], ["M1c"]],  # malformed references
        [["M1c", 0], ["M1c", 3], ["M1c", 4.0]],
        [["M1c", 0], ["M1c", 3], ["M1c", True]],
        [["M1c", 0], ["M1c", 3], "M1c"],
        [["M1c", 0], ["M1c", 3], [["M1c"], 4]],
    ],
)
def test_counterpart_rejections_name_the_mean_chain(counterpart):
    chains = {**C.load_catalog().chains, "short": _SHORT}
    with pytest.raises(CatalogError, match="'mean-x'"):
        C._build_chain(_mean_record(counterpart), chains)


def test_counterpart_domain_must_cover_only_its_substitution_range():
    chains = {**C.load_catalog().chains, "short": _SHORT}
    refs = [["short", 0], ["short", 1], ["short", 2]]
    chain = C._build_chain(_mean_record(refs, "arctan"), chains)
    assert chain.counterpart == (("short", 0), ("short", 1), ("short", 2))
    with pytest.raises(CatalogError, match="arcsin"):
        C._build_chain(_mean_record(refs, "arcsin"), chains)


def test_build_probe_needs_a_kernel_chain():
    cat = C.load_catalog()
    record = {"id": "x", "chain": "M1", "lhs": "cos(p*t)", "rhs": "exp_tcot(t)",
              "base": "2/3", "direction": "-", "region": "near_zero"}
    assert C._build_probe(record, cat.chains).domain == cat.get_chain("M1").domain
    for chain_id in ("M1c-i1", "no-such-chain"):
        with pytest.raises(CatalogError, match=chain_id):
            C._build_probe({**record, "chain": chain_id}, cat.chains)



# One well-formed record of each kind, as (what it is, the record).
_RECORDS = {
    "kernel": ("chain", {"id": "x", "kind": "kernel", "domain": ["0", "pi/2"],
                         "members": ["cos(t)", "sinc(t)"]}),
    "mean": ("chain", _mean_record([["M1c", 0], ["M1c", 3], ["M1c", 4]])),
    "probe": ("probe", {"id": "x", "chain": "M1", "lhs": "cos(p*t)", "rhs": "exp_tcot(t)",
                        "base": "2/3", "direction": "-", "region": "near_zero"}),
}


def _build(what, record):
    chains = C.load_catalog().chains
    return C._build_probe(record, chains) if what == "probe" else C._build_chain(record, chains)


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, (_, record) in _RECORDS.items() for key in record]
)
def test_record_without_a_key_names_the_record_and_the_key(kind, key):
    what, record = _RECORDS[kind]
    _build(what, record)  # the full record builds
    where = f"a {what} record" if key == "id" else f"{what} '{record['id']}'"
    with pytest.raises(CatalogError, match=f"^{where} has no '{key}'$"):
        _build(what, {k: v for k, v in record.items() if k != key})


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("kernel", "domain", ["0", "1", "2"]),
        ("kernel", "domain", ["0"]),
        ("kernel", "domain", "0, 1"),
        ("kernel", "members", ["cos(t)", 1]),
        ("kernel", "members", "cos(t)"),
        ("kernel", "kind", ["kernel"]),
        ("mean", "members", ["G", None, "A"]),
        ("mean", "scale", 1),
        ("mean", "substitution", ["arcsin"]),
        ("mean", "counterpart", "M1c"),
        ("probe", "chain", ["M1"]),
        ("probe", "lhs", 1),
        ("probe", "base", 0.5),
    ],
)
def test_record_with_a_mistyped_key_names_the_record_and_the_key(kind, key, value):
    what, record = _RECORDS[kind]
    with pytest.raises(CatalogError, match=f"^{what} '{record['id']}' has '{key}' "):
        _build(what, {**record, key: value})


@pytest.mark.parametrize("record", [None, [], ["id", "x"]])
def test_a_record_that_is_not_an_object_is_a_catalog_error(record):
    with pytest.raises(CatalogError, match="^a chain record has no 'id'$"):
        _build("chain", record)
    with pytest.raises(CatalogError, match="^a probe record has no 'id'$"):
        _build("probe", record)


@pytest.mark.parametrize("expr", [1, 0.5, None, ["t"]])
def test_compile_rejects_a_non_string(expr):
    with pytest.raises(CatalogError, match="expression must be a string"):
        C.compile_expression(expr, ("t",))
