"""Catalog of inequality chains and sharpness probes.

Chain and probe definitions live in ``data/chains.json`` as plain expression
strings.  This module compiles those strings into callables through a small
AST whitelist, so the data file stays declarative without pulling in a full
parser dependency.  A catalog load compiles each distinct expression once.

The M6 exponent family is a table of templates per exponent regime with the
exponent as a slot: filled with its literal they are the printed members and
probe sides, and filled with the name ``q`` they are compiled once and bound
to each exponent, so building a regime chain compiles nothing. A kernel
record with an ``m6_exponent`` in place of members and domain is the regime
chain, printed with the exponent in parentheses so that 6/5 reads as one.

A mean chain transcribes a kernel chain through the arcsin or arctan
substitution. Its ``counterpart`` names one ``[kernel_chain_id,
member_index]`` per member, resolved against the kernel chains listed before
it; those members, already compiled, are its twins. A link may move to
another kernel chain only at a member the two share.
"""

from __future__ import annotations

import ast
import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from importlib import resources
from types import MappingProxyType
from typing import Callable, Mapping

from . import constants, kernels, means
from .errors import CatalogError

# The arguments of a mean chain's members and scale: the bundle's means.
MEAN_VARS = means._BUNDLE_KINDS

# The t-range each substitution maps the ratios onto: a counterpart's domain
# must cover it.
_T_RANGES = {"arcsin": (0.0, math.pi / 2), "arctan": (0.0, math.pi / 4)}

_REGIONS = ("near_zero", "near_right")
_DIRECTIONS = ("+", "-")

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Constant,
    ast.Load,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.Mod,
    ast.USub,
    ast.UAdd,
)


@lru_cache(maxsize=1)
def _shared_env() -> Mapping[str, object]:
    registry = dict(constants.constant_registry())
    # Every callable takes a float or a numpy array, so a compiled member
    # evaluates a block of grid points in one call.
    env = {
        **kernels.ELEMENTARY,
        "pi": math.pi,
        "e": math.e,
        "sinc": kernels.sinc,
        "exp_tcot": kernels.exp_tcot,
        "exp_tcot_half": kernels.exp_tcot_half,
        "sinhc": kernels.sinhc,
        "exp_tcoth": kernels.exp_tcoth,
        "cosh_power": kernels.cosh_power,
        "wpm": means.weighted_power_mean,
        "p0": constants.constant_p0(),
        "p1": constants.constant_p1(),
        "beta": constants.constant_beta(),
        "gamma": constants.constant_gamma(),
        "log_ratio_q": registry["log_ratio_q"],
    }
    return MappingProxyType(env)


def _prepare_tree(expr: str, tree: ast.Expression, allowed_names: frozenset) -> frozenset:
    """Check the tree against the whitelist, turn every literal into a float
    and return the names the expression reads."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise CatalogError(
                f"disallowed syntax {type(node).__name__} in expression {expr!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise CatalogError(f"only plain function calls allowed in {expr!r}")
            if node.keywords:
                raise CatalogError(f"keyword arguments not allowed in {expr!r}")
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise CatalogError(f"non-numeric constant in expression {expr!r}")
            # Float literals make arithmetic overflow at once instead of
            # running big-integer work, as a tower such as 9**9**9 would.
            try:
                node.value = float(node.value)
            except OverflowError:
                raise CatalogError(f"literal too large in expression {expr!r}") from None
        if isinstance(node, ast.Name):
            if node.id not in allowed_names:
                raise CatalogError(f"unknown name {node.id!r} in expression {expr!r}")
            names.add(node.id)
    return frozenset(names)


def compile_expression(expr: str, args: tuple[str, ...]) -> Callable:
    """Compile an expression string into a function of the given arguments.

    Only arithmetic, numeric literals, and names from the shared kernel/mean
    namespace are accepted; anything else raises CatalogError, as does an
    expression nested too deeply for Python's parser or compiler. The
    function's ``names`` attribute is the frozenset of names the expression
    reads.
    """
    if not isinstance(expr, str):
        raise CatalogError(f"expression must be a string, got {expr!r}")
    env = _shared_env()
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise CatalogError(f"cannot parse expression {expr!r}: {exc.msg}") from exc
    except (RecursionError, MemoryError) as exc:  # the parser's own stack limits
        raise CatalogError(f"expression {expr!r} is nested too deeply to parse") from exc
    names = _prepare_tree(expr, tree, frozenset(env) | frozenset(args))
    # The checked tree is compiled as the lambda's body itself: going through
    # source text would need ast.unparse, which recurses once per level.
    loc = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}
    params = ast.arguments(
        posonlyargs=[], args=[ast.arg(a, **loc) for a in args],
        kwonlyargs=[], kw_defaults=[], defaults=[],
    )
    try:
        code = compile(ast.Expression(ast.Lambda(params, tree.body, **loc)), "<expression>", "eval")
    except (RecursionError, MemoryError) as exc:
        raise CatalogError(f"expression {expr!r} is nested too deeply to compile") from exc
    fn = eval(code, {"__builtins__": {}, **env})  # noqa: S307 - input is whitelisted
    fn.names = names
    return fn


def evaluate_constant_expression(expr: str, compile_fn: Callable = compile_expression) -> float:
    """Evaluate a zero-argument expression such as a domain endpoint.

    ``compile_fn`` has compile_expression's signature; load_catalog passes
    one that compiles each distinct expression once. Arithmetic failures and
    non-finite or non-real results are CatalogErrors.
    """
    try:
        value = float(compile_fn(expr, ())())
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise CatalogError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    if not math.isfinite(value):
        raise CatalogError(f"expression {expr!r} is not finite: {value!r}")
    return value


@dataclass(frozen=True)
class Chain:
    """One inequality chain: members are ordered smallest to largest.

    A mean chain's ``mean_kinds`` are the means its members and scale read,
    in MEAN_VARS order. Its ``counterpart`` holds a (kernel chain id, member
    index) per member, and ``twin_members``/``twin_fns`` are those members.
    """

    id: str
    kind: str
    members: tuple[str, ...]
    member_fns: tuple[Callable, ...]
    domain: tuple[float, float] | None = None
    substitution: str | None = None
    scale: str | None = None
    scale_fn: Callable | None = None
    twin_members: tuple[str, ...] | None = None
    twin_fns: tuple[Callable, ...] | None = None
    counterpart: tuple[tuple[str, int], ...] | None = None
    mean_kinds: tuple[str, ...] = ()


@dataclass(frozen=True)
class Probe:
    """A sharpness probe: perturb one constant and expect a violation.

    ``lhs < rhs`` is the claimed inequality at the optimal constant ``base``;
    the verifier nudges the parameter by ``epsilon`` in ``direction`` and
    scans only the declared ``region`` of ``domain`` for a counterexample.
    ``domain`` is that of ``chain``, which must be a kernel chain.
    """

    id: str
    chain: str
    domain: tuple[float, float]
    lhs: str
    rhs: str
    base: str
    base_value: float
    direction: str
    region: str
    lhs_fn: Callable
    rhs_fn: Callable


def _field(record: dict, key: str, where: str, expected: type = str):
    """``record[key]``, which must be an ``expected``; a record without it, or
    with a value of another type, is a CatalogError naming ``where`` and the key."""
    if not isinstance(record, dict) or key not in record:
        raise CatalogError(f"{where} has no {key!r}")
    value = record[key]
    if not isinstance(value, expected):
        name = "a string" if expected is str else f"a {expected.__name__}"
        raise CatalogError(f"{where} has {key!r} {value!r}; expected {name}")
    return value


def _expressions(record: dict, key: str, where: str, count: int | None = None) -> tuple[str, ...]:
    """``record[key]`` as a list of expression strings, of ``count`` entries if given."""
    values = _field(record, key, where, list)
    if not all(isinstance(v, str) for v in values) or count not in (None, len(values)):
        size = "" if count is None else f"{count} "
        raise CatalogError(
            f"{where} has {key!r} {values!r}; expected a list of {size}expression strings"
        )
    return tuple(values)


def _counterpart(
    chain_id: str, refs: list, substitution: str, chains: Mapping[str, Chain]
) -> tuple[tuple[str, int], ...]:
    """Check a mean chain's counterpart references against the kernel chains
    without evaluating anything, and return them as (chain id, index) pairs."""
    lo, hi = _T_RANGES[substitution]
    resolved = []
    for ref in refs:
        kid, index = ref if isinstance(ref, list) and len(ref) == 2 else (None, None)
        if type(kid) is not str or type(index) is not int:
            raise CatalogError(
                f"chain {chain_id!r} has counterpart reference {ref!r}; "
                "expected [kernel_chain_id, member_index]"
            )
        kernel = chains.get(kid)
        if kernel is None or kernel.kind != "kernel":
            what = "unknown chain" if kernel is None else "mean chain"
            raise CatalogError(f"chain {chain_id!r} has counterpart in {what} {kid!r}")
        if not 0 <= index < len(kernel.members):
            raise CatalogError(
                f"chain {chain_id!r} has counterpart {kid}[{index}]; "
                f"{kid!r} has {len(kernel.members)} members"
            )
        if not (kernel.domain[0] <= lo and hi <= kernel.domain[1]):
            raise CatalogError(
                f"chain {chain_id!r} has counterpart {kid!r}, whose domain does not "
                f"cover the {substitution} substitution's t-range ({lo:.6g}, {hi:.6g})"
            )
        resolved.append((kid, index))
    for (kid, index), (right_kid, right_index) in zip(resolved, resolved[1:]):
        right = chains[right_kid].members[right_index]
        if right not in chains[kid].members[index + 1:]:
            raise CatalogError(
                f"chain {chain_id!r} links {kid}[{index}] to {right_kid}[{right_index}], "
                f"but {right!r} does not follow member {index} of {kid!r}"
            )
    return tuple(resolved)


def _build_chain(
    record: dict,
    chains: Mapping[str, Chain] = MappingProxyType({}),
    compile_fn: Callable = compile_expression,
) -> Chain:
    """Build one chain record; a mean chain's counterpart resolves against
    the kernel chains in ``chains``."""
    chain_id = _field(record, "id", "a chain record")
    where = f"chain {chain_id!r}"
    kind = _field(record, "kind", where)
    if "m6_exponent" in record:
        expr = _field(record, "m6_exponent", where)
        if kind != "kernel" or "members" in record or "domain" in record:
            raise CatalogError(f"{where}: 'm6_exponent' needs kind 'kernel' and no members or domain")
        try:
            q = evaluate_constant_expression(expr, compile_fn)
            regime = _m6_exponent(q)[2]
        except CatalogError as exc:
            raise CatalogError(f"{where} has 'm6_exponent' {expr!r}: {exc}") from None
        return _m6_chain(chain_id, q, f"({expr})", regime)
    members = _expressions(record, "members", where)
    if kind not in ("kernel", "mean"):
        raise CatalogError(f"chain {chain_id!r} has unknown kind {kind!r}")
    if len(members) < 2:
        raise CatalogError(f"chain {chain_id!r} needs at least two members")
    if kind == "kernel":
        lo_s, hi_s = _expressions(record, "domain", where, 2)
        lo = evaluate_constant_expression(lo_s, compile_fn)
        hi = evaluate_constant_expression(hi_s, compile_fn)
        if not lo < hi:
            raise CatalogError(f"chain {chain_id!r} has empty domain")
        fns = tuple(compile_fn(m, ("t",)) for m in members)
        return Chain(id=chain_id, kind=kind, members=members, member_fns=fns, domain=(lo, hi))
    substitution = _field(record, "substitution", where)
    if substitution not in _T_RANGES:
        raise CatalogError(
            f"chain {chain_id!r} has unknown substitution {substitution!r}"
        )
    scale = _field(record, "scale", where)
    refs = _field(record, "counterpart", where, list)
    if len(refs) != len(members):
        raise CatalogError(
            f"chain {chain_id!r} has {len(refs)} counterpart references "
            f"for {len(members)} members"
        )
    counterpart = _counterpart(chain_id, refs, substitution, chains)
    fns = tuple(compile_fn(m, MEAN_VARS) for m in members)
    scale_fn = compile_fn(scale, MEAN_VARS)
    reads = frozenset().union(*(fn.names for fn in (*fns, scale_fn)))
    return Chain(
        id=chain_id,
        kind=kind,
        members=members,
        member_fns=fns,
        substitution=substitution,
        scale=scale,
        scale_fn=scale_fn,
        twin_members=tuple(chains[kid].members[i] for kid, i in counterpart),
        twin_fns=tuple(chains[kid].member_fns[i] for kid, i in counterpart),
        counterpart=counterpart,
        mean_kinds=tuple(v for v in MEAN_VARS if v in reads),
    )


def _build_probe(
    record: dict, chains: Mapping[str, Chain], compile_fn: Callable = compile_expression
) -> Probe:
    probe_id = _field(record, "id", "a probe record")
    where = f"probe {probe_id!r}"
    chain_id, lhs, rhs, base, direction, region = (
        _field(record, key, where) for key in ("chain", "lhs", "rhs", "base", "direction", "region")
    )
    chain = chains.get(chain_id)
    if chain is None:
        raise CatalogError(f"probe {probe_id!r} references unknown chain {chain_id!r}")
    if chain.kind != "kernel":
        raise CatalogError(f"probe {probe_id!r} references mean chain {chain.id!r}")
    if direction not in _DIRECTIONS:
        raise CatalogError(f"probe {probe_id!r} has unknown direction {direction!r}")
    if region not in _REGIONS:
        raise CatalogError(f"probe {probe_id!r} has unknown region {region!r}")
    base_value = evaluate_constant_expression(base, compile_fn)
    return Probe(
        id=probe_id,
        chain=chain.id,
        domain=chain.domain,
        lhs=lhs,
        rhs=rhs,
        base=base,
        base_value=base_value,
        direction=direction,
        region=region,
        lhs_fn=compile_fn(lhs, ("p", "t")),
        rhs_fn=compile_fn(rhs, ("p", "t")),
    )


class Catalog:
    """Ordered collection of chains and probes, addressable by id."""

    def __init__(self, chains: dict[str, Chain], probes: dict[str, Probe]):
        self._chains = dict(chains)
        self._probes = dict(probes)

    @property
    def chains(self) -> Mapping[str, Chain]:
        return MappingProxyType(self._chains)

    @property
    def probes(self) -> Mapping[str, Probe]:
        return MappingProxyType(self._probes)

    def get_chain(self, chain_id: str) -> Chain:
        try:
            return self._chains[chain_id]
        except KeyError:
            known = ", ".join(self._chains)
            raise CatalogError(f"unknown chain {chain_id!r}; known chains: {known}") from None

    def get_probe(self, probe_id: str) -> Probe:
        try:
            return self._probes[probe_id]
        except KeyError:
            known = ", ".join(self._probes)
            raise CatalogError(f"unknown probe {probe_id!r}; known probes: {known}") from None


@lru_cache(maxsize=1)
def load_catalog() -> Catalog:
    """Load and compile the packaged chain catalog (cached).

    Each distinct (expression, arguments) pair is compiled once per load:
    many chains share members, domain endpoints and probe sides.
    """
    raw = resources.files("ineqforge.data").joinpath("chains.json").read_text("utf-8")
    data = json.loads(raw)
    compiled: dict[tuple[str, tuple[str, ...]], Callable] = {}

    def compile_once(expr: str, args: tuple[str, ...]) -> Callable:
        key = (expr, args)
        if key not in compiled:
            compiled[key] = compile_expression(expr, args)
        return compiled[key]

    chains: dict[str, Chain] = {}
    for record in data["chains"]:
        chain = _build_chain(record, chains, compile_once)
        if chain.id in chains:
            raise CatalogError(f"duplicate chain id {chain.id!r}")
        chains[chain.id] = chain
    probes: dict[str, Probe] = {}
    for record in data["probes"]:
        probe = _build_probe(record, chains, compile_once)
        if probe.id in probes:
            raise CatalogError(f"duplicate probe id {probe.id!r}")
        probes[probe.id] = probe
    return Catalog(chains, probes)


# The M6 family, each form written once with the exponent as the slot {q}.
_M6_ALPHA = "(1-exp(-{q}))*cos(t)**{q}+exp(-{q})"
_M6_THIRD = "(2/3)*cos(t)**{q}+1/3"
_M6_MIDDLE = "exp_tcot(t)**{q}"
_M6_ONE = "1"
_M6_COMBO = "p*cos(t)**{q}+(1-p)"
_M6_DOMAIN = (0.0, math.pi / 2)

# Per exponent regime: the chain's members, smallest first, and its probes as
# (name, lhs, rhs, base, direction, region). A probe nudges the coefficient p
# on the cosine term across its optimal value, toward where the bound fails.
_M6_REGIMES = {
    "high": ((_M6_ALPHA, _M6_MIDDLE, _M6_THIRD),
             (("alpha", _M6_COMBO, _M6_MIDDLE, "1-exp(-{q})", "-", "near_right"),
              ("beta", _M6_MIDDLE, _M6_COMBO, "2/3", "+", "near_zero"))),
    "unit": ((_M6_THIRD, _M6_MIDDLE, _M6_ALPHA),
             (("alpha", _M6_COMBO, _M6_MIDDLE, "2/3", "-", "near_zero"),
              ("beta", _M6_MIDDLE, _M6_COMBO, "1-exp(-{q})", "+", "near_right"))),
    "negative": ((_M6_ONE, _M6_MIDDLE, _M6_THIRD),
                 (("alpha", _M6_COMBO, _M6_MIDDLE, "0", "+", "near_right"),
                  ("beta", _M6_MIDDLE, _M6_COMBO, "2/3", "-", "near_zero"))),
}


@lru_cache(maxsize=1)
def _m6_compiled() -> Mapping[tuple[str, tuple[str, ...]], Callable]:
    """Every template of _M6_REGIMES compiled with the exponent q as leading
    argument, keyed by (template, the other arguments)."""
    keys = set()
    for members, probes in _M6_REGIMES.values():
        keys.update((form, ("t",)) for form in members)
        for _, lhs, rhs, base, _, _ in probes:
            keys.update({(lhs, ("p", "t")), (rhs, ("p", "t")), (base, ())})
    return MappingProxyType(
        {key: compile_expression(key[0].format(q="q"), ("q", *key[1])) for key in keys}
    )


def _m6_exponent(p: float) -> tuple[float, str, str]:
    """The exponent as a float, the literal that names it, and its regime.

    A plain int or float is named by its repr; any other real number, such
    as a numpy scalar whose repr is a call, by the repr of its float value.
    """
    if not isinstance(p, numbers.Real):
        raise CatalogError(f"exponent must be a real number, got {p!r}")
    try:
        q = float(p)
    except OverflowError:
        raise CatalogError(f"exponent must be finite, got {p!r}") from None
    literal = repr(p) if type(p) in (int, float) else repr(q)
    if not math.isfinite(q):
        raise CatalogError(f"exponent must be finite, got {literal}")
    if q >= 1.2:
        return q, literal, "high"
    if 0 < q <= 1:
        return q, literal, "unit"
    if q < 0:
        return q, literal, "negative"
    raise CatalogError(
        f"no two-sided optimal form for exponent p={literal}; "
        "supported ranges are p >= 6/5, 0 < p <= 1, p < 0"
    )


def _m6_chain(chain_id: str, q: float, literal: str, regime: str) -> Chain:
    """The regime's chain at exponent ``q``, printed with ``literal`` in the slot."""
    forms = _M6_REGIMES[regime][0]
    return Chain(
        id=chain_id,
        kind="kernel",
        members=tuple(form.format(q=literal) for form in forms),
        member_fns=tuple(partial(_m6_compiled()[form, ("t",)], q) for form in forms),
        domain=_M6_DOMAIN,
    )


def make_m6_chain(p: float) -> Chain:
    """Build the optimal convex-combination chain for exponent ``p``.

    The bounding coefficients switch roles across three exponent ranges;
    outside them (p == 0 or 1 < p < 6/5) no two-sided form exists and
    CatalogError is raised.
    """
    q, literal, regime = _m6_exponent(p)
    return _m6_chain(f"M6(p={literal})", q, literal, regime)


def m6_probe_specs(p: float) -> list[Probe]:
    """Sharpness probes for the convex-combination coefficients at ``p``,
    on the domain of ``make_m6_chain(p)``."""
    q, literal, regime = _m6_exponent(p)
    compiled = _m6_compiled()
    chain_id = f"M6(p={literal})"
    return [
        Probe(
            id=f"{chain_id}-{name}",
            chain=chain_id,
            domain=_M6_DOMAIN,
            lhs=lhs.format(q=literal),
            rhs=rhs.format(q=literal),
            base=base.format(q=literal),
            base_value=compiled[base, ()](q),
            direction=direction,
            region=region,
            lhs_fn=partial(compiled[lhs, ("p", "t")], q),
            rhs_fn=partial(compiled[rhs, ("p", "t")], q),
        )
        for name, lhs, rhs, base, direction, region in _M6_REGIMES[regime][1]
    ]


def flipped_catalog(source: Catalog, chain_id: str, link_index: int) -> Catalog:
    """Return a copy of ``source`` with one adjacent pair of members swapped.

    Used by the self-check tests: a flipped link must make verification fail
    and name the offending pair.
    """
    chain = source.get_chain(chain_id)
    if not 0 <= link_index < len(chain.members) - 1:
        raise CatalogError(
            f"chain {chain_id!r} has {len(chain.members) - 1} links; "
            f"index {link_index} is out of range"
        )

    def swapped(items: tuple) -> tuple:
        items = list(items)
        items[link_index], items[link_index + 1] = items[link_index + 1], items[link_index]
        return tuple(items)

    fields = ("members", "member_fns")
    if chain.kind == "mean":
        fields += ("twin_members", "twin_fns", "counterpart")
    chains = dict(source.chains)
    chains[chain_id] = replace(chain, **{f: swapped(getattr(chain, f)) for f in fields})
    return Catalog(chains, dict(source.probes))
