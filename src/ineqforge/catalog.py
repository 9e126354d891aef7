"""Catalog of inequality chains and sharpness probes.

Chain and probe definitions live in ``data/chains.json`` as plain expression
strings.  This module compiles those strings into callables through a small
AST whitelist, so the data file stays declarative without pulling in a full
parser dependency.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Callable, Mapping

from . import constants, kernels, means
from .errors import CatalogError

MEAN_VARS = ("A", "G", "Q", "L", "I", "P", "T", "X", "B", "J", "K")

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


def _prepare_tree(expr: str, tree: ast.Expression, allowed_names: frozenset) -> None:
    """Check the tree against the whitelist and turn every literal into a float."""
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
        if isinstance(node, ast.Name) and node.id not in allowed_names:
            raise CatalogError(f"unknown name {node.id!r} in expression {expr!r}")


def compile_expression(expr: str, args: tuple[str, ...]) -> Callable:
    """Compile an expression string into a function of the given arguments.

    Only arithmetic, numeric literals, and names from the shared kernel/mean
    namespace are accepted; anything else raises CatalogError.
    """
    env = _shared_env()
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise CatalogError(f"cannot parse expression {expr!r}: {exc.msg}") from exc
    _prepare_tree(expr, tree, frozenset(env) | frozenset(args))
    body = ast.unparse(tree)
    source = "lambda {}: ({})".format(", ".join(args), body) if args else f"lambda: ({body})"
    return eval(source, {"__builtins__": {}, **env})  # noqa: S307 - input is whitelisted


def evaluate_constant_expression(expr: str) -> float:
    """Evaluate a zero-argument expression such as a domain endpoint.

    Arithmetic failures and non-finite or non-real results are CatalogErrors.
    """
    try:
        value = float(compile_expression(expr, ())())
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise CatalogError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    if not math.isfinite(value):
        raise CatalogError(f"expression {expr!r} is not finite: {value!r}")
    return value


@dataclass(frozen=True)
class Chain:
    """One inequality chain: members are ordered smallest to largest."""

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


@dataclass(frozen=True)
class Probe:
    """A sharpness probe: perturb one constant and expect a violation.

    ``lhs < rhs`` is the claimed inequality at the optimal constant ``base``;
    the verifier nudges the parameter by ``epsilon`` in ``direction`` and
    scans only the declared ``region`` for a counterexample.
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


def _build_chain(record: dict) -> Chain:
    chain_id = record["id"]
    kind = record["kind"]
    members = tuple(record["members"])
    if kind not in ("kernel", "mean"):
        raise CatalogError(f"chain {chain_id!r} has unknown kind {kind!r}")
    if len(members) < 2:
        raise CatalogError(f"chain {chain_id!r} needs at least two members")
    if kind == "kernel":
        lo_s, hi_s = record["domain"]
        lo = evaluate_constant_expression(lo_s)
        hi = evaluate_constant_expression(hi_s)
        if not lo < hi:
            raise CatalogError(f"chain {chain_id!r} has empty domain")
        fns = tuple(compile_expression(m, ("t",)) for m in members)
        return Chain(id=chain_id, kind=kind, members=members, member_fns=fns, domain=(lo, hi))
    substitution = record["substitution"]
    if substitution not in ("arcsin", "arctan"):
        raise CatalogError(
            f"chain {chain_id!r} has unknown substitution {substitution!r}"
        )
    scale = record["scale"]
    twins = tuple(record["twin_members"])
    if len(twins) != len(members):
        raise CatalogError(
            f"chain {chain_id!r} has {len(twins)} twin members for {len(members)} members"
        )
    fns = tuple(compile_expression(m, MEAN_VARS) for m in members)
    twin_fns = tuple(compile_expression(m, ("t",)) for m in twins)
    return Chain(
        id=chain_id,
        kind=kind,
        members=members,
        member_fns=fns,
        substitution=substitution,
        scale=scale,
        scale_fn=compile_expression(scale, MEAN_VARS),
        twin_members=twins,
        twin_fns=twin_fns,
    )


def _build_probe(record: dict) -> Probe:
    probe_id = record["id"]
    direction = record["direction"]
    region = record["region"]
    if direction not in _DIRECTIONS:
        raise CatalogError(f"probe {probe_id!r} has unknown direction {direction!r}")
    if region not in _REGIONS:
        raise CatalogError(f"probe {probe_id!r} has unknown region {region!r}")
    lo_s, hi_s = record["domain"]
    lo = evaluate_constant_expression(lo_s)
    hi = evaluate_constant_expression(hi_s)
    if not lo < hi:
        raise CatalogError(f"probe {probe_id!r} has empty domain")
    base = record["base"]
    base_value = evaluate_constant_expression(base)
    return Probe(
        id=probe_id,
        chain=record["chain"],
        domain=(lo, hi),
        lhs=record["lhs"],
        rhs=record["rhs"],
        base=base,
        base_value=base_value,
        direction=direction,
        region=region,
        lhs_fn=compile_expression(record["lhs"], ("p", "t")),
        rhs_fn=compile_expression(record["rhs"], ("p", "t")),
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

    def chain_ids(self) -> list[str]:
        return list(self._chains)

    def probe_ids(self) -> list[str]:
        return list(self._probes)

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
    """Load and compile the packaged chain catalog (cached)."""
    raw = resources.files("ineqforge.data").joinpath("chains.json").read_text("utf-8")
    data = json.loads(raw)
    chains: dict[str, Chain] = {}
    for record in data["chains"]:
        chain = _build_chain(record)
        if chain.id in chains:
            raise CatalogError(f"duplicate chain id {chain.id!r}")
        chains[chain.id] = chain
    probes: dict[str, Probe] = {}
    for record in data["probes"]:
        probe = _build_probe(record)
        if probe.id in probes:
            raise CatalogError(f"duplicate probe id {probe.id!r}")
        if probe.chain not in chains:
            raise CatalogError(f"probe {probe.id!r} references unknown chain {probe.chain!r}")
        probes[probe.id] = probe
    return Catalog(chains, probes)


def _m6_regime(p: float) -> str:
    if p != p or p in (math.inf, -math.inf):
        raise CatalogError(f"exponent must be finite, got {p!r}")
    if p >= 1.2:
        return "high"
    if 0 < p <= 1:
        return "unit"
    if p < 0:
        return "negative"
    raise CatalogError(
        f"no two-sided optimal form for exponent p={p!r}; "
        "supported ranges are p >= 6/5, 0 < p <= 1, p < 0"
    )


def make_m6_chain(p: float) -> Chain:
    """Build the optimal convex-combination chain for exponent ``p``.

    The bounding coefficients switch roles across three exponent ranges;
    outside them (p == 0 or 1 < p < 6/5) no two-sided form exists and
    CatalogError is raised.
    """
    regime = _m6_regime(p)
    alpha_form = f"(1-exp(-{p!r}))*cos(t)**{p!r}+exp(-{p!r})"
    third_form = f"(2/3)*cos(t)**{p!r}+1/3"
    middle = f"exp_tcot(t)**{p!r}"
    if regime == "high":
        members = (alpha_form, middle, third_form)
    elif regime == "unit":
        members = (third_form, middle, alpha_form)
    else:
        members = ("1", middle, third_form)
    record = {
        "id": f"M6(p={p!r})",
        "kind": "kernel",
        "domain": ("0", "pi/2"),
        "members": list(members),
    }
    return _build_chain(record)


def m6_probe_specs(p: float) -> list[Probe]:
    """Sharpness probes for the convex-combination coefficients at ``p``.

    The probe parameter is the coefficient on the cosine term, not the
    exponent; each regime nudges it across its optimal value toward the
    region where the bound degenerates.
    """
    regime = _m6_regime(p)
    combo = f"p*cos(t)**{p!r}+(1-p)"
    middle = f"exp_tcot(t)**{p!r}"
    alpha_base = f"1-exp(-{p!r})"
    if regime == "high":
        specs = [
            (f"M6(p={p!r})-alpha", combo, middle, alpha_base, "-", "near_right"),
            (f"M6(p={p!r})-beta", middle, combo, "2/3", "+", "near_zero"),
        ]
    elif regime == "unit":
        specs = [
            (f"M6(p={p!r})-alpha", combo, middle, "2/3", "-", "near_zero"),
            (f"M6(p={p!r})-beta", middle, combo, alpha_base, "+", "near_right"),
        ]
    else:
        specs = [
            (f"M6(p={p!r})-alpha", combo, middle, "0", "+", "near_right"),
            (f"M6(p={p!r})-beta", middle, combo, "2/3", "-", "near_zero"),
        ]
    chain_id = f"M6(p={p!r})"
    return [
        _build_probe(
            {
                "id": probe_id,
                "chain": chain_id,
                "domain": ("0", "pi/2"),
                "lhs": lhs,
                "rhs": rhs,
                "base": base,
                "direction": direction,
                "region": region,
            }
        )
        for probe_id, lhs, rhs, base, direction, region in specs
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
        fields += ("twin_members", "twin_fns")
    chains = dict(source.chains)
    chains[chain_id] = replace(chain, **{f: swapped(getattr(chain, f)) for f in fields})
    return Catalog(chains, dict(source.probes))
