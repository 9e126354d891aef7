"""Numeric verification of the chain catalog.

Four kinds of evidence are produced here: dense-grid ordering checks for
chains, sharpness probes that must break a chain once its optimal constant
is nudged, endpoint-limit agreement for the registered kernels, and grid
monotonicity checks. A chain passes only when every adjacent margin is
nonnegative up to a relative tie threshold and at least one margin is
clearly positive; ties never count as evidence, so a chain of identical
members cannot pass.

Each link is judged at one point: the first deepest violation if any margin
violates, else the first smallest margin. The float recheck, golden-section
refinement and witness all work on that point, so a falsified link's
min_margin and argmin are its witness's margin and coordinate.

Every check takes its points from one grid, _Grid: numpy's linspace
arithmetic, made one block of 4096 points at a time. Kernel chains and probes
run over t, mean chains over the ratio, without ratio 1, and monotone checks
over t in blocks that share their edge points; the CLI's table takes its rows
from it too. A block costs one member call and a few array operations, and
no check holds a grid-sized array. Blocks are kept for speed and memory:
scanning whole 20001-point grids instead read the benchmark's query_p50_ms
13-27% slower on all three workloads and means_dense's peak_rss_mb 10.3%
higher. Golden-section refinement and every reported value
stay plain floats.

All verdicts are numeric evidence, not proof. Reports carry a reproducible
witness (a concrete point with both side values) whenever something fails.
Chain and probe reports carry the full VerificationConfig they ran with; a
mean chain's report carries its twin check, taken once per link at its
reported ratio, as twin_max_deviation, twin_tolerance_rel and twin_ok; the
identity it checks is proved in tests/test_transcriptions.py.
"""

from __future__ import annotations

import functools
import math
import random
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Sequence

from . import constants, kernels, series
from .catalog import (
    MEAN_VARS,
    Catalog,
    Chain,
    Probe,
    load_catalog,
    m6_probe_specs,
    make_m6_chain,
)
from .errors import DomainError
from .kernels import _np
from .means import _pair_angle, mean_bundle

# Margins within _TIE_REL * max(1, |lhs|, |rhs|) of zero are ties: neither a
# violation nor positive evidence. The scale floor keeps the threshold from
# collapsing when both sides are tiny.
_TIE_REL = 1e-13
# Grid margins from numpy sit within 0.07 tie thresholds of the float ones on
# the packaged catalog; grid points within 0.15 of violating and of the
# deepest violation are evaluated again as floats.
_FLOAT_SLACK = 0.15
# Every grid is made, evaluated and scanned in blocks of this many points, so
# a check holds 32 KB arrays where a whole 20001-point grid takes 160 KB per
# member and intermediate. Scanning whole grids was measured 13-27% slower per query
# on every benchmark workload, with 10.3% more peak memory on means_dense.
_BLOCK = 4096
# Golden-section steps per refinement: the bracket of two grid steps shrinks
# by 0.618**30, about 5e-7, to under 1e-10 of the domain at 20001 samples.
_REFINE_STEPS = 30
# At a link's reported ratio, its mean margin and its scaled twins' margin
# agree within _TWIN_REL * max(1, |lhs twin|, |rhs twin|), the scale of the
# tie threshold: the margin itself is a cancelling difference of members as
# large as the ratio. The identity behind it is proved in the tests.
_TWIN_REL = 1e-10
_SPOT_REL = 1e-9
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LIMIT_OFFSETS = (1e-3, 1e-5, 1e-7)

DEFAULT_M6_GRID = (2.0, 1.2, 1.0, 0.5, -1.0)


@dataclass(frozen=True)
class VerificationConfig:
    """Grid sizes and tolerances shared by every check."""

    samples: int = 20001
    endpoint_eps: float = 1e-9
    ratio_max: float = 100.0
    ratio_samples: int = 100
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # A sample count is an int: not a bool, nor a whole float.
            if f.type == "int" and type(value) is not int:
                raise DomainError(f"{f.name} must be an int, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value!r}")
        if self.samples < 3:
            raise DomainError("samples must be at least 3")
        if not 0.0 < self.endpoint_eps < 0.5:
            raise DomainError("endpoint_eps must lie in (0, 0.5)")
        if not self.ratio_max > 1.0:
            raise DomainError("ratio_max must exceed 1")
        if self.ratio_samples < 2:
            raise DomainError("ratio_samples must be at least 2")
        # The first ratio must exceed 1, or the twins are evaluated at t = 0.
        if _Grid(1.0, self.ratio_max, self.ratio_samples + 1).at(1) == 1.0:
            raise DomainError(
                f"ratio_max={self.ratio_max!r} is too close to 1 for "
                f"ratio_samples={self.ratio_samples}: the first ratio rounds to 1"
            )
        if self.epsilon <= 0.0:
            raise DomainError("epsilon must be positive")


def _inset(lo: float, hi: float, eps: float) -> tuple[float, float]:
    """The domain (lo, hi) moved in by endpoint_eps = eps of its span at each
    end; an eps too small to move an end is a DomainError."""
    span = hi - lo
    glo, ghi = lo + eps * span, hi - eps * span
    if glo == lo or ghi == hi:
        raise DomainError(
            f"endpoint_eps={eps!r} is too small for the domain ({lo!r}, {hi!r}): "
            "an end of the grid rounds to an end of the domain"
        )
    return glo, ghi


class _Grid:
    """The points of numpy's linspace(lo, hi, n) from index ``first`` on, by
    its arithmetic: linspace point i is i * step + lo and the last is hi.
    Point k of the grid is linspace point first + k."""

    def __init__(self, lo: float, hi: float, n: int, first: int = 0):
        self.lo, self.hi, self.n, self.first = lo, hi, n, first
        self.step = (hi - lo) / (n - 1)

    def at(self, k: int) -> float:
        i = self.first + k
        return self.hi if i == self.n - 1 else i * self.step + self.lo

    def blocks(self, shared: bool = False):
        """The points as float arrays of _BLOCK points, or with ``shared`` of
        _BLOCK steps: each block then ends on the next block's first point."""
        np = _np()
        for start in range(self.first, self.n - shared, _BLOCK):
            stop = min(start + _BLOCK + shared, self.n)
            block = np.arange(start, stop, dtype=float) * self.step + self.lo
            if stop == self.n:
                block[-1] = self.hi
            yield block


# What evaluating a member can raise: each becomes a DomainError naming the
# check and the member.
_EVAL_ERRORS = (DomainError, ArithmeticError, ValueError, TypeError)


def _evaluate(where: str, expr: str, fn: Callable, *args):
    """fn(*args), with an error raised by fn as a DomainError naming the check
    ``where`` and fn's expression ``expr``."""
    try:
        return fn(*args)
    except _EVAL_ERRORS as exc:
        raise DomainError(f"{where}: cannot evaluate {expr}: {exc}") from exc


def _on_block(where: str, expr: str, fn: Callable, *args):
    """fn on one block of grid points (the array arguments): a float array.

    A float64 array of the block's length is returned as it is, a constant
    member's float fills the block and a value that is not real becomes nan.
    numpy's floating-point warnings are silenced: _LinkScan reports every
    non-finite value as a DomainError naming the link. An error raised by fn
    is a DomainError naming the check ``where`` and fn's expression ``expr``.
    """
    np = _np()
    n = max(len(a) for a in args if isinstance(a, np.ndarray))
    with np.errstate(all="ignore"):
        values = _evaluate(where, expr, fn, *args)
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.shape == (n,):
        return values
    if np.iscomplexobj(values):
        return np.full(n, np.nan)
    return np.broadcast_to(np.asarray(values, dtype=float), (n,))


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a dataclass type, None for any other type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _plain(value):
    """A report value as JSON-ready data: dataclasses become dicts without their
    None fields, tuples become lists, everything else passes through."""
    names = _field_names(type(value))
    if names is not None:
        return {
            name: _plain(item)
            for name in names
            if (item := getattr(value, name)) is not None
        }
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class _Report:
    def to_dict(self) -> dict:
        """Fields in declaration order; optional fields that are None are left out."""
        return _plain(self)


@dataclass
class LinkReport(_Report):
    """Verdict for one adjacent pair of chain members."""

    lhs: str
    rhs: str
    verdict: str
    min_margin: float
    argmin: float
    witness: dict | None = None
    note: str | None = None


@dataclass
class ChainReport(_Report):
    """A chain's verdict and links; a mean chain's also its twin check."""

    chain: str
    kind: str
    verdict: str
    config: VerificationConfig
    elapsed_s: float
    links: list[LinkReport]
    twin_max_deviation: float | None = None
    twin_tolerance_rel: float | None = None
    twin_ok: bool | None = None
    note: str | None = None


@dataclass
class ProbeReport(_Report):
    probe: str
    chain: str
    parameter: float
    base_value: float
    config: VerificationConfig
    direction: str
    region: str
    interval: tuple[float, float]
    min_margin: float
    verdict: str
    elapsed_s: float
    witness: dict | None


def _golden_refine(
    value_fn: Callable[[float], tuple[float, float]], a: float, b: float
) -> tuple[float, float, float]:
    """Golden-section minimization of the margin rhs - lhs on [a, b]: the
    lowest point with its side values, after _REFINE_STEPS + 2 calls of
    value_fn."""

    def margin(sides: tuple[float, float]) -> float:
        return sides[1] - sides[0]

    # Clamp the probe points: the update arithmetic can round an ulp outside
    # [a, b], and a reported argmin must stay inside the scanned bracket.
    c = max(a, min(b, b - _INV_GOLDEN * (b - a)))
    d = max(a, min(b, a + _INV_GOLDEN * (b - a)))
    sc = value_fn(c)
    sd = value_fn(d)
    for _ in range(_REFINE_STEPS):
        if margin(sc) <= margin(sd):
            b, d, sd = d, c, sc
            c = max(a, min(b, b - _INV_GOLDEN * (b - a)))
            sc = value_fn(c)
        else:
            a, c, sc = c, d, sd
            d = max(a, min(b, a + _INV_GOLDEN * (b - a)))
            sd = value_fn(d)
    x, (va, vb) = (c, sc) if margin(sc) <= margin(sd) else (d, sd)
    return x, va, vb


def _violates(lhs: float, rhs: float) -> bool:
    return rhs - lhs < -_TIE_REL * max(1.0, abs(lhs), abs(rhs))


def _rank(lhs: float, rhs: float) -> tuple[bool, float]:
    """The scan's order on points: violations first, then by margin."""
    return not _violates(lhs, rhs), rhs - lhs


class _LinkScan:
    """The margin engine: one link's margins rhs - lhs, fed a block at a time.

    Every check reduces to this: a violation is a margin below -tie, positive
    evidence a margin above +tie. The scan keeps one point with its side
    values: the first deepest violation if any margin violates, else the
    first smallest margin. It also records whether any margin is positive or
    nonzero, and keeps the near set: the points within _FLOAT_SLACK tie
    thresholds of violating and of the deepest violation so far, which the
    float recheck evaluates again. A member value that is not real and
    finite, or a failure while refining, is a DomainError naming ``where``
    and the link. ``x_at`` maps a point's index to its coordinate.

    Every tie threshold is at least _TIE_REL, so a block whose lowest margin
    is at least -(1 - _FLOAT_SLACK) * _TIE_REL holds no point of the near set
    and is not searched for one; the skip is exact.
    """

    def __init__(self, where: str, lhs_expr: str, rhs_expr: str, coord: str, x_at: Callable):
        self.where = where
        self.lhs_expr = lhs_expr
        self.rhs_expr = rhs_expr
        self.coord = coord
        self.x_at = x_at
        self.n = 0
        self.idx = -1
        self.margin = 0.0
        self.sides = (0.0, 0.0)
        self.violating = False
        self.has_positive = False
        self.all_zero = True
        self.near = None

    def _error(self, detail) -> DomainError:
        return DomainError(
            f"{self.where}: cannot assess {self.lhs_expr} < {self.rhs_expr}: {detail}"
        )

    def _take(self, idx: int, a, b, m) -> None:
        self.idx, self.margin, self.sides = idx, m.item(), (a.item(), b.item())

    def add(self, a, b) -> None:
        """Scan the next block of side values."""
        np = _np()
        start = self.n
        self.n += len(a)
        theta = np.maximum(np.abs(a), np.abs(b))
        np.maximum(theta, 1.0, out=theta)
        theta *= _TIE_REL
        finite = np.isfinite(theta)
        if not finite.all():
            x = self.x_at(start + int(np.argmin(finite)))
            raise self._error(f"member value is not a finite real at {self.coord}={x!r}")
        m = b - a
        j = int(np.argmin(m))
        low = m[j].item()
        if not self.violating and (self.idx < 0 or low < self.margin):
            self._take(start + j, a[j], b[j], m[j])
        self.has_positive = self.has_positive or bool((m > theta).any())
        self.all_zero = self.all_zero and not m.any()
        if low >= -(1.0 - _FLOAT_SLACK) * _TIE_REL:
            return
        near = np.flatnonzero(m < -(1.0 - _FLOAT_SLACK) * theta)
        violating = near[m[near] < -theta[near]]
        if len(violating):
            j = int(violating[np.argmin(m[violating])])
            if not self.violating or m[j] < self.margin:
                self._take(start + j, a[j], b[j], m[j])
                self.violating = True
        parts = (start + near, m[near], theta[near])
        if self.near is not None:
            parts = tuple(np.concatenate(p) for p in zip(self.near, parts))
        if self.violating:
            keep = parts[1] <= self.margin + _FLOAT_SLACK * parts[2]
            parts = tuple(p[keep] for p in parts)
        self.near = parts

    def report(self, value_fn: Callable[[float], tuple[float, float]] | None) -> LinkReport:
        """The link's verdict at its one point. Given value_fn, the float sides
        at a coordinate, a violating point is chosen again among the near set
        as floats, and the point is refined by golden-section search, so a
        witness has float sides; without it the grid values are reported as
        they are. A falsified link's min_margin and argmin are its witness's."""
        x_at = self.x_at
        idx, (ra, rb) = self.idx, self.sides
        try:
            if value_fn is not None and self.violating:
                # numpy and math can differ in the last bits, enough to move
                # the first deepest violation inside a flat valley and the
                # refinement bracket with it. The near points are evaluated
                # again as floats and chosen by the scan's order, as a
                # float-only scan would have chosen.
                near = self.near[0].tolist()
                sides = [value_fn(x_at(i)) for i in near]
                k = min(range(len(near)), key=lambda k: _rank(*sides[k]))
                idx, (ra, rb) = near[k], sides[k]
            rx = x_at(idx)
            # Narrow dips can fall between grid nodes; refine around the point.
            if value_fn is not None:
                bracket_lo = x_at(max(0, idx - 1))
                bracket_hi = x_at(min(self.n - 1, idx + 1))
                if bracket_hi > bracket_lo:
                    x2, a2, b2 = _golden_refine(value_fn, bracket_lo, bracket_hi)
                    if _rank(a2, b2) < _rank(ra, rb):
                        rx, ra, rb = x2, a2, b2
        except _EVAL_ERRORS as exc:
            raise self._error(exc) from exc
        min_margin = rb - ra
        witness = note = None
        if _violates(ra, rb):
            verdict = "falsified"
            witness = {self.coord: rx, "lhs": ra, "rhs": rb, "margin": min_margin}
        elif self.all_zero:
            verdict, min_margin, rx = "falsified", 0.0, x_at(0)
            note = "degenerate: both sides are numerically identical across the grid"
        elif not self.has_positive:
            verdict = "inconclusive"
            note = "every margin sits inside the tie threshold"
        else:
            verdict = "verified_numeric"
        return LinkReport(self.lhs_expr, self.rhs_expr, verdict, min_margin, rx, witness, note)


def _chain_verdict(links: Iterable[LinkReport]) -> str:
    verdict = "verified_numeric"
    for link in links:
        if link.verdict == "falsified":
            return "falsified"
        if link.verdict == "inconclusive":
            verdict = "inconclusive"
    return verdict


def _check_links(
    where: str, names: Sequence[str], fns: Sequence[Callable], coord: str, grid: _Grid,
    args: Callable | None = None,
) -> list[LinkReport]:
    """Every adjacent pair of members scanned over the grid block by block and
    refined: a chain, or a probe as a two-member chain. The members take the
    point ``coord`` or a block of them, or what ``args`` maps it to."""
    scans = [_LinkScan(where, lhs, rhs, coord, grid.at) for lhs, rhs in zip(names, names[1:])]
    for block in grid.blocks():
        vec = (block,) if args is None else args(block)
        values = [_on_block(where, name, fn, *vec) for name, fn in zip(names, fns)]
        for scan, lhs_vals, rhs_vals in zip(scans, values, values[1:]):
            scan.add(lhs_vals, rhs_vals)

    def value_fn(lf: Callable, rf: Callable, x: float) -> tuple[float, float]:
        vec = args(x)
        return lf(*vec), rf(*vec)

    # Members of the point itself are called directly: every refinement step calls them.
    return [
        scan.report(
            (lambda t, lf=lf, rf=rf: (lf(t), rf(t))) if args is None
            else functools.partial(value_fn, lf, rf)
        )
        for scan, lf, rf in zip(scans, fns, fns[1:])
    ]


def _mean_args(chain: Chain, ratio) -> list:
    """The MEAN_VARS arguments of a mean chain's members at the pairs
    (ratio, 1): the means the chain reads, and nan of ratio's shape in every
    other slot, so that a member reading an unlisted mean fails loudly."""
    bundle = mean_bundle(ratio, 1.0, chain.mean_kinds)
    nan = math.nan if isinstance(ratio, float) else _np().broadcast_to(math.nan, ratio.shape)
    return [bundle.get(v, nan) for v in MEAN_VARS]


def _verify_mean_chain(
    where: str, chain: Chain, links: list[LinkReport], args: Callable
) -> tuple[float, bool]:
    """A mean chain's twin check, taken once per link at its reported ratio:
    the largest gap between the mean margin and the scaled twins' margin, and
    whether every gap is within tolerance. Each witness gets its pair."""
    fns = chain.member_fns
    twin_max, twin_ok = 0.0, True
    for i, link in enumerate(links):
        if link.witness is not None:
            link.witness["pair"] = [link.witness["ratio"], 1.0]
        r = link.argmin
        vec = args(r)
        lhs, rhs = (_evaluate(where, chain.members[k], fns[k], *vec) for k in (i, i + 1))
        scale = _evaluate(where, chain.scale, chain.scale_fn, *vec)
        t = _pair_angle(chain.substitution, r, 1.0)
        lhs_twin, rhs_twin = (
            scale * _evaluate(where, chain.twin_members[k], chain.twin_fns[k], t)
            for k in (i, i + 1)
        )
        deviation = abs(rhs - lhs - (rhs_twin - lhs_twin))
        twin_max = max(twin_max, deviation)
        twin_ok = twin_ok and not deviation > _TWIN_REL * max(abs(lhs_twin), abs(rhs_twin), 1.0)
    return twin_max, twin_ok


def verify_chain(chain: Chain | str, config: VerificationConfig | None = None) -> ChainReport:
    """Check every adjacent ordering in a chain on a dense grid.

    Accepts a Chain, such as one of another catalog, or a chain id resolved
    against the packaged catalog. A mean-form chain is additionally
    cross-checked against its kernel twins at each link's reported ratio,
    at the t that P or T takes: after scaling, the margins must agree to
    1e-10 of the larger twin, or absolute 1e-10 below 1. The identity of
    every packaged member with its twin is proved in
    tests/test_transcriptions.py.
    """
    cfg = config or VerificationConfig()
    if isinstance(chain, str):
        chain = load_catalog().get_chain(chain)
    start = time.perf_counter()
    where = f"chain {chain.id}"
    twin_max = twin_rel = twin_ok = note = None
    if chain.kind == "kernel":
        grid = _Grid(*_inset(*chain.domain, cfg.endpoint_eps), cfg.samples)
        links = _check_links(where, chain.members, chain.member_fns, "t", grid)
    else:
        means = f"the means {', '.join(chain.mean_kinds)}"
        args = functools.partial(_evaluate, where, means, _mean_args, chain)
        # Ratio 1, where every mean is equal, is left out.
        grid = _Grid(1.0, cfg.ratio_max, cfg.ratio_samples + 1, first=1)
        links = _check_links(where, chain.members, chain.member_fns, "ratio", grid, args)
        twin_max, twin_ok = _verify_mean_chain(where, chain, links, args)
        twin_rel = _TWIN_REL
    verdict = _chain_verdict(links)
    if twin_ok is False and verdict == "verified_numeric":
        verdict = "inconclusive"
        note = "mean and kernel margins disagree beyond tolerance"
    elapsed = time.perf_counter() - start
    return ChainReport(
        chain=chain.id,
        kind=chain.kind,
        verdict=verdict,
        config=cfg,
        elapsed_s=elapsed,
        links=links,
        twin_max_deviation=twin_max,
        twin_tolerance_rel=twin_rel,
        twin_ok=twin_ok,
        note=note,
    )


def _probe_interval(probe: Probe, config: VerificationConfig) -> tuple[float, float]:
    lo, hi = probe.domain
    span = hi - lo
    glo, ghi = _inset(lo, hi, config.endpoint_eps)
    if probe.region == "near_zero":
        return glo, min(ghi, lo + span / 8.0)
    return max(glo, hi - span / 10.0), ghi


def probe_sharpness(probe: Probe | str, config: VerificationConfig | None = None) -> ProbeReport:
    """Nudge a probe's constant by epsilon and hunt for a violation.

    Accepts a Probe or a probe id resolved against the packaged catalog.
    Only the probe's declared region is scanned: the perturbed inequality
    is expected to break where the original was sharp, and a global scan
    would report whichever violation happens to be deepest instead of the
    one the probe is about. Verdict "falsified" means the probe succeeded.
    """
    cfg = config or VerificationConfig()
    if isinstance(probe, str):
        probe = load_catalog().get_probe(probe)
    start = time.perf_counter()
    offset = cfg.epsilon if probe.direction == "+" else -cfg.epsilon
    parameter = probe.base_value + offset
    rlo, rhi = _probe_interval(probe, cfg)
    (link,) = _check_links(
        f"probe {probe.id}",
        (probe.lhs, probe.rhs),
        (functools.partial(probe.lhs_fn, parameter), functools.partial(probe.rhs_fn, parameter)),
        "t",
        _Grid(rlo, rhi, cfg.samples),
    )
    broke = link.verdict == "falsified" and link.witness is not None
    elapsed = time.perf_counter() - start
    return ProbeReport(
        probe=probe.id,
        chain=probe.chain,
        parameter=parameter,
        base_value=probe.base_value,
        config=cfg,
        direction=probe.direction,
        region=probe.region,
        interval=(rlo, rhi),
        min_margin=link.min_margin,
        verdict="falsified" if broke else "not_falsified",
        witness=link.witness,
        elapsed_s=elapsed,
    )


def verify_endpoint_limits(kernel: kernels.Kernel | str) -> dict:
    """Check a kernel's stored endpoint limits by approaching them.

    Accepts a Kernel or a kernel id resolved against the registry. Offsets
    1e-3, 1e-5, 1e-7 walk toward each endpoint with a stored limit; the
    absolute errors must not increase. A kernel with probe points is instead
    sampled at them on its right side, where only the error decrease is
    required (the approach can be slow). A kernel that stores no limit is a
    DomainError.
    """
    k = kernels.get_kernel(kernel) if isinstance(kernel, str) else kernel
    if k.limit_lo is None and k.limit_hi is None:
        raise DomainError(f"kernel {k.id!r} stores no endpoint limit")
    sides: dict[str, dict] = {}
    ok = True

    def shrinking(errors: Sequence[float], limit: float) -> bool:
        # Errors already at rounding noise bounce around; treat everything
        # below the noise floor as converged rather than demanding decrease.
        floor = 64.0 * sys.float_info.epsilon * max(1.0, abs(limit))
        return all(
            errors[i + 1] <= max(errors[i], floor) for i in range(len(errors) - 1)
        )

    for side, limit in (("lo", k.limit_lo), ("hi", k.limit_hi)):
        if limit is None:
            continue
        if side == "hi" and k.probe_points:
            key, approach = "points", list(k.probe_points)
            ts = approach
        else:
            key, approach = "offsets", list(_LIMIT_OFFSETS)
            ts = [k.lo + d if side == "lo" else k.hi - d for d in _LIMIT_OFFSETS]
        errors = [abs(k.fn(t) - limit) for t in ts]
        side_ok = shrinking(errors, limit)
        sides[side] = {"limit": limit, key: approach, "errors": errors, "ok": side_ok}
        ok = ok and side_ok
    return {"kernel": k.id, "sides": sides, "verdict": "ok" if ok else "failed"}


def verify_monotone(kernel: kernels.Kernel | str, config: VerificationConfig | None = None) -> dict:
    """Grid check that a kernel moves in its declared direction.

    Accepts a Kernel or a kernel id resolved against the registry.
    Consecutive differences must never point the wrong way beyond the tie
    threshold, the net change must agree, and seeded central differences at
    random interior points must not contradict the claim. A wrong-way grid
    step is reported as the witness: the deepest one, which sits at worst_at.
    """
    k = kernels.get_kernel(kernel) if isinstance(kernel, str) else kernel
    kernel_id = k.id
    direction = k.monotone
    if direction not in ("increasing", "decreasing"):
        raise DomainError(f"kernel {kernel_id!r} declares no monotone direction")
    cfg = config or VerificationConfig()
    np = _np()
    glo, ghi = _inset(k.lo, k.hi, cfg.endpoint_eps)
    grid = _Grid(glo, ghi, cfg.samples)
    where = f"kernel {kernel_id}"
    sign = 1 if direction == "increasing" else -1

    # Step i, at t_i, is a link from f(t_i) to f(t_i+1): for an increasing
    # kernel the later value is the larger side, for a decreasing one the
    # earlier. Neighbouring blocks share their edge point, so every step lies
    # in one block. Steps are not refined.
    names = ("f(t_i)", "f(t_i+1)")[::sign]
    scan = _LinkScan(where, *names, "t", grid.at)
    for block in grid.blocks(shared=True):
        values = _on_block(where, kernel_id, k.fn, block)
        if scan.n == 0:
            first = values[0].item()
        scan.add(*(values[:-1], values[1:])[::sign])
    link = scan.report(None)
    i = scan.idx
    value, value_next = scan.sides[::sign]
    # Recomputed rather than taken from min_margin: a flat step of a
    # decreasing kernel is -0.0 here, and the report keeps that sign.
    worst_step = sign * (value_next - value)
    witness = None
    if link.witness is not None:
        t, t_next = grid.at(i), grid.at(i + 1)
        witness = {"t": t, "t_next": t_next, "value": value, "value_next": value_next}

    net_change = sign * (values[-1].item() - first)
    # Seeded central differences at 100 random interior points.
    rng = random.Random(20260816)
    h = (ghi - glo) * 1e-6
    xs = glo + (ghi - glo) * np.array([rng.random() for _ in range(100)])
    fa = _on_block(where, kernel_id, k.fn, np.maximum(xs - h, glo))
    fb = _on_block(where, kernel_id, k.fn, np.minimum(xs + h, ghi))
    bad = sign * (fb - fa) < -_SPOT_REL * np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1.0)
    spots_ok = not bad.any()
    spot_witness = None
    if not spots_ok:
        i = int(np.argmax(bad))
        spot_witness = {"t": xs[i].item(), "value_left": fa[i].item(), "value_right": fb[i].item()}

    if witness is not None or net_change < 0.0 or not spots_ok:
        verdict = "falsified"
    elif link.verdict != "verified_numeric":
        verdict = "inconclusive"
    else:
        verdict = "verified_numeric"
    report = {
        "kernel": kernel_id,
        "direction": direction,
        "verdict": verdict,
        "worst_step": worst_step,
        "worst_at": link.argmin,
        "net_change": net_change,
        "spot_checks_ok": spots_ok,
    }
    if witness is not None:
        report["witness"] = witness
    if spot_witness is not None:
        report["spot_witness"] = spot_witness
    return report


def theorem_m6_iff_suite(
    p_grid: Sequence[float] = DEFAULT_M6_GRID,
    config: VerificationConfig | None = None,
) -> dict:
    """Exercise the exponent-regime chains with their coefficient probes.

    For each exponent the regime chain must verify and both coefficient
    probes must falsify; together these trace the only-if direction of the
    optimal-coefficient statement across the three parameter ranges.
    At the defaults a case is not ok for 0 < p < 0.2698 and -0.2864 < p < 0:
    its near-right probe breaks only closer to pi/2 than the grid's last
    point, pi/2 - 1.6e-9, and reports not_falsified. An empty p_grid is a
    DomainError.
    """
    if len(p_grid) == 0:
        raise DomainError("p_grid holds no exponent")
    cfg = config or VerificationConfig()
    cases = []
    passed = True
    for p in p_grid:
        chain = make_m6_chain(p)
        chain_report = verify_chain(chain, cfg)
        probe_reports = [probe_sharpness(pr, cfg) for pr in m6_probe_specs(p)]
        ok = chain_report.verdict == "verified_numeric" and all(
            pr.verdict == "falsified" for pr in probe_reports
        )
        passed = passed and ok
        cases.append(
            {
                "p": p,
                "ok": ok,
                "chain": chain_report.to_dict(),
                "probes": [pr.to_dict() for pr in probe_reports],
            }
        )
    return {"passed": passed, "cases": cases}


@dataclass
class SuiteRow(_Report):
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteReport(_Report):
    passed: bool
    elapsed_s: float
    rows: list[SuiteRow]


_SERIES_DIRECT = (
    ("csc", lambda t: 1.0 / math.sin(t)),
    ("cot", lambda t: math.cos(t) / math.sin(t)),
    ("tan", math.tan),
    ("csc2", lambda t: 1.0 / (math.sin(t) * math.sin(t))),
)


def _chain_detail(report: ChainReport) -> str:
    worst = min(report.links, key=lambda link: link.min_margin)
    if report.verdict == "verified_numeric":
        return f"min margin {worst.min_margin:.3e} at {worst.argmin:.6g}"
    if worst.witness is not None:
        w = worst.witness
        coord = "ratio" if report.kind == "mean" else "t"
        return (
            f"{worst.lhs} >= {worst.rhs} at {coord}={w[coord]!r}: "
            f"lhs={w['lhs']!r} rhs={w['rhs']!r}"
        )
    return worst.note or report.verdict


def run_suite(
    config: VerificationConfig | None = None, catalog: Catalog | None = None
) -> SuiteReport:
    """Run every packaged check and collect one pass/fail row per item."""
    cfg = config or VerificationConfig()
    cat = catalog or load_catalog()
    start = time.perf_counter()
    rows: list[SuiteRow] = []

    for cid, chain in cat.chains.items():
        report = verify_chain(chain, cfg)
        rows.append(
            SuiteRow(f"chain:{cid}", report.verdict == "verified_numeric", _chain_detail(report))
        )

    for pid, probe in cat.probes.items():
        report = probe_sharpness(probe, cfg)
        if report.witness is not None:
            detail = (
                f"violation at t={report.witness['t']:.6g}, "
                f"margin {report.witness['margin']:.3e}"
            )
        else:
            detail = f"no violation found in {report.region}"
        rows.append(SuiteRow(f"probe:{pid}", report.verdict == "falsified", detail))

    for kid, kernel in kernels.KERNELS.items():
        if kernel.monotone is None:
            continue
        report = verify_monotone(kernel, config=cfg)
        rows.append(
            SuiteRow(
                f"monotone:{kid}",
                report["verdict"] == "verified_numeric",
                f"{report['direction']}, worst step {report['worst_step']:.3e}",
            )
        )

    for kid, kernel in kernels.KERNELS.items():
        if kernel.limit_lo is None and kernel.limit_hi is None:
            continue
        report = verify_endpoint_limits(kernel)
        parts = []
        for side, info in report["sides"].items():
            parts.append(f"{side} err {info['errors'][-1]:.3e}")
        rows.append(
            SuiteRow(f"limits:{kid}", report["verdict"] == "ok", ", ".join(parts))
        )

    for name, solved, residual_fn in (
        ("p1", constants.constant_p1(), constants.p1_residual),
        ("p0", constants.constant_p0(), constants.p0_residual),
    ):
        residual = abs(residual_fn(solved))
        rows.append(
            SuiteRow(
                f"constant:{name}",
                residual < 1e-13,
                f"value {solved!r}, residual {residual:.3e}",
            )
        )

    for sid, direct in _SERIES_DIRECT:
        worst = 0.0
        for t in (0.3, 0.7, 1.2):
            approx, _ = series.series_eval(sid, t)
            exact = direct(t)
            worst = max(worst, abs(approx - exact) / abs(exact))
        rows.append(SuiteRow(f"series:{sid}", worst <= 1e-12, f"max rel err {worst:.2e}"))

    regimes = theorem_m6_iff_suite(config=cfg)
    for case in regimes["cases"]:
        rows.append(
            SuiteRow(
                f"regime:p={case['p']!r}",
                case["ok"],
                "chain verified and both coefficient probes falsified"
                if case["ok"]
                else "chain or probe check failed",
            )
        )

    elapsed = time.perf_counter() - start
    return SuiteReport(all(row.passed for row in rows), elapsed, rows)
