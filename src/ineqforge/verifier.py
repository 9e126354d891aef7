"""Numeric verification of the chain catalog.

Four kinds of evidence are produced here: dense-grid ordering checks for
chains, sharpness probes that must break a chain once its optimal constant
is nudged, endpoint-limit agreement for the registered kernels, and grid
monotonicity checks. A chain passes only when every adjacent margin is
nonnegative up to a relative tie threshold and at least one margin is
clearly positive; ties never count as evidence, so a chain of identical
members cannot pass.

A grid is one numpy array of coordinates, evaluated and scanned in views of
4096 points: one member call and a few array operations per block, and no
grid-sized array per member or intermediate. Blocks are kept for speed and
memory: scanning whole 20001-point grids instead read the benchmark's
query_p50_ms 13-27% slower on all three workloads and means_dense's
peak_rss_mb 10.3% higher. Golden-section refinement and every reported value
stay plain floats.

All verdicts are numeric evidence, not proof. Reports carry a reproducible
witness (a concrete point with both side values) whenever something fails.
Chain and probe reports carry the full VerificationConfig they ran with; a
mean chain's report carries its twin check as twin_max_deviation,
twin_tolerance_rel and twin_ok.
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
from .means import mean_bundle

# Margins within _TIE_REL * max(1, |lhs|, |rhs|) of zero are ties: neither a
# violation nor positive evidence. The scale floor keeps the threshold from
# collapsing when both sides are tiny.
_TIE_REL = 1e-13
# Grid margins from numpy sit within 0.07 tie thresholds of the float ones on
# the packaged catalog; grid points within 0.15 of a violating minimum are
# evaluated again as floats.
_FLOAT_SLACK = 0.15
# Grids are evaluated and scanned in blocks of this many points, so a check
# holds 32 KB arrays where a whole 20001-point grid takes 160 KB per member
# and intermediate. Scanning whole grids was measured 13-27% slower per query
# on every benchmark workload, with 10.3% more peak memory on means_dense.
_BLOCK = 4096
# Golden-section steps per refinement: the bracket of two grid steps shrinks
# by 0.618**30, about 5e-7, to under 1e-10 of the domain at 20001 samples.
_REFINE_STEPS = 30
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
        if self.epsilon <= 0.0:
            raise DomainError("epsilon must be positive")


def _inset(lo: float, hi: float, eps: float) -> tuple[float, float]:
    span = hi - lo
    return lo + eps * span, hi - eps * span


# What evaluating a member can raise: each becomes a DomainError naming the
# check and the member.
_EVAL_ERRORS = (DomainError, ArithmeticError, ValueError, TypeError)


def _eval_error(where: str, expr: str, exc: Exception) -> DomainError:
    return DomainError(f"{where}: cannot evaluate {expr}: {exc}")


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
    try:
        with np.errstate(all="ignore"):
            values = fn(*args)
    except _EVAL_ERRORS as exc:
        raise _eval_error(where, expr, exc) from exc
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


class _LinkScan:
    """The margin engine: one link's margins rhs - lhs, fed a block at a time.

    Every check reduces to this: a violation is a margin below -tie, positive
    evidence a margin above +tie. The scan keeps the first smallest margin and
    the first deepest violation with their side values, whether any margin is
    positive or nonzero, and the points within _FLOAT_SLACK tie thresholds of
    the running minimum. A member value that is not real and finite, or a
    failure while refining, is a DomainError naming ``where`` and the link.
    ``x_at`` maps a point's index to its coordinate.

    A block skips the work its lowest margin rules out, and each skip is
    exact. Every tie threshold is at least _TIE_REL, so a block whose lowest
    margin is at least -_TIE_REL holds no violation and is not searched for
    one. A block whose lowest margin lies above the running minimum plus
    _FLOAT_SLACK times its largest threshold adds no near point, because
    rounding is monotone; if it also left the minimum where it was, the near
    set is not touched. The kept near points are filtered again only when
    the minimum moves, as no other block can push one out.
    """

    def __init__(self, where: str, lhs_expr: str, rhs_expr: str, coord: str, x_at: Callable):
        self.where = where
        self.lhs_expr = lhs_expr
        self.rhs_expr = rhs_expr
        self.coord = coord
        self.x_at = x_at
        self.n = 0
        self.min_idx = self.viol_idx = -1
        self.min_margin = self.viol_margin = 0.0
        self.min_sides = self.viol_sides = (0.0, 0.0)
        self.min_violates = self.has_positive = False
        self.all_zero = True
        self.near = None

    def _error(self, detail) -> DomainError:
        return DomainError(
            f"{self.where}: cannot assess {self.lhs_expr} < {self.rhs_expr}: {detail}"
        )

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
        moved = self.min_idx < 0 or low < self.min_margin
        if moved:
            self.min_idx, self.min_margin = start + j, low
            self.min_sides = (a[j].item(), b[j].item())
            self.min_violates = bool(low < -theta[j])
        self.has_positive = self.has_positive or bool((m > theta).any())
        self.all_zero = self.all_zero and not m.any()
        if low < -_TIE_REL:
            violating = np.flatnonzero(m < -theta)
            if len(violating):
                j = int(violating[np.argmin(m[violating])])
                if self.viol_idx < 0 or m[j] < self.viol_margin:
                    self.viol_idx, self.viol_margin = start + j, m[j].item()
                    self.viol_sides = (a[j].item(), b[j].item())
        if not moved and low > self.min_margin + _FLOAT_SLACK * theta.max().item():
            return
        # A point left out here is above the running minimum by more than
        # its slack, so it stays out of reach of every later minimum.
        near = np.flatnonzero(m <= self.min_margin + _FLOAT_SLACK * theta)
        parts = (start + near, m[near], theta[near])
        if self.near is not None:
            parts = tuple(np.concatenate(p) for p in zip(self.near, parts))
            if moved:
                idx, margins, thetas = parts
                keep = margins <= self.min_margin + _FLOAT_SLACK * thetas
                parts = (idx[keep], margins[keep], thetas[keep])
        self.near = parts

    def report(self, value_fn: Callable[[float], tuple[float, float]] | None) -> LinkReport:
        """The link's verdict. Given value_fn, the float sides at a coordinate,
        the grid minimum is refined by golden-section search; without it the
        grid minimum is reported as it is."""
        x_at = self.x_at
        min_idx, viol_idx = self.min_idx, self.viol_idx
        try:
            ra, rb = self.min_sides
            if value_fn is not None and self.min_violates:
                # numpy and math can differ in the last bits, enough to move
                # the first minimum inside a flat valley and the refinement
                # bracket with it. The points near a violating minimum are
                # evaluated again as floats, and the first float minimum is
                # refined, as a float-only scan would have chosen.
                near = self.near[0].tolist()
                sides = [value_fn(x_at(i)) for i in near]
                k = min(range(len(near)), key=lambda k: sides[k][1] - sides[k][0])
                min_idx = near[k]
                ra, rb = sides[k]
                if _violates(ra, rb):
                    viol_idx = min_idx
            grid_min = (x_at(min_idx), ra, rb)
            rx = grid_min[0]
            min_margin = rb - ra

            # Narrow dips can fall between grid nodes; refine around the grid minimum.
            if value_fn is not None and self.n > 1:
                bracket_lo = x_at(max(0, min_idx - 1))
                bracket_hi = x_at(min(self.n - 1, min_idx + 1))
                if bracket_hi > bracket_lo:
                    x2, a2, b2 = _golden_refine(value_fn, bracket_lo, bracket_hi)
                    if (b2 - a2) < min_margin:
                        rx, ra, rb = x2, a2, b2
                        min_margin = b2 - a2

            candidates = []
            if viol_idx == min_idx:
                candidates.append(grid_min)
            elif viol_idx >= 0:
                candidates.append((x_at(viol_idx), *self.viol_sides))
            if _violates(ra, rb):
                candidates.append((rx, ra, rb))
        except _EVAL_ERRORS as exc:
            raise self._error(exc) from exc
        lhs_expr, rhs_expr = self.lhs_expr, self.rhs_expr
        if candidates:
            wx, wa, wb = min(candidates, key=lambda c: c[2] - c[1])
            witness = {self.coord: wx, "lhs": wa, "rhs": wb, "margin": wb - wa}
            return LinkReport(lhs_expr, rhs_expr, "falsified", min_margin, rx, witness)
        if self.all_zero:
            return LinkReport(
                lhs_expr,
                rhs_expr,
                "falsified",
                0.0,
                x_at(0),
                note="degenerate: both sides are numerically identical across the grid",
            )
        if not self.has_positive:
            return LinkReport(
                lhs_expr,
                rhs_expr,
                "inconclusive",
                min_margin,
                rx,
                note="every margin sits inside the tie threshold",
            )
        return LinkReport(lhs_expr, rhs_expr, "verified_numeric", min_margin, rx)


def _chain_verdict(links: Iterable[LinkReport]) -> str:
    verdict = "verified_numeric"
    for link in links:
        if link.verdict == "falsified":
            return "falsified"
        if link.verdict == "inconclusive":
            verdict = "inconclusive"
    return verdict


def _check_links(
    where: str, names: Sequence[str], fns: Sequence[Callable], ts, *params
) -> list[LinkReport]:
    """Every adjacent pair of members fn(*params, t) scanned over the grid ts
    and refined: a kernel chain, or a probe as a two-member chain."""
    scans = [_LinkScan(where, lhs, rhs, "t", ts.item) for lhs, rhs in zip(names, names[1:])]
    for start in range(0, len(ts), _BLOCK):
        block = ts[start:start + _BLOCK]
        values = [_on_block(where, name, fn, *params, block) for name, fn in zip(names, fns)]
        for scan, lhs_vals, rhs_vals in zip(scans, values, values[1:]):
            scan.add(lhs_vals, rhs_vals)
    return [
        scan.report(lambda t, lf=lf, rf=rf: (lf(*params, t), rf(*params, t)))
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
    chain: Chain, config: VerificationConfig
) -> tuple[list[LinkReport], float, bool]:
    np = _np()
    where = f"chain {chain.id}"
    step = (config.ratio_max - 1.0) / config.ratio_samples
    ratios = 1.0 + np.arange(1, config.ratio_samples + 1) * step
    fns = chain.member_fns
    scans = [
        _LinkScan(where, lhs, rhs, "ratio", ratios.item)
        for lhs, rhs in zip(chain.members, chain.members[1:])
    ]
    sub = np.asin if chain.substitution == "arcsin" else np.atan
    twin_max = 0.0
    twin_ok = True
    for start in range(0, len(ratios), _BLOCK):
        block = ratios[start:start + _BLOCK]
        try:
            vec = _mean_args(chain, block)
        except _EVAL_ERRORS as exc:
            raise _eval_error(where, f"the means {', '.join(chain.mean_kinds)}", exc) from exc
        values = [_on_block(where, name, fn, *vec) for name, fn in zip(chain.members, fns)]
        for scan, lhs_vals, rhs_vals in zip(scans, values, values[1:]):
            scan.add(lhs_vals, rhs_vals)
        ts = sub((block - 1.0) / (block + 1.0))
        scale = _on_block(where, chain.scale, chain.scale_fn, *vec)
        twins = [
            scale * _on_block(where, name, fn, ts)
            for name, fn in zip(chain.twin_members, chain.twin_fns)
        ]
        for lhs_vals, rhs_vals, lhs_twin, rhs_twin in zip(values, values[1:], twins, twins[1:]):
            kern_margin = rhs_twin - lhs_twin
            deviation = np.abs(rhs_vals - lhs_vals - kern_margin)
            twin_max = max(twin_max, deviation.max().item())
            tolerance = _TWIN_REL * np.maximum(np.abs(kern_margin), 1.0)
            twin_ok = twin_ok and not (deviation > tolerance).any()

    links = []
    for scan, lf, rf in zip(scans, fns, fns[1:]):

        def value_fn(r: float, lf=lf, rf=rf) -> tuple[float, float]:
            vec = _mean_args(chain, r)
            return lf(*vec), rf(*vec)

        link = scan.report(value_fn)
        if link.witness is not None:
            link.witness["pair"] = [link.witness["ratio"], 1.0]
        links.append(link)
    return links, twin_max, twin_ok


def verify_chain(
    chain: Chain | str,
    config: VerificationConfig | None = None,
    catalog: Catalog | None = None,
) -> ChainReport:
    """Check every adjacent ordering in a chain on a dense grid.

    Accepts a Chain or a chain id resolved against the packaged catalog.
    Mean-form chains are additionally cross-checked against their kernel
    twins: the margins must agree to relative 1e-10 after scaling.
    """
    cfg = config or VerificationConfig()
    if isinstance(chain, str):
        chain = (catalog or load_catalog()).get_chain(chain)
    start = time.perf_counter()
    twin_max = twin_rel = twin_ok = note = None
    if chain.kind == "kernel":
        ts = _np().linspace(*_inset(*chain.domain, cfg.endpoint_eps), cfg.samples)
        links = _check_links(f"chain {chain.id}", chain.members, chain.member_fns, ts)
    else:
        links, twin_max, twin_ok = _verify_mean_chain(chain, cfg)
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


def probe_sharpness(
    probe: Probe | str,
    config: VerificationConfig | None = None,
    catalog: Catalog | None = None,
) -> ProbeReport:
    """Nudge a probe's constant by epsilon and hunt for a violation.

    Only the probe's declared region is scanned: the perturbed inequality
    is expected to break where the original was sharp, and a global scan
    would report whichever violation happens to be deepest instead of the
    one the probe is about. Verdict "falsified" means the probe succeeded.
    """
    cfg = config or VerificationConfig()
    if isinstance(probe, str):
        probe = (catalog or load_catalog()).get_probe(probe)
    start = time.perf_counter()
    offset = cfg.epsilon if probe.direction == "+" else -cfg.epsilon
    parameter = probe.base_value + offset
    rlo, rhi = _probe_interval(probe, cfg)
    (link,) = _check_links(
        f"probe {probe.id}",
        (probe.lhs, probe.rhs),
        (probe.lhs_fn, probe.rhs_fn),
        _np().linspace(rlo, rhi, cfg.samples),
        parameter,
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


def verify_endpoint_limits(kernel_id: str) -> dict:
    """Check a kernel's stored endpoint limits by approaching them.

    Offsets 1e-3, 1e-5, 1e-7 walk toward each finite endpoint; the absolute
    errors must not increase. Kernels flagged asymptotic are instead sampled
    at their registered probe points, where only the error decrease is
    required (the approach can be slow).
    """
    k = kernels.get_kernel(kernel_id)
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
        if side == "hi" and k.hi_asymptotic:
            key, approach = "points", list(k.probe_points)
            ts = approach
        else:
            key, approach = "offsets", list(_LIMIT_OFFSETS)
            ts = [k.lo + d if side == "lo" else k.hi - d for d in _LIMIT_OFFSETS]
        errors = [abs(k.fn(t) - limit) for t in ts]
        side_ok = shrinking(errors, limit)
        sides[side] = {"limit": limit, key: approach, "errors": errors, "ok": side_ok}
        ok = ok and side_ok
    return {"kernel": kernel_id, "sides": sides, "verdict": "ok" if ok else "failed"}


def verify_monotone(
    kernel_id: str,
    direction: str | None = None,
    config: VerificationConfig | None = None,
) -> dict:
    """Grid check that a registered kernel moves in one direction.

    Consecutive differences must never point the wrong way beyond the tie
    threshold, the net change must agree, and seeded central differences at
    random interior points must not contradict the claim. A wrong-way grid
    step is reported as the witness: the deepest one, which sits at worst_at.
    """
    k = kernels.get_kernel(kernel_id)
    direction = direction or k.monotone
    if direction not in ("increasing", "decreasing"):
        raise DomainError(
            f"kernel {kernel_id!r} declares no monotone direction; pass one explicitly"
        )
    cfg = config or VerificationConfig()
    np = _np()
    glo, ghi = _inset(k.lo, k.hi, cfg.endpoint_eps)
    where = f"kernel {kernel_id}"
    ts = np.linspace(glo, ghi, cfg.samples)
    values = np.concatenate(
        [_on_block(where, kernel_id, k.fn, ts[s:s + _BLOCK]) for s in range(0, len(ts), _BLOCK)]
    )
    sign = 1.0 if direction == "increasing" else -1.0

    # Step i is a link from values[i] to values[i + 1]: for an increasing
    # kernel the later value is the larger side, for a decreasing one the
    # earlier. Coordinates are step indices, so no refinement is possible.
    sides = [("f(t_i)", values[:-1]), ("f(t_i+1)", values[1:])]
    if direction == "decreasing":
        sides.reverse()
    (lhs_name, lhs_vals), (rhs_name, rhs_vals) = sides
    scan = _LinkScan(where, lhs_name, rhs_name, "step", int)
    for start in range(0, len(lhs_vals), _BLOCK):
        scan.add(lhs_vals[start:start + _BLOCK], rhs_vals[start:start + _BLOCK])
    link = scan.report(None)
    j = link.argmin
    # Recomputed rather than taken from min_margin: a flat step of a
    # decreasing kernel is -0.0 here, and the report keeps that sign.
    worst_step = sign * (values[j + 1] - values[j]).item()
    worst_at = ts.item(j)
    witness = None
    if link.witness is not None:
        i = link.witness["step"]
        witness = {
            "t": ts.item(i),
            "t_next": ts.item(i + 1),
            "value": values[i].item(),
            "value_next": values[i + 1].item(),
        }

    net_change = sign * (values[-1] - values[0]).item()
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
        "worst_at": worst_at,
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
    """
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

    for cid in cat.chain_ids():
        report = verify_chain(cat.get_chain(cid), cfg)
        rows.append(
            SuiteRow(f"chain:{cid}", report.verdict == "verified_numeric", _chain_detail(report))
        )

    for pid in cat.probe_ids():
        report = probe_sharpness(cat.get_probe(pid), cfg)
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
        report = verify_monotone(kid, config=cfg)
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
        report = verify_endpoint_limits(kid)
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
