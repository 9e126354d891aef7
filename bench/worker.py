"""One measured process of the ineqforge benchmark.

``bench/run.py`` starts this file in a fresh interpreter for every sample, so
the module-level caches of the package (grid cache, catalog, constants,
series tables) start cold, as they do for a command-line user. Modes:

    worker.py setup
        import ineqforge and run load_catalog(); print the time it took.
    worker.py round WORKLOAD SEED ROUND
        run one fixed-size round of the workload, check every output and
        print one JSON line.
    worker.py traced WORKLOAD SEED ROUND SPANS_PATH
        the same round with spans around the public calls into each module,
        then a sweep over the layers; prints the layer metrics and writes the
        spans to SPANS_PATH.
    worker.py reference
        print the suite reference (row results, link verdicts, witness
        coordinates) that the suite round compares against.

The worker calls only the package's public API. Tracing and counting wrap
public module attributes and catalog entries from here; the package itself
is not edited.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "suite.json"

M6_QUERIES_PER_ROUND = 20
MEANS_RATIO_SAMPLES = 20001
MEANS_RATIO_MAX_RANGE = (10.0, 1e4)
# The verifier's tie threshold: margins within TIE_REL * max(1, |lhs|, |rhs|)
# of zero are neither violations nor evidence.
TIE_REL = 1e-13
# Witness coordinates are golden-section refined to about 1e-10 of their
# bracket; a witness that moved further than this has moved.
WITNESS_TOL = 1e-9
# Scalar calls to one member callable in a row of at least this length are a
# grid scan; refinement alternates between the two sides of a link, so its
# runs are at most two calls long.
GRID_RUN_MIN = 3


def _setup():
    """Import the package and load the catalog; return (package, seconds)."""
    start = time.perf_counter()
    import ineqforge
    from ineqforge import catalog

    catalog.load_catalog()
    elapsed = time.perf_counter() - start
    _check_source(ineqforge)
    return ineqforge, elapsed


def _check_source(ineqforge) -> None:
    expected = (Path.cwd() / "src" / "ineqforge").resolve()
    actual = Path(ineqforge.__file__).resolve().parent
    if actual != expected:
        raise SystemExit(f"ineqforge imported from {actual}, expected {expected}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Tracing and counting
# ---------------------------------------------------------------------------


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans (id, name, start, end, parent) kept in memory until dump()."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start - self.origin, end - self.origin, parent)

    def wrap(self, module, attr: str, name: str | None = None, label=None) -> None:
        """Replace module.attr by a wrapper that records one span per call."""
        fn = getattr(module, attr)
        base = name or f"{_short(module)}.{attr}"

        def traced(*args, **kwargs):
            span = f"{base}[{label(args)}]" if label else base
            return self.call(span, fn, *args, **kwargs)

        setattr(module, attr, traced)

    def wrap_first_call(self, module, attr: str) -> None:
        """Span only the first (cold) call, then restore the original."""
        fn = getattr(module, attr)

        def first(*args, **kwargs):
            setattr(module, attr, fn)
            return self.call(f"{_short(module)}.{attr}", fn, *args, **kwargs)

        setattr(module, attr, first)

    def durations(self, name: str, spans=None) -> list[float]:
        """Durations of spans called name, or name[label] for any label."""
        return [
            end - start
            for _, span, start, end, _ in (self.spans if spans is None else spans)
            if span == name or span.startswith(name + "[")
        ]

    def self_times(self) -> dict:
        covered: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, name, start, end, _ in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered.get(sid, 0.0)
        return out

    def dump(self, path: str) -> None:
        rows = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]
        Path(path).write_text(json.dumps(rows) + "\n", encoding="utf-8")


class CallTimer:
    """Counts calls to module.attr and the time spent inside them."""

    def __init__(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        self.calls = 0
        self.seconds = 0.0

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        setattr(module, attr, timed)


class MemberCounter:
    """Counts evaluations of the member callables of copied chains and probes.

    A call whose last argument is an array is a grid evaluation of its
    length. Scalar calls are grouped into runs of consecutive calls to one
    callable: a run of GRID_RUN_MIN or more is a grid scan, a shorter run is
    a refinement step, which alternates between the two sides of a link.
    """

    def __init__(self) -> None:
        self.points = 0
        self.refine = 0
        self.active = True
        self._last = None
        self._run = 0

    def _close(self) -> None:
        if self._run >= GRID_RUN_MIN:
            self.points += self._run
        else:
            self.refine += self._run
        self._run = 0
        self._last = None

    def stop(self) -> None:
        """End counting; later calls (the output checks) are not counted."""
        self._close()
        self.active = False

    def wrap(self, fn):
        def counted(*args):
            if self.active:
                arg = args[-1]
                if hasattr(arg, "__len__"):
                    self._close()
                    self.points += len(arg)
                elif self._last is counted:
                    self._run += 1
                else:
                    self._close()
                    self._last = counted
                    self._run = 1
            return fn(*args)

        return counted

    def chain(self, chain):
        return dataclasses.replace(chain, member_fns=tuple(self.wrap(f) for f in chain.member_fns))

    def probe(self, probe):
        return dataclasses.replace(probe, lhs_fn=self.wrap(probe.lhs_fn), rhs_fn=self.wrap(probe.rhs_fn))


class Capture:
    """Records the reports of the verifier's public check calls.

    Calls made from inside another check (the regime chains and probes of
    theorem_m6_iff_suite) are recorded too, but only top-level calls count
    as queries for the latency figures.
    """

    NAMES = (
        "verify_chain",
        "probe_sharpness",
        "verify_monotone",
        "verify_endpoint_limits",
        "theorem_m6_iff_suite",
    )

    def __init__(self, verifier) -> None:
        self.chains: dict[str, tuple] = {}
        self.probes: dict[str, tuple] = {}
        self.latencies_ms: list[float] = []
        self._depth = 0
        for name in self.NAMES:
            self._wrap(verifier, name)

    def _wrap(self, verifier, name: str) -> None:
        fn = getattr(verifier, name)

        def captured(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.latencies_ms.append((time.perf_counter() - start) * 1e3)
            if name == "verify_chain":
                self.chains[result.chain] = (args[0], result)
            elif name == "probe_sharpness":
                self.probes[result.probe] = (args[0], result)
            return result

        setattr(verifier, name, captured)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checks:
    """Checks attempted and failed; an exception counts as a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _safe(check, *args) -> list[str]:
    """Run one check; an exception it raises is a problem, not a crash."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return [f"{check.__name__} raised {exc!r}"]


def _tie(a: float, b: float) -> float:
    return TIE_REL * max(1.0, abs(a), abs(b))


def _link_sides(chain, i: int, x: float) -> tuple[float, float]:
    """Both sides of link i of a chain at coordinate x (t, or a mean ratio)."""
    from ineqforge import catalog, means

    if chain.kind == "kernel":
        args = (x,)
    else:
        bundle = means.mean_bundle(x, 1.0)
        args = tuple(bundle[v] for v in catalog.MEAN_VARS)
    return chain.member_fns[i](*args), chain.member_fns[i + 1](*args)


def check_chain(chain, report: dict) -> list[str]:
    """A falsified link's witness must reproduce a margin below -tie with the
    chain's compiled members, and no verified link may have a minimum margin
    below -tie."""
    problems = []
    coord = "t" if chain.kind == "kernel" else "ratio"
    for i, link in enumerate(report["links"]):
        where = f"{report['chain']} link {i}"
        if link["verdict"] == "verified_numeric":
            a, b = _link_sides(chain, i, link["argmin"])
            if link["min_margin"] < -_tie(a, b):
                problems.append(f"{where}: verified with min margin {link['min_margin']!r}")
        witness = link.get("witness")
        if link["verdict"] == "falsified" and witness is not None:
            a, b = _link_sides(chain, i, witness[coord])
            if not b - a < -_tie(a, b):
                problems.append(f"{where}: witness margin {b - a!r} is not below -tie")
    return problems


def check_probe(probe, report: dict) -> list[str]:
    """A probe witness must reproduce a margin below -tie at the perturbed parameter."""
    witness = report.get("witness")
    if witness is None:
        return []
    a = probe.lhs_fn(report["parameter"], witness["t"])
    b = probe.rhs_fn(report["parameter"], witness["t"])
    if not b - a < -_tie(a, b):
        return [f"{report['probe']}: witness margin {b - a!r} is not below -tie"]
    return []


def _suite_reference(rows, chains: dict, probes: dict) -> dict:
    return {
        "rows": [[row.name, row.passed] for row in rows],
        "chains": {
            cid: {
                "verdicts": [link.verdict for link in report.links],
                "witness": [
                    None if link.witness is None
                    else link.witness["t" if report.kind == "kernel" else "ratio"]
                    for link in report.links
                ],
            }
            for cid, (_, report) in chains.items()
        },
        "probes": {
            pid: {
                "verdict": report.verdict,
                "witness_t": None if report.witness is None else report.witness["t"],
            }
            for pid, (_, report) in probes.items()
        },
    }


def _same_coord(have, want) -> bool:
    if have is None or want is None:
        return have is None and want is None
    return abs(have - want) <= WITNESS_TOL * max(1.0, abs(want))


def _diff(kind: str, key: str, want, have) -> list[str]:
    return [] if want == have else [f"{kind} {key}: expected {want}, got {have}"]


# ---------------------------------------------------------------------------
# Workload rounds: a fixed amount of work, timed, then checked.
# ---------------------------------------------------------------------------


def _rng(seed: int, round_index: int) -> random.Random:
    return random.Random(f"{seed}:{round_index}")


def _grid_keys(chains, config) -> dict:
    """Member grids of the kernel chains verified, and how many are distinct.

    The verifier's grid is fixed by the member expression, the domain and
    the grid shape, so equal keys are grids that a cache can reuse.
    """
    keys = [
        (member, chain.domain, config.samples, config.endpoint_eps)
        for chain in chains
        for member in chain.members
    ]
    return {"member_grids": len(keys), "distinct": len(set(keys))}


def _result(wall, latencies, checks: Checks, outcomes, links, grids) -> dict:
    return {
        "wall_s": wall,
        "latencies_ms": latencies,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems[:20],
        "outcomes": outcomes,
        "links": links,
        "grids": grids,
    }


def round_suite(seed: int, round_index: int, counter: MemberCounter | None):
    """run_suite at the default config. The catalog is fixed; the seed is unused."""
    from ineqforge import catalog, verifier

    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    capture = Capture(verifier)
    cat = None
    if counter is not None:
        base = catalog.load_catalog()
        cat = catalog.Catalog(
            {cid: counter.chain(c) for cid, c in base.chains.items()},
            {pid: counter.probe(p) for pid, p in base.probes.items()},
        )
    config = verifier.VerificationConfig()
    checks = Checks()
    start = time.perf_counter()
    try:
        report = verifier.run_suite(config, catalog=cat)
    except Exception as exc:  # noqa: BLE001 - an exception fails every check
        report = None
        error = repr(exc)
    wall = time.perf_counter() - start
    if counter is not None:
        counter.stop()

    if report is None:
        for _ in range(len(reference["rows"]) + len(reference["chains"]) + len(reference["probes"])):
            checks.add([f"run_suite raised {error}"])
        return _result(wall, capture.latencies_ms, checks, {}, 0, _grid_keys([], config)), None

    got = _suite_reference(report.rows, capture.chains, capture.probes)
    rows = (reference["rows"], got["rows"])
    for i in range(max(map(len, rows))):
        want, have = (r[i] if i < len(r) else None for r in rows)
        checks.add(_diff("row", i, want, have))
    for cid, want in reference["chains"].items():
        have = got["chains"].get(cid)
        problems = _diff("chain", cid, want["verdicts"], have and have["verdicts"])
        if have is not None:
            if not all(_same_coord(h, w) for h, w in zip(have["witness"], want["witness"])):
                problems.append(f"chain {cid}: witness {have['witness']} != {want['witness']}")
            chain, rep = capture.chains[cid]
            problems += _safe(check_chain, chain, rep.to_dict())
        checks.add(problems)
    for pid, want in reference["probes"].items():
        have = got["probes"].get(pid)
        problems = _diff("probe", pid, want["verdict"], have and have["verdict"])
        if have is not None:
            if not _same_coord(have["witness_t"], want["witness_t"]):
                problems.append(f"probe {pid}: witness {have['witness_t']!r} != {want['witness_t']!r}")
            probe, rep = capture.probes[pid]
            problems += _safe(check_probe, probe, rep.to_dict())
        checks.add(problems)
    outcomes = {"rows": len(report.rows), "rows_passed": sum(row.passed for row in report.rows)}
    links = sum(len(rep.links) for _, rep in capture.chains.values()) + len(capture.probes)
    kernel_chains = [c for c, _ in capture.chains.values() if c.kind == "kernel"]
    result = _result(wall, capture.latencies_ms, checks, outcomes, links, _grid_keys(kernel_chains, config))
    return result, report.to_dict()


def m6_exponents(seed: int, round_index: int) -> list[float]:
    """Exponents cycling through the regimes p >= 6/5, 0 < p <= 1 and p < 0."""
    rng = _rng(seed, round_index)
    draws = []
    for i in range(M6_QUERIES_PER_ROUND):
        regime = i % 3
        if regime == 0:
            draws.append(rng.uniform(1.2, 4.0))
        elif regime == 1:
            draws.append(1.0 - rng.random())  # (0, 1]
        else:
            draws.append(-4.0 * (1.0 - rng.random()))  # [-4, 0)
    return draws


def round_m6_sweep(seed: int, round_index: int, counter: MemberCounter | None):
    """theorem_m6_iff_suite([p]) per seeded exponent: one caller, closed loop."""
    from ineqforge import catalog, verifier

    exponents = m6_exponents(seed, round_index)
    outputs = []
    latencies = []
    start = time.perf_counter()
    for p in exponents:
        q0 = time.perf_counter()
        try:
            outputs.append(verifier.theorem_m6_iff_suite([p]))
        except Exception as exc:  # noqa: BLE001 - an exception fails the query's checks
            outputs.append(exc)
        latencies.append((time.perf_counter() - q0) * 1e3)
    wall = time.perf_counter() - start
    if counter is not None:
        counter.stop()

    checks = Checks()
    outcomes = {"cases_ok": 0, "probes_not_falsified": [], "chains_not_verified": []}
    chains = []
    links = 0
    for p, out in zip(exponents, outputs):
        if isinstance(out, Exception):
            for _ in range(3):
                checks.add([f"theorem_m6_iff_suite([{p!r}]) raised {out!r}"])
            continue
        case = out["cases"][0]
        chain = catalog.make_m6_chain(p)
        chains.append(chain)
        checks.add(_safe(check_chain, chain, case["chain"]))
        for probe, rep in zip(catalog.m6_probe_specs(p), case["probes"]):
            checks.add(_safe(check_probe, probe, rep))
            if rep["verdict"] != "falsified":
                outcomes["probes_not_falsified"].append(rep["probe"])
        if case["chain"]["verdict"] != "verified_numeric":
            outcomes["chains_not_verified"].append(case["chain"]["chain"])
        outcomes["cases_ok"] += bool(case["ok"])
        links += len(case["chain"]["links"]) + len(case["probes"])
    grids = _grid_keys(chains, verifier.VerificationConfig())
    result = _result(wall, latencies, checks, outcomes, links, grids)
    return result, [o for o in outputs if not isinstance(o, Exception)]


def means_ratio_max(seed: int, round_index: int, count: int) -> list[float]:
    """ratio_max values log-uniform in MEANS_RATIO_MAX_RANGE."""
    rng = _rng(seed, round_index)
    lo, hi = (math.log(v) for v in MEANS_RATIO_MAX_RANGE)
    return [math.exp(rng.uniform(lo, hi)) for _ in range(count)]


def round_means_dense(seed: int, round_index: int, counter: MemberCounter | None):
    """Every mean-form chain at 20001 ratio samples with a seeded ratio_max."""
    from ineqforge import catalog, verifier

    cat = catalog.load_catalog()
    chains = [c for c in cat.chains.values() if c.kind == "mean"]
    configs = [
        verifier.VerificationConfig(ratio_samples=MEANS_RATIO_SAMPLES, ratio_max=r)
        for r in means_ratio_max(seed, round_index, len(chains))
    ]
    targets = [counter.chain(c) for c in chains] if counter is not None else chains
    reports = []
    latencies = []
    start = time.perf_counter()
    for chain, config in zip(targets, configs):
        q0 = time.perf_counter()
        try:
            reports.append(verifier.verify_chain(chain, config))
        except Exception as exc:  # noqa: BLE001 - an exception fails the chain's check
            reports.append(exc)
        latencies.append((time.perf_counter() - q0) * 1e3)
    wall = time.perf_counter() - start
    if counter is not None:
        counter.stop()

    checks = Checks()
    outcomes = {"verdicts": {}, "twin_not_ok": []}
    for chain, rep in zip(chains, reports):
        if isinstance(rep, Exception):
            checks.add([f"verify_chain({chain.id!r}) raised {rep!r}"])
            continue
        checks.add(_safe(check_chain, chain, rep.to_dict()))
        outcomes["verdicts"][rep.verdict] = outcomes["verdicts"].get(rep.verdict, 0) + 1
        if rep.twin_ok is False:
            outcomes["twin_not_ok"].append(chain.id)
    done = [r for r in reports if not isinstance(r, Exception)]
    links = sum(len(r.links) for r in done)
    result = _result(wall, latencies, checks, outcomes, links, _grid_keys([], None))
    return result, [r.to_dict() for r in done]


ROUNDS = {"suite": round_suite, "m6_sweep": round_m6_sweep, "means_dense": round_means_dense}


def untraced_round(workload: str, seed: int, round_index: int) -> dict:
    _, setup_s = _setup()
    result, _ = ROUNDS[workload](seed, round_index, None)
    result["setup_s"] = setup_s
    result["rss_mb"] = _rss_mb()
    return result


# ---------------------------------------------------------------------------
# Traced round and layer sweep
# ---------------------------------------------------------------------------

# Verifier phases (the suite's phase table): the span that times each in a
# round, and one public call that stands in for a phase the workload does not
# run, so that every layer metric is measured on every workload.
PHASES = {
    "kernel_chains": ("verifier.verify_chain[kernel]", lambda v: v.verify_chain("M1")),
    "mean_chains": ("verifier.verify_chain[mean]", lambda v: v.verify_chain("M1c-i1")),
    "probes": ("verifier.probe_sharpness", lambda v: v.probe_sharpness("M1-lower")),
    "monotone": ("verifier.verify_monotone", lambda v: v.verify_monotone("sinc")),
    "limits": ("verifier.verify_endpoint_limits", lambda v: v.verify_endpoint_limits("sinc")),
    "m6_regimes": ("verifier.theorem_m6_iff_suite", lambda v: v.theorem_m6_iff_suite([2.0])),
}

SERIES_TABLES = ("tcm1_coefficients", "g_numerator_coefficients", "u5_coefficients", "u4_coefficients")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n)]
    xs[-1] = hi
    return xs


def kernel_sweep(kernels, tracer: Tracer, samples: int, eps: float) -> dict:
    """Each registered kernel over its default grid, the monotone-check grid."""
    per_kernel = {}
    for kid, kernel in kernels.KERNELS.items():
        inset = eps * (kernel.hi - kernel.lo)
        grid = _linspace(kernel.lo + inset, kernel.hi - inset, samples)
        fn = kernel.fn
        start = time.perf_counter()
        tracer.call(f"kernels.grid[{kid}]", lambda: [fn(x) for x in grid])
        per_kernel[kid] = time.perf_counter() - start
    total = sum(per_kernel.values())
    points = samples * len(per_kernel)
    return {
        "kernels.grid_eval_s": total,
        "kernels.points": points,
        "kernels.ns_per_point": total / points * 1e9,
        "kernels.exp_tcot_grid_ms": per_kernel["exp_tcot"] * 1e3,
    }


def _instrument(tracer: Tracer, counter: MemberCounter):
    from ineqforge import constants, series, verifier

    for name in ("constant_p0", "constant_p1"):
        tracer.wrap(constants, name)
    for name in SERIES_TABLES:
        tracer.wrap_first_call(series, name)
    # The verifier builds regime chains and probes through these names; the
    # copies it gets back have counted members.
    build_chain = verifier.make_m6_chain
    build_probes = verifier.m6_probe_specs
    verifier.make_m6_chain = lambda p: counter.chain(build_chain(p))
    verifier.m6_probe_specs = lambda p: [counter.probe(pr) for pr in build_probes(p)]
    tracer.wrap(verifier, "make_m6_chain", name="catalog.make_m6_chain")
    tracer.wrap(verifier, "m6_probe_specs", name="catalog.m6_probe_specs")
    tracer.wrap(verifier, "verify_chain", label=lambda args: getattr(args[0], "kind", "by_id"))
    for name in ("probe_sharpness", "verify_monotone", "verify_endpoint_limits",
                 "theorem_m6_iff_suite", "run_suite"):
        tracer.wrap(verifier, name)
    return CallTimer(verifier, "mean_bundle")


def traced_round(workload: str, seed: int, round_index: int, spans_path: str) -> dict:
    tracer = Tracer()
    ineqforge = tracer.call("bench.import", __import__, "ineqforge")
    _check_source(ineqforge)
    from ineqforge import catalog, kernels, verifier

    counter = MemberCounter()
    bundle = _instrument(tracer, counter)
    tracer.call("catalog.load_catalog", catalog.load_catalog)

    first = len(tracer.spans)
    result, reports = tracer.call("bench.round", ROUNDS[workload], seed, round_index, counter)
    round_spans = tracer.spans[first:]

    tracer.call("cli.report_json", json.dumps, reports, indent=2)

    layers = {}
    reference_phases = []
    for phase, (span, call) in PHASES.items():
        seconds = tracer.durations(span, round_spans)
        if not seconds:
            reference_phases.append(phase)
            tracer.call(f"bench.reference[{phase}]", call, verifier)
            seconds = tracer.durations(f"bench.reference[{phase}]")
        layers[f"verifier.{phase}_s"] = sum(seconds)

    config = verifier.VerificationConfig()
    layers.update(kernel_sweep(kernels, tracer, config.samples, config.endpoint_eps))

    builds = tracer.durations("catalog.make_m6_chain")
    grids = result["grids"]
    layers.update(
        {
            "catalog.load_s": sum(tracer.durations("catalog.load_catalog")),
            "catalog.m6_build_ms": (sum(builds) + sum(tracer.durations("catalog.m6_probe_specs")))
            / len(builds) * 1e3,
            "constants.solve_ms": sum(
                tracer.durations("constants.constant_p0") + tracer.durations("constants.constant_p1")
            ) * 1e3,
            "series.tables_ms": sum(sum(tracer.durations(f"series.{n}")) for n in SERIES_TABLES) * 1e3,
            "verifier.chain_p50_ms": statistics.median(tracer.durations("verifier.verify_chain", round_spans))
            * 1e3,
            "verifier.links": result["links"],
            "verifier.points_evaluated": counter.points,
            "verifier.refine_evals": counter.refine,
            "verifier.grid_reuse_ratio": (
                (grids["member_grids"] - grids["distinct"]) / grids["member_grids"]
                if grids["member_grids"] else 0.0
            ),
            "means.bundle_calls": bundle.calls,
            "means.bundle_us": bundle.seconds / bundle.calls * 1e6 if bundle.calls else 0.0,
            "cli.report_json_ms": sum(tracer.durations("cli.report_json")) * 1e3,
        }
    )
    tracer.dump(spans_path)
    result.update(
        layers=layers,
        reference_phases=reference_phases,
        span_summary=tracer.self_times(),
        rss_mb=_rss_mb(),
    )
    return result


def write_reference() -> dict:
    _setup()
    from ineqforge import verifier

    capture = Capture(verifier)
    report = verifier.run_suite(verifier.VerificationConfig())
    return _suite_reference(report.rows, capture.chains, capture.probes)


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup":
        _, setup_s = _setup()
        out = {"setup_s": setup_s}
    elif mode == "round":
        out = untraced_round(argv[1], int(argv[2]), int(argv[3]))
    elif mode == "traced":
        out = traced_round(argv[1], int(argv[2]), int(argv[3]), argv[4])
    elif mode == "reference":
        print(json.dumps(write_reference(), indent=1))
        return 0
    else:
        print(f"usage: worker.py setup|round|traced|reference ...", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
