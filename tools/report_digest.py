"""Print one sha256 per family of verifier reports, or compare two source trees.

Usage: python3 tools/report_digest.py SRC_DIR
       python3 tools/report_digest.py SRC_A SRC_B

SRC_DIR is the directory that holds the ``ineqforge`` package (``src`` in a
checkout). Each family's reports are turned into JSON with every
``elapsed_s`` dropped and hashed, so two trees whose verdicts, witnesses,
margins and configs agree bit for bit print the same lines. Given two trees,
the tool builds each tree's reports in its own subprocess and prints, per
family, ``same`` or the number of JSON leaves that differ with the first
20 of their paths and both values, then a ``by key`` line that counts the
differing leaves by their key path without list indices, most first. If
building a tree's reports raises, the tool names the tree and the error and
exits with code 2; run it on that tree alone for the traceback. The families:

- suite: ``run_suite()`` at the defaults;
- chains_probes: the packaged chains and probes at the defaults;
- kernels: the monotone check and the endpoint limits of every kernel;
- m6: ``theorem_m6_iff_suite`` over the fixed exponents and seeded ones;
- means: the mean chains at 20001 ratio samples for five ratio_max values;
- flipped: every chain with each link flipped, at 2001 samples;
- flipped_dense: the same flipped chains at the defaults;
- monotone_flipped: the monotone check of every kernel with a declared
  direction, with that direction flipped and as declared, at 2001 and 20001
  samples (the flipped runs reach the check's falsified path);
- catalog: the text of every packaged chain and probe as loaded, with the
  fields in CHAIN_FIELDS and PROBE_FIELDS, so a change to how the catalog is
  built can be shown to load the same expressions, domains and constants.

Only public calls that take a Chain, Probe or Kernel object are used, and
the catalog is listed through its ``chains`` and ``probes`` mappings, so the
tool runs against any tree with the current verifier API.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import random
import re
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

SHOWN_DIFFS = 20

FIXED_EXPONENTS = (1.2, 2.0, 3.7, 1.0, 0.5, 0.013, -0.2, -1.0, -3.9)
SEEDED_PER_REGIME = 20
SEED = 1212
MEAN_RATIO_MAX = (3.0, 47.5, 1e4, 1e8, 1e12)
CHAIN_FIELDS = (
    "id", "kind", "members", "domain", "substitution", "scale", "counterpart", "mean_kinds",
)
PROBE_FIELDS = (
    "id", "chain", "domain", "lhs", "rhs", "base", "base_value", "direction", "region",
)


def _seeded_exponents() -> list[float]:
    rng = random.Random(SEED)
    draws = []
    for _ in range(SEEDED_PER_REGIME):
        draws.append(1.2 + 4.8 * rng.random())  # [1.2, 6)
        draws.append(1.0 - rng.random())  # (0, 1]
        draws.append(-6.0 + 6.0 * rng.random())  # [-6, 0)
    return draws


def _drop_elapsed(value):
    if isinstance(value, dict):
        return {k: _drop_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_drop_elapsed(v) for v in value]
    return value


def _families(catalog, kernels, verifier):
    cfg = verifier.VerificationConfig
    cat = catalog.load_catalog()
    chains = list(cat.chains.values())
    probes = list(cat.probes.values())

    yield "suite", [verifier.run_suite().to_dict()]
    yield "chains_probes", (
        [verifier.verify_chain(c).to_dict() for c in chains]
        + [verifier.probe_sharpness(p).to_dict() for p in probes]
    )
    yield "kernels", [
        [verifier.verify_monotone(k, config=cfg()), verifier.verify_endpoint_limits(k)]
        for k in kernels.KERNELS.values()
    ]
    exponents = list(FIXED_EXPONENTS) + _seeded_exponents()
    yield "m6", [verifier.theorem_m6_iff_suite([p]) for p in exponents]
    dense = [cfg(ratio_samples=20001, ratio_max=r) for r in MEAN_RATIO_MAX]
    yield "means", [
        verifier.verify_chain(c, config).to_dict()
        for c in chains
        if c.kind == "mean"
        for config in dense
    ]
    flipped = [
        catalog.flipped_catalog(cat, c.id, i).get_chain(c.id)
        for c in chains
        for i in range(len(c.members) - 1)
    ]
    small = cfg(samples=2001, ratio_samples=2001)
    yield "flipped", [verifier.verify_chain(c, small).to_dict() for c in flipped]
    yield "flipped_dense", [verifier.verify_chain(c).to_dict() for c in flipped]
    yield "monotone_flipped", [
        report
        for kernel in kernels.KERNELS.values()
        if kernel.monotone is not None
        for report in _monotone_flipped(verifier, kernel)
    ]
    yield "catalog", (
        [{f: getattr(c, f) for f in CHAIN_FIELDS} for c in chains]
        + [{f: getattr(p, f) for f in PROBE_FIELDS} for p in probes]
    )


def _monotone_flipped(verifier, kernel) -> list:
    """verify_monotone of one Kernel flipped and as declared, at 2001 and
    20001 samples."""
    flip = {"increasing": "decreasing", "decreasing": "increasing"}[kernel.monotone]
    reports = []
    for samples in (2001, 20001):
        cfg = verifier.VerificationConfig(samples=samples)
        reports.append(verifier.verify_monotone(dataclasses.replace(kernel, monotone=flip), cfg))
        reports.append(verifier.verify_monotone(kernel, cfg))
    return reports


def _family_texts(src: str) -> list[tuple[str, int, str]]:
    """(family, report count, JSON text) for the tree at ``src``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    from ineqforge import catalog, kernels, verifier

    return [
        (name, len(reports), json.dumps(_drop_elapsed(reports)))
        for name, reports in _families(catalog, kernels, verifier)
    ]


def _texts_or_error(src: str) -> tuple[list | None, str | None]:
    """_family_texts(src), or the text of the error it raised. An error class
    of the tree's package could not be unpickled in the parent process."""
    try:
        return _family_texts(src), None
    except Exception as exc:  # noqa: BLE001 - sent back as text
        return None, f"{type(exc).__name__}: {exc}"


def _leaves(value, path: str = "$") -> dict[str, str]:
    """Each scalar of a JSON value by its path, as JSON text."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}", v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: json.dumps(value)}
    return {p: leaf for sub_path, v in items for p, leaf in _leaves(v, sub_path).items()}


def _key_counts(paths) -> str:
    """Leaf paths counted by key path, without ``$`` and list indices, most
    first: ``links.min_margin 2, note 1``."""
    keys = Counter(re.sub(r"\[\d+\]", "", p).removeprefix("$").removeprefix(".") for p in paths)
    return ", ".join(f"{key} {count}" for key, count in keys.most_common())


def _compare(src_a: str, src_b: str) -> int:
    # One process per tree, so each imports its own ineqforge.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=spawn, max_tasks_per_child=1) as pool:
        (texts_a, error_a), (texts_b, error_b) = pool.map(_texts_or_error, (src_a, src_b))
    errors = [(src, error) for src, error in ((src_a, error_a), (src_b, error_b)) if error]
    for src, error in errors:
        print(f"error: tree {src}: {error}", file=sys.stderr)
    if errors:
        return 2
    for (name, _, text_a), (_, _, text_b) in zip(texts_a, texts_b):
        if text_a == text_b:
            print(f"{name:<16} same")
            continue
        a = _leaves(json.loads(text_a))
        b = _leaves(json.loads(text_b))
        paths = [p for p in {**a, **b} if a.get(p) != b.get(p)]
        print(f"{name:<16} {len(paths)} leaves differ")
        for p in paths[:SHOWN_DIFFS]:
            print(f"  {p}: {a.get(p, '(missing)')} -> {b.get(p, '(missing)')}")
        print(f"  by key: {_key_counts(paths)}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(
            "usage: python3 tools/report_digest.py SRC_DIR [SRC_DIR_B]", file=sys.stderr
        )
        return 2
    if len(argv) == 2:
        return _compare(*argv)
    for name, count, text in _family_texts(argv[0]):
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{name:<16} {count:>4} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
