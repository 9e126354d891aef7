"""Command line interface.

Subcommands: list, verify, sharpness, constants, means, table, suite.
Exit codes: 0 on success, 1 when a verification or probe check fails
(with the witness printed), 2 on usage errors, unknown ids, or bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import os
import sys
from typing import Sequence

from . import constants, kernels, means
from .catalog import load_catalog
from .errors import IneqForgeError
from .verifier import (
    VerificationConfig,
    _Grid,
    _inset,
    probe_sharpness,
    run_suite,
    verify_chain,
)

# Every VerificationConfig field is a config-file key and a --flag, parsed
# with the type of its default.
_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(VerificationConfig)}


def _read_config_file(path: str) -> dict:
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise IneqForgeError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise IneqForgeError(
            f"cannot read config file {path!r}: not UTF-8 (byte {exc.start})"
        ) from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IneqForgeError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _CONFIG_TYPES:
            raise IneqForgeError(
                f"{path}:{lineno}: unknown key {key!r}; known keys: {', '.join(_CONFIG_TYPES)}"
            )
        try:
            values[key] = _CONFIG_TYPES[key](text)
        except ValueError:
            raise IneqForgeError(f"{path}:{lineno}: cannot parse value {text!r} for {key!r}") from None
    return values


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value file with verifier settings")
    for f in dataclasses.fields(VerificationConfig):
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=_CONFIG_TYPES[f.name],
            dest=f.name,
            help=f"default {f.default!r}",
        )


def _build_config(args: argparse.Namespace) -> VerificationConfig:
    # Flags beat the config file, the config file beats defaults.
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return VerificationConfig(**values)


def _open_output(path: str, **kwargs):
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise IneqForgeError(f"cannot write {path!r}: {exc.strerror}") from exc


def _write_json(path: str, payload: object) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if path == "-":
        print(text)
    else:
        with _open_output(path) as handle:
            handle.write(text + "\n")


# Each command prints its human-readable lines and returns its exit code with
# the payload for --json (None for commands without one).


def _cmd_list(args: argparse.Namespace) -> tuple[int, None]:
    cat = load_catalog()
    every = not (args.chains or args.probes or args.kernels)
    if args.chains or every:
        print("chains:")
        for cid, chain in cat.chains.items():
            if chain.kind == "kernel":
                lo, hi = chain.domain
                where = f"t in ({lo:.6g}, {hi:.6g})"
            else:
                groups = itertools.groupby(chain.counterpart, key=lambda ref: ref[0])
                refs = " ".join(f"{kid}[{','.join(str(i) for _, i in g)}]" for kid, g in groups)
                where = f"{chain.substitution} substitution, scale {chain.scale}, counterpart {refs}"
            print(f"  {cid:12s} {chain.kind:6s} {len(chain.members)} members, {where}")
    if args.probes or every:
        print("probes:")
        for pid, probe in cat.probes.items():
            print(
                f"  {pid:12s} chain {probe.chain:8s} base {probe.base} "
                f"direction {probe.direction} region {probe.region}"
            )
    if args.kernels or every:
        print("kernels:")
        for kid, kernel in kernels.KERNELS.items():
            limits = []
            if kernel.limit_lo is not None:
                limits.append(f"lo={kernel.limit_lo:.6g}")
            if kernel.limit_hi is not None:
                tag = "asymptote" if kernel.probe_points else "hi"
                limits.append(f"{tag}={kernel.limit_hi:.6g}")
            extra = f", {kernel.monotone}" if kernel.monotone else ""
            print(
                f"  {kid:18s} ({kernel.lo:.6g}, {kernel.hi:.6g}) "
                f"{' '.join(limits)}{extra}"
            )
    return 0, None


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _build_config(args)
    report = verify_chain(args.chain, cfg)
    print(f"chain {report.chain} [{report.kind}]: {report.verdict} ({report.elapsed_s:.2f}s)")
    for link in report.links:
        print(f"  {link.lhs} < {link.rhs}")
        print(
            f"    {link.verdict}: min margin {link.min_margin:.6e} at {link.argmin:.9g}"
        )
        if link.witness is not None:
            print(f"    witness: {json.dumps(link.witness)}")
        if link.note is not None:
            print(f"    note: {link.note}")
    if report.twin_ok is not None:
        print(
            f"  twin margins: max deviation {report.twin_max_deviation:.3e} "
            f"({'ok' if report.twin_ok else 'DISAGREE'})"
        )
    return (0 if report.verdict == "verified_numeric" else 1), report.to_dict()


def _cmd_sharpness(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _build_config(args)
    report = probe_sharpness(args.probe, cfg)
    print(
        f"probe {report.probe} (chain {report.chain}): parameter {report.base_value!r} "
        f"{report.direction} {report.config.epsilon:g} -> {report.parameter!r}"
    )
    print(
        f"  scanned {report.region} = [{report.interval[0]:.9g}, {report.interval[1]:.9g}]"
    )
    if report.witness is not None:
        print(f"  witness: {json.dumps(report.witness)}")
    print(f"  verdict: {report.verdict}")
    return (0 if report.verdict == "falsified" else 1), report.to_dict()


def _cmd_constants(args: argparse.Namespace) -> tuple[int, list]:
    p0 = constants.constant_p0()
    p1 = constants.constant_p1()
    beta = constants.constant_beta()
    gamma = constants.constant_gamma()
    # Residual of the defining equation at the computed value; identically
    # zero only for the registry entries, which are plain closed forms.
    rows = [
        ("p0", p0, constants.p0_residual(p0)),
        ("p1", p1, constants.p1_residual(p1)),
        ("beta", beta, constants.beta_residual(beta)),
        ("gamma", gamma, constants.gamma_residual(gamma)),
    ]
    rows += [(name, value, 0.0) for name, value in constants.constant_registry()]
    for name, value, residual in rows:
        print(f"{name} = {value!r}  (residual {residual:.3e})")
    payload = [
        {"name": name, "value": value, "residual": residual}
        for name, value, residual in rows
    ]
    return 0, payload


def _cmd_means(args: argparse.Namespace) -> tuple[int, dict]:
    pair = (args.a, args.b)
    bundle = means.mean_bundle(*pair)
    rows = []
    for kind in means.MEAN_KINDS:
        if kind == "power":
            value = means.evaluate_mean("power", pair, r=means.POWER_DISPLAY_R)
            rows.append((f"power(r=2/3)", value))
        else:
            rows.append((kind, bundle[kind]))
    for name, value in rows:
        print(f"{name:12s} = {value!r}")
    return 0, dict(rows)


def _cmd_table(args: argparse.Namespace) -> tuple[int, None]:
    kernel = kernels.get_kernel(args.kernel)
    lo, hi = _inset(kernel.lo, kernel.hi, VerificationConfig().endpoint_eps)
    start = args.start if args.start is not None else lo
    stop = args.stop if args.stop is not None else hi
    if not start < stop:
        raise IneqForgeError(f"empty range [{start!r}, {stop!r}]")
    if args.count < 2:
        raise IneqForgeError("--count must be at least 2")
    # Every row is computed before the output is opened, so a failing row
    # leaves no partial table behind. The rows' t are the verifier's grid.
    grid = _Grid(start, stop, args.count)
    ts = [grid.at(i) for i in range(args.count)]
    values = []
    for t in ts:
        try:
            values.append(kernel.fn(t))
        except ArithmeticError as exc:
            raise IneqForgeError(f"{args.kernel} fails at t={t!r}: {exc}") from exc
    if args.csv and args.csv != "-":
        output = _open_output(args.csv, newline="")
    else:
        output = contextlib.nullcontext(sys.stdout)
    with output as out:
        writer = csv.writer(out)
        writer.writerow(["t", "value"])
        writer.writerows((repr(t), repr(value)) for t, value in zip(ts, values))
    return 0, None


def _cmd_suite(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _build_config(args)
    report = run_suite(cfg)
    width = max(len(row.name) for row in report.rows)
    for row in report.rows:
        mark = "PASS" if row.passed else "FAIL"
        print(f"{mark} {row.name:<{width}s} {row.detail}")
    failed = [row for row in report.rows if not row.passed]
    print(
        f"{len(report.rows) - len(failed)}/{len(report.rows)} checks passed "
        f"in {report.elapsed_s:.1f}s"
    )
    return (0 if report.passed else 1), report.to_dict()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqforge",
        description="Verify inequality chains between bivariate means and their "
        "trigonometric/hyperbolic kernel forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list chains, probes, and kernels")
    p_list.add_argument("--chains", action="store_true")
    p_list.add_argument("--probes", action="store_true")
    p_list.add_argument("--kernels", action="store_true")
    p_list.set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", help="verify one chain on a dense grid")
    p_verify.add_argument("chain", help="chain id (see: ineqforge list --chains)")
    p_verify.add_argument("--json", metavar="PATH", help="write the report as JSON ('-' for stdout)")
    _add_config_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sharp = sub.add_parser("sharpness", help="perturb a probe constant and hunt for a violation")
    p_sharp.add_argument("probe", help="probe id (see: ineqforge list --probes)")
    p_sharp.add_argument("--json", metavar="PATH")
    _add_config_flags(p_sharp)
    p_sharp.set_defaults(func=_cmd_sharpness)

    p_const = sub.add_parser("constants", help="print the solved and closed-form constants")
    p_const.add_argument("--json", metavar="PATH")
    p_const.set_defaults(func=_cmd_constants)

    p_means = sub.add_parser("means", help="evaluate every mean for one pair")
    p_means.add_argument("--a", type=float, required=True)
    p_means.add_argument("--b", type=float, required=True)
    p_means.add_argument("--json", metavar="PATH")
    p_means.set_defaults(func=_cmd_means)

    p_table = sub.add_parser("table", help="dump a kernel as CSV for plotting elsewhere")
    p_table.add_argument("kernel", help="kernel id (see: ineqforge list --kernels)")
    p_table.add_argument("--start", type=float)
    p_table.add_argument("--stop", type=float)
    p_table.add_argument("--count", type=int, default=101)
    p_table.add_argument("--csv", metavar="PATH", help="output file ('-' or omit for stdout)")
    p_table.set_defaults(func=_cmd_table)

    p_suite = sub.add_parser("suite", help="run every packaged check")
    p_suite.add_argument("--json", metavar="PATH")
    _add_config_flags(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    json_path = getattr(args, "json", None)
    # With '--json -' stdout carries the JSON document and nothing else.
    text_out = sys.stderr if json_path == "-" else sys.stdout
    try:
        with contextlib.redirect_stdout(text_out):
            code, payload = args.func(args)
        if json_path:
            _write_json(json_path, payload)
        sys.stdout.flush()
    except IneqForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head` does. stdout is
        # pointed at devnull, so the flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
