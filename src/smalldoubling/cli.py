"""Command-line front end.

Every subcommand runs one verifier and emits a versioned JSON run record
(config + certificate payload).  Exit codes: 0 verified, 1 a finding
(theorem violation, failed recheck, discovered Kneser failure), 2 usage or
precondition errors.  Rationals cross this boundary only as "p/q" strings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import certificates, groups
from .errors import SmallDoublingError, TheoryViolation, UsageError
from .rationals import parse_rational, rational_str
from .schema import COMMANDS, DEFAULT_CAPS, Option, _check_caps, check_group

# Help of the command-line words that only group other commands.
_GROUP_HELP = {"conv": "convolution tools", "search": "counterexample searches"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit so main() owns codes
        raise UsageError(message)


def _decimal(text: str) -> Optional[int]:
    """The value of a decimal token, or None if it is not one or has more
    digits than Python converts to an int."""
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _read_json(path, what: str):
    """The JSON value in file `path`; a file that cannot be read or decoded
    as UTF-8 JSON (nested past the parser's depth too) is a UsageError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def parse_group_spec(text: str) -> dict:
    """Inline spec like cyclic:12 or sym:3xcyclic:2, or a path to a JSON file,
    not yet checked: `_config_from_args` checks it like a certificate's
    config.group, and builds the group from the key that check returns."""
    if text.endswith(".json") or os.path.isfile(text):  # False on any OSError
        return _read_json(text, "group file")
    specs = []
    for part in text.split("x"):
        kind, _, digits = part.strip().partition(":")
        kind = {"sym": "symmetric"}.get(kind, kind)
        n = _decimal(digits)
        if kind not in groups.PRESETS or n is None:
            raise UsageError(
                f"bad group spec {part!r} (expected kind:n, e.g. cyclic:12, "
                "sym:3, dihedral:4, quaternion:2, or a JSON file path)"
            )
        specs.append({"preset": kind, "n": n})
    return specs[0] if len(specs) == 1 else {"preset": "direct_product", "factors": specs}


def parse_set_elements(G: groups.GroupTable, text: str) -> list[int]:
    """Comma-separated element indices, or labels where unambiguous: a token
    that is an index and also the label of another element is refused, and
    a decimal token that is no index but a label means that label.  A label
    may hold commas, as every product label does: the longest run of pieces
    whose join is a label, such as "(r1,0)", is read as that label, and
    refused if its first piece alone also names an element."""
    label_index = {label: i for i, label in enumerate(G.labels)}
    most = max(label.count(",") for label in G.labels) + 1  # pieces in one label
    pieces = text.split(",")
    out = []
    start = 0
    while start < len(pieces):
        first = pieces[start].strip()
        value = _decimal(first)
        is_index = value is not None and value < G.order
        ends = range(min(start + most, len(pieces)), start + 1, -1)
        end = next((end for end in ends if ",".join(pieces[start:end]).strip() in label_index),
                   start + 1)
        token = ",".join(pieces[start:end]).strip()
        start = end
        if token != first:  # a label of two or more pieces
            if is_index or first in label_index:
                raise UsageError(
                    f"element {token!r} of {G.name} is ambiguous: the element labelled "
                    f"{token!r}, or a list that starts with {first!r}"
                )
            out.append(label_index[token])
        elif not token:
            continue
        elif is_index:
            if label_index.get(token, value) != value:
                raise UsageError(
                    f"element {token!r} of {G.name} is ambiguous: index {value}, or the "
                    f"element labelled {token!r}, index {label_index[token]}"
                )
            out.append(value)
        elif token in label_index:
            out.append(label_index[token])
        elif value is not None:
            raise UsageError(f"element index {value} outside group of order {G.order}")
        else:
            raise UsageError(f"unknown element {token!r} in group {G.name}")
    return sorted(set(out))


def _rational_arg(text: str) -> str:
    """A command-line rational in its one config form: "1" -> "1/1", "2/4" -> "1/2"."""
    try:
        return rational_str(parse_rational(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser, *, sets: tuple[str, ...]) -> None:
    parser.add_argument("--group", required=True, help="group spec or JSON file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=ELEMS",
        help="named set, e.g. A=0,1,2 (labels allowed)",
    )
    for name in sets:
        parser.add_argument(
            f"--set{name}", action="append", dest="set", type=f"{name}={{}}".format,
            metavar="ELEMS", help=f"shorthand for --set {name}=...",
        )
    _add_output_and_caps(parser)


def _add_output_and_caps(parser: argparse.ArgumentParser) -> None:
    """--format, --out and the three caps, each defaulting to DEFAULT_CAPS."""
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the output to this file (atomically)")
    for key, default in DEFAULT_CAPS.items():
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=int, default=default,
            help=f"default {default}; on recheck, the ceiling a certificate may only lower",
        )


def _add_option(parser: argparse.ArgumentParser, name: str, opt: Option) -> None:
    flag = opt.flag or "--" + name.replace("_", "-")
    if opt.kind == "bool":
        action = "store_false" if opt.default else "store_true"
        parser.add_argument(flag, dest=name, action=action, help=opt.help)
        return
    kwargs = {
        "int": {"type": int},
        "rational": {"type": _rational_arg},
        "choice": {"choices": [*opt.choices, *(opt.aliases or ())]},
    }[opt.kind]
    parser.add_argument(
        flag, dest=name, required=opt.required, default=opt.default, help=opt.help, **kwargs
    )


def build_parser() -> _Parser:
    """The command line of every entry of the command table, plus recheck."""
    parser = _Parser(prog="smalldoubling", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {certificates.TOOL_VERSION}"
    )
    top = parser.add_subparsers(dest="subcommand", required=True)
    nested: dict = {}
    for entry in COMMANDS.values():
        *words, leaf = entry.path
        sub = top
        for word in words:
            if word not in nested:
                group = top.add_parser(word, help=_GROUP_HELP[word])
                nested[word] = group.add_subparsers(dest=f"{word}_command", required=True)
            sub = nested[word]
        p = sub.add_parser(leaf, help=entry.help)
        p.set_defaults(command=entry.name)
        _add_common(p, sets=entry.sets)
        for name, opt in entry.options.items():
            _add_option(p, name, opt)

    p = top.add_parser("recheck", help="replay a certificate and compare field by field")
    p.set_defaults(command="recheck")
    p.add_argument("certificate", help="path to a run-record JSON file")
    _add_output_and_caps(p)
    return parser


def _collect_sets(args, G: groups.GroupTable) -> dict:
    raw: dict[str, str] = {}
    for entry in args.set:  # --set NAME=ELEMS and --setNAME ELEMS alike
        if "=" not in entry:
            raise UsageError(f"--set needs NAME=ELEMS, got {entry!r}")
        name, _, elems = entry.partition("=")
        name = name.strip()
        if name in raw:
            raise UsageError(f"set {name!r} is given more than once")
        raw[name] = elems
    # Missing and unknown set names are refused with the rest of the config.
    return {name: parse_set_elements(G, text) for name, text in raw.items()}


def _config_from_args(args, caps: dict) -> tuple[dict, groups.GroupTable]:
    """The replayable config of a run command, in its one accepted form, and
    its group."""
    entry = COMMANDS[args.command]
    group_spec = parse_group_spec(args.group)
    # Building the checked spec's key resolves set labels and surfaces cap
    # violations and invalid tables before any solver runs; the run reuses the group.
    G = groups._build_spec(check_group(group_spec, "--group"), caps["order_cap"])
    config = {"group": group_spec, "caps": caps}
    sets = _collect_sets(args, G)
    if sets:
        config["sets"] = sets
    for name, opt in entry.options.items():
        value = getattr(args, name)
        if value is not None:
            config[name] = (opt.aliases or {}).get(value, value)
    return config, G


def _render_text(value, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key in value:
            lines.extend(_render_text(value[key], f"{prefix}.{key}" if prefix else key))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{prefix} = [{', '.join(str(v) for v in value)}]"]
        lines = []
        for i, v in enumerate(value):
            lines.extend(_render_text(v, f"{prefix}[{i}]"))
        return lines
    return [f"{prefix} = {value}"]


def _emit(document: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_render_text(document)) + "\n"
    try:  # before any file exists; a label may hold a lone surrogate
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UsageError(f"cannot encode the output as UTF-8: {exc}") from exc
    if out is None:  # the bytes, not the locale's codec
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        return
    target = Path(out)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _run_recheck(args, caps: dict) -> int:
    path = Path(args.certificate)
    record = _read_json(path, "certificate")
    report = certificates.recheck(record, caps)
    document = {
        "command": "recheck",
        "certificate": str(path),
        "ok": report.ok,
        "diffs": [
            {"path": p, "stored": s, "recomputed": r} for p, s, r in report.diffs
        ],
    }
    _emit(document, args.format, args.out)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The cap flags are checked like a config's caps, before any group is built.
        caps = _check_caps({key: getattr(args, key) for key in DEFAULT_CAPS}, None)
        if args.command == "recheck":
            return _run_recheck(args, caps)
        config, G = _config_from_args(args, caps)
        started = time.perf_counter()
        payload = certificates.run(args.command, config, group=G)
        wall = time.perf_counter() - started
        record = certificates.make_record(args.command, config, payload, wall_time_s=wall)
        _emit(record, args.format, args.out)
        return 0 if COMMANDS[args.command].ok(payload) else 1
    except (SmallDoublingError, ValueError) as exc:
        error = {"code": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps({"error": error}) + "\n")
        return 1 if isinstance(exc, TheoryViolation) else 2


if __name__ == "__main__":
    raise SystemExit(main())
