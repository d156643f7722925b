"""Command-line front end.

Loads a JSON configuration describing named classes, stability tables,
an optional pairing matrix, reduction counts, and invariant entries;
then runs coefficient tables (``ucoeff``), wall-crossing evaluations
(``wallcross`` and its quantum-torus alias ``vwnum``), descendent
transformations (``descendent``), or the acceptance checks
(``selftest``).  All emitted numbers are exact rationals or Laurent
expressions — never floating point.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .descendent import dt_to_pt, y_recursion
from .errors import ConfigError, WallxError
from .freelie import LieElement, standard_split
from .ring import LaurentElement, integer_entry, slope_entry
from .selftest import run_all
from .ucoeff import (
    EffectiveMonoid,
    S_coeff,
    StabilityData,
    U_coeff,
    pairing_form,
    utilde_lie_element,
)
from .wallcross import InvariantTable, vw_wcf

L = LaurentElement

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_SYMBOL = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SECTIONS = ("classes", "stabilities", "chi", "o", "invariants")


# -- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """Parsed and validated configuration document.

    Slope entries and invariant values are stored in canonical string
    form, so two documents that say the same thing (``"2/4"`` and
    ``["1/2"]``, ``"3"`` and ``3``) parse to equal configs.
    """

    classes: dict
    stabilities: dict
    chi: tuple | None
    o: dict
    invariants: dict


def _line_of(text: str, path: tuple) -> int | None:
    """Line of the last key of ``path`` (section, then table, then class),
    each key searched for from the end of the previous key's match."""
    at = 0
    for key in path:
        at = text.find(f'"{key}"', at)
        if at < 0:
            return None
        at += len(key) + 2
    return text.count("\n", 0, at) + 1


def _fail(text: str, path: tuple, message: str):
    line = _line_of(text, path)
    where = f"line {line}: " if line is not None else ""
    raise ConfigError(f"{where}{message}")


def _require_int(value, text: str, path: tuple, what: str) -> int:
    try:
        return integer_entry(value)
    except ValueError:
        _fail(text, path, f"{what} must be an integer, got {value!r}")


def _canon_slope(entry, text: str, path: tuple) -> str:
    try:
        tier, value = slope_entry(entry)
    except ValueError as exc:
        _fail(text, path, str(exc))
    return {-1: "-inf", 1: "inf"}.get(tier, str(value))


def _canon_invariant(value, text: str, path: tuple) -> str:
    key = path[-1]
    if isinstance(value, bool) or isinstance(value, float):
        _fail(text, path, f"invariant for {key!r} must be an integer or a string")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        s = value.strip()
        if _RATIONAL.match(s):
            try:
                return str(Fraction(s))
            except ZeroDivisionError:
                _fail(text, path, f"invariant {value!r} has a zero denominator")
        if _SYMBOL.match(s):
            return s
        _fail(text, path, f"invariant {value!r} is neither a rational nor a symbol name")
    _fail(text, path, f"invariant for {key!r} must be an integer or a string")


def _section_map(raw: dict, section: str, text: str) -> dict:
    """The optional ``section`` of the document, which must be an object."""
    value = raw.get(section, {})
    if not isinstance(value, dict):
        _fail(text, (section,), f"{section} must be a JSON object")
    return value


def _named_nat_map(raw, classes: dict, text: str, section: str) -> dict:
    out = {}
    for name, value in raw.items():
        path = (section, name)
        if name not in classes:
            _fail(text, path, f"{section} references unknown class {name!r}")
        count = _require_int(value, text, path, f"{section}[{name!r}]")
        if count < 0:
            _fail(text, path, f"{section}[{name!r}] must be nonnegative")
        out[name] = count
    return out


def parse_config(text: str) -> Config:
    """Parse and validate a configuration document, with line hints."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("the configuration must be a JSON object")
    for key in raw:
        if key not in _SECTIONS:
            _fail(text, (key,), f"unknown section {key!r}; expected one of {_SECTIONS}")

    if "classes" not in raw or not isinstance(raw["classes"], dict) or not raw["classes"]:
        raise ConfigError("a non-empty 'classes' section is required")
    classes: dict = {}
    dim = None
    for name, vector in raw["classes"].items():
        path = ("classes", name)
        if not isinstance(name, str) or not name:
            _fail(text, path, "class names must be non-empty strings")
        if not isinstance(vector, list) or not vector:
            _fail(text, path, f"class {name!r} must be a non-empty integer array")
        vec = tuple(_require_int(x, text, path, f"class {name!r} entry") for x in vector)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            _fail(text, path, f"class {name!r} has dimension {len(vec)}, expected {dim}")
        if sum(vec) <= 0:
            _fail(text, path, f"class {name!r} must have positive total mass")
        if vec in classes.values():
            _fail(text, path, f"class {name!r} duplicates another class vector")
        classes[name] = vec

    stabilities: dict = {}
    for table_name, table in _section_map(raw, "stabilities", text).items():
        if not isinstance(table, dict) or not table:
            _fail(
                text,
                ("stabilities", table_name),
                f"stability table {table_name!r} must be a non-empty map",
            )
        parsed: dict = {}
        width = None
        for cls_name, entries in table.items():
            path = ("stabilities", table_name, cls_name)
            if cls_name not in classes:
                _fail(
                    text,
                    path,
                    f"stability table {table_name!r} references unknown class {cls_name!r}",
                )
            if not isinstance(entries, list):
                entries = [entries]
            if not entries:
                _fail(text, path, f"slope for {cls_name!r} must not be empty")
            tup = tuple(_canon_slope(e, text, path) for e in entries)
            if width is None:
                width = len(tup)
            elif len(tup) != width:
                _fail(
                    text,
                    path,
                    f"slope for {cls_name!r} has {len(tup)} entries; "
                    f"table {table_name!r} uses {width}",
                )
            parsed[cls_name] = tup
        stabilities[table_name] = parsed

    chi = None
    if "chi" in raw:
        rows = raw["chi"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            _fail(text, ("chi",), "chi must be an array of integer arrays")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            _fail(text, ("chi",), f"chi must be a {dim}x{dim} matrix")
        for row in rows:
            for x in row:
                _require_int(x, text, ("chi",), "chi entry")
        try:
            chi = pairing_form(rows)
        except ValueError as exc:
            _fail(text, ("chi",), str(exc))

    o = _named_nat_map(_section_map(raw, "o", text), classes, text, "o")
    if o and len(o) < len(classes):
        missing = ", ".join(name for name in classes if name not in o)
        _fail(text, ("o",), f"o must give a count for every class; missing: {missing}")

    invariants: dict = {}
    for name, value in _section_map(raw, "invariants", text).items():
        path = ("invariants", name)
        if name not in classes:
            _fail(text, path, f"invariants references unknown class {name!r}")
        invariants[name] = _canon_invariant(value, text, path)

    return Config(classes, stabilities, chi, o, invariants)


# -- config -> algebra objects ------------------------------------------------------


def class_vector(config: Config, name: str) -> tuple:
    try:
        return config.classes[name]
    except KeyError:
        raise ConfigError(
            f"unknown class {name!r}; available: {', '.join(config.classes)}"
        ) from None


def build_monoid(config: Config) -> EffectiveMonoid:
    return EffectiveMonoid(config.classes.values())


def build_stability(config: Config, name: str) -> StabilityData:
    try:
        table = config.stabilities[name]
    except KeyError:
        available = ", ".join(config.stabilities) or "none"
        raise ConfigError(
            f"unknown stability table {name!r}; available: {available}"
        ) from None
    slope = {config.classes[cls]: entries for cls, entries in table.items()}
    return StabilityData(slope, name=name)


def _value_of(canonical: str) -> LaurentElement:
    if _RATIONAL.match(canonical):
        return L.const(Fraction(canonical))
    return L.gen(canonical)


def build_invariant_table(config: Config, monoid: EffectiveMonoid) -> InvariantTable:
    if not config.invariants:
        raise ConfigError("an 'invariants' section is required for this command")
    entries = {
        config.classes[name]: _value_of(value)
        for name, value in config.invariants.items()
    }
    return InvariantTable(entries, monoid=monoid)


def _name_map(config: Config) -> dict:
    return {vec: name for name, vec in config.classes.items()}


def _part_label(vec: tuple, names: dict) -> str:
    return names.get(vec) or "(" + ",".join(str(x) for x in vec) + ")"


# -- command implementations --------------------------------------------------------


def cmd_ucoeff(
    config: Config, target: str, tau: str, tau_prime: str, max_parts: int
) -> dict:
    """S/U/Ũ rows for every ordered splitting of the target class."""
    monoid = build_monoid(config)
    vec = class_vector(config, target)
    t1 = build_stability(config, tau)
    t2 = build_stability(config, tau_prime)
    names = _name_map(config)
    rows = []
    for parts in monoid.decompositions(vec, max_parts=max_parts):
        u = U_coeff(parts, t1, t2)
        rows.append(
            {
                "parts": [list(p) for p in parts],
                "names": [_part_label(p, names) for p in parts],
                "S": str(S_coeff(parts, t1, t2)),
                "U": str(u),
                "Utilde": str(u / len(parts)),
            }
        )
    return {
        "command": "ucoeff",
        "target": target,
        "tau": tau,
        "tau_prime": tau_prime,
        "max_parts": max_parts,
        "rows": rows,
    }


def _bracketing(word: tuple, ctx, label) -> str:
    if len(word) == 1:
        return label(word[0])
    left, right = standard_split(word, ctx)
    return f"[{_bracketing(left, ctx, label)},{_bracketing(right, ctx, label)}]"


def _lie_terms(element: LieElement, names: dict) -> list:
    ctx = element.context

    def label(cls) -> str:
        return f"z({_part_label(cls, names)})"

    out = []
    for word, coeff in sorted(
        element.terms.items(), key=lambda item: (len(item[0]), ctx.key(item[0]))
    ):
        out.append(
            {
                "word": [list(cls) for cls in word],
                "bracketing": _bracketing(word, ctx, label),
                "coeff": str(coeff),
            }
        )
    return out


def cmd_wallcross(
    config: Config,
    tau: str,
    tau_prime: str,
    backend: str,
    max_parts: int,
    target: str | None = None,
) -> dict:
    """Crossed invariant expressions, one row per target class."""
    monoid = build_monoid(config)
    t1 = build_stability(config, tau)
    t2 = build_stability(config, tau_prime)
    names = _name_map(config)
    if target is not None:
        targets = [target]
    elif config.invariants:
        targets = list(config.invariants)
    else:
        targets = list(config.classes)
    rows = []
    if backend == "qtorus":
        if config.chi is None:
            raise ConfigError("the qtorus backend needs a 'chi' section")
        table = build_invariant_table(config, monoid)
        o_table = {config.classes[name]: n for name, n in config.o.items()} or None
        for name in targets:
            vec = class_vector(config, name)
            value = vw_wcf(
                vec, t1, t2, table, config.chi,
                max_parts=max_parts, o_table=o_table,
            )
            rows.append({"class": name, "vector": list(vec), "value": str(value)})
    elif backend == "free":
        for name in targets:
            vec = class_vector(config, name)
            element = utilde_lie_element(vec, t1, t2, monoid, max_parts=max_parts)
            rows.append(
                {
                    "class": name,
                    "vector": list(vec),
                    "terms": _lie_terms(element, names),
                }
            )
    else:
        raise ConfigError(f"unknown backend {backend!r}; expected free or qtorus")
    return {
        "command": "wallcross",
        "backend": backend,
        "tau": tau,
        "tau_prime": tau_prime,
        "max_parts": max_parts,
        "rows": rows,
    }


def cmd_descendent(keys: tuple) -> dict:
    """DT-to-PT transformation of the descendent indexed by ``keys``, and its
    corner coefficient; both are exact finite expressions, so nothing is
    truncated.
    """
    label = "sigma{" + ",".join(str(k) for k in keys) + "}"
    return {
        "command": "descendent",
        "N": len(keys),
        "keys": list(keys),
        "label": label,
        "expansion": str(dt_to_pt(keys)),
        "corner": str(y_recursion(keys)),
    }


def cmd_selftest(report=None) -> dict:
    """Run every acceptance criterion; nonzero failure count on any miss."""
    results = run_all(report=report)
    return {
        "command": "selftest",
        "criteria": [
            {
                "number": r.number,
                "label": r.label,
                "status": "pass" if r.passed else "fail",
                "seconds": f"{r.seconds:.3f}",
                **({"detail": r.detail} if r.detail else {}),
            }
            for r in results
        ],
        "failures": sum(1 for r in results if not r.passed),
    }


# -- rendering ----------------------------------------------------------------------


def _print_table(rows: list, headers: list, out) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(), file=out)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)


def _render_ucoeff(tree: dict, out) -> None:
    print(
        f"splittings of {tree['target']} from {tree['tau']} to {tree['tau_prime']}"
        f" (max parts {tree['max_parts']})",
        file=out,
    )
    rows = [
        [" ".join(r["names"]), r["S"], r["U"], r["Utilde"]] for r in tree["rows"]
    ]
    _print_table(rows, ["parts", "S", "U", "Utilde"], out)


def _render_wallcross(tree: dict, out) -> None:
    print(
        f"crossing from {tree['tau']} to {tree['tau_prime']}"
        f" (backend {tree['backend']}, max parts {tree['max_parts']})",
        file=out,
    )
    for row in tree["rows"]:
        if "value" in row:
            print(f"{row['class']} = {row['value']}", file=out)
        else:
            terms = row["terms"]
            if not terms:
                rendered = "0"
            else:
                bits = []
                for t in terms:
                    coeff = t["coeff"]
                    bits.append(
                        t["bracketing"] if coeff == "1" else f"{coeff}*{t['bracketing']}"
                    )
                rendered = " + ".join(bits)
            print(f"{row['class']} = {rendered}", file=out)


def _render_descendent(tree: dict, out) -> None:
    print(f"DT({tree['label']}) = {tree['expansion']}", file=out)
    print(f"Y({tree['label']}) = {tree['corner']}", file=out)


# -- argument parsing ---------------------------------------------------------------


def _read_config(args) -> Config:
    path = getattr(args, "config", None)
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_config(text)


def _emit(tree: dict, args, renderer) -> None:
    if args.format == "machine":
        print(json.dumps(tree, indent=2))
    else:
        renderer(tree, sys.stdout)


def _parse_keys(spec: str) -> tuple:
    spec = spec.strip()
    if not spec:
        return ()
    try:
        return tuple(int(part.strip()) for part in spec.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse keys {spec!r}; expected e.g. 1,2,3") from None


def _handle_ucoeff(args) -> int:
    config = _read_config(args)
    tree = cmd_ucoeff(config, args.target, args.tau, args.tau_prime, args.max_parts)
    _emit(tree, args, _render_ucoeff)
    return 0


def _handle_wallcross(args) -> int:
    config = _read_config(args)
    tree = cmd_wallcross(
        config, args.tau, args.tau_prime, args.backend, args.max_parts, args.target
    )
    _emit(tree, args, _render_wallcross)
    return 0


def _handle_descendent(args) -> int:
    tree = cmd_descendent(_parse_keys(args.keys))
    _emit(tree, args, _render_descendent)
    return 0


def _handle_selftest(args) -> int:
    if args.format == "machine":
        tree = cmd_selftest(report=None)
        print(json.dumps(tree, indent=2))
    else:
        tree = cmd_selftest(report=print)
        failures = tree["failures"]
        total = len(tree["criteria"])
        print(f"{total} criteria, {failures} failure{'s' if failures != 1 else ''}")
    return 1 if tree["failures"] else 0


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="output style (machine emits a JSON tree)",
    )


def _add_config(parser) -> None:
    parser.add_argument(
        "config",
        nargs="?",
        default=None,
        help="configuration file path ('-' or omitted: read standard input)",
    )


def _add_stability_pair(parser) -> None:
    parser.add_argument("--tau", required=True, help="name of the source stability table")
    parser.add_argument(
        "--tau-prime", required=True, help="name of the target stability table"
    )


def _add_max_parts(parser) -> None:
    parser.add_argument(
        "--max-parts", type=int, default=8, help="decomposition cap, at least 1 (default 8)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallx",
        description="Exact wall-crossing, coefficient, and descendent computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ucoeff", help="S/U/Utilde table for one target class")
    _add_config(p)
    p.add_argument("--target", required=True, help="name of the class to split")
    _add_stability_pair(p)
    _add_max_parts(p)
    _add_format(p)
    p.set_defaults(handler=_handle_ucoeff)

    p = sub.add_parser("wallcross", help="crossed invariant expressions")
    _add_config(p)
    _add_stability_pair(p)
    p.add_argument("--target", default=None, help="restrict to one class name")
    p.add_argument(
        "--backend",
        choices=("free", "qtorus"),
        default="free",
        help="bracket backend: formal letters or the quantum torus",
    )
    _add_max_parts(p)
    _add_format(p)
    p.set_defaults(handler=_handle_wallcross)

    p = sub.add_parser("vwnum", help="wallcross with the quantum-torus backend")
    _add_config(p)
    _add_stability_pair(p)
    p.add_argument("--target", default=None, help="restrict to one class name")
    _add_max_parts(p)
    _add_format(p)
    p.set_defaults(handler=_handle_wallcross, backend="qtorus")

    p = sub.add_parser("descendent", help="DT-to-PT descendent transformation")
    p.add_argument(
        "--keys",
        default="",
        help="comma-separated insertion keys, e.g. 1,2 (empty for none)",
    )
    _add_format(p)
    p.set_defaults(handler=_handle_descendent)

    p = sub.add_parser("selftest", help="run every acceptance criterion")
    _add_format(p)
    p.set_defaults(handler=_handle_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_parts", 1) < 1:
        parser.error(f"argument --max-parts: must be at least 1, got {args.max_parts}")
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WallxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
