"""Command-line front end.

Subcommands: validate, homology, euler, stabilize, flow, compare.
Only ``flow`` and ``load_surface_file`` load the numerical front end
(``flow_numerics``, and with it numpy); importing this module and the
exact subcommands do not.
Datum and surface descriptions live in versioned JSON files; exit codes
are 0 for success, 1 for a domain failure, 2 for a parse failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from . import simplicial_oracle
from .chain_complex import homology
from .errors import BadParams, OrbimorseError, ParseError
from .morse_datum import (
    CriticalPointRecord,
    FlowCount,
    MorseDatum,
    check_away_from_orders,
    coinvariant_complex,
    invariant_complex,
    orbifold_euler,
    underlying_euler,
    validate,
)
from .stabilization import builtin_sphere_datum, local_data_for, stabilize_point

SCHEMA_VERSION = "1"

__all__ = [
    "load_datum_file",
    "dump_datum_file",
    "datum_to_json",
    "datum_from_json",
    "load_surface_file",
    "load_facet_file",
    "parse_sphere_datum_spec",
    "main",
    "run",
]


# --------------------------------------------------------------------------
# datum files

def _context(what, index=None, key=None):
    """Where a bad value sits: ``what``, ``what[index]``, ``what.key`` or
    ``what[index].key``.  Callers pass the parts and the string is made
    only for an error message, so checking a good record formats none."""
    if index is not None:
        what = f"{what}[{index}]"
    return what if key is None else f"{what}.{key}"


def _require_keys(obj, required, optional, what, index=None):
    if not isinstance(obj, dict):
        raise ParseError(f"{_context(what, index)}: expected an object,"
                         f" got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ParseError(f"{_context(what, index)}: missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"{_context(what, index)}: unknown key {key!r}")


def _expected(kind, value, what, index=None, key=None):
    return ParseError(f"{_context(what, index, key)}: expected {kind},"
                      f" got {value!r}")


def _as_list(value, context):
    if not isinstance(value, list):
        raise ParseError(f"{context}: expected a list, got {type(value).__name__}")
    return value


_POINT_KEYS = {"id", "index", "stab"}
_STABLE_POINT_KEYS = _POINT_KEYS | {"stable"}
_FLOW_KEYS = {"from", "to", "count"}


def _record(cls, fields):
    """A frozen ``cls`` record holding ``fields``, every field given.

    The parser builds its records here, without the dataclass ``__init__``
    that sets each field through ``object.__setattr__``; the values are
    already checked, and ``==`` and ``hash`` read the same fields either
    way."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def datum_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    _require_keys(data, ("schema_version", "points", "flows"),
                  ("ambient_dimension",), "datum file")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {data['schema_version']!r}; this"
            f" build reads version {SCHEMA_VERSION!r}")
    ambient = data.get("ambient_dimension")
    if ambient is not None and type(ambient) is not int:
        raise _expected("an integer", ambient, "ambient_dimension")

    # Each record is read once.  The key set is tested first, then each
    # value by its exact type (type(x) is int, so a bool fails), in the
    # order that decides which fault a bad record reports.
    points = []
    for i, raw in enumerate(_as_list(data["points"], "points")):
        if type(raw) is not dict or not (raw.keys() == _POINT_KEYS
                                         or raw.keys() == _STABLE_POINT_KEYS):
            _require_keys(raw, ("id", "index", "stab"), ("stable",),
                          "points", i)
        label, index, stab = raw["id"], raw["index"], raw["stab"]
        stable = raw.get("stable", True)
        if type(stable) is not bool:
            raise ParseError(f"points[{i}]: stable must be true or false")
        if type(label) is not str:
            raise _expected("a string", label, "points", i, "id")
        if type(index) is not int:
            raise _expected("an integer", index, "points", i, "index")
        if type(stab) is not int:
            raise _expected("an integer", stab, "points", i, "stab")
        points.append(_record(CriticalPointRecord, {
            "id": label, "index": index, "stab_order": stab,
            "stable": stable}))

    flows = []
    for i, raw in enumerate(_as_list(data["flows"], "flows")):
        if type(raw) is not dict or raw.keys() != _FLOW_KEYS:
            _require_keys(raw, ("from", "to", "count"), (), "flows", i)
        source, target, count = raw["from"], raw["to"], raw["count"]
        if type(count) is not int and count is not None:
            if count != "unknown":  # the placeholder, as null is
                raise _expected("an integer", count, "flows", i, "count")
            count = None
        if type(source) is not str:
            raise _expected("a string", source, "flows", i, "from")
        if type(target) is not str:
            raise _expected("a string", target, "flows", i, "to")
        flows.append(_record(FlowCount, {
            "source": source, "target": target, "count": count}))

    return MorseDatum(points=tuple(points), flows=tuple(flows),
                      ambient_dimension=ambient)


# A JSON string holds no raw line break, so with ",\n" between items the
# encoder's only ",\n{" falls between two records and its only ',\n"'
# between two fields of one record.
_RECORDS = json.JSONEncoder(separators=(",\n", ": "))


def _record_lines(key, records):
    """``"key": [...]`` with one record per line."""
    if not records:
        return f'  "{key}": []'
    lines = (_RECORDS.encode(records)[1:-1]
             .replace(',\n"', ', "').replace(",\n{", ",\n    {"))
    return f'  "{key}": [\n    {lines}\n  ]'


def datum_to_json(datum):
    """The text of a datum file: one point or flow record per line."""
    fields = [f'  "schema_version": {json.dumps(SCHEMA_VERSION)}']
    if datum.ambient_dimension is not None:
        fields.append(
            f'  "ambient_dimension": {json.dumps(datum.ambient_dimension)}')
    fields.append(_record_lines("points", [
        {"id": p.id, "index": p.index, "stab": p.stab_order, "stable": p.stable}
        for p in datum.points]))
    fields.append(_record_lines("flows", [
        {"from": f.source, "to": f.target,
         "count": f.count if f.known else "unknown"}
        for f in datum.flows]))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def load_datum_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return datum_from_json(text)


def dump_datum_file(datum, path):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(datum_to_json(datum))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


# --------------------------------------------------------------------------
# surface files

def load_surface_file(path):
    # the numerical front end loads numpy; only surface input needs it
    from . import flow_numerics

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    _require_keys(data, ("schema_version", "surface"),
                  ("group", "tolerances"), "surface file")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {data['schema_version']!r}")
    surface = data["surface"]
    _require_keys(surface, ("kind",), ("params",), "surface")
    if not isinstance(surface["kind"], str):
        raise ParseError(
            f"surface.kind: expected a string, got {surface['kind']!r}")
    group = data.get("group")  # absent: the kind's default group
    if "group" in data and not (isinstance(group, list) and all(
            isinstance(g, str) for g in group)):
        raise ParseError("group must be a list of generator names")
    params = surface.get("params", {})
    if not isinstance(params, dict):
        raise ParseError(
            f"surface.params: expected an object, got {type(params).__name__}")
    tolerances = data.get("tolerances", {})
    _require_keys(tolerances, (), {
        f.name for f in dataclasses.fields(flow_numerics.Tolerances)},
        "tolerances")
    try:  # the library checks the values
        return flow_numerics.surface_from_spec(
            surface["kind"], params, group,
            flow_numerics.Tolerances(**tolerances))
    except BadParams as exc:
        raise ParseError(str(exc)) from None


# --------------------------------------------------------------------------
# other inputs

def load_facet_file(path):
    """One facet per line, whitespace-separated vertex labels."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    facets = [line.split() for line in lines if line.split()]
    if not facets:
        raise ParseError(f"{path} contains no facets")
    return simplicial_oracle.SimplicialComplex.from_facets(facets)


_SPHERE_SPEC = re.compile(r"^([a-z_0-9]+)(?:\((.*)\))?$")


def parse_sphere_datum_spec(spec):
    match = _SPHERE_SPEC.match(spec.strip())
    if not match:
        raise ParseError(f"cannot parse sphere datum spec {spec!r}")
    name, arg_text = match.groups()
    params = ()
    if arg_text:
        try:
            params = tuple(int(a.strip()) for a in arg_text.split(","))
        except ValueError:
            raise ParseError(f"non-integer parameter in {spec!r}") from None
    return name, params


# --------------------------------------------------------------------------
# output helpers

def _homology_table(groups):
    lines = ["degree  betti  torsion  group"]
    for g in sorted(groups, key=lambda g: g.degree):
        torsion = ",".join(str(t) for t in g.torsion) if g.torsion else "-"
        lines.append(f"{g.degree:>6}  {g.betti:>5}  {torsion:>7}  {g.describe()}")
    return lines


def _homology_machine(groups):
    lines = []
    for g in sorted(groups, key=lambda g: g.degree):
        line = f"{g.degree} {g.betti}"
        if g.torsion:
            line += " " + ",".join(str(t) for t in g.torsion)
        lines.append(line)
    return lines


# --------------------------------------------------------------------------
# subcommands

def _cmd_validate(args):
    datum = load_datum_file(args.datum)
    report = validate(datum)
    if report.ok:
        unknown = [f for f in datum.flows if not f.known]
        print(f"valid: {len(datum.points)} points, {len(datum.flows)} flows"
              + (f" ({len(unknown)} unknown)" if unknown else ""))
        return 0
    for violation in report.violations:
        print(f"{violation.rule}: {violation.message}")
    return 1


def _cmd_homology(args):
    datum = load_datum_file(args.datum)
    which = [("co", coinvariant_complex), ("in", invariant_complex)]
    if args.complex != "both":
        which = [w for w in which if w[0] == args.complex]
    prefix = args.complex == "both"
    results = [(name, homology(builder(datum))) for name, builder in which]
    if prefix:
        # isomorphic over Z[1/N]: a free check of both eliminations
        check_away_from_orders(datum, results[0][1], results[1][1])
    for name, groups in results:
        if args.format == "table":
            print(f"[{name}]")
            print("\n".join(_homology_table(groups)))
        else:
            for line in _homology_machine(groups):
                print(f"{name} {line}" if prefix else line)
    return 0


def _cmd_euler(args):
    datum = load_datum_file(args.datum)
    chi = orbifold_euler(datum)
    print(f"orbifold euler: {chi}")
    print(f"underlying euler: {underlying_euler(datum)}")
    return 0


def _cmd_stabilize(args):
    datum = load_datum_file(args.datum)
    name, params = parse_sphere_datum_spec(args.h)
    sphere = builtin_sphere_datum(name, *params)
    local = local_data_for(datum, args.point_id, sphere)
    result = stabilize_point(datum, local, sphere)
    dump_datum_file(result.datum, args.out)
    print(f"wrote {len(result.datum.points)} points, "
          f"{len(result.stale_flow_pairs)} unknown flow pairs to {args.out}")
    print("new points: " + ", ".join(result.new_point_ids))
    return 0


def _cmd_flow(args):
    from . import flow_numerics

    surface = load_surface_file(args.surface)
    orbits = flow_numerics.find_critical_orbits(surface)
    if args.stabilize and not all(o.stable for o in orbits):
        surface, orbits = flow_numerics.stabilize_all(surface, orbits)
    datum = flow_numerics.quotient_to_datum(surface, orbits)
    dump_datum_file(datum, args.out)
    print(f"wrote {len(datum.points)} points, {len(datum.flows)} flows"
          f" to {args.out}")
    return 0


def _cmd_compare(args):
    datum = load_datum_file(args.datum)
    builder = coinvariant_complex if args.complex == "co" else invariant_complex
    left = homology(builder(datum))
    if args.space in simplicial_oracle.builtin_space_names():
        space = simplicial_oracle.builtin_space(args.space)
    else:
        space = load_facet_file(args.space)
    right = simplicial_oracle.simplicial_homology(space)
    report = simplicial_oracle.compare_homology(left, right)
    for line in report.lines():
        print(line)
    return 0 if report.match else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="orbimorse",
        description="Morse chain complexes for orbifolds: exact homology,"
                    " stabilization bookkeeping, and numerical flow counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a datum file's invariants")
    p.add_argument("datum")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("homology", help="homology of the datum's complexes")
    p.add_argument("datum")
    p.add_argument("--complex", choices=("co", "in", "both"), default="both")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("euler", help="orbifold and underlying Euler numbers")
    p.add_argument("datum")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("stabilize", help="stabilize one critical point")
    p.add_argument("datum")
    p.add_argument("point_id")
    p.add_argument("--h", required=True,
                   help="built-in sphere datum, e.g. cyclic_rotation_circle(3)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("flow", help="discover a datum numerically")
    p.add_argument("surface")
    p.add_argument("--out", required=True)
    p.add_argument("--stabilize", action="store_true",
                   help="apply numerical stabilization to every unstable point")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("compare", help="compare datum homology with a space")
    p.add_argument("datum")
    p.add_argument("space",
                   help="built-in space name or a facet-list file path")
    p.add_argument("--complex", choices=("co", "in"), default="co")
    p.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OrbimorseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())
