import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import orbimorse
from orbimorse.cli import (
    datum_from_json,
    datum_to_json,
    dump_datum_file,
    load_datum_file,
    load_facet_file,
    load_surface_file,
    main,
    parse_sphere_datum_spec,
)
from orbimorse.errors import ParseError
from conftest import make_bean, make_teardrop, make_witness


def write_datum(tmp_path, datum, name="datum.json"):
    path = tmp_path / name
    dump_datum_file(datum, path)
    return str(path)


def write_text(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDatumFiles:
    def test_round_trip_is_identity(self, tmp_path):
        datum = make_teardrop(2, 3)
        path = write_datum(tmp_path, datum)
        assert load_datum_file(path) == datum
        # and the serialization itself is stable
        assert datum_to_json(load_datum_file(path)) == datum_to_json(datum)

    def test_unknown_counts_round_trip(self, tmp_path):
        from orbimorse.morse_datum import CriticalPointRecord, FlowCount, MorseDatum

        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 2, stable=False),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", None),))
        path = write_datum(tmp_path, datum)
        assert load_datum_file(path) == datum

    def test_one_record_per_line(self):
        from orbimorse.morse_datum import CriticalPointRecord, FlowCount, MorseDatum

        # labels holding the layout's own separators, a line break and a
        # character outside ASCII must not move a line
        odd = 'q}, {"x",\n'
        datum = MorseDatum(
            points=(CriticalPointRecord(odd, 0, 3),
                    CriticalPointRecord("pé", 1, 1, stable=False)),
            flows=(FlowCount("pé", odd, -1),
                   FlowCount("pé", odd, None)),
            ambient_dimension=2)
        text = datum_to_json(datum)
        assert text == (
            '{\n'
            '  "schema_version": "1",\n'
            '  "ambient_dimension": 2,\n'
            '  "points": [\n'
            '    {"id": "q}, {\\"x\\",\\n", "index": 0, "stab": 3,'
            ' "stable": true},\n'
            '    {"id": "p\\u00e9", "index": 1, "stab": 1, "stable": false}\n'
            '  ],\n'
            '  "flows": [\n'
            '    {"from": "p\\u00e9", "to": "q}, {\\"x\\",\\n", "count": -1},\n'
            '    {"from": "p\\u00e9", "to": "q}, {\\"x\\",\\n",'
            ' "count": "unknown"}\n'
            '  ]\n'
            '}\n')
        assert datum_from_json(text) == datum
        empty = MorseDatum(points=(), flows=())
        text = datum_to_json(empty)
        assert text == ('{\n  "schema_version": "1",\n  "points": [],\n'
                        '  "flows": []\n}\n')
        assert datum_from_json(text) == empty

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            datum_from_json("not json at all {")
        with pytest.raises(ParseError):
            datum_from_json(json.dumps({"schema_version": "1", "points": []}))
        with pytest.raises(ParseError):
            datum_from_json(json.dumps(
                {"schema_version": "99", "points": [], "flows": []}))
        with pytest.raises(ParseError):
            datum_from_json(json.dumps(
                {"schema_version": "1", "points": [], "flows": [],
                 "extra": 1}))
        with pytest.raises(ParseError):
            datum_from_json(json.dumps(
                {"schema_version": "1",
                 "points": [{"id": "a", "index": 0.5, "stab": 1}],
                 "flows": []}))
        with pytest.raises(ParseError):
            datum_from_json(json.dumps(
                {"schema_version": "1",
                 "points": [{"id": "a", "index": 0, "stab": 1}],
                 "flows": [{"from": "a", "to": "a", "count": True}]}))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["points"][1].update(index=0.5),
         "points[1].index: expected an integer, got 0.5"),
        (lambda d: d["points"][0].update(stab="2"),
         "points[0].stab: expected an integer, got '2'"),
        (lambda d: d["points"][2].update(x=1), "points[2]: unknown key 'x'"),
        (lambda d: d["points"][1].pop("id"), "points[1]: missing key 'id'"),
        (lambda d: d["points"].__setitem__(1, [1]),
         "points[1]: expected an object, got list"),
        (lambda d: d["points"][0].update(stable=1),
         "points[0]: stable must be true or false"),
        (lambda d: d["flows"][0].pop("count"),
         "flows[0]: missing key 'count'"),
        (lambda d: d["flows"][1].update(count=True),
         "flows[1].count: expected an integer, got True"),
        (lambda d: d["flows"][1].update(weight=2),
         "flows[1]: unknown key 'weight'"),
        (lambda d: d["flows"].__setitem__(0, "a->b"),
         "flows[0]: expected an object, got str"),
        (lambda d: d["points"][1].update(id=None),
         "points[1].id: expected a string, got None"),
        (lambda d: d["points"][2].update(id=3),
         "points[2].id: expected a string, got 3"),
        (lambda d: d["points"][0].update(id=["a"]),
         "points[0].id: expected a string, got ['a']"),
        (lambda d: d["flows"][0].update({"from": None}),
         "flows[0].from: expected a string, got None"),
        (lambda d: d["flows"][1].update({"from": 2}),
         "flows[1].from: expected a string, got 2"),
        (lambda d: d["flows"][0].update({"from": ["b"]}),
         "flows[0].from: expected a string, got ['b']"),
        (lambda d: d["flows"][1].update(to=None),
         "flows[1].to: expected a string, got None"),
        (lambda d: d["flows"][0].update(to=1.0),
         "flows[0].to: expected a string, got 1.0"),
        (lambda d: d["flows"][1].update(to=["b"]),
         "flows[1].to: expected a string, got ['b']"),
        (lambda d: d.update(ambient_dimension=2.0),
         "ambient_dimension: expected an integer, got 2.0"),
        (lambda d: d.update(points=5), "points: expected a list, got int"),
        (lambda d: d.update(flows={}), "flows: expected a list, got dict"),
        (lambda d: d.update(extra=1), "datum file: unknown key 'extra'"),
        (lambda d: d.pop("flows"), "datum file: missing key 'flows'"),
        (lambda d: d["points"][1].update(index=True),
         "points[1].index: expected an integer, got True"),
        (lambda d: d["points"][0].update(stab=True),
         "points[0].stab: expected an integer, got True"),
        (lambda d: d["points"][2].update(stable=None),
         "points[2]: stable must be true or false"),
        (lambda d: d["flows"][0].update(note="x"),
         "flows[0]: unknown key 'note'"),
        (lambda d: d["points"][0].update(stable=True, x=1),
         "points[0]: unknown key 'x'"),
        (lambda d: d["points"].__setitem__(
            1, {"id": "b", "index": 1, "stable": False}),
         "points[1]: missing key 'stab'"),
    ])
    def test_bad_record_messages(self, edit, message):
        data = {"schema_version": "1",
                "points": [{"id": "a", "index": 0, "stab": 1},
                           {"id": "b", "index": 1, "stab": 1},
                           {"id": "c", "index": 2, "stab": 1}],
                "flows": [{"from": "b", "to": "a", "count": 1},
                          {"from": "c", "to": "b", "count": 0}]}
        datum_from_json(json.dumps(data))
        edit(data)
        with pytest.raises(ParseError) as info:
            datum_from_json(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize("stable", [None, True, False],
                             ids=["stable-absent", "stable", "unstable"])
    @pytest.mark.parametrize("count", ["unknown", None],
                             ids=["unknown", "null"])
    def test_placeholder_counts_and_stable_key(self, count, stable):
        from orbimorse.morse_datum import CriticalPointRecord, FlowCount, MorseDatum

        point = {"id": "a", "index": 1, "stab": 2}
        if stable is not None:
            point["stable"] = stable
        text = json.dumps({"schema_version": "1",
                           "points": [point, {"id": "b", "index": 0, "stab": 2}],
                           "flows": [{"from": "a", "to": "b", "count": count},
                                     {"from": "b", "to": "a", "count": 3}]})
        datum = MorseDatum(
            points=(CriticalPointRecord("a", 1, 2, stable=stable is not False),
                    CriticalPointRecord("b", 0, 2)),
            flows=(FlowCount("a", "b", None), FlowCount("b", "a", 3)))
        assert datum_from_json(text) == datum
        assert datum_from_json(datum_to_json(datum)) == datum

    @pytest.mark.parametrize("points,flows", [
        (5, []), ([], 5), ([], None), (None, []), ({"a": 1}, []), ([], "ab"),
    ])
    def test_malformed_containers(self, tmp_path, capsys, points, flows):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1", "points": points, "flows": flows}),
            "bad.json")
        assert main(["homology", path]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_sphere_spec_parsing(self):
        assert parse_sphere_datum_spec("two_points_swap") == ("two_points_swap", ())
        assert parse_sphere_datum_spec("cyclic_rotation_circle(3)") == (
            "cyclic_rotation_circle", (3,))
        with pytest.raises(ParseError):
            parse_sphere_datum_spec("weird(x)")


class TestFastPathRecords:
    @pytest.mark.parametrize("cls,fields", [
        ("CriticalPointRecord",
         {"id": "p", "index": 2, "stab_order": 3, "stable": True}),
        ("CriticalPointRecord",
         {"id": "q", "index": 1, "stab_order": 2, "stable": False}),
        ("FlowCount", {"source": "p", "target": "q", "count": -4}),
        ("FlowCount", {"source": "p", "target": "q", "count": None}),
    ], ids=["point", "unstable-point", "flow", "unknown-flow"])
    def test_same_record_as_the_dataclass(self, cls, fields):
        from orbimorse import morse_datum
        from orbimorse.cli import _record

        cls = getattr(morse_datum, cls)
        built, fast = cls(**fields), _record(cls, fields)
        assert type(fast) is cls
        assert fast == built and built == fast
        assert hash(fast) == hash(built)
        assert repr(fast) == repr(built)
        assert {fast} == {built}
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.id = "other"


# Run in a fresh interpreter, since the test process has numpy loaded
# already: argv is the source directory, then the script's own arguments;
# the last line printed is the flow-side modules then loaded.
_LOADED = """\
import sys
sys.path.insert(0, sys.argv[1])
{body}
print(sorted(m for m in sys.modules
             if m.startswith("numpy") or m == "orbimorse.flow_numerics"))
"""


def loaded_after(body, *args):
    src = str(Path(orbimorse.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _LOADED.format(body=body), src,
         *map(str, args)],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


class TestImportBoundary:
    def test_exact_subcommands_load_no_numpy(self, tmp_path):
        datum = write_datum(tmp_path, make_teardrop(2, 3))
        seed = write_text(tmp_path, json.dumps({
            "schema_version": "1",
            "points": [{"id": "p", "index": 2, "stab": 3, "stable": False},
                       {"id": "q", "index": 0, "stab": 4}],
            "flows": []}), "seed.json")
        body = """\
import orbimorse, orbimorse.cli
datum, seed, out = sys.argv[2:]
codes = [orbimorse.cli.main(argv) for argv in (
    ["validate", datum], ["homology", datum], ["euler", datum],
    ["compare", datum, "s2"],
    ["stabilize", seed, "p", "--h", "cyclic_rotation_circle(3)",
     "--out", out])]
assert codes == [0] * 5, codes
"""
        assert loaded_after(body, datum, seed, tmp_path / "out.json") == "[]"

    def test_surface_input_loads_the_flow_front_end(self, tmp_path):
        surface = write_text(tmp_path, json.dumps({
            "schema_version": "1", "surface": {"kind": "torus"}}),
            "torus.json")
        body = """\
import orbimorse.cli
orbimorse.cli.load_surface_file(sys.argv[2])
"""
        loaded = loaded_after(body, surface)
        assert "'numpy'" in loaded
        assert "'orbimorse.flow_numerics'" in loaded


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_teardrop(2, 3))
        assert main(["validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_divisibility_breach(self, tmp_path, capsys):
        text = json.dumps({
            "schema_version": "1",
            "points": [{"id": "a", "index": 1, "stab": 3},
                       {"id": "b", "index": 0, "stab": 2}],
            "flows": [{"from": "a", "to": "b", "count": 1}]})
        path = write_text(tmp_path, text, "bad.json")
        assert main(["validate", path]) == 1
        assert "stabilizer-divisibility" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        path = write_text(tmp_path, "{{{", "broken.json")
        assert main(["validate", path]) == 2


class TestHomologyCommand:
    def test_teardrop_both(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_teardrop(2, 3))
        assert main(["homology", path]) == 0
        out = capsys.readouterr().out
        assert "[co]" in out and "[in]" in out

    def test_bean_machine_line(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_bean())
        assert main(["homology", path, "--complex", "in",
                     "--format", "machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0 1 2"

    def test_witness_machine_lines(self, tmp_path, capsys):
        # groups checked by Fraction elimination in test_exact_linalg
        path = write_datum(tmp_path, make_witness())
        assert main(["homology", path, "--complex", "co",
                     "--format", "machine"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0 1 11,11,11,11,11,11,11,462", "1 1"]

    def test_machine_output_stable(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_teardrop(5, 5))
        main(["homology", path, "--format", "machine"])
        first = capsys.readouterr().out
        main(["homology", path, "--format", "machine"])
        second = capsys.readouterr().out
        assert first == second

    def test_stab_one_datum_tables_identical(self, tmp_path, capsys):
        from orbimorse.morse_datum import CriticalPointRecord, FlowCount, MorseDatum

        datum = MorseDatum(
            points=(CriticalPointRecord("m", 2, 1),
                    CriticalPointRecord("s", 1, 1),
                    CriticalPointRecord("b", 0, 1)),
            flows=(FlowCount("m", "s", 0), FlowCount("s", "b", 0)))
        path = write_datum(tmp_path, datum)
        main(["homology", path, "--complex", "co", "--format", "machine"])
        co = capsys.readouterr().out
        main(["homology", path, "--complex", "in", "--format", "machine"])
        inv = capsys.readouterr().out
        assert co == inv

    def test_unknown_flow_exit(self, tmp_path, capsys):
        text = json.dumps({
            "schema_version": "1",
            "points": [{"id": "a", "index": 1, "stab": 1},
                       {"id": "b", "index": 0, "stab": 1}],
            "flows": [{"from": "a", "to": "b", "count": "unknown"}]})
        path = write_text(tmp_path, text, "stale.json")
        assert main(["homology", path]) == 1
        assert "a" in capsys.readouterr().err


class TestEulerCommand:
    def test_teardrop(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_teardrop(2, 3))
        assert main(["euler", path]) == 0
        out = capsys.readouterr().out
        assert "orbifold euler: 5/6" in out
        assert "underlying euler: 2" in out

    def test_bean(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_bean())
        main(["euler", path])
        out = capsys.readouterr().out
        assert "orbifold euler: 1" in out
        assert "underlying euler: 2" in out


class TestStabilizeCommand:
    def seed_path(self, tmp_path, m=3, n=4):
        text = json.dumps({
            "schema_version": "1",
            "ambient_dimension": 2,
            "points": [
                {"id": "p", "index": 2, "stab": m, "stable": False},
                {"id": "q", "index": 0, "stab": n}],
            "flows": []})
        return write_text(tmp_path, text, "seed.json")

    def test_teardrop_seed(self, tmp_path, capsys):
        path = self.seed_path(tmp_path)
        out_path = str(tmp_path / "out.json")
        assert main(["stabilize", path, "p",
                     "--h", "cyclic_rotation_circle(3)",
                     "--out", out_path]) == 0
        message = capsys.readouterr().out
        assert "4 points" in message and "3 unknown flow pairs" in message
        result = load_datum_file(out_path)
        assert sorted((p.index, p.stab_order) for p in result.points) == [
            (0, 3), (0, 4), (1, 1), (2, 1)]

    def test_bean_seed(self, tmp_path):
        text = json.dumps({
            "schema_version": "1",
            "points": [
                {"id": "p", "index": 2, "stab": 1},
                {"id": "q", "index": 1, "stab": 2, "stable": False},
                {"id": "r", "index": 0, "stab": 2}],
            "flows": []})
        path = write_text(tmp_path, text, "beanseed.json")
        out_path = str(tmp_path / "out.json")
        assert main(["stabilize", path, "q", "--h", "two_points_swap",
                     "--out", out_path]) == 0
        result = load_datum_file(out_path)
        assert sorted((p.index, p.stab_order) for p in result.points) == [
            (0, 2), (0, 2), (1, 1), (2, 1)]

    def test_stable_point_exit_one(self, tmp_path, capsys):
        path = self.seed_path(tmp_path)
        assert main(["stabilize", path, "q", "--h", "two_points_swap",
                     "--out", str(tmp_path / "o.json")]) == 1

    def test_unknown_point_exit_one(self, tmp_path, capsys):
        path = self.seed_path(tmp_path)
        assert main(["stabilize", path, "nosuch", "--h", "two_points_swap",
                     "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: no critical point named 'nosuch'\n"

    def test_unwritable_out_is_a_parse_error(self, tmp_path, capsys):
        path = self.seed_path(tmp_path)
        out_path = str(tmp_path / "missing" / "o.json")
        assert main(["stabilize", path, "p",
                     "--h", "cyclic_rotation_circle(3)",
                     "--out", out_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: cannot write {out_path}: ")


class TestCompareCommand:
    def test_teardrop_matches_sphere(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_teardrop(2, 3))
        assert main(["compare", path, "s2"]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_bean_invariant_mismatch(self, tmp_path, capsys):
        path = write_datum(tmp_path, make_bean())
        assert main(["compare", path, "--complex", "in", "s2"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "MISMATCH"
        assert "degree 0" in out

    def test_facet_file_space(self, tmp_path, capsys):
        facets = "0 1\n1 2\n0 2\n"
        space_path = write_text(tmp_path, facets, "circle.txt")
        datum_path = write_datum(tmp_path, make_teardrop(2, 3))
        assert main(["compare", datum_path, space_path]) == 1

    def test_facet_file_label_with_separator(self, tmp_path, capsys):
        space_path = write_text(tmp_path, "a|b c\na b|c\n", "bars.txt")
        datum_path = write_datum(tmp_path, make_teardrop(2, 3))
        assert main(["compare", datum_path, space_path]) == 1
        assert (capsys.readouterr().err
                == "error: vertex label 'a|b' contains '|'\n")

    def test_dumped_homology_round_trip_matches(self, tmp_path, capsys):
        # dump a datum, reload it, and compare its own homology: MATCH
        path = write_datum(tmp_path, make_teardrop(3, 4))
        reloaded = write_datum(tmp_path, load_datum_file(path), "again.json")
        assert main(["compare", reloaded, "s2"]) == 0


class TestFlowCommand:
    def surface_path(self, tmp_path, kind, group, params=None):
        data = {"schema_version": "1",
                "surface": {"kind": kind, "params": params or {}},
                "group": list(group)}
        return write_text(tmp_path, json.dumps(data), f"{kind}.json")

    def test_torus(self, tmp_path, capsys):
        path = self.surface_path(tmp_path, "torus", ())
        out_path = str(tmp_path / "torus_datum.json")
        assert main(["flow", path, "--out", out_path]) == 0
        main(["homology", out_path, "--complex", "co", "--format", "machine"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == ["0 1", "1 2", "2 1"]

    def test_epsilon_sphere_without_stabilize_flag(self, tmp_path, capsys):
        path = self.surface_path(tmp_path, "epsilon_sphere",
                                 ("rotation_pi_z",), {"epsilon": 0.8})
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert "unstable points: north_pole, south_pole" in err

    def test_epsilon_sphere_with_stabilize_flag(self, tmp_path, capsys):
        path = self.surface_path(tmp_path, "epsilon_sphere",
                                 ("rotation_pi_z",), {"epsilon": 0.8})
        out_path = str(tmp_path / "eps_datum.json")
        assert main(["flow", path, "--out", out_path, "--stabilize"]) == 0
        capsys.readouterr()
        assert main(["compare", out_path, "s2"]) == 0
        assert capsys.readouterr().out.strip() == "MATCH"

    def test_bad_surface_file(self, tmp_path):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1", "surface": {"kind": "moebius"}}), "bad.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 1

    @pytest.mark.parametrize("kind", [["torus"], 3, None],
                             ids=["list", "number", "null"])
    def test_surface_kind_not_a_string(self, tmp_path, capsys, kind):
        # a list kind used to escape from the builder lookup as a TypeError
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1", "surface": {"kind": kind}}), "bad.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (
            f"parse error: surface.kind: expected a string, got {kind!r}\n")

    def test_singular_torus(self, tmp_path, capsys):
        # a spindle torus used to run the census for ~15 s before failing
        path = self.surface_path(tmp_path, "torus", (), {"major": 0.5})
        out_path = tmp_path / "o.json"
        assert main(["flow", path, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: need 0 < minor < major")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "key", ["nope", "shoot_directions", "bisect_width", "integrate_step",
                "shoot_offset"])
    def test_unknown_tolerance_key(self, tmp_path, capsys, key):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1",
             "surface": {"kind": "sphere"},
             "tolerances": {key: 1}}), "badtol.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 2
        assert f"tolerances: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerances", [5, None, "seed_count", [1]])
    def test_malformed_tolerances(self, tmp_path, capsys, tolerances):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1",
             "surface": {"kind": "sphere"},
             "tolerances": tolerances}), "badtol.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 2
        assert "parse error: tolerances" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"seed_count": "abc"}, {"seed_count": 0}, {"seed_count": 2.5},
        {"seed_count": True}, {"seed_radii": 3}, {"seed_radii": []},
        {"seed_radii": [1.0, -2.0]}, {"seed_radii": [1.0, "x"]},
        {"newton_tol": None}, {"escape_radius": -1.0},
        {"dedup_tol": 0}, {"escape_radius": False}, {"stab_tol": "1e-8"},
        {"degeneracy_tol": float("nan")},
    ])
    def test_bad_tolerance_values(self, tmp_path, capsys, overrides):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1",
             "surface": {"kind": "sphere"},
             "tolerances": overrides}), "badtol.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 2
        assert "parse error: tolerances." in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        {"tilt": "abc"}, {"tilt": None}, {"epsilon": "x"}, {"tilt": True},
        [["tilt", 0.3]], {"tilt": 1e400}, {"tilt": float("nan")}, "tilt",
    ])
    def test_bad_surface_params(self, tmp_path, capsys, params):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1",
             "surface": {"kind": "torus", "params": params}}), "badparams.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 2
        # the file's shape is checked here, the values by the library
        if not isinstance(params, dict):
            expected = "surface.params: expected an object"
        elif "epsilon" in params:
            expected = "surface kind 'torus' does not take epsilon"
        else:
            expected = "surface parameter tilt: expected a finite number"
        assert capsys.readouterr().err.startswith(f"parse error: {expected}")

    @pytest.mark.parametrize("kind", ["sphere", "torus"])
    def test_unknown_surface_params(self, tmp_path, capsys, kind):
        # the sphere used to ignore its params and write the unit sphere
        path = self.surface_path(tmp_path, kind, (), {"radius": 3})
        out_path = tmp_path / "o.json"
        assert main(["flow", path, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"parse error: surface kind {kind!r} does not take radius")
        assert not out_path.exists()

    def test_tolerance_override_applies(self, tmp_path, capsys):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1",
             "surface": {"kind": "sphere"},
             "tolerances": {"seed_count": 64, "seed_radii": [1.0]}}),
            "tol.json")
        out_path = str(tmp_path / "o.json")
        assert main(["flow", path, "--out", out_path]) == 0
        assert "2 points" in capsys.readouterr().out

    def test_unsupported_stabilization_profile(self, tmp_path, capsys):
        # the half-turn acts by -1 on the whole descending plane of the
        # height maximum; that profile is out of numerical scope and the
        # command must fail cleanly either way
        path = self.surface_path(tmp_path, "sphere", ("rotation_pi_z",))
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 1
        assert "unstable points: max0" in capsys.readouterr().err
        assert main(["flow", path, "--out", str(tmp_path / "o.json"),
                     "--stabilize"]) == 1
        assert "index-1 point" in capsys.readouterr().err

    def test_non_invariant_group_rejected(self, tmp_path, capsys):
        # the tilted torus height is not invariant under the half-turn
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1",
             "surface": {"kind": "torus", "params": {}},
             "group": ["rotation_pi_z"]}), "badgroup.json")
        assert main(["flow", path, "--out", str(tmp_path / "o.json")]) == 1
        assert "not group invariant" in capsys.readouterr().err

    @pytest.mark.parametrize("group, order", [
        (None, 2), ([], 1), (["rotation_pi_z"], 2), (["identity"], 1)],
        ids=["absent", "empty", "half-turn", "identity"])
    def test_group_default_only_when_absent(self, tmp_path, group, order):
        # an empty list used to be replaced by epsilon_sphere's half-turn
        data = {"schema_version": "1", "surface": {"kind": "epsilon_sphere"}}
        if group is not None:
            data["group"] = group
        path = write_text(tmp_path, json.dumps(data), "eps.json")
        assert len(load_surface_file(path).group) == order

    @pytest.mark.parametrize("group", [None, "rotation_pi_z", [3]],
                             ids=["null", "string", "number-in-list"])
    def test_group_not_a_list_of_names(self, tmp_path, group):
        path = write_text(tmp_path, json.dumps(
            {"schema_version": "1", "surface": {"kind": "sphere"},
             "group": group}), "badgroup.json")
        with pytest.raises(ParseError, match="group must be a list"):
            load_surface_file(path)

    def test_epsilon_sphere_with_trivial_group(self, tmp_path):
        # without the half-turn the poles are ordinary saddles: two maxima,
        # two saddles and two minima upstairs, all stable, and a line from
        # each maximum to each saddle and from each saddle to each minimum
        path = self.surface_path(tmp_path, "epsilon_sphere", (),
                                 {"epsilon": 0.8})
        out_path = str(tmp_path / "eps_datum.json")
        assert main(["flow", path, "--out", out_path]) == 0
        datum = load_datum_file(out_path)
        assert sorted((p.index, p.stab_order) for p in datum.points) == [
            (0, 1), (0, 1), (1, 1), (1, 1), (2, 1), (2, 1)]
        assert len(datum.flows) == 8


class TestFacetFiles:
    def test_load(self, tmp_path):
        path = write_text(tmp_path, "a b c\nb c d\n", "facets.txt")
        K = load_facet_file(path)
        assert K.face_counts()[0] == 4

    def test_empty_rejected(self, tmp_path):
        path = write_text(tmp_path, "\n\n", "empty.txt")
        with pytest.raises(ParseError):
            load_facet_file(path)
