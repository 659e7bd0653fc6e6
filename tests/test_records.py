"""Each record of the package (a subclass of `shift_core.Record`) behaves
as the frozen (or, where declared, mutable) dataclass with the same
annotations, defaults and methods would: its twin.  No record writes its
own `__init__` (tests/test_reachability.py checks that), so each record's
is `Record`'s, held here to the one the dataclass generates."""

import ast
import dataclasses
import importlib
import pathlib
from fractions import Fraction

import pytest

from expansive_lab import arrow_bracket as ab
from expansive_lab import cycle_machine as cm
from expansive_lab import dynamics_analysis as da
from expansive_lab.shift_core import Alphabet, LocalRule, Record, identity_rule

PACKAGE = pathlib.Path(ab.__file__).parent
MODULES = [importlib.import_module(f"expansive_lab.{p.stem}")
           for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
RECORDS = {name: obj for module in MODULES for name, obj in vars(module).items()
           if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
           and obj.__module__ == module.__name__}

BIN = Alphabet(["0", "1"])
IDENTITY = identity_rule(BIN)
LEVEL = importlib.import_module("expansive_lab.slope_engine").LevelParams(4, 1, 0, 8)

# positional arguments for every init field of each record, a valid instance
SAMPLES = {
    "LocalRule": (BIN, 1, {("0", "1", "1"): "0"}, "identity"),
    "ABSystem": (1, ab.build_rule(1).rule),
    "ArrowWalk": (1, {2: ab.open_bracket(1)}, 0, 1, False, 3),
    "BlockSpec": (("-", "[1", "]1"),),
    "CrossingReport": (40,),
    "CrossingLanguage": ((("a",),), (("b",),)),
    "ArrowTrace": ([0, 1, 2], 2),
    "HierarchicalArrangement": (1, ((0, 1), (1, 0))),
    "InjectivityReport": (10, ((1, 2),), 0),
    "SimParams": (IDENTITY, IDENTITY, da.periodic_family(BIN, 2), 4, 1, 0),
    "CycleSchedule": (8, 2, -1, (1, 2, 3, 4, 5)),
    "TowerLevel": (8, 2, 1, 3),
    "TowerReport": ((12, 2), (cm.schedule_from_counts(2, 0, 8, 2, 1),), 5, ((1, 0), (0, 1))),
    "DeterminedRegion": (frozenset({(0, 0)}), (0, 1), (-1, 1)),
    "LyapunovEstimate": (da.Front(3, [(0, 0, 1)]), da.Front(3, [(0, 0, -1)]), True),
    "BlockingUpTo": (1000,),
    "RefutedAt": (7,),
    "BlockingReport": (("1", "0"), da.RefutedAt(3)),
    "Direction": (Fraction(1), Fraction(2)),
    "ExpansiveAtScale": (42,),
    "NotDeterminedAtScale": ((0, 1), (2, 3)),
    "LevelParams": (4, 1, 0, 8),
    "SlopeProgram": ((LEVEL,), Fraction(1, 3)),
    "ShapePolygon": (((1, 0), (0, 1)),),
}


def _twin(cls):
    """The dataclass `cls` stands for: its annotations, defaults (a `field`
    as a dataclasses.field), frozen flag and the methods of its body."""
    module = importlib.import_module(cls.__module__)
    node = next(n for n in ast.parse(pathlib.Path(module.__file__).read_text()).body
                if isinstance(n, ast.ClassDef) and n.name == cls.__name__)
    scope = {**vars(module), "field": dataclasses.field}
    specs, namespace = [], {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign):
            name, hint = stmt.target.id, ast.unparse(stmt.annotation)
            if hint.startswith("ClassVar"):
                namespace[name] = vars(cls)[name]
            elif stmt.value is None:
                specs.append((name, hint))
            else:
                specs.append((name, hint, eval(ast.unparse(stmt.value), scope)))
        elif isinstance(stmt, ast.FunctionDef):
            namespace[stmt.name] = vars(cls)[stmt.name]
    frozen = not any(k.arg == "frozen" and not ast.literal_eval(k.value) for k in node.keywords)
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=frozen)


def _outcome(call):
    """What a call gives: ("value", result), or the exception's kind, with
    the message of an AttributeError (a frozen dataclass raises a subclass)."""
    try:
        return "value", call()
    except AttributeError as exc:
        return AttributeError, str(exc)
    except TypeError:
        return TypeError


def test_every_record_has_a_sample():
    assert sorted(RECORDS) == sorted(SAMPLES)
    assert len(RECORDS) == 24


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_record_behaves_as_its_dataclass_twin(name):
    cls, twin, args = RECORDS[name], _twin(RECORDS[name]), SAMPLES[name]
    fields = dataclasses.fields(twin)
    init = [f.name for f in fields if f.init]
    required = [f.name for f in fields if f.init and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    assert len(args) == len(init)
    keywords = dict(zip(init, args))
    calls = [(args, {}), ((), keywords), (args[:len(required)], {}),
             (args[:1], dict(list(keywords.items())[1:]))]
    assert [repr(cls(*a, **k)) for a, k in calls] == [repr(twin(*a, **k)) for a, k in calls]

    record, other = cls(*args), twin(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert record.__eq__(other) is NotImplemented and record != other
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(other))
    assert (cls.__hash__ is None) == (twin.__hash__ is None)

    missing = [(args[:len(required) - 1], {})] if required else []
    for a, k in missing + [(args + (None,), {}), (args, {"nope": 1}), (args, {init[0]: args[0]})]:
        assert _outcome(lambda: cls(*a, **k)) == _outcome(lambda: twin(*a, **k)) == TypeError
    for f in fields:
        made, want = cls(*args), twin(*args)
        assert _outcome(lambda: setattr(made, f.name, None)) == _outcome(lambda: setattr(want, f.name, None))
        made, want = cls(*args), twin(*args)
        assert _outcome(lambda: delattr(made, f.name)) == _outcome(lambda: delattr(want, f.name))


def test_fields_made_after_init_are_compared_and_hashed():
    a, b = cm.CycleSchedule(8, 2, 1, (0,) * 5), cm.CycleSchedule(8, 2, -1, (0,) * 5)
    assert a.T == b.T == 32 and "T=32" in repr(a)
    assert a != b and hash(a) == hash((8, 2, 1, (0,) * 5, 32))
    land = ab.HierarchicalArrangement(1, ((0, 1),))
    assert hash(land) == hash((1, ((0, 1),), land.offsets, land.progressions))


def test_records_keep_an_instance_dict_for_cached_properties():
    params = cm.SimParams(*SAMPLES["SimParams"])
    assert params.table_entries == 0 and "table_entries" in vars(params)
    schedule = cm.CycleSchedule(4, 1, 0, (1,) * 5)
    assert schedule._tokens is schedule._tokens


def test_defaults_and_class_attributes():
    assert ab.ArrowTrace().positions is not ab.ArrowTrace().positions
    assert "restored" not in repr(ab.CrossingReport(3)) and ab.CrossingReport(3).restored
    walk = ab.ArrowWalk(*SAMPLES["ArrowWalk"])
    assert "_face" not in repr(walk) and walk._face
    walk.pos += 1
    assert walk.pos == 1
    rule = LocalRule(*SAMPLES["LocalRule"])
    assert hash(rule) == hash((BIN, 1, "identity", frozenset(rule.table.items())))


def test_a_frozen_record_names_the_field_it_refuses():
    verdict = da.RefutedAt(3)
    with pytest.raises(AttributeError, match="cannot assign to field 't'"):
        verdict.t = 4
    with pytest.raises(AttributeError, match="cannot delete field 't'"):
        del verdict.t
