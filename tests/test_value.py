"""Value semantics of the immutable records: construction, equality, hash,
repr and frozen fields."""

import ast
from pathlib import Path

import pytest

import nordcodes
from nordcodes import bounds, codes
from nordcodes.errors import ClosureViolation, ProfileBijectionViolation
from nordcodes.field import make_field
from nordcodes.semigroup import (
    GoodBasisProfile,
    NumericalSemigroup,
    TwoPointSemigroup,
    hyperelliptic_profile,
)

F2 = make_field(2, 1)

# (class, fields, fields differing in one place, repr of the first)
RECORDS = [
    (NumericalSemigroup, {"gaps": frozenset({1, 2, 5})}, {"gaps": frozenset({1, 3})},
     "NumericalSemigroup(gaps=frozenset({1, 2, 5}))"),
    (TwoPointSemigroup, {"gapset": frozenset({(0, 1), (1, 0)})}, {"gapset": frozenset()},
     "TwoPointSemigroup(gapset=frozenset({(0, 1), (1, 0)}))"),
    (GoodBasisProfile, {"entries": ((1, 1), (2, 2))}, {"entries": ((1, 2), (2, 1))},
     "GoodBasisProfile(entries=((1, 1), (2, 2)))"),
    (bounds.NSet, {"r": 2, "m": 3, "pairs": ((0, 3), (1, 2), (2, 1), (3, 0))},
     {"r": 2, "m": 4, "pairs": ((0, 3), (1, 2), (2, 1), (3, 0))},
     "NSet(r=2, m=3, pairs=((0, 3), (1, 2), (2, 1), (3, 0)))"),
    (codes.LinearCode, {"field": F2, "n": 3, "generator": ((1, 0, 1), (0, 1, 1))},
     {"field": F2, "n": 3, "generator": ((1, 0, 1),)},
     "LinearCode(field=Field(p=2, k=1, modulus=[0, 1]), n=3, generator=((1, 0, 1), (0, 1, 1)))"),
    (codes.SyndromeMatrix, {"entries": ((1, 0), (0, 1))}, {"entries": ((0, 1), (1, 0))},
     "SyndromeMatrix(entries=((1, 0), (0, 1)))"),
]


@pytest.mark.parametrize("cls,fields,other,text", RECORDS, ids=lambda v: getattr(v, "__name__", None))
def test_value_semantics(cls, fields, other, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
    assert cls(**other) != by_keyword
    assert by_keyword != tuple(fields.values())  # no equality across types
    assert len({by_keyword, by_position, cls(**other)}) == 2
    assert repr(by_keyword) == text  # the text of the former dataclasses
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    first = next(iter(fields))
    for args, kwargs in (([*fields.values(), None], {}),  # one value too many
                         (list(fields.values()), {first: fields[first]}),  # a field twice
                         ([], {**fields, "extra": None}),  # an unknown field
                         ([], {})):  # no fields
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_validation_runs_on_construction():
    with pytest.raises(ClosureViolation):
        NumericalSemigroup(gaps=frozenset({4}))
    with pytest.raises(ClosureViolation):
        TwoPointSemigroup(frozenset({(2, 0)}))
    with pytest.raises(ProfileBijectionViolation, match=r"^values repeated: \[1\]$"):
        GoodBasisProfile(((1, 1), (2, 1)))
    with pytest.raises(ProfileBijectionViolation) as exc:
        GoodBasisProfile(((1, 1), (1, 1)))
    assert str(exc.value) == "values repeated: [1]; keys repeated: [1]"


def test_profile_equality_ignores_derived_attributes():
    prof = hyperelliptic_profile(3)
    again = GoodBasisProfile(entries=((3, 3), (1, 1), (2, 2)))
    assert prof == again and hash(prof) == hash(again)
    assert prof.sigma_steps == ((0, 0), (1, 1), (2, 2), (3, 3)) and prof.sigma(2) == 2
    object.__setattr__(again, "sigma_steps", ())
    assert prof == again and hash(prof) == hash(again)


def test_linear_code_keeps_its_cached_pivots():
    # the pivots are the ones the construction's row reduction returns, kept
    # on the instance; nothing rescans the rows for them
    assert "pivots" not in vars(codes.LinearCode)
    code = codes.LinearCode(F2, 3, ((0, 1, 1), (1, 1, 0)))
    assert code.generator == ((1, 0, 1), (0, 1, 1))
    assert code.pivots == (0, 1) and vars(code)["pivots"] == (0, 1)
    assert code == codes.LinearCode(F2, 3, ((1, 0, 1), (0, 1, 1)))


def test_value_records_have_one_constructor():
    """Each record is built only through its fields, so `__post_init__`
    sees every instance; `from_json` parses and then calls the constructor."""
    classes = {}
    for path in sorted(Path(nordcodes.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    values, grew = {"Value"}, True
    while grew:
        found = {name for name, node in classes.items()
                 if any(isinstance(b, ast.Name) and b.id in values for b in node.bases)}
        grew, values = not found <= values, values | found
    assert values - {"Value"} == {cls.__name__ for cls, *_ in RECORDS}
    extra = [f"{name}.{f.name}" for name in sorted(values) for f in classes[name].body
             if isinstance(f, ast.FunctionDef) and f.name != "from_json"
             and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in f.decorator_list)]
    assert extra == []
