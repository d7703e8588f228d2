"""The package's 13 records are immutable value classes on ``groups.Record``.

Each record compares and hashes by its fields (a character table by
identity), refuses assignment and deletion, can be weakly referenced, and
runs its construction check when it is built, also when it is copied or
unpickled.  Every record is built by the one constructor on ``Record``,
which takes every field once and runs the check after the memo is set.
Importing the package loads neither ``dataclasses`` nor ``inspect``: the
records compile no generated methods at import.
"""

import copy
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from pqsurf.catalog import ROWS, TableRow
from pqsurf.chars import CharacterTable, ClassFunction, RationalCharacter, character_table, rational_characters
from pqsurf.covering import FixedPoint, GeneratingVector, fixed_point_data
from pqsurf.descfile import CurveSpec, GroupSpec, SurfaceDescription, parse_description
from pqsurf.errors import InvalidParameter, NotGenerating, OrderMismatch, RelationFails, TrivialMonodromy
from pqsurf.groups import Record, catalog_group
from pqsurf.jacobian import PairingMatch, PairingReport, k3_pairing
from pqsurf.lattice import DiscriminantGroup, IntegralLattice, discriminant_group, lambda_d, rank1
from pqsurf.perms import parse_permutation

from test_covering import v4_example_pair

REPO = Path(__file__).resolve().parents[1]


def p4(text):
    return parse_permutation(text, 4)


def table_row():
    row = ROWS[0]
    return TableRow(
        row.name, row.group_name, row.genera, row.branch1, row.branch2, row.k2, row.singularities,
        row.eta, row.family_dim, row.jac1, row.jac2, row.paired,
    )


def class_function():
    return ClassFunction(catalog_group("V4"), (1, 1, -1, -1))


def table():
    t = character_table(catalog_group("V4"))
    return CharacterTable(t.group, t.irreducibles, t.degrees, t.dual)


def rational_character():
    rc = rational_characters(character_table(catalog_group("Q8")))[-1]
    return RationalCharacter(rc.psi, rc.orbit, rc.schur_index, rc.multiplicity_n, rc.schur_index_unverified)


def fixed_point():
    gv1, _ = v4_example_pair()
    return fixed_point_data(gv1, p4("(1,2)(3,4)"))[0]


def description():
    return parse_description(REPO / "surfaces" / "v4.surface")


def pairing_report():
    return k3_pairing(*v4_example_pair())


# each factory builds a new record, equal to the one of its last call; the
# field is one that the record compares
RECORDS = {
    "TableRow": (table_row, "k2"),
    "ClassFunction": (class_function, "values"),
    "CharacterTable": (table, "dual"),
    "RationalCharacter": (rational_character, "schur_index"),
    "GeneratingVector": (lambda: v4_example_pair()[0], "orders"),
    "FixedPoint": (fixed_point, "rotation_exponent"),
    "CurveSpec": (lambda: description().curve1, "monodromies"),
    "GroupSpec": (lambda: description().group, "name"),
    "SurfaceDescription": (description, "output_format"),
    "PairingMatch": (lambda: pairing_report().matches[0], "rational_index"),
    "PairingReport": (pairing_report, "status"),
    "IntegralLattice": (lambda: lambda_d(1), "gram"),
    "DiscriminantGroup": (lambda: discriminant_group(lambda_d(1)), "invariant_factors"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_weakly_referenced_values(name):
    make, field = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    if name == "CharacterTable":
        assert a != b and a == a and hash(a) == object.__hash__(a)
    else:
        assert a == b and hash(a) == hash(b)
    assert a != (getattr(a, field),)
    value = getattr(a, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert getattr(a, field) is value
    ref = weakref.ref(a)
    assert ref() is a
    # a copy is rebuilt through the constructor
    copied = copy.copy(a)
    assert copied is not a and (copied == a) == (name != "CharacterTable")


def test_memo_is_a_field_no_one_can_replace():
    for record in (v4_example_pair()[0], table(), lambda_d(1)):
        memo = record._memo
        with pytest.raises(AttributeError):
            record._memo = {}
        assert record._memo is memo


def test_a_pickled_record_is_rebuilt_equal():
    for record in (table_row(), description(), lambda_d(2), discriminant_group(lambda_d(2))):
        assert pickle.loads(pickle.dumps(record)) == record


def test_repr_names_the_compared_fields_in_order():
    assert repr(GroupSpec("V4", None)) == "GroupSpec(name='V4', generators=None)"
    assert repr(rank1(1)) == "IntegralLattice(gram=((-2,),))"


def test_constructors_take_positions_keywords_and_defaults():
    group = GroupSpec(name=None, generators=("(1,2)",))
    assert group == GroupSpec(None, ("(1,2)",))
    curve = CurveSpec(1, None, None, None, (2,))
    described = SurfaceDescription(group, curve, curve, "", "text", None)
    assert described == SurfaceDescription(group, curve, curve, text="", output_format="text", aux=None)
    with pytest.raises(TypeError, match="output_format, aux"):
        SurfaceDescription(group, curve, curve, "")
    psi = class_function()
    with pytest.raises(TypeError, match="schur_index_unverified"):
        RationalCharacter(psi, (1,), 1, 1)
    assert FixedPoint(branch_index=1, coset_rep=p4("()"), rotation_exponent=1) == FixedPoint(1, p4("()"), 1)
    match = PairingMatch(1, d1=1, d2=1, partner_label=None)
    assert PairingReport("unique", (match,), 2, 1, ()).matches == (match,)
    assert DiscriminantGroup(invariant_factors=(2, 2)).order == 4


def test_no_record_defines_a_constructor_of_its_own():
    records = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("pqsurf.")]
    assert sorted(cls.__name__ for cls in records) == sorted(RECORDS)
    assert not [cls.__name__ for cls in records if "__init__" in vars(cls)]
    # the one place that knows how a record stores its fields
    writers = sorted(
        path.name for path in (REPO / "src" / "pqsurf").glob("*.py") if "object.__setattr__" in path.read_text()
    )
    assert writers == ["groups.py"]


@pytest.mark.parametrize("args, kwargs, message", [
    (("V4",), {}, "lacks generators"),
    (("V4", None, None), {}, "takes 2 fields, not 3"),
    (("V4", None), {"label": "V4"}, "no field 'label'"),
    (("V4",), {"name": "V4", "generators": None}, "field 'name' twice"),
])
def test_every_field_is_given_once(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        GroupSpec(*args, **kwargs)


class _Probe(Record):
    __slots__ = ("value", "_memo")

    def _check(self):
        # a check may store a stage on the record, as validate does
        self._memo["seen"] = self.value


def test_the_check_runs_after_the_fields_and_the_memo_are_set():
    probe = _Probe(value=3)
    assert probe._memo == {"seen": 3}
    assert _Probe(3) == probe and repr(probe) == "_Probe(value=3)"


def test_generating_vector_runs_validate():
    gv, _ = v4_example_pair()
    G = gv.group
    with pytest.raises(InvalidParameter, match="tuples"):
        GeneratingVector(G, gv.handles, list(gv.monodromies), gv.orders)
    with pytest.raises(OrderMismatch):
        GeneratingVector(G, gv.handles, gv.monodromies, (2,))
    with pytest.raises(TrivialMonodromy):
        GeneratingVector(G, gv.handles, (p4("()"), p4("()")), (2, 2))
    with pytest.raises(RelationFails):
        GeneratingVector(G, gv.handles, (p4("(1,2)(3,4)"), p4("(1,4)(2,3)")), (2, 2))
    with pytest.raises(NotGenerating):
        GeneratingVector(G, ((p4("()"), p4("()")),), gv.monodromies, (2, 2))


def test_class_function_needs_one_value_per_class():
    with pytest.raises(ValueError, match="one value per conjugacy class"):
        ClassFunction(catalog_group("V4"), (1, 1, 1))


def test_integral_lattice_checks_its_gram_matrix():
    for gram, message in [
        ([[2]], "tuple of tuples"),
        (((2, 1),), "square"),
        (((2, 1), (0, 2)), "symmetric"),
        (((2.0,),), "not an integer"),
        (((True,),), "not an integer"),
    ]:
        with pytest.raises(InvalidParameter, match=message):
            IntegralLattice(gram)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S: the site hooks of an installation may import modules of their own
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys; import pqsurf, pqsurf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
