"""The contract of the immutable value types (hallq.frozen) and what
importing the package loads."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hallq
from hallq.frozen import Frozen
from hallq.gf import SubspaceBasis
from hallq.hall_core import IsoClassCombo
from hallq.hall_poly import HallPolynomial
from hallq.hom_decomp import DecompositionMultiset
from hallq.lie import BracketTable
from hallq.quiver_rep import AlgebraContext, IndecLabel

W11, V1, V3, U21 = IndecLabel("W", 1, 1), IndecLabel("V", 1), IndecLabel("V", 3), IndecLabel("U", 2, 1)
COMBO = IsoClassCombo.from_dict({V1: 2, W11: -1})

# (a fresh value, its fields in order, the fields it compares and hashes,
# its repr); each value is built twice, so the two are equal but distinct
CASES = [
    pytest.param(
        lambda: AlgebraContext(3, 5), ("n", "p"), ("n", "p"), "AlgebraContext(n=3, p=5)",
        id="AlgebraContext",
    ),
    pytest.param(
        lambda: DecompositionMultiset.from_labels((U21, V3, U21)),
        ("labels",),
        ("labels",),
        "DecompositionMultiset(labels=(IndecLabel(kind='V', i=3, j=0), "
        "IndecLabel(kind='U', i=2, j=1), IndecLabel(kind='U', i=2, j=1)))",
        id="DecompositionMultiset",
    ),
    pytest.param(
        lambda: IsoClassCombo.from_dict({V1: 2, W11: -1, U21: 0}),
        ("terms",),
        ("terms",),
        "IsoClassCombo(terms=((IndecLabel(kind='W', i=1, j=1), -1), "
        "(IndecLabel(kind='V', i=1, j=0), 2)))",
        id="IsoClassCombo",
    ),
    pytest.param(
        lambda: HallPolynomial((1, 2, 0, 0)),
        ("coefficients",),
        ("coefficients",),
        "HallPolynomial(coefficients=(1, 2))",
        id="HallPolynomial",
    ),
    pytest.param(
        lambda: SubspaceBasis.from_rows(5, 3, [[1, 2, 3], [2, 4, 1]]),
        ("p", "ambient_dim", "row_basis", "pivots"),
        ("p", "ambient_dim", "row_basis"),
        "SubspaceBasis(p=5, ambient_dim=3, row_basis=((1, 2, 3),), pivots=(0,))",
        id="SubspaceBasis",
    ),
    pytest.param(
        lambda: BracketTable(2, (2, 3), ((W11, V1, COMBO),), (), ("a note",)),
        ("n", "primes", "entries", "mismatches", "notes"),
        ("n", "primes", "entries", "mismatches", "notes"),
        "BracketTable(n=2, primes=(2, 3), entries=((IndecLabel(kind='W', i=1, j=1), "
        "IndecLabel(kind='V', i=1, j=0), IsoClassCombo(terms=((IndecLabel(kind='W', "
        "i=1, j=1), -1), (IndecLabel(kind='V', i=1, j=0), 2)))),), mismatches=(), "
        "notes=('a note',))",
        id="BracketTable",
    ),
]


@pytest.mark.parametrize("make, fields, compared, text", CASES)
def test_value_type_contract(make, fields, compared, text):
    value, twin = make(), make()
    assert value == twin and value is not twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(getattr(value, f) for f in compared))
    assert value != tuple(getattr(value, f) for f in fields)
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(twin, f))
    assert value == twin
    assert repr(value) == text


def test_every_value_type_has_a_contract_case():
    # IndecLabel keeps its own __eq__ and cached __hash__, pinned by
    # test_label_hash_sort_key_and_fields_are_kept
    for module in pkgutil.iter_modules(hallq.__path__, "hallq."):
        importlib.import_module(module.name)
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("hallq."):
                found.add(sub.__qualname__)
            todo.append(sub)
    assert found - {"IndecLabel"} == {case.id for case in CASES}


def test_uncompared_fields_and_derived_state():
    # the pivots follow from the row basis and are not compared; a table's
    # lookup is rebuilt from its entries wherever the table is rebuilt
    basis = SubspaceBasis.from_rows(5, 3, [[1, 2, 3]])
    assert basis == SubspaceBasis(5, 3, basis.row_basis, (2,))
    table = BracketTable(2, (2, 3), ((W11, V1, COMBO),), (), ())
    for other in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert other.get(W11, V1) == COMBO and other.get(V1, W11) == -COMBO


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost more to import than the rest of the package together; the
    # benchmark child imports these five modules
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hallq.cli, hallq.hall_core, hallq.hom_decomp, hallq.lie, hallq.quiver_rep\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
