"""README "Numerical conventions" against the modules it names, and the
one constructor of Kronecker-sum nodes."""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

import conecalc

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(path.stem for path in Path(conecalc.__file__).parent.glob("*.py")
                 if not path.stem.startswith("_"))


def code_spans(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


def table_rows() -> list[tuple[str, str, str]]:
    """(constant, value, module) for every constant of the table; a cell
    naming one value or module gives it to every constant of its row."""
    section = README.read_text().split("## Numerical conventions")[1].split("\n## ")[0]
    rows = []
    for line in (line for line in section.splitlines() if line.startswith("| `")):
        names, values, modules = (code_spans(cell) for cell in line.split("|")[1:4])
        values = values * len(names) if len(values) == 1 else values
        modules = modules * len(names) if len(modules) == 1 else modules
        assert len(values) == len(modules) == len(names), line
        rows.extend(zip(names, values, modules))
    return rows


ROWS = table_rows()


@pytest.mark.parametrize("name, value, module", ROWS, ids=[row[0] for row in ROWS])
def test_each_row_names_a_constant_of_its_module_at_its_value(name, value, module):
    actual = getattr(importlib.import_module(f"conecalc.{module}"), name)
    assert actual == eval(value, {"sqrt": math.sqrt})


def test_every_float_constant_is_in_the_table():
    assert len(ROWS) >= 20
    listed = {name for name, _, _ in ROWS}  # a module may import another's constant
    for module in MODULES:
        for name, value in vars(importlib.import_module(f"conecalc.{module}")).items():
            if name.isupper() and (isinstance(value, float) or (
                    isinstance(value, tuple) and all(isinstance(v, float) for v in value))):
                assert name in listed, f"{module}.{name}"



def test_one_constructor_lays_out_kronecker_sum_nodes():
    # towers, `coupling` members and lattice nodes are laid out by
    # `stability._KroneckerFamily`; no other function or class outside
    # `numerics` names `_kronecker_sum` or `_kronecker_slot`
    users = set()
    for path in Path(conecalc.__file__).parent.glob("*.py"):
        if path.stem == "numerics":
            continue
        for function in ast.parse(path.read_text()).body:
            for node in ast.walk(function):
                if {getattr(node, "id", None), getattr(node, "attr", None)} & {
                        "_kronecker_sum", "_kronecker_slot"}:
                    users.add(f"{path.stem}.{getattr(function, 'name', '<module>')}")
    assert users == {"stability._KroneckerFamily"}
