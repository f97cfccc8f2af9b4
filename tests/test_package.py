"""The package root: its public names and the README's library example."""

import contextlib
import io
import re
import warnings
from pathlib import Path

import plasmasheet
from plasmasheet import casimir, errors, polder, sheet, sphere

README = Path(__file__).resolve().parent.parent / "README.md"


def test_root_exports_each_module_all():
    assert plasmasheet.__all__ == [
        "__version__", *errors.__all__, *sheet.__all__, *casimir.__all__,
        *polder.__all__, *sphere.__all__]
    assert len(set(plasmasheet.__all__)) == len(plasmasheet.__all__)
    for module in (errors, sheet, casimir, polder, sphere):
        for name in module.__all__:
            assert getattr(plasmasheet, name) is getattr(module, name), name


def test_check_routes_import_from_the_root():
    from plasmasheet import (
        jost_te_riccati,
        jost_tm_decomposed,
        polarization_convention_equivalence,
    )

    assert jost_te_riccati is sphere.jost_te_riccati
    assert jost_tm_decomposed is sphere.jost_tm_decomposed
    assert (polarization_convention_equivalence
            is casimir.polarization_convention_equivalence)


def test_readme_library_block_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "[]"
