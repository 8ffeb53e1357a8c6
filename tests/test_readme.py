"""README's library example runs as written and gives the values its comments state."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import qcr
from qcr.dual import DualRound

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ``python`` block under README's "## Library overview" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library overview\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.fixture(scope="module")
def example():
    """Run the example statement by statement; each bare expression's value and comment, by source."""
    src = library_example()
    lines = src.splitlines()
    ns = {}
    values, comments = {}, {}
    for stmt in ast.parse(src).body:
        code = ast.get_source_segment(src, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
        comments[code] = lines[stmt.lineno - 1].partition("#")[2].strip()
    return ns, values, comments


def numbers(comment: str) -> list[float]:
    return [float(x) for x in re.findall(r"\d+(?:\.\d+)?", comment)]


def test_library_example_states_the_right_values(example):
    ns, values, comments = example
    model = ns["model"]
    assert comments["model = qcr.builtin_model(\"qubit-full\", alpha=0.6)"] == "J = diag(1, 1, 1.5625)"
    assert np.allclose(model.fisher, np.diag([1.0, 1.0, 1.5625]), atol=1e-12)

    (bound,) = numbers(comments["qcr.optimal_random_bound(model, g)"])
    assert bound == 7.84
    assert values["qcr.optimal_random_bound(model, g)"] == pytest.approx(bound, abs=1e-12)

    cov_diag = numbers(comments["qcr.covariance(model, p)"])
    assert cov_diag == [2.8, 2.8, 2.24]
    assert np.allclose(values["qcr.covariance(model, p)"], np.diag(cov_diag), atol=1e-12)

    (optimum,) = numbers(comments["res.optimum"])
    assert optimum == 7.84 and comments["res.optimum"].startswith("~")
    assert ns["res"].status == "converged"
    assert values["res.optimum"] == pytest.approx(optimum, abs=1e-6)


def test_library_example_names_every_trace_field():
    # the comment after "per-round record:", over as many comment lines as it takes
    listed = re.search(r"res\.trace\[-1\]\.lp_value\s+#[^:]*:(.*?)\n\n", library_example(), re.S).group(1)
    assert re.findall(r"\w+", listed.replace("#", " ")) == [f.name for f in dataclasses.fields(DualRound)]
