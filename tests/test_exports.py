"""Reach guard: each class and function that `rovella` exports is named in
the code of the package itself, or has a reader outside it listed in
`LIBRARY_ONLY`, so code that nothing reaches cannot build up in `src/`."""

import ast
import inspect
from pathlib import Path

import rovella

# Exports that no module of the package names in its code (a docstring does
# not count), each with the reader that keeps it: an acceptance criterion,
# the README's library sketch, a benchmark import, or a test reference.
LIBRARY_ONLY = {
    # `derivative` counted as reached only while scipy built the table
    # splines: `table_family` called scipy's `spline.derivative(...)`, an
    # attribute of the same name.
    "derivative": "acceptance criterion 09",
    "derive_seed": "test reference: the per-stream seed each `noise.ensemble_keys` row reproduces",
    "ensemble_orbits": "benchmark import (benchmarks/layers.py) and acceptance criterion 03",
    "evaluate": "benchmark import (benchmarks/harness.py, layers.py), acceptance criteria 06, 09",
    "hyperbolic_times": "the README's library sketch",
    "pliss_times": "acceptance criterion 02",
    "quenched_correlation": "benchmark import (benchmarks/layers.py) and the README's library "
    "sketch: one direction of `quenched_correlations`, which the CLI calls",
    "sample_tower_orbits": "acceptance criterion 06",
    "second_derivative": "acceptance criterion 09",
    "tower_step": "benchmark import (benchmarks/layers.py)",
    "ulam_row_operator": "benchmark import (benchmarks/harness.py) and test reference: "
    "the row operator that `OperatorCache.get` views",
}


def test_every_export_is_reached():
    names = set()
    for path in Path(rovella.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):  # `from .noise import shift as ...`
                names.add(node.name)
    exports = {
        name for name in rovella.__all__
        if inspect.isfunction(obj := getattr(rovella, name))
        or (inspect.isclass(obj) and not issubclass(obj, Exception))
    }
    unreached = exports - names
    assert sorted(unreached - LIBRARY_ONLY.keys()) == []
    # An entry whose name is gone, or is now reached, leaves the table.
    assert sorted(LIBRARY_ONLY.keys() - unreached) == []
