"""Source hygiene, read with the standard library's ``ast``: no module imports
a name it never uses, every module-level private function or class is used
somewhere in the package, and the pipeline stages know no classifier family.
Also, the test configuration lets a failing hypothesis test report its example."""

import ast
import subprocess
import sys
from pathlib import Path

import mimiclearn
from mimiclearn.classifiers import DEFAULT_HYPERPARAMETERS, FAMILIES

PACKAGE = Path(mimiclearn.__file__).parent
MODULES = {p.relative_to(PACKAGE).as_posix(): ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted(PACKAGE.rglob("*.py"))}

# perfbench/spans.py rebinds these module attributes to time the calls
# (ROADMAP item 3), so they are imported where nothing calls them
KEPT_IMPORTS = {
    ("cli.py", "predict_batch"), ("cli.py", "score_batch"), ("cli.py", "model_to_file"),
    ("mimic.py", "score_batch"),
}


def _used_names(tree):
    """Every name the module reads, as a bare name, an attribute or an ``__all__`` entry."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_imported_name_is_used():
    unused = []
    for module, tree in MODULES.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (module, name) not in KEPT_IMPORTS:
                        unused.append((module, name))
    assert unused == []


def test_every_private_function_and_class_is_used():
    used = set().union(*map(_used_names, MODULES.values()))
    unused = [(module, node.name) for module, tree in MODULES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []


def test_pipeline_stages_reach_families_only_through_classifiers():
    # mimic.py's races and fidelity report leave every family decision (which
    # folds one fit grows, how its model splits) to classifiers: no model's
    # .params is read there, and no family kind or hyperparameter is named
    family_names = set(FAMILIES).union(*DEFAULT_HYPERPARAMETERS.values())
    found = [ast.unparse(node) for node in ast.walk(MODULES["mimic.py"])
             if isinstance(node, ast.Attribute) and node.attr == "params"
             or isinstance(node, ast.Constant) and node.value in family_names]
    assert found == []


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # hypothesis imports libcst to report the example, and libcst's import warns
    # of a deprecation that the configuration otherwise turns into an error
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@given(st.integers(0, 10))\n"
        "@settings(database=None, max_examples=20)\n"
        "def test_fails(n):\n"
        "    assert n < 5\n", encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "test_fails.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 1, child.stdout + child.stderr
    assert "INTERNALERROR" not in child.stdout + child.stderr
    assert "Falsifying example: test_fails(" in child.stdout
