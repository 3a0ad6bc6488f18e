"""Source hygiene, read with the standard library's ``ast``: no module imports
a name it never uses, every module-level private function or class is used
somewhere in the package, and the pipeline stages know no classifier family."""

import ast
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
