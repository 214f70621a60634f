import ast
import math
import shutil
import sys
from pathlib import Path

import irgaze
from irgaze import DetectConfig, decode_pgm, observe_face
from irgaze.synth import DatasetSpec, default_poses, generate_dataset


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from irgaze import *", namespace)  # raises on a name that is gone
    assert set(irgaze.__all__) <= set(namespace)
    assert len(set(irgaze.__all__)) == len(irgaze.__all__)


def test_runtime_imports_only_the_standard_library_and_numpy():
    """pyproject.toml declares numpy as the one runtime dependency."""
    sources = sorted(Path(irgaze.__file__).parent.rglob("*.py"))
    assert len(sources) > 5
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in (*sys.stdlib_module_names, "numpy")}
    assert not outside


def _outside_the_input_rules(match) -> list[str]:
    """Each node that ``match`` accepts in a module other than
    imaging/image.py, which holds the input rules, as "path:line: source"."""
    root = Path(irgaze.__file__).parent
    image = root / "imaging" / "image.py"
    sources = sorted(root.rglob("*.py"))
    assert image in sources
    return [f"{path.relative_to(root)}:{node.lineno}: {ast.unparse(node)}"
            for path in sources if path != image
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if match(node)]


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_the_finiteness_rule_is_written_once():
    """``check_finite`` in imaging/image.py is the one place that tests
    whether a number is finite: no other module names ``math.isfinite`` or
    ``sys.float_info.max``, as a call or in a comparison."""
    assert not _outside_the_input_rules(
        lambda node: isinstance(node, ast.Attribute)
        and ast.unparse(node) in ("math.isfinite", "sys.float_info.max"))


def test_no_module_but_the_cli_writes_to_the_terminal():
    """The library reports through return values and exceptions: no module
    but cli.py calls ``print`` or names ``sys.stdout`` or ``sys.stderr``."""
    root = Path(irgaze.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}: {ast.unparse(node)}"
             for path in sorted(root.rglob("*.py")) if path != root / "cli.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
             or isinstance(node, ast.Attribute)
             and ast.unparse(node) in ("sys.stdout", "sys.stderr")]
    assert found == []


def test_the_json_type_rule_is_written_once():
    """``check_type`` in imaging/image.py is the one place that raises
    TypeError: every reader gets a field's JSON type check from it."""
    assert not _outside_the_input_rules(
        lambda node: isinstance(node, ast.Raise) and node.exc is not None
        and "TypeError" in _names(node.exc))


def test_every_reader_of_an_input_file_sits_in_the_one_guard():
    """``_reading`` in cli.py is the one place that turns a failure to read
    or parse an input file into an exit-2 error: every ``json.loads``,
    ``csv.reader`` and ``csv.DictReader`` call sits in a ``with _reading(...)``
    block."""
    root = Path(irgaze.__file__).parent
    calls, guarded = [], set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.With) and any(
                    isinstance(item.context_expr, ast.Call)
                    and ast.unparse(item.context_expr.func) == "_reading"
                    for item in node.items):
                guarded |= {n for stmt in node.body for n in ast.walk(stmt)}
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "json.loads", "csv.reader", "csv.DictReader"):
                calls.append((f"{path.relative_to(root)}:{node.lineno}", node))
    assert len(calls) >= 5
    assert [where for where, node in calls if node not in guarded] == []


def test_no_module_but_the_type_rule_tests_for_bool_or_an_exact_type():
    """A JSON number, integer or true/false is told apart from the others
    by ``check_type`` alone: no module outside imaging/image.py writes
    ``isinstance(..., bool)`` or ``type(...) is ...``."""
    def own_type_rule(node) -> bool:
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            return len(node.args) == 2 and "bool" in _names(node.args[1])
        return (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(side, ast.Call) and ast.unparse(side.func) == "type"
                        for side in (node.left, *node.comparators)))

    assert not _outside_the_input_rules(own_type_rule)


def test_every_error_class_is_raised_or_a_base():
    """Failure counts are keyed by the classes in errors.py, so each one is
    either constructed somewhere else in the package or is the base of
    another class there: a class that nothing raises would count nothing."""
    root = Path(irgaze.__file__).parent
    errors = root / "errors.py"
    classes = [node for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    constructed = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for path in sorted(root.rglob("*.py")) if path != errors
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert len(classes) > 10
    assert [node.name for node in classes if node.name not in constructed | bases] == []


def test_the_readme_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    """The example once read its frame through ``open(...).read()``, which
    left the file open.  Here a one-pose synth dataset's detected training
    frames are its ``labeled_observations`` and an evaluation frame is its
    ``frame.pgm``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library example\n")[1].split("```python\n")[1].split("```")[0]
    data = tmp_path / "ds"
    manifest = generate_dataset(
        DatasetSpec(poses=default_poses()[:1], eval_points=1, training_repeats=1), data)
    labeled = [(observe_face(decode_pgm((data / f["file"]).read_bytes()), DetectConfig(),
                             frame_id=f["file"]), f["corner"])
               for f in manifest["frames"] if f["role"] == "training"]
    (frame,) = (f for f in manifest["frames"] if f["role"] == "evaluation")
    shutil.copyfile(data / frame["file"], tmp_path / "frame.pgm")
    monkeypatch.chdir(tmp_path)
    namespace = {"labeled_observations": labeled}
    exec(block, namespace)
    estimate = namespace["estimate"]
    assert capsys.readouterr().out == f"{estimate.point} both\n"
    assert math.dist(estimate.point, frame["gaze"]) < 2.0  # cm, as the CLI's details test
