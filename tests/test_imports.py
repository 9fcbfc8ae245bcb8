"""Imports: every name a package module imports is used in that module,
the crisp half of the package imports neither numpy nor the training
engine, and the package exports its names lazily."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slotlogic
from slotlogic import generate_corpus
from slotlogic.cli import run_pipeline
from slotlogic.dialog import save_corpus, write_json_lines
from slotlogic.extract import save_program

from .test_cli_fuzz import MULTIWOZ_RECORD
from .test_pipeline import GOLDEN_PROGRAM

PACKAGE = Path(slotlogic.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# The data and crisp modules, and what they may not import when loaded.
CRISP = ("logic", "templates", "dialog", "multiwoz", "extract", "metrics")
NUMERIC = {"numpy", "engine", "simulator", "gradcheck", "pipeline", "cli"}

# Each name the package exported when it imported its modules eagerly,
# under the module it came from then.
EXPORTED = {
    "dialog": "BeliefState Dialog DialogAct DomainSpec SampleRecord Turn build_sample "
              "decode_acts encode_acts encode_state",
    "engine": "CompiledModel Hyperparams ModelCompiler Sample TrainedModel TrainingDiverged "
              "finite_difference_grad infer loss loss_and_grad train",
    "extract": "PolicyProgram crisp_infer extract_program load_program save_program",
    "logic": "Atom Clause GroundIndex LanguageFrame ParseError Predicate Term UnsafeClauseError "
             "atom build_ground_index format_atom format_clause parse_atom parse_clause",
    "metrics": "F1Score MetricsReport",
    "multiwoz": "convert_multiwoz_records",
    "simulator": "DOMAINS GeneratorConfig generate_corpus generate_dialog representative_dialog",
    "templates": "ProgramTemplate RuleTemplate generate_clauses",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
    quoted = [ast.parse(a.value, mode="eval") for a in annotations
              if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in (tree, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def load_time_imports(tree: ast.Module) -> dict[str, int]:
    """Each module part an import statement that runs on loading names
    (``from .engine import x`` and ``from . import engine`` both name
    ``engine``), with its line. Function bodies and ``if TYPE_CHECKING:``
    blocks do not run on loading."""
    names, stack = {}, list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import | ast.ImportFrom):
            for name in [getattr(node, "module", None), *(a.name for a in node.names)]:
                for part in (name or "").split("."):
                    names.setdefault(part, node.lineno)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif not isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("name", CRISP)
def test_crisp_module_loads_no_numeric_module(name):
    path = PACKAGE / f"{name}.py"
    imports = load_time_imports(ast.parse(path.read_text(), filename=str(path)))
    numeric = {m: line for m, line in imports.items() if m in NUMERIC}
    assert not numeric, f"{name}.py imports on loading: {numeric}"


# Runs the commands given as JSON in argv[1] with numpy unimportable.
BLOCKED_NUMPY_RUN = """
import json, sys
sys.modules["numpy"] = None
from slotlogic.cli import run_pipeline
for argv in json.loads(sys.argv[1]):
    assert run_pipeline(argv) == 0, argv
assert "slotlogic.engine" not in sys.modules
"""


def test_crisp_commands_run_without_numpy(tmp_path, capsys):
    save_corpus(generate_corpus("movie", 20, seed=7), tmp_path / "corpus.jsonl")
    write_json_lines(tmp_path / "annotated.jsonl", [MULTIWOZ_RECORD, MULTIWOZ_RECORD])
    save_program(GOLDEN_PROGRAM, tmp_path / "program.txt")

    def commands(out: Path) -> list[list[str]]:
        out.mkdir()
        argvs = []
        for fmt, corpus in (("simdial", "corpus.jsonl"), ("multiwoz", "annotated.jsonl")):
            samples, preds = str(out / f"{fmt}_samples.jsonl"), str(out / f"{fmt}_preds.jsonl")
            argvs += [
                ["convert", "--format", fmt, "--in", str(tmp_path / corpus), "--out", samples],
                ["transfer", "--program", str(tmp_path / "program.txt"), "--samples", samples,
                 "--out", preds],
                ["eval", "--pred", preds, "--gold", samples,
                 "--report", str(out / f"{fmt}_report.json")],
            ]
        return argvs

    capsys.readouterr()
    for argv in commands(tmp_path / "numpy"):
        assert run_pipeline(argv) == 0, argv
    summaries = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_NUMPY_RUN, json.dumps(commands(tmp_path / "blocked"))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == summaries
    written = sorted(p.name for p in (tmp_path / "numpy").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "blocked").iterdir())
    assert len(written) == 6
    for name in written:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


def test_package_exports_resolve_to_their_modules():
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"slotlogic.{module}")
        for name in names.split():
            scope = {}
            exec(f"from slotlogic import {name}", scope)
            assert scope[name] is getattr(owner, name), (module, name)
    with pytest.raises(ImportError):
        exec("from slotlogic import nosuch", {})
