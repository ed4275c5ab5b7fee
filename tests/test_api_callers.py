"""Every function, class and public method in `src/chronoseq` has a caller.

A caller is a use of the name, as an `ast.Name` or an `ast.Attribute`,
anywhere in `src/` or `perfbench/` outside the definition itself. Imports,
re-exports and `__all__` strings are not uses. The match is by name alone,
so a collision can hide dead code from this test but never flags live code.

Names that only the tests call stay only when they are a reference the
tests check the pipeline against; each is listed in TEST_REFERENCE_API with
its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chronoseq"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")

TEST_REFERENCE_API = {
    "simulate_probability": "the one-patient zero-shot entry point that the acceptance tests run",
    "classify_continuation": "the in-window outcome reference that the WindowRule tests compare against",
    "validate_sequence": "the grammar check that the acceptance tests apply to generated sequences",
    "recompose_interval": "the inverse that checks decompose_interval round-trips",
    "handcrafted_forward": "the paper's hand-built router for the logic task",
}


def _definitions():
    """(name, where, file, first line, last line) of every function, class and public method."""
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node.name, f"{rel}:{node.lineno}", path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield (f"{node.name}.{item.name}", f"{rel}:{item.lineno}", path,
                               item.lineno, item.end_lineno)


def _uses():
    """name -> [(file, line)] of every Name and Attribute node in the caller directories."""
    uses: dict[str, list] = {}
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, []).append((path, node.lineno))
    return uses


def _has_caller(uses, name, path, first, last):
    short = name.rpartition(".")[2]
    return any(p != path or not first <= line <= last for p, line in uses.get(short, ()))


def test_every_public_name_has_a_caller():
    uses = _uses()
    uncalled = {name: where for name, where, path, first, last in _definitions()
                if not _has_caller(uses, name, path, first, last)}
    dead = sorted(f"{name} ({uncalled[name]})" for name in uncalled.keys() - TEST_REFERENCE_API.keys())
    assert not dead, "defined in src/chronoseq but used nowhere in src/ or perfbench/:\n" + "\n".join(dead)
    stale = sorted(TEST_REFERENCE_API.keys() - uncalled.keys())
    assert not stale, f"TEST_REFERENCE_API lists names that are defined nowhere or have callers now: {stale}"
