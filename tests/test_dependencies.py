"""chronoseq depends on numpy alone: every module under src/chronoseq imports only
the standard library, numpy and chronoseq itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chronoseq"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "chronoseq"}


def _foreign_imports(path):
    """(line, module) of each absolute import in the file at path whose top-level package is not ALLOWED."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in ALLOWED:
                yield node.lineno, name


def test_the_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    foreign = [f"{path.relative_to(PACKAGE.parents[1])}:{line}: {name}"
               for path in modules for line, name in _foreign_imports(path)]
    assert not foreign, "imports outside the standard library and numpy:\n" + "\n".join(foreign)


def test_a_foreign_import_is_named_with_its_file_and_line(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom . import sibling\nimport numpy.linalg\n\ndef f():\n    import scipy.stats\n"
                      "from pandas import DataFrame\n", encoding="utf-8")
    assert sorted(_foreign_imports(module)) == [(6, "scipy.stats"), (7, "pandas")]
