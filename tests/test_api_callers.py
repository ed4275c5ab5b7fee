"""Every function, class and public method in `src/chronoseq` has a caller,
and every defaulted parameter of one, and every defaulted field of a
dataclass, is set by some caller.

A caller is a use of the name, as an `ast.Name` or an `ast.Attribute`,
anywhere in `src/` or `perfbench/` outside the definition itself. Imports,
re-exports and `__all__` strings are not uses. The match is by name alone,
so a collision can hide dead code from this test but never flags live code.

Names that only the tests call stay only when they are a reference the
tests check the pipeline against; each is listed in TEST_REFERENCE_API with
its reason. Defaulted parameters that only the tests set stay only when they
are a seam the tests need; each is listed in TEST_SEAMS with its reason.

A defaulted dataclass field is set by a keyword or positional argument of a
call to its class (or a subclass), a keyword of a `replace` call, or an
attribute assignment. Two kinds are exempt by rule: the fields of a config
schema (a dataclass, or a base of one, that a config loader reads by name)
and `default_factory` containers that the code fills in place. Dataclasses
whose defaulted fields only the tests set are listed in FIELD_SEAMS.
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
    "nnaa_risk": "one attack on its own: C10 runs it, and the suite's NNAA is tested against it",
    "membership_inference": "one attack on its own: C10 runs it, and the suite's membership is tested against it",
    "attribute_inference": "one attack on its own: C10 runs it, and the suite's attribute score is tested against it",
}

TEST_SEAMS = {
    ("main", "argv"): "the tests drive the CLI in process",
    ("sample_hospital_records", "cfg"): "the test worlds set their own WorldConfig",
    ("decode_sequence", "anchor"): "the C05 round trip decodes against each record's own first date",
    ("train", "stop_when"): "the C06 overfit oracle stops training once the batch is memorized",
    ("fit_logistic", "tol"): "the scale-equivariance test tightens the convergence tolerance",
    ("nnaa_risk", "seed"): "the per-attack tests draw NNAA samples at several seeds",
    ("nnaa_risk", "sample_size"): "the per-attack tests subsample below the set sizes",
}

FIELD_SEAMS = {
    "WorldConfig": "the test worlds set their own WorldConfig until synthworld has callers that vary it",
}

CONFIG_LOADERS = ("load_config", "read_config", "_config_input")  # a dataclass passed to one is a config schema
FILLERS = ("append", "extend", "insert", "add", "update", "setdefault")  # methods that fill a container in place


def _name(node):
    """The called or referenced name of a Name or Attribute node, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


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


def _defaulted(fn, method):
    """(name, position or None for keyword-only) of each parameter of fn that has a default;
    a method's positions do not count self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list) else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _defaulted_parameters():
    """(callable name, parameter, position, where) of every defaulted parameter of a module-level
    function, a method or an explicit __init__ (filed under its class). Dataclass fields are not
    parameters here: the config loaders set them by name, and the reports count into them."""
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for param, pos in _defaulted(node, method=False):
                    yield node.name, param, pos, f"{rel}:{node.lineno}"
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = node.name if item.name == "__init__" else item.name
                        for param, pos in _defaulted(item, method=True):
                            yield name, param, pos, f"{rel}:{item.lineno}"


def _calls():
    """name -> [ast.Call] of every call in the caller directories, by the called name; a cls(...)
    call inside a classmethod is filed under its class."""
    calls: dict[str, list] = {}
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own_class = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for item in cls.body:
                        if isinstance(item, ast.FunctionDef) and any(
                                getattr(d, "id", None) == "classmethod" for d in item.decorator_list):
                            own_class.update((id(n), cls.name) for n in ast.walk(item) if isinstance(n, ast.Call))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _name(node.func)
                if name == "cls" and id(node) in own_class:
                    name = own_class[id(node)]
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call, param, pos):
    """Does the call pass param, by keyword or at its position? A * or ** argument may pass anything."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return pos is not None and (len(call.args) > pos or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = _calls()
    unset = {(name, param): where for name, param, pos, where in _defaulted_parameters()
             if not any(_sets(c, param, pos) for c in calls.get(name, ()))}
    dead = sorted(f"{name}({param}) ({unset[name, param]})" for name, param in unset.keys() - TEST_SEAMS.keys())
    assert not dead, ("defaulted in src/chronoseq but set by no call in src/ or perfbench/:\n" + "\n".join(dead))
    stale = sorted(TEST_SEAMS.keys() - unset.keys())
    assert not stale, f"TEST_SEAMS lists parameters that are defined nowhere or have callers now: {stale}"


def _dataclasses():
    """name -> (ClassDef, where) of every module-level dataclass in src/chronoseq."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                    _name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list):
                out[node.name] = node, path.relative_to(ROOT)
    return out


def _bases(classes, name):
    return [_name(b) for b in classes[name][0].bases if _name(b) in classes]


def _fields(classes, name):
    """[(class, field, where, has a default, has a default_factory, constructor position or None)] of a
    dataclass, its dataclass bases' fields first."""
    node, rel = classes[name]
    out = [f for base in _bases(classes, name) for f in _fields(classes, base)]
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        v = item.value
        kw = {k.arg: k.value for k in v.keywords} if isinstance(v, ast.Call) and _name(v.func) == "field" else None
        if kw is None:
            default, factory, positional = v is not None, False, True
        else:
            default, factory = "default" in kw or "default_factory" in kw, "default_factory" in kw
            positional = not any(getattr(kw.get(k), "value", None) is flag
                                 for k, flag in (("init", False), ("kw_only", True)))
        out.append((name, item.target.id, f"{rel}:{item.lineno}", default, factory, positional))
    position = 0
    for i, (cls, fname, where, default, factory, positional) in enumerate(out):
        out[i] = (cls, fname, where, default, factory, position if positional else None)
        position += positional
    return out


def _field_writes():
    """(attribute names assigned anywhere, attribute names whose value is filled in place,
    names passed to a config loader) over the caller directories."""
    assigned, filled, schemas = set(), set(), set()
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = _name(node.func)
                    if name in CONFIG_LOADERS:
                        schemas.update(_name(a) for a in node.args)
                    elif name == "__setattr__" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                        assigned.add(node.args[1].value)  # object.__setattr__(self, "field", value)
                    elif name in FILLERS and isinstance(getattr(node.func, "value", None), ast.Attribute):
                        filled.add(node.func.value.attr)  # x.field.append(...)
                elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, ast.Store):
                    if isinstance(node, ast.Attribute):
                        assigned.add(node.attr)  # x.field = ... or x.field += ...
                    if isinstance(node.value, ast.Attribute):
                        filled.add(node.value.attr)  # x.field[k] = ... or x.field.count = ...
    return assigned, filled, schemas


def test_every_defaulted_dataclass_field_is_set_by_a_caller():
    classes, calls = _dataclasses(), _calls()
    assigned, filled, schemas = _field_writes()
    loaded, stack = set(), [s for s in schemas if s in classes]
    while stack:  # a schema's bases are loaded by name too
        name = stack.pop()
        loaded.add(name)
        stack += [b for b in _bases(classes, name) if b not in loaded]
    unset = {}
    for name in classes:
        subclasses = [c for c in classes if name in _bases(classes, c)]
        for cls, field, where, default, factory, pos in _fields(classes, name):
            if cls != name or not default or name in loaded or (factory and field in filled):
                continue
            constructors = [c for n in (name, *subclasses) for c in calls.get(n, ())]
            if field in assigned or any(_sets(c, field, pos) for c in constructors) or any(
                    k.arg == field for c in calls.get("replace", ()) for k in c.keywords):
                continue
            unset.setdefault(name, []).append(f"{name}.{field} ({where})")
    dead = sorted(f for name in unset.keys() - FIELD_SEAMS.keys() for f in unset[name])
    assert not dead, "defaulted dataclass fields set by no call or assignment in src/ or perfbench/:\n" + "\n".join(
        dead)
    stale = sorted(FIELD_SEAMS.keys() - unset.keys())
    assert not stale, f"FIELD_SEAMS lists dataclasses defined nowhere or whose fields have callers now: {stale}"
