"""Every public ``msgt`` function is used, and each of its defaulted parameters set, in ``src/`` or ``bench/``.

A function that only tests call is dead code, and a default that no caller overrides is a constant
written as a knob: it widens the interface and invites checks that guard nothing. The scan reads
source, not running code. A call matches a function by the callee's last name (``f(...)``,
``M.f(...)``; ``Tensor(...)`` for ``Tensor.__init__``) and passes a parameter by keyword, or by
position before any ``*args``. Passing the default's own expression sets nothing. Passing on a
defaulted parameter of an enclosing public function sets the callee's only where that one is set.
A ``**kwargs`` forward names nothing, so it sets nothing: what only such a forward, a test or a
command line sets is listed in ``UNSEEN``, and a function that only tests call in ``UNCALLED``,
each with its reason. A public function of ``tensor`` is checked for use by
``test_model.py::TestNoDeadOps``, which runs the model, not here.

Matching by last name cannot tell a ``msgt`` function from a numpy function or a method of the same
name: ``np.pad``, ``x.reshape`` or ``s.add`` count as uses of a ``msgt`` function so named, and such a
call's keyword counts as setting that function's parameter of the same name. Those names are not
checked.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msgt"

UNSEEN = {
    ("micro_config", "num_classes"): "presets are reached through preset_config(name, **kwargs)",
    ("micro_config", "task"): "presets are reached through preset_config(name, **kwargs)",
    ("information_reach", "use_msg"): "acceptance criterion 6 compares reach with and without messengers",
    ("information_reach", "num_blocks"): "acceptance criterion 6 compares reach after one and two blocks",
    ("information_reach", "seed"): "acceptance criterion 6 checks reach under more than one draw",
    ("main", "argv"): "the console script passes none; tests pass a command line",
    ("stage_geometry", "h"): "non-square inputs, kept for ROADMAP item 14",
    ("stage_geometry", "w"): "non-square inputs, kept for ROADMAP item 14",
    ("regions", "anchor"): "the inspection helper for either anchor, kept for ROADMAP item 8",
}

UNCALLED = {
    "regions": "the inspection helper that ROADMAP item 8 will use",
}


def sources() -> list[pathlib.Path]:
    return sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def public_functions(skip_module: str = "") -> dict[str, tuple[list[str], dict[str, str]]]:
    """Name -> (positional parameter names, {defaulted parameter: its default's AST dump}), over
    every module of the package but ``skip_module``."""
    found = {}

    def add(name: str, fn: ast.FunctionDef, skip: int = 0) -> None:
        a = fn.args
        positional = [arg.arg for arg in a.posonlyargs + a.args][skip:]
        defaults = dict(zip(positional[len(positional) - len(a.defaults) :], map(ast.dump, a.defaults)))
        defaults.update((arg.arg, ast.dump(d)) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
        found[name] = (positional, defaults)

    for path in sorted(p for p in PACKAGE.glob("*.py") if p.name != skip_module):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add(node.name, node)
            elif isinstance(node, ast.ClassDef) and node.name == "Tensor":
                add("Tensor", next(n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"), 1)
    return found


def scan(functions) -> tuple[set, dict]:
    """The (function, parameter) pairs that calls in src/ or bench/ set outright, and the forwards:
    callee pair -> the enclosing functions' pairs whose values it takes."""
    direct, forwards = set(), {}

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            scopes = scopes + [(getattr(node, "name", None), names)]
        if isinstance(node, ast.Call):
            f = node.func
            callee = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if callee in functions:
                positional, defaults = functions[callee]
                passed = []
                for i, arg in enumerate(node.args[: len(positional)]):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.append((positional[i], arg))
                passed += [(k.arg, k.value) for k in node.keywords if k.arg is not None]
                for param, value in passed:
                    if param in defaults:
                        passes(callee, param, value, defaults[param], scopes)
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    def passes(callee, param, value, default, scopes):
        if ast.dump(value) == default:
            return
        if isinstance(value, ast.Name):
            owner = next((name for name, names in reversed(scopes) if value.id in names), None)
            if owner in functions and value.id in functions[owner][1]:
                forwards.setdefault((callee, param), set()).add((owner, value.id))
                return
        direct.add((callee, param))

    for path in sources():
        visit(ast.parse(path.read_text()), [])
    return direct, forwards


def closure(start: set, forwards: dict) -> set:
    """``start`` plus every pair that a set pair forwards into, to the fixed point."""
    done = set(start)
    while True:
        more = {key for key, origins in forwards.items() if key not in done and origins & done}
        if not more:
            return done
        done |= more


def test_every_public_function_is_used():
    """A name read anywhere in src/ or bench/ (a call, a table entry, a re-export) counts as a use.
    Tensor ops are left to ``TestNoDeadOps``."""
    functions = public_functions(skip_module="tensor.py")
    used = set()
    for path in sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(functions) - used - set(UNCALLED)) == []
    assert set(UNCALLED) <= set(functions) - used  # no stale entry


def test_every_default_is_set_by_some_caller():
    functions = public_functions()
    direct, forwards = scan(functions)
    set_somewhere = closure(direct | set(UNSEEN), forwards)
    unset = sorted(
        f"{fn}({param}=...)" for fn, (_, defaults) in functions.items() for param in defaults
        if (fn, param) not in set_somewhere
    )
    assert not unset, f"no call in src/ or bench/ sets these; make them constants: {', '.join(unset)}"


def test_every_unseen_entry_is_a_defaulted_parameter_no_call_sets():
    """An entry whose parameter went, or that a call now sets, is stale."""
    functions = public_functions()
    assert all(param in functions.get(fn, ((), {}))[1] for fn, param in UNSEEN)
    direct, forwards = scan(functions)
    assert not set(UNSEEN) & closure(direct, forwards)


@pytest.mark.parametrize(
    "body, elsewhere, is_set",
    [
        ("f(1)", "", False),  # left at its default
        ("f(1, b=1)", "", False),  # the default's own expression sets nothing
        ("f(1, 2)", "", True),  # by position
        ("M.f(a=1, b=2)", "", True),  # by keyword, through a module attribute
        ("f(*args, 2)", "", False),  # nothing at or after a *args counts
        ("f(1, **kwargs)", "", False),  # a ** forward names nothing
        ("f(1, c)", "", False),  # forwards g's default, which no call sets
        ("f(1, c)", "g(4)", True),  # forwards g's default, which a call sets
    ],
)
def test_scan_reads_calls_by_the_stated_rules(tmp_path, monkeypatch, body, elsewhere, is_set):
    """The guard's rules, on a one-module package: does anything set ``f``'s ``b``?"""
    (tmp_path / "src" / "msgt").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "src" / "msgt" / "m.py").write_text(
        f"def f(a, b=1):\n    return a\n\n\ndef g(c=3, *args, **kwargs):\n    return {body}\n"
    )
    (tmp_path / "bench" / "run.py").write_text(f"{elsewhere}\n")
    guard = sys.modules[__name__]
    monkeypatch.setattr(guard, "ROOT", tmp_path)
    monkeypatch.setattr(guard, "PACKAGE", tmp_path / "src" / "msgt")
    functions = public_functions()
    assert functions["f"] == (["a", "b"], {"b": ast.dump(ast.Constant(1))})
    assert (("f", "b") in closure(*scan(functions))) == is_set
