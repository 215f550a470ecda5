"""Every public ``msgt`` function is used in ``src/`` or ``bench/``, and each of its defaulted
parameters is both set and left at its default there.

A function that only tests call is dead code. A default that no caller overrides is a constant
written as a knob: it widens the interface and invites checks that guard nothing. A default that
every caller overrides is read only by tests, so the value belongs at the calls. The scan reads
source, not running code. A call matches a function by the callee's last name (``f(...)``,
``M.f(...)``; ``Tensor(...)`` for ``Tensor.__init__``) and names a parameter by keyword, or by
position before any ``*args``; a ``**kwargs`` forward names nothing. A call leaves every parameter
it does not name at its default. A named parameter is set, unless the call passes the default's own
expression, which neither sets nor leaves it. Passing on a defaulted parameter of an enclosing
public function sets the callee's only where that one is set. What only a ``**kwargs`` forward, a
test or a command line sets is listed in ``UNSEEN``, and a function that only tests call in
``UNCALLED``, each with its reason. A public function of ``tensor`` is checked for use by
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


def scan(functions) -> tuple[set, dict, set]:
    """The (function, parameter) pairs that calls in src/ or bench/ set outright, the forwards:
    callee pair -> the enclosing functions' pairs whose values it takes, and the pairs that some
    call leaves at the default."""
    direct, forwards, left = set(), {}, set()

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
                left.update((callee, param) for param in defaults.keys() - {param for param, _ in passed})
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
    return direct, forwards, left


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
    direct, forwards, _ = scan(functions)
    set_somewhere = closure(direct | set(UNSEEN), forwards)
    unset = sorted(
        f"{fn}({param}=...)" for fn, (_, defaults) in functions.items() for param in defaults
        if (fn, param) not in set_somewhere
    )
    assert not unset, f"no call in src/ or bench/ sets these; make them constants: {', '.join(unset)}"


def test_every_default_is_left_by_some_caller():
    """``UNCALLED`` functions have no caller to leave one."""
    functions = public_functions()
    _, _, left = scan(functions)
    always_set = sorted(
        f"{fn}({param}=...)" for fn, (_, defaults) in functions.items() if fn not in UNCALLED for param in defaults
        if (fn, param) not in left
    )
    assert not always_set, f"every call in src/ or bench/ sets these; drop the defaults: {', '.join(always_set)}"


@pytest.mark.parametrize(
    "fn, param",
    [
        ("bias_matrix", "with_msg"), ("build_region_view", "anchor"), ("conv2d", "stride"), ("conv2d", "padding"),
        ("evaluate", "smoothing"), ("linear", "bias"), ("parse_config", "seed_override"), ("tmean", "axis"),
        ("information_reach", "region_size"), ("information_reach", "mode"), ("information_reach", "window"),
        ("make_block_params", "mode"), ("make_block_params", "use_msg"), ("make_block_params", "msg_only"),
    ],
)
def test_value_every_call_passes_has_no_default(fn, param):
    """Each call states these values; a default would be read only by tests."""
    positional, defaults = public_functions()[fn]
    assert param in positional and param not in defaults


@pytest.mark.parametrize("fn", ["build_model", "make_block_params", "trunc_normal"])
def test_builds_take_no_dtype(fn):
    """Models are built in float32; a float64 check widens or redraws the build."""
    positional, defaults = public_functions()[fn]
    assert "dtype" not in positional and "dtype" not in defaults


def test_every_unseen_entry_is_a_defaulted_parameter_no_call_sets():
    """An entry whose parameter went, or that a call now sets, is stale."""
    functions = public_functions()
    assert all(param in functions.get(fn, ((), {}))[1] for fn, param in UNSEEN)
    direct, forwards, _ = scan(functions)
    assert not set(UNSEEN) & closure(direct, forwards)


@pytest.mark.parametrize(
    "body, elsewhere, is_set, is_left",
    [
        ("f(1)", "", False, True),  # left at its default
        ("f(1, b=1)", "", False, False),  # the default's own expression neither sets nor leaves it
        ("f(1, 2)", "", True, False),  # by position
        ("M.f(a=1, b=2)", "", True, False),  # by keyword, through a module attribute
        ("f(*args, 2)", "", False, True),  # nothing at or after a *args counts
        ("f(*args, b=2)", "", True, False),  # a keyword after a *args counts
        ("f(1, **kwargs)", "", False, True),  # a ** forward names nothing
        ("f(1, c)", "", False, False),  # forwards g's default, which no call sets
        ("f(1, c)", "g(4)", True, False),  # forwards g's default, which a call sets
        ("f(1)", "f(1, 2)", True, True),  # one call leaves it, another sets it
    ],
)
def test_scan_reads_calls_by_the_stated_rules(tmp_path, monkeypatch, body, elsewhere, is_set, is_left):
    """The guard's rules, on a one-module package: does any call set ``f``'s ``b``, and does any leave it?"""
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
    direct, forwards, left = scan(functions)
    assert (("f", "b") in closure(direct, forwards)) == is_set
    assert (("f", "b") in left) == is_left
