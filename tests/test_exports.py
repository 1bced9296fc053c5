"""Every exported name resolves, and so does every entry point the README
names, so a deletion cannot leave a stale export or a stale doc."""

import ast
import importlib
import pkgutil
import re
import sys
import types
from pathlib import Path

import pytest

import persmod
from persmod import cli

SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(persmod.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    # a module without __all__ exports its public names, none stale
    module = importlib.import_module(f"persmod.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"persmod.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from persmod.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_exports_match_bound_names():
    bound = {
        n
        for n, obj in vars(persmod).items()
        if not n.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(set(persmod.__all__)) == len(persmod.__all__)
    assert set(persmod.__all__) == bound
    namespace = {}
    exec("from persmod import *", namespace)
    assert set(persmod.__all__) <= set(namespace)


def _assert_bound_only_in(owner, functions):
    for module in [persmod] + [
        importlib.import_module(f"persmod.{name}") for name in SUBMODULES
    ]:
        if module is not owner:
            for fn in functions:
                bound = [n for n, obj in vars(module).items() if obj is fn]
                name = fn.__name__
                assert not bound, f"{module.__name__} binds {name} as {bound}"


def test_reduce_loop_is_bound_only_in_linalg():
    # perfbench/layers.py traces every function that a second module
    # binds; homology and streaming reach the column loop as
    # ``linalg._reduce``, and constructions the preimage reduction as
    # ``linalg._preimage``, so that their time stays with the caller
    from persmod import linalg

    _assert_bound_only_in(linalg, (linalg._reduce, linalg._preimage))


def test_face_index_is_bound_only_in_homology():
    # cli names a broken rule through ``homology._face_index``, a face
    # listed after its coface through ``homology._face_broken`` and tests
    # descent through ``homology._descent_failure``, and streaming checks
    # a value through ``homology._time_fault``, so none is a span of its
    # own and the time stays with the caller
    from persmod import homology

    _assert_bound_only_in(
        homology,
        (
            homology._face_index,
            homology._face_broken,
            homology._time_fault,
            homology._descent_failure,
        ),
    )


# Exported functions that no module of the package calls, each with
# the reason it is kept.
UNCALLED_EXPORTS: dict[str, str] = {
    "add_simplex": (
        "the documented library entry point (README, persmod.streaming); "
        "the CLI inserts through its core streaming._insert"
    ),
}


def _package_nodes():
    """Every AST node of the package modules, ``__init__.py`` aside."""
    for path in Path(persmod.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text()))


def test_every_exported_function_is_called_in_the_package():
    # a public function only the tests run belongs in tests/helpers.py
    loaded = set()
    for node in _package_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    functions = [
        n
        for n in persmod.__all__
        if isinstance(getattr(persmod, n), types.FunctionType)
    ]
    uncalled = [
        n for n in functions if n not in loaded and n not in UNCALLED_EXPORTS
    ]
    assert not uncalled, f"no persmod module calls {uncalled}"
    assert set(UNCALLED_EXPORTS) <= set(functions)


# Public members of exported classes that no module of the package
# reads as an attribute, each with the reason it is kept.
FIELD_PROTOCOL = (
    "field protocol: the dense oracles in tests/helpers.py compute with "
    "it, while the package's own column loops call combine"
)
UNREAD_MEMBERS: dict[str, str] = {
    "PrimeField.char": FIELD_PROTOCOL,
    "PrimeField.sub": FIELD_PROTOCOL,
    "Rationals.char": FIELD_PROTOCOL,
    "Rationals.sub": FIELD_PROTOCOL,
    "Presentation.free": (
        "the documented way to take the kernel of a map between free "
        "modules (README, persmod.constructions.kernel)"
    ),
    "Presentation.from_terms": (
        "the documented way to build a presentation from terms in code "
        "(README's library example); the CLI reader builds its columns"
    ),
}


def test_every_public_member_is_read_in_the_package():
    # a stored field or method that nothing reads is a second copy of a
    # fact or dead code; the tests can reach the underlying state
    read = {
        node.attr
        for node in _package_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for name in persmod.__all__:
        cls = getattr(persmod, name)
        if not isinstance(cls, type):
            continue
        members = set(vars(cls)) | set(getattr(cls, "__slots__", ()))
        unread.update(
            f"{name}.{m}"
            for m in members
            if not m.startswith("_") and m not in read
        )
    missing = sorted(unread - set(UNREAD_MEMBERS))
    assert not missing, f"no persmod module reads {missing}"
    stale = set(UNREAD_MEMBERS) - unread
    assert not stale, f"UNREAD_MEMBERS names read or missing members {stale}"
    assert all(UNREAD_MEMBERS.values())


def test_package_imports_only_the_standard_library():
    # numpy and scipy are installed where the suite runs, so an
    # accidental import of either would pass every other test
    outside = []
    for path in sorted(Path(persmod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "persmod":
                    outside.append(f"{path.name}: {name}")
    assert not outside, f"non-stdlib imports {outside}"


README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_point_names():
    """Backticked identifiers in the README's main-entry-point bullets.

    A span counts when it is a dotted name, optionally called, like
    `persmod.fields` or `PrimeField(p)`; formulas and paths do not.
    """
    text = README.read_text()
    start = text.index("\n\n", text.index("The main entry points")) + 2
    bullets = text[start:text.index("\n\n", start)]
    names = []
    for span in re.findall(r"`([^`]+)`", bullets):
        found = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        if found:
            names.append(found.group(1))
    return names


def _resolves(name):
    parts = name.split(".")
    obj = persmod
    for part in parts[1:] if parts[0] == "persmod" else parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_entry_points_exist():
    # a README name is a package name, a CLI command or a test
    tests_dir = Path(__file__).resolve().parent
    test_defs = set(
        re.findall(
            r"^\s*def (test_\w+)",
            "".join(p.read_text() for p in tests_dir.glob("test_*.py")),
            re.M,
        )
    )
    names = _entry_point_names()
    assert len(names) > 30
    stale = [
        n
        for n in names
        if not _resolves(n) and n not in cli._COMMANDS and n not in test_defs
    ]
    assert not stale, f"README entry points name {stale}"


def _fenced(after):
    """The lines of the README's first fenced block after ``after``."""
    text = README.read_text()
    start = text.index("\n", text.index("```", text.index(after))) + 1
    return text[start:text.index("```", start)].splitlines()


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    # the CLI example reads the presentation block as m.pmod
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.pmod").write_text("\n".join(_fenced("Presentations (")) + "\n")
    got, want = [], []
    for line in _fenced("Example, using the presentation above"):
        if not line.startswith("$ "):
            want.append(line)
            continue
        for command in line[2:].split(" && "):
            argv = command.split()
            assert argv[0] == "persmod" and cli.main(argv[1:]) == 0
            got += capsys.readouterr().out.splitlines()
    assert want and got == want
    # the Library snippet runs and its comment names the bars it prints
    snippet = "\n".join(_fenced("## Library"))
    namespace = {}
    exec(snippet, namespace)
    capsys.readouterr()
    comment = re.search(r"print\(barcode\(p\)\) +# bars (.*)", snippet)
    bars = [(b.birth, b.death) for b in persmod.barcode(namespace["p"])]
    assert comment.group(1) == " and ".join(map(str, bars))
