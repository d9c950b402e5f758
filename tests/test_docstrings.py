"""Documentation quality gate.

Deliverable (e) requires doc comments on every public item; this test
walks the whole package and fails on any public module, class, function
or method without a docstring, so documentation debt cannot creep in.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import repro

#: Names that are legitimately docstring-free (dataclass auto-methods
#: and the like are filtered structurally, not listed here).
_EXEMPT_MODULES = {"repro.__main__"}


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in _EXEMPT_MODULES:
            continue
        yield importlib.import_module(info.name)


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if not defined_here:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def test_every_module_documented():
    missing = [module.__name__ for module in _walk_modules()
               if not (module.__doc__ or "").strip()]
    assert not missing, "undocumented modules: {}".format(missing)


def test_every_public_class_and_function_documented():
    missing = []
    for module in _walk_modules():
        for name, obj in _public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append("{}.{}".format(module.__name__, name))
    assert not missing, "undocumented: {}".format(missing)


def test_public_methods_documented():
    missing = []
    for module in _walk_modules():
        for cls_name, cls in _public_members(module):
            if not inspect.isclass(cls):
                continue
            for name, member in vars(cls).items():
                if name.startswith("_"):
                    continue
                func = member
                if isinstance(member, (staticmethod, classmethod)):
                    func = member.__func__
                elif isinstance(member, property):
                    func = member.fget
                if not inspect.isfunction(func):
                    continue
                if not (func.__doc__ or "").strip():
                    missing.append("{}.{}.{}".format(
                        module.__name__, cls_name, name))
    assert not missing, \
        "undocumented methods: {}".format(sorted(missing))


# -- DESIGN.md §3 module map ---------------------------------------------------

def _design_module_map():
    """Paths (``src/repro/...``) the §3 module map of DESIGN.md names.

    Inside the section's code block a line whose first word ends in
    ``/`` opens a package one indentation step below the package it
    sits in; the leading words ending in ``.py`` of any other line name
    files of the package the line is indented under.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 3.", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    named = set()
    packages = []                     # (indent, path) of open packages
    for line in block.splitlines():
        words = line.split()
        if not words:
            continue
        indent = len(line) - len(line.lstrip())
        while packages and packages[-1][0] >= indent:
            packages.pop()
        base = packages[-1][1] if packages else ""
        if words[0].endswith("/"):
            packages.append((indent, base + words[0]))
            continue
        for word in words:
            if not word.endswith(".py"):
                break
            named.add(base + word)
    return root, named


def test_design_module_map_matches_the_tree():
    root, named = _design_module_map()
    on_disk = {path.relative_to(root).as_posix()
               for path in (root / "src" / "repro").rglob("*.py")}
    assert not on_disk - named, "missing from DESIGN.md §3: {}".format(
        sorted(on_disk - named))
    assert not named - on_disk, "named in DESIGN.md §3 but absent: {}".format(
        sorted(named - on_disk))


# -- docs/PARAMETERS.md knob ledger ------------------------------------------

_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def _knobs_read_by_src(root):
    """``REPRO_*`` names the package spells as whole string literals."""
    names = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _KNOB.fullmatch(node.value):
                names.add(node.value)
    return names


def test_knob_ledger_matches_parameters_doc():
    root = pathlib.Path(__file__).resolve().parent.parent
    read = _knobs_read_by_src(root)
    documented = set(_KNOB.findall(
        (root / "docs" / "PARAMETERS.md").read_text(encoding="utf-8")))
    assert not read - documented, \
        "read under src/ but not in docs/PARAMETERS.md: {}".format(
            sorted(read - documented))
    assert not documented - read, \
        "in docs/PARAMETERS.md but read nowhere under src/: {}".format(
            sorted(documented - read))
    assert read == {"REPRO_JOBS", "REPRO_ANT_BATCH", "REPRO_EVAL_PROFILE"}
