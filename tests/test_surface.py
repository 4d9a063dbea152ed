"""The package's surface: the README's library example runs as printed, and
every public name in ``src/amplipriv``, and every public method and annotated
field of its classes, has a reader in the package or in the benchmark."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "amplipriv"

# results of the paper kept as library API, though no command reads them
LIBRARY_RESULTS = {"amplify_generic", "corollary_bound", "linear_combination", "save_dataset_csv"}

# class members that no code in the package or the benchmark reads, with the reason each stays
UNREAD_MEMBERS = {
    "cli.Field.doc": "the README's schema table is checked against it",
}


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "0.5\n"


def _reads(path: Path) -> set:
    """Every name a file loads, takes as an attribute or imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _public_names(path: Path) -> set:
    """The public names a module defines at its top level."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return {name for name in out if not name.startswith("_")}


def test_every_public_name_has_a_reader():
    """A public top-level name is read by code in ``src/amplipriv`` (the
    re-exports of ``__init__.py`` do not count) or in ``bench/``, or it is one
    of the library results above. The tests are no reader: a name only they
    reach belongs in the tests."""
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    readers = modules + sorted((ROOT / "bench").rglob("*.py"))
    read = set().union(*map(_reads, readers))
    unread = {name: p.stem for p in modules for name in _public_names(p) - read}
    assert [f"{unread[n]}.{n}" for n in sorted(set(unread) - LIBRARY_RESULTS)] == []
    # a listed result that gains a reader leaves the list
    assert LIBRARY_RESULTS <= set(unread)


def _attribute_reads(path: Path) -> set:
    """Every name a file reads as an attribute."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _members(path: Path) -> set:
    """(class, name) of the public methods and annotated fields of a module's classes."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out.add((node.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    out.add((node.name, item.target.id))
    return {(cls, name) for cls, name in out if not name.startswith("_")}


def test_every_class_member_has_a_reader():
    """A public method or annotated field of a class in ``src/amplipriv`` is
    read as an attribute, under its name, by code in ``src/amplipriv`` or in
    ``bench/``, or it is listed above with its reason. A field only the
    tests read belongs in the tests. Names are matched, not types, so a
    member that shares its name with one that is read passes."""
    modules = sorted(SRC.glob("*.py"))
    read = set().union(*map(_attribute_reads, modules + sorted((ROOT / "bench").rglob("*.py"))))
    unread = {f"{p.stem}.{cls}.{name}" for p in modules for cls, name in _members(p)
              if name not in read}
    assert sorted(unread - set(UNREAD_MEMBERS)) == []
    # a listed member that gains a reader leaves the list
    assert set(UNREAD_MEMBERS) <= unread
