"""A ratchet on code that nothing in the package uses.

The scan lists every function, class and method defined in `src/relbc`
whose name no module of `src/relbc` references, and compares the list with
a pinned set. It goes by name only: a `Name`, an attribute or an import of
the same name anywhere in the package counts as a reference. So a method
that shares its name with an attribute elsewhere escapes it, as
`Transcript.tau_ns` did while `transport._Session.tau_ns` existed. Dunder
methods are called by the language and are skipped.

A name may join the pinned set only with its reason written beside it;
the change that adds it says so.
"""

import ast
from pathlib import Path

import relbc

PACKAGE = Path(relbc.__file__).parent

# Reached from outside the package, so nothing inside it names them.
PINNED = {
    "honest_round_stream": "perfbench",
    "read_transcript": "perfbench",
    "run_loopback_session": "perfbench, and the live tests' harness",
    "write_tape": "perfbench",
    "write_transcript_stream": "perfbench",
    "random_int": "the per-element reference that `FieldSpec.random_block` matches",
    "batch_inverse": "perfbench",
    "run_honest_protocol": "the reference that streamed generation is compared against; perfbench",
}


def unreferenced_names(package: Path) -> set[str]:
    defined, referenced = set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return {name for name in defined - referenced
            if not (name.startswith("__") and name.endswith("__"))}


def test_unreferenced_names_are_the_pinned_set():
    found = unreferenced_names(PACKAGE)
    assert found == set(PINNED), (
        f"newly unreferenced: {sorted(found - set(PINNED))}; "
        f"referenced again or gone: {sorted(set(PINNED) - found)}")


def test_scan_finds_a_function_nothing_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "def used():\n    return os.sep\n"
        "def unused():\n    return used()\n"
        "class C:\n    def __len__(self):\n        return 0\n"
        "    def method(self):\n        return self.attr\n")
    (tmp_path / "b.py").write_text("from a import C\nattr = C().method\n")
    assert unreferenced_names(tmp_path) == {"unused"}
