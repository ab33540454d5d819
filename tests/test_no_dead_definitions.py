"""No function or class in ``src/`` that nothing outside the tests names.

An AST scan collects every ``def`` and ``class`` under ``src/``. A name
is live when it appears as a word anywhere in ``src/``, ``scripts/``,
``examples/``, ``perfbench/`` or ``experiments/`` beyond its own
definitions: a call, an attribute, an op name passed as a string (the
MDS ops travel as ``mds_call("create", …)``), a row function named by a
spec's JSON. A definition only the tests reach fails the scan unless
``ALLOWED`` names it with the reason it stays.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "scripts", "examples", "perfbench", "experiments")
SUFFIXES = (".py", ".json", ".md", ".toml", ".cfg", ".txt", ".yml", ".yaml")

#: definitions kept with no non-test caller, each with why it stays
ALLOWED = {
    "FilesystemLibrary.pipe_read": "paper §4.1 front-driver call",
    "FilesystemLibrary.pipe_write": "paper §4.1 front-driver call",
    "FilesystemLibrary.pipe_close": "paper §4.1 front-driver call",
    "FilesystemLibrary.readdir_next": "paper §4.1 front-driver call",
    "FilesystemLibrary.rewinddir": "paper §4.1 front-driver call",
    "Histogram.p50": "the percentile columns of every record need it",
    "Simulator.run_process": "drives one generator to completion; the "
                             "engine's documented one-shot entry point",
    "Monitor.is_out": "membership query beside is_up",
    "Monitor.is_suspect": "membership query beside is_up",
    "CachedFile.oldest_dirty_age": "dirty-order head age, compared with "
                                   "the reference page cache",
    "CephCluster.file_bytes": "stored bytes of one file across the OSDs, "
                              "what the truncate and unlink checks read",
}


def _words():
    counts = collections.Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in SUFFIXES and "__pycache__" not in path.parts:
                text = path.read_text(encoding="utf-8")
                counts.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return counts


def _definitions():
    """``(qualified name, name, file, line)`` of every def and class in
    src/."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualified = prefix + child.name
                    found.append((qualified, child.name,
                                  path.relative_to(ROOT), child.lineno))
                    stack.append((child, qualified + "."))
                else:
                    stack.append((child, prefix))
    return found


def _unreached():
    """Qualified name -> ``file:line`` of each definition whose name
    appears nowhere scanned but in its definitions."""
    words = _words()
    definitions = _definitions()
    defined = collections.Counter(name for _q, name, _p, _l in definitions)
    return {
        qualified: "%s:%d" % (path, line)
        for qualified, name, path, line in definitions
        if not name.startswith("__") and words[name] <= defined[name]
    }


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    dead = sorted("%s (%s)" % item for item in _unreached().items()
                  if item[0] not in ALLOWED)
    assert not dead, "only the tests reach: " + ", ".join(dead)


def test_every_allowed_name_is_still_an_unreached_definition():
    stale = sorted(set(ALLOWED) - set(_unreached()))
    assert not stale, "drop from ALLOWED: " + ", ".join(stale)
