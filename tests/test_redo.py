"""One redo routine: every replayed version goes through ``SiasVEngine.redo``.

* The routine's contract: ``skip`` is asked only when a head exists, a
  replayed version chains to the head it read, and the VID high-water
  mark rises past the replayed vid.
* Only the engine core builds versions and swings entrypoints (AST scan
  of ``src/repro``): crash redo, in-doubt 2PC redo, replica apply and
  resync install cannot grow a fifth, unlatched copy of the write tail.
"""

from __future__ import annotations

import ast
import pathlib

from repro.db.database import EngineKind
from tests.conftest import make_accounts_db

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_redo_chains_to_the_head_and_honours_skip():
    engine = make_accounts_db(EngineKind.SIASV).tables["accounts"].engine
    asked = []

    def never(head_tid, head):
        asked.append(head.create_ts)
        return False

    prior, first = engine.redo(9, 5, False, b"a", never)
    assert prior is None and asked == []   # no head: skip is not asked
    assert engine.allocator.high_water == 10
    assert engine.redo(9, 4, False, b"b",
                       lambda _tid, head: head.create_ts > 4) is None
    prior, second = engine.redo(9, 7, True, b"", never)
    assert (prior, asked) == (first, [5])
    head = engine.store.read(engine.vidmap.get(9))
    assert (head.create_ts, head.pred, head.tombstone) == (7, first, True)
    assert engine.vidmap.get(9) == second


def _write_tail_call(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr",
                                                              None)
    if name == "VersionRecord":
        return "VersionRecord("
    if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                      ast.Attribute):
        pair = (func.value.attr, func.attr)
        if pair in (("vidmap", "set"), ("store", "append")):
            return ".".join(pair) + "("
    return None


def test_only_the_core_writes_versions_and_entrypoints():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] in ("core", "pages"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            call = _write_tail_call(node)
            if call is not None:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                 f"{call}")
    assert offenders == []
