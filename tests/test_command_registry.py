"""The command registry is the one place a command's properties live.

* Both wire endpoints — :class:`DatabaseServer` and the cluster router —
  validate operands against ``protocol.COMMANDS`` before any handler
  runs: a wrong operand count, or a txn-scoped command whose txid is
  not an integer, is ``BAD_REQUEST`` on both (never ``INTERNAL``, never
  silently accepted).
* ``docs/SERVER.md``'s command table is the registry, rendered.
* No per-command list or handler table survives outside ``protocol.py``,
  and the connection loop is defined once (AST scans of ``src/repro``).
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

from repro.client import ClientConnection
from repro.cluster import ClusterRouter, RouterConfig
from repro.common.errors import ProtocolError
from repro.db.database import EngineKind
from repro.server import DatabaseServer, ServerConfig
from repro.server.protocol import COMMANDS, Command
from tests.conftest import make_accounts_db

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def endpoints():
    """``{"server": address, "router": address}``: a server, and a
    router fronting a second server as its only shard."""
    servers = [DatabaseServer(make_accounts_db(EngineKind.SIASV),
                              ServerConfig(port=0)) for _ in range(2)]
    addresses = [server.start_in_background() for server in servers]
    router = ClusterRouter([addresses[1]], RouterConfig(port=0))
    try:
        yield {"server": addresses[0],
               "router": router.start_in_background()}
    finally:
        router.stop_in_background()
        for server in servers:
            server.stop_in_background()


def _malformed(spec) -> list[tuple]:
    """Argument tuples ``spec`` must reject."""
    required = len(spec.operands)
    cases = [(None,) * (required + len(spec.optional) + 1)]
    if required:
        cases.append((None,) * (required - 1))
    if spec.txn_scoped:
        cases.append(("not-a-txid",) + (None,) * (required - 1))
    return cases


@pytest.mark.parametrize("endpoint", ["server", "router"])
@pytest.mark.parametrize("spec", list(COMMANDS.values()),
                         ids=lambda spec: spec.name)
def test_malformed_request_is_bad_request(endpoints, endpoint, spec):
    with ClientConnection(*endpoints[endpoint]) as conn:
        for args in _malformed(spec):
            with pytest.raises(ProtocolError):
                conn.request(spec.command, *args)
        # the endpoint is unharmed (SHUTDOWN was refused, not obeyed)
        assert conn.request(Command.PING) == "pong"


# -- docs/SERVER.md renders the registry --------------------------------------

_FLAGS = {"txn": "txn_scoped", "exempt": "exempt", "excl": "exclusive",
          "drain": "drain_ok", "leader": "leader_only",
          "fenced": "fenced_refused", "retry": "retry_safe"}


def _doc_args(spec) -> str:
    names = ", ".join(name for name, _check in spec.operands)
    for name, _check in spec.optional:
        names += f"[, {name}]" if names else f"[{name}]"
    return f"`({names})`" if names else "—"


def test_docs_command_table_matches_registry():
    text = (ROOT / "docs" / "SERVER.md").read_text()
    section = text.split("## Command codes", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines()
             if line.startswith("| ")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    rows = {}
    for line in lines[1:]:
        cells = dict(zip(header,
                         (c.strip() for c in line.strip("|").split("|"))))
        rows[int(cells["code"])] = cells
    assert sorted(rows) == sorted(COMMANDS)
    for code, spec in COMMANDS.items():
        row = rows[code]
        assert row["command"] == f"`{spec.name}`"
        # footnote markers (¹²³⁴) may trail the operand list
        assert re.sub("[¹²³⁴]", "", row["args"]) == _doc_args(spec), code
        for column, attr in _FLAGS.items():
            assert (row[column] == "✓") is getattr(spec, attr), (
                spec.name, column)


# -- one place, checked by AST -------------------------------------------------

_LOOP = ("request_stop", "serve_until_stopped", "_drain", "run",
         "start_in_background", "stop_in_background", "_handle",
         "_refuse_connection", "_serve_connection", "_read_frame",
         "_abort_orphans", "_reaper")


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_connection_loop_is_defined_once():
    owners: dict[str, list[str]] = {name: [] for name in _LOOP}
    for path in (SRC / "server" / "server.py", SRC / "cluster" / "router.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and item.name in owners):
                        owners[item.name].append(node.name)
    assert owners == {name: ["WireService"] for name in _LOOP}


def _is_command_member(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "Command")


def test_no_command_lists_outside_the_registry():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "server" / "protocol.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                members = node.elts
            elif isinstance(node, ast.Dict):
                members = [key for key in node.keys if key is not None]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("frozenset", "set")):
                members = [sub for arg in node.args
                           for sub in ast.walk(arg)]
            else:
                continue
            if any(_is_command_member(member) for member in members):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
