"""Spans from the outside: wrap each layer's public callables, nothing else.

Only the traced segment of a ``--trace 1`` run installs these wrappers
(instance / module attribute rebinding, undone afterwards); the untraced
run executes the program exactly as shipped.  Spans stay in memory and are
written once, at exit.

A span is ``(id, parent, key, start_ns, end_ns, thread)``.  Spans nest per
thread through a thread-local stack.  Work that crosses threads is linked
afterwards: a ``Dispatcher.run`` span hands its id to the executor thread
explicitly; a server-side dispatch is adopted by the RPC span of the same
command that contains it in time (one closed-loop client, so there is one
candidate); a router-to-shard RPC by the client RPC that contains it.  A
layer's self time is its spans' duration minus the time their children
cover — for an RPC span that remainder *is* the subtraction term "client
call wall − dispatch wall": wire, event loop and frame handling.
"""

from __future__ import annotations

import bisect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

now_ns = time.perf_counter_ns

#: span kinds the linker and the metrics care about
PLAIN, ROOT, RPC, DISPATCH, EXEC, CODEC = range(6)
#: name of the span around ``WalFollower.catch_up``
FOLLOWER_LOOP = "follower.catch_up"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = itertools.count(1)
        #: key -> (name, layer, kind, pool role or None)
        self.keys: list[tuple] = []
        self._key_index: dict[tuple, int] = {}
        self._undo: list = []
        #: length of every frame the codec wrappers saw
        self.frame_bytes: list[int] = []

    # -- recording -----------------------------------------------------------

    def key(self, name: str, layer: str, kind: int = PLAIN,
            role: str | None = None) -> int:
        ident = (name, layer, kind, role)
        index = self._key_index.get(ident)
        if index is None:
            index = self._key_index[ident] = len(self.keys)
            self.keys.append(ident)
        return index

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.thread = next(self._threads)
            local.stack = []
            return local.stack

    def begin_root(self, kind: str) -> None:
        """Open the root span of one client transaction."""
        stack = self._stack()
        stack.append((next(self._ids), self.key(kind, "bench", ROOT),
                      now_ns()))

    def end_root(self) -> None:
        end = now_ns()
        sid, key, start = self._stack().pop()
        self.spans.append((sid, 0, key, start, end, self._local.thread))

    def wrap(self, fn, name: str, layer: str, kind: int = PLAIN,
             consume: bool = False, role: str | None = None):
        """A same-thread span around ``fn`` (``consume`` drains generators
        inside the span, so lazy work is not billed to the caller)."""
        key = self.key(name, layer, kind, role)
        spans, ids, get_stack, local = (self.spans, self._ids, self._stack,
                                        self._local)

        def traced(*args, **kwargs):
            stack = get_stack()
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid,))
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
                return list(result) if consume else result
            finally:
                end = now_ns()
                stack.pop()
                spans.append((sid, parent, key, start, end, local.thread))
        return traced

    def wrap_rpc(self, fn, role: str, layer: str):
        """``ConnectionPool.request``: one span per RPC, named by command."""
        by_command: dict = {}

        def traced(conn, command, *args, **kwargs):
            inner = by_command.get(command)
            if inner is None:
                inner = by_command[command] = self.wrap(
                    fn, command.name, layer, RPC, role=role)
            return inner(conn, command, *args, **kwargs)
        return traced

    def wrap_dispatch(self, run):
        """``Dispatcher.run``: submit→result on the loop thread, plus the
        callable's own span on the executor thread, parented explicitly."""
        spans, ids, get_stack, local = (self.spans, self._ids, self._stack,
                                        self._local)

        async def traced(name, fn, **kwargs):
            sid = next(ids)
            key = self.key(name, "server", DISPATCH)
            exec_key = self.key(name, "server", EXEC)

            def on_worker():
                stack = get_stack()
                wid = next(ids)
                stack.append((wid,))
                start = now_ns()
                try:
                    return fn()
                finally:
                    end = now_ns()
                    stack.pop()
                    spans.append((wid, sid, exec_key, start, end,
                                  local.thread))
            start = now_ns()
            try:
                return await run(name, on_worker, **kwargs)
            finally:
                spans.append((sid, 0, key, start, now_ns(), 0))
        return traced

    def wrap_codec(self, fn, name: str, sized: str):
        """Frame encode/decode; notes the frame's length (``sized`` says
        whether the bytes are the argument or the result)."""
        inner = self.wrap(fn, name, "server", CODEC)
        note = self.frame_bytes.append

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            note(len(result if sized == "result" else args[0]))
            return result
        return traced

    # -- installing ----------------------------------------------------------

    def rebind(self, owner, attr: str, make) -> None:
        """``owner.attr = make(owner.attr)``, remembered for :meth:`remove`.

        ``owner`` is an instance (the wrapper shadows the bound method in
        the instance dict), a module, or a class.
        """
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(owner, type):
            new = make(raw)
        else:
            new = make(getattr(owner, attr))
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def remove(self) -> None:
        """Undo every :meth:`rebind`, newest first."""
        for owner, attr, raw in reversed(self._undo):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()


_MISSING = object()

#: Which layer an RPC span's *self* time — call wall minus the codec and
#: dispatch spans inside it: wire, event loop, framing — is billed to, by
#: the pool that issued it.  It is the far side's overhead: the server's
#: (``install`` bills the bench client's to ``cluster`` when the far side
#: is the router).
_RPC_LAYER = {"client": "server", "admin": "server", "router": "server",
              "follower": "replication"}

# The public callables wrapped on every node, layer by layer.
_DB_CALLS = ("begin", "commit", "abort", "insert", "bulk_insert", "update",
             "lookup", "range_lookup", "aggregate", "tick", "maintenance",
             "prepare", "commit_prepared", "abort_prepared", "closed_ts")
_TXN_CALLS = ("begin", "commit", "abort", "prepare", "commit_prepared",
              "abort_prepared")
_LOCK_CALLS = ("acquire", "release_all")
_WAL_CALLS = ("append", "log_commit", "log_abort", "log_prepare", "force",
              "log_checkpoint", "records_since")
_BUFFER_CALLS = ("get_page", "get_pages", "get_page_pinned", "put_dirty",
                 "put_clean", "mark_dirty", "flush_batch", "flush_all")
_DEVICE_CALLS = ("read_page", "read_pages", "write_page", "write_pages",
                 "write_page_async", "trim")
_ENGINE_READS = ("read", "read_many")
_ENGINE_WRITES = ("insert", "bulk_insert", "update", "delete")
_INDEX_CALLS = ("search", "insert", "delete", "contains")


def install(tracer: Tracer, topo) -> None:
    """Wrap the public callables of every layer present in ``topo``."""
    import repro.client.connection as connection
    import repro.cluster.router as router_mod
    import repro.db.database as database
    import repro.server.server as server_mod
    from repro.core.gc import GarbageCollector
    from repro.pages.base import Page

    def bind(owner, names, layer, prefix):
        for name in names:
            tracer.rebind(owner, name, lambda fn, n=name: tracer.wrap(
                fn, f"{prefix}.{n}", layer))

    for db in topo.nodes:
        bind(db, _DB_CALLS, "db", "db")
        bind(db.checkpointer, ("run_now",), "db", "checkpoint")
        bind(db.txn_mgr, _TXN_CALLS, "txn", "txn")
        bind(db.txn_mgr.locks, _LOCK_CALLS, "txn", "locks")
        bind(db.wal, _WAL_CALLS, "wal", "wal")
        bind(db.buffer, _BUFFER_CALLS, "buffer", "buffer")
        bind(db.data_device, _DEVICE_CALLS, "storage", "data")
        bind(db.wal.device, _DEVICE_CALLS, "storage", "waldev")
        for relation in db.tables.values():
            bind(relation.engine, _ENGINE_READS, "core", "resolve")
            bind(relation.engine, _ENGINE_WRITES, "core", "write")
            for _definition, tree in relation.indexes.values():
                bind(tree, _INDEX_CALLS, "index", "index")
                tracer.rebind(tree, "range", lambda fn: tracer.wrap(
                    fn, "index.range", "index", consume=True))
    # module-level names the layers above resolve at call time
    tracer.rebind(database, "vec_aggregate", lambda fn: tracer.wrap(
        fn, "vecscan.aggregate", "core"))
    tracer.rebind(GarbageCollector, "collect", lambda fn: tracer.wrap(
        fn, "gc.collect", "core"))
    tracer.rebind(Page, "from_bytes", lambda fn: tracer.wrap(
        fn, "pages.decode", "pages"))
    if topo.servers:
        for module, encode, decode in (
                (connection, "encode_request", "decode_response"),
                (server_mod, "encode_response", "decode_request"),
                (router_mod, "encode_response", "decode_request")):
            tracer.rebind(module, encode, lambda fn, n=encode:
                          tracer.wrap_codec(fn, n, "result"))
            tracer.rebind(module, decode, lambda fn, n=decode:
                          tracer.wrap_codec(fn, n, "argument"))
    for server in topo.servers:
        tracer.rebind(server.dispatch, "run", tracer.wrap_dispatch)
    for role, pool in topo.pools.items():
        layer = ("cluster" if role == "client" and topo.router is not None
                 else _RPC_LAYER[role])
        tracer.rebind(pool, "request", lambda fn, r=role, la=layer:
                      tracer.wrap_rpc(fn, r, la))
    if topo.follower is not None:
        bind(topo.follower, ("catch_up",), "replication", "follower")
        bind(topo.hub, ("fetch",), "replication", "hub")


# -- attribution -------------------------------------------------------------

class Attribution:
    """Links spans across threads and folds self time per layer."""

    def __init__(self, tracer: Tracer) -> None:
        self.keys = tracer.keys
        spans = tracer.spans
        self.by_id = {span[0]: span for span in spans}
        parent = {span[0]: span[1] for span in spans}
        kind_of = lambda span: self.keys[span[2]][2]
        role_of = lambda span: self.keys[span[2]][3]
        name_of = lambda span: self.keys[span[2]][0]
        rpcs = defaultdict(list)
        for span in spans:
            if kind_of(span) == RPC:
                rpcs[role_of(span)].append(span)
        for group in rpcs.values():
            group.sort(key=lambda span: span[3])
        starts = {role: [span[3] for span in group]
                  for role, group in rpcs.items()}

        def container(span, roles, same_name: bool):
            """Innermost RPC span of ``roles`` containing ``span`` in time.

            One pool's RPCs are sequential (one closed-loop caller each),
            so per role only the last one started before ``span`` can
            contain it.
            """
            best = None
            for role in roles:
                i = bisect.bisect_right(starts.get(role, ()), span[3]) - 1
                if i < 0:
                    continue
                cand = rpcs[role][i]
                if cand[4] >= span[4] and (not same_name or name_of(cand)
                                           == name_of(span)):
                    if best is None or cand[3] > best[3]:
                        best = cand
            return best

        sharded = "router" in rpcs
        for span in spans:
            if span[1]:
                continue
            kind = kind_of(span)
            if kind == DISPATCH:
                roles = (("router",) if sharded
                         else ("client", "admin", "follower"))
                found = container(span, roles, same_name=True)
            elif kind == RPC and role_of(span) == "router":
                found = container(span, ("client",), same_name=False)
            elif kind == CODEC:
                # server-side frame handling, on an event-loop thread
                found = container(span, tuple(rpcs), same_name=False)
            else:
                continue
            if found is not None:
                parent[span[0]] = found[0]
        self.parent = parent
        self.children = defaultdict(list)
        for sid, pid in parent.items():
            if pid:
                self.children[pid].append(sid)
        self.spans = spans

    def self_ns(self, span: tuple) -> int:
        """Duration minus the part of it the children's intervals cover."""
        intervals = sorted((self.by_id[c][3], self.by_id[c][4])
                           for c in self.children.get(span[0], ()))
        covered, edge = 0, span[3]
        for start, end in intervals:
            start, end = max(start, edge), min(end, span[4])
            if end > start:
                covered += end - start
                edge = end
        return span[4] - span[3] - covered

    def root_of(self, span: tuple) -> tuple:
        while self.parent.get(span[0]):
            span = self.by_id[self.parent[span[0]]]
        return span

    def write(self, path, summary: dict, max_spans: int = 40_000) -> None:
        """The first spans recorded — with their linked parent and the
        transaction (root span) they belong to — plus ``summary``."""
        rows = []
        for span in sorted(self.spans[:max_spans], key=lambda s: s[3]):
            name, layer, kind, _role = self.keys[span[2]]
            if kind in (RPC, DISPATCH, EXEC):
                name = f"{_LABELS[kind]}:{name}"
            root = self.root_of(span)
            rows.append({
                "id": span[0], "parent": self.parent[span[0]], "name": name,
                "layer": layer, "start_ns": span[3], "end_ns": span[4],
                "thread": span[5],
                "txn_id": root[0] if self.keys[root[2]][2] == ROOT else None})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"spans_recorded": len(self.spans), "spans_written": len(rows),
             "summary": summary, "spans": rows}))

    def fold(self) -> dict:
        """Self time by layer and by span label, grouped by what the
        span's tree hangs off: a client transaction of the mix (``txn``),
        a tail aggregate (``scan``), the follower's fetch-and-apply loop
        (``replication``), or none of them — tick and maintenance calls
        between transactions (``background``)."""
        layers = {group: defaultdict(int) for group in
                  ("txn", "scan", "replication", "background")}
        self_by = defaultdict(int)      # label -> self ns, txn trees only
        counts = defaultdict(int)       # label -> spans, txn trees only
        durations = defaultdict(list)   # label -> every span's duration
        root_ns = txns = 0
        for span in self.spans:
            name, layer, kind, role = self.keys[span[2]]
            label = _LABELS.get(kind, name) + (f".{role}" if role else "")
            durations[label].append(span[4] - span[3])
            root_name, _layer, root_kind, _ = self.keys[self.root_of(span)[2]]
            if root_kind != ROOT:
                group = ("replication" if root_name == FOLLOWER_LOOP
                         else "background")
            elif root_name == "aggregate":
                group = "scan"
            else:
                group = "txn"
                if kind == ROOT:
                    root_ns += span[4] - span[3]
                    txns += 1
            own = self.self_ns(span)
            layers[group][layer] += own
            if group == "txn":
                self_by[label] += own
                counts[label] += 1
        return {"layers": layers, "self_by": self_by, "counts": counts,
                "durations": durations, "root_ns": root_ns, "txns": txns}


_LABELS = {RPC: "rpc", DISPATCH: "dispatch", EXEC: "exec", ROOT: "txn",
           CODEC: "codec"}


def median_us(samples) -> float:
    return statistics.median(samples) / 1e3 if samples else 0.0
