"""Catalog: relations, index definitions and key extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import SchemaError
from repro.db.row import RowCodec
from repro.db.schema import Schema
from repro.index.btree import BPlusTree
from repro.index.hashindex import ExtendibleHashIndex


class IndexKind(Enum):
    """Physical index structure backing an :class:`IndexDef`."""

    BTREE = "btree"
    HASH = "hash"


@dataclass(frozen=True)
class IndexDef:
    """Declaration of one index over a relation.

    ``columns`` is an ordered tuple of column names; single-column keys are
    stored as scalars, composite keys as tuples.  ``kind`` selects the
    physical structure — hash indexes serve equality lookups only, exactly
    like the paper's "hash based index structures can equally be adapted".
    """

    name: str
    columns: tuple[str, ...]
    unique: bool = False
    kind: IndexKind = IndexKind.BTREE

    def key_of(self, schema: Schema, row: tuple):
        """Extract this index's key from a row."""
        values = schema.project(row, list(self.columns))
        return values[0] if len(values) == 1 else values


@dataclass
class Relation:
    """One table: schema, codec, storage engine and indexes.

    The ``engine`` attribute holds either a
    :class:`~repro.core.engine.SiasVEngine` or a
    :class:`~repro.baseline.engine.SiEngine`; the database facade dispatches
    on which.  Index trees store ``⟨key, VID⟩`` under SIAS-V and
    ``⟨key, TID⟩`` under SI — same trees, different record identity.
    """

    relation_id: int
    name: str
    schema: Schema
    codec: RowCodec
    engine: object
    indexes: dict[str, tuple[IndexDef, BPlusTree]] = field(
        default_factory=dict)

    def add_index(self, definition: IndexDef, order: int = 64) -> None:
        """Register an index (must precede data loading)."""
        if definition.name in self.indexes:
            raise SchemaError(
                f"index {definition.name!r} already exists on {self.name}")
        for column in definition.columns:
            self.schema.position(column)  # validates the column names
        # Physical structures are always non-unique: under MVCC one logical
        # key legitimately maps to several version entries (SI) and
        # uniqueness is a logical property enforced through visibility.
        if definition.kind is IndexKind.HASH:
            tree: object = ExtendibleHashIndex()
        else:
            tree = BPlusTree(order=order)
        self.indexes[definition.name] = (definition, tree)

    def index(self, name: str) -> tuple[IndexDef, BPlusTree]:
        """Look up an index by name."""
        try:
            return self.indexes[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name} has no index {name!r}") from None

    def index_missing(self, ref: object,
                      row: tuple) -> list[tuple[BPlusTree, object]]:
        """Insert ``row``'s index entries under ``ref`` that are absent.

        The redo paths' index step: replays must not double an entry a
        scan or an earlier replay already put in.  Returns the
        ``(tree, key)`` pairs actually inserted.
        """
        added = []
        for definition, tree in self.indexes.values():
            key = definition.key_of(self.schema, row)
            if not tree.contains(key, ref):
                tree.insert(key, ref)
                added.append((tree, key))
        return added
