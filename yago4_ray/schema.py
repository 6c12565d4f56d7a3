"""Schema / SHACL shape model: the rule set that drives the pipeline.

Mirrors the reference's schema objects (Class / Property / NodeShape /
PropertyShape, schema.rs:17-56) and query surface (schema.rs:66-302):
the extension mechanism is *data, not code* — users add or edit shapes
in Turtle, and every pipeline stage is generated from them.

Driver-side only. The parsed `Schema` (plus the derived per-shape
configs) is tiny and is shipped to workers via `ray.put` / actor
constructor args — never reparsed per batch. The packaged rule set is
parsed once per process (`Schema.open`), so a `Schema` and its `Graph`
are read-only once built: every build in the process shares them.
"""

from __future__ import annotations

import importlib.resources
import threading
from dataclasses import dataclass, field

from . import terms as T
from .turtle import parse_turtle


@dataclass(frozen=True)
class RdfsClass:
    id: str
    label: str | None
    comment: str | None
    super_classes: tuple[str, ...]
    disjoint_classes: tuple[str, ...]


@dataclass(frozen=True)
class RdfProperty:
    id: str
    label: str | None
    comment: str | None
    super_properties: tuple[str, ...]
    inverse: tuple[str, ...]


@dataclass(frozen=True)
class PropertyShape:
    id: str
    path: str
    parent_shape: str | None
    datatypes: tuple[str, ...]  # datatype IRIs (no <>)
    nodes: tuple[str, ...]  # node-shape ids (terms)
    max_count: int | None
    is_unique_lang: bool
    pattern: str | None
    from_properties: tuple[str, ...]  # wdt:P... terms


@dataclass(frozen=True)
class NodeShape:
    id: str
    target_class: str
    properties: tuple[PropertyShape, ...] = field(default_factory=tuple)
    from_classes: tuple[str, ...] = field(default_factory=tuple)


class Graph:
    """Tiny indexed triple store over canonical term strings."""

    def __init__(self, triples: list[tuple[str, str, str]]):
        self.triples = set(triples)
        self._sp: dict[tuple[str, str], list[str]] = {}
        self._po: dict[tuple[str, str], list[str]] = {}
        for s, p, o in triples:
            self._sp.setdefault((s, p), []).append(o)
            self._po.setdefault((p, o), []).append(s)
        # deterministic order regardless of input order
        for v in self._sp.values():
            v.sort()
        for v in self._po.values():
            v.sort()

    def objects(self, s: str, p: str) -> list[str]:
        return self._sp.get((s, p), [])

    def object(self, s: str, p: str) -> str | None:
        objs = self.objects(s, p)
        return objs[0] if objs else None

    def subjects(self, p: str, o: str) -> list[str]:
        return self._po.get((p, o), [])

    def subject(self, p: str, o: str) -> str | None:
        subs = self.subjects(p, o)
        return subs[0] if subs else None

    def contains(self, s: str, p: str, o: str) -> bool:
        return (s, p, o) in self.triples

    def list_values(self, root: str) -> list[str]:
        """Walk an rdf:first/rdf:rest collection (schema.rs:285-301)."""
        values = []
        while True:
            nxt = self.object(root, T.RDF_REST)
            if nxt is None:
                break
            first = self.object(root, T.RDF_FIRST)
            if first is not None:
                values.append(first)
            root = nxt
        return values


_PROPERTY_TYPES = (T.RDF_PROPERTY, T.OWL_DATATYPE_PROPERTY, T.OWL_OBJECT_PROPERTY)

_PACKAGED_FILES = ("schema.ttl", "shapes.ttl", "bioschemas.ttl", "shapes-bio.ttl")
# the packaged rule set parsed once per process (~21 k Turtle lines,
# a few tenths of a second a parse); locked because extraction opens it
# on a thread while build_state opens it on the main thread
_PACKAGED: "Schema | None" = None
_PACKAGED_LOCK = threading.Lock()


def _packaged_docs() -> list[str]:
    data = importlib.resources.files("yago4_ray.data")
    return [data.joinpath(name).read_text() for name in _PACKAGED_FILES]


class Schema:
    """Queryable view over the merged schema + shapes graph."""

    def __init__(self, turtle_docs: list[str]):
        triples: list[tuple[str, str, str]] = []
        for doc in turtle_docs:
            triples.extend(parse_turtle(doc))
        self.graph = Graph(triples)

    @classmethod
    def open(cls, extra_turtle_docs: list[str] | None = None) -> "Schema":
        """Load the packaged rule set (+ optional user shape docs).

        The packaged data is the reference's full public rule set
        (schema.org ontology + YAGO SHACL shapes + bioschemas,
        schema.rs:304-309): 268 node shapes / 218 property shapes.
        Without extra docs every call returns the same `Schema`, parsed
        on first use; with them, a fresh one."""
        global _PACKAGED
        if extra_turtle_docs:
            return cls(_packaged_docs() + list(extra_turtle_docs))
        with _PACKAGED_LOCK:
            if _PACKAGED is None:
                _PACKAGED = cls(_packaged_docs())
            return _PACKAGED

    # -- classes / properties --------------------------------------------
    def rdfs_class(self, cid: str) -> RdfsClass | None:
        if not self.graph.contains(cid, T.RDF_TYPE, T.RDFS_CLASS):
            return None
        g = self.graph
        return RdfsClass(
            id=cid,
            label=g.object(cid, T.RDFS_LABEL),
            comment=g.object(cid, T.RDFS_COMMENT),
            super_classes=tuple(g.objects(cid, T.RDFS_SUB_CLASS_OF)),
            disjoint_classes=tuple(g.objects(cid, T.OWL_DISJOINT_WITH)),
        )

    def classes(self) -> list[RdfsClass]:
        return [
            c
            for cid in sorted(self.graph.subjects(T.RDF_TYPE, T.RDFS_CLASS))
            if (c := self.rdfs_class(cid))
        ]

    def rdf_property(self, pid: str) -> RdfProperty | None:
        if not any(self.graph.contains(pid, T.RDF_TYPE, t) for t in _PROPERTY_TYPES):
            return None
        g = self.graph
        return RdfProperty(
            id=pid,
            label=g.object(pid, T.RDFS_LABEL),
            comment=g.object(pid, T.RDFS_COMMENT),
            super_properties=tuple(g.objects(pid, T.RDFS_SUB_PROPERTY_OF)),
            inverse=tuple(
                g.objects(pid, T.OWL_INVERSE_OF) + g.objects(pid, T.SCHEMA_INVERSE_OF)
            ),
        )

    # -- shapes -----------------------------------------------------------
    def _shape_roots(self, shape_id: str) -> list[str]:
        """The shape node plus every member of its sh:or list
        (schema.rs:275-283)."""
        roots = [shape_id]
        for or_root in self.graph.objects(shape_id, T.SH_OR):
            roots.extend(self.graph.list_values(or_root))
        return roots

    def property_shape(self, shape_id: str) -> PropertyShape:
        g = self.graph
        datatypes = []
        nodes = []
        for root in self._shape_roots(shape_id):
            datatypes.extend(T.iri_value(dt) for dt in g.objects(root, T.SH_DATATYPE))
            nodes.extend(g.objects(root, T.SH_NODE))
        max_count_term = g.object(shape_id, T.SH_MAX_COUNT)
        max_count = None
        if max_count_term is not None and T.datatype(max_count_term) == T.XSD_INTEGER:
            max_count = int(T.literal_value(max_count_term))
        unique_lang_term = g.object(shape_id, T.SH_UNIQUE_LANG)
        is_unique_lang = unique_lang_term is not None and T.literal_value(
            unique_lang_term
        ) in ("true", "1")
        pattern_term = g.object(shape_id, T.SH_PATTERN)
        pattern = None
        if pattern_term is not None and T.datatype(pattern_term) == T.XSD_STRING:
            pattern = T.literal_value(pattern_term)
        return PropertyShape(
            id=shape_id,
            path=g.object(shape_id, T.SH_PATH),
            parent_shape=g.subject(T.SH_PROPERTY, shape_id),
            datatypes=tuple(datatypes),
            nodes=tuple(nodes),
            max_count=max_count,
            is_unique_lang=is_unique_lang,
            pattern=pattern,
            from_properties=tuple(g.objects(shape_id, T.YS_FROM_PROPERTY)),
        )

    def target_class(self, shape_id: str) -> str:
        """`node_shape(shape_id).target_class` without building the
        shape's property shapes."""
        return self.graph.object(shape_id, T.SH_TARGET_CLASS) or shape_id

    def node_shape(self, shape_id: str) -> NodeShape:
        g = self.graph
        return NodeShape(
            id=shape_id,
            target_class=self.target_class(shape_id),
            properties=tuple(
                self.property_shape(ps) for ps in g.objects(shape_id, T.SH_PROPERTY)
            ),
            from_classes=tuple(g.objects(shape_id, T.YS_FROM_CLASS)),
        )

    def node_shapes(self) -> list[NodeShape]:
        return [
            self.node_shape(sid)
            for sid in sorted(self.graph.subjects(T.RDF_TYPE, T.SH_NODE_SHAPE))
        ]

    def property_shapes(self) -> list[PropertyShape]:
        out = []
        for shape in self.node_shapes():
            out.extend(shape.properties)
        return out

    def annotation_property_shapes(self) -> list[PropertyShape]:
        return [
            self.property_shape(sid)
            for sid in sorted(
                self.graph.subjects(T.RDF_TYPE, T.YS_ANNOTATION_PROPERTY_SHAPE)
            )
        ]
