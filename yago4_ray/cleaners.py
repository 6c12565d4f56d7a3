"""Wikibase value cleaners and literal rewriters (SURVEY §2.2 M5-M15).

Pure scalar converters mirror the reference's semantics exactly —
including its deliberate quirks (Gregorian-only times, Earth-only
coordinates, the 4 supported duration units, the '-PT-5S' negative
duration spelling, pattern filters dropping non-strings): see
plan.rs:1209-1773. The Ray-side builders express the reference's
value-node point-lookup chains (plan.rs:908-1032) as one pivot per
value node inside one `joins.exchange` keyed on the value node — one
shuffle over value nodes instead of per-row lookups.
"""

from __future__ import annotations

import math
import re
from datetime import datetime
from typing import TYPE_CHECKING
from urllib.parse import urlsplit, urlunsplit

import pyarrow as pa
import pyarrow.compute as pc

from . import terms as T

if TYPE_CHECKING:
    from .joins import Blocks

# ---------------------------------------------------------------------------
# Pure scalar converters
# ---------------------------------------------------------------------------

def convert_time(value_term: str, precision_term: str, calendar_term: str) -> str | None:
    """Wikibase time → xsd:gYear/gYearMonth/date/dateTime by precision
    9/10/11/14; Gregorian calendar only (plan.rs:1498-1524)."""
    if calendar_term != T.WD_Q1985727:
        return None
    if T.datatype(value_term) != T.XSD_DATE_TIME:
        return None
    if T.datatype(precision_term) != T.XSD_INTEGER:
        return None
    value = T.literal_value(value_term)
    precision = int(T.literal_value(precision_term))
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        return None
    if precision == 9:
        return T.typed_literal(f"{dt.year:04d}", T.XSD_G_YEAR)
    if precision == 10:
        return T.typed_literal(f"{dt.year:04d}-{dt.month:02d}", T.XSD_G_YEAR_MONTH)
    if precision == 11:
        return T.typed_literal(
            f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}", T.XSD_DATE
        )
    if precision == 14:
        return T.datetime_literal(dt)
    return None


def round_degrees(degrees: float, precision: float) -> float:
    """Sign-preserving precision rounding (half away from zero), the
    coordinate formatter rule (plan.rs:1570-1575)."""
    reduced = math.floor(abs(degrees) / precision + 0.5)
    return math.copysign(1.0, degrees) * reduced * precision


def convert_globe_coordinates(
    lat_term: str, lon_term: str, precision_term: str, globe_term: str
) -> tuple[str, list[tuple[str, str, str]]] | None:
    """Earth-only geo value → geo: IRI + 3 describing triples
    (plan.rs:1528-1568)."""
    if globe_term != T.WD_Q2:
        return None
    if any(
        T.datatype(t) != T.XSD_DOUBLE for t in (lat_term, lon_term, precision_term)
    ):
        return None
    lat = float(T.literal_value(lat_term))
    lon = float(T.literal_value(lon_term))
    precision = float(T.literal_value(precision_term))
    r_lat = round_degrees(lat, precision)
    r_lon = round_degrees(lon, precision)
    node = T.iri(f"geo:{T.fmt_double(r_lat)},{T.fmt_double(r_lon)}")
    extras = [
        (node, T.RDF_TYPE, T.SCHEMA_GEO_COORDINATES),
        (node, T.SCHEMA_LATITUDE, T.double_literal(lat)),
        (node, T.SCHEMA_LONGITUDE, T.double_literal(lon)),
    ]
    return node, extras


_DURATION_UNITS = {
    T.WD_Q11574: ("PT{}S", "second"),
    T.WD_Q7727: ("PT{}M", "minute"),
    T.WD_Q25235: ("PT{}H", "hour"),
    T.WD_Q573: ("P{}D", "day"),
}


def convert_duration_quantity(amount_term: str, unit_term: str) -> str | None:
    """Integer-amount quantity in s/min/h/day → xsd:duration; negative
    amounts get the reference's '-PT-5S' spelling (plan.rs:1578-1630)."""
    if T.datatype(amount_term) != T.XSD_DECIMAL:
        return None
    fmt = _DURATION_UNITS.get(unit_term)
    if fmt is None:
        return None
    try:
        amount = int(T.literal_value(amount_term))
    except ValueError:
        return None
    lex = fmt[0].format(amount)
    if amount < 0:
        lex = "-" + lex
    return T.typed_literal(lex, T.XSD_DURATION)


def convert_integer_quantity(amount_term: str, unit_term: str) -> str | None:
    """Dimensionless (unit=Q199) quantity → xsd:integer (plan.rs:1633-1641)."""
    if unit_term != T.WD_Q199:
        return None
    if T.datatype(amount_term) != T.XSD_DECIMAL:
        return None
    try:
        return T.integer_literal(int(T.literal_value(amount_term)))
    except ValueError:
        return None


def convert_quantity(
    node_term: str,
    unit_yago_term: str,
    amount_term: str,
    lower_term: str,
    upper_term: str,
) -> tuple[str, list[tuple[str, str, str]]] | None:
    """Full quantity → schema:QuantitativeValue node + 5 describing
    triples. The node IRI is the wikibase value-node IRI with the
    reference's (ineffective for wdv: IRIs) prefix replacement applied
    (plan.rs:1645-1687)."""
    if not T.is_iri(node_term):
        return None
    quantity = T.iri(
        T.iri_value(node_term).replace(T.P_PREFIX, T.YAGO_VALUE_PREFIX)
    )
    extras = [
        (quantity, T.RDF_TYPE, T.SCHEMA_QUANTITATIVE_VALUE),
        (quantity, T.SCHEMA_VALUE, amount_term),
        (quantity, T.SCHEMA_MIN_VALUE, lower_term),
        (quantity, T.SCHEMA_MAX_VALUE, upper_term),
        (quantity, T.SCHEMA_UNIT_CODE, unit_yago_term),
    ]
    return quantity, extras


def validate_any_uri(object_term: str) -> str | None:
    """IRI object → xsd:anyURI literal when it parses as a URL
    (plan.rs:1248-1271)."""
    if not T.is_iri(object_term):
        return None
    url = T.iri_value(object_term)
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if not parts.scheme or not (parts.netloc or parts.path):
        return None
    return T.typed_literal(urlunsplit(parts), T.XSD_ANY_URI)


COMMONS_PREFIX = "http://commons.wikimedia.org/wiki/Special:FilePath/"


def filter_image(object_term: str) -> str | None:
    """Keep commons FilePath IRIs only (plan.rs:1339-1360)."""
    if T.is_iri(object_term) and T.iri_value(object_term).startswith(COMMONS_PREFIX):
        return object_term
    return None


FREEBASE_ID_RE = re.compile(r"/m/0([0-9a-z_]{2,6}|1[0123][0-9a-z_]{5})$")


def convert_freebase_id(object_term: str) -> str | None:
    """Valid /m/... id → freebase ns IRI (plan.rs:1728-1752)."""
    if T.datatype(object_term) != T.XSD_STRING:
        return None
    fid = T.literal_value(object_term)
    if not FREEBASE_ID_RE.search(fid):
        return None
    return T.iri("http://rdf.freebase.com/ns/" + fid[1:].replace("/", "."))


ENWIKI_PREFIX = "https://en.wikipedia.org/wiki/"
DBPEDIA_PREFIX = "http://dbpedia.org/resource/"


# ---------------------------------------------------------------------------
# Ray builders: value-node predicate scans → clean maps
# ---------------------------------------------------------------------------
# build_value_maps takes the store scan's blocks and returns the blocks of
# (family, value_node, object, extras), `extras` a serialized list of
# describing triples; the maps are value-node-scale and are either
# broadcast (small runs) or hash-joined (at scale).

import json  # noqa: E402

ALL_VALUE_PREDICATES = [
    T.WIKIBASE_TIME_VALUE,
    T.WIKIBASE_TIME_PRECISION,
    T.WIKIBASE_TIME_CALENDAR_MODEL,
    T.WIKIBASE_GEO_LATITUDE,
    T.WIKIBASE_GEO_LONGITUDE,
    T.WIKIBASE_GEO_PRECISION,
    T.WIKIBASE_GEO_GLOBE,
    T.WIKIBASE_QUANTITY_AMOUNT,
    T.WIKIBASE_QUANTITY_UNIT,
    T.WIKIBASE_QUANTITY_LOWER_BOUND,
    T.WIKIBASE_QUANTITY_UPPER_BOUND,
]


def build_value_maps(scan: Blocks, uri_mapping_ref) -> Blocks:
    """ALL five cleaned-value families from ONE scan (`scan`, the store
    rows of ALL_VALUE_PREDICATES) + ONE partitioned groupby over value
    nodes (the reference runs five point-lookup chains in five threads,
    plan.rs:908-1032), as the exchange's `joins.Blocks`.

    Output rows: (family, value_node, object, extras_json) with family ∈
    {time, coordinates, duration, integer, quantity}.
    """
    from .joins import exchange, get_broadcast

    def convert_part(tables: list[pa.Table], _keys) -> pa.Table:
        (t,) = tables
        uri_mapping = (
            get_broadcast(uri_mapping_ref)
            if uri_mapping_ref is not None
            else {}
        )
        # first value per (node, predicate) — the reference's
        # object_for_subject_predicate takes the first hit
        first = t.group_by(["subject", "predicate"], use_threads=False).aggregate(
            [("object", "first", pc.ScalarAggregateOptions(skip_nulls=False))]
        )
        # the pivot: the part's value nodes in sorted order, and per
        # predicate one value (or None) per node
        nodes = pc.unique(first["subject"])
        nodes = nodes.take(pc.sort_indices(nodes))
        at = pc.index_in(first["subject"], value_set=nodes).to_numpy()
        objects = first["object_first"]

        def col(p) -> list:
            m = pc.equal(first["predicate"], p).to_numpy()
            values = [None] * len(nodes)
            for i, v in zip(at[m], objects.filter(pa.array(m)).to_pylist()):
                values[i] = v
            return values

        nodes = nodes.to_pylist()

        def having(*columns):
            """(node, values) of the nodes with a value in every column."""
            return [
                (node, values) for node, *values in zip(nodes, *columns)
                if all(v is not None for v in values)
            ]

        out = {"family": [], "value_node": [], "object": [], "extras": []}

        def emit(family, results):
            for node, res in results:
                if res is None:
                    continue
                obj, extras = res if isinstance(res, tuple) else (res, [])
                out["family"].append(family)
                out["value_node"].append(node)
                out["object"].append(obj)
                out["extras"].append(json.dumps(extras) if extras else "")

        # the scalar converters run only on their own family's candidate
        # nodes (zip over aligned columns — no per-node lookups)
        times = having(col(T.WIKIBASE_TIME_VALUE), col(T.WIKIBASE_TIME_PRECISION),
                       col(T.WIKIBASE_TIME_CALENDAR_MODEL))
        emit("time", ((n, convert_time(*vs)) for n, vs in times))
        coords = having(col(T.WIKIBASE_GEO_LATITUDE), col(T.WIKIBASE_GEO_LONGITUDE),
                        col(T.WIKIBASE_GEO_PRECISION), col(T.WIKIBASE_GEO_GLOBE))
        emit("coordinates", ((n, convert_globe_coordinates(*vs)) for n, vs in coords))
        amount, unit = col(T.WIKIBASE_QUANTITY_AMOUNT), col(T.WIKIBASE_QUANTITY_UNIT)
        amounts = having(amount, unit)
        emit("duration", ((n, convert_duration_quantity(a, u)) for n, (a, u) in amounts))
        emit("integer", ((n, convert_integer_quantity(a, u)) for n, (a, u) in amounts))
        # unit→YAGO lookup once per DISTINCT unit (units are
        # class-graph scale)
        unit_map = {u: uri_mapping.get(u) for u in {u for _, (_, u) in amounts}}
        bounded = having(amount, unit, col(T.WIKIBASE_QUANTITY_LOWER_BOUND),
                         col(T.WIKIBASE_QUANTITY_UPPER_BOUND))
        emit("quantity", (
            (n, convert_quantity(n, unit_map[u], a, lo, hi))
            for n, (a, u, lo, hi) in bounded if unit_map[u] is not None
        ))
        return pa.table({c: pa.array(v, pa.string()) for c, v in out.items()})

    return exchange(
        [(scan, ["subject", "predicate", "object"])], ["subject"], convert_part, 32
    )
