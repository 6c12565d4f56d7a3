"""RDF term kernel: canonical N-Triples lexical strings.

Every Dataset in this engine carries RDF terms as *pre-serialized
N-Triples strings* ("<http://...>", '"v"@en', '"5"^^<...#integer>',
"_:b0"). String equality == term equality, string ordering is a stable
deterministic total order, so joins / groupbys / sorts / dedup work
directly on Arrow string columns with zero conversion.

Semantics mirror the reference's term model (term inlining, literal
classification and Display serialization: /root/reference/src/model.rs:68-266)
without porting its representation: where the reference carries an enum
and re-serializes on write, we normalize once at parse time and carry the
canonical string.

Pure Python, no Ray imports — usable on driver and inside workers.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

# ---------------------------------------------------------------------------
# Public vocabulary (same public IRIs the reference uses, vocab.rs)
# ---------------------------------------------------------------------------

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"
P_PREFIX = "http://www.wikidata.org/prop/"
PS_PREFIX = "http://www.wikidata.org/prop/statement/"
PSV_PREFIX = "http://www.wikidata.org/prop/statement/value/"
PQ_PREFIX = "http://www.wikidata.org/prop/qualifier/"
PQV_PREFIX = "http://www.wikidata.org/prop/qualifier/value/"

YAGO_RESOURCE_PREFIX = "http://yago-knowledge.org/resource/"
YAGO_VALUE_PREFIX = "http://yago-knowledge.org/value/"
YAGO_SCHEMA_PREFIX = "http://yago-knowledge.org/schema#"

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"
SH = "http://www.w3.org/ns/shacl#"
SKOS = "http://www.w3.org/2004/02/skos/core#"
SCHEMA = "http://schema.org/"
WIKIBASE = "http://wikiba.se/ontology#"

RDF_TYPE = f"<{RDF}type>"
RDF_FIRST = f"<{RDF}first>"
RDF_REST = f"<{RDF}rest>"
RDF_NIL = f"<{RDF}nil>"
RDF_PROPERTY = f"<{RDF}Property>"
RDF_LANG_STRING = f"{RDF}langString"
RDF_PLAIN_LITERAL = f"{RDF}PlainLiteral"

RDFS_CLASS = f"<{RDFS}Class>"
RDFS_LABEL = f"<{RDFS}label>"
RDFS_COMMENT = f"<{RDFS}comment>"
RDFS_SUB_CLASS_OF = f"<{RDFS}subClassOf>"
RDFS_SUB_PROPERTY_OF = f"<{RDFS}subPropertyOf>"
RDFS_DOMAIN = f"<{RDFS}domain>"
RDFS_RANGE = f"<{RDFS}range>"
RDFS_DATATYPE = f"<{RDFS}Datatype>"

OWL_CLASS = f"<{OWL}Class>"
OWL_SAME_AS = f"<{OWL}sameAs>"
OWL_DISJOINT_WITH = f"<{OWL}disjointWith>"
OWL_UNION_OF = f"<{OWL}unionOf>"
OWL_INVERSE_OF = f"<{OWL}inverseOf>"
OWL_OBJECT_PROPERTY = f"<{OWL}ObjectProperty>"
OWL_DATATYPE_PROPERTY = f"<{OWL}DatatypeProperty>"
OWL_FUNCTIONAL_PROPERTY = f"<{OWL}FunctionalProperty>"

XSD_STRING = f"{XSD}string"
XSD_INTEGER = f"{XSD}integer"
XSD_DECIMAL = f"{XSD}decimal"
XSD_DOUBLE = f"{XSD}double"
XSD_BOOLEAN = f"{XSD}boolean"
XSD_DATE_TIME = f"{XSD}dateTime"
XSD_DATE = f"{XSD}date"
XSD_G_YEAR = f"{XSD}gYear"
XSD_G_YEAR_MONTH = f"{XSD}gYearMonth"
XSD_DURATION = f"{XSD}duration"
XSD_ANY_URI = f"{XSD}anyURI"

SH_NODE_SHAPE = f"<{SH}NodeShape>"
SH_PROPERTY_SHAPE = f"<{SH}PropertyShape>"
SH_TARGET_CLASS = f"<{SH}targetClass>"
SH_PROPERTY = f"<{SH}property>"
SH_PATH = f"<{SH}path>"
SH_DATATYPE = f"<{SH}datatype>"
SH_NODE = f"<{SH}node>"
SH_MAX_COUNT = f"<{SH}maxCount>"
SH_UNIQUE_LANG = f"<{SH}uniqueLang>"
SH_PATTERN = f"<{SH}pattern>"
SH_OR = f"<{SH}or>"

SKOS_PREF_LABEL = f"<{SKOS}prefLabel>"
SKOS_ALT_LABEL = f"<{SKOS}altLabel>"

SCHEMA_ABOUT = f"<{SCHEMA}about>"
SCHEMA_DESCRIPTION = f"<{SCHEMA}description>"
SCHEMA_ALTERNATE_NAME = f"<{SCHEMA}alternateName>"
SCHEMA_SAME_AS = f"<{SCHEMA}sameAs>"
SCHEMA_INVERSE_OF = f"<{SCHEMA}inverseOf>"
SCHEMA_THING = f"<{SCHEMA}Thing>"
SCHEMA_INTANGIBLE = f"<{SCHEMA}Intangible>"
SCHEMA_ENUMERATION = f"<{SCHEMA}Enumeration>"
SCHEMA_STRUCTURED_VALUE = f"<{SCHEMA}StructuredValue>"
SCHEMA_SERIES = f"<{SCHEMA}Series>"
SCHEMA_MEDICAL_ENTITY = f"<{SCHEMA}MedicalEntity>"
SCHEMA_MEDICAL_INTANGIBLE = f"<{SCHEMA}MedicalIntangible>"
SCHEMA_MEDICAL_ENUMERATION = f"<{SCHEMA}MedicalEnumeration>"
SCHEMA_GEO_COORDINATES = f"<{SCHEMA}GeoCoordinates>"
SCHEMA_QUANTITATIVE_VALUE = f"<{SCHEMA}QuantitativeValue>"
SCHEMA_IMAGE_OBJECT = f"<{SCHEMA}ImageObject>"
SCHEMA_LATITUDE = f"<{SCHEMA}latitude>"
SCHEMA_LONGITUDE = f"<{SCHEMA}longitude>"
SCHEMA_VALUE = f"<{SCHEMA}value>"
SCHEMA_MIN_VALUE = f"<{SCHEMA}minValue>"
SCHEMA_MAX_VALUE = f"<{SCHEMA}maxValue>"
SCHEMA_UNIT_CODE = f"<{SCHEMA}unitCode>"

WIKIBASE_ITEM = f"<{WIKIBASE}Item>"
WIKIBASE_BEST_RANK = f"<{WIKIBASE}BestRank>"
WIKIBASE_TIME_VALUE = f"<{WIKIBASE}timeValue>"
WIKIBASE_TIME_PRECISION = f"<{WIKIBASE}timePrecision>"
WIKIBASE_TIME_CALENDAR_MODEL = f"<{WIKIBASE}timeCalendarModel>"
WIKIBASE_GEO_LATITUDE = f"<{WIKIBASE}geoLatitude>"
WIKIBASE_GEO_LONGITUDE = f"<{WIKIBASE}geoLongitude>"
WIKIBASE_GEO_PRECISION = f"<{WIKIBASE}geoPrecision>"
WIKIBASE_GEO_GLOBE = f"<{WIKIBASE}geoGlobe>"
WIKIBASE_QUANTITY_AMOUNT = f"<{WIKIBASE}quantityAmount>"
WIKIBASE_QUANTITY_UNIT = f"<{WIKIBASE}quantityUnit>"
WIKIBASE_QUANTITY_LOWER_BOUND = f"<{WIKIBASE}quantityLowerBound>"
WIKIBASE_QUANTITY_UPPER_BOUND = f"<{WIKIBASE}quantityUpperBound>"

YS_FROM_CLASS = f"<{YAGO_SCHEMA_PREFIX}fromClass>"
YS_FROM_PROPERTY = f"<{YAGO_SCHEMA_PREFIX}fromProperty>"
YS_ANNOTATION_PROPERTY_SHAPE = f"<{YAGO_SCHEMA_PREFIX}AnnotationPropertyShape>"

# Special Wikidata entities (same public QIDs the reference keys on,
# plan.rs:44-58, plan.rs:1498-1641)
WD_Q2 = f"<{WD}Q2>"  # Earth
WD_Q199 = f"<{WD}Q199>"  # the number 1 (dimensionless unit)
WD_Q573 = f"<{WD}Q573>"  # day
WD_Q7727 = f"<{WD}Q7727>"  # minute
WD_Q11574 = f"<{WD}Q11574>"  # second
WD_Q25235 = f"<{WD}Q25235>"  # hour
WD_Q1985727 = f"<{WD}Q1985727>"  # proleptic Gregorian calendar

# Wikidata classes excluded from the KG (plan.rs:44-51) and items always
# included (plan.rs:53-58).
WD_BAD_CLASSES = [
    f"<{WD}Q17379835>",  # Wikimedia page outside the main knowledge tree
    f"<{WD}Q17442446>",  # Wikimedia internal stuff
    f"<{WD}Q4167410>",  # disambiguation page
    f"<{WD}Q13406463>",  # list article
    f"<{WD}Q17524420>",  # aspect of history
    f"<{WD}Q18340514>",  # article about events in a specific year
]
MANDATORY_WD_ITEMS = [f"<{WD}Q6581097>", f"<{WD}Q6581072>"]  # male, female

MIN_NUMBER_OF_INSTANCES = 10

# Prefix table for compact blank-node / shape names (string_name,
# plan.rs:2032-2047)
NAME_PREFIXES = [
    ("schema", SCHEMA),
    ("bioschema", "http://bioschemas.org/"),
    ("yago", YAGO_RESOURCE_PREFIX),
    ("yagov", YAGO_VALUE_PREFIX),
    ("xsd", XSD),
    ("rdf", RDF),
    ("rdfs", RDFS),
    ("owl", OWL),
]


# ---------------------------------------------------------------------------
# Constructors (→ canonical N-Triples strings)
# ---------------------------------------------------------------------------

def iri(value: str) -> str:
    return f"<{value}>"


def wd(qid: str | int) -> str:
    """<http://www.wikidata.org/entity/Q42> from 42 or 'Q42'."""
    q = qid if isinstance(qid, str) else f"Q{qid}"
    return f"<{WD}{q}>"


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\r": "\r", "\\t": "\t"}
_ESCAPE_RE = re.compile(r'[\\"\n\r\t]')
_UNESCAPE_RE = re.compile(r"\\u[0-9a-fA-F]{4}|\\U[0-9a-fA-F]{8}|\\.")


def _escape(value: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(0)], value)


def _unescape(value: str) -> str:
    def sub(m):
        s = m.group(0)
        if s.startswith("\\u") or s.startswith("\\U"):
            return chr(int(s[2:], 16))  # N-Triples \uXXXX / \UXXXXXXXX
        return _UNESCAPES.get(s, s[1])

    return _UNESCAPE_RE.sub(sub, value)


def string_literal(value: str) -> str:
    return f'"{_escape(value)}"'


def lang_string(value: str, lang: str) -> str:
    return f'"{_escape(value)}"@{lang}'


def typed_literal(value: str, datatype_iri: str) -> str:
    """Canonical typed literal. xsd:string collapses to a plain literal and
    integer/double/dateTime are canonicalized, matching the parse-time
    normalization of the reference (model.rs:117-135)."""
    if datatype_iri == XSD_STRING:
        return string_literal(value)
    if datatype_iri == XSD_INTEGER:
        try:
            return integer_literal(int(value))
        except ValueError:
            pass
    elif datatype_iri == XSD_DOUBLE:
        try:
            return double_literal(float(value))
        except ValueError:
            pass
    elif datatype_iri == XSD_DATE_TIME:
        try:
            return datetime_literal(value)
        except ValueError:
            pass
    return f'"{_escape(value)}"^^<{datatype_iri}>'


def integer_literal(value: int) -> str:
    return f'"{value}"^^<{XSD_INTEGER}>'


def decimal_literal(lexical: str) -> str:
    """Decimals keep their lexical form (model.rs:125 'TODO: encode')."""
    return f'"{lexical}"^^<{XSD_DECIMAL}>'


def fmt_double(value: float) -> str:
    """Deterministic float formatting matching Rust's f64 Display (the
    reference serializes doubles with `{}`, model.rs:244-248): shortest
    round-trip digits in POSITIONAL notation (never exponent form), no
    trailing '.0' (1.0 → '1', 1e30 → '1000…0', 1e-7 → '0.0000001'),
    NaN → 'NaN' (string-equal, so NaN values dedup like the reference's
    NaN==NaN Double ordering, model.rs:159-207)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    r = repr(float(value))
    if "e" in r or "E" in r:
        from decimal import Decimal

        r = format(Decimal(r), "f")
    if "." in r:
        r = r.rstrip("0").rstrip(".")
    return r or "0"


def double_literal(value: float) -> str:
    return f'"{fmt_double(value)}"^^<{XSD_DOUBLE}>'


def datetime_literal(value: str | datetime) -> str:
    """Canonical xsd:dateTime, RFC3339 with explicit offset (+00:00)."""
    if isinstance(value, str):
        value = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return f'"{value.isoformat()}"^^<{XSD_DATE_TIME}>'


def blank_node(name: str) -> str:
    return f"_:{name}"


# ---------------------------------------------------------------------------
# Accessors on canonical strings
# ---------------------------------------------------------------------------

def is_iri(term: str) -> bool:
    return term.startswith("<")


def iri_value(term: str) -> str:
    """'<http://x>' → 'http://x'."""
    return term[1:-1]


_LITERAL_RE = re.compile(
    r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z0-9-]+)|\^\^<([^>]+)>)?$'
)


def parse_literal(term: str) -> tuple[str, str | None, str | None]:
    """'"v"@en' → (value, lang, datatype); raises ValueError otherwise."""
    m = _LITERAL_RE.match(term)
    if not m:
        raise ValueError(f"not a literal: {term!r}")
    return _unescape(m.group(1)), m.group(2), m.group(3)


def literal_value(term: str) -> str:
    return parse_literal(term)[0]


def datatype(term: str) -> str | None:
    """Datatype IRI of a literal term; None for IRIs / blank nodes.
    Mirrors YagoTerm::datatype (model.rs:141-155)."""
    if not term.startswith('"'):
        return None
    # fast path on the canonical suffix
    if term.endswith('"'):
        return XSD_STRING
    idx = term.rfind('"')
    suffix = term[idx + 1:]
    if suffix.startswith("@"):
        return RDF_LANG_STRING
    if suffix.startswith("^^<") and suffix.endswith(">"):
        return suffix[3:-1]
    return None


def qid_of(term: str) -> str | None:
    """'<http://www.wikidata.org/entity/Q42>' → 'Q42' (else None)."""
    if term.startswith(f"<{WD}Q") and term.endswith(">"):
        body = term[len(WD) + 1:-1]
        if body[1:].isdigit():
            return body
    return None


_PID_RE = re.compile(
    r"^<http://www\.wikidata\.org/(?:entity|prop(?:/[a-z-]+)*)/P([0-9]+)>$"
)


def pid_of(term: str) -> str | None:
    """Any of the 14 Wikidata property-prefix IRIs → 'P31' (else None).
    Mirrors the property-family inlining of model.rs:84-106,209-224."""
    m = _PID_RE.match(term)
    return f"P{m.group(1)}" if m else None


# ---------------------------------------------------------------------------
# N-Triples line parse / serialize
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""(<[^>]*>|_:[A-Za-z0-9._-]+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?)""",
)


def canonical_term(raw: str) -> str:
    """Normalize one raw N-Triples term into its canonical string."""
    if raw.startswith("<") or raw.startswith("_:"):
        return raw
    value, lang, dt = parse_literal(raw)
    if lang is not None:
        return lang_string(value, lang)
    if dt is None:
        return string_literal(value)
    return typed_literal(value, dt)


def parse_ntriples_line(line: str) -> tuple[str, str, str] | None:
    """One N-Triples line → (subject, predicate, object) canonical strings.
    Returns None for blank / comment / malformed lines (bad lines are
    skipped, like the reference's tolerant loader,
    partitioned_statements.rs:82-128)."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    terms = _TERM_RE.findall(line)
    if len(terms) < 3:
        return None
    try:
        return (
            canonical_term(terms[0]),
            canonical_term(terms[1]),
            canonical_term(terms[2]),
        )
    except ValueError:
        return None


def format_triple(s: str, p: str, o: str) -> str:
    """Tab-separated N-Triples line (reference line format, model.rs:21-29)."""
    return f"{s}\t{p}\t{o}\t."


def format_annotated_triple(s: str, p: str, o: str, ap: str, ao: str) -> str:
    """RDF* line: << s p o >> ap ao .  (model.rs:51-63)."""
    return f"<<\t{s}\t{p}\t{o}\t>>\t{ap}\t{ao}\t."


# ---------------------------------------------------------------------------
# IRI path encoding (RFC 3987 ipchar; semantics of plan.rs:2412-2447)
# ---------------------------------------------------------------------------

_IPCHAR_EXTRA = set("-._~:@!$&'()*+,;=")


def _ipchar_ok(c: str) -> bool:
    if c.isascii():
        return c.isalnum() or c in _IPCHAR_EXTRA
    cp = ord(c)
    return (
        0x00A0 <= cp <= 0xD7FF
        or 0xF900 <= cp <= 0xFDCF
        or 0xFDF0 <= cp <= 0xFFEF
        or 0x10000 <= cp <= 0xEFFFD
    )


# strings whose encode_iri_path output is themselves with spaces -> '_'
# (the overwhelmingly common case): the RE2 pattern text of the Arrow
# fast paths (pyarrow.compute.match_substring_regex). A plain string, not
# a compiled Python `re`: Python's `$` also matches before a trailing
# newline, RE2's only at the end of the text.
IPCHAR_OR_SPACE_RE = (
    r"^[A-Za-z0-9\-._~:@!$&'()*+,;= "
    "\u00A0-\uD7FF\uF900-\uFDCF\uFDF0-\uFFEF\U00010000-\U000EFFFD]*$"
)


def encode_iri_path(path: str) -> str:
    """Percent-encode a string into an IRI path segment: spaces become '_',
    RFC-3987 ipchar characters pass through, everything else is
    %XX-encoded (uppercase hex, no zero padding — '%2F' but '%7'→no:
    each byte formatted as %X matching the reference's {:X}).

    Vectors (plan.rs:2449-2458): 'Dürst' → 'Dürst',
    'Paris Hilton/Bio' → 'Paris_Hilton%2FBio'.
    """
    out = []
    for c in path:
        if c == " ":
            out.append("_")
        elif _ipchar_ok(c):
            out.append(c)
        else:
            out.extend(f"%{b:X}" for b in c.encode("utf-8"))
    return "".join(out)


def yago_resource_from_title(title: str) -> str:
    """Wikipedia title (percent-decoded) → yago resource IRI term."""
    return iri(YAGO_RESOURCE_PREFIX + encode_iri_path(title))


# ---------------------------------------------------------------------------
# Misc scalar functions
# ---------------------------------------------------------------------------

def camel_case_to_regular(text: str) -> str:
    """'fooBarBaz' → 'foo bar baz' (plan.rs:2061-2076)."""
    out: list[str] = []
    for c in text:
        if c.isupper():
            if out and not out[-1].isspace():
                out.append(" ")
            out.append(c.lower())
        else:
            out.append(c)
    return "".join(out)


def term_camel_case_to_regular(term: str) -> str:
    """Apply camel-case splitting to string / lang-string literals only
    (plan.rs:2050-2058)."""
    if not term.startswith('"'):
        return term
    value, lang, dt = parse_literal(term)
    if dt is not None:
        return term
    split = camel_case_to_regular(value)
    return lang_string(split, lang) if lang else string_literal(split)


def string_name(terms: list[str]) -> str:
    """Compact deterministic name from IRIs, for blank nodes / shape ids
    (plan.rs:2032-2047)."""
    parts = []
    for t in terms:
        if not is_iri(t):
            raise ValueError(f"string_name needs IRIs, got {t!r}")
        v = iri_value(t)
        for prefix, start in NAME_PREFIXES:
            if v.startswith(start):
                v = prefix + "-" + v[len(start):]
                break
        else:
            v = v.replace("/", "").replace("?", "").replace("#", "")
        parts.append(v)
    return "-".join(parts)
