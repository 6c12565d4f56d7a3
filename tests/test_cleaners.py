"""Unit vectors for the value cleaners (SURVEY §2.2 M5-M15), matching
the reference quirks exactly (plan.rs:1498-1773)."""

from yago4_ray import cleaners as C
from yago4_ray import terms as T


def dt(iso):
    return T.datetime_literal(iso)


def test_convert_time_precisions():
    value = dt("1952-03-11T00:00:00+00:00")
    greg = T.wd("Q1985727")
    assert C.convert_time(value, T.integer_literal(9), greg) == T.typed_literal(
        "1952", T.XSD_G_YEAR
    )
    assert C.convert_time(value, T.integer_literal(10), greg) == T.typed_literal(
        "1952-03", T.XSD_G_YEAR_MONTH
    )
    assert C.convert_time(value, T.integer_literal(11), greg) == T.typed_literal(
        "1952-03-11", T.XSD_DATE
    )
    assert C.convert_time(value, T.integer_literal(14), greg) == value
    # unsupported precision
    assert C.convert_time(value, T.integer_literal(7), greg) is None
    # Julian calendar rejected (plan.rs:1503-1505)
    assert C.convert_time(value, T.integer_literal(11), T.wd("Q1985786")) is None
    # year zero-padding
    assert C.convert_time(
        dt("0044-03-15T00:00:00+00:00"), T.integer_literal(9), greg
    ) == T.typed_literal("0044", T.XSD_G_YEAR)


def test_round_degrees():
    assert C.round_degrees(48.8567, 0.01) == 48.86
    assert C.round_degrees(-48.8567, 0.01) == -48.86
    # half away from zero
    assert C.round_degrees(0.05, 0.1) == 0.1


def test_convert_geo():
    ok = C.convert_globe_coordinates(
        T.double_literal(48.85), T.double_literal(2.35),
        T.double_literal(0.1), T.WD_Q2,
    )
    assert ok is not None
    node, extras = ok
    # 489 * 0.1 carries f64 artifacts — identically in the reference's
    # Rust arithmetic (round_degrees, plan.rs:1571-1575)
    assert node == "<geo:48.900000000000006,2.4000000000000004>"
    assert (node, T.RDF_TYPE, T.SCHEMA_GEO_COORDINATES) in extras
    assert (node, T.SCHEMA_LATITUDE, T.double_literal(48.85)) in extras
    # non-Earth rejected (plan.rs:1534-1535)
    assert (
        C.convert_globe_coordinates(
            T.double_literal(1.0), T.double_literal(2.0),
            T.double_literal(1.0), T.wd("Q111"),
        )
        is None
    )


def test_convert_duration():
    assert C.convert_duration_quantity(
        T.decimal_literal("+90"), T.WD_Q7727
    ) == T.typed_literal("PT90M", T.XSD_DURATION)
    assert C.convert_duration_quantity(
        T.decimal_literal("5"), T.WD_Q573
    ) == T.typed_literal("P5D", T.XSD_DURATION)
    # the reference's negative spelling: '-PT-5S' (plan.rs:1584-1588)
    assert C.convert_duration_quantity(
        T.decimal_literal("-5"), T.WD_Q11574
    ) == T.typed_literal("-PT-5S", T.XSD_DURATION)
    # unsupported unit (metre)
    assert C.convert_duration_quantity(T.decimal_literal("5"), T.wd("Q11573")) is None
    # non-integer amount
    assert C.convert_duration_quantity(T.decimal_literal("5.5"), T.WD_Q573) is None


def test_convert_integer():
    assert C.convert_integer_quantity(
        T.decimal_literal("+1200"), T.WD_Q199
    ) == T.integer_literal(1200)
    assert C.convert_integer_quantity(T.decimal_literal("+1"), T.wd("Q573")) is None


def test_convert_quantity():
    node = "<http://www.wikidata.org/value/abc123>"
    res = C.convert_quantity(
        node, T.iri("http://yago-knowledge.org/resource/metre_Q11573"),
        T.decimal_literal("+5"), T.decimal_literal("+4"), T.decimal_literal("+6"),
    )
    assert res is not None
    quantity, extras = res
    # wdv: IRIs are unchanged by the reference's prefix replacement
    assert quantity == node
    preds = {p for _, p, _ in extras}
    assert preds == {
        T.RDF_TYPE, T.SCHEMA_VALUE, T.SCHEMA_MIN_VALUE,
        T.SCHEMA_MAX_VALUE, T.SCHEMA_UNIT_CODE,
    }


def test_any_uri():
    assert C.validate_any_uri("<https://example.org/x>") == T.typed_literal(
        "https://example.org/x", T.XSD_ANY_URI
    )
    assert C.validate_any_uri('"not an iri"') is None


def test_image_filter():
    good = f"<{C.COMMONS_PREFIX}Douglas_adams_portrait.jpg>"
    assert C.filter_image(good) == good
    assert C.filter_image("<https://example.org/img.jpg>") is None


def test_freebase():
    assert C.convert_freebase_id('"/m/02mjmr"') == T.iri(
        "http://rdf.freebase.com/ns/m.02mjmr"
    )
    assert C.convert_freebase_id('"/x/bad"') is None
    assert C.convert_freebase_id(T.lang_string("/m/02mjmr", "en")) is None
