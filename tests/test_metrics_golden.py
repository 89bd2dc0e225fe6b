"""Golden-corpus check: every integer metric exact, floats within 1e-9 of the
values derived from the hand ledger through the documented formulas."""

import math

import pytest

from methodlens.java_extract import extract_methods, normalize_source
from methodlens.metrics import METRIC_NAMES, compute_metric_vector

from golden_corpus import CORPUS, corpus_files, expected_vector

INT_METRICS = ("size", "mccabe", "nvar", "ncomp", "maxBlockDepth", "fanout",
               "halsteadLength", "parameters", "variables")
BOOL_METRICS = ("getterSetter", "isPublic", "isStatic")
FLOAT_METRICS = ("indentStd", "maintainabilityIndex", "readability",
                 "simpleReadability", "commentRatio")

assert set(INT_METRICS) | set(BOOL_METRICS) | set(FLOAT_METRICS) == set(METRIC_NAMES)


def _extracted_declarations():
    out = {}
    for filename, content in corpus_files().items():
        for decl in extract_methods(normalize_source(content)):
            out[(filename[:-5], decl.name)] = decl
    return out


DECLS = _extracted_declarations()


def test_corpus_has_at_least_40_methods():
    assert len(CORPUS) >= 40
    assert len(DECLS) == len(CORPUS)


@pytest.mark.parametrize("method", CORPUS, ids=lambda m: f"{m.class_name}.{m.name}")
def test_extracted_text_matches_golden_source(method):
    decl = DECLS[(method.class_name, method.name)]
    assert decl.bodyText == method.text


@pytest.mark.parametrize("method", CORPUS, ids=lambda m: f"{m.class_name}.{m.name}")
def test_metrics_match_hand_ledger(method):
    decl = DECLS[(method.class_name, method.name)]
    actual = compute_metric_vector(decl).as_dict()
    expected = expected_vector(method.text, method.ledger)
    for name in INT_METRICS:
        assert actual[name] == expected[name], name
    for name in BOOL_METRICS:
        assert actual[name] is expected[name], name
    for name in FLOAT_METRICS:
        assert actual[name] == pytest.approx(expected[name], abs=1e-9), name
        assert math.isfinite(actual[name]), name
