"""Golden-corpus check: every integer metric exact, floats within 1e-9 of the
values derived from the hand ledger through the documented formulas."""

import dataclasses
import math

import pytest

from methodlens.java_extract import body_open_index, extract_methods, normalize_source, tokenize
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


# empty local type declarations; each adds no predicate, no decision
# expression and no control-structure block
LOCAL_TYPES = ["class Z { }", "final class Z { }", "@Deprecated class Z { }", "record Z(int z) { }",
               "interface Z { }", "enum Z { }"]


def _with_first_statement(text: str, statement: str) -> str:
    """`text` with `statement` inserted right after its body's '{'."""
    code = [t for t in tokenize(text) if t.kind != "comment"]
    brace = code[body_open_index(code)]
    lines = text.split("\n")
    line = lines[brace.line - 1]
    lines[brace.line - 1] = line[:brace.column] + " " + statement + line[brace.column:]
    return "\n".join(lines)


@pytest.mark.parametrize("local", LOCAL_TYPES)
def test_a_leading_local_type_keeps_the_control_flow_metrics(local):
    """Metamorphic: an empty local type as a method body's first statement
    leaves mccabe, nvar, ncomp and maxBlockDepth at the ledger's values."""
    wrong = {}
    for method in CORPUS:
        decl = DECLS[(method.class_name, method.name)]
        text = _with_first_statement(method.text, local)
        actual = compute_metric_vector(dataclasses.replace(decl, bodyText=text, bodyBlock=None)).as_dict()
        expected = expected_vector(method.text, method.ledger)
        for name in ("mccabe", "nvar", "ncomp", "maxBlockDepth"):
            if actual[name] != expected[name]:
                wrong["%s.%s %s" % (method.class_name, method.name, name)] = (actual[name], expected[name])
    assert not wrong
