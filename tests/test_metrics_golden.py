"""Golden-corpus check: every integer metric exact, floats within 1e-9 of the
values derived from the hand ledger through the documented formulas."""

import dataclasses
import math

import pytest

from methodlens.java_extract import body_open_index, extract_methods, match_forward, normalize_source, tokenize
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


def _wrap_body(text: str, head: str, tail: str) -> str:
    """`text` with `head` inserted right after its body's '{' and `tail`
    right before the body's '}'."""
    code = [t for t in tokenize(text) if t.kind != "comment"]
    open_idx = body_open_index(code)
    brace, close = code[open_idx], code[match_forward(code, open_idx, "{", "}")]
    lines = text.split("\n")
    # the '}' first, so that the '{' keeps its column when both share a line
    for tok, at, insert in ((close, close.column - 1, tail), (brace, brace.column, head)):
        line = lines[tok.line - 1]
        lines[tok.line - 1] = line[:at] + insert + line[at:]
    return "\n".join(lines)


@pytest.mark.parametrize("local", LOCAL_TYPES)
def test_a_leading_local_type_keeps_the_control_flow_metrics(local):
    """Metamorphic: an empty local type as a method body's first statement
    leaves mccabe, nvar, ncomp and maxBlockDepth at the ledger's values."""
    wrong = {}
    for method in CORPUS:
        decl = DECLS[(method.class_name, method.name)]
        text = _wrap_body(method.text, " " + local, "")
        actual = compute_metric_vector(dataclasses.replace(decl, bodyText=text, bodyBlock=None)).as_dict()
        expected = expected_vector(method.text, method.ledger)
        for name in ("mccabe", "nvar", "ncomp", "maxBlockDepth"):
            if actual[name] != expected[name]:
                wrong["%s.%s %s" % (method.class_name, method.name, name)] = (actual[name], expected[name])
    assert not wrong


def test_a_body_moved_into_a_lambda_argument_keeps_the_walk_metrics():
    """Metamorphic: a method body's statements moved into a lambda body in
    call arguments, `{ run(() -> { <body> }); }`, leave variables,
    maxBlockDepth, mccabe, nvar and ncomp at the ledger's values, since a
    block body inside call arguments is walked like any other."""
    wrong = {}
    for method in CORPUS:
        decl = DECLS[(method.class_name, method.name)]
        text = _wrap_body(method.text, " run(() -> {", "}); ")
        actual = compute_metric_vector(dataclasses.replace(decl, bodyText=text, bodyBlock=None)).as_dict()
        expected = expected_vector(method.text, method.ledger)
        for name in ("variables", "maxBlockDepth", "mccabe", "nvar", "ncomp"):
            if actual[name] != expected[name]:
                wrong["%s.%s %s" % (method.class_name, method.name, name)] = (actual[name], expected[name])
    assert not wrong
