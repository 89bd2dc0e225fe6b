import dataclasses
import math

import pytest

from methodlens.java_extract import MethodDeclaration, extract_methods, normalize_source
from methodlens.metrics import (
    HalsteadCounts,
    byte_entropy,
    compute_indent_std,
    compute_maintainability_index,
    compute_metric_vector,
    compute_readability_posnett,
)


def decl_of(source, name=None):
    if "class" not in source and "interface" not in source and "enum" not in source:
        source = "class T {\n" + source + "\n}\n"
    decls = extract_methods(normalize_source(source))
    if name is not None:
        return next(d for d in decls if d.name == name)
    return decls[0]


def raw_decl(body_text, name="m", params=(), modifiers=()):
    return MethodDeclaration(
        name=name,
        parameterTypes=list(params),
        modifiers=set(modifiers),
        annotations=[],
        bodyText=body_text,
        startLine=1,
        endLine=body_text.count("\n") + 1,
        containerChain=["T"],
    )


GETTER = """\
class A {
    int getX() {
        return x;
    }
}
"""


# --- size ---------------------------------------------------------------

def test_size_three_line_getter():
    assert compute_metric_vector(decl_of(GETTER)).size == 3


def test_size_blank_body_lines_not_counted():
    d = decl_of("void m() {\n\n\n}")
    assert compute_metric_vector(d).size == 2  # declaration line + closing brace line


def test_size_ignores_comment_only_lines():
    plain = decl_of("void m() {\n    go();\n}")
    commented = decl_of("void m() {\n    // note\n    go();\n}")
    assert compute_metric_vector(plain).size == compute_metric_vector(commented).size == 3


# --- mccabe ---------------------------------------------------------------

def test_mccabe_empty_body():
    assert compute_metric_vector(decl_of("void m() { }")).mccabe == 1


def test_mccabe_if_with_short_circuit():
    d = decl_of("void m() { if (a && b) { go(); } }")
    assert compute_metric_vector(d).mccabe == 3


def test_mccabe_switch_cases_without_default():
    d = decl_of(
        "void m() { switch (x) { case 1: a(); break; case 2: b(); break; "
        "case 3: c(); break; default: d(); } }"
    )
    assert compute_metric_vector(d).mccabe == 4


def test_mccabe_do_while_counts_once():
    d = decl_of("void m() { do { a(); } while (x < 3); }")
    assert compute_metric_vector(d).mccabe == 2


def test_mccabe_wildcard_question_mark_not_ternary():
    d = decl_of("void m(java.util.List<?> xs) { int y = a > 0 ? 1 : 2; }")
    assert compute_metric_vector(d).mccabe == 2


# --- mcclure ---------------------------------------------------------------

def test_mcclure_no_conditionals():
    v = compute_metric_vector(decl_of("void m() { go(); }"))
    assert (v.nvar, v.ncomp) == (0, 0)


def test_mcclure_two_vars_two_comparisons():
    d = decl_of("void m() { if (x > 0 && x < n) { go(); } }")
    v = compute_metric_vector(d)
    assert (v.nvar, v.ncomp) == (2, 2)


def test_mcclure_flag_only():
    d = decl_of("void m() { while (flag) { spin(); } }")
    v = compute_metric_vector(d)
    assert (v.nvar, v.ncomp) == (1, 0)


def test_mcclure_for_condition_clause_only():
    d = decl_of("void m() { for (int i = 0; i < limit; i++) { go(i); } }")
    v = compute_metric_vector(d)
    assert (v.nvar, v.ncomp) == (2, 1)  # i and limit; the init/update do not count


@pytest.mark.parametrize("body", ["return (a > (b + 1)) ? a : b;", "return g(a > b ? a : b);"])
def test_mcclure_ternary_condition_stops_where_its_group_opens(body):
    v = compute_metric_vector(decl_of(f"int m() {{ {body} }}"))
    assert (v.mccabe, v.nvar, v.ncomp) == (2, 2, 1)  # a and b, bracketed or not; g is outside the condition


def test_mcclure_for_condition_clause_with_nested_groups():
    d = decl_of("void m() { for (int i = f(a[0]); i < g(a[1], (2)); i++) { } }")
    v = compute_metric_vector(d)
    assert (v.nvar, v.ncomp) == (3, 1)  # i, g and a: the middle clause ends at its own semicolon


# --- indentation ---------------------------------------------------------------

def test_indent_std_uniform_is_zero():
    d = raw_decl("    a();\n    b();\n    c();")
    assert compute_indent_std(d) == 0.0


def test_indent_std_closed_form():
    d = raw_decl("void m() {\n    a();\n    b();\n}")
    assert compute_indent_std(d) == 2.0  # widths [0, 4, 4, 0]


def test_indent_tabs_equal_four_spaces():
    tabs = raw_decl("void m() {\n\ta();\n}")
    spaces = raw_decl("void m() {\n    a();\n}")
    assert compute_indent_std(tabs) == compute_indent_std(spaces)


# --- nesting depth ---------------------------------------------------------------

def test_depth_straight_line():
    assert compute_metric_vector(decl_of("void m() { a(); b(); }")).maxBlockDepth == 0


def test_depth_if_inside_for():
    d = decl_of("void m() { for (int i = 0; i < n; i++) { if (ok(i)) { go(i); } } }")
    assert compute_metric_vector(d).maxBlockDepth == 2


def test_depth_try_catch_top_level():
    d = decl_of("void m() { try { a(); } catch (Exception e) { b(); } }")
    assert compute_metric_vector(d).maxBlockDepth == 1


def test_depth_braceless_bodies_count():
    d = decl_of("void m() { if (a) if (b) go(); }")
    assert compute_metric_vector(d).maxBlockDepth == 2


def test_depth_else_if_chain_stays_level():
    d = decl_of("void m() { if (a) { x(); } else if (b) { y(); } else { z(); } }")
    assert compute_metric_vector(d).maxBlockDepth == 1


@pytest.mark.parametrize("body, depth", [
    # lambda bodies, anonymous-class bodies and bare blocks are transparent
    ("xs.forEach(x -> { if (x > 0) { for (;;) { break; } } });", 2),
    ("Runnable r = new Runnable() { public void run() { while (true) { if (a) { b(); } } } };", 2),
    ("{ { if (a) { b(); } } }", 1),
    # a labelled loop counts, and so does its `if`'s braceless body
    ("outer: for (int i = 0; i < 3; i++) { if (i == 1) continue outer; }", 2),
])
def test_depth_counts_control_structures_inside_transparent_blocks(body, depth):
    assert compute_metric_vector(decl_of(f"void m() {{ {body} }}")).maxBlockDepth == depth


# --- fanout ---------------------------------------------------------------

def test_fanout_no_calls():
    assert compute_metric_vector(decl_of("void m() { int x = 1; }")).fanout == 0


def test_fanout_distinct_names():
    d = decl_of("void m() { a.foo(); b.foo(); bar(); }")
    assert compute_metric_vector(d).fanout == 2


def test_fanout_recursive_self_call():
    d = decl_of("void m() { m(); }")
    assert compute_metric_vector(d).fanout == 1


def test_fanout_excludes_constructor_calls():
    d = decl_of("void m() { Foo f = new Foo(); f.run(); new a.b.Bar(); }")
    assert compute_metric_vector(d).fanout == 1


# --- halstead ---------------------------------------------------------------

def assert_halstead(d, h):
    """The vector's Halstead length, and the maintainability index and
    entropy readability computed from the Halstead counts, are those of h."""
    v = compute_metric_vector(d)
    assert v.halsteadLength == h.length
    assert v.maintainabilityIndex == compute_maintainability_index(v.size, v.mccabe, h)
    assert v.simpleReadability == compute_readability_posnett(d, h)


def test_halstead_bare_return():
    # 'return' and the body braces
    assert_halstead(decl_of("void m() { return; }"), HalsteadCounts(N1=2, N2=0, n1=2, n2=0))


def test_halstead_return_operand():
    assert_halstead(decl_of("void m() { return x; }"), HalsteadCounts(N1=2, N2=1, n1=2, n2=1))


def test_halstead_zero_length_volume():
    assert HalsteadCounts(0, 0, 0, 0).volume == 0.0


def test_halstead_invocation_absorbs_parens():
    # operators: {}, go(); operands: x
    assert_halstead(decl_of("void m() { go(x); }"), HalsteadCounts(N1=2, N2=1, n1=2, n2=1))


# --- maintainability index ---------------------------------------------------------------

def test_mi_low_volume_floor():
    h = HalsteadCounts(1, 0, 1, 0)  # volume = 1
    assert abs(compute_maintainability_index(1, 1, h) - 170.77) < 1e-9


def test_mi_direct_evaluation():
    class _H:
        volume = 100.0
    expected = 171 - 5.2 * math.log(100) - 0.23 * 5 - 16.2 * math.log(20)
    assert abs(compute_maintainability_index(20, 5, _H()) - expected) < 1e-12
    assert abs(expected - 97.37) < 0.01


def test_mi_decreases_with_size():
    class _H:
        volume = 50.0
    values = [compute_maintainability_index(s, 3, _H()) for s in (5, 10, 40)]
    assert values == sorted(values, reverse=True)


# --- readability (line-shape surrogate) ------------------------------------------

def test_buse_score_in_open_interval():
    for src in (GETTER, "void m() { }", "void m() {\n" + "    x(y, z);\n" * 30 + "}"):
        score = compute_metric_vector(decl_of(src)).readability
        assert 0.0 < score < 1.0


def test_buse_doubling_line_lengths_decreases_score():
    d = decl_of(GETTER)
    padded = "\n".join(line + " " * len(line) for line in d.bodyText.split("\n"))
    d2 = dataclasses.replace(d, bodyText=padded)
    assert compute_metric_vector(d2).readability < compute_metric_vector(d).readability


def test_buse_adding_comment_line_does_not_decrease_score():
    d = decl_of(GETTER)
    with_comment = dataclasses.replace(
        d, bodyText=d.bodyText + "\n    // note", endLine=d.endLine + 1
    )
    assert compute_metric_vector(with_comment).readability >= compute_metric_vector(d).readability


# --- readability (entropy model) ------------------------------------------

def test_posnett_score_in_open_interval():
    assert 0.0 < compute_metric_vector(decl_of(GETTER)).simpleReadability < 1.0


def test_posnett_volume_increase_decreases_score():
    d = decl_of(GETTER)
    small = HalsteadCounts(5, 5, 3, 3)
    large = HalsteadCounts(200, 200, 30, 30)
    assert compute_readability_posnett(d, large) < compute_readability_posnett(d, small)


def test_entropy_of_single_character_is_zero():
    assert byte_entropy("a") == 0.0


# --- parameters / variables / comment ratio -------------------------------

def test_counts_multi_declarator():
    d = decl_of("void m() { int a, b; use(a, b); }")
    assert compute_metric_vector(d).variables == 2


def test_counts_comment_ratio():
    d = decl_of("void m() {\n    // one\n    // two\n    init();\n    go();\n}")
    v = compute_metric_vector(d)
    assert v.size == 4
    assert v.commentRatio == 0.5


def test_counts_parameterless():
    assert compute_metric_vector(decl_of("void m() { }")).parameters == 0


def test_counts_for_init_and_resources_included_catch_excluded():
    d = decl_of(
        "void m() {\n"
        "    for (int i = 0, j = 0; i < j; i++) { }\n"
        "    try (Res r = open()) { } catch (Exception boom) { }\n"
        "    for (String s : items) { }\n"
        "}"
    )
    assert compute_metric_vector(d).variables == 4  # i, j, r, s


def test_counts_lambda_parameters_excluded():
    d = decl_of("void m() { items.forEach(x -> consume(x)); int kept = 1; }")
    assert compute_metric_vector(d).variables == 1


def test_counts_a_local_annotated_without_arguments():
    d = decl_of('void m(Object y) { @Nonnull Object x = y; final Object z = y; '
                '@SuppressWarnings("u") Object w = y; }')
    assert compute_metric_vector(d).variables == 3  # x, z, w


# --- getter/setter ---------------------------------------------------------------

def test_getter_detected():
    assert compute_metric_vector(decl_of("int getX(){ return x; }")).getterSetter is True


def test_setter_with_extra_statement_rejected():
    assert compute_metric_vector(decl_of("void setX(int v){ x = v; log(); }")).getterSetter is False


def test_is_prefix_getter_with_comparison():
    assert compute_metric_vector(decl_of("boolean isEmpty(){ return size == 0; }")).getterSetter is True


def test_plain_setter_detected():
    assert compute_metric_vector(decl_of("void setX(int v){ this.x = v; }")).getterSetter is True


# --- full vector ---------------------------------------------------------------

def test_vector_for_canonical_getter():
    v = compute_metric_vector(decl_of(GETTER))
    assert v.size == 3
    assert v.mccabe == 1
    assert v.getterSetter is True
    assert v.isPublic is False
    assert v.parameters == 0
    assert v.maxBlockDepth == 0


def test_vector_path_independence_and_determinism():
    # extraction takes no path, so two extractions of one text must agree
    a = compute_metric_vector(decl_of(GETTER))
    b = compute_metric_vector(decl_of(GETTER))
    assert a == b


def test_comment_append_changes_only_comment_sensitive_fields():
    d = decl_of(GETTER)
    d2 = dataclasses.replace(d, bodyText=d.bodyText + "\n    // trailing", endLine=d.endLine + 1)
    v1, v2 = compute_metric_vector(d), compute_metric_vector(d2)
    for field in ("size", "mccabe", "nvar", "ncomp", "fanout", "halsteadLength",
                  "parameters", "variables", "maintainabilityIndex", "maxBlockDepth"):
        assert getattr(v1, field) == getattr(v2, field), field
    assert v2.commentRatio > v1.commentRatio


def test_comment_ratio_times_size_is_integral():
    d = decl_of("void m() {\n    // one\n    /* two\n       three */\n    go();\n}")
    v = compute_metric_vector(d)
    product = v.commentRatio * v.size
    assert abs(product - round(product)) < 1e-12
