"""Signatures against a seeded generator's record of the declarations it
wrote (`decl_gen`), and the generator against javac."""

import random
import shutil
import subprocess

import pytest

from decl_gen import COMMENTS, KINDS, LITERALS, LOCAL_HOLDERS, LOCAL_TYPES, generate_unit
from methodlens.java_extract import extract_methods, signature

SEEDS = [3, 4, 5]
METHODS = 700

# every shape the generator writes, so that a change to it that stops
# writing one fails here
SHAPES = {
    *("parameters=%d" % count for count in range(5)),
    "close>", "close>>", "close>>>", "?", "? extends", "? super",
    "qualified", "qualified @TU", "G<...>.In",
    "primitive[]", "reference[]", "dims after name", "@TU []", "varargs",
    "final", "final before", "final after",
    "annotation", "annotation()", "array", "nested", "string,", "string<", "char,", "char<",
    "qualified annotation", "op<", "op>", "op>>", "op>>>", "op<<",
    "receiver", "annotated receiver", "bounded type parameters",
    "result []", "@TU result []", "throws", "throws @TU",
    "interface default", "interface static", "interface private",
    *("supertypes=%d" % count for count in range(4)), *("permits=%d" % count for count in range(1, 4)),
    "class extends", "class extends implements", "type parameters",
    *("%s with supertypes" % kind for kind in KINDS if kind != "@interface"),
    *("class in " + kind for kind in KINDS),
    "enum constant body", "constructor", "compact constructor", "annotated record component",
    "final permitted class", "non-sealed permitted class",
    *LOCAL_HOLDERS, *(shape for _, shape in LOCAL_TYPES),
    *(shape for _, shape in COMMENTS), *(shape for _, shape in LITERALS),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_signatures_equal_the_generators_record(seed):
    unit = generate_unit(random.Random(seed), METHODS)
    assert SHAPES <= set(unit.shapes), SHAPES - set(unit.shapes)
    assert [signature(d) for d in extract_methods(unit.source)] == unit.signatures


def test_a_generated_unit_compiles_with_javac(tmp_path):
    """The record is only as good as the generator: the unit it writes must
    be Java."""
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    path = tmp_path / "Unit.java"
    path.write_text(generate_unit(random.Random(SEEDS[0]), METHODS).source, encoding="utf-8")
    done = subprocess.run([javac, "-proc:none", "-d", str(tmp_path), str(path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
