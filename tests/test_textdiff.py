import random
import string

from methodlens.history import _strip_common, levenshtein, line_diff

from oracles import lcs_line_diff, levenshtein_full_matrix, strip_common_reference


def test_identity():
    assert levenshtein("abc", "abc") == 0


def test_kitten_sitting():
    assert levenshtein("kitten", "sitting") == 3


def test_empty_against_string():
    assert levenshtein("", "hello") == 5
    assert levenshtein("hello", "") == 5


def test_symmetry_and_bounds_random():
    rng = random.Random(99)
    for _ in range(200):
        a = "".join(rng.choice("ab c") for _ in range(rng.randrange(0, 25)))
        b = "".join(rng.choice("ab c") for _ in range(rng.randrange(0, 25)))
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def test_triangle_inequality_random():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (
            "".join(rng.choice("xyz") for _ in range(rng.randrange(0, 15)))
            for _ in range(3)
        )
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_matches_full_matrix_oracle_including_long_inputs():
    rng = random.Random(2024)
    alphabet = string.ascii_lowercase[:6] + " \n"
    for _ in range(60):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 150)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 150)))
        assert levenshtein(a, b) == levenshtein_full_matrix(a, b)


def test_line_diff_identical():
    text = "a\nb\nc"
    assert line_diff(text, text) == (0, 0)


def test_line_diff_appended_line():
    assert line_diff("a\nb", "a\nb\nc") == (1, 0)


def test_line_diff_modified_in_place():
    assert line_diff("a\nb\nc", "a\nB\nc") == (1, 1)


def test_line_diff_matches_lcs_oracle():
    rng = random.Random(5)
    lines = ["alpha", "beta", "gamma", "delta", ""]
    for _ in range(150):
        a = "\n".join(rng.choice(lines) for _ in range(rng.randrange(0, 10)))
        b = "\n".join(rng.choice(lines) for _ in range(rng.randrange(0, 10)))
        assert line_diff(a, b) == lcs_line_diff(a, b)


# lengths on both sides of the 64-bit word boundaries of the bit-vector
# kernels, plus one long input
BOUNDARY_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129, 600)
# code points of one, two, three and four UTF-8 bytes, one of them astral
ALPHABET = "ab{}();\n é中文😀"


def _edits(rng, text: str, count: int) -> str:
    chars = list(text)
    for _ in range(count):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or i == len(chars):
            chars.insert(i, rng.choice(ALPHABET))
        elif op == 1:
            del chars[i]
        else:
            chars[i] = rng.choice(ALPHABET)
    return "".join(chars)


def test_levenshtein_matches_oracle_at_word_boundary_lengths():
    rng = random.Random(64)
    for n in BOUNDARY_LENGTHS:
        for m in BOUNDARY_LENGTHS:
            a = "".join(rng.choice(ALPHABET) for _ in range(n))
            # a symbol absent from a at both ends of b, so no common prefix
            # or suffix shortens the pair below its boundary length
            b = "".join(rng.choice(ALPHABET) for _ in range(m))
            b = ("𝄞" + b[1:-1] + "𝄞")[:m]
            expected = levenshtein_full_matrix(a, b)
            assert levenshtein(a, b) == expected, (n, m)
            assert levenshtein(b, a) == expected, (m, n)
        if n:
            a = "".join(rng.choice(ALPHABET) for _ in range(n))
            b = _edits(rng, a, max(1, n // 10))
            assert levenshtein(a, b) == levenshtein_full_matrix(a, b), n


def test_line_diff_matches_lcs_oracle_on_long_repetitive_inputs():
    rng = random.Random(200)
    lines = ["{", "}", "    return x;", "", "    x += 1; // é", "    y = \"中文😀\";"]
    counts = [n for n in BOUNDARY_LENGTHS if n <= 200] + [rng.randrange(150, 201) for _ in range(4)]
    for n in counts:
        a = [rng.choice(lines) for _ in range(n)]
        edited = list(a)
        for _ in range(max(1, n // 8)):
            i = rng.randrange(len(edited) + 1)
            if i < len(edited) and rng.random() < 0.5:
                del edited[i]
            else:
                edited.insert(i, rng.choice(lines))
        others = [[rng.choice(lines) for _ in range(m)] for m in (0, 64, rng.randrange(0, 201))]
        for b in [edited] + others:
            ta, tb = "\n".join(a), "\n".join(b)
            assert line_diff(ta, tb) == lcs_line_diff(ta, tb), (n, len(b))
            assert line_diff(tb, ta) == lcs_line_diff(tb, ta), (len(b), n)


def test_strip_common_matches_the_element_loop_on_strings_and_line_lists():
    rng = random.Random(23)
    cases = [("", ""), ("", "ab"), ("ab", ""), ("abc", "abc"), ("ab", "abc"), ("bc", "abc"), ("abc", "ab"),
             ("aXa", "aYa"), ("aa", "aaa"), ("abab", "ab")]
    for _ in range(300):
        a = "".join(rng.choices("ab\n", k=rng.randrange(0, 30)))
        cut = rng.randrange(0, len(a) + 1)
        cases += [
            (a, a),
            (a, a[:cut]), (a[cut:], a),  # one a prefix or a suffix of the other
            (a, a[:cut] + rng.choice("abc") + a[cut + 1:]),  # all common but one
            (a, "".join(rng.choices("ab\n", k=rng.randrange(0, 30)))),
        ]
    for a, b in cases:
        assert _strip_common(a, b) == strip_common_reference(a, b), (a, b)
        xs, ys = a.split("\n"), b.split("\n")
        assert _strip_common(xs, ys) == strip_common_reference(xs, ys), (a, b)
    for xs, ys in [([], []), ([], ["a"]), (["a", "b"], [])]:
        assert _strip_common(xs, ys) == strip_common_reference(xs, ys) == (xs, ys)
