"""Threshold-aware matching against what it must not change: the bounded
`levenshtein` against the full-matrix distance, the bag bound below it,
`match_method` against the unpruned `oracles.match_method_reference` on
seeded candidates whose similarity straddles theta, and the boundary cases
of the bound (two empty blocks, a similarity of exactly theta)."""

import random
from collections import Counter

import pytest

from methodlens.history import (SMALL_METHOD_CHARS, MatchCounts, _bag_distance, _max_distance, body_similarity,
                                levenshtein, match_method)
from methodlens.java_extract import MethodDeclaration, signature
from oracles import levenshtein_full_matrix, match_method_reference

THETAS = (0.5, 0.75, 0.9, 1.0)
ALPHABET = "abcxyz{}();=+ \n" + "é𝄞"  # "𝄞" lies outside the BMP


def decl(name, body, start=1, params=(), block=True):
    """A declaration whose body block is `body`; with block=False it has
    no body brace, as an abstract method, and extraction's block is unset."""
    header = f"int {name}({', '.join(f'{p} p{i}' for i, p in enumerate(params))})"
    return MethodDeclaration(
        name=name, parameterTypes=list(params), modifiers=set(), annotations=[],
        bodyText=f"{header} {body}" if block else f"abstract {header};",
        startLine=start, endLine=start, containerChain=["A"],
        bodyBlock=body if block else None,
    )


def edited(rng, text, edits):
    """`text` after `edits` random insertions, deletions and substitutions."""
    chars = list(text)
    for _ in range(edits):
        op = rng.randrange(3)
        i = rng.randrange(len(chars) + 1)
        if op == 0 or not chars:
            chars.insert(i, rng.choice(ALPHABET))
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(ALPHABET)
    return "".join(chars)


def random_body(rng, size):
    statements = [f"  int v{i} = w{rng.randrange(9)} + {rng.randrange(100)};\n" for i in range(size)]
    return "{\n" + "".join(statements) + "  return v0;\n}"


def test_bounded_levenshtein_is_exact_up_to_k_and_above_k_beyond():
    rng = random.Random(20261019)
    pairs = [("", ""), ("", "a"), ("𝄞", ""), ("𝄞é", "é𝄞"), ("kitten", "sitting")]
    for _ in range(300):
        a = "".join(rng.choices(ALPHABET, k=rng.randrange(0, 14)))
        pairs.append((a, edited(rng, a, rng.randrange(0, 8))))
    for _ in range(20):  # a long common prefix or suffix around a short difference
        common = "".join(rng.choices(ALPHABET, k=rng.randrange(40, 80)))
        a = "".join(rng.choices(ALPHABET, k=rng.randrange(0, 6)))
        b = edited(rng, a, rng.randrange(1, 5))
        pairs += [(common + a, common + b), (a + common, b + common), (common + a + common, common + b + common)]
    beyond = 0
    for a, b in pairs:
        d = levenshtein_full_matrix(a, b)
        assert levenshtein(a, b) == d, (a, b)
        longer = max(len(a), len(b))
        for k in [*range(0, min(d + 3, longer + 1)), longer, longer + 7]:
            got = levenshtein(a, b, k)
            if d <= k:
                assert got == d, (a, b, k)
            else:
                assert got > k, (a, b, k, got)
                beyond += 1
        bag_a, bag_b = Counter(a), Counter(b)
        bag = _bag_distance(bag_a, bag_b)
        assert bag == _bag_distance(bag_b, bag_a) <= d, (a, b)
        assert 2 * bag == sum(abs(bag_a[c] - bag_b[c]) for c in bag_a | bag_b) + abs(len(a) - len(b))
    assert beyond > 500


def test_max_distance_is_the_largest_that_reaches_theta_by_the_score_expression():
    thetas = [0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0, 0.1, 0.3, 0.6, 1 / 3, 2 / 3]
    for longest in range(1, 400):
        for theta in thetas:
            want = max(d for d in range(-1, longest + 1) if d < 0 or 1.0 - d / longest >= theta)
            assert _max_distance(longest, theta) == want, (longest, theta)


def test_pruned_matching_picks_what_the_unpruned_matcher_picks():
    rng = random.Random(7)
    counts = MatchCounts()
    outcomes = Counter()
    two_exact = 0
    for case in range(400):
        small = case % 5 == 0
        base = random_body(rng, 1 if small else rng.randrange(2, 7))
        target = decl("target", edited(rng, base, rng.randrange(0, 3)), start=0, params=["int"])
        if small:
            assert len(target.bodyText) < SMALL_METHOD_CHARS
        candidates = []
        for j in range(rng.randrange(1, 8)):
            name = "target" if rng.random() < 0.4 else f"m{j}"
            # a same-name candidate with the target's parameters is the
            # exact-signature case
            params = ["int"] if name == "target" and rng.random() < 0.1 else ["long"] * rng.randrange(3)
            start = rng.randrange(1, 40)
            kind = rng.random()
            if kind < 0.08:
                candidates.append(decl(name, "", start=start, params=params, block=False))
            elif kind < 0.16 and candidates:
                # the same body as an earlier candidate at another start line
                candidates.append(decl(name, candidates[-1].bodyBlock or "{}", start=start, params=params))
            else:
                body = edited(rng, base, rng.randrange(0, max(1, len(base) * 3 // 5)))
                candidates.append(decl(name, body, start=start, params=params))
        # cases in which the exact match is the earliest of several by start line
        two_exact += len({c.startLine for c in candidates if signature(c) == signature(target)}) > 1
        for theta in THETAS:
            want = match_method_reference(candidates, target, theta)
            got = match_method(candidates, target, theta, counts)
            assert got is want, (case, theta)
            outcomes["matched" if want is not None else "none"] += 1
    assert min(outcomes.values()) > 300, outcomes
    assert two_exact > 0, two_exact
    assert counts.ruled_out > 1000 and counts.cut_off > 100, counts
    assert counts.considered > counts.ruled_out + counts.cut_off


def test_two_empty_body_blocks_score_one():
    a, b = decl("a", ""), decl("a", "", params=["int"])
    assert body_similarity(a, b) == body_similarity(a, b, 0.75) == 1.0
    counts = MatchCounts()
    assert match_method([b], a, 0.75, counts) is b
    assert counts == MatchCounts(considered=1, ruled_out=0, cut_off=0)


# "abdc" has the target's characters, so only the cutoff rules it out
@pytest.mark.parametrize("candidate, matches", [("abce", True), ("abdc", False)])
def test_a_similarity_of_exactly_theta_matches(candidate, matches):
    target, other = decl("m", "abcd"), decl("m", candidate, params=["int"])
    assert _max_distance(4, 0.75) == 1
    if matches:  # one substitution over four characters: 1 - 1/4 == 0.75
        assert body_similarity(other, target, 0.75) == 0.75
    else:
        assert body_similarity(other, target, 0.75) < 0.75
    counts = MatchCounts()
    assert (match_method([other], target, 0.75, counts) is other) == matches
    assert counts == MatchCounts(considered=1, ruled_out=0, cut_off=0 if matches else 1)
