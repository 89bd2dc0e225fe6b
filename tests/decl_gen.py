"""A seeded generator of Java method declarations for the signature oracle.

As it writes each parameter, the generator records the erased type that the
"Signature" section of `docs/metric_ledger.md` gives it, so a declaration's
expected signature comes from the generator, not from the extractor (Yang
et al., "Finding and understanding bugs in C compilers", PLDI 2011;
McKeeman, "Differential testing for software", 1998).

`generate_unit(rng, methods)` writes one compilation unit that javac 17
compiles. The unit declares its own annotation types and its methods' type
parameters, and it names only types of java.lang and java.util, apart from
java.lang.annotation's `Target` on its one type-use annotation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

ANNOTATION_TYPES = """\
@interface Mark {}
@interface Str { String value() default ""; }
@interface Num { int value() default 0; int max() default 0; long bits() default 0; }
@interface Flag { boolean value() default false; }
@interface Ints { int[] value() default {}; String s() default ""; }
@interface Nest { Mark value(); Str[] more() default {}; }
@interface Chr { char value(); }
@java.lang.annotation.Target(java.lang.annotation.ElementType.TYPE_USE) @interface TU {}
"""

# declaration annotations a parameter can carry: per annotation type, its
# variants and the shape each one covers.  A parameter takes at most one
# variant of a type, as javac requires of a type that is not repeatable.
PARAMETER_ANNOTATIONS = {
    "Mark": [("@Mark", "annotation"), ("@Mark()", "annotation()")],
    "Str": [('@Str("a, b")', "string,"), ('@Str(value = "x<y>z")', "string<")],
    "Chr": [("@Chr(',')", "char,"), ("@Chr('<')", "char<")],
    "Ints": [("@Ints({1, 2, 3})", "array"), ('@Ints(value = {4, 5}, s = "<")', "array")],
    "Nest": [("@Nest(@Mark)", "nested"), ('@Nest(value = @Mark, more = {@Str("p, q"), @Str})', "nested")],
    "Num": [("@Num(max = Integer.MAX_VALUE >> 1)", "op>>"), ("@Num(1 << 3)", "op<<"),
            ("@Num(-1 >>> 28)", "op>>>"), ("@Num(value = 2 > 1 ? 1 : 0, bits = 1L << 40 >> 2)", "op>")],
    "Flag": [("@Flag(1 < 2)", "op<"), ("@Flag(3 > 2 && 1 < 4)", "op<"), ("@Flag(value = 8 >>> 1 > 2)", "op>>>")],
    "Deprecated": [("@java.lang.Deprecated", "qualified annotation")],
}

PRIMITIVES = ["int", "long", "boolean", "char", "byte", "short", "float", "double"]
REFERENCES = ["String", "Object", "Integer", "Number", "CharSequence", "java.lang.String"]
# generic types with their arity; `Unit.Box` and `Box` are the unit's own
GENERICS = [("List", 1), ("java.util.List", 1), ("Set", 1), ("Map", 2), ("java.util.Map", 2),
            ("Map.Entry", 2), ("java.util.Map.Entry", 2), ("Comparable", 1), ("Box", 1), ("Unit.Box", 1)]

# bounded method type parameters, over the variable {v} and an earlier one {w}
BOUNDS = ["{v} extends Number", "{v} extends Comparable<? super {v}>", "{v} extends Number & Comparable<{v}>",
          "{v} extends java.util.Map<String, java.util.List<{v}>>", "{v} extends List<{w}>"]


@dataclass
class Unit:
    source: str
    signatures: list[str]  # in source order
    shapes: Counter  # how often each shape was written


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.shapes: Counter = Counter()
        self.type_vars: list[str] = []

    def _reference(self, depth: int) -> str:
        """A reference type, as a type argument may be."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.15 and self.type_vars:
            return rng.choice(self.type_vars)
        if roll < 0.25:
            return rng.choice(["int[]", "String[]", "long[][]"])
        if roll < 0.6 or depth >= 3:
            return rng.choice(REFERENCES)
        return self._generic(depth)[0]

    def _argument(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.12:
            self.shapes["?"] += 1
            return "?"
        if roll < 0.24:
            self.shapes["? extends"] += 1
            return "? extends " + self._reference(depth)
        if roll < 0.34:
            self.shapes["? super"] += 1
            return "? super " + self._reference(depth)
        return self._reference(depth)

    def _generic(self, depth: int) -> tuple[str, str]:
        """A parameterized type's source and its erasure."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.1:  # type arguments in the middle of a qualified name
            self.shapes["G<...>.In"] += 1
            return "G<%s>.In" % self._argument(depth + 1), "G.In"
        name, arity = rng.choice(GENERICS)
        args = "<%s>" % ", ".join(self._argument(depth + 1) for _ in range(arity))
        if "." in name:
            self.shapes["qualified"] += 1
            if rng.random() < 0.2:  # a type annotation on the last name
                head, _, last = name.rpartition(".")
                self.shapes["qualified @TU"] += 1
                return "%s.@TU %s%s" % (head, last, args), name
        return name + args, name

    def _type(self) -> tuple[str, str]:
        """A parameter type without array dimensions, and its erasure."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            text = rng.choice(PRIMITIVES)
            return text, text
        if roll < 0.5:
            text = rng.choice(self.type_vars) if self.type_vars and rng.random() < 0.5 else rng.choice(REFERENCES)
            return text, text
        text, erased = self._generic(0)
        for close in (">>>", ">>", ">"):
            if close in text:
                self.shapes["close" + close] += 1
                break
        return text, erased

    def _dims(self, kind: str) -> str:
        """Zero to two dimensions, each perhaps behind a type annotation."""
        dims = ""
        for _ in range(self.rng.choice([0, 0, 1, 2])):
            if self.rng.random() < 0.25:
                self.shapes["@TU []"] += 1
                dims += " @TU []"
            else:
                dims += "[]"
            self.shapes[kind] += 1
        return dims

    def _annotations(self) -> list[str]:
        rng = self.rng
        chosen = []
        for name in rng.sample(sorted(PARAMETER_ANNOTATIONS), rng.choice([0, 0, 1, 1, 2])):
            text, shape = rng.choice(PARAMETER_ANNOTATIONS[name])
            self.shapes[shape] += 1
            chosen.append(text)
        return chosen

    def parameter(self, name: str, last: bool) -> tuple[str, str]:
        """One formal parameter's source and its erased type."""
        rng = self.rng
        text, erased = self._type()
        base = "primitive[]" if text in PRIMITIVES else "reference[]"
        dims = self._dims(base)
        erased += "[]" * dims.count("[]")
        if last and rng.random() < 0.25:
            self.shapes["varargs"] += 1
            declarator = "%s%s%s %s" % (text, dims, rng.choice(["...", " @TU ..."]), name)
            erased += "[]"
        else:
            after = self._dims("dims after name")
            declarator = "%s%s %s%s" % (text, dims, name, after)
            erased += "[]" * after.count("[]")
        modifiers = self._annotations()
        if rng.random() < 0.3:
            at = rng.randrange(len(modifiers) + 1)
            self.shapes["final" if not modifiers else "final before" if at == 0 else "final after"] += 1
            modifiers.insert(at, "final")
        return " ".join([*modifiers, declarator]), erased

    def method(self, name: str, receiver: str) -> tuple[str, str]:
        """One method declaration's source and its parameter list as the
        signature shows it; `receiver` is the type of an instance method's
        receiver parameter, which it may declare."""
        rng = self.rng
        header = []
        if rng.random() < 0.2:
            header.append(rng.choice(["@Mark", "@Num(max = 1 << 4 >> 2)", "@Deprecated"]))
        static = rng.random() < 0.3
        header += [rng.choice(["", "public", "private", "protected"]), "static" if static else "",
                   rng.choice(["", "", "final", "synchronized"])]
        self.type_vars = []
        if rng.random() < 0.35:
            names = rng.sample(["K", "V", "E", "X"], rng.choice([1, 1, 2]))
            params = []
            for j, v in enumerate(names):
                bounds = BOUNDS if j else BOUNDS[:-1]
                params.append(rng.choice(bounds).format(v=v, w=names[0]) if rng.random() < 0.8 else v)
            self.shapes["bounded type parameters"] += 1
            self.type_vars = names
            header.append("<%s>" % ", ".join(params))
        returns, body = rng.choice([("void", "{ }"), ("int", "{ return 0; }"), ("String", "{ return null; }"),
                                    ("java.util.List<String>", "{ return null; }")])
        header += [returns, name]
        count = rng.randrange(5)
        self.shapes["parameters=%d" % count] += 1
        sources, erased = [], []
        if not static and rng.random() < 0.2:
            if rng.random() < 0.5:
                self.shapes["annotated receiver"] += 1
                head, dot, last = receiver.rpartition(".")
                sources.append("%s%s@TU %s this" % (head, dot, last))
            else:
                self.shapes["receiver"] += 1
                sources.append(receiver + " this")
        for k in range(count):
            text, kept = self.parameter("p%d" % k, k == count - 1)
            sources.append(text)
            erased.append(kept)
        line = "%s(%s) %s" % (" ".join(part for part in header if part), ", ".join(sources), body)
        return line, ",".join(erased)


def generate_unit(rng: random.Random, methods: int) -> Unit:
    """A compilation unit whose class `Unit` and inner class `Unit.In` hold
    `methods` declarations, with the signature of each in source order."""
    writer = _Writer(rng)
    lines = ["import java.util.*;", "", "class Unit {", "    static class Box<X> {}", ""]
    signatures = []
    inner = rng.randrange(methods + 1)
    for k in range(methods - inner):
        line, params = writer.method("m%d" % k, "Unit")
        lines.append("    " + line)
        signatures.append("Unit#m%d(%s)" % (k, params))
    lines += ["", "    class In {"]
    for k in range(inner):
        line, params = writer.method("n%d" % k, rng.choice(["In", "Unit.In"]))
        lines.append("        " + line)
        signatures.append("Unit.In#n%d(%s)" % (k, params))
    lines += ["    }", "}", "", "class G<X> {", "    class In {}", "}", "", ANNOTATION_TYPES]
    return Unit("\n".join(lines), signatures, writer.shapes)
