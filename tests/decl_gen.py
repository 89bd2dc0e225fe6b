"""A seeded generator of Java method declarations for the signature oracle.

As it writes each parameter, the generator records the erased type that the
"Signature" section of `docs/metric_ledger.md` gives it, so a declaration's
expected signature comes from the generator, not from the extractor (Yang
et al., "Finding and understanding bugs in C compilers", PLDI 2011;
McKeeman, "Differential testing for software", 1998).

`generate_unit(rng, methods)` writes one compilation unit that javac 17
compiles. The unit declares its own annotation types, supertypes and type
parameters, and it names only types of java.lang and java.util, apart from
java.lang.annotation's `Target` on its one type-use annotation and
java.io's `Serializable`. A method's container chain is recorded as each
type's header is written: the name after its type word, whatever type
parameters, supertypes or `permits` list follow.  A local type's chain is
that of the named type whose member declares it, and its own name.
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

# the supertypes the unit's types name: its own interfaces, which declare no
# abstract method, two of java's, and two classes
SUPERTYPES = """\
interface S0 {}
interface S1<T> {}
interface S2<A, B> {}
class Base {}
class Base2<A, B> {}
"""
INTERFACES = ["S0", "S1<String>", "S2<String, java.util.List<Integer>>", "java.io.Serializable", "Cloneable"]
SUPERCLASSES = ["Base", "Base2<Integer, String>"]
# bounded type parameters of a generic type, over the variable {v} and the
# first one {w}
TYPE_BOUNDS = ["{v} extends Number", "{v} extends Comparable<? super {v}>", "{v} extends S2<String, {w}> & S0"]
RECORD_COMPONENTS = ["", "int c0", "int c0, String c1", "java.util.Map<String, Integer> c0, long... c1"]
# distinct exception types a throws clause names, some behind a type annotation
THROWN = ["RuntimeException", "@TU IllegalStateException", "java.lang.@TU Error", "IllegalArgumentException",
          "java.lang.@TU UnsupportedOperationException"]
# the kinds of type `generate_unit` nests in `Unit`, in turn
KINDS = ["class", "interface", "enum", "record", "sealed interface", "@interface"]

# the headers of a local type that declares one method, over its name {n},
# with the shape each one covers
LOCAL_TYPES = [("class {n}", "local class"), ("final class {n}", "local final class"),
               ("@Deprecated class {n}", "local annotated class"), ("@Mark final class {n}", "local annotated class"),
               ("record {n}(int v)", "local record")]
# what declares a local type, with the lines before it, over the holding
# method's name {m} and the local type's name {n}, and the lines after it
LOCAL_HOLDERS = {
    "local type in a method": (["void {m}() {{"], ["}"]),
    "local type in an anonymous class initializer": (
        ["Runnable f{n} = new Runnable() {{", "    public void run() {{"], ["    }", "};"]),
    "local type in a lambda initializer": (["Runnable f{n} = () -> {{"], ["};"]),
}

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
        self.locals = 0  # local types written

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

    def method(self, name: str, receiver: str, interface: bool = False) -> tuple[str, str]:
        """One method declaration's source and its parameter list as the
        signature shows it; `receiver` is the type of an instance method's
        receiver parameter, which it may declare.  In an interface the
        method is default, static or private."""
        rng = self.rng
        header = []
        if rng.random() < 0.2:
            header.append(rng.choice(["@Mark", "@Num(max = 1 << 4 >> 2)", "@Deprecated"]))
        if interface:
            modifiers = rng.choice(["default", "public default", "static", "public static", "private",
                                    "private static"])
            self.shapes["interface " + modifiers.split()[-1]] += 1
            static = modifiers.endswith("static")
            header.append(modifiers)
        else:
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
        dims = ""
        if returns != "void" and rng.random() < 0.15:  # result dimensions after the parameter list
            dims = rng.choice(["[]", "[][]", " @TU []"])
            self.shapes["@TU result []" if "@" in dims else "result []"] += 1
            body = "{ return null; }"
        throws = ""
        if rng.random() < 0.15:
            thrown = rng.sample(THROWN, rng.randrange(1, 4))
            self.shapes["throws @TU" if any("@" in t for t in thrown) else "throws"] += 1
            throws = " throws " + ", ".join(thrown)
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
        line = "%s(%s)%s%s %s" % (" ".join(part for part in header if part), ", ".join(sources), dims, throws, body)
        return line, ",".join(erased)

    def members(self, lines: list[str], signatures: list[str], indent: str, chain: str, count: int,
                receivers: list[str], interface: bool = False) -> None:
        """`count` methods of the type `chain`, one a line, each with its
        signature."""
        for _ in range(count):
            name = "t%d" % len(signatures)
            line, params = self.method(name, self.rng.choice(receivers), interface)
            lines.append(indent + line)
            signatures.append("%s#%s(%s)" % (chain, name, params))

    def local_types(self, lines: list[str], signatures: list[str], indent: str, chain: str, count: int) -> None:
        """`count` local types in members of the type `chain`, each with one
        method, whose chain is `chain` and the local type's name.  Every
        local type has a name of its own, since two local types of one name
        in one type give their methods one signature."""
        rng = self.rng
        kinds = [(holder, local) for holder in LOCAL_HOLDERS for local in LOCAL_TYPES]
        rng.shuffle(kinds)
        for holder, (header, shape) in kinds[:count]:
            name = "L%d" % self.locals
            self.locals += 1
            self.shapes[holder] += 1
            self.shapes[shape] += 1
            before, after = LOCAL_HOLDERS[holder]
            method = "t%d" % len(signatures)
            if holder == "local type in a method":
                signatures.append("%s#%s()" % (chain, method))
            inner = indent + " " * 4 * len(before)
            lines += [indent + line.format(m=method, n=name) for line in before]
            lines.append(inner + header.format(n=name) + " {")
            self.members(lines, signatures, inner + " " * 4, chain + "." + name, 1, [name])
            lines.append(inner + "}")
            lines += [indent + line for line in after]

    def _split(self, total: int, parts: int) -> list[int]:
        cuts = sorted(self.rng.randrange(total + 1) for _ in range(parts - 1))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    def _type_parameters(self) -> tuple[str, str]:
        """Perhaps a generic type's parameter list, and its arguments as a
        receiver names the type."""
        rng = self.rng
        if rng.random() < 0.5:
            return "", ""
        names = ["P", "Q", "R"][:rng.randrange(1, 4)]
        self.shapes["type parameters"] += 1
        params = [rng.choice(TYPE_BOUNDS).format(v=v, w=names[0]) if rng.random() < 0.7 else v for v in names]
        return "<%s>" % ", ".join(params), "<%s>" % ", ".join(names)

    def _interfaces(self, word: str, count: int) -> str:
        return " %s %s" % (word, ", ".join(self.rng.sample(INTERFACES, count))) if count else ""

    def type_decl(self, lines: list[str], signatures: list[str], kind: str, name: str, methods: int) -> None:
        """A type of `kind` named `name`, nested in `Unit`, with `methods`
        declarations in its body, in the class nested in it and, for a
        sealed interface, in its permitted classes."""
        rng = self.rng
        supers = 0 if kind == "@interface" else rng.randrange(4)
        self.shapes["supertypes=%d" % supers] += 1
        params, args = ("", "") if kind in ("enum", "sealed interface", "@interface") else self._type_parameters()
        first = []  # the body's lines before its methods
        permitted = []
        if kind == "class":
            header = "static class " + name + params
            if supers and rng.random() < 0.6:
                self.shapes["class extends"] += 1
                if supers > 1:
                    self.shapes["class extends implements"] += 1
                header += " extends " + rng.choice(SUPERCLASSES)
                supers -= 1
            header += self._interfaces("implements", supers)
            if rng.random() < 0.3:
                self.shapes["constructor"] += 1
                first.append("%s() { }" % name)
        elif kind == "interface":
            header = "interface %s%s%s" % (name, params, self._interfaces("extends", supers))
        elif kind == "enum":
            header = "enum %s%s" % (name, self._interfaces("implements", supers))
            constants = rng.sample(["A", "B", "C"], rng.randrange(1, 4))
            if rng.random() < 0.4:  # a constant's body is an anonymous class: its method is no method
                self.shapes["enum constant body"] += 1
                constants[-1] += " { int inConstant() { return 1; } }"
            first.append(", ".join(constants) + ";")
        elif kind == "record":
            header = "record %s%s(%s)%s" % (name, params, rng.choice(RECORD_COMPONENTS),
                                            self._interfaces("implements", supers))
            if rng.random() < 0.3:
                self.shapes["compact constructor"] += 1
                first.append("%s { }" % name)
        elif kind == "sealed interface":
            permitted = [name + suffix for suffix in "abc"[:rng.randrange(1, 4)]]
            self.shapes["permits=%d" % len(permitted)] += 1
            header = "sealed interface %s%s permits %s" % (name, self._interfaces("extends", supers),
                                                           ", ".join(permitted))
        else:
            header = "@interface " + name
            first.append("int v() default 0;")
        if supers:
            self.shapes["%s with supertypes" % kind] += 1
        chain = "Unit." + name
        receivers = [name + args, chain + args]
        interface = "interface" in kind
        before, inside, after, *subs = self._split(methods, 3 + len(permitted))
        if kind == "@interface":  # its methods have no body: all go to the nested class
            before, inside, after = 0, methods, 0
        lines.append("    %s {" % header)
        lines += ["        " + line for line in first]
        self.members(lines, signatures, " " * 8, chain, before, receivers, interface)
        if inside or kind == "@interface" or rng.random() < 0.5:
            self.shapes["class in " + kind] += 1
            nest = name + "N"
            lines.append("        static class %s%s {" % (nest, self._interfaces("implements", rng.randrange(3))))
            self.members(lines, signatures, " " * 12, chain + "." + nest, inside, [nest, chain + "." + nest])
            lines.append("        }")
        self.members(lines, signatures, " " * 8, chain, after, receivers, interface)
        lines.append("    }")
        for sub, count in zip(permitted, subs):
            modifier = rng.choice(["final", "non-sealed"])
            self.shapes[modifier + " permitted class"] += 1
            lines.append("    static %s class %s implements %s%s {" % (modifier, sub, name,
                                                                   ", S0" if rng.random() < 0.5 else ""))
            self.members(lines, signatures, " " * 8, "Unit." + sub, count, [sub, "Unit." + sub])
            lines.append("    }")


def generate_unit(rng: random.Random, methods: int) -> Unit:
    """A compilation unit that holds `methods` declarations, with the
    signature of each in source order: in its class `Unit`, in `Unit`'s
    inner class `In`, and in types nested in `Unit` of each kind in `KINDS`
    in turn, most with a class nested in them.  Members of `In` and of
    `Unit` declare local types, each with one method, beyond `methods`."""
    writer = _Writer(rng)
    lines = ["import java.util.*;", "", "class Unit {", "    static class Box<X> {}", ""]
    signatures: list[str] = []
    typed = rng.randrange(methods // 4, methods // 2 + 1)
    writer.members(lines, signatures, " " * 4, "Unit", rng.randrange(methods - typed + 1), ["Unit"])
    lines += ["", "    class In {"]
    writer.members(lines, signatures, " " * 8, "Unit.In", methods - typed - len(signatures), ["In", "Unit.In"])
    writer.local_types(lines, signatures, " " * 8, "Unit.In", rng.randrange(len(LOCAL_HOLDERS) * len(LOCAL_TYPES)))
    lines += ["    }", ""]
    k = 0
    while typed:
        count = min(typed, rng.randrange(1, 10))
        writer.type_decl(lines, signatures, KINDS[k % len(KINDS)], "T%d" % k, count)
        typed -= count
        k += 1
    writer.local_types(lines, signatures, " " * 4, "Unit", len(LOCAL_HOLDERS) * len(LOCAL_TYPES))
    lines += ["}", "", "class G<X> {", "    class In {}", "}", "", ANNOTATION_TYPES, SUPERTYPES]
    return Unit("\n".join(lines), signatures, writer.shapes)
