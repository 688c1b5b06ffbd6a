"""Weight algebras: monoids of program weights and the modules they act on.

A weighted program multiplies the weights it meets along one computation
path (the monoid operation ``mon_mul``) and sums the contributions of
different paths (the module addition ``mod_add``).  The bridge between the
two worlds is the scalar action ``scalar_mul``: a path weight applied to a
module value.  Everything downstream (path enumeration, preweighting
transformers, invariant checking) is generic in the algebra, so each
instance below is a small bundle of total operations over an exact carrier.

Shipped instances (selected by name, e.g. ``algebra("tropical")``):

    name           weights (monoid)       module carrier              add    action
    boolean        truth values           truth values                or     and
    counting       naturals + inf         naturals + inf              +      *
    tropical       naturals + inf         naturals + inf              min    +
    arctic         naturals + inf         naturals + inf and -inf     max    +
    prob           rationals in [0,1]     rationals >= 0, + inf       +      *
    lang:AB        words over AB          finite languages            union  prepend
    omegalang:AB   words over AB          languages that may contain  union  prepend
                                          omega-words (lassos) and
                                          full cylinders w.Sigma^inf

Numbers are exact: naturals are Python ints with saturating +inf (and a
distinguished -inf bottom for the arctic module), probabilities are
`fractions.Fraction`.  Languages are frozen sets of words; omega-words are
kept as canonical lassos ``(prefix, period)`` denoting prefix.period^omega,
so set equality stays decidable.  All values are immutable and every
operation is safe to call concurrently.

The natural order ``nat_leq(u, v)`` decides "exists c with u + c = v".  It
is the ambient partial order for every fixed-point computation: boolean
implication, numeric <= (reversed for tropical, where smaller cost means
more is known), set inclusion for languages.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable

from ._record import record


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class MismatchError(AlgebraError):
    """Operands tagged with different algebra instances."""


class NoTopError(AlgebraError):
    """The instance's natural order has no greatest element."""


class EmbedError(AlgebraError):
    """Integer embedding unavailable or the integer is out of carrier range."""


# ---------------------------------------------------------------------------
# Extended naturals: int | INF | NEG_INF
# ---------------------------------------------------------------------------

class _Extreme:
    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


INF = _Extreme("inf")
NEG_INF = _Extreme("-inf")


def _xadd(a, b):
    """Saturating addition; NEG_INF absorbs (so it annihilates as a module zero)."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is INF or b is INF:
        return INF
    return a + b


def _xmul(a, b):
    """Saturating multiplication with 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0
    if a is INF or b is INF:
        return INF
    return a * b


def _xle(a, b) -> bool:
    """Numeric order with NEG_INF least and INF greatest."""
    if a is NEG_INF or b is INF:
        return True
    if a is INF:
        return b is INF
    if b is NEG_INF:
        return a is NEG_INF
    return a <= b


def _xmin(a, b):
    return a if _xle(a, b) else b


def _xmax(a, b):
    return b if _xle(a, b) else a


def format_extnat(v) -> str:
    return repr(v) if isinstance(v, _Extreme) else str(v)


# ---------------------------------------------------------------------------
# Lassos and omega-language values
# ---------------------------------------------------------------------------

def _primitive_root(word: str) -> str:
    """Shortest t with word = t^k."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[: d] * (n // d) == word:
            return word[: d]
    return word


def canonical_lasso(prefix: str, period: str) -> tuple[str, str]:
    """Canonical form of the ultimately periodic word prefix.period^omega.

    The period is contracted to its primitive root, then the prefix is
    shortened one symbol at a time (rotating the period backwards) until it
    no longer ends in the period's last symbol.  The result is the unique
    minimal-prefix primitive representation, so two lassos denote the same
    omega-word iff their canonical forms are equal.
    """
    if not period:
        raise ValueError("lasso period must be nonempty")
    period = _primitive_root(period)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = period[-1] + period[:-1]
    return prefix, period


def lasso_prefix_of(word: str, prefix: str, period: str) -> bool:
    """Is `word` a finite prefix of prefix.period^omega?"""
    if len(word) <= len(prefix):
        return prefix.startswith(word)
    if not word.startswith(prefix):
        return False
    rest = word[len(prefix):]
    reps = len(rest) // len(period) + 1
    return (period * reps).startswith(rest)


@record(frozen=True)
class OmegaValue:
    """A language of finite words, omega-words (lassos), and full cylinders.

    ``cylinders`` holds prefixes p standing for p.Sigma^inf (p followed by
    anything, finite or infinite); the empty prefix is the whole space and
    serves as the module's top.  Values are only built through
    :func:`make_omega`, which canonicalizes, so equality is set equality.
    """

    words: frozenset[str]
    lassos: frozenset[tuple[str, str]]
    cylinders: frozenset[str]


def _cyl_covers_word(cyl: str, word: str) -> bool:
    return word.startswith(cyl)


def _cyl_covers_lasso(cyl: str, lasso: tuple[str, str]) -> bool:
    return lasso_prefix_of(cyl, *lasso)


def _prefix_minimal(cylinders: Iterable[str]) -> set[str]:
    """The cylinders that extend no other one.

    In sorted order the extensions of a word follow it, so one pass keeps a
    cylinder unless it extends the last one kept.
    """
    kept: list[str] = []
    for c in sorted(set(cylinders)):
        if not kept or not c.startswith(kept[-1]):
            kept.append(c)
    return set(kept)


def make_omega(words: Iterable[str] = (), lassos: Iterable[tuple[str, str]] = (),
               cylinders: Iterable[str] = (), alphabet: str | None = None) -> OmegaValue:
    words = set(words)
    lassos = {canonical_lasso(p, q) for (p, q) in lassos}
    cyls = _prefix_minimal(cylinders)
    # Merge complete sibling families: the word u together with the cylinders
    # u.c for every alphabet letter c denote u.Sigma^inf.  Needs the true
    # alphabet; without one the merge is skipped (still a correct value, but
    # canonical equality then requires constructing through the algebra).
    if alphabet:
        changed = True
        while changed:
            changed = False
            for u in sorted(words, key=len):
                family = {u + c for c in alphabet}
                if family <= cyls:
                    cyls -= family
                    cyls.add(u)
                    words.discard(u)
                    cyls = _prefix_minimal(cyls)
                    changed = True
                    break
    words = {w for w in words if not any(_cyl_covers_word(c, w) for c in cyls)}
    lassos = {l for l in lassos if not any(_cyl_covers_lasso(c, l) for c in cyls)}
    return OmegaValue(frozenset(words), frozenset(lassos), frozenset(cyls))


def format_lasso(prefix: str, period: str) -> str:
    return f"{prefix}({period})^ω"


# ---------------------------------------------------------------------------
# Tagged values
# ---------------------------------------------------------------------------

@record(frozen=True)
class Weight:
    """Carrier element of an instance's weight monoid, tagged with the
    instance.  The walks run over raw carrier values; a tagged value is
    built only where a value enters or leaves the package."""

    algebra: "Algebra"
    value: object

    def __repr__(self) -> str:
        return f"<{self.algebra.name} weight {self.algebra.format_weight(self.value)}>"


@record(frozen=True)
class ModuleValue:
    """Carrier element of an instance's module, tagged with the instance."""

    algebra: "Algebra"
    value: object

    def __repr__(self) -> str:
        return f"<{self.algebra.name} {self.algebra.format_raw(self.value)}>"


class Algebra:
    """One named (monoid, module) pair with its order and embeddings."""

    name: str
    commutative: bool
    has_top: bool
    embeddable: bool

    # raw-carrier hooks -----------------------------------------------------
    def _check_weight(self, raw):
        raise NotImplementedError

    def _check_value(self, raw):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _one(self):
        raise NotImplementedError

    def _add(self, u, v):
        raise NotImplementedError

    def _zero(self):
        raise NotImplementedError

    def _scale(self, a, u):
        raise NotImplementedError

    def _leq(self, u, v) -> bool:
        raise NotImplementedError

    def _top(self):
        raise NoTopError(f"{self.name}: no top element")

    def _module_one(self):
        raise NotImplementedError

    def _embed(self, n: int):
        raise EmbedError(f"{self.name}: integers cannot be embedded")

    def _times(self, c, u):
        """The action extended to a sum of weights c, itself a module
        value (a coefficient of the transformer's linear forms):
        c (x) u = (+) of a (x) u over the weights a summed in c.  Where
        weights and module values share one carrier that is the action."""
        return self._scale(c, u)

    def format_raw(self, raw) -> str:
        return str(raw)

    def format_weight(self, raw) -> str:
        return self.format_raw(raw)

    # tagged interface ------------------------------------------------------
    def weight(self, raw) -> Weight:
        return Weight(self, self._check_weight(raw))

    def value(self, raw) -> ModuleValue:
        return ModuleValue(self, self._check_value(raw))

    def _need(self, x, cls):
        if not isinstance(x, cls) or (x.algebra is not self and x.algebra != self):
            raise MismatchError(f"expected a {self.name} {cls.__name__}, got {x!r}")
        return x.value

    def mon_mul(self, a: Weight, b: Weight) -> Weight:
        return Weight(self, self._mul(self._need(a, Weight), self._need(b, Weight)))

    def mon_one(self) -> Weight:
        return Weight(self, self._unit)

    @cached_property
    def _unit(self):
        # the raw unit, built once per instance: every step but a `weigh` weighs it
        return self._one()

    def mod_add(self, u: ModuleValue, v: ModuleValue) -> ModuleValue:
        return ModuleValue(self, self._add(self._need(u, ModuleValue), self._need(v, ModuleValue)))

    def mod_zero(self) -> ModuleValue:
        return ModuleValue(self, self._zero())

    def scalar_mul(self, a: Weight, u: ModuleValue) -> ModuleValue:
        return ModuleValue(self, self._scale(self._need(a, Weight), self._need(u, ModuleValue)))

    def nat_leq(self, u: ModuleValue, v: ModuleValue) -> bool:
        return self._leq(self._need(u, ModuleValue), self._need(v, ModuleValue))

    def top(self) -> ModuleValue:
        return ModuleValue(self, self._top())

    def module_one(self) -> ModuleValue:
        """The module counterpart of the monoid identity (postweighting `one`)."""
        return ModuleValue(self, self._module_one())

    def embed_weight(self, n: int) -> Weight:
        return Weight(self, self._embed(n))

    def embed_value(self, n: int) -> ModuleValue:
        return ModuleValue(self, self._embed(n))

    def format_value(self, u: ModuleValue) -> str:
        return self.format_raw(self._need(u, ModuleValue))

    def big_add(self, values) -> ModuleValue:
        """Fold mod_add over a finite iterable of module values."""
        total = self.mod_zero()
        for v in values:
            total = self.mod_add(total, v)
        return total

    def __repr__(self) -> str:
        return f"Algebra({self.name})"


# ---------------------------------------------------------------------------
# Numeric instances
# ---------------------------------------------------------------------------

def _check_extnat(raw, *, allow_neg_inf=False, who=""):
    if raw is INF or (allow_neg_inf and raw is NEG_INF):
        return raw
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise AlgebraError(f"{who}: not an extended natural: {raw!r}")
    if raw < 0:
        raise AlgebraError(f"{who}: negative value {raw} not in the carrier")
    return raw


@record(frozen=True)
class BooleanAlgebra(Algebra):
    name = "boolean"
    commutative = True
    has_top = True
    embeddable = False

    def _check_weight(self, raw):
        if isinstance(raw, bool):
            return raw
        if raw in (0, 1):
            return bool(raw)
        raise AlgebraError(f"boolean: not a truth value: {raw!r}")

    _check_value = _check_weight

    def _mul(self, a, b):
        return a and b

    def _one(self):
        return True

    def _add(self, u, v):
        return u or v

    def _zero(self):
        return False

    def _scale(self, a, u):
        return a and u

    def _leq(self, u, v):
        return (not u) or v

    def _top(self):
        return True

    _module_one = _one

    def format_raw(self, raw):
        return "true" if raw else "false"


class _ExtNatAlgebra(Algebra):
    """The instances whose weights are the extended naturals (naturals + inf)."""

    commutative = True
    has_top = True
    embeddable = True

    def _check_weight(self, raw):
        return _check_extnat(raw, who=self.name)

    _check_value = _check_weight

    def _embed(self, n):
        if n < 0:
            raise EmbedError(f"{self.name}: cannot embed negative integer {n}")
        return n

    format_raw = staticmethod(format_extnat)


@record(frozen=True)
class CountingAlgebra(_ExtNatAlgebra):
    name = "counting"

    # the kernels themselves, called with no method frame in between
    _mul = _scale = _times = staticmethod(_xmul)
    _add = staticmethod(_xadd)
    _leq = staticmethod(_xle)

    def _one(self):
        return 1

    def _zero(self):
        return 0

    def _top(self):
        return INF

    _module_one = _one


@record(frozen=True)
class TropicalAlgebra(_ExtNatAlgebra):
    """Min-plus costs: adding paths keeps the cheaper one."""

    name = "tropical"

    _mul = _scale = _times = staticmethod(_xadd)
    _add = staticmethod(_xmin)

    def _one(self):
        return 0

    def _zero(self):
        return INF

    def _leq(self, u, v):
        # u + c = v picks a minimum, so smaller numbers sit higher
        return _xle(v, u)

    def _top(self):
        return 0

    _module_one = _one


@record(frozen=True)
class ArcticAlgebra(_ExtNatAlgebra):
    """Max-plus: adding paths keeps the more expensive one; -inf is the zero."""

    name = "arctic"

    def _check_value(self, raw):
        return _check_extnat(raw, allow_neg_inf=True, who="arctic")

    _mul = _scale = _times = staticmethod(_xadd)
    _add = staticmethod(_xmax)
    _leq = staticmethod(_xle)

    def _one(self):
        return 0

    def _zero(self):
        return NEG_INF

    def _top(self):
        return INF

    _module_one = _one


@record(frozen=True)
class ProbabilityAlgebra(Algebra):
    """Probability weights in [0,1] acting on nonnegative rationals + inf."""

    name = "prob"
    commutative = True
    has_top = True
    embeddable = False

    def _check_weight(self, raw):
        if isinstance(raw, int) and not isinstance(raw, bool):
            raw = Fraction(raw)
        if not isinstance(raw, Fraction) or not (0 <= raw <= 1):
            raise AlgebraError(f"prob: weight must be a rational in [0,1]: {raw!r}")
        return raw

    def _check_value(self, raw):
        if raw is INF:
            return raw
        if isinstance(raw, int) and not isinstance(raw, bool):
            raw = Fraction(raw)
        if not isinstance(raw, Fraction) or raw < 0:
            raise AlgebraError(f"prob: module value must be a nonnegative rational: {raw!r}")
        return raw

    def _mul(self, a, b):
        return a * b

    def _one(self):
        return Fraction(1)

    def _add(self, u, v):
        if u is INF or v is INF:
            return INF
        return u + v

    def _zero(self):
        return Fraction(0)

    def _scale(self, a, u):
        if u is INF:
            return Fraction(0) if a == 0 else INF
        return a * u

    def _leq(self, u, v):
        if v is INF:
            return True
        if u is INF:
            return False
        return u <= v

    def _top(self):
        return INF

    _module_one = _one

    def format_raw(self, raw):
        return "inf" if raw is INF else str(raw)


# ---------------------------------------------------------------------------
# Word / language instances
# ---------------------------------------------------------------------------

def _check_alphabet(alphabet: str) -> str:
    if not alphabet or not alphabet.isascii() or not alphabet.isalpha():
        raise AlgebraError(f"alphabet must be nonempty ASCII letters: {alphabet!r}")
    if len(set(alphabet)) != len(alphabet):
        raise AlgebraError(f"alphabet letters must be distinct: {alphabet!r}")
    return alphabet


@record(frozen=True)
class _WordAlgebra(Algebra):
    """The instances whose weights are single words over `alphabet`; each
    subclass sets `kind`, its name's prefix."""

    alphabet: str
    commutative = False
    embeddable = False

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.alphabet}"

    def _check_word(self, raw):
        if not isinstance(raw, str) or any(c not in self.alphabet for c in raw):
            raise AlgebraError(f"{self.name}: not a word over the alphabet: {raw!r}")
        return raw

    _check_weight = _check_word

    def _mul(self, a, b):
        return a + b

    def _one(self):
        return ""

    def format_weight(self, raw):
        return raw if raw else "ε"


@record(frozen=True)
class LangAlgebra(_WordAlgebra):
    """Single words as weights acting on finite languages by prepending."""

    kind = "lang"
    has_top = False

    def _check_value(self, raw):
        if not isinstance(raw, (set, frozenset, list, tuple)):
            raise AlgebraError(f"{self.name}: not a language value: {raw!r}")
        raw = frozenset(raw)
        for w in raw:
            self._check_word(w)
        return raw

    def _add(self, u, v):
        return u | v

    def _zero(self):
        return frozenset()

    def _scale(self, a, u):
        return frozenset(a + w for w in u)

    def _times(self, c, u):
        return frozenset(a + w for a in c for w in u)

    def _leq(self, u, v):
        return u <= v

    def _module_one(self):
        return frozenset({""})

    def format_raw(self, raw):
        return "{" + ",".join(w if w else "ε" for w in sorted(raw)) + "}"


@record(frozen=True)
class OmegaLangAlgebra(_WordAlgebra):
    """Words acting on languages that may contain omega-words.

    Module values bundle finite words, lassos for ultimately periodic
    omega-words, and cylinder prefixes p (everything extending p).  The top
    is the empty-prefix cylinder.  Scalars are single words, which keeps the
    action well behaved on descending chains; whole-language concatenation
    would not be (see the algebra test suite for the counterexample).
    """

    kind = "omegalang"
    has_top = True

    def _check_value(self, raw):
        if isinstance(raw, OmegaValue):
            for w in raw.words:
                self._check_word(w)
            for p, q in raw.lassos:
                self._check_word(p)
                self._check_word(q)
            for c in raw.cylinders:
                self._check_word(c)
            return make_omega(raw.words, raw.lassos, raw.cylinders, self.alphabet)
        if isinstance(raw, (set, frozenset, list, tuple)):
            words, lassos = [], []
            for item in raw:
                if isinstance(item, tuple):
                    lassos.append(item)
                else:
                    words.append(self._check_word(item))
            for p, q in lassos:
                self._check_word(p)
                self._check_word(q)
            return make_omega(words, lassos, (), self.alphabet)
        raise AlgebraError(f"{self.name}: not a language value: {raw!r}")

    def _add(self, u, v):
        return make_omega(u.words | v.words, u.lassos | v.lassos,
                          u.cylinders | v.cylinders, self.alphabet)

    def _zero(self):
        return make_omega()

    def _scale(self, a, u):
        return make_omega((a + w for w in u.words),
                          ((a + p, q) for p, q in u.lassos),
                          (a + c for c in u.cylinders), self.alphabet)

    def _times(self, c, u):
        # c is a sum of weights: finite words only
        return make_omega((a + w for a in c.words for w in u.words),
                          ((a + p, q) for a in c.words for p, q in u.lassos),
                          (a + y for a in c.words for y in u.cylinders), self.alphabet)

    def _leq(self, u, v):
        for c in u.cylinders:
            if not any(c.startswith(d) for d in v.cylinders):
                return False
        for w in u.words:
            if w not in v.words and not any(_cyl_covers_word(d, w) for d in v.cylinders):
                return False
        for l in u.lassos:
            if l not in v.lassos and not any(_cyl_covers_lasso(d, l) for d in v.cylinders):
                return False
        return True

    def _top(self):
        return make_omega(cylinders=("",))

    def _module_one(self):
        return make_omega(words=("",))

    def format_raw(self, raw):
        parts = [w if w else "ε" for w in sorted(raw.words)]
        parts += [format_lasso(p, q) for p, q in sorted(raw.lassos)]
        parts += [(c + "Σ∞") if c else "Σ∞" for c in sorted(raw.cylinders)]
        return "{" + ",".join(parts) + "}"


# ---------------------------------------------------------------------------
# Factory and free functions
# ---------------------------------------------------------------------------

_SIMPLE = {
    "boolean": BooleanAlgebra,
    "counting": CountingAlgebra,
    "tropical": TropicalAlgebra,
    "arctic": ArcticAlgebra,
    "prob": ProbabilityAlgebra,
}


def algebra(name: str) -> Algebra:
    """Look up an algebra instance by its external name.

    Accepted names: ``boolean``, ``counting``, ``tropical``, ``arctic``,
    ``prob``, ``lang:<alphabet>``, ``omegalang:<alphabet>``.
    """
    if name in _SIMPLE:
        return _SIMPLE[name]()
    if name.startswith("lang:"):
        return LangAlgebra(_check_alphabet(name[len("lang:"):]))
    if name.startswith("omegalang:"):
        return OmegaLangAlgebra(_check_alphabet(name[len("omegalang:"):]))
    raise AlgebraError(f"unknown algebra instance {name!r}")


# the free functions: the first operand's instance checks the other's (`Algebra._need`)

def mon_mul(a: Weight, b: Weight) -> Weight:
    return a.algebra.mon_mul(a, b)


def mod_add(u: ModuleValue, v: ModuleValue) -> ModuleValue:
    return u.algebra.mod_add(u, v)


def scalar_mul(a: Weight, u: ModuleValue) -> ModuleValue:
    return a.algebra.scalar_mul(a, u)


def nat_leq(u: ModuleValue, v: ModuleValue) -> bool:
    return u.algebra.nat_leq(u, v)
