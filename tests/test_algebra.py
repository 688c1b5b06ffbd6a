"""Algebra laws, order properties, and the language-value machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgcl.algebra import (
    INF, NEG_INF, AlgebraError, MismatchError, NoTopError, OmegaValue,
    algebra, canonical_lasso, lasso_prefix_of, make_omega, mod_add, mon_mul,
    nat_leq, scalar_mul,
)

from genprog import rand_module_value, rand_weight

ALL_INSTANCES = ["boolean", "counting", "tropical", "arctic", "prob",
                 "lang:ab", "omegalang:ab"]
COMMUTATIVE = {"boolean", "counting", "tropical", "arctic", "prob"}


@pytest.fixture(params=ALL_INSTANCES)
def alg(request):
    return algebra(request.param)


# ---------------------------------------------------------------------------
# Spec'd operation examples
# ---------------------------------------------------------------------------

def test_mon_mul_examples():
    trop = algebra("tropical")
    assert mon_mul(trop.weight(1), trop.weight(1)) == trop.weight(2)
    lang = algebra("lang:ab")
    assert mon_mul(lang.weight("ab"), lang.weight("ba")) == lang.weight("abba")


def test_mod_add_examples():
    trop = algebra("tropical")
    assert mod_add(trop.value(2), trop.value(3)) == trop.value(2)
    ol = algebra("omegalang:ab")
    got = mod_add(ol.value({"a"}), ol.value({("", "b")}))
    assert got == ol.value({"a", ("", "b")})


def test_scalar_mul_examples():
    ol = algebra("omegalang:ab")
    # oracle: expand prefix.period^omega far enough to compare the words
    def expand(prefix, period, n=32):
        return (prefix + period * n)[:n]
    assert expand("b", "b") == expand("", "b")
    assert scalar_mul(ol.weight("b"), ol.value({("", "b")})) == ol.value({("", "b")})
    cnt = algebra("counting")
    assert scalar_mul(cnt.weight(2), cnt.value(3)) == cnt.value(6)


def test_scalar_mul_annihilates(alg):
    rng = random.Random(7)
    for _ in range(20):
        a = rand_weight(rng, alg)
        assert alg.scalar_mul(a, alg.mod_zero()) == alg.mod_zero()


def test_mon_one_identity(alg):
    rng = random.Random(11)
    for _ in range(20):
        a = rand_weight(rng, alg)
        assert alg.mon_mul(a, alg.mon_one()) == a
        assert alg.mon_mul(alg.mon_one(), a) == a


def test_nat_leq_examples():
    trop = algebra("tropical")
    assert trop.nat_leq(trop.value(5), trop.value(2))
    assert not trop.nat_leq(trop.value(2), trop.value(5))
    lang = algebra("lang:ab")
    assert lang.nat_leq(lang.value({"a"}), lang.value({"a", "b"}))


def test_zero_is_least(alg):
    rng = random.Random(13)
    for _ in range(50):
        u = rand_module_value(rng, alg)
        assert alg.nat_leq(alg.mod_zero(), u)


def test_top_examples():
    assert algebra("tropical").top().value == 0
    assert algebra("counting").top().value is INF
    assert algebra("boolean").top().value is True
    assert algebra("arctic").top().value is INF
    with pytest.raises(NoTopError):
        algebra("lang:ab").top()


def test_top_is_greatest():
    rng = random.Random(17)
    for name in ALL_INSTANCES:
        alg = algebra(name)
        if not alg.has_top:
            continue
        top = alg.top()
        for _ in range(50):
            u = rand_module_value(rng, alg)
            assert alg.nat_leq(u, top)


def test_instance_mismatch_raises():
    trop, cnt = algebra("tropical"), algebra("counting")
    with pytest.raises(MismatchError):
        mon_mul(trop.weight(1), cnt.weight(1))
    with pytest.raises(MismatchError):
        mod_add(trop.value(1), cnt.value(1))
    with pytest.raises(MismatchError):
        scalar_mul(trop.weight(1), cnt.value(1))
    with pytest.raises(MismatchError):
        nat_leq(trop.value(1), cnt.value(1))


def test_big_add_examples():
    trop = algebra("tropical")
    value = trop.big_add([trop.value(5), trop.value(3), trop.value(7)])
    assert value == trop.value(3)
    cnt = algebra("counting")
    value = cnt.big_add([])
    assert value == cnt.value(0)


# ---------------------------------------------------------------------------
# Law suite: 1000 random triples per instance
# ---------------------------------------------------------------------------

def test_module_monoid_laws(alg):
    rng = random.Random(hash(alg.name) & 0xFFFF)
    one = alg.mon_one()
    zero = alg.mod_zero()
    for _ in range(1000):
        a, b, c = (rand_weight(rng, alg) for _ in range(3))
        u, v, w = (rand_module_value(rng, alg) for _ in range(3))
        # monoid
        assert alg.mon_mul(a, alg.mon_mul(b, c)) == alg.mon_mul(alg.mon_mul(a, b), c)
        assert alg.mon_mul(a, one) == a == alg.mon_mul(one, a)
        # commutative monoid of the module
        assert alg.mod_add(u, v) == alg.mod_add(v, u)
        assert alg.mod_add(u, alg.mod_add(v, w)) == alg.mod_add(alg.mod_add(u, v), w)
        assert alg.mod_add(u, zero) == u
        # action laws
        assert alg.scalar_mul(alg.mon_mul(a, b), u) == alg.scalar_mul(a, alg.scalar_mul(b, u))
        assert alg.scalar_mul(a, alg.mod_add(u, v)) == \
            alg.mod_add(alg.scalar_mul(a, u), alg.scalar_mul(a, v))
        assert alg.scalar_mul(one, u) == u
        assert alg.scalar_mul(a, zero) == zero
        if alg.commutative:
            assert alg.mon_mul(a, b) == alg.mon_mul(b, a)


def test_commutative_flags():
    for name in ALL_INSTANCES:
        assert algebra(name).commutative == (name in COMMUTATIVE)


def test_natural_order_is_partial_order(alg):
    rng = random.Random(hash(alg.name) & 0xFFF)
    for _ in range(300):
        u, v, w = (rand_module_value(rng, alg) for _ in range(3))
        assert alg.nat_leq(u, u)
        if alg.nat_leq(u, v) and alg.nat_leq(v, u):
            assert u == v
        if alg.nat_leq(u, v) and alg.nat_leq(v, w):
            assert alg.nat_leq(u, w)


def test_add_and_action_are_monotone(alg):
    rng = random.Random(hash(alg.name) & 0xFF)
    for _ in range(300):
        u, v, w = (rand_module_value(rng, alg) for _ in range(3))
        a = rand_weight(rng, alg)
        if alg.nat_leq(u, v):
            assert alg.nat_leq(alg.mod_add(w, u), alg.mod_add(w, v))
            assert alg.nat_leq(alg.scalar_mul(a, u), alg.scalar_mul(a, v))


def test_natural_order_witness(alg):
    # u <= u (+) c by construction, for arbitrary c
    rng = random.Random(23)
    for _ in range(100):
        u = rand_module_value(rng, alg)
        c = rand_module_value(rng, alg)
        assert alg.nat_leq(u, alg.mod_add(u, c))


# ---------------------------------------------------------------------------
# Carrier invariants
# ---------------------------------------------------------------------------

def test_probability_weight_range():
    prob = algebra("prob")
    prob.weight(Fraction(1, 3))
    with pytest.raises(AlgebraError):
        prob.weight(Fraction(4, 3))
    with pytest.raises(AlgebraError):
        prob.value(Fraction(-1, 2))


def test_word_alphabet_checked():
    lang = algebra("lang:ab")
    with pytest.raises(AlgebraError):
        lang.weight("abc")
    with pytest.raises(AlgebraError):
        lang.value({"xy"})
    with pytest.raises(AlgebraError):
        algebra("lang:aa")
    with pytest.raises(AlgebraError):
        algebra("lang:a,b")


def test_embed():
    for name in ("counting", "tropical", "arctic"):
        alg = algebra(name)
        assert alg.embed_value(3).value == 3
        with pytest.raises(AlgebraError):
            alg.embed_value(-1)
    for name in ("boolean", "prob", "lang:ab"):
        with pytest.raises(AlgebraError):
            algebra(name).embed_value(1)


def test_arctic_bottom_absorbs():
    arc = algebra("arctic")
    assert arc.scalar_mul(arc.weight(INF), arc.value(NEG_INF)) == arc.value(NEG_INF)
    assert arc.mod_add(arc.value(NEG_INF), arc.value(5)) == arc.value(5)
    assert arc.nat_leq(arc.value(NEG_INF), arc.value(0))


# ---------------------------------------------------------------------------
# Lassos and omega-language values
# ---------------------------------------------------------------------------

WORDS = st.text(alphabet="ab", max_size=6)
PERIODS = st.text(alphabet="ab", min_size=1, max_size=4)


def _expand(prefix, period, n=64):
    return (prefix + period * (n // len(period) + 1))[:n]


@given(WORDS, PERIODS)
def test_canonical_lasso_preserves_the_word(prefix, period):
    p2, q2 = canonical_lasso(prefix, period)
    assert q2
    assert _expand(prefix, period) == _expand(p2, q2)


@given(WORDS, PERIODS, st.integers(min_value=1, max_value=3), WORDS)
def test_canonical_lasso_identifies_equal_words(prefix, period, reps, extra):
    # pumping the period or absorbing whole periods into the prefix
    # does not change the denoted word, so the canonical forms agree
    assert canonical_lasso(prefix, period * reps) == canonical_lasso(prefix, period)
    assert canonical_lasso(prefix + period, period) == canonical_lasso(prefix, period)


@given(WORDS, PERIODS)
def test_canonical_lasso_period_nonempty_and_minimal(prefix, period):
    p2, q2 = canonical_lasso(prefix, period)
    assert not p2.endswith(q2)
    assert not p2 or p2[-1] != q2[-1]


def test_lasso_rejects_empty_period():
    with pytest.raises(ValueError):
        canonical_lasso("a", "")


@given(WORDS, WORDS, PERIODS)
def test_lasso_prefix_of(word, prefix, period):
    assert lasso_prefix_of(word, prefix, period) == \
        (_expand(prefix, period, max(len(word), 1) + len(prefix) + len(period)).startswith(word))


def test_omega_value_canonicalization():
    ol = algebra("omegalang:ab")
    # cylinders subsume their extensions, words, and lassos
    v = ol.value(make_omega(words=["ab", "b"], lassos=[("ab", "a")], cylinders=["a", "ab"]))
    assert v.value == make_omega(words=["b"], cylinders=["a"], alphabet="ab")
    # a word plus all its one-letter cylinder extensions is a cylinder
    w = ol.value(make_omega(words=["a"], cylinders=["aa", "ab"]))
    assert w.value == make_omega(cylinders=["a"])
    assert ol.top() == ol.value(make_omega(words=[""], cylinders=["a", "b"]))


@given(st.lists(st.text("abc", max_size=4), max_size=12))
def test_make_omega_keeps_the_prefix_minimal_cylinders(cylinders):
    # the pairwise definition; make_omega finds the same set in one sorted pass
    pairwise = {c for c in cylinders
                if not any(c != d and c.startswith(d) for d in cylinders)}
    assert make_omega(cylinders=cylinders).cylinders == pairwise


def test_omega_inclusion():
    ol = algebra("omegalang:ab")
    full = ol.top()
    some = ol.value({"a", ("b", "ab")})
    assert ol.nat_leq(some, full)
    assert not ol.nat_leq(full, some)
    assert ol.nat_leq(ol.value({("", "ab")}), ol.value(make_omega(cylinders=["a"])))


# ---------------------------------------------------------------------------
# Why scalars are single words: the naive language product is not
# meet-continuous on descending chains
# ---------------------------------------------------------------------------

def naive_concat(l1, l2):
    """Whole-language product on mixed languages (finite, omega) as sets.

    Omega-words are kept as canonical lassos so that set equality means
    language equality.
    """
    k1, m1 = l1
    if not (l2[0] or l2[1]):
        return (frozenset(), frozenset())
    finite = frozenset(u + w for u in k1 for w in l2[0])
    omega = frozenset(m1) | frozenset(
        canonical_lasso(u + p, q) for u in k1 for (p, q) in l2[1])
    return (finite, omega)


def test_naive_product_breaks_descending_meets():
    # L_n = all words of >= n a's.  Its chain meet is empty: every word
    # a^k drops out at stage n = k+1.  Checked for every word up to the
    # truncation depth, which covers all members of the truncated sets.
    depth = 10
    a_omega = (frozenset(), frozenset({("", "a")}))

    def member(word, n):
        return len(word) >= n

    meet_words = frozenset(
        "a" * k for k in range(depth + 1)
        if all(member("a" * k, n) for n in range(depth + 2)))
    assert meet_words == frozenset()
    lhs = naive_concat((meet_words, frozenset()), a_omega)

    # on the other side every L_n is nonempty, so L_n . {a^omega} is
    # constantly {a^omega} and so is the meet of the products
    products = []
    for n in range(depth + 1):
        l_n = frozenset("a" * k for k in range(n, depth + 1))
        assert l_n
        products.append(naive_concat((l_n, frozenset()), a_omega))
    rhs = products[0]
    for p in products[1:]:
        rhs = (rhs[0] & p[0], rhs[1] & p[1])

    assert rhs == (frozenset(), frozenset({("", "a")}))
    assert lhs == (frozenset(), frozenset())
    assert lhs != rhs


# ---------------------------------------------------------------------------
# Tagged values
# ---------------------------------------------------------------------------

def test_tagged_values_compare_by_class_algebra_and_value():
    counting, tropical = algebra("counting"), algebra("tropical")
    lang = algebra("lang:ab")
    assert counting.value(3) == algebra("counting").value(3)
    assert counting.weight(2) == algebra("counting").weight(2)
    assert lang.value({"a"}) == algebra("lang:ab").value({"a"})
    # a different algebra, a different value, or the other class: unequal
    assert counting.value(3) != tropical.value(3)
    assert counting.weight(3) != tropical.weight(3)
    assert counting.value(3) != counting.value(4)
    assert lang.value({"a"}) != algebra("lang:b").value({"b"})
    assert counting.weight(3) != counting.value(3)
    assert counting.value(3) != counting.weight(3)
    assert not counting.weight(3) == counting.value(3)
    assert counting.value(3) != (counting, 3) and counting.value(3) != 3
    # equal values hash equally, so they key one table entry
    assert hash(counting.value(3)) == hash(algebra("counting").value(3))
    assert hash(counting.weight(INF)) == hash(algebra("counting").weight(INF))
    assert len({counting.value(3), algebra("counting").value(3), counting.weight(3)}) == 2


def test_tagged_values_are_immutable_and_print_their_instance():
    counting = algebra("counting")
    for tagged in (counting.value(3), counting.weight(2)):
        for field in ("algebra", "value"):
            with pytest.raises(AttributeError):
                setattr(tagged, field, 1)
        with pytest.raises(AttributeError):
            tagged.other = 1
    assert repr(counting.value(3)) == "<counting 3>"
    assert repr(counting.weight(2)) == "<counting weight 2>"
    assert repr(algebra("lang:ab").value({"b", ""})) == "<lang:ab {ε,b}>"
