"""The record classes: the ASTs, the algebra instances and the results.

Equality, hashing, `repr`, immutability, construction and pickling, as
programs and callers see them.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import wgcl
from wgcl.algebra import algebra
from wgcl.operational import UctResult
from wgcl.parser import parse_program, parse_weighting
from wgcl.syntax import (
    ABin, AInt, AVar, Assign, BAnd, BBool, BCmp, BOr, TOne, TZero, Weigh, While, WLit,
)
from wgcl.transformer import TransformResult

TEXT = ("@instance tropical\n"
        "while (x > 0) { { x := x - 1 } [] { weigh 2; x := max(x, 0) } }; "
        "if (not (x = 0) and true) { skip } else { weigh 1 }")
# the repr a standard-library data class prints
TEXT_REPR = (
    "ParsedProgram(algebra=TropicalAlgebra(), program=Seq(first=While(guard=BCmp(op='>', "
    "left=AVar(name='x'), right=AInt(value=0)), body=Branch(left=Assign(var='x', "
    "expr=ABin(op='-', left=AVar(name='x'), right=AInt(value=1))), right=Seq(first=Weigh("
    "weight=WLit(raw=2)), second=Assign(var='x', expr=ACall(fn='max', args=(AVar(name='x'), "
    "AInt(value=0))))))), second=Ite(guard=BAnd(left=BNot(arg=BCmp(op='=', left=AVar(name='x'), "
    "right=AInt(value=0))), right=BBool(value=True)), then=Weigh(weight=WLit(raw=0)), "
    "orelse=Weigh(weight=WLit(raw=1)))))")


def test_equality_depends_on_the_class():
    guard = BCmp(">", AVar("x"), AInt(0))
    assert BAnd(guard, BBool(True)) == BAnd(guard, BBool(True))
    assert BAnd(guard, BBool(True)) != BOr(guard, BBool(True))
    assert not BAnd(guard, BBool(True)) == BOr(guard, BBool(True))
    assert TZero() == TZero() and TZero() != TOne()
    assert AInt(1) != (1,) and AInt(1) != 1
    assert algebra("counting") == algebra("counting") != algebra("tropical")
    assert algebra("lang:ab") != algebra("omegalang:ab")
    assert algebra("lang:ab") != algebra("lang:ba")


def test_two_parses_of_one_text_are_equal_and_hash_equal():
    first, second = parse_program(TEXT), parse_program(TEXT)
    assert first is not second and first == second and hash(first) == hash(second)
    assert first.program == second.program and hash(first.program) == hash(second.program)
    assert len({first.program, second.program}) == 1
    other = parse_program(TEXT.replace("weigh 2", "weigh 3"))
    assert other.program != first.program
    # lowering caches on the object, and changes neither its equality nor its hash
    wgcl.compile_program(first.program)
    assert first == second and hash(first.program) == hash(second.program)


def test_repr_is_pinned():
    assert repr(parse_program(TEXT)) == TEXT_REPR
    assert repr(parse_program("@instance omegalang:ab\nweigh a")) == (
        "ParsedProgram(algebra=OmegaLangAlgebra(alphabet='ab'), program=Weigh(weight=WLit(raw='a')))")
    assert repr(parse_weighting("[x > 0] 2 * int(x) (+) [not (x > 0)] one", algebra("counting"))) == (
        "WSum(items=(WGuarded(guard=BCmp(op='>', left=AVar(name='x'), right=AInt(value=0)), "
        "term=TScale(weight=WLit(raw=2), term=TEmbed(expr=AVar(name='x')))), WGuarded("
        "guard=BNot(arg=BCmp(op='>', left=AVar(name='x'), right=AInt(value=0))), term=TOne())))")
    assert repr(UctResult("unknown")) == "UctResult(kind='unknown', maxlen=None, lasso=None)"
    assert repr(TransformResult(algebra("counting").value(3), True)) == (
        "TransformResult(value=<counting 3>, exact=True, iterations=0, touched_states=0, "
        "evaluations=0)")


def test_frozen_records_refuse_assignment_and_deletion():
    program = parse_program(TEXT).program
    for target, field in ((program, "first"), (AInt(3), "value"),
                          (algebra("lang:ab"), "alphabet"), (parse_program(TEXT), "algebra")):
        before = repr(target)
        with pytest.raises(AttributeError):
            setattr(target, field, 1)
        with pytest.raises(AttributeError):
            delattr(target, field)
        with pytest.raises(AttributeError):
            target.other = 1
        assert repr(target) == before
    # what lowering caches is kept, all the same
    assert program.names == ("x",) and "names" in program.__dict__
    assert algebra("counting").mon_one() == algebra("counting").weight(1)


def test_keyword_construction_and_defaults():
    assert ABin(op="+", left=AVar("x"), right=AInt(1)) == ABin("+", AVar("x"), AInt(1))
    assert Assign(expr=AInt(1), var="x") == Assign("x", AInt(1))
    assert While(BBool(False), body=Weigh(WLit(2))).body == Weigh(WLit(2))
    unknown = UctResult("unknown")
    assert unknown.maxlen is None and unknown.lasso is None
    assert UctResult("certain", 3).maxlen == 3
    result = TransformResult(value=algebra("counting").value(3), exact=True, evaluations=5)
    assert (result.iterations, result.touched_states, result.evaluations) == (0, 0, 5)
    with pytest.raises(TypeError):
        AInt()
    with pytest.raises(TypeError):
        AInt(1, 2)
    with pytest.raises(TypeError):
        AInt(val=1)


def test_mutable_records_are_unhashable():
    result = TransformResult(algebra("counting").value(3), True)
    with pytest.raises(TypeError):
        hash(result)
    result.iterations = 4  # and assignable
    assert result == TransformResult(algebra("counting").value(3), True, iterations=4)


def test_a_program_survives_a_pickle_round_trip():
    for text in (TEXT, "@instance omegalang:ab\nweigh a", "@instance prob\nweigh 1/2"):
        parsed = parse_program(text)
        copy = pickle.loads(pickle.dumps(parsed))
        assert copy == parsed and hash(copy) == hash(parsed) and repr(copy) == repr(parsed)
        assert (wgcl.print_program(copy.program, copy.algebra)
                == wgcl.print_program(parsed.program, parsed.algebra))


def test_importing_the_cli_loads_no_code_generation_modules():
    # building the record classes is start-up cost for every command
    env = {**os.environ, "PYTHONPATH": str(Path(wgcl.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, wgcl.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
