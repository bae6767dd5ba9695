"""Three-valued classad expression evaluation.

Rules of the road:

* an attribute reference that resolves nowhere is Undefined;
* ErrorValue absorbs through every operator;
* `&&` and `||` use Kleene logic over {true, false, undefined};
* `==`/`!=` with an Undefined operand yield Undefined;
* arithmetic never wraps or raises: 64-bit integer overflow, non-finite
  float results, and division or modulus by zero all yield ErrorValue.

Scoped references shift roles: evaluating `other.X` evaluates the X
expression of the `other` ad with `self` rebound to that ad (and `other`
rebound to the previous `self`), so resource-side expressions see the job
ad as their counterpart and vice versa.  Circular attribute chains are
detected and yield ErrorValue rather than recursing forever.
"""

from __future__ import annotations

import math

from .ads import ClassAd, MatchContext
from .exprs import (
    AttrRef,
    Binary,
    Call,
    Conditional,
    Expr,
    ListExpr,
    Literal,
    SubAd,
    Unary,
)
from .values import (
    FALSE,
    INT64_MAX,
    INT64_MIN,
    TRUE,
    UNDEFINED,
    AdValue,
    Boolean,
    ErrorValue,
    Integer,
    ListValue,
    Real,
    Text,
    Undefined,
    Value,
    as_float,
    is_numeric,
)

_MAX_DEPTH = 200


def evaluate(expr: Expr, ctx: MatchContext) -> Value:
    """Evaluate `expr` in `ctx`.  Total: always returns a Value."""
    return _Evaluator(ctx).eval(expr, ctx)


def attr_value(ad: ClassAd, name: str) -> Value | None:
    """Evaluate attribute `name` of `ad` on its own; None when absent."""
    expr = ad.get(name)
    return None if expr is None else evaluate(expr, MatchContext.solo(ad))


class _Evaluator:
    __slots__ = ("active", "depth")

    def __init__(self, ctx: MatchContext):
        self.active: set[tuple[int, str]] = set()
        self.depth = 0

    def eval(self, expr: Expr, ctx: MatchContext) -> Value:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                return ErrorValue("expression nesting too deep")
            if isinstance(expr, Literal):
                return expr.value
            if isinstance(expr, AttrRef):
                return self._attr_ref(expr, ctx)
            if isinstance(expr, Binary):
                return self._binary(expr, ctx)
            if isinstance(expr, Unary):
                return self._unary(expr, ctx)
            if isinstance(expr, ListExpr):
                return ListValue(tuple(self.eval(item, ctx) for item in expr.items))
            if isinstance(expr, Call):
                return self._call(expr, ctx)
            if isinstance(expr, Conditional):
                return self._conditional(expr, ctx)
            if isinstance(expr, SubAd):
                return AdValue(expr.ad)
            return ErrorValue(f"unknown expression node {type(expr).__name__}")
        finally:
            self.depth -= 1

    def _attr_ref(self, expr: AttrRef, ctx: MatchContext) -> Value:
        scope = expr.scope
        if scope is None or scope == "self":
            target: ClassAd | None = ctx.self_ad
            swapped = ctx
        else:
            target = ctx.get(scope)
            if target is None:
                return UNDEFINED
            # role shift: inside the referenced ad, `self` is that ad and
            # `other` is whoever was asking
            swapped = ctx.rebound(target, ctx.self_ad)
        bound = target.get(expr.name)
        if bound is None:
            return UNDEFINED
        key = (id(target), expr.name.lower())
        if key in self.active:
            return ErrorValue(f"circular attribute reference: {expr.name}")
        self.active.add(key)
        try:
            return self.eval(bound, swapped)
        finally:
            self.active.discard(key)

    def _unary(self, expr: Unary, ctx: MatchContext) -> Value:
        v = self.eval(expr.operand, ctx)
        if isinstance(v, ErrorValue):
            return v
        if expr.op == "!":
            if isinstance(v, Undefined):
                return UNDEFINED
            if isinstance(v, Boolean):
                return FALSE if v.value else TRUE
            return ErrorValue("'!' applied to non-boolean")
        # unary minus
        if isinstance(v, Undefined):
            return UNDEFINED
        if isinstance(v, Integer):
            return _int_result(-v.value)
        if isinstance(v, Real):
            return _real_result(-v.value)
        return ErrorValue("unary '-' applied to non-numeric")

    def _binary(self, expr: Binary, ctx: MatchContext) -> Value:
        op = expr.op
        left = self.eval(expr.left, ctx)
        right = self.eval(expr.right, ctx)
        if op == "&&" or op == "||":
            return _logic(op, left, right)
        if isinstance(left, ErrorValue):
            return left
        if isinstance(right, ErrorValue):
            return right
        if op == "==" or op == "!=":
            eq = _equals(left, right)
            if op == "!=" and isinstance(eq, Boolean):
                return FALSE if eq.value else TRUE
            return eq
        if isinstance(left, Undefined) or isinstance(right, Undefined):
            return UNDEFINED
        if op in ("<", "<=", ">", ">="):
            return _relational(op, left, right)
        return _arithmetic(op, left, right)

    def _call(self, expr: Call, ctx: MatchContext) -> Value:
        args = [self.eval(a, ctx) for a in expr.args]
        for a in args:
            if isinstance(a, ErrorValue):
                return a
        fn = expr.fn
        if fn == "member":
            if len(args) != 2:
                return ErrorValue("member() takes 2 arguments")
            needle, hay = args
            if isinstance(hay, Undefined) or isinstance(needle, Undefined):
                return UNDEFINED
            if not isinstance(hay, ListValue):
                return ErrorValue("member() second argument must be a list")
            saw_undefined = False
            for item in hay.items:
                eq = _equals(needle, item)
                if isinstance(eq, ErrorValue):
                    return eq
                if isinstance(eq, Undefined):
                    saw_undefined = True
                elif eq.value:
                    return TRUE
            return UNDEFINED if saw_undefined else FALSE
        if fn == "length":
            if len(args) != 1:
                return ErrorValue("length() takes 1 argument")
            (v,) = args
            if isinstance(v, Undefined):
                return UNDEFINED
            if isinstance(v, ListValue):
                return Integer(len(v.items))
            if isinstance(v, Text):
                return Integer(len(v.value))
            return ErrorValue("length() argument must be a list or text")
        if fn == "tolower":
            if len(args) != 1:
                return ErrorValue("tolower() takes 1 argument")
            (v,) = args
            if isinstance(v, Undefined):
                return UNDEFINED
            if isinstance(v, Text):
                return Text(v.value.lower())
            return ErrorValue("tolower() argument must be text")
        return ErrorValue(f"unknown function {fn}")

    def _conditional(self, expr: Conditional, ctx: MatchContext) -> Value:
        cond = self.eval(expr.cond, ctx)
        if isinstance(cond, ErrorValue):
            return cond
        if isinstance(cond, Undefined):
            return UNDEFINED
        if not isinstance(cond, Boolean):
            return ErrorValue("conditional test must be boolean")
        return self.eval(expr.then if cond.value else expr.otherwise, ctx)


def _logic(op: str, left: Value, right: Value) -> Value:
    # ErrorValue wins even against a short-circuiting operand
    if isinstance(left, ErrorValue):
        return left
    if isinstance(right, ErrorValue):
        return right
    lt = _trit(left)
    rt = _trit(right)
    if lt is _BAD or rt is _BAD:
        return ErrorValue(f"'{op}' applied to non-boolean")
    if op == "&&":
        if lt is False or rt is False:
            return FALSE
        if lt is None or rt is None:
            return UNDEFINED
        return TRUE
    if lt is True or rt is True:
        return TRUE
    if lt is None or rt is None:
        return UNDEFINED
    return FALSE


_BAD = object()


def _trit(v: Value):
    if isinstance(v, Boolean):
        return v.value
    if isinstance(v, Undefined):
        return None
    return _BAD


def _equals(left: Value, right: Value) -> Value:
    if isinstance(left, ErrorValue):
        return left
    if isinstance(right, ErrorValue):
        return right
    if isinstance(left, Undefined) or isinstance(right, Undefined):
        return UNDEFINED
    if is_numeric(left) and is_numeric(right):
        return TRUE if as_float(left) == as_float(right) else FALSE
    if isinstance(left, Text) and isinstance(right, Text):
        return TRUE if left.value == right.value else FALSE
    if isinstance(left, Boolean) and isinstance(right, Boolean):
        return TRUE if left.value == right.value else FALSE
    if isinstance(left, ListValue) and isinstance(right, ListValue):
        if len(left.items) != len(right.items):
            return FALSE
        saw_undefined = False
        for a, b in zip(left.items, right.items):
            eq = _equals(a, b)
            if isinstance(eq, ErrorValue):
                return eq
            if isinstance(eq, Undefined):
                saw_undefined = True
            elif not eq.value:
                return FALSE
        return UNDEFINED if saw_undefined else TRUE
    return ErrorValue("'==' applied to incompatible types")


def _relational(op: str, left: Value, right: Value) -> Value:
    if is_numeric(left) and is_numeric(right):
        a, b = as_float(left), as_float(right)
    elif isinstance(left, Text) and isinstance(right, Text):
        a, b = left.value, right.value
    else:
        return ErrorValue(f"'{op}' applied to incompatible types")
    if op == "<":
        return TRUE if a < b else FALSE
    if op == "<=":
        return TRUE if a <= b else FALSE
    if op == ">":
        return TRUE if a > b else FALSE
    return TRUE if a >= b else FALSE


def _arithmetic(op: str, left: Value, right: Value) -> Value:
    if not (is_numeric(left) and is_numeric(right)):
        return ErrorValue(f"'{op}' applied to non-numeric")
    both_int = isinstance(left, Integer) and isinstance(right, Integer)
    if both_int:
        a, b = left.value, right.value
        if op == "+":
            return _int_result(a + b)
        if op == "-":
            return _int_result(a - b)
        if op == "*":
            return _int_result(a * b)
        if op == "/":
            if b == 0:
                return ErrorValue("division by zero")
            return _int_result(_trunc_div(a, b))
        if op == "%":
            if b == 0:
                return ErrorValue("modulus by zero")
            return _int_result(a - _trunc_div(a, b) * b)
    a, b = as_float(left), as_float(right)
    if op == "+":
        return _real_result(a + b)
    if op == "-":
        return _real_result(a - b)
    if op == "*":
        return _real_result(a * b)
    if op == "/":
        if b == 0.0:
            return ErrorValue("division by zero")
        return _real_result(a / b)
    if b == 0.0:
        return ErrorValue("modulus by zero")
    return _real_result(math.fmod(a, b))


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_result(n: int) -> Value:
    if INT64_MIN <= n <= INT64_MAX:
        return Integer(n)
    return ErrorValue("integer overflow")


def _real_result(x: float) -> Value:
    if math.isfinite(x):
        return Real(x)
    return ErrorValue("arithmetic overflow")
