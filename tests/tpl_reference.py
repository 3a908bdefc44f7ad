"""A reference TPL stepper: docs/tpl.md "Cost model, faults, budgets",
one statement at a time, over the tree that ``tpl.parse_program`` returns.

It is the executable form of those rules, and ``test_tpl.py`` holds
``tpl.Machine`` to it in a differential on (halted, fault, steps, env).  It
takes nothing from the machine's compile step: a ``DigitLoop`` or a
``SearchLoop`` runs as the plain ``While`` it keeps, the operators and the
builtins are stated again here from the docs, and the inner run of ``taub``
or ``runout`` is a reference run.  Only the proof checker is shared:
``checkproof`` is defined as ``proofs.check_coded_proof``, which runs its
enumerator through ``tpl.run_code``.
"""

from math import isqrt

from taulab import proofs
from taulab.codec import decode_program_code, program_code
from taulab.tpl import (Assign, BinOp, DigitLoop, Halt, If, Lit, Name, SearchLoop, While,
                        program_from_code)


class _Halt(Exception):
    pass


class _Fault(Exception):
    pass


class _OutOfBudget(Exception):
    pass


_TYPE_NAMES = {int: "natural", str: "string"}

# every operator but == takes two naturals; - is monus, x / 0 = 0, x % 0 = x
_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: max(a - b, 0),
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else a,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
}


class Run:
    """The run of ``program`` on input ``x`` within ``budget`` steps, with
    the fields of a finished ``Machine``: halted, fault, steps and env.

    The run also records its outcome on each budget in ``record`` at which
    it starts a step (see ``outcomes``).
    """

    def __init__(self, program, x: int, budget: int, record=()):
        self.env, self.steps, self.budget = {"in": x}, 0, budget
        self.halted, self.fault = False, None
        self.record, self.recorded = record, {}
        try:
            self.block(program.body)
            self.halted = True
        except _Halt:
            self.halted = True
        except _Fault as fault:
            self.fault = fault.args[0]
        except _OutOfBudget:
            self.steps = budget

    def charge(self):
        """One step, paid before the statement or the header evaluation it
        is for; the run stops, not yet halted, when the budget is spent."""
        if self.steps >= self.budget:
            raise _OutOfBudget
        if self.steps in self.record:
            self.recorded[self.steps] = (False, None, self.steps, dict(self.env))
        self.steps += 1

    def block(self, statements):
        """Run a block; leaving it costs nothing."""
        for s in statements:
            s = s.loop if type(s) in (DigitLoop, SearchLoop) else s
            self.charge()
            if type(s) is Assign:
                self.env[s.name] = self.value(s.expr)
            elif type(s) is Halt:
                raise _Halt
            elif type(s) is If:
                self.block(s.then if self.true(s.cond) else s.other)
            else:
                assert type(s) is While
                while self.true(s.cond):
                    self.block(s.body)
                    self.charge()

    def true(self, cond) -> bool:
        """The number 0 and the empty string are false."""
        return self.value(cond) not in (0, "")

    def value(self, e):
        """Every operand or argument is evaluated before any type is checked,
        and arguments are checked in order."""
        if type(e) is Lit:
            return e.value
        if type(e) is Name:
            if e.name not in self.env:
                raise _Fault(f"undefined variable {e.name!r}")
            return self.env[e.name]
        if type(e) is BinOp:
            a, b = self.value(e.left), self.value(e.right)
            if e.op == "==":  # any two values; different types are unequal
                return int(type(a) is type(b) and a == b)
            if type(a) is not int or type(b) is not int:
                raise _Fault(f"{e.op} needs a natural, got a string")
            return _ARITHMETIC[e.op](a, b)
        args = [self.value(a) for a in e.args]
        types, meaning = _BUILTINS[e.name]
        for want, arg in zip(types, args):
            if type(arg) is not want:
                raise _Fault(f"{e.name} needs a {_TYPE_NAMES[want]}, "
                             f"got a {_TYPE_NAMES[type(arg)]}")
        return meaning(self, *args)

    # -- the simulating builtins charge what their inner work consumes,
    # capped by the steps left; stopped by that cap, the run is out of budget

    def simulate(self, e: int, x: int, t: int):
        """The reference run of coded program e on x within t steps, or None
        when e codes no program: it never halts, and costs nothing."""
        program = program_from_code(e)
        if program is None:
            return None
        cap = min(t, self.budget - self.steps)
        inner = Run(program, x, cap)
        self.steps += inner.steps
        if not inner.halted and inner.fault is None and cap < t:
            raise _OutOfBudget
        return inner

    def taub(self, e, x, t):
        inner = self.simulate(e, x, t)
        return int(inner is not None and inner.halted)

    def runout(self, e, x, t):
        inner = self.simulate(e, x, t)
        if inner is None:
            raise _Fault("runout: program never halts")
        if not inner.halted:
            raise _Fault("runout: program did not halt within the bound")
        out = inner.env.get("out", 0)
        return out if type(out) is int else program_code(out)

    def checkproof(self, e, p, c):
        result = proofs.check_coded_proof(e, p, c, step_budget=self.budget - self.steps)
        self.steps += result.consumed
        if result.kind == "budget":
            raise _OutOfBudget
        return int(result.ok)


def _unpair(name: str, p: int, side: int) -> int:
    """Side 0 or 1 of (a, b) with p = (a + b)^2 + a, or a fault."""
    s = isqrt(p)
    a = p - s * s
    if a > s:
        raise _Fault(f"{name}: number is not a pair")
    return (a, s - a)[side]


def _tostr(run, n: int) -> str:
    text = decode_program_code(n)
    if text is None:
        raise _Fault("tostr: code is not a packed string")
    return text


# name -> (argument types, meaning), as in the docs' table of builtins
_BUILTINS = {
    "len": ((str,), lambda run, s: len(s)),
    "concat": ((str, str), lambda run, a, b: a + b),
    "substr": ((str, int, int), lambda run, s, i, n: s[i:i + n]),
    "charat": ((str, int), lambda run, s, i: s[i:i + 1]),
    "tonat": ((str,), lambda run, s: program_code(s)),
    "tostr": ((int,), _tostr),
    "pairN": ((int, int), lambda run, a, b: (a + b) ** 2 + a),
    "unpairL": ((int,), lambda run, p: _unpair("unpairL", p, 0)),
    "unpairR": ((int,), lambda run, p: _unpair("unpairR", p, 1)),
    "inrange": ((int,), lambda run, p: int(p - isqrt(p) ** 2 <= isqrt(p))),
    "taub": ((int, int, int), Run.taub),
    "runout": ((int, int, int), Run.runout),
    "checkproof": ((int, int, int), Run.checkproof),
}


def outcome(run) -> tuple:
    """(halted, fault, steps, env) of a finished run, a Machine's too."""
    return run.halted, run.fault, run.steps, run.env


def outcomes(program, x: int, budgets) -> dict:
    """The outcome of ``program`` on ``x`` at each of ``budgets``.

    A step is paid before its statement runs, and a simulating builtin does
    the same work on every budget its work fits in.  So the run on budget b
    stands where a run on a larger budget stood before its step b + 1, or
    where that run ended, when it ended by step b.  One run on the largest
    budget serves every such b; a budget that falls inside the charge of a
    simulating builtin gets a run of its own.
    """
    last = max(budgets)
    run = Run(program, x, last, record=set(budgets))
    ended = run.halted or run.fault is not None
    return {b: run.recorded[b] if b in run.recorded
            else outcome(run) if b == last or ended and b >= run.steps
            else outcome(Run(program, x, b)) for b in budgets}
