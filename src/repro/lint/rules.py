"""The rule catalogue: determinism and protocol invariants as AST checks.

Each rule carries a stable code (``RL001``...), used in diagnostics and
in ``# repro: noqa[CODE]`` suppressions.  The rules encode properties of
*this* codebase that generic linters cannot express -- which paper claim
each one protects is spelled out in its docstring (and in DESIGN.md):

========  ==============================================================
RL001     no unseeded randomness outside ``sim/rng.py``
RL002     no wall-clock reads in simulation-deterministic packages
RL004     raised exceptions derive from the ``repro.errors`` hierarchy
RL005     no float ``==``/``!=`` on sim-time or availability values
RL006     no bare/blanket-swallowed ``except`` in protocol paths
RL007     no mutable default arguments
RL008     no mutation of ``View`` membership fields outside
          ``repro.membership``
RL009     no ``Dict[SiteId, ...]`` construction in ``repro.core``
          function bodies and no ``broadcast_query`` call in
          ``repro.core`` (hot paths use the pooled ``QuorumRound``)
========  ==============================================================

RL003 (every message category priced) is retired: each category now
declares its own payload shape, so an unpriced category cannot exist.

Rules are registered in :data:`RULES`; adding one is defining a
``Rule`` subclass with a fresh code and decorating it ``@register``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Type

from .context import FileContext, ProjectContext, attribute_chain
from .diagnostics import Diagnostic

__all__ = ["Rule", "RULES", "register", "all_codes"]

#: Packages whose code runs under the simulated clock / deterministic
#: replay contract.  ``analysis`` and ``experiments`` are pure functions
#: of their inputs; ``obs`` is observer-only; ``cli`` is the edge.
_DETERMINISTIC_SEGMENTS = frozenset(
    {"sim", "core", "net", "fs", "device", "exec", "faults",
     "membership"}
)


class Rule:
    """Base class: a code, a one-line description, and check hooks."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Per-file findings (default: none)."""
        return iter(())

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Diagnostic]:
        """Cross-file findings (default: none)."""
        return iter(())

    def _diag(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Add a rule class to the registry, keyed by its code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def all_codes() -> List[str]:
    """Registered rule codes, sorted."""
    return sorted(RULES)


# ---------------------------------------------------------------------------
# RL001 -- unseeded randomness
# ---------------------------------------------------------------------------


@register
class UnseededRandomness(Rule):
    """Module-level RNG calls break seed-replayability.

    Theorem 4.1's availability estimates and every chaos verdict are
    Monte-Carlo results that must replay bit-for-bit from a seed.  All
    randomness therefore flows through
    :class:`repro.sim.rng.RandomStreams` (or an explicitly seeded
    ``random.Random``); calls into the *global* ``random`` /
    ``numpy.random`` state draw from process-lifetime state that any
    import or test-ordering change silently perturbs.
    """

    code = "RL001"
    name = "unseeded-randomness"
    description = (
        "global random.* / np.random.* call outside sim/rng.py; "
        "use RandomStreams or a seeded random.Random"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.rel.endswith("sim/rng.py"):
            return
        uses_random = ctx.imports_module("random")
        uses_numpy = ctx.imports_module("numpy")
        if not (uses_random or uses_numpy):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            if uses_random and len(chain) == 2 and chain[0] == "random":
                if chain[1] == "Random" and (node.args or node.keywords):
                    continue  # explicitly seeded instance
                yield self._diag(
                    ctx, node,
                    f"call to global random.{chain[1]}() is not "
                    "seed-replayable; draw from a RandomStreams stream "
                    "or an explicitly seeded random.Random",
                )
            elif (
                uses_numpy
                and len(chain) == 3
                and chain[0] in ("np", "numpy")
                and chain[1] == "random"
            ):
                yield self._diag(
                    ctx, node,
                    f"call to {chain[0]}.random.{chain[2]}() outside "
                    "sim/rng.py; derive generators via "
                    "repro.sim.rng.RandomStreams",
                )


# ---------------------------------------------------------------------------
# RL002 -- wall clock in simulated code
# ---------------------------------------------------------------------------

_WALL_TIME_FUNCS = frozenset(
    {
        "time", "monotonic", "perf_counter", "process_time", "sleep",
        "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
    }
)
_WALL_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


@register
class WallClock(Rule):
    """Wall-clock reads in packages that must run on simulated time.

    The simulator owns the clock (``Simulator.now``); availability is a
    *time-weighted* integral over that clock (Section 4).  A wall-clock
    read in ``sim``/``core``/``net``/``fs``/``device``/``exec``/
    ``faults`` couples results to host speed and scheduling, which both
    corrupts the figures and breaks replay.
    """

    code = "RL002"
    name = "wall-clock"
    description = (
        "wall-clock call (time.*/datetime.now) in sim-deterministic "
        "code; use the simulated clock"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not (_DETERMINISTIC_SEGMENTS & set(ctx.segments)):
            return
        uses_time = ctx.imports_module("time")
        uses_datetime = ctx.imports_module("datetime")
        if not (uses_time or uses_datetime):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            if (
                uses_time
                and len(chain) == 2
                and chain[0] == "time"
                and chain[1] in _WALL_TIME_FUNCS
            ):
                yield self._diag(
                    ctx, node,
                    f"wall-clock call time.{chain[1]}() in "
                    "simulation-deterministic code; use Simulator.now",
                )
            elif (
                uses_datetime
                and chain[-1] in _WALL_DATETIME_FUNCS
                and chain[0] == "datetime"
                and len(chain) in (2, 3)
            ):
                yield self._diag(
                    ctx, node,
                    f"wall-clock call {'.'.join(chain)}() in "
                    "simulation-deterministic code; use Simulator.now",
                )


# ---------------------------------------------------------------------------
# RL004 -- exceptions derive from repro.errors
# ---------------------------------------------------------------------------

#: Builtins accepted for argument validation and internal invariants.
#: Everything else (RuntimeError, OSError, bare Exception, ...) must be
#: a class from the ``repro.errors`` hierarchy so callers can rely on
#: ``except ReproError`` at the API boundary.
_BUILTIN_RAISE_ALLOWLIST = frozenset(
    {
        "ValueError", "TypeError", "KeyError", "IndexError",
        "NotImplementedError", "AssertionError", "StopIteration",
        "ArgumentTypeError",  # argparse custom-type contract
    }
)


@register
class ForeignException(Rule):
    """Raised exceptions must come from the ``repro.errors`` hierarchy.

    The device/protocol retry and failover paths catch ``DeviceError``
    subclasses to decide whether an operation is retryable; the chaos
    checker classifies failures by that hierarchy.  An ad-hoc
    ``RuntimeError`` escapes both, turning a modelled fault into an
    unmodelled crash.  Validation builtins (``ValueError`` & co.) are
    allowed for malformed *arguments*, which are caller bugs, not
    modelled faults.
    """

    code = "RL004"
    name = "foreign-exception"
    description = (
        "raise of an exception outside the repro.errors hierarchy "
        "(validation builtins excepted)"
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Diagnostic]:
        allowed: Set[str] = set(_BUILTIN_RAISE_ALLOWLIST)
        allowed.update(project.class_names_in("errors.py"))
        # Fixpoint: local classes deriving (possibly transitively) from
        # an allowed class are allowed too.
        grown = True
        while grown:
            grown = False
            for ctx in project.files:
                for node in ast.walk(ctx.tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    if node.name in allowed:
                        continue
                    for base in node.bases:
                        chain = attribute_chain(base)
                        if chain and chain[-1] in allowed:
                            allowed.add(node.name)
                            grown = True
                            break
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                chain = attribute_chain(exc)
                if chain is None:
                    continue
                name = chain[-1]
                # Skip rebound instances (`raise err`): only class-like
                # names (leading capital) are checked.
                if not name[:1].isupper() or name in allowed:
                    continue
                yield self._diag(
                    ctx, node,
                    f"raise of {name} outside the repro.errors "
                    "hierarchy; derive it from ReproError (or use a "
                    "validation builtin) so `except ReproError` "
                    "boundaries hold",
                )


# ---------------------------------------------------------------------------
# RL005 -- float equality on sim-time / availability
# ---------------------------------------------------------------------------

_FLOATY_EXACT = frozenset({"now", "mttf", "clock"})
_FLOATY_SUBSTRINGS = ("time", "avail")
_FLOATY_EXCLUDE_SUBSTRINGS = ("times", "timeout", "timestamp")


def _floaty_identifier(name: str) -> bool:
    lowered = name.lower()
    if lowered in _FLOATY_EXACT:
        return True
    if any(bad in lowered for bad in _FLOATY_EXCLUDE_SUBSTRINGS):
        return False
    return any(sub in lowered for sub in _FLOATY_SUBSTRINGS)


@register
class FloatEquality(Rule):
    """Exact ``==``/``!=`` on sim-time or availability values.

    Simulated times are sums of exponential draws and availabilities
    are ratios of such sums -- accumulated floating point.  Exact
    equality on them encodes an assumption about rounding that a mere
    reordering of arithmetic (e.g. the batched quorum path) breaks;
    use inequalities or ``math.isclose`` with an explicit tolerance.
    """

    code = "RL005"
    name = "float-equality"
    description = (
        "exact ==/!= comparison on a sim-time or availability value"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
            for operand in [node.left, *node.comparators]:
                terminal = None
                if isinstance(operand, ast.Name):
                    terminal = operand.id
                elif isinstance(operand, ast.Attribute):
                    terminal = operand.attr
                if terminal and _floaty_identifier(terminal):
                    yield self._diag(
                        ctx, node,
                        f"exact equality on {terminal!r} (sim-time / "
                        "availability values are accumulated floats); "
                        "use an inequality or math.isclose",
                    )
                    break


# ---------------------------------------------------------------------------
# RL006 -- except breadth in protocol paths
# ---------------------------------------------------------------------------


def _handler_catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        chain = attribute_chain(node)
        if chain and chain[-1] in ("Exception", "BaseException"):
            return True
    return False


def _body_is_silent(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring or ellipsis
        return False
    return True


@register
class ExceptBreadth(Rule):
    """Bare ``except:`` anywhere; ``except Exception: pass`` everywhere.

    The fault-injection contract is that every injected fault is either
    retried, failed over, or surfaced -- the chaos checker audits the
    ledger at the end of a run.  A blanket handler that swallows
    everything also swallows ``CorruptBlockError`` and
    ``SiteDownError``, silently converting a detected fault into an
    unaccounted one (exactly what ``unaccounted_corruptions`` exists to
    catch).
    """

    code = "RL006"
    name = "except-breadth"
    description = (
        "bare except, or except Exception with a body that only passes"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self._diag(
                    ctx, node,
                    "bare except: catches SystemExit/KeyboardInterrupt "
                    "and masks fault-injection outcomes; name the "
                    "exception types",
                )
            elif _handler_catches_everything(node) and _body_is_silent(
                node.body
            ):
                yield self._diag(
                    ctx, node,
                    "except Exception with a pass body swallows "
                    "injected faults the chaos checker must see; "
                    "narrow the type or handle the error",
                )


# ---------------------------------------------------------------------------
# RL007 -- mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


@register
class MutableDefault(Rule):
    """Mutable default arguments are shared across calls.

    A default ``[]``/``{}`` is evaluated once at definition time; state
    leaking between calls is precisely the cross-run contamination the
    deterministic-replay contract forbids (two identical seeded runs in
    one process would observe each other).
    """

    code = "RL007"
    name = "mutable-default"
    description = "mutable default argument ([] / {} / set())"

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(default, _MUTABLE_LITERALS)
                if (
                    not bad
                    and isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                ):
                    bad = True
                if bad:
                    yield self._diag(
                        ctx, default,
                        f"mutable default argument in {node.name}(); "
                        "use None and create the value in the body",
                    )


# ---------------------------------------------------------------------------
# RL008 -- view membership fields are immutable outside repro.membership
# ---------------------------------------------------------------------------

#: The fields of :class:`repro.membership.View` that define an epoch.
_VIEW_FIELDS = frozenset({"epoch", "sites", "votes"})


@register
class ViewMutation(Rule):
    """Assignment to ``epoch``/``sites``/``votes`` attributes outside
    :mod:`repro.membership`.

    The joint-quorum safety argument treats each epoch's membership as
    a frozen fact: protocols *compare* views and thread them through
    begin/commit, and epoch fencing is keyed to exactly that sequence.
    ``View`` is a frozen dataclass, so naive mutation raises at
    runtime -- but an attribute of the same name grafted onto another
    object (or an ``object.__setattr__`` workaround rewritten as plain
    assignment) would silently bypass the view-change discipline.  All
    membership arithmetic therefore lives in ``repro.membership``;
    everywhere else these names are read-only.  Constructors may still
    initialise their *own* ``self`` fields of the same names.
    """

    code = "RL008"
    name = "view-mutation"
    description = (
        "assignment to an epoch/sites/votes attribute outside "
        "repro.membership (views are immutable value objects)"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if "membership" in ctx.segments:
            return
        ctor_nodes: Set[int] = set()
        for fn in ast.walk(ctx.tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                for sub in ast.walk(fn):
                    ctor_nodes.add(id(sub))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and target.attr in _VIEW_FIELDS
                ):
                    continue
                if (
                    id(node) in ctor_nodes
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                yield self._diag(
                    ctx, node,
                    f"assignment to .{target.attr} outside "
                    "repro.membership; views are immutable -- build a "
                    "successor via with_added/with_removed/with_replaced "
                    "and commit it through the MembershipManager",
                )


# ---------------------------------------------------------------------------
# RL009 -- no per-site reply dicts on protocol hot paths
# ---------------------------------------------------------------------------

def _mentions_site_keyed_dict(annotation: ast.AST) -> bool:
    """Whether an annotation contains ``Dict[SiteId, ...]`` anywhere.

    Matches ``Dict``/``dict``/``typing.Dict`` subscripts whose key type
    is the ``SiteId`` name, at any nesting depth (so the nested reply
    table in ``Dict[BlockIndex, Dict[SiteId, int]]`` is caught too).
    """
    for sub in ast.walk(annotation):
        if not isinstance(sub, ast.Subscript):
            continue
        chain = attribute_chain(sub.value)
        if chain is None or chain[-1] not in ("Dict", "dict"):
            continue
        inner = sub.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            key = inner.elts[0]
        else:
            key = inner
        if isinstance(key, ast.Name) and key.id == "SiteId":
            return True
    return False


@register
class SiteKeyedReplyDict(Rule):
    """``Dict[SiteId, ...]`` built inside a ``repro.core`` function body.

    The protocol fast path replaced per-operation reply dicts with the
    pooled, site-indexed :class:`repro.core.round.QuorumRound` (see
    DESIGN on the round pool): the steady-state loops of all three
    protocols perform no per-operation dict allocation.  A fresh
    ``Dict[SiteId, ...]`` constructed inside a ``repro/core`` function
    quietly reintroduces exactly the allocation that rewrite removed,
    so it must be a deliberate choice.  Construction in ``__init__``
    (member tables, position indexes) is setup and exempt; cold
    operational paths -- membership transitions, repair sweeps, the
    compatibility helpers kept for the slow path -- stay allowed via
    ``# repro: noqa[RL009]`` with the reason in a nearby comment.

    Detection has two halves.  The rule flags annotated assignments
    whose declared type mentions ``Dict[SiteId, ...]``, and any call
    of ``broadcast_query`` -- the one network primitive that returns
    a fresh site-keyed reply dict, whatever the caller annotates;
    ``broadcast_round`` fills a pooled round instead.  Other
    unannotated dict builds are invisible to it: the rule is a
    tripwire, not a proof.
    """

    code = "RL009"
    name = "site-keyed-reply-dict"
    description = (
        "Dict[SiteId, ...] constructed inside a repro.core function, "
        "or broadcast_query called there; hot paths use the pooled "
        "QuorumRound reply table instead"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if "core" not in ctx.segments:
            return
        #: AnnAssign id -> name of the *innermost* enclosing function
        #: (outer functions are walked first, so later visits of the
        #: same node overwrite with the inner owner).
        owner: Dict[int, str] = {}
        for fn in ast.walk(ctx.tree):
            if isinstance(fn, ast.FunctionDef):
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.AnnAssign):
                        owner[id(sub)] = fn.name
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AnnAssign):
                continue
            name = owner.get(id(node))
            if name is None or name == "__init__":
                continue
            if _mentions_site_keyed_dict(node.annotation):
                yield self._diag(
                    ctx, node,
                    "Dict[SiteId, ...] constructed on a repro.core "
                    "path; steady-state rounds use the pooled "
                    "QuorumRound reply table (core/round.py) -- hoist "
                    "the dict to setup, or suppress with "
                    "# repro: noqa[RL009] if this path is cold",
                )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is not None and chain[-1] == "broadcast_query":
                yield self._diag(
                    ctx, node,
                    "broadcast_query on a repro.core path builds a "
                    "Dict[SiteId, ...] of replies per call; gather into "
                    "a pooled QuorumRound with broadcast_round, or "
                    "suppress with # repro: noqa[RL009] if this path "
                    "is cold",
                )
