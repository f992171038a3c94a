"""Executor-reentrancy rule.

util::parallel_for is nesting-safe by design: a dispatched lambda may
freely call parallel_for again — the inner dispatch runs inline on the
worker's own lane (src/util/executor.hpp documents the contract). What
a dispatched lambda must NOT do is *block on a join*: joining a thread,
waiting on a condition variable, or tearing down the pool
(`Executor::shutdown()`) from inside a worker stalls the lane the
lambda occupies and can deadlock the pool against itself (a worker
joining the team it is part of never returns). The sanctioned path for
nested parallelism is the nesting-safe dispatch API itself, and any
join belongs on the dispatching side, after parallel_for returns.

Concretely, inside any lambda passed to a dispatch call the rule flags:

  * direct blocking joins — `join`, `wait`, `wait_for`, `wait_until`,
    and zero-argument `shutdown` (the two-argument spelling is the
    POSIX socket shutdown and is exempt);
  * calls that resolve to repo functions which (transitively) perform
    such a join.

The executor/parallel_for implementation itself is exempt from seeding
the transitive closure: its internal waits ARE the sanctioned dispatch
machinery, and treating them as violations would flag every nested
parallel_for.
"""

from __future__ import annotations

from .findings import Finding
from .model import DISPATCH_NAMES, Repo
from .rules_locks import _callee_functions, _transitive

_BLOCKING_WAITS = {"wait", "wait_for", "wait_until"}

# Files whose functions never seed the blocking closure: the dispatch
# machinery's own waits implement the nesting-safe API.
_IMPL_PREFIXES = ("src/util/executor", "src/util/parallel")


def _blocking_kind(call) -> str | None:
    """The blocking-join kind a call performs, or None.

    `shutdown` counts only when spelled with no arguments — pool
    teardown joins every worker; the two-argument form is the POSIX
    socket shutdown (src/service/wire.cpp half-closes fds with it).
    """
    if call.name == "join":
        return "join"
    if call.name in _BLOCKING_WAITS:
        return call.name
    if call.name == "shutdown" and not call.args:
        return "shutdown"
    return None


def run(repo: Repo, scanned: set[str]) -> list[Finding]:
    # Seed map: qualified function name -> blocking kinds it performs
    # directly.
    seeds: dict[str, set[str]] = {}
    for fm in repo.files.values():
        if fm.rel not in scanned or fm.rel.startswith(_IMPL_PREFIXES):
            continue
        for fn in fm.functions:
            for call in fn.calls:
                kind = _blocking_kind(call)
                if kind is not None:
                    seeds.setdefault(fn.qname, set()).add(kind)
    trans = _transitive(repo, scanned, seeds)

    findings: list[Finding] = []
    for fm in repo.files.values():
        if fm.rel not in scanned:
            continue
        for fn in fm.functions:
            dispatched = [lam for lam in fn.lambdas
                          if lam.dispatch is not None]
            if not dispatched:
                continue
            for call in fn.calls:
                if not any(lam.body[0] <= call.tok <= lam.body[1]
                           for lam in dispatched):
                    continue
                kind = _blocking_kind(call)
                if kind is not None:
                    findings.append(Finding(
                        rule="executor-reentrancy", rel=fm.rel,
                        line=call.line, col=1,
                        message=(f"blocking '{kind}' inside a lambda "
                                 "dispatched onto the worker pool stalls "
                                 "(or deadlocks) the lane it occupies; "
                                 "hoist the join out of the parallel "
                                 "region — nested parallel_for is the "
                                 "sanctioned path for nested work")))
                    continue
                if call.name in DISPATCH_NAMES:
                    continue  # nesting-safe re-dispatch: sanctioned
                for callee in _callee_functions(repo, fn, call):
                    kinds = trans.get(callee.qname, set())
                    if kinds:
                        joined = "/".join(sorted(kinds))
                        findings.append(Finding(
                            rule="executor-reentrancy", rel=fm.rel,
                            line=call.line, col=1,
                            message=(f"'{callee.name}' performs a "
                                     f"blocking join ({joined}) and is "
                                     "called from a lambda dispatched "
                                     "onto the worker pool; hoist the "
                                     "join out of the parallel region")))
                        break
    return findings
