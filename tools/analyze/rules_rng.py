"""RNG provenance & purity rules.

`rng-provenance` — every `Xoshiro256ss` construction (local, member
init-list) and every `splitmix_at` counter base must be *derived*: the
seed expression, traced through local initializers, struct-field writes
(resolved by the receiver's owning type: a write to `Job::base` never
feeds a read of `FramePlan::base`) and function parameters (via the
repo-wide call graph), must reach a sanctioned source —
`util::derive_seed`, `util::SeedMixer`, `util::splitmix_at`, or the
hash::mix seed premixers.  A trace that bottoms out in nothing but
literals (or unsanctioned calls) is a stealth-constant or ambient seed
and is reported — at the construction when it is locally wrong, at the
*call site* when a caller passes a bad value into a seed parameter.

`rng-purity` — a function that draws randomness (invokes a
Xoshiro-typed value or `draw_binomial`) must not also touch mutable
namespace-scope or function-`static` state (synchronisation primitives
exempt): hidden cross-call coupling breaks the fresh-instance contract
the bit-identical guarantees rest on.
"""

from __future__ import annotations

from .cpptok import ID, NUM, OP
from .findings import Finding
from .model import Function, Repo, SYNC_TYPES, access_type, read_qualified

# Calls that establish provenance by construction.
SOURCING_CALLS = {
    "derive_seed", "splitmix_at", "mix_with_seed", "premix_seed",
    "fmix64", "smix64",
}
# Types whose involvement in the expression establishes provenance.
SOURCING_TYPES = {"SeedMixer", "SplitMix64"}

RNG_TYPE = "Xoshiro256ss"

# The RNG primitives themselves are exempt (they *are* the source).
EXEMPT_FILES = ("src/util/rng.hpp", "src/util/rng.cpp")

# Identifiers that are casts/types, not value sources.
NON_VALUE_IDS = {
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "std", "uint64_t", "uint32_t", "uint16_t", "uint8_t", "int64_t",
    "int32_t", "size_t", "int", "unsigned", "long", "short", "double",
    "float", "bool", "char", "auto", "uint_fast64_t", "nullptr", "true",
    "false", "min", "max", "util", "hash", "bfce",
}

SEEDY_NAME_HINTS = ("seed", "base", "master", "salt", "mix", "stream", "rng")

_MAX_DEPTH = 8


def _expr_tokens(repo_file, lo: int, hi: int):
    return repo_file.tokens[lo:hi]


class _Tracer:
    def __init__(self, repo: Repo):
        self.repo = repo
        self.problems: list[Finding] = []

    def trace(self, fm, fn: Function | None, lo: int, hi: int,
              depth: int, visited: set) -> bool:
        """True when the expression tokens [lo, hi) of `fm` reach a
        sanctioned seed source; records problems at blame sites when a
        concrete bad producer is found."""
        if depth <= 0:
            return True  # depth-capped: assume ok rather than false-alarm
        toks = fm.tokens
        i = lo
        saw_value_id = False
        sources: list[tuple[str, int]] = []  # (identifier-or-path, tok)
        while i < hi:
            t = toks[i]
            if t.kind != ID:
                i += 1
                continue
            spelled, j = read_qualified(toks, i)
            leaf = spelled.split("::")[-1]
            # Sanctioned sourcing call / type anywhere in the expression.
            if leaf in SOURCING_CALLS or leaf in SOURCING_TYPES:
                return True
            if leaf in NON_VALUE_IDS or spelled in NON_VALUE_IDS:
                i = j
                continue
            # Member path a.b / a->b: record the full path.
            path = [leaf]
            while j < hi and toks[j].kind == OP and toks[j].text in {".",
                                                                     "->"}:
                if j + 1 < hi and toks[j + 1].kind == ID:
                    nxt, j2 = read_qualified(toks, j + 1)
                    path.append(nxt.split("::")[-1])
                    j = j2
                else:
                    break
            saw_value_id = True
            is_call = j < hi and toks[j].kind == OP and toks[j].text == "("
            sources.append((".".join(path) + ("()" if is_call else ""),
                            i))
            i = j

        if not saw_value_id:
            return False  # literals/operators only: a constant seed

        # Any single derived contributor sanctifies the mix.
        for src, tok_i in sources:
            if self._source_ok(fm, fn, src, tok_i, depth, visited):
                return True
        return False

    def _source_ok(self, fm, fn: Function | None, src: str, tok_i: int,
                   depth: int, visited: set) -> bool:
        is_call = src.endswith("()")
        name = src.removesuffix("()")
        leaf = name.split(".")[-1]

        if is_call:
            # A call to a repo function counts as derived iff that
            # function's body itself reaches a sanctioned source.
            for callee in self.repo.functions_named(leaf):
                key = ("fnret", callee.qname)
                if key in visited:
                    continue
                visited.add(key)
                if self._body_sources(callee):
                    return True
            # `.value()` on a SeedMixer-typed receiver.
            if leaf == "value":
                recv = name.rsplit(".", 1)[0] if "." in name else ""
                if fn is not None and self._var_type(fn, recv) and \
                        "SeedMixer" in self._var_type(fn, recv):
                    return True
            return False

        if fn is None:
            return False

        if "." not in name:
            # Local?
            loc = fn.locals.get(name)
            if loc is not None:
                if loc.init is None:
                    return False
                key = ("local", fn.qname, name)
                if key in visited:
                    return False
                visited.add(key)
                return self.trace(fm, fn, loc.init[0], loc.init[1],
                                  depth - 1, visited)
            # Parameter? -> obligation moves to every in-repo call site.
            for idx, prm in enumerate(fn.params):
                if prm.name == name:
                    return self._param_ok(fn, idx, prm.name, depth, visited)
            # Member of the owning class?
            member_ok = self._field_ok(self.repo.field_owner(fn, [name]),
                                       name, depth, visited)
            if member_ok is not None:
                return member_ok
            # File-scope constant?
            for g in fm.globals:
                if g.name == name and g.init is not None:
                    return self.trace(fm, None, g.init[0], g.init[1],
                                      depth - 1, visited)
            return True  # unresolvable: stay conservative, no false alarm

        # Field path `x.y` (or deeper): provenance of the final field.
        path = name.split(".")
        ok = self._field_ok(self.repo.field_owner(fn, path), path[-1],
                            depth, visited)
        return True if ok is None else ok

    def _field_ok(self, owner: str | None, field_name: str, depth: int,
                  visited: set) -> bool | None:
        """Checks every in-repo write of `owner::field_name` (assignments
        and ctor init-lists); a write whose receiver resolves to another
        class is a different field. An unknown owner, on either side,
        matches any class. None = no writes found (unknown, stay quiet);
        otherwise True iff at least one write is derived AND no write is
        a bare constant (bad writes are blamed at their own site)."""
        key = ("field", owner, field_name)
        if key in visited:
            return True
        visited.add(key)

        def same_owner(wfn: Function, path: list[str]) -> bool:
            w_owner = self.repo.field_owner(wfn, path)
            return owner is None or w_owner is None or w_owner == owner

        writes = [(wfm, wfn, a)
                  for wfm, wfn, a in self.repo.field_assigns(field_name)
                  if same_owner(wfn, a.lhs.split("."))]
        init_writes = []
        for wfn in self.repo.functions():
            if not wfn.is_ctor or owner not in (None, wfn.cls):
                continue
            for mname, rng_ in wfn.init_list:
                if mname == field_name:
                    init_writes.append((self.repo.files[wfn.rel], wfn, rng_))
        if not writes and not init_writes:
            return None
        any_ok = False
        for wfm, wfn, a in writes:
            lo, hi = a.rhs
            if self.trace(wfm, wfn, lo, hi, depth - 1, set(visited)):
                any_ok = True
            elif self._is_constant_expr(wfm, lo, hi):
                # Writing a literal into a seed-carrying field is only a
                # finding when the field actually feeds an RNG — the
                # caller (check_* below) decides; record as a problem.
                self.problems.append(Finding(
                    rule="rng-provenance", rel=wfm.rel, line=a.line, col=1,
                    message=(f"'{a.lhs}' feeds an RNG seed/counter base "
                             "but is assigned a bare constant here; "
                             "derive it via util::SeedMixer / "
                             "util::derive_seed")))
        for wfm, wfn, (lo, hi) in init_writes:
            if self.trace(wfm, wfn, lo, hi, depth - 1, set(visited)):
                any_ok = True
        return any_ok

    def _param_ok(self, fn: Function, idx: int, pname: str, depth: int,
                  visited: set) -> bool:
        key = ("param", fn.qname, pname)
        if key in visited:
            return True
        visited.add(key)
        callers = []
        for cfn in self.repo.functions():
            for call in cfn.calls:
                if call.name == fn.name and idx < len(call.args):
                    callers.append((self.repo.files[cfn.rel], cfn, call))
        if not callers:
            return True  # public API: the spec carries the seed
        all_bad_sites = []
        any_ok = False
        for cfm, cfn, call in callers:
            lo, hi = call.args[idx]
            if self.trace(cfm, cfn, lo, hi, depth - 1, set(visited)):
                any_ok = True
            else:
                all_bad_sites.append((cfm, cfn, call, lo, hi))
        for cfm, cfn, call, lo, hi in all_bad_sites:
            if self._is_constant_expr(cfm, lo, hi):
                self.problems.append(Finding(
                    rule="rng-provenance", rel=cfm.rel, line=call.line,
                    col=1,
                    message=(f"call to '{fn.name}' passes a bare constant "
                             f"into seed parameter '{pname}'; derive the "
                             "value via util::SeedMixer / "
                             "util::derive_seed")))
        return any_ok

    def _body_sources(self, fn: Function) -> bool:
        fm = self.repo.files.get(fn.rel)
        if fm is None:
            return False
        lo, hi = fn.body
        for t in fm.tokens[lo:hi]:
            if t.kind == ID and (t.text in SOURCING_CALLS
                                 or t.text in SOURCING_TYPES):
                return True
        return False

    def _var_type(self, fn: Function, name: str) -> str:
        """The type `name.value()` reaches: through a smart pointer or
        container, the held type."""
        var = self.repo.lookup_var(fn, name)
        return access_type(var, True) if var is not None else ""

    @staticmethod
    def _is_constant_expr(fm, lo: int, hi: int) -> bool:
        return all(t.kind in (NUM, OP) or t.text in NON_VALUE_IDS
                   for t in fm.tokens[lo:hi]) and any(
                       t.kind == NUM for t in fm.tokens[lo:hi])


def run(repo: Repo, scanned: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    findings.extend(_provenance(repo, scanned))
    findings.extend(_purity(repo, scanned))
    return findings


def _provenance(repo: Repo, scanned: set[str]) -> list[Finding]:
    out: list[Finding] = []
    for fm in repo.files.values():
        if fm.rel not in scanned or fm.rel.endswith(EXEMPT_FILES):
            continue
        for fn in fm.functions:
            tracer = _Tracer(repo)
            # Xoshiro locals (a reference or pointer seeds nothing).
            for loc in fn.locals.values():
                if RNG_TYPE not in loc.type_text or loc.init is None \
                        or loc.is_indirect:
                    continue
                if not tracer.trace(fm, fn, loc.init[0], loc.init[1],
                                    _MAX_DEPTH, set()):
                    out.append(Finding(
                        rule="rng-provenance", rel=fm.rel,
                        line=fm.tokens[loc.tok].line, col=1,
                        message=(f"Xoshiro256ss '{loc.name}' is seeded by "
                                 "an expression with no derivation from "
                                 "util::SeedMixer / util::derive_seed "
                                 "along the call graph")))
            # Xoshiro members seeded in ctor init-lists.
            if fn.is_ctor and fn.cls:
                member_types = {}
                for cls in repo.class_named(fn.cls):
                    member_types.update(
                        {n: m.type_text for n, m in cls.members.items()})
                for mname, (lo, hi) in fn.init_list:
                    if RNG_TYPE not in member_types.get(mname, ""):
                        continue
                    if not tracer.trace(fm, fn, lo, hi, _MAX_DEPTH, set()):
                        out.append(Finding(
                            rule="rng-provenance", rel=fm.rel, line=fn.line,
                            col=1,
                            message=(f"member '{mname}' is seeded in the "
                                     "init-list by an expression with no "
                                     "derivation from util::SeedMixer / "
                                     "util::derive_seed")))
            # splitmix_at counter bases.
            for call in fn.calls:
                if call.name != "splitmix_at" or not call.args:
                    continue
                lo, hi = call.args[0]
                if not tracer.trace(fm, fn, lo, hi, _MAX_DEPTH, set()):
                    out.append(Finding(
                        rule="rng-provenance", rel=fm.rel, line=call.line,
                        col=1,
                        message=("splitmix_at counter base has no "
                                 "derivation from util::SeedMixer / "
                                 "util::derive_seed along the call "
                                 "graph")))
            out.extend(tracer.problems)
    return out


DRAW_METHODS = {"uniform", "below", "between", "bernoulli"}


def _purity(repo: Repo, scanned: set[str]) -> list[Finding]:
    # Mutable namespace-scope variables across the scanned tree.
    globals_mut: dict[str, str] = {}
    for fm in repo.files.values():
        if fm.rel not in scanned:
            continue
        for g in fm.globals:
            base = g.type_text.split("::")[-1].split("<")[0].strip()
            if g.is_const or base in SYNC_TYPES:
                continue
            globals_mut[g.name] = fm.rel

    out: list[Finding] = []
    for fm in repo.files.values():
        if fm.rel not in scanned or fm.rel.endswith(EXEMPT_FILES):
            continue
        for fn in fm.functions:
            draws = _draw_sites(repo, fm, fn)
            if not draws:
                continue
            state = _mutable_state_uses(fm, fn, globals_mut)
            for line, what in state:
                out.append(Finding(
                    rule="rng-purity", rel=fm.rel, line=line, col=1,
                    message=(f"'{fn.qname}' draws randomness (line "
                             f"{draws[0]}) and also touches mutable "
                             f"{what}; estimates must be pure functions "
                             "of their spec")))
    return out


def _draw_sites(repo: Repo, fm, fn: Function) -> list[int]:
    rng_vars = set()
    for loc in list(fn.locals.values()) + fn.params:
        if RNG_TYPE in loc.type_text:
            rng_vars.add(loc.name)
    if fn.cls:
        for cls in repo.class_named(fn.cls):
            for n, m in cls.members.items():
                if RNG_TYPE in m.type_text:
                    rng_vars.add(n)
    sites = []
    for call in fn.calls:
        if call.name == "draw_binomial":
            sites.append(call.line)
        elif call.name in rng_vars and call.recv is None:
            sites.append(call.line)  # rng()
        elif call.recv in rng_vars and call.name in DRAW_METHODS:
            sites.append(call.line)
    return sorted(sites)


def _mutable_state_uses(fm, fn: Function,
                        globals_mut: dict[str, str]) -> list[tuple[int, str]]:
    uses: list[tuple[int, str]] = []
    for st in fn.statics:
        base = st.type_text.split("::")[-1].split("<")[0].strip()
        if st.is_const or base in SYNC_TYPES:
            continue
        uses.append((fm.tokens[st.tok].line,
                     f"function-local static '{st.name}'"))
    if globals_mut:
        lo, hi = fn.body
        local_names = set(fn.locals) | {p.name for p in fn.params}
        for t in fm.tokens[lo:hi]:
            if t.kind == ID and t.text in globals_mut and \
                    t.text not in local_names:
                uses.append((t.line, f"namespace-scope state '{t.text}' "
                                     f"({globals_mut[t.text]})"))
                break
    return uses
