"""Declaration / call-graph model for the bfce semantic analyzer.

Built on the token stream from cpptok, this module recovers the program
shape the rules reason over, per translation unit and then merged into a
repo-wide index:

  * function definitions with qualified names, parameters, body extents
    and (for constructors) member-init lists;
  * classes with their member variables;
  * per-function locals (name -> declared type + initializer tokens),
    call sites (with receiver and argument extents), assignments
    (including `x.field = ...` field writes), lambdas (with the enclosing
    dispatch call, e.g. `parallel_for`, when they are passed to one, and
    a flag for lambdas handed to a thread constructor) and RAII
    lock-guard sites with held-interval tracking that honours
    manual `guard.unlock()` / `guard.lock()`;
  * namespace-scope mutable variables (the purity rule's "globals").

The recovery is heuristic — this is not a full C++ front-end — but it is
token-accurate (strings/comments can neither trip nor appease anything)
and every behaviour the rules depend on is pinned by the fixture corpus
under tests/analyzer/.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import cpptok
from .cpptok import ID, NUM, OP, PP, Token

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "new", "delete", "throw", "try",
    "catch", "sizeof", "alignof", "static_assert", "using", "typedef",
    "typename", "template", "public", "private", "protected", "operator",
    "co_await", "co_yield", "co_return", "friend", "explicit", "virtual",
    "enum", "namespace", "class", "struct", "union", "this", "nullptr",
    "true", "false", "assert",
}

TYPE_PREFIX = {
    "const", "constexpr", "static", "mutable", "volatile", "inline",
    "thread_local", "unsigned", "signed", "long", "short", "register",
}

GUARD_TYPES = {"lock_guard", "unique_lock", "shared_lock", "scoped_lock"}
MUTEX_TYPES = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "shared_timed_mutex", "recursive_timed_mutex",
}
SYNC_TYPES = MUTEX_TYPES | {
    "condition_variable", "condition_variable_any", "once_flag", "atomic",
    "atomic_flag",
}
THREAD_TYPES = {"thread", "jthread"}
# Container inserts that construct a thread from their argument when the
# container's element type is a thread.
THREAD_SINKS = {"emplace_back", "emplace", "push_back"}


@dataclass
class Local:
    name: str
    type_text: str
    tok: int  # index of the declared name token
    init: tuple[int, int] | None  # [lo, hi) token range of the initializer
    is_static: bool = False
    is_const: bool = False
    # The declared type as spelled, template arguments included
    # (`type_text` drops them for members and locals).
    spelled_type: str = ""
    # A reference or pointer declarator: names existing storage and
    # constructs nothing of the declared type.
    is_indirect: bool = False


@dataclass
class Call:
    name: str  # last name component, e.g. "parallel_for"
    qual: str  # full spelled callee, e.g. "util::parallel_for"
    recv: str | None  # receiver expression for a.b() / a->b()
    tok: int  # index of the name token
    line: int
    args: list[tuple[int, int]] = field(default_factory=list)
    # The callee is reached through what the receiver points to or
    # holds (`p->f()`, `v[i].f()`), not through the receiver itself.
    via_pointee: bool = False


@dataclass
class Assign:
    lhs: str  # spelled lhs path, e.g. "fr.base" or "state_"
    tok: int
    line: int
    rhs: tuple[int, int] = (0, 0)


@dataclass
class Lambda:
    body: tuple[int, int]  # [open-brace, close-brace] token indices
    intro_tok: int  # index of the '[' token
    params: list[str] = field(default_factory=list)
    dispatch: str | None = None  # callee name when passed to a dispatcher
    # Set by Repo.mark_thread_lambdas(): the lambda is handed to a thread
    # constructor, so its body runs on the new thread, not the caller's.
    on_thread: bool = False


@dataclass
class Guard:
    var: str
    kind: str  # lock_guard / unique_lock / shared_lock / scoped_lock
    mutex_expr: str
    tok: int
    line: int
    block_end: int  # token index of the enclosing block's '}'
    held: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class Function:
    rel: str  # repo-relative file of the definition
    qname: str  # e.g. "bfce::service::EstimationService::worker_loop"
    name: str  # last component
    cls: str | None  # owning class name (unqualified) or None
    line: int
    params: list[Local] = field(default_factory=list)
    body: tuple[int, int] = (0, 0)
    locals: dict[str, Local] = field(default_factory=dict)
    statics: list[Local] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    assigns: list[Assign] = field(default_factory=list)
    lambdas: list[Lambda] = field(default_factory=list)
    guards: list[Guard] = field(default_factory=list)
    init_list: list[tuple[str, tuple[int, int]]] = field(default_factory=list)
    is_ctor: bool = False

    def same_thread(self, a: int, b: int) -> bool:
        """False when exactly one of tokens a, b lies in the body of a
        lambda that runs on a thread spawned here."""
        for lam in self.lambdas:
            if lam.on_thread:
                lo, hi = lam.body
                if (lo <= a <= hi) != (lo <= b <= hi):
                    return False
        return True

    def on_caller_thread(self, tok: int) -> bool:
        """True when token `tok` runs on the thread that called this
        function."""
        return self.same_thread(tok, self.body[0])


@dataclass
class ClassInfo:
    name: str
    qname: str
    rel: str
    members: dict[str, Local] = field(default_factory=dict)


@dataclass
class FileModel:
    rel: str
    tokens: list[Token]
    comments: list[cpptok.Comment]
    functions: list[Function] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    globals: list[Local] = field(default_factory=list)
    includes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Helpers over token lists.


def match_braces(tokens: list[Token]) -> dict[int, int]:
    """Map from every '(', '{', '[' token index to its matching closer."""
    match: dict[int, int] = {}
    stack: list[int] = []
    pairs = {"(": ")", "{": "}", "[": "]"}
    closers = {")", "}", "]"}
    for i, t in enumerate(tokens):
        if t.kind != OP:
            continue
        if t.text in pairs:
            stack.append(i)
        elif t.text in closers:
            while stack:
                j = stack.pop()
                if pairs[tokens[j].text] == t.text:
                    match[j] = i
                    break
                # Unbalanced opener (rare macro soup): close it here too.
                match[j] = i
    while stack:  # unterminated at EOF
        match[stack.pop()] = len(tokens) - 1
    return match


def read_qualified(tokens: list[Token], i: int) -> tuple[str, int]:
    """Reads `id(::id)*` starting at i; returns (spelled, next index).

    Skips template argument lists between components (`Foo<Bar>::baz`).
    """
    parts = [tokens[i].text]
    i += 1
    while i < len(tokens):
        if tokens[i].kind == OP and tokens[i].text == "<":
            j = skip_template_args(tokens, i)
            if j is None:
                break
            i = j
            continue
        if (tokens[i].kind == OP and tokens[i].text == "::"
                and i + 1 < len(tokens) and tokens[i + 1].kind == ID):
            parts.append(tokens[i + 1].text)
            i += 2
            continue
        break
    return "::".join(parts), i


def skip_template_args(tokens: list[Token], i: int) -> int | None:
    """If tokens[i] is '<' opening a plausible template-argument list,
    returns the index just past the matching '>'; otherwise None."""
    depth = 0
    j = i
    limit = min(len(tokens), i + 64)  # template args are short in practice
    while j < limit:
        t = tokens[j]
        if t.kind != OP:
            j += 1
            continue
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t.text == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t.text in {";", "{", "}"} or t.text in {"&&", "||"}:
            return None  # comparison, not template args
        j += 1
    return None


def text_of(tokens: list[Token], lo: int, hi: int) -> str:
    return " ".join(t.text for t in tokens[lo:hi])


# ---------------------------------------------------------------------------
# File parsing.


class _Parser:
    def __init__(self, rel: str, tokens: list[Token],
                 comments: list[cpptok.Comment]):
        self.fm = FileModel(rel=rel, tokens=tokens, comments=comments)
        self.tokens = tokens
        self.match = match_braces(tokens)
        for t in tokens:
            if t.kind == PP and t.text.lstrip("# \t").startswith("include"):
                body = t.text.split("include", 1)[1].strip()
                if body.startswith('"') and body.endswith('"'):
                    self.fm.includes.append(body[1:-1])

    # -- top level ----------------------------------------------------------

    def parse(self) -> FileModel:
        self.scan_scope(0, len(self.tokens), ns=[], cls=None)
        return self.fm

    def skip_attributes(self, i: int, hi: int) -> int:
        """Index past any `__attribute__((...))` / `[[...]]` specifiers
        starting at i (i itself when there are none)."""
        toks = self.tokens
        while i + 1 < hi:
            t, nxt = toks[i], toks[i + 1]
            if (t.kind == ID and t.text == "__attribute__"
                    and nxt.kind == OP and nxt.text == "("):
                i = self.match.get(i + 1, i + 1) + 1
            elif (t.kind == OP and t.text == "[" and nxt.kind == OP
                  and nxt.text == "["):
                i = self.match.get(i, i) + 1
            else:
                break
        return i

    def scan_scope(self, lo: int, hi: int, ns: list[str],
                   cls: ClassInfo | None) -> None:
        toks = self.tokens
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == PP:
                i += 1
                continue
            j = self.skip_attributes(i, hi)
            if j != i:
                i = j
                continue
            if t.kind == ID and t.text == "namespace":
                j = i + 1
                name_parts = []
                while j < hi and toks[j].kind == ID:
                    name_parts.append(toks[j].text)
                    j += 1
                    if j < hi and toks[j].kind == OP and toks[j].text == "::":
                        j += 1
                        continue
                    break
                if j < hi and toks[j].kind == OP and toks[j].text == "{":
                    end = self.match.get(j, hi)
                    self.scan_scope(j + 1, end, ns + name_parts, cls)
                    i = end + 1
                    continue
                i = j + 1
                continue
            if t.kind == ID and t.text in {"class", "struct"}:
                i = self.scan_class(i, hi, ns, cls)
                continue
            if t.kind == ID and t.text == "enum":
                i = self.skip_past_braces_or_semi(i, hi)
                continue
            if t.kind == ID and t.text == "template":
                j = i + 1
                if j < hi and toks[j].kind == OP and toks[j].text == "<":
                    skipped = skip_template_args(toks, j)
                    i = skipped if skipped is not None else j + 1
                else:
                    i = j
                continue
            if t.kind == ID and t.text in {"using", "typedef"}:
                i = self.skip_to_semi(i, hi)
                continue
            if t.kind == ID and t.text in {"extern", "friend"}:
                i += 1
                continue
            if t.kind == ID or (t.kind == OP and t.text == "~"):
                i = self.scan_declaration(i, hi, ns, cls)
                continue
            i += 1

    def skip_to_semi(self, i: int, hi: int) -> int:
        toks = self.tokens
        while i < hi:
            if toks[i].kind == OP:
                if toks[i].text == ";":
                    return i + 1
                if toks[i].text in "({[":
                    i = self.match.get(i, i) + 1
                    continue
            i += 1
        return hi

    def skip_past_braces_or_semi(self, i: int, hi: int) -> int:
        toks = self.tokens
        while i < hi:
            if toks[i].kind == OP:
                if toks[i].text == ";":
                    return i + 1
                if toks[i].text == "{":
                    end = self.match.get(i, hi)
                    # enum class X { ... };
                    if end + 1 < hi and toks[end + 1].text == ";":
                        return end + 2
                    return end + 1
                if toks[i].text in "([":
                    i = self.match.get(i, i) + 1
                    continue
            i += 1
        return hi

    def scan_class(self, i: int, hi: int, ns: list[str],
                   outer: ClassInfo | None) -> int:
        toks = self.tokens
        j = i + 1
        while j < hi and toks[j].kind == OP and toks[j].text == "[":
            j = self.match.get(j, j) + 1  # attributes
        if j >= hi or toks[j].kind != ID:
            return i + 1
        # `struct Outer::Inner {` defines Inner, nested in Outer.
        spelled, j = read_qualified(toks, j)
        *qual, name = spelled.split("::")
        # Skip 'final' and a base-clause up to '{' / ';' / '('.
        while j < hi and not (toks[j].kind == OP
                              and toks[j].text in {"{", ";", "("}):
            if toks[j].kind == OP and toks[j].text == "<":
                skipped = skip_template_args(toks, j)
                j = skipped if skipped is not None else j + 1
                continue
            j += 1
        if j >= hi or toks[j].text != "{":
            return self.skip_to_semi(i, hi)  # forward declaration / variable
        end = self.match.get(j, hi)
        qname = "::".join(ns + ([outer.name] if outer else []) + qual
                          + [name])
        info = ClassInfo(name=name, qname=qname, rel=self.fm.rel)
        self.fm.classes[name] = info
        self.scan_scope(j + 1, end, ns, info)
        return self.skip_past_braces_or_semi(end, hi) if end < hi else hi

    # -- declarations (functions, members, globals) -------------------------

    def scan_declaration(self, i: int, hi: int, ns: list[str],
                         cls: ClassInfo | None) -> int:
        """At namespace or class scope, starting on an identifier: decide
        between a function definition, a function declaration, and a
        variable/member declaration; record accordingly."""
        toks = self.tokens
        start = i
        last_name: str | None = None
        last_name_tok = -1
        qual_before_name = ""
        seen_ids: list[str] = []
        j = i
        while j < hi:
            k = self.skip_attributes(j, hi)
            if k != j:
                j = k
                continue
            t = toks[j]
            if t.kind == ID and t.text == "operator":
                # operator()/operator== etc.: consume the symbol.
                k = j + 1
                while k < hi and toks[k].kind == OP and toks[k].text != "(":
                    k += 1
                last_name = "operator" + text_of(toks, j + 1, k)
                last_name_tok = j
                j = k
                continue
            if t.kind == ID and t.text not in TYPE_PREFIX:
                spelled, nxt = read_qualified(toks, j)
                seen_ids.append(spelled)
                last_name = spelled.split("::")[-1]
                qual_before_name = spelled
                last_name_tok = j
                j = nxt
                continue
            if t.kind == OP and t.text == "(" and last_name is not None:
                close = self.match.get(j, hi)
                after = close + 1
                # Skip cv/ref/noexcept/override/trailing-return up to a
                # terminator that classifies the declaration.
                k = after
                while k < hi:
                    tk = toks[k]
                    if tk.kind == OP and tk.text in {"{", ";", ":", ","}:
                        break
                    if tk.kind == OP and tk.text == "=":
                        break
                    if tk.kind == OP and tk.text == "(":
                        k = self.match.get(k, k) + 1
                        continue
                    if tk.kind == OP and tk.text == "->":
                        k += 1
                        continue
                    k += 1
                if k < hi and toks[k].kind == OP and toks[k].text in {"{", ":"}:
                    return self.record_function(start, last_name_tok, j,
                                               close, k, ns, cls, hi)
                if (k < hi and toks[k].kind == OP and toks[k].text == "="
                        and k + 1 < hi
                        and toks[k + 1].text in {"default", "delete", "0"}):
                    return self.skip_to_semi(k, hi)
                # `Type name(args);` at namespace/class scope is a
                # function declaration (most-vexing-parse rule), never a
                # variable — record nothing.
                return self.skip_to_semi(close, hi)
            if t.kind == OP and t.text in {"=", "{", ";"} and last_name:
                # Variable / member declaration.
                init: tuple[int, int] | None = None
                if t.text == "=":
                    end = self.skip_to_semi(j, hi)
                    init = (j + 1, end - 1)
                    if len(seen_ids) >= 2:
                        self.record_variable(start, last_name,
                                             last_name_tok, seen_ids[:-1],
                                             init, cls)
                    return end
                if t.text == "{":
                    close = self.match.get(j, hi)
                    if len(seen_ids) >= 2:
                        self.record_variable(start, last_name,
                                             last_name_tok, seen_ids[:-1],
                                             (j + 1, close), cls)
                    return self.skip_to_semi(close, hi)
                if len(seen_ids) >= 2:
                    self.record_variable(start, last_name, last_name_tok,
                                         seen_ids[:-1], None, cls)
                return j + 1
            if t.kind == OP and t.text in {"&", "*", "~", "[", "]", "::",
                                           "<", ">", ">>", ","}:
                if t.text == "<":
                    skipped = skip_template_args(toks, j)
                    if skipped is not None:
                        j = skipped
                        continue
                if t.text == "~":
                    j += 1
                    continue
                j += 1
                continue
            if t.kind == ID:
                j += 1
                continue
            return j + 1
        return hi

    def record_variable(self, start: int, name: str, name_tok: int,
                        type_ids: list[str], init: tuple[int, int] | None,
                        cls: ClassInfo | None) -> None:
        type_text = " ".join(type_ids)
        local = Local(name=name, type_text=type_text, tok=name_tok, init=init,
                      spelled_type=text_of(self.tokens, start, name_tok))
        if cls is not None:
            cls.members[name] = local
        else:
            prev = self.tokens[max(0, name_tok - 8):name_tok]
            local.is_const = any(
                p.kind == ID and p.text in {"const", "constexpr"}
                for p in prev)
            self.fm.globals.append(local)

    def record_function(self, start: int, name_tok: int, paren: int,
                        close: int, body_or_colon: int, ns: list[str],
                        cls: ClassInfo | None, hi: int) -> int:
        toks = self.tokens
        spelled, _ = read_qualified(toks, name_tok)
        parts = spelled.split("::")
        name = parts[-1]
        owner = cls.name if cls else (parts[-2] if len(parts) >= 2 else None)
        if toks[name_tok].text == "operator" or name.startswith("operator"):
            name = "operator" + name.removeprefix("operator")
        qname = "::".join(ns + ([owner] if owner and owner not in ns else [])
                          + [name])
        fn = Function(rel=self.fm.rel, qname=qname, name=name, cls=owner,
                      line=toks[name_tok].line,
                      is_ctor=(owner is not None and name == owner))
        fn.params = self.parse_params(paren + 1, close)

        k = body_or_colon
        if toks[k].text == ":":
            k = self.parse_init_list(fn, k + 1, hi)
        if k < hi and toks[k].kind == OP and toks[k].text == "{":
            body_end = self.match.get(k, hi)
            fn.body = (k, body_end)
            self.fm.functions.append(fn)
            parse_body(self, fn)
            return body_end + 1
        self.fm.functions.append(fn)
        return k + 1

    def parse_params(self, lo: int, hi: int) -> list[Local]:
        toks = self.tokens
        params: list[Local] = []
        i = lo
        seg_start = lo
        segs: list[tuple[int, int]] = []
        while i < hi:
            t = toks[i]
            if t.kind == OP and t.text in "([{":
                i = self.match.get(i, i) + 1
                continue
            if t.kind == OP and t.text == "<":
                skipped = skip_template_args(toks, i)
                if skipped is not None:
                    i = skipped
                    continue
            if t.kind == OP and t.text == ",":
                segs.append((seg_start, i))
                seg_start = i + 1
            i += 1
        if seg_start < hi:
            segs.append((seg_start, hi))
        for lo_s, hi_s in segs:
            name = None
            name_tok = lo_s
            type_ids = []
            j = lo_s
            while j < hi_s:
                t = toks[j]
                if t.kind == OP and t.text == "=":
                    break  # default argument
                if t.kind == ID and t.text not in TYPE_PREFIX:
                    spelled, j2 = read_qualified(toks, j)
                    name = spelled.split("::")[-1]
                    name_tok = j
                    j = j2
                    continue
                j += 1
            if name is None:
                continue
            type_text = text_of(toks, lo_s, name_tok)
            params.append(Local(name=name, type_text=type_text,
                                tok=name_tok, init=None))
        return params

    def parse_init_list(self, fn: Function, i: int, hi: int) -> int:
        """Parses `member(expr), member{expr}, base(...)` up to the body
        '{'; returns the index of that '{'."""
        toks = self.tokens
        while i < hi:
            t = toks[i]
            if t.kind == OP and t.text == "{":
                # Either brace-init of a member (id precedes) or the body.
                prev = toks[i - 1] if i > 0 else None
                if prev is not None and prev.kind == ID:
                    close = self.match.get(i, hi)
                    fn.init_list.append((prev.text, (i + 1, close)))
                    i = close + 1
                    continue
                return i
            if t.kind == ID:
                spelled, j = read_qualified(toks, i)
                if j < hi and toks[j].kind == OP and toks[j].text == "(":
                    close = self.match.get(j, hi)
                    fn.init_list.append((spelled.split("::")[-1],
                                         (j + 1, close)))
                    i = close + 1
                    continue
                i = j
                continue
            i += 1
        return i


# ---------------------------------------------------------------------------
# Function-body parsing.


def parse_body(p: _Parser, fn: Function) -> None:
    toks = p.tokens
    lo, hi = fn.body
    block_stack: list[int] = [lo]
    i = lo + 1
    while i < hi:
        t = toks[i]
        if t.kind == OP and t.text == "{":
            block_stack.append(i)
            i += 1
            continue
        if t.kind == OP and t.text == "}":
            if len(block_stack) > 1:
                block_stack.pop()
            i += 1
            continue
        # Lambdas: '[' that is not a subscript and not an attribute.
        if t.kind == OP and t.text == "[":
            prev = toks[i - 1]
            is_subscript = (prev.kind in (ID, NUM)
                            or (prev.kind == OP and prev.text in {")", "]"}))
            close = p.match.get(i, i)
            nxt = toks[close + 1] if close + 1 < hi else None
            if (not is_subscript and nxt is not None and nxt.kind == OP
                    and nxt.text in {"(", "{"}):
                lam = Lambda(body=(0, 0), intro_tok=i)
                j = close + 1
                if nxt.text == "(":
                    pclose = p.match.get(j, j)
                    lam.params = [pp.name for pp in p.parse_params(j + 1,
                                                                   pclose)]
                    j = pclose + 1
                while j < hi and not (toks[j].kind == OP
                                      and toks[j].text == "{"):
                    if toks[j].kind == OP and toks[j].text == "(":
                        j = p.match.get(j, j) + 1
                        continue
                    if toks[j].kind == OP and toks[j].text == ";":
                        break
                    j += 1
                if j < hi and toks[j].text == "{":
                    lam.body = (j, p.match.get(j, hi))
                    fn.lambdas.append(lam)
            i += 1
            continue
        if t.kind == ID and t.text == "static":
            i = scan_static_local(p, fn, i, hi)
            continue
        if t.kind == ID and t.text not in KEYWORDS:
            i = scan_statement_head(p, fn, i, hi, block_stack)
            continue
        i += 1

    attach_dispatch_lambdas(fn)
    compute_guard_intervals(p, fn)


def scan_static_local(p: _Parser, fn: Function, i: int, hi: int) -> int:
    toks = p.tokens
    j = i + 1
    quals = []
    while j < hi and toks[j].kind == ID and toks[j].text in TYPE_PREFIX:
        quals.append(toks[j].text)
        j += 1
    type_ids = []
    name = None
    name_tok = j
    while j < hi:
        t = toks[j]
        if t.kind == ID and t.text not in TYPE_PREFIX:
            spelled, j2 = read_qualified(toks, j)
            if name is not None:
                type_ids.append(name)
            name = spelled.split("::")[-1]
            name_tok = j
            j = j2
            continue
        if t.kind == OP and t.text in {"&", "*"}:
            j += 1
            continue
        break
    if name is not None:
        loc = Local(name=name, type_text=" ".join(type_ids), tok=name_tok,
                    init=None, is_static=True,
                    is_const=("const" in quals or "constexpr" in quals))
        fn.statics.append(loc)
        fn.locals[name] = loc
    return p.skip_to_semi(i, hi)


def scan_statement_head(p: _Parser, fn: Function, i: int, hi: int,
                        block_stack: list[int]) -> int:
    """From an identifier inside a body: records a local declaration, a
    call, or an assignment, and returns the next scan index (which never
    jumps past nested interesting constructs — it advances minimally)."""
    toks = p.tokens
    after_decl = scan_indirect_local(p, fn, i, hi)
    if after_decl is not None:
        return after_decl
    spelled, j = read_qualified(toks, i)
    name = spelled.split("::")[-1]

    # Receiver chains: a.b.c( / a->b( / a[i].b( — walk the member path.
    path = [spelled]
    via_pointee = False
    while j < hi and toks[j].kind == OP:
        subscripted = toks[j].text == "["
        if subscripted:
            j = p.match.get(j, j) + 1
            if j >= hi or toks[j].kind != OP:
                break
        if toks[j].text not in {".", "->"}:
            break
        if j + 1 < hi and toks[j + 1].kind == ID:
            via_pointee = subscripted or toks[j].text == "->"
            nxt_spelled, j2 = read_qualified(toks, j + 1)
            path.append(nxt_spelled)
            j = j2
        else:
            j += 1
            break

    nxt = toks[j] if j < hi else None
    if nxt is None:
        return j

    if nxt.kind == OP and nxt.text == "(":
        close = p.match.get(j, j)
        callee = path[-1]
        recv = ".".join(path[:-1]) if len(path) > 1 else None
        call = Call(name=callee.split("::")[-1], qual=callee, recv=recv,
                    tok=i, line=toks[i].line,
                    args=split_args(p, j + 1, close),
                    via_pointee=via_pointee and recv is not None)
        fn.calls.append(call)
        return j + 1  # continue scanning inside the arguments

    if nxt.kind == OP and nxt.text == "=":
        end = p.skip_to_semi(j, hi)
        fn.assigns.append(Assign(lhs=".".join(path), tok=i,
                                 line=toks[i].line, rhs=(j + 1, end - 1)))
        return j + 1

    # Two consecutive identifiers => declaration `Type name ...`.
    if (len(path) == 1 and nxt.kind == ID and nxt.text not in KEYWORDS
            and spelled not in KEYWORDS):
        dname_spelled, j2 = read_qualified(toks, j)
        dname = dname_spelled.split("::")[-1]
        after = toks[j2] if j2 < hi else None
        # `auto t = ns::Clock::now()` — a *qualified* name followed by
        # '(' is a call, never a declarator.
        if ("::" in dname_spelled and after is not None
                and after.kind == OP and after.text == "("):
            close = p.match.get(j2, j2)
            fn.calls.append(Call(name=dname, qual=dname_spelled, recv=None,
                                 tok=j, line=toks[j].line,
                                 args=split_args(p, j2 + 1, close)))
            return j2 + 1
        if after is not None and after.kind == OP and after.text in \
                {"=", "(", "{", ";", ":", ")"}:
            init: tuple[int, int] | None = None
            if after.text == "=":
                end = p.skip_to_semi(j2, hi)
                init = (j2 + 1, end - 1)
            elif after.text in {"(", "{"}:
                close = p.match.get(j2, j2)
                init = (j2 + 1, close)
            elif after.text == ":":  # range-for binding
                end = p.skip_to_semi(j2, hi)
                init = (j2 + 1, end - 1)
            loc = Local(name=dname, type_text=spelled, tok=j, init=init,
                        spelled_type=text_of(toks, i, j))
            fn.locals[dname] = loc
            base = spelled.split("::")[-1]
            base = base.split("<")[0]
            if base in GUARD_TYPES:
                fn.guards.append(Guard(
                    var=dname, kind=base,
                    mutex_expr=text_of(toks, init[0], init[1]) if init else "",
                    tok=j, line=toks[j].line,
                    block_end=p.match.get(block_stack[-1], fn.body[1])))
            return j2 + 1
    return j


# Tokens that can precede a declaration statement, a for-init or a
# range-for binding.
_DECL_PREV = {";", "{", "}", "(", ")"}
_DECLARATORS = {"&", "*", "&&"}


def scan_indirect_local(p: _Parser, fn: Function, i: int,
                        hi: int) -> int | None:
    """`[cv] Type (&|*|&&)+ [cv] name (= | : | {)` at the head of a
    statement, a for-init or a range-for: records a reference / pointer
    local and returns the index of its first initializer token; None
    when the tokens at i are not such a declaration."""
    toks = p.tokens
    prev = toks[i - 1]
    if prev.kind != OP or prev.text not in _DECL_PREV:
        return None
    j = i
    while j < hi and toks[j].kind == ID and toks[j].text in TYPE_PREFIX:
        j += 1
    if j >= hi or toks[j].kind != ID or toks[j].text in KEYWORDS:
        return None
    type_lo = j
    spelled, j = read_qualified(toks, j)
    k = j
    while k < hi and ((toks[k].kind == OP and toks[k].text in _DECLARATORS)
                      or toks[k].text in {"const", "volatile"}):
        k += 1
    if (not any(t.text in _DECLARATORS for t in toks[j:k])
            or k + 1 >= hi or toks[k].kind != ID or toks[k].text in KEYWORDS
            or toks[k + 1].kind != OP or toks[k + 1].text not in {"=", ":",
                                                                  "{"}):
        return None
    # An enclosing '(' (for / if / while head) bounds the initializer.
    limit = p.match.get(i - 1, hi) if prev.text == "(" else hi
    if toks[k + 1].text == "{":
        end = p.match.get(k + 1, k + 1)
    else:
        end = min(p.skip_to_semi(k + 1, hi) - 1, limit)
    fn.locals[toks[k].text] = Local(
        name=toks[k].text, type_text=spelled, tok=k, init=(k + 2, end),
        spelled_type=text_of(toks, type_lo, k), is_indirect=True)
    return k + 2


def split_args(p: _Parser, lo: int, hi: int) -> list[tuple[int, int]]:
    toks = p.tokens
    args: list[tuple[int, int]] = []
    i = lo
    seg = lo
    while i < hi:
        t = toks[i]
        if t.kind == OP and t.text in "([{":
            i = p.match.get(i, i) + 1
            continue
        if t.kind == OP and t.text == "<":
            skipped = skip_template_args(toks, i)
            if skipped is not None and skipped <= hi:
                i = skipped
                continue
        if t.kind == OP and t.text == ",":
            args.append((seg, i))
            seg = i + 1
        i += 1
    if seg < hi:
        args.append((seg, hi))
    return args


DISPATCH_NAMES = {"parallel_for"}


def attach_dispatch_lambdas(fn: Function) -> None:
    for call in fn.calls:
        if call.name not in DISPATCH_NAMES:
            continue
        for lam in fn.lambdas:
            for lo, hi in call.args:
                if lo <= lam.intro_tok < hi:
                    lam.dispatch = call.name
                    break


def compute_guard_intervals(p: _Parser, fn: Function) -> None:
    """Held intervals for each guard: [decl, block-end), split by manual
    guard.unlock()/guard.lock() calls in token order."""
    for g in fn.guards:
        events: list[tuple[int, str]] = []
        for call in fn.calls:
            if call.recv == g.var and call.name in {"lock", "unlock"}:
                if g.tok < call.tok < g.block_end:
                    events.append((call.tok, call.name))
        events.sort()
        held: list[tuple[int, int]] = []
        open_at: int | None = g.tok
        for pos, kind in events:
            if kind == "unlock" and open_at is not None:
                held.append((open_at, pos))
                open_at = None
            elif kind == "lock" and open_at is None:
                open_at = pos
        if open_at is not None:
            held.append((open_at, g.block_end))
        g.held = held


# ---------------------------------------------------------------------------
# Repo-wide index.


@dataclass
class Repo:
    files: dict[str, FileModel] = field(default_factory=dict)

    def functions(self) -> list[Function]:
        return [fn for fm in self.files.values() for fn in fm.functions]

    def functions_named(self, name: str) -> list[Function]:
        return [fn for fn in self.functions() if fn.name == name]

    def class_named(self, name: str) -> list[ClassInfo]:
        return [fm.classes[name] for fm in self.files.values()
                if name in fm.classes]

    def field_assigns(self, field_name: str) -> list[tuple[FileModel,
                                                           Function, Assign]]:
        out = []
        for fm in self.files.values():
            for fn in fm.functions:
                for a in fn.assigns:
                    if a.lhs.split(".")[-1].split("->")[-1] == field_name:
                        out.append((fm, fn, a))
        return out

    def lookup_var(self, fn: Function, name: str) -> Local | None:
        """The declaration `name` resolves to inside `fn`: a local, a
        parameter, or a member of the owning class."""
        loc = fn.locals.get(name)
        if loc is not None:
            return loc
        for prm in fn.params:
            if prm.name == name:
                return prm
        if fn.cls:
            for cls in self.class_named(fn.cls):
                m = cls.members.get(name)
                if m is not None:
                    return m
        return None

    def field_owner(self, fn: Function, path: list[str]) -> str | None:
        """Unqualified name of the class whose member the last component
        of `path` names — `fr.base` is FramePlan's `base` when `fr` is a
        FramePlan; a bare name is a member of fn's own class. None when
        the owner cannot be told (an unresolved receiver, `auto`, a
        template or std type)."""
        if len(path) == 1:
            name = path[0]
            if name in fn.locals or any(p.name == name for p in fn.params):
                return None
            return fn.cls if self.lookup_var(fn, name) is not None else None
        var = self.resolve(fn, path[:-1])
        return class_of(var) if var is not None else None

    def resolve(self, fn: Function, path: list[str]) -> Local | None:
        """The declaration a member path `a.b.c` names inside `fn`."""
        var = self.lookup_var(fn, path[0])
        for member in path[1:]:
            owner = class_of(var) if var is not None else None
            if owner is None:
                return None
            var = next((c.members[member] for c in self.class_named(owner)
                        if member in c.members), None)
        return var

    def mark_thread_lambdas(self) -> None:
        """Sets Lambda.on_thread for every lambda handed to a thread
        constructor: `std::thread(..)` / `std::jthread(..)`, a thread
        local's constructor, or `emplace_back` / `emplace` / `push_back`
        into a container whose declared element type is a thread. Runs
        once every file is parsed, since the container may be a member
        declared in a header."""
        for fn in self.functions():
            for lam in fn.lambdas:
                lam.on_thread = self._spawns_thread(fn, lam)

    def _spawns_thread(self, fn: Function, lam: Lambda) -> bool:
        # A local constructed from the lambda: `std::thread t([..] {..});`.
        for loc in fn.locals.values():
            if loc.init is not None and loc.init[0] == lam.intro_tok:
                words = type_words(loc.type_text)
                return bool(words) and words[-1] in THREAD_TYPES
        # Otherwise the call the lambda is passed to as an argument.
        call = next((c for c in fn.calls
                     if any(lo == lam.intro_tok for lo, _ in c.args)), None)
        if call is None:
            return False
        if call.recv is None:
            return call.name in THREAD_TYPES
        if call.name not in THREAD_SINKS:
            return False
        var = self.resolve(fn, call.recv.split("."))
        if var is None:
            return False
        spelled = var.spelled_type or var.type_text
        _, _, args = spelled.partition("<")
        return any(w in THREAD_TYPES for w in type_words(args))


# Standard wrappers whose `->`, `*` or `[i]` reach a value of one of
# their template arguments: the index of that argument.
_HELD_ARG = {
    "unique_ptr": 0, "shared_ptr": 0, "weak_ptr": 0, "optional": 0,
    "vector": 0, "deque": 0, "array": 0, "list": 0, "span": 0,
    "map": 1, "unordered_map": 1, "multimap": 1,
}


def template_args(spelled: str) -> tuple[str, list[str]]:
    """`std::vector<std::thread>` → ("std::vector", ["std::thread"]):
    the outermost template name and its top-level arguments."""
    head, lt, rest = spelled.partition("<")
    if not lt:
        return spelled.strip(), []
    args, depth, cur = [], 0, ""
    for ch in rest:
        if ch == "<":
            depth += 1
        elif ch == ">":
            if depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(cur.strip())
            cur = ""
            continue
        cur += ch
    args.append(cur.strip())
    return head.strip(), args


def access_type(var: Local, via_pointee: bool) -> str:
    """The type a member access through `var` reaches. Through a
    pointee (`p->f()`, `v[i].f()`) of a smart pointer, optional or
    container, that is the held type — `std::unique_ptr<Scatter>`
    reaches `Scatter`; otherwise the declared type."""
    if via_pointee:
        head, args = template_args(var.spelled_type or var.type_text)
        words = type_words(head)
        index = _HELD_ARG.get(words[-1]) if words else None
        if index is not None and index < len(args):
            return args[index]
    return var.type_text


def type_words(text: str) -> list[str]:
    return re.findall(r"[A-Za-z_]\w*", text)


def class_of(var: Local) -> str | None:
    """The class a variable's declared type names (through const, `&`,
    `*` and namespace qualifiers); None for `auto`, templates and std
    types, whose fields the model cannot attribute."""
    spelled = var.spelled_type or var.type_text
    if "<" in spelled:
        return None
    words = [w for w in type_words(spelled)
             if w not in TYPE_PREFIX and w not in {"struct", "class",
                                                   "typename"}]
    if not words or "std" in words or words[-1] == "auto":
        return None
    return words[-1]


def parse_file(rel: str, text: str) -> FileModel:
    tokens, comments = cpptok.tokenize(text)
    return _Parser(rel, tokens, comments).parse()
