"""Line rules: the determinism contract's per-line pattern checks.

Each rule is a set of regexes matched against the code-only view of a line
(tokenizer.code_lines: comments, string/char literals and preprocessor
directives blanked at their columns), so prose, log strings and raw strings
never trip a rule and findings keep real columns. Rules about `#include`
match the folded preprocessor tokens instead; `uninitialized-pod-member`
matches only lines of statements directly inside a class body (tu.py's class
scopes). Heuristic and line-based by design: wrong in the rare multi-line
declaration, and blind to macro bodies.

check() runs during fact extraction, so its findings are cached with the
TU's other facts. unordered-iteration needs the unordered declarations of
the headers a TU includes, so extraction only records each TU's declared
identifiers, includes and iteration sites; unordered_iteration() joins them
in the global pass.
"""

import posixpath
import re
from collections import namedtuple

# The message/transcript-producing layers.
PROTOCOL_DIRS = ("src/sim", "src/mpc", "src/fair", "src/adversary")

# only:    path prefixes the rule is confined to (None = everywhere);
# exempt:  path prefixes (or files) it never applies to;
# code / members / pp: regexes for code-line views / class-member lines /
#          preprocessor directives. The first matching regex of a list is
#          the line's one finding for the rule.
LineRule = namedtuple("LineRule", "name message only exempt code members pp")


def _rule(name, message, only=None, exempt=(), code=(), members=(), pp=()):
    return LineRule(name, message, only, exempt,
                    *([re.compile(p) for p in pats]
                      for pats in (code, members, pp)))


RULES = [
    _rule("nondeterminism",
          "nondeterminism source — all randomness must come from a forked "
          "Rng stream and wall time only from steady_clock",
          code=[r"\brandom_device\b", r"\bsrand\b", r"(?<![\w.>])rand\s*\(",
                r"(?<![\w.>])time\s*\(", r"(?<![\w.>])clock\s*\(",
                r"\bsystem_clock\b", r"\bhigh_resolution_clock\b"]),
    _rule("pointer-keyed-order",
          "associative container keyed by pointer iterates in address order, "
          "which ASLR randomizes per process",
          code=[r"\b(?:unordered_)?(?:multi)?(?:map|set)<\s*(?:const\s+)?"
                r"[\w:]+(?:<[^<>]*>)?\s*\*"]),
    _rule("unordered-container",
          "unordered container in a message-producing layer: prove its "
          "iteration order is never protocol-visible in a LINT-ALLOW, or use "
          "an ordered/indexed structure",
          only=PROTOCOL_DIRS, code=[r"\bunordered_(?:map|set)\s*<"]),
    # Matched across TUs by unordered_iteration(), not by check().
    _rule("unordered-iteration",
          "iteration order of an unordered container is hash/seed-dependent "
          "and must never reach messages or transcripts",
          only=PROTOCOL_DIRS),
    _rule("rng-fork-discipline",
          "derive Rng streams with fork()/fork_at(); never copy a stream, "
          "re-seed from another stream's draw, or hard-code a seed in src/",
          only=("src",),
          code=[r"\bRng\s+\w+\s*=\s*\w+\s*;",                  # Rng a = rng;
                r"\bRng(?:\s+\w+)?\s*[({][^;]*\.\s*u64\s*\(\)",  # Rng(rng.u64())
                r"\bRng(?:\s+\w+)?\s*[({]\s*\d"]),                # Rng(42)
    _rule("uninitialized-pod-member",
          "scalar member without initializer: reading it is UB and "
          "value-nondeterministic — default-initialize it",
          only=("src/crypto",),
          members=[r"^(?!.*\b(?:static|constexpr|using|typedef|friend|"
                   r"operator)\b)\s*(?:mutable\s+)?(?:std::)?"
                   r"(?:u?int(?:8|16|32|64|ptr)?_t|size_t|ptrdiff_t|bool|char"
                   r"|short|int|long(?:\s+long)?|unsigned(?:\s+(?:char|short"
                   r"|int|long))?|float|double|std::array<[^;={]*>)"
                   r"\s+\w+(?:\s*\[[^\]]*\])?\s*;\s*$"]),
    _rule("bare-assert",
          "use FAIRSFE_CHECK/FAIRSFE_DCHECK from util/check.h, not assert()",
          only=("src",), exempt=("src/util/check.h",),
          code=[r"\bassert\s*\("], pp=[r"#\s*include\s*<cassert>"]),
    _rule("direct-ot-access",
          "direct OT-hybrid access outside src/mpc: obtain the slot via "
          "mpc::make_gmw_functionality()/make_ot_functionality() so the "
          "offline/online PreprocMode substitution stays a config switch",
          exempt=("src/mpc", "tests"),
          code=[r"\bOtHub\b", r"\bencode_ot_send\w*\s*\("]),
    _rule("lane-word-shares",
          "raw lane-word share arithmetic outside src/util|circuit|mpc: use "
          "the SlicedBatchFn / SlicedGmwRunner surface (mpc/gmw_sliced.h) so "
          "lane masking and draw order stay inside the audited boundary",
          exempt=("src/util", "src/circuit", "src/mpc", "tests"),
          code=[r"\bLaneWord\b", r"\btranspose64x64\b",
                r"\btranspose_(?:to|from)_words\b"]),
    # A PayoffVector brace-init with contents, direct (`PayoffVector{0.25,
    # ...}`) or named (`PayoffVector g{g11 / 2, ...}`); value-init `{}` and
    # the default constructor carry no literal and stay legal.
    _rule("gamma-literal",
          "raw PayoffVector brace-literal outside src/rpd: use a named "
          "rpd::payoff preset (src/rpd/payoff.h) so each gamma's value is "
          "defined exactly once",
          exempt=("src/rpd", "tests"),
          code=[r"\bPayoffVector\s*(?:\w+\s*)?\{[^}]"]),
    # The call lookbehind excludes word chars (tcp_connect/unix_connect
    # wrappers), member access `.`/`->` (listener methods) and a preceding
    # `:` (qualified `net::...`/`std::bind`; a bare `::socket(` still
    # matches from the `::`).
    _rule("raw-socket-access",
          "raw socket API outside src/net: use net::Stream / "
          "net::TcpListener / net::UnixListener / net::tcp_connect* "
          "(src/net/socket.h) so the process's network surface stays "
          "auditable in one place",
          exempt=("src/net",),
          code=[r"(?<![\w.>:])(?:::\s*)?(?:socket|bind|listen|accept|connect)"
                r"\s*\("],
          pp=[r"#\s*include\s*<(?:sys/socket\.h|sys/un\.h|netinet/[\w.]+"
              r"|arpa/inet\.h|netdb\.h)>"]),
]
_ITERATION = next(r for r in RULES if r.name == "unordered-iteration")

UNORDERED_DECL_RE = re.compile(r"unordered_(?:map|set)<[^;]*>\s+(\w+)\s*[;{=]")
INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')
RANGE_FOR_RE = re.compile(r"for\s*\(([^;)]*)")
# The range source's last identifier: `slots_` in `: slots_`, `: this->slots_`
# and `: r.owner->slots_` alike.
RANGE_SOURCE_RE = re.compile(r":\s*(?:\w+\s*(?:\.|->)\s*)*(\w+)")
ITERATOR_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*(?:c?begin|c?end)\s*\(")


def under(path, prefixes):
    return any(path == d or path.startswith(d + "/") for d in prefixes)


def in_scope(rule, path):
    return ((rule.only is None or under(path, rule.only))
            and not under(path, rule.exempt))


def scope(rule):
    """Human-readable scope for --list-rules and SARIF."""
    text = ", ".join(rule.only) if rule.only else "everywhere"
    return text + (" except " + ", ".join(rule.exempt) if rule.exempt else "")


def _finding(rule, path, line, col, message):
    return {"rule": rule.name, "path": path, "line": line, "col": col,
            "message": message}


def check(relpath, tokens, lines, member_lines):
    """Findings of every in-scope line rule except unordered-iteration.
    `lines` is tokenizer.code_lines(); `member_lines` the line numbers of
    statements directly inside a class body."""
    code = [(n, 1, text) for n, text in enumerate(lines, start=1) if text]
    members = [c for c in code if c[0] in member_lines]
    pps = [(t.line, t.col, t.text) for t in tokens if t.kind == "pp"]
    findings = []
    for rule in RULES:
        if not in_scope(rule, relpath):
            continue
        for pats, view in ((rule.code, code), (rule.members, members),
                           (rule.pp, pps)):
            for lineno, col, text in (view if pats else ()):
                for pat in pats:
                    m = pat.search(text)
                    if m:
                        hit = m.group(0)
                        at = col + m.start() + len(hit) - len(hit.lstrip())
                        findings.append(_finding(
                            rule, relpath, lineno, at, "%s (matched `%s`)"
                            % (rule.message, hit.strip())))
                        break
    return findings


def iteration_facts(relpath, tokens, lines):
    """Facts unordered_iteration() joins across TUs: the identifiers this TU
    declares with an unordered type, its quoted includes, and (in scope
    only) its iteration sites as [line, col, identifier]."""
    sites = []
    if in_scope(_ITERATION, relpath):
        for lineno, text in enumerate(lines, start=1):
            for m in RANGE_FOR_RE.finditer(text):
                for s in RANGE_SOURCE_RE.finditer(m.group(1)):
                    sites.append([lineno, m.start(1) + s.start(1) + 1,
                                  s.group(1)])
            for m in ITERATOR_CALL_RE.finditer(text):
                sites.append([lineno, m.start(1) + 1, m.group(1)])
    return {
        "unordered_idents": sorted(set(
            UNORDERED_DECL_RE.findall("\n".join(lines)))),
        "includes": [m.group(1) for m in (
            INCLUDE_RE.match(t.text) for t in tokens if t.kind == "pp") if m],
        "iteration_sites": sites,
    }


def unordered_iteration(facts_list):
    """Iteration over an identifier declared with an unordered type in the TU
    itself or in an in-repo header it includes directly (resolved against
    src/, then the including file's directory)."""
    by_path = {f["relpath"]: f for f in facts_list}
    findings = []
    for facts in facts_list:
        if not facts["iteration_sites"]:
            continue
        path = facts["relpath"]
        idents = set(facts["unordered_idents"])
        for inc in facts["includes"]:
            for cand in ("src/" + inc, posixpath.normpath(
                    posixpath.join(posixpath.dirname(path), inc))):
                if cand in by_path:
                    idents.update(by_path[cand]["unordered_idents"])
                    break
        flagged = set()
        for line, col, ident in facts["iteration_sites"]:
            if ident in idents and line not in flagged:
                flagged.add(line)
                findings.append(_finding(
                    _ITERATION, path, line, col, "%s (iterates `%s`)"
                    % (_ITERATION.message, ident)))
    return findings
