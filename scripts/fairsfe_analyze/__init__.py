"""fairsfe-analyze — the static-analysis tool for the fairsfe tree.

One pipeline enforces the determinism contract (DESIGN.md §14), from
per-line pattern rules to cross-TU dataflow:

  1. tokenizer.py   a genuine C++ tokenizer (raw strings, digit separators,
                    nested templates, comments) producing (kind, text, line,
                    col) tokens, and the code-only line view built from them;
  2. tu.py          a per-translation-unit structural pass over the token
                    stream: function/scope tracking, statement-level flow
                    facts, Rng fork/draw events, message-kind call sites,
                    taint-source annotations, struct field tables;
  3. line_rules.py  the per-line rules (nondeterminism sources, pointer-keyed
                    and unordered containers, Rng fork discipline, bare
                    assert, layer-boundary bans) run on the code-only view;
  4. analyses.py    the global analyses over the merged per-TU facts — Rng
                    stream lineage, secret-flow taint, message-schema
                    conformance, cross-TU unordered iteration — and the one
                    rule table;
  5. driver.py      compile_commands-aware TU collection, a content-hash
                    facts cache, parallel extraction, LINT-ALLOW /
                    DECLASSIFY handling, and text/JSON/SARIF output.

The contracts enforced are the ones every number this reproduction reports
rests on: no hash-ordered or wall-clock input reaching messages,
pairwise-independent forked Rng streams, secrets never reaching
transcripts/logs/wire frames unmasked, and sender/receiver agreement on
message kinds. `--list-rules` prints every rule with its scope.
"""

ANALYZER_NAME = "fairsfe-analyze"
# Bump whenever extraction or analysis semantics change: the version is part
# of the per-TU cache key, so stale facts can never survive an upgrade.
ANALYZER_VERSION = "2.1.0"  # 2.1: range-for over member chains
