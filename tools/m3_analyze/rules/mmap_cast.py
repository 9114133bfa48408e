"""mmap-cast: typed-pointer casts out of mapped byte regions need guards.

The M3 data plane is mmap'd bytes reinterpreted as typed arrays; a cast
whose offset is not provably aligned is undefined behavior that only
detonates on hosts/UBSan runs where the layout shifts (PR 7 fixed two of
these by hand in idx_format and edge_list — this rule closes the
recurrence hole). Inside the audited modules (the ones that reinterpret
mmap'd or shm bytes) every `reinterpret_cast<T*>` — and C-style pointer
cast `(T*)` — from a byte pointer must be DOMINATED by one of:

  * a `% alignof(T)` runtime check or `static_assert` on alignof in the
    same function body (edge_list.cc's payload check is the exemplar);
  * file-level `static_assert(... alignof(T) ...)`;
  * a `// m3-aligned: <why>` comment on the cast line or up to 3 lines
    above, citing the invariant that makes the offset aligned (e.g. the
    ReadDatasetMeta/ReadSparseDatasetMeta section-offset validation, or
    page-aligned shm slot bases plus 8-byte-multiple layout offsets).

Byte-pointer targets (char / uint8_t / std::byte / void) and integral
targets (uintptr_t — itself the alignment-check idiom) are exempt.
Token-level by design: the justification convention lives in comments,
which an AST does not carry.
"""

import re

from .. import engine, lexer

# Modules whose casts reinterpret mapped/shm regions. Matched as a
# substring of the root-relative path, so fixture trees mirroring the
# layout are audited identically.
AUDITED_PATHS = (
    "src/io/mmap_file",
    "src/io/shm_channel",
    "src/data/",
    "src/graph/edge_list",
    "src/core/mapped_dataset",
    "src/core/sparse_mapped_dataset",
    "src/cluster/driver",
    "src/cluster/process_fleet",
)

# Pointee base types that are themselves byte pointers: always aligned.
_BYTE_TYPES = {"char", "uint8_t", "int8_t", "byte", "void", "uchar"}

_SUPPRESS_MARK = "m3-aligned:"
_SUPPRESS_LOOKBACK = 3

# C-style pointer cast `(const T* )expr` — only flagged for this closed
# set of reinterpretation-prone scalar types, to keep the token-level
# pattern from matching parenthesized multiplications.
_C_CAST_TYPES = {"double", "float", "uint16_t", "uint32_t", "uint64_t",
                 "int16_t", "int32_t", "int64_t", "size_t"}


def _parse_cast_target(code, lt_index):
    """-> (base_type, is_pointer) for the `<...>` at lt_index."""
    gt = lexer.match_forward(code, lt_index)
    if gt is None:
        return None, False
    inner = code[lt_index + 1:gt]
    names = [t.text for t in inner
             if t.kind == lexer.IDENT and t.text not in
             ("const", "volatile", "struct", "std")]
    stars = any(t.text == "*" for t in inner)
    base = names[-1] if names else None
    return base, stars


def _function_guard(source, cast_index, base):
    """alignof(<base>) appearing in the enclosing function body."""
    code = source.code
    span = lexer.enclosing_function_body(code, cast_index)
    if span is None:
        return False
    lo, hi = span
    for i in range(lo, hi):
        if code[i].kind == lexer.IDENT and code[i].text == "alignof":
            # alignof(base) or alignof(decltype(...)): accept any alignof
            # naming the base type inside its parens.
            close = lexer.match_forward(code, i + 1) \
                if i + 1 < hi and code[i + 1].text == "(" else None
            if close is None:
                continue
            inside = {t.text for t in code[i + 1:close]}
            if base in inside or "decltype" in inside:
                return True
    return False


def _file_static_assert_guard(source, base):
    pattern = re.compile(
        r"static_assert\s*\([^;]*alignof\s*\(\s*(?:const\s+)?"
        + re.escape(base) + r"\b")
    return pattern.search(source.text) is not None


def _comment_guard(source, line):
    return source.comment_near(line, _SUPPRESS_LOOKBACK, _SUPPRESS_MARK)


def _check_cast(source, findings, cast_index, base, line, spelled):
    if base is None or base in _BYTE_TYPES:
        return
    if _comment_guard(source, line):
        return
    if _function_guard(source, cast_index, base):
        return
    if _file_static_assert_guard(source, base):
        return
    findings.append(engine.Finding(
        source.rel, line, "mmap-cast",
        f"{spelled} to '{base}*' in a mapped-region module with no "
        f"dominating alignment guard — add a `% alignof({base})` check "
        f"or static_assert in this function, or justify with "
        f"`// {_SUPPRESS_MARK} <invariant that aligns this offset>`"))


@engine.rule(
    "mmap-cast",
    "casts from mapped byte regions to typed pointers carry an "
    "alignment guard or justification")
class MmapCastRule:
    def run(self, ctx):
        findings = []
        for source in ctx.files:
            if not any(p in source.rel for p in AUDITED_PATHS):
                continue
            code = source.code
            for i, tok in enumerate(code):
                if tok.kind != lexer.IDENT:
                    continue
                if tok.text == "reinterpret_cast":
                    if i + 1 >= len(code) or code[i + 1].text != "<":
                        continue
                    base, is_ptr = _parse_cast_target(code, i + 1)
                    if not is_ptr:
                        continue  # integral target: uintptr_t idiom
                    _check_cast(source, findings, i, base, tok.line,
                                "reinterpret_cast")
                elif tok.text in _C_CAST_TYPES and i >= 1 and i + 1 < \
                        len(code):
                    # `( [const] T * ... ) expr` with expr an identifier
                    # or parenthesized expression.
                    j = i - 1
                    if code[j].text == "const":
                        j -= 1
                    if code[j].text != "(":
                        continue
                    k = i + 1
                    stars = 0
                    while k < len(code) and code[k].text == "*":
                        stars += 1
                        k += 1
                    if stars == 0 or k >= len(code) or \
                            code[k].text != ")":
                        continue
                    if k + 1 >= len(code) or not (
                            code[k + 1].kind == lexer.IDENT
                            or code[k + 1].text == "("):
                        continue
                    if code[k + 1].kind == lexer.IDENT and \
                            code[k + 1].text in ("const", "constexpr"):
                        continue  # parameter list, not a cast
                    _check_cast(source, findings, i, tok.text, tok.line,
                                "C-style cast")
        return findings
