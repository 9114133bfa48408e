"""atomic-order: relaxed needs a why; hot paths never default seq_cst.

Two sub-checks, one rule family (both emitted under [atomic-order]):

relaxed-needs-why — every `std::memory_order_relaxed` use carries the
why-relaxed comment convention (the pread backend's "Relaxed: completed
is a pure counter; ..." in src/io/prefetch_backend.cc is an exemplar): a
comment containing the word "relaxed" on the same line or within 12
lines above. Relaxed is correct exactly when no other memory is published
through the atomic — a claim that must be written down where the next
editor will see it, because nothing else stops them from hanging data
off a flag whose ordering silently forgoes visibility.

hot-path-seq-cst — inside the hot-path files (HOT_PATH_FILES below:
the pipeline stage driver, the shm fleet channel, the trace recorder)
every atomic member op (.load/.store/.exchange/.fetch_*/
.compare_exchange_*) must spell its memory_order argument. A defaulted
op is seq_cst: correct, but silently so — on the files where a fence
per chunk/event is measurable, ordering choices must be explicit and
reviewable. (Token-level limitation, documented: `++`/`--`/`+=` on
atomics also default to seq_cst but are type-invisible without an AST;
the hot-path files use named ops exclusively, which this rule ratchets.)
"""

from .. import engine, lexer

# Root-relative substrings of the files where defaulted seq_cst is
# flagged. Fixture trees mirroring the layout are audited identically.
HOT_PATH_FILES = (
    "src/exec/chunk_pipeline.cc",
    "src/io/shm_channel.cc",
    "src/obs/trace_recorder.cc",
)

_RELAXED_LOOKBACK = 12

# Named atomic member ops with a memory_order parameter. `.wait()` is
# deliberately absent: std::future/condition_variable spell it too, and
# a type-blind token match would misfire on the pipeline's futures.
_ATOMIC_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}


@engine.rule(
    "atomic-order",
    "memory_order_relaxed carries a why-relaxed comment; hot-path "
    "atomics spell their ordering")
class AtomicOrderRule:
    def run(self, ctx):
        findings = []
        for source in ctx.files:
            self._check_relaxed_comments(source, findings)
            if any(p in source.rel for p in HOT_PATH_FILES):
                self._check_hot_path_orders(source, findings)
        return findings

    @staticmethod
    def _check_relaxed_comments(source, findings):
        seen_lines = set()
        for tok in source.code:
            if tok.kind != lexer.IDENT or \
                    tok.text != "memory_order_relaxed":
                continue
            if tok.line in seen_lines:
                continue  # one finding per line (store+load pairs)
            seen_lines.add(tok.line)
            if source.comment_near(tok.line, _RELAXED_LOOKBACK, "relaxed"):
                continue
            findings.append(engine.Finding(
                source.rel, tok.line, "atomic-order",
                "memory_order_relaxed without a why-relaxed comment — "
                "state (within 12 lines above) why no other memory is "
                "published through this atomic, or strengthen the "
                "ordering (docs/CORRECTNESS.md, 'why-relaxed')"))

    @staticmethod
    def _check_hot_path_orders(source, findings):
        code = source.code
        for i, tok in enumerate(code):
            if tok.kind != lexer.IDENT or tok.text not in _ATOMIC_OPS:
                continue
            if i == 0 or code[i - 1].text not in (".", "->"):
                continue  # free function or declaration, not a member op
            if i + 1 >= len(code) or code[i + 1].text != "(":
                continue
            close = lexer.match_forward(code, i + 1)
            if close is None:
                continue
            args = code[i + 2:close]
            if any(t.kind == lexer.IDENT
                   and t.text.startswith("memory_order") for t in args):
                continue
            # `.load()` on non-atomics does not exist in the hot-path
            # files by construction; the member-op name set above is the
            # audited vocabulary there.
            findings.append(engine.Finding(
                source.rel, tok.line, "atomic-order",
                f"'.{tok.text}(...)' in a hot-path file defaults to "
                "seq_cst — spell the memory_order argument (and the "
                "reasoning, if weaker than seq_cst) so ordering choices "
                "stay explicit on the per-chunk/per-event path"))
