#!/usr/bin/env python3
"""m3_lint: project-invariant checks the C++ compiler cannot express.

The counter/trace plumbing spans files that must stay in lockstep
(exec::PipelineStats, its serialization, and the pipeline's span
instrumentation). Each rule below guards one invariant that has
historically drifted silently — a counter added to the struct but not to
ToJson() simply vanishes from every bench report and trace.

Rules (see docs/CORRECTNESS.md for the policy and how to extend):
  counter-serialized  every PipelineStats field is accumulated in
                      operator+=, emitted as a ToJson() key, and parsed
                      back in FromJson().
  span-coverage       every ChunkPipeline stage (pass, prefetch, compute,
                      retire, evict) carries an "exec" span (ScopedSpan or
                      OBS_SPAN).
  hot-loop-blocking   no mutex/blocking call inside the *timed window*
                      (util::Stopwatch watch; ... watch.ElapsedSeconds())
                      of the prefetch/compute/retire/evict stage bodies,
                      nor in the stage-callee bodies those windows call
                      through (CsrByteMap's ChunkByteMap overrides) —
                      blocking there poisons the stage seconds the perf
                      model is fit against. The pass driver is exempt: it
                      orchestrates, so it legitimately waits.
  bench-trace         every bench/bench_*.cc registers a --trace flag and
                      drives it through bench::TraceSession.

Exit status: 0 clean; 1 violations (one "path:line: [rule] message" per
finding); 2 usage/internal error. Rules whose input files are absent are
skipped with a note — pass --strict (CI does) to turn skips into errors.
"""

import argparse
import os
import re
import sys

# Stages of exec::ChunkPipeline. "pass" is the driver: spanned, but exempt
# from hot-loop-blocking (it waits on workers by design).
PIPELINE_STAGES = ("pass", "prefetch", "compute", "retire", "evict")
HOT_STAGES = ("prefetch", "compute", "retire", "evict")

# Function bodies that run INSIDE the timed stage windows but live in
# another file: the sparse pipeline's ChunkByteMap overrides, which the
# prefetch/compute stages call per chunk. A blocking call there is
# charged to stage time exactly as if it sat in chunk_pipeline.cc, so
# the hot-loop-blocking rule scans these bodies too (a per-line scan of
# chunk_pipeline.cc alone is blind to them).
HOT_CALLEE_BODIES = {
    "src/core/sparse_mapped_dataset.cc":
        ("CsrByteMap::AppendSpans", "CsrByteMap::Extent"),
}

# Tokens that block or syscall; none may sit inside a timed stage window.
BLOCKING_TOKENS = (
    "std::mutex", "lock_guard", "unique_lock", "scoped_lock", ".lock()",
    "->lock()", "sleep_for", "sleep_until", "usleep", "std::cout",
    "std::cerr", "printf", "fprintf", "fopen", "ifstream", "ofstream",
    "->Wait()", "condition_variable",
)

FIELD_RE = re.compile(r"^\s*(uint64_t|double)\s+(\w+)\s*=")


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        self.skips = []

    def finding(self, rel, line, rule, message):
        self.findings.append(f"{rel}:{line}: [{rule}] {message}")

    def read(self, rel):
        path = os.path.join(self.root, rel)
        if not os.path.isfile(path):
            return None
        with open(path, encoding="utf-8") as f:
            return f.read()

    def skip(self, rule, rel):
        self.skips.append(f"note: [{rule}] skipped — {rel} not found")

    # ---- parsing helpers ------------------------------------------------

    @staticmethod
    def brace_block(text, start):
        """Return (body, end_index) for the {...} block opening at/after start."""
        open_idx = text.index("{", start)
        depth = 0
        for i in range(open_idx, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return text[open_idx + 1:i], i
        raise ValueError("unbalanced braces")

    def struct_fields(self, text, struct_name):
        """-> {field: (type, line)} for uint64_t/double members of struct."""
        match = re.search(r"struct\s+%s\b" % struct_name, text)
        if match is None:
            return None
        body, _ = self.brace_block(text, match.end())
        base_line = text.count("\n", 0, match.start()) + 1
        fields = {}
        for offset, line in enumerate(body.splitlines()):
            m = FIELD_RE.match(line)
            if m:
                fields[m.group(2)] = (m.group(1), base_line + offset + 1)
        return fields

    def function_body(self, text, signature_re):
        match = re.search(signature_re, text)
        if match is None:
            return None
        body, _ = self.brace_block(text, match.end())
        return body

    # ---- rules ----------------------------------------------------------

    def check_counter_plumbing(self):
        stats_h = self.read("src/exec/pipeline_stats.h")
        stats_cc = self.read("src/exec/pipeline_stats.cc")
        if stats_h is None or stats_cc is None:
            self.skip("counter-serialized", "src/exec/pipeline_stats.h or "
                      "src/exec/pipeline_stats.cc")
            return
        fields = self.struct_fields(stats_h, "PipelineStats")
        if fields is None:
            self.skip("counter-serialized", "struct PipelineStats")
            return

        # Rule: counter-serialized — every field lands in every sink.
        sinks = {
            "operator+=": self.function_body(
                stats_cc, r"PipelineStats&\s*PipelineStats::operator\+="),
            "ToJson()": self.function_body(
                stats_cc, r"std::string\s+PipelineStats::ToJson"),
            "FromJson()": self.function_body(
                stats_cc, r"PipelineStats::FromJson\s*\("),
        }
        for sink, body in sinks.items():
            if body is None:
                self.skip("counter-serialized",
                          f"PipelineStats::{sink} body")
        for field, (ty, _) in sorted(fields.items()):
            kind = "counter" if ty == "uint64_t" else "field"
            for sink in ("operator+=", "FromJson()"):
                body = sinks[sink]
                if body is not None and \
                        re.search(r"\b%s\b" % field, body) is None:
                    self.finding(
                        "src/exec/pipeline_stats.cc", 1,
                        "counter-serialized",
                        f"{kind} '{field}' missing from "
                        f"PipelineStats::{sink} — it will silently "
                        "read as zero downstream")
            body = sinks["ToJson()"]
            if body is not None and f'\\"{field}\\"' not in body:
                self.finding(
                    "src/exec/pipeline_stats.cc", 1, "counter-serialized",
                    f"field '{field}' has no \"{field}\" key in "
                    "PipelineStats::ToJson() — bench JSON and trace "
                    "metadata will omit it")

    def check_span_coverage(self):
        rel = "src/exec/chunk_pipeline.cc"
        text = self.read(rel)
        if text is None:
            self.skip("span-coverage", rel)
            return
        for stage in PIPELINE_STAGES:
            pattern = (r'(ScopedSpan\s+\w+|OBS_SPAN)\s*\(\s*"exec"\s*,\s*"'
                       + re.escape(stage) + r'"')
            if re.search(pattern, text) is None:
                self.finding(
                    rel, 1, "span-coverage",
                    f"pipeline stage '{stage}' has no "
                    f'obs span ("exec", "{stage}") — traces will show a '
                    "hole where this stage ran")

    def check_hot_loop_blocking(self):
        rel = "src/exec/chunk_pipeline.cc"
        text = self.read(rel)
        if text is None:
            self.skip("hot-loop-blocking", rel)
            return
        lines = text.splitlines()
        for stage in HOT_STAGES:
            span_re = re.compile(
                r'(ScopedSpan\s+\w+|OBS_SPAN)\s*\(\s*"exec"\s*,\s*"'
                + re.escape(stage) + r'"')
            for i, line in enumerate(lines):
                if span_re.search(line) is None:
                    continue
                # Timed window: the Stopwatch after the span to its first
                # ElapsedSeconds() read.
                start = end = None
                for j in range(i + 1, min(i + 40, len(lines))):
                    if start is None and "util::Stopwatch" in lines[j]:
                        start = j
                    elif start is not None and "ElapsedSeconds()" in lines[j]:
                        end = j
                        break
                if start is None or end is None:
                    continue  # untimed span sites are fine
                for j in range(start + 1, end):
                    for token in BLOCKING_TOKENS:
                        if token in lines[j]:
                            self.finding(
                                rel, j + 1, "hot-loop-blocking",
                                f"'{token}' inside the timed window of the "
                                f"'{stage}' stage — blocking here is "
                                "counted as stage time and skews the "
                                "fitted perf model; move it past "
                                "ElapsedSeconds()")

    def check_hot_callee_bodies(self):
        for rel, callees in HOT_CALLEE_BODIES.items():
            text = self.read(rel)
            if text is None:
                self.skip("hot-loop-blocking", rel)
                continue
            for callee in callees:
                match = re.search(re.escape(callee) + r"\s*\(", text)
                if match is None:
                    self.skip("hot-loop-blocking", f"{rel} {callee}")
                    continue
                try:
                    body, _ = self.brace_block(text, match.end())
                except ValueError:
                    continue
                base_line = text.count(
                    "\n", 0, text.index("{", match.end())) + 1
                for offset, line in enumerate(body.splitlines()):
                    for token in BLOCKING_TOKENS:
                        if token in line:
                            self.finding(
                                rel, base_line + offset,
                                "hot-loop-blocking",
                                f"'{token}' in {callee}, which runs "
                                "inside the timed prefetch/compute "
                                "windows — blocking here is counted as "
                                "stage time and skews the fitted perf "
                                "model")

    def check_bench_trace(self):
        bench_dir = os.path.join(self.root, "bench")
        if not os.path.isdir(bench_dir):
            self.skip("bench-trace", "bench/")
            return
        for name in sorted(os.listdir(bench_dir)):
            if not (name.startswith("bench_") and name.endswith(".cc")):
                continue
            rel = f"bench/{name}"
            text = self.read(rel)
            # Two accepted registration idioms: the flags helper, or a
            # hand-parsed "--trace" (bench_kernels: google-benchmark owns
            # argv and rejects flags it does not recognize).
            if 'AddString("trace"' not in text and '"--trace"' not in text:
                self.finding(
                    rel, 1, "bench-trace",
                    'bench binary does not register a --trace flag '
                    '(flags.AddString("trace", ...)) — every bench must be '
                    "traceable (see bench/bench_common.h)")
            elif "TraceSession" not in text:
                self.finding(
                    rel, 1, "bench-trace",
                    "--trace flag registered but never handed to "
                    "bench::TraceSession — the flag is dead")

    # ---- driver ---------------------------------------------------------

    def run(self):
        self.check_counter_plumbing()
        self.check_span_coverage()
        self.check_hot_loop_blocking()
        self.check_hot_callee_bodies()
        self.check_bench_trace()
        return self.findings, self.skips


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repo root (or fixture tree) to lint")
    parser.add_argument("--strict", action="store_true",
                        help="treat skipped rules (missing files) as errors")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()
    if args.list_rules:
        print("counter-serialized span-coverage hot-loop-blocking "
              "bench-trace")
        return 0
    if not os.path.isdir(args.root):
        print(f"m3_lint: no such directory: {args.root}", file=sys.stderr)
        return 2
    findings, skips = Linter(args.root).run()
    for note in skips:
        print(note, file=sys.stderr)
    for finding in findings:
        print(finding)
    if findings:
        print(f"m3_lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    if args.strict and skips:
        print("m3_lint: --strict and rules were skipped", file=sys.stderr)
        return 1
    print("m3_lint: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
