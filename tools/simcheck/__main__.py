"""simcheck driver.

Usage (from the repo root):

    python3 tools/simcheck [-p compile_commands.json] [-q]
    python3 tools/simcheck --self-test

Two-phase pipeline:

  1. Every project file reachable from the src/, bench/ and examples/
     TUs (through resolved quoted/-I includes) is reduced to facts +
     declaration tables by the lexical frontend.  In clang mode each
     TU is additionally parsed with libclang for canonical-type
     tables.
  2. Tables are merged across files (alias chains run to fixpoint,
     same-name coroutine signatures merge conservatively — a
     parameter counts as by-reference only if every declaration
     agrees) and the rules in rules.py are evaluated.

A finding is waived by `// simcheck: allow(rule[, rule])` on its own
line or the line above.  Each rule takes at most ALLOW_BUDGET waivers
across the tree, so waivers stay rare and reviewed; the summary line
reports what is left.

Exit codes: 0 clean, 1 findings or budget exceeded, 2 environment or
usage error.
"""

import argparse
import json
import os
import re
import shlex
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    __package__ = "simcheck"

from . import clang_frontend, lex_frontend, rules
from .facts import FACT_INCLUDE, fact

SCOPE = ("src/", "bench/", "examples/")
ALLOW_BUDGET = 5
ALLOW_RE = re.compile(
    r"//\s*simcheck:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")

_KEEP_ARG_PREFIXES = ("-I", "-D", "-std=")
_KEEP_ARG_WITH_VALUE = ("-isystem", "-include")


def _read(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


# ---------------------------------------------------------------- TUs

class TU:
    __slots__ = ("rel", "abspath", "incdirs", "clang_args")

    def __init__(self, rel, abspath, incdirs, clang_args):
        self.rel = rel
        self.abspath = abspath
        self.incdirs = incdirs        # repo-relative include dirs
        self.clang_args = clang_args  # -I/-D/-std flags for libclang


def load_compile_commands(cc_path, root):
    try:
        entries = json.loads(_read(cc_path))
    except (OSError, ValueError) as e:
        raise SystemExit(f"simcheck: cannot read {cc_path}: {e}")
    tus = []
    for e in entries:
        directory = e.get("directory", root)
        file_ = e.get("file", "")
        argv = e.get("arguments") or shlex.split(e.get("command", ""))
        abspath = os.path.realpath(os.path.join(directory, file_))
        if not abspath.startswith(root + os.sep):
            continue
        rel = os.path.relpath(abspath, root)
        incdirs, clang_args = [], []
        i = 1
        while i < len(argv):
            a = argv[i]
            if a.startswith("-I"):
                d = a[2:] or (argv[i + 1] if i + 1 < len(argv) else "")
                if not a[2:]:
                    i += 1
                dabs = os.path.realpath(os.path.join(directory, d))
                clang_args.append("-I" + dabs)
                if dabs == root:
                    incdirs.append(".")
                elif dabs.startswith(root + os.sep):
                    incdirs.append(os.path.relpath(dabs, root))
            elif a.startswith(_KEEP_ARG_PREFIXES):
                clang_args.append(a)
            elif a in _KEEP_ARG_WITH_VALUE and i + 1 < len(argv):
                clang_args.extend([a, argv[i + 1]])
                i += 1
            i += 1
        tus.append(TU(rel, abspath, incdirs, clang_args))
    return tus


def resolve_include(rel_file, inc, quoted, incdirs, root):
    cands = []
    if quoted:
        cands.append(os.path.normpath(
            os.path.join(os.path.dirname(rel_file), inc)))
    for d in incdirs:
        cands.append(os.path.normpath(os.path.join(d, inc)))
    for c in cands:
        if c.startswith(".."):
            continue
        if os.path.isfile(os.path.join(root, c)):
            return c
    return None


# ------------------------------------------------------------ driver

class Analysis:
    def __init__(self, root, tus, frontend):
        self.root = root
        self.tus = [t for t in tus if t.rel.startswith(SCOPE)]
        self.frontend = frontend
        self.scans = {}        # rel -> scan_file() result
        self.texts = {}        # rel -> raw text
        self.include_facts = []
        self.notes = []

    # -- phase 1: discover + scan every reachable project file
    def scan_all(self):
        incdirs = sorted({d for t in self.tus for d in t.incdirs})
        queue = [t.rel for t in self.tus]
        seen = set(queue)
        # Breadth-first: the loop visits files appended while it runs.
        for rel in queue:
            try:
                text = _read(os.path.join(self.root, rel))
            except OSError as e:
                self.notes.append(f"unreadable: {rel}: {e}")
                continue
            self.texts[rel] = text
            scan = lex_frontend.scan_file(rel, text)
            self.scans[rel] = scan
            for lineno, inc, quoted in scan["raw_includes"]:
                target = resolve_include(rel, inc, quoted, incdirs,
                                         self.root)
                if target is None:
                    continue
                self.include_facts.append(fact(
                    FACT_INCLUDE, rel, lineno, target=target))
                if target not in seen:
                    seen.add(target)
                    queue.append(target)

    # -- phase 2: merge tables
    def merge(self):
        strong_vars, strong_ret, unordered = {}, {}, {}
        aliases, alias_vars = {}, {}
        coro_sigs = {}
        for scan in self.scans.values():
            strong_vars.update(scan["strong_vars"])
            strong_ret.update(scan["strong_ret_fns"])
            unordered.update(scan["unordered_names"])
            aliases.update(scan["aliases"])
            alias_vars.update(scan["alias_vars"])
            for c in scan["coro_fns"]:
                kinds = [p["kind"] for p in c["params"]]
                prev = coro_sigs.get(c["name"])
                if prev is not None and prev != kinds:
                    kinds = [a if a == b else "value"
                             for a, b in zip(prev, kinds)]
                coro_sigs[c["name"]] = kinds
        # Alias-of-alias chains to fixpoint: `using Y = X;` where X is
        # (transitively) an unordered alias makes Y one too.
        changed = True
        while changed:
            changed = False
            for k, v in alias_vars.items():
                if k.startswith("using:") and v in aliases:
                    name = k[len("using:"):]
                    if name not in aliases:
                        aliases[name] = 1
                        changed = True
        for var, tname in alias_vars.items():
            if not var.startswith("using:") and tname in aliases:
                unordered[var] = 1

        if self.frontend == "clang":
            for t in self.tus:
                r = clang_frontend.analyze_tu(
                    t.abspath, t.clang_args + ["-xc++"], self.root)
                strong_vars.update(r["strong_vars"])
                strong_ret.update(r["strong_ret_fns"])
                unordered.update(r["unordered_names"])
                for name, kinds in r["coro_sigs"].items():
                    prev = coro_sigs.get(name)
                    if prev is not None and prev != kinds:
                        kinds = [a if a == b else "value"
                                 for a, b in zip(prev, kinds)]
                    coro_sigs[name] = kinds
                if r["note"]:
                    self.notes.append(r["note"])
        return {"strong_vars": strong_vars, "strong_ret_fns": strong_ret,
                "unordered_names": unordered, "coro_sigs": coro_sigs,
                "aliases": aliases}

    # -- evaluate rules
    def findings(self):
        tables = self.merge()
        spawns, count_calls, iter_sites, facts = [], [], [], []
        for scan in self.scans.values():
            spawns.extend(scan["spawns"])
            count_calls.extend(scan["count_calls"])
            facts.extend(scan["facts"])
            # Resolve iteration sites per-file first: a local
            # declaration of the name (ordered or unordered) shadows
            # the merged global table — member names repeat across
            # classes, storage does not.
            for s in scan["iter_sites"]:
                n = s["name"]
                if n in scan["unordered_names"] or \
                        scan["alias_vars"].get(n) in tables["aliases"]:
                    s["unordered"] = True
                elif n in scan.get("ordered_names", {}):
                    s["unordered"] = False
                else:
                    s["unordered"] = n in tables["unordered_names"]
                iter_sites.append(s)
        out = []
        out.extend(rules.check_layering(self.include_facts))
        out.extend(rules.check_coro_lifetime(spawns,
                                             tables["coro_sigs"]))
        out.extend(rules.check_strong_type(count_calls,
                                           tables["strong_vars"],
                                           tables["strong_ret_fns"]))
        out.extend(rules.check_shard_safety(
            facts, iter_sites, tables["unordered_names"]))
        out.extend(rules.check_tokens(facts))
        uniq = {}
        for f in out:
            uniq.setdefault(f.key(), f)
        return sorted(uniq.values(),
                      key=lambda f: (f.file, f.line, f.rule))


# ------------------------------------------------------------ waivers

def collect_allows(texts):
    """{(file, rule): set of line numbers the allow covers}."""
    allowed = {}
    for rel, text in texts.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            for rule in re.split(r"\s*,\s*", m.group(1)):
                allowed.setdefault((rel, rule), set()).update(
                    (lineno, lineno + 1))
    return allowed


def apply_waivers(findings, allows):
    """Partition findings; returns (live, {rule: waivers used},
    budget_errors)."""
    live, used = [], {}
    for f in findings:
        if f.line in allows.get((f.file, f.rule), ()):
            used[f.rule] = used.get(f.rule, 0) + 1
        else:
            live.append(f)
    budget_errors = [
        f"allow budget exceeded for rule '{r}': {n} used, "
        f"budget {ALLOW_BUDGET}"
        for r, n in sorted(used.items()) if n > ALLOW_BUDGET]
    return live, used, budget_errors


# ---------------------------------------------------------- self-test

def self_test():
    here = os.path.dirname(os.path.abspath(__file__))
    fixdir = os.path.join(here, "fixtures")
    expected = json.loads(_read(os.path.join(fixdir, "expected.json")))
    tus = []
    for dirpath, dirnames, names in os.walk(fixdir):
        dirnames.sort()
        for n in sorted(names):
            if n.endswith(".cc"):
                p = os.path.join(dirpath, n)
                tus.append(TU(os.path.relpath(p, fixdir), p, ["src"],
                              ["-std=c++20",
                               "-I" + os.path.join(fixdir, "src")]))

    legs = ["lex"]
    if clang_frontend.available():
        legs.append("clang")
    else:
        print("simcheck self-test: libclang unavailable, "
              "clang-parity leg skipped", file=sys.stderr)
    failures = []
    for frontend in legs:
        ana = Analysis(fixdir, tus, frontend)
        ana.scan_all()
        live, used, berr = apply_waivers(ana.findings(),
                                         collect_allows(ana.texts))
        got = {}
        for f in live:
            got.setdefault(f.file, {})
            got[f.file][f.rule] = got[f.file].get(f.rule, 0) + 1
        if got != expected["findings"]:
            failures.append(
                f"[{frontend}] finding counts mismatch:\n"
                f"  expected {json.dumps(expected['findings'], sort_keys=True)}\n"
                f"  got      {json.dumps(got, sort_keys=True)}")
            for f in live:
                print(f"  [{frontend}] {f}")
        if used != expected["allows_used"]:
            failures.append(
                f"[{frontend}] allows_used mismatch: expected "
                f"{expected['allows_used']}, got {used}")
        if berr:
            failures.append(f"[{frontend}] unexpected budget error: "
                            f"{berr}")
        for n in ana.notes:
            print(f"  note [{frontend}]: {n}", file=sys.stderr)

    if failures:
        print("simcheck self-test FAILED:")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 1
    # Machine-readable per-rule totals: tests/test_lint_tools.cc pins
    # this line, so the fixture corpus cannot silently shrink.
    totals = {}
    for per_file in expected["findings"].values():
        for rule, n in per_file.items():
            totals[rule] = totals.get(rule, 0) + n
    print("simcheck self-test counts: "
          + " ".join(f"{r}={totals[r]}" for r in sorted(totals)))
    print(f"simcheck self-test OK ({'+'.join(legs)}; "
          f"{sum(totals.values())} expected findings reproduced)")
    return 0


# --------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="simcheck",
        description="determinism analyzer for the simulator sources "
                    "(see tools/simcheck/__init__.py)")
    ap.add_argument("-p", "--compile-commands", default=None,
                    help="compile_commands.json (default: "
                         "./build/compile_commands.json or "
                         "./compile_commands.json)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite (with the clang leg "
                         "when libclang imports) and exit")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="omit the summary line")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = os.path.realpath(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    cc = args.compile_commands
    if cc is None:
        for cand in (os.path.join(root, "build",
                                  "compile_commands.json"),
                     os.path.join(root, "compile_commands.json")):
            if os.path.isfile(cand):
                cc = cand
                break
    if cc is None or not os.path.isfile(cc):
        print("simcheck: no compile_commands.json found; configure "
              "with cmake -B build -S . (CMAKE_EXPORT_COMPILE_COMMANDS "
              "is on by default) or pass -p", file=sys.stderr)
        return 2

    frontend = "clang" if clang_frontend.available() else "lex"
    ana = Analysis(root, load_compile_commands(cc, root), frontend)
    if not ana.tus:
        print(f"simcheck: no TUs under {', '.join(SCOPE)} in {cc}",
              file=sys.stderr)
        return 2
    ana.scan_all()
    live, used, budget_errors = apply_waivers(ana.findings(),
                                              collect_allows(ana.texts))

    for f in live:
        print(f)
    for e in budget_errors:
        print(f"simcheck: ERROR: {e}")
    for n in ana.notes:
        print(f"simcheck: note: {n}", file=sys.stderr)

    if not args.quiet:
        remaining = ", ".join(f"{r}={ALLOW_BUDGET - used.get(r, 0)}"
                              for r in rules.RULES)
        print(f"simcheck[{frontend}]: {len(ana.scans)} files, "
              f"{len(ana.tus)} TUs; {len(live)} finding(s), "
              f"{sum(used.values())} waived by allows; allow budget "
              f"remaining: {remaining}")
    return 1 if (live or budget_errors) else 0


if __name__ == "__main__":
    sys.exit(main())
