"""Command line front end.

Exit codes: 0 on success and agreement, 1 when a check or comparison
fails, 2 on usage or input errors.  All numbers print as exact fractions;
anything decimal is explicitly marked approximate.  Output depends only
on the arguments, so identical invocations produce identical bytes.
"""

import argparse
from functools import partial
import os
import random
import sys
from fractions import Fraction

from .automata import (ACCEPT, REJECT, accept_probability, parse_automaton,
                       format_automaton)
from .compiler import compile_automaton, format_compiled
from .corpus import by_name
from .errors import FormatError, GraphingError
from .execution import ExecOptions, accept_path_sum, plug
from .generators import random_det_pair, random_subprob_pair, split_sources
from .graphing import (equivalent, format_graphing, is_deterministic,
                       is_refinement, is_subprobabilistic, parse_graphing)
from .measurement import check_uniformity, make_test, membership
from .space import Atom, Region
from .theta import format_theta, reduce, reduce_random
from .words import bang_representation


def _read(path: str) -> str:
    """The text of an input file; bytes that are not UTF-8 are a format error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_machine(spec: str):
    if os.path.exists(spec):
        return parse_automaton(_read(spec))
    try:
        return by_name(spec)
    except KeyError:
        raise GraphingError(
            f"no machine named {spec!r} and no such file") from None


def _word(arg: str) -> str:
    w = "" if arg == "-" else arg
    if any(ch not in "01" for ch in w):
        raise GraphingError(f"word must be over 01 (use - for empty): {arg!r}")
    return w


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GraphingError(f"not a fraction: {text!r}") from None


def _word_rep(w: str, cells: int | None):
    """The representation of ``w`` that ``accept`` walks: position i in cell
    i, on ``cells`` cells (default one per position)."""
    return bang_representation(w, range(len(w) + 1), cells or len(w) + 1)


def _println(*parts):
    print(" ".join(str(p) for p in parts))


def cmd_compile(args) -> int:
    a = _load_machine(args.machine)
    m = compile_automaton(a)
    if args.out:  # written before any output, so a bad path prints nothing
        with open(args.out, "w") as fh:
            fh.write(format_compiled(m))
    g = m.graphing  # after the text, whose one pass builds it too
    _println("machine:", a.name)
    _println("heads:", a.heads)
    _println("stack:", "yes" if a.stack else "no")
    _println("dialect-states:", len(g.dialect))
    _println("edges:", len(g.edges))
    if args.out:
        _println("wrote:", args.out)
    return 0


def cmd_accept(args) -> int:
    a = _load_machine(args.machine)
    w = _word(args.word)
    opts = ExecOptions(stack_depth=args.stack_depth)
    p_oracle, oracle_exact = accept_probability(a, w, args.stack_depth)
    m = compile_automaton(a)
    rep = _word_rep(w, args.grid)
    ps = accept_path_sum(m, rep, Region((Atom("a"),)), opts)
    _println("machine:", a.name)
    _println("word:", args.word)
    _println("oracle:", p_oracle, "(exact)" if oracle_exact else "(lower bound)")
    _println("dialogue:", ps.lower_bound,
             "(exact)" if ps.exact else "(lower bound)")
    _println("classes:")
    for theta, mass in ps.total.items():
        _println(" ", format_theta(theta), mass)
    if not ps.exact:
        _println("dropped:", ps.dropped)
    agree = p_oracle == ps.lower_bound and oracle_exact == ps.exact
    _println("verdict:", "agree" if agree else "disagree")
    return 0 if agree else 1


def cmd_membership(args) -> int:
    a = _load_machine(args.machine)
    test = make_test(args.test, heads=a.heads,
                     epsilon=_fraction(args.epsilon) if args.epsilon else None)
    opts = ExecOptions(stack_depth=args.stack_depth)
    m = compile_automaton(a)
    words = [_word(raw) for raw in args.words]  # all checked before any output
    rows = []  # every word is run before any output, as it may raise
    for raw, w in zip(args.words, words):
        report = membership(m, w, test, opts)
        if args.test == "neg":
            q, _ = accept_probability(a, w, args.stack_depth, outcome=REJECT)
            oracle = q == 0
        else:
            p, _ = accept_probability(a, w, args.stack_depth, outcome=ACCEPT)
            oracle = p > 0 if args.test == "pos" else p > test.epsilon
        rows.append((raw, "orthogonal" if report.orthogonal else "crossing",
                     "oracle=" + ("yes" if oracle else "no"),
                     "ok" if report.orthogonal == oracle else "MISMATCH"))
    _println("machine:", a.name)
    _println("test:", args.test + (f"[{test.epsilon}]" if test.epsilon is not None
                                   else ""))
    for row in rows:
        _println(*row)
    return 0 if all(row[-1] == "ok" for row in rows) else 1


def cmd_equiv(args) -> int:
    f = parse_graphing(_read(args.left))
    g = parse_graphing(_read(args.right))
    # equivalence is only meaningful between valid graphings
    same = equivalent(f.validate(), g.validate())
    _println("equivalent:", "yes" if same else "no")
    return 0 if same else 1


def cmd_dump(args) -> int:
    a = _load_machine(args.machine)
    if args.graphing:
        m = compile_automaton(a)
        sys.stdout.write(format_compiled(m))
        return 0
    if args.word is not None:
        # the two graphings ``accept`` walks, both built before any output
        m = compile_automaton(a)
        rep = _word_rep(_word(args.word), args.grid)
        _println(f"# reachable graphing of {a.name} from start state "
                 f"{m.start_state}")
        sys.stdout.write(format_graphing(m.reachable))
        _println(f"# word {args.word} on {rep.cells} cells")
        sys.stdout.write(format_graphing(rep.graphing))
        return 0
    sys.stdout.write(format_automaton(a))
    return 0


def _seeds(args) -> range:
    """The seeds a counted suite runs: ``--count`` of them (default 50)."""
    return range(args.seed, args.seed + (args.count or 50))


def _suite_closure(pair, closed, args) -> list:
    """Plug each seeded ``pair`` and keep the seeds whose result is not ``closed``."""
    bad = []
    for seed in _seeds(args):
        f, g, cut = pair(seed)
        if not closed(plug(f, g, cut)):
            bad.append((seed, (f, g)))
    return bad


def _suite_refinement(args) -> list:
    bad = []
    for seed in _seeds(args):
        f, g, cut = random_det_pair(seed)
        fine = split_sources(f, seed)
        ok = (is_refinement(fine, f) and equivalent(fine, f)
              and equivalent(plug(fine, g, cut), plug(f, g, cut)))
        if not ok:
            bad.append((seed, (f, fine)))
    return bad


def _suite_theta_confluence(args) -> list:
    bad = []
    for seed in _seeds(args):
        rng = random.Random(seed)
        word = "".join(rng.choice("01*c") for _ in range(rng.randrange(9)))
        if reduce_random(word, rng) != reduce(word):
            bad.append((f"{seed}/{format_theta(word)}", ()))
    return bad


_UNIFORMITY_MACHINES = ("even-ones", "contains-one", "coin-half")
_UNIFORMITY_WORDS = ("", "1", "01", "110")


def _suite_uniformity(args) -> list:
    bad = []
    test_cache = {}
    for i, name in enumerate(_UNIFORMITY_MACHINES):
        a = by_name(name)
        test = test_cache.setdefault(a.heads, make_test("pos", heads=a.heads))
        m = compile_automaton(a)
        for j, w in enumerate(_UNIFORMITY_WORDS):
            uniform, _ = check_uniformity(m, w, test, samples=args.reps or 5,
                                          seed=args.seed + i * 31 + j)
            if not uniform:
                bad.append((f"{name}/{w or '-'}", ()))
    return bad


_SUITES = {
    "det-closure": partial(_suite_closure, random_det_pair, is_deterministic),
    "subprob-closure": partial(_suite_closure, random_subprob_pair,
                               is_subprobabilistic),
    "refinement": _suite_refinement,
    "theta-confluence": _suite_theta_confluence,
    "uniformity": _suite_uniformity,
}


def cmd_properties(args) -> int:
    suite = _SUITES[args.suite]
    bad = suite(args)
    total = (len(_seeds(args)) if args.suite != "uniformity"
             else len(_UNIFORMITY_MACHINES) * len(_UNIFORMITY_WORDS))
    _println(f"suite {args.suite}: {total - len(bad)}/{total} pass")
    dump_dir = args.dump_dir or "."
    for case, pair in bad:  # a failing pair of graphings is dumped
        _println("fail:", case)
        for side, g in zip(("left", "right"), pair):
            os.makedirs(dump_dir, exist_ok=True)
            path = os.path.join(dump_dir, f"{args.suite}-{case}-{side}.graphing")
            with open(path, "w") as fh:
                fh.write(format_graphing(g))
            _println("  wrote", path)
    return 0 if not bad else 1


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphings",
        description="compile multihead machines to measurable graphings and "
                    "check them against exact dialogue semantics")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a machine and show its size")
    c.add_argument("machine", help="catalog name or rule-table file")
    c.add_argument("--out", help="write the compiled graphing to a file")
    c.set_defaults(fn=cmd_compile)

    c = sub.add_parser("accept", help="acceptance probability two ways")
    c.add_argument("machine")
    c.add_argument("word", help="word over 01, or - for the empty word")
    c.add_argument("--stack-depth", type=_count, default=16)
    c.add_argument("--grid", type=_count,
                   help="word cells (default: length + 1)")
    c.set_defaults(fn=cmd_accept)

    c = sub.add_parser("membership", help="language membership through tests")
    c.add_argument("machine")
    c.add_argument("words", nargs="+")
    c.add_argument("--test", choices=("neg", "pos", "prob"), default="pos")
    c.add_argument("--epsilon", help="threshold fraction, with --test prob")
    c.add_argument("--stack-depth", type=_count, default=16)
    c.set_defaults(fn=cmd_membership)

    c = sub.add_parser("equiv", help="compare two graphing files")
    c.add_argument("left")
    c.add_argument("right")
    c.set_defaults(fn=cmd_equiv)

    c = sub.add_parser("dump", help="print a machine, its graphing, or the two "
                                    "graphings accept walks for a word")
    c.add_argument("machine")
    view = c.add_mutually_exclusive_group()
    view.add_argument("--graphing", action="store_true",
                      help="print the compiled graphing instead of the rules")
    view.add_argument("--word", help="print the reachable graphing and this "
                                     "word's representation, as accept walks them")
    c.add_argument("--grid", type=_count,
                   help="word cells, with --word (default: length + 1)")
    c.set_defaults(fn=cmd_dump)

    c = sub.add_parser("properties", help="run a randomized property suite")
    c.add_argument("suite", choices=sorted(_SUITES))
    c.add_argument("--count", type=_count,
                   help="cases to run (default 50; not with uniformity)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--reps", type=_count,
                   help="random placements per word (default 5; uniformity only)")
    c.add_argument("--dump-dir")  # default .; two suites never dump
    c.set_defaults(fn=cmd_properties)

    return ap


def _ignored_option(args) -> str | None:
    """An option given that the command would not read, and where it belongs."""
    if args.command == "dump" and args.grid is not None and args.word is None:
        return "--grid: only with --word"
    if args.command == "membership" and args.epsilon is not None and args.test != "prob":
        return "--epsilon: only with --test prob"
    if args.command == "properties":
        if args.suite == "uniformity" and args.count is not None:
            return "--count: not with uniformity"
        if args.suite != "uniformity" and args.reps is not None:
            return "--reps: only with uniformity"
        if (args.suite in ("theta-confluence", "uniformity")
                and args.dump_dir is not None):  # no graphing pair to dump
            return f"--dump-dir: not with {args.suite}"
    return None


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    ignored = _ignored_option(args)
    if ignored:
        ap.error(f"argument {ignored}")
    try:
        return args.fn(args)
    except GraphingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
