"""Command-line front end.

Subcommands::

    tmlab validate  MACHINE
    tmlab run       MACHINE --input W --max-steps T [--json]
    tmlab crossings MACHINE --input W -n N [--json]
    tmlab mstar     MACHINE --input W -n N [--story FILE] [--json]
    tmlab normalize MACHINE [--max-steps T] [--json]

Exit codes: 0 accepted/valid, 1 rejected, 2 resource cap exceeded,
64 bad usage, 65 invalid machine/story data (or a file that is not UTF-8),
66 unreadable input file.

``main(argv)`` may be called repeatedly in one process.  Its argument parser
is built on the first call and reused by every later one; importing this
module builds none.  A plain question (``run``, ``crossings`` or ``mstar``
with exact option names, each at most once, one machine path and no value
starting with ``-``) is read straight from the parser's actions without
running it (:mod:`tmlab.plain_argv`); any other argv, and every usage
error, goes through argparse.  The machine of each question is parsed
through a per-process cache keyed by the file's text, holding the last 64
texts.  The file is read on every question, so an edited file is parsed
afresh.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .crossing import check_phase_lemma, extract_history, partition_for_trace
from .mstar import InvalidStoryError, simulate_mstar, story_from_history, verify_story
from .ntm_core import (
    DEFAULT_NODE_CAP,
    MachineFormatError,
    ResourceCapExceeded,
    machine_to_text,
    normalize,
    parse_general_machine,
    parse_machine,
    run_direct,
)
from .reporting import (
    RunReport,
    StoryFormatError,
    lemma_to_dict,
    load_story,
    mstar_resources,
    story_to_dict,
)

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        print(f"tmlab: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_NOINPUT)
    except UnicodeDecodeError as err:
        print(f"tmlab: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_DATA)


def _usage(message: str):
    print(f"tmlab: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


@functools.lru_cache(maxsize=64)
def _parse_text(text: str):
    """:func:`parse_machine`, once per distinct text in this process.

    Exact, since the same text always gives the same machine, and parsed
    machines are never mutated.  A text that fails to parse is not cached.
    """
    return parse_machine(text)


def _load_machine(path: str, w: str, n: Optional[int] = None):
    """Parse the machine file; check ``w`` against its alphabet and scale ``n``."""
    try:
        machine = _parse_text(_read(path))
    except MachineFormatError as err:
        print(f"tmlab: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_DATA)
    for s in w:
        if s not in machine.alphabet:
            _usage(f"input symbol {s!r} is not in the alphabet of {machine.name}")
    if n is not None and len(w) > n:
        _usage(f"scale -n {n} is below the input length {len(w)}")
    return machine


def _emit(report: RunReport, as_json: bool, text: str):
    if as_json:
        print(report.to_json())
    elif text:
        print(text)


def _capped(args, machine, mode: str, err: Exception, n: Optional[int] = None) -> int:
    """Report a question the node cap stopped, or a huge scale's table that cannot be
    allocated (MemoryError, or OverflowError past an index size): undecided, not rejected."""
    why = str(err) if isinstance(err, ResourceCapExceeded) else "out of memory"
    report = RunReport(machine=machine.name, input=args.input, mode=mode,
                       verdict="resource-cap", n=n, notes=why)
    _emit(report, args.json, f"resource cap exceeded: {why}")
    return EXIT_RESOURCE


def cmd_validate(args) -> int:
    try:
        machine = parse_machine(_read(args.machine))
    except MachineFormatError as err:
        print(f"tmlab: {args.machine}: {err}", file=sys.stderr)
        return EXIT_DATA
    print(f"{machine.name}: ok ({machine.state_count} states, "
          f"{len(machine.rules)} rules, {len(machine.branches)} branch states)")
    return EXIT_ACCEPT


def cmd_run(args) -> int:
    machine = _load_machine(args.machine, args.input)
    try:
        result = run_direct(machine, args.input, args.max_steps, node_cap=args.node_cap)
    except (ResourceCapExceeded, MemoryError, OverflowError) as err:
        return _capped(args, machine, "direct", err)
    resources = {"explored": result.explored, "max_steps": args.max_steps}
    if result.accepted:
        resources.update({"time": result.usage.time, "space": result.usage.space,
                          "choices": list(result.witness.choices)})
    report = RunReport(machine=machine.name, input=args.input, mode="direct",
                       verdict="accepted" if result.accepted else "rejected",
                       resources=resources)
    _emit(report, args.json,
          f"{report.verdict}" + (f" (time {result.usage.time}, space {result.usage.space})"
                                 if result.accepted else ""))
    return EXIT_ACCEPT if result.accepted else EXIT_REJECT


def cmd_crossings(args) -> int:
    machine = _load_machine(args.machine, args.input, args.n)
    n = args.n
    try:
        result = run_direct(machine, args.input, n * n, node_cap=args.node_cap)
        if result.accepted:
            lemma = check_phase_lemma(result.witness, n)
            history = extract_history(result.witness, partition_for_trace(result.witness, lemma.best_P, n))
            story = story_to_dict(story_from_history(history))
    except (ResourceCapExceeded, MemoryError, OverflowError) as err:
        return _capped(args, machine, "crossings", err, n)
    if not result.accepted:
        report = RunReport(machine=machine.name, input=args.input, mode="crossings",
                           verdict="rejected", n=n, k_table=[],
                           notes=f"no accepting run within {n * n} steps")
        _emit(report, args.json, f"rejected: no accepting run within {n * n} steps")
        return EXIT_REJECT
    lemma_dict = lemma_to_dict(lemma)
    report = RunReport(machine=machine.name, input=args.input, mode="crossings",
                       verdict="accepted", n=n,
                       resources={"time": result.usage.time, "space": result.usage.space},
                       k_table=lemma_dict["k_table"], lemma=lemma_dict, story=story)
    lines = [f"accepted (time {result.usage.time}); phase counts by first-block length:"]
    lines += [f"  P={P}: k={k}" for P, k in report.k_table]
    lines.append(f"best P = {lemma.best_P}, holds (some k <= n): {lemma.holds}")
    _emit(report, args.json, "\n".join(lines))
    return EXIT_ACCEPT


def cmd_mstar(args) -> int:
    machine = _load_machine(args.machine, args.input, args.n)
    n = args.n
    mode = "mstar" if args.story is None else "verify-story"
    try:
        if args.story is None:
            result = simulate_mstar(machine, args.input, n, node_cap=args.node_cap)
        else:
            story = load_story(_read(args.story))
            n = story.partition.n  # the story's own scale governs the budget
            result = verify_story(machine, args.input, story, node_cap=args.node_cap)
    except (StoryFormatError, InvalidStoryError) as err:
        print(f"tmlab: {args.story}: {err}", file=sys.stderr)
        return EXIT_DATA
    except (ResourceCapExceeded, MemoryError, OverflowError) as err:
        return _capped(args, machine, mode, err, n)
    constants = {"descriptor_constant": result.descriptor_constant}
    if result.accepted:
        part = result.winning.partition
        constants["time_constant"] = result.sim_time / (part.n ** 2)
    report = RunReport(machine=machine.name, input=args.input, mode=mode,
                       verdict="accepted" if result.accepted else "rejected", n=n,
                       resources=mstar_resources(result),
                       story=story_to_dict(result.winning) if result.winning else None,
                       constants=constants)
    if result.accepted:
        text = (f"accepted: P={part.P} r={part.r} k={result.winning.k}; "
                f"sim_time {result.sim_time} <= {constants['time_constant']:.2f}*n^2, "
                f"sim_space {result.sim_space}")
    else:
        text = "rejected: no accepting story"
        if result.failed_phase is not None:
            text += (f" (block {result.failed_block}, phase {result.failed_phase}: "
                     f"{result.reject_reason.value})")
        if result.complete_walk_P is not None:
            text += (f" (no computation accepts within {result.budget} steps: "
                     f"the walk for P={result.complete_walk_P} is complete)")
    _emit(report, args.json, text)
    return EXIT_ACCEPT if result.accepted else EXIT_REJECT


def cmd_normalize(args) -> int:
    try:
        general = parse_general_machine(_read(args.machine))
        result = normalize(general)
    except ValueError as err:  # a MachineFormatError, or a machine normalize refuses
        print(f"tmlab: {args.machine}: {err}", file=sys.stderr)
        return EXIT_DATA
    if args.json:
        report = RunReport(machine=general.name, input="", mode="normalize",
                           verdict="accepted",
                           resources={"states": result.machine.state_count,
                                      "step_blowup": result.step_blowup,
                                      "step_overhead": result.step_overhead},
                           notes=machine_to_text(result.machine))
        print(report.to_json())
    else:
        sys.stdout.write(machine_to_text(result.machine))
        print(f"# time blow-up: normalized accepts within "
              f"{result.step_blowup}*t + {result.step_overhead} steps when the "
              f"general machine accepts within t", file=sys.stderr)
    return EXIT_ACCEPT


def _count(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def integer(text: str) -> int:  # argparse names a failed type by its function
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


_NONNEGATIVE = _count(0)
_POSITIVE = _count(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tmlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        p.add_argument("machine", help="machine description file")
        if with_input:
            p.add_argument("--input", default="", help="input string (default empty)")
        p.add_argument("--json", action="store_true", help="write a JSON report to stdout")
        p.add_argument("--node-cap", type=_NONNEGATIVE, default=DEFAULT_NODE_CAP,
                       help="cap on configurations expanded, plus mstar's phase runs")

    p = sub.add_parser("validate", help="parse a machine file and check normal form")
    p.add_argument("machine")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="direct bounded nondeterministic simulation")
    common(p)
    p.add_argument("--max-steps", type=_NONNEGATIVE, required=True, help="step budget")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("crossings", help="phase counts per first-block length")
    common(p)
    p.add_argument("-n", type=_POSITIVE, required=True, help="block length / scale")
    p.set_defaults(func=cmd_crossings)

    p = sub.add_parser("mstar", help="story search (or --story verification)")
    common(p)
    p.add_argument("-n", type=_POSITIVE, required=True, help="scale (budget is n^2)")
    p.add_argument("--story", help="verify this story file instead of searching")
    p.set_defaults(func=cmd_mstar)

    p = sub.add_parser("normalize", help="compile a general machine to normal form")
    p.add_argument("machine", help="general machine description file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_normalize)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    from .plain_argv import plain_question  # not at import: see its docstring

    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = plain_question(parser, argv) or parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
