"""The test oracles stay independent of the engines they check.

``tests/oracles.py`` decides runs, block feasibility and phase counts with
its own one-step semantics.  An oracle that called an engine would agree
with that engine's bugs.  :func:`tmlab.verify_story` is the one documented
exception: :func:`oracles.first_verified_story` checks the story *search*
against the verifier it trusts.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

ENGINES = frozenset({
    "run_with_choices", "run_direct", "search_configurations",
    "enumerate_block_runs", "simulate_phase", "advance_frontier", "check_block",
    "simulate_mstar", "check_phase_lemma", "normalize",
})


def engine_uses(source: str) -> list[str]:
    """Every engine ``source`` imports from ``tmlab`` or reaches as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tmlab":
            found += [alias.name for alias in node.names if alias.name in ENGINES | {"*"}]
        elif isinstance(node, ast.Attribute) and node.attr in ENGINES:
            found.append(node.attr)
    return found


def test_oracles_import_no_engine():
    assert engine_uses(ORACLES.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_way_in():
    for source in ("from tmlab import run_direct",
                   "from tmlab.phase_sim import simulate_phase as sim",
                   "from tmlab.mstar import *",
                   "import tmlab\ntmlab.check_block(m, s, x, 9)",
                   "from tmlab import block_check\nblock_check.advance_frontier"):
        assert engine_uses(source), source
    assert engine_uses("from tmlab import verify_story, phase_records") == []
