"""Loading of the machine corpus shipped with the package."""

from __future__ import annotations

from importlib import resources

from .ntm_core import GeneralMachine, Machine, parse_general_machine, parse_machine

# The five named acceptance machines plus the fixed zigzag walker.
CORPUS_MACHINES = (
    "always_accept",
    "sweep_right",
    "palindrome",
    "anbn",
    "guesser",
    "zigzag",
)

GENERAL_CORPUS_MACHINES = (
    "general_always",
    "general_anbn",
    "general_ends_a",
)


def corpus_text(name: str) -> str:
    suffix = ".gtm" if name.startswith("general_") else ".tm"
    return resources.files("tmlab.corpus").joinpath(name + suffix).read_text(encoding="utf-8")


def load_corpus_machine(name: str) -> Machine:
    return parse_machine(corpus_text(name))


def corpus_machines() -> dict[str, Machine]:
    return {name: load_corpus_machine(name) for name in CORPUS_MACHINES}


def general_corpus_machines() -> dict[str, GeneralMachine]:
    return {name: parse_general_machine(corpus_text(name)) for name in GENERAL_CORPUS_MACHINES}
