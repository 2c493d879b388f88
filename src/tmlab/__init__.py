"""tmlab: a laboratory for single-tape nondeterministic Turing machines.

The package simulates normal-form machines directly (exhaustive bounded
search over nondeterministic choices), replays runs against tape
partitions to extract milestone crossing histories, and runs the
story-based low-space simulator that guesses a crossing history and
verifies it block by block.
"""

__version__ = "0.1.0"

from .ntm_core import (
    BLANK,
    LEFT,
    RIGHT,
    Configuration,
    DetRule,
    GeneralMachine,
    GeneralRule,
    Halt,
    HaltReason,
    Machine,
    MachineFormatError,
    NodeBudget,
    Outcome,
    ResourceCapExceeded,
    Trace,
    initial_configuration,
    machine_to_text,
    normalize,
    parse_general_machine,
    parse_machine,
    run_direct,
    run_direct_general,
    run_with_choices,
    step,
    validate_normal_form,
)
from .crossing import (
    BlockStory,
    Descriptor,
    History,
    InconsistentDescriptors,
    MilestoneHistory,
    OPENER,
    Partition,
    RegionExceeded,
    StoryStructureError,
    block_story,
    check_phase_lemma,
    extract_history,
    merge_by_phase,
    partition_for_trace,
    phase_records,
    split_history,
)
from .phase_sim import RejectReason, simulate_phase
from .block_check import BlockCheckResult, check_block, initial_block_content
from .mstar import (
    InvalidStoryError,
    MStarResult,
    StoryGuess,
    descriptor_constant,
    implication_chain,
    simulate_mstar,
    story_from_history,
    verify_story,
)
from .corpus_io import (
    CORPUS_MACHINES,
    GENERAL_CORPUS_MACHINES,
    corpus_machines,
    corpus_text,
    general_corpus_machines,
    load_corpus_machine,
)
