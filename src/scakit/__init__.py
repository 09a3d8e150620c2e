"""Side-channel analysis toolkit for the AES-128 last-round attack.

Simulates data-dependent power leakage of the final-round state-register
overwrite, mounts correlation power analysis against it, and evaluates a
deterministic bit-level offset countermeasure that steers the attack
toward incorrect keys.
"""

from .aes import (
    SR_FORWARD,
    SR_INVERSE,
    as_block,
    block_hex,
    correct_last_round_guess,
    expand_key,
    hypothesis_matrix,
    invert_key_schedule,
    last_round_key,
    last_round_states_batch,
)
from .cpa import (
    AttackResult,
    CorrelationEvolution,
    cpa_attack,
    cpa_attack_sets,
    pearson,
    rank_of_guess,
)
from .hd import (
    HdClassSummary,
    HdFit,
    attack_offset_grid,
    fit_hd_line,
    group_by_hd,
    wrong_horse_scan,
)
from .leakage import (
    Augmentation,
    LeakageConfig,
    Trigger,
    ro_offset_model,
    simulate_campaign,
    simulate_offset_grid,
)
from .traceio import (
    SctrFormatError,
    TraceImportError,
    import_raw,
    read_sctr,
    write_sctr,
)
from .traces import TraceSet

__version__ = "0.1.0"
