"""Insured agents: dispute-game solver, slashing ledger, insurer market, simulator."""

from .mechanism import ConditionReport, MechanismParams, check_conditions, scale_params
from .game import (
    ALL_PATHS,
    AgentAction,
    COMPLIANT_PROFILE,
    ClaimValidity,
    EscalationChoice,
    GameTree,
    InsurerResponse,
    LeafPayoffs,
    StrategyProfile,
    TerminalPath,
    build_game,
    brute_force_spe,
    leaf_payoffs,
    predict_honest_equilibrium,
    solve_spe,
)
from .ledger import (
    AccountId,
    ClaimState,
    Ledger,
    LedgerError,
    PolicyRecord,
    Role,
    TransferCount,
    TransferList,
)
from .market import (
    AgentProfile,
    Certificate,
    GainModel,
    InsurerStack,
    RiskPosterior,
    compose_stack,
    decide_purchase,
    price_premium,
    stack_premium,
    underwrite_stack,
    update_posterior,
)
from .money import UNIT, format_units, units
from .sim import (
    BehaviorPolicy,
    MetricsReport,
    ScenarioConfig,
    load_scenario,
    replay_game_path,
    run_scenario,
    run_scenario_with_records,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
