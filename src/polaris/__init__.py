"""Supervisory-control toolkit and hybrid simulator for decentralized
leader-follower formation flight over a polar-partitioned motion space."""

from .automata import (
    Automaton,
    BisimResult,
    Event,
    accessible,
    is_bisimilar,
    natural_project,
    parallel_compose,
)
from .errors import *  # noqa: F401,F403
from .models import (
    AgentAlphabet,
    FormationModels,
    agent_alphabet,
    build_collision_spec,
    build_formation_spec,
    build_models,
    build_plant,
)
from .polar import (
    Mode,
    PolarPartition,
    RegionIndex,
    VertexControls,
    design_controller,
    eval_control,
    locate,
    region_bounds,
    validate_controller,
)
from .scenario import FollowerConfig, ScenarioConfig, parse_scenario
from .sim import (
    EventRecord,
    Mission,
    ScenarioResult,
    WorldState,
    detect_events,
    initial_world,
    run_scenario,
    step,
    supervisor_react,
)
from .supervision import (
    ControllabilityReport,
    DecomposabilityReport,
    check_controllability,
    check_decomposability,
    closed_loop,
    decompose,
    is_nonblocking,
    modular_supervisor,
    verify_decentralized,
)

__version__ = "0.1.0"
