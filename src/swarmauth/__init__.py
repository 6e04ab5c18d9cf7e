"""Threshold group authentication for drone swarms.

A secret polynomial over a prime-order group key yields per-drone share
pairs; guard drones authenticate newcomers (and whole swarms) by checking
a Lagrange-weighted sum of public share points against the group
commitment, instead of round-tripping every credential through the core
network. The package also models the 5G NR baseline flow and ships a
deterministic simulator that compares both under a configurable latency
model.
"""

from .algebra import CurveGroup, ScalarField, ToyGroup, make_group
from .shares import (
    Dealer,
    GroupPolynomial,
    PrivateShare,
    PublicShare,
    gen_polynomial,
    group_commitment,
    issue_share,
    lagrange_coeff_at_zero,
    public_share,
    public_shares,
    recover_group_key,
    verify_group,
)
from .protocol import (
    CoreNetwork,
    Drone,
    DroneId,
    Swarm,
    derive_pairwise_key,
    run_inclusion,
    run_unification,
)
from .simnet import (
    Adversary,
    LatencyModel,
    ScenarioConfig,
    TimingReport,
    crossover_report,
    inject_adversary,
    parse_config,
    run_scenario,
    time_bulk_admission,
    time_group_auth,
)

__version__ = "0.1.0"

__all__ = [
    "CurveGroup", "ScalarField", "ToyGroup", "make_group",
    "Dealer", "GroupPolynomial", "PrivateShare", "PublicShare",
    "gen_polynomial", "group_commitment", "issue_share",
    "lagrange_coeff_at_zero", "public_share", "public_shares",
    "recover_group_key", "verify_group",
    "CoreNetwork", "Drone", "DroneId", "Swarm",
    "derive_pairwise_key", "run_inclusion", "run_unification",
    "Adversary", "LatencyModel", "ScenarioConfig", "TimingReport",
    "crossover_report", "inject_adversary", "parse_config", "run_scenario",
    "time_bulk_admission", "time_group_auth",
    "__version__",
]
