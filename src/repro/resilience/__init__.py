"""Resilience: chaos campaigns and the graceful-degradation ladder."""

from .campaign import (ChaosCampaign, ChaosConfig, FlakyTestMachine,
                       run_chaos_campaign)
from .degradation import (DegradationController, LadderEvent, LadderRung,
                          build_ladder)
from .report import SurvivabilityReport

__all__ = [
    "ChaosCampaign", "ChaosConfig", "DegradationController",
    "FlakyTestMachine", "LadderEvent", "LadderRung",
    "SurvivabilityReport", "build_ladder", "run_chaos_campaign",
]
