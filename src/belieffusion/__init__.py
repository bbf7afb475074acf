"""Belief-function fusion toolkit: classical and conflict-robust combination
rules, a pignistic decision layer, and a sequential target-identification
simulator."""

# The public names of core and rules are listed once, in each module's __all__.
from .core import *
from .rules import *

__version__ = "0.1.0"

# decision and scenario load on first access (PEP 562), so that the CLI
# commands that never call them do not pay for importing them.
_LAZY = {"decision": ("Decision", "PignisticDistribution", "betp", "decide"),
         "scenario": ("PlatformDatabase", "ScenarioConfig", "ScenarioResult", "TrajectoryRecord",
                      "build_pdb", "gen_report", "report_bba", "draw", "fold", "run_scenario")}
__all__ = [n for n in globals() if n[0] != "_"] + [n for m, ns in _LAZY.items() for n in (m, *ns)]


def __getattr__(name: str):
    import importlib

    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f"{__name__}.{module}")
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
