"""Static classification of the protocol sources' write effects.

:mod:`~repro.analysis.effects` classifies every persist, fence and
commit point in the parsed modules; :mod:`repro.fuzz.sites` builds the
fuzzer's static crash surface from it, and
``tests/property/test_effect_graph_runtime.py`` checks the
classification against instrumented runs.  Modules are parsed as data,
never imported.
"""

from .context import ModuleContext, load_module
from .effects import Effect, EffectGraph

__all__ = ["Effect", "EffectGraph", "ModuleContext", "load_module"]
