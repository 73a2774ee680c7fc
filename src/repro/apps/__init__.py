"""The four motivating applications of Figure 1, built on the core API.

Each module constructs a complete scenario — participants, schemas,
constraints, engine choice per the paper's decision matrix — and
exposes a small domain API so the examples and bench E13 can drive
realistic workloads.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.apps.sustainability import SustainabilityCertification
    from repro.apps.conference import ConferenceRegistration
    from repro.apps.crowdworking import CrowdworkingScenario
    from repro.apps.supplychain import SupplyChainNetwork

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.apps.sustainability": ("SustainabilityCertification",),
    "repro.apps.conference": ("ConferenceRegistration",),
    "repro.apps.crowdworking": ("CrowdworkingScenario",),
    "repro.apps.supplychain": ("SupplyChainNetwork",),
})

__all__ = [
    "SustainabilityCertification",
    "ConferenceRegistration",
    "CrowdworkingScenario",
    "SupplyChainNetwork",
]
