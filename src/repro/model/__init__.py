"""The PReVer data model (Section 3 of the paper).

Four participant roles (data producers, data owners, data managers,
authorities), updates with provenance, constraints vs. regulations as
Boolean functions over (database, update), privacy labels on each of
{data, updates, constraints}, and the threat-model menu.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.model.participants import (
        Role,
        Participant,
        DataProducer,
        DataOwner,
        DataManager,
        Authority,
    )
    from repro.model.update import Update, UpdateOperation, UpdateStatus
    from repro.model.constraints import (
        Constraint,
        ConstraintKind,
        AggregateSpec,
        WindowSpec,
        upper_bound_regulation,
        lower_bound_regulation,
    )
    from repro.model.policy import Visibility, PrivacyPolicy
    from repro.model.threat import ThreatModel, AdversaryClass, CollusionStructure

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.model.participants": (
        "Role", "Participant", "DataProducer", "DataOwner", "DataManager",
        "Authority",
    ),
    "repro.model.update": ("Update", "UpdateOperation", "UpdateStatus"),
    "repro.model.constraints": (
        "Constraint", "ConstraintKind", "AggregateSpec", "WindowSpec",
        "upper_bound_regulation", "lower_bound_regulation",
    ),
    "repro.model.policy": ("Visibility", "PrivacyPolicy"),
    "repro.model.threat": (
        "ThreatModel", "AdversaryClass", "CollusionStructure",
    ),
})

__all__ = [
    "Role",
    "Participant",
    "DataProducer",
    "DataOwner",
    "DataManager",
    "Authority",
    "Update",
    "UpdateOperation",
    "UpdateStatus",
    "Constraint",
    "ConstraintKind",
    "AggregateSpec",
    "WindowSpec",
    "upper_bound_regulation",
    "lower_bound_regulation",
    "Visibility",
    "PrivacyPolicy",
    "ThreatModel",
    "AdversaryClass",
    "CollusionStructure",
]
