"""repro — a full reproduction of PReVer (EDBT 2022).

PReVer is a universal framework for managing **regulated dynamic
data** in a privacy-preserving manner: updates arrive at untrusted or
mutually distrustful data managers, are verified against constraints
and regulations whose contents (like the data and updates themselves)
may be private, and are incorporated into append-only-anchored
databases whose integrity any participant can audit.

Quickstart::

    from repro import (
        Database, TableSchema, ColumnType, Update, UpdateOperation,
        upper_bound_regulation, single_private_database,
    )

    schema = TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    )
    db = Database("cloud-manager")
    db.create_table(schema)
    cap = upper_bound_regulation("iso-cap", "emissions", "co2",
                                 bound=100, match_columns=["org"])
    prever = single_private_database(db, [cap], engine="paillier")
    result = prever.submit(Update(
        table="emissions", operation=UpdateOperation.INSERT,
        payload={"id": 1, "org": "acme", "co2": 60},
    ))
    assert result.accepted

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
benchmark results.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.database import Database, TableSchema
    from repro.database.schema import ColumnType
    from repro.database.expr import col, lit, update_field
    from repro.model.update import Update, UpdateOperation, UpdateStatus
    from repro.model.constraints import (
        Constraint,
        ConstraintKind,
        AggregateSpec,
        WindowSpec,
        upper_bound_regulation,
        lower_bound_regulation,
    )
    from repro.model.participants import (
        Authority,
        DataManager,
        DataOwner,
        DataProducer,
    )
    from repro.model.policy import PrivacyPolicy, Visibility
    from repro.model.threat import AdversaryClass, CollusionStructure, ThreatModel
    from repro.core.framework import PReVer
    from repro.consensus.driver import ReplicationPlan
    from repro.core.replicated import ReplicatedShard
    from repro.core.sharded import ShardedDigest, ShardedPReVer, ShardPlan, ShardSpec
    from repro.core.contexts import (
        single_private_database,
        federated_private_databases,
        public_database,
    )
    from repro.core.separ import SeparSystem
    from repro.ledger.central import CentralLedger
    from repro.ledger.audit import LedgerAuditor
    from repro.model.dsl import parse_constraint, parse_regulation
    from repro.obs import (
        EventLog,
        NOOP_TRACER,
        Tracer,
        metrics_to_json,
        to_prometheus,
    )
    from repro.durability import (
        Durability,
        RecoveryManager,
        RecoveryReport,
        SimulatedCrash,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.database": ("Database", "TableSchema"),
    "repro.database.schema": ("ColumnType",),
    "repro.database.expr": ("col", "lit", "update_field"),
    "repro.model.update": ("Update", "UpdateOperation", "UpdateStatus"),
    "repro.model.constraints": (
        "Constraint", "ConstraintKind", "AggregateSpec", "WindowSpec",
        "upper_bound_regulation", "lower_bound_regulation",
    ),
    "repro.model.participants": (
        "Authority", "DataManager", "DataOwner", "DataProducer",
    ),
    "repro.model.policy": ("PrivacyPolicy", "Visibility"),
    "repro.model.threat": (
        "AdversaryClass", "CollusionStructure", "ThreatModel",
    ),
    "repro.core.framework": ("PReVer",),
    "repro.consensus.driver": ("ReplicationPlan",),
    "repro.core.replicated": ("ReplicatedShard",),
    "repro.core.sharded": (
        "ShardedDigest", "ShardedPReVer", "ShardPlan", "ShardSpec",
    ),
    "repro.core.contexts": (
        "single_private_database", "federated_private_databases",
        "public_database",
    ),
    "repro.core.separ": ("SeparSystem",),
    "repro.ledger.central": ("CentralLedger",),
    "repro.ledger.audit": ("LedgerAuditor",),
    "repro.model.dsl": ("parse_constraint", "parse_regulation"),
    "repro.obs": (
        "EventLog", "NOOP_TRACER", "Tracer", "metrics_to_json",
        "to_prometheus",
    ),
    "repro.durability": (
        "Durability", "RecoveryManager", "RecoveryReport", "SimulatedCrash",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "Database",
    "TableSchema",
    "ColumnType",
    "col",
    "lit",
    "update_field",
    "Update",
    "UpdateOperation",
    "UpdateStatus",
    "Constraint",
    "ConstraintKind",
    "AggregateSpec",
    "WindowSpec",
    "upper_bound_regulation",
    "lower_bound_regulation",
    "Authority",
    "DataManager",
    "DataOwner",
    "DataProducer",
    "PrivacyPolicy",
    "Visibility",
    "AdversaryClass",
    "CollusionStructure",
    "ThreatModel",
    "PReVer",
    "ReplicationPlan",
    "ReplicatedShard",
    "ShardedPReVer",
    "ShardSpec",
    "ShardPlan",
    "ShardedDigest",
    "single_private_database",
    "federated_private_databases",
    "public_database",
    "SeparSystem",
    "CentralLedger",
    "LedgerAuditor",
    "parse_constraint",
    "parse_regulation",
    "EventLog",
    "NOOP_TRACER",
    "Tracer",
    "metrics_to_json",
    "to_prometheus",
    "Durability",
    "RecoveryManager",
    "RecoveryReport",
    "SimulatedCrash",
    "__version__",
]
