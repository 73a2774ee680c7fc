"""Separ — the worked instantiation of PReVer (Section 5).

Multi-platform crowdworking: workers are the data producers and owners;
the competing platforms (Uber, Lyft, ...) are mutually distrustful data
managers; a trusted third party is the external authority issuing the
public regulation (FLSA: at most 40 hours/week per worker across *all*
platforms).  Separ's design choices are a configuration of the one
update path, :class:`~repro.core.sharded.ShardedPReVer`:

* data and updates private, constraints public: one shard per
  platform, holding its private task table;
* global state on a **sharded permissioned blockchain** (SharPer):
  the shards and the coordinator are ordered with ``consensus="sharper"``;
* centralized token-based enforcement: the FLSA cap is a cross-shard
  constraint checked coordinator-side by a
  :class:`~repro.core.federated.TokenVerifier` — the authority issues
  40 blind-signed one-hour tokens per worker per week, a task spends
  its hours' worth;
* a task completion is one update through ``submit`` naming the
  worker's per-period pseudonym, never the worker, so no platform
  shard holds an identity; lower bounds count spends per pseudonym.

The known Separ limitations the paper lists are reproduced as explicit
behaviours the tests exercise: the trusted authority is a single point
(``authority_offline`` halts issuance), only bound constraints are
supported (``TokenVerifier`` refuses the rest), and the no-collusion
assumption is surfaced by :meth:`collusion_view` showing what colluding
platforms can pool (serials and pseudonym counts — not identities).
"""

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.common.clock import SimClock
from repro.common.errors import PReVerError
from repro.core.federated import TokenVerifier
from repro.core.framework import PReVer
from repro.core.sharded import ShardedPReVer, ShardSpec
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import WindowSpec, upper_bound_regulation
from repro.model.participants import Authority, DataProducer
from repro.model.update import Update, UpdateOperation
from repro.privacy.tokens import IssuerUnavailable, TokenAuthority, TokenWallet

WEEK_SECONDS = 7 * 24 * 3600.0

#: The rejection reason of a task the authority could not fund because
#: no issuer answered (as opposed to the worker's budget running out).
ISSUER_UNAVAILABLE = "token-issuer-unavailable"


def task_schema(table: str) -> TableSchema:
    """One platform's private task table."""
    return TableSchema.build(
        table,
        [
            ("task_id", ColumnType.TEXT),
            ("pseudonym", ColumnType.TEXT),
            ("hours", ColumnType.INT),
            ("requester", ColumnType.TEXT),
            ("completed_at", ColumnType.FLOAT),
        ],
        primary_key=["task_id"],
        indexes=["pseudonym"],
    )


class Platform:
    """One crowdworking platform: its shard (a private task table) and
    what it observes of the spend state."""

    def __init__(self, name: str, table: str, shard, registry):
        self.name = name
        self.table = table
        self.shard = shard
        self._spends = registry.ledger

    @property
    def database(self) -> Database:
        return self.shard.framework.databases[0]

    @property
    def tasks(self):
        return self.database.table(self.table)

    @property
    def observed_serials(self) -> List[str]:
        """Serials of the tokens spent here."""
        spends = (entry.payload for entry in self._spends.entries())
        return [s["serial"] for s in spends if s["platform"] == self.name]

    @property
    def observed_pseudonyms(self) -> List[str]:
        """The pseudonym on each task recorded here."""
        return [row["pseudonym"] for row in self.tasks.rows()]


class Worker:
    """A crowdworker: identity, token wallet, per-period pseudonyms."""

    def __init__(self, name: str, authority_key):
        self.name = name
        self.producer = DataProducer(name)
        self.wallet = TokenWallet(name, authority_key)

    def pseudonym(self, period: int) -> str:
        return self.wallet.pseudonym_for(period)


@dataclass
class TaskResult:
    accepted: bool
    task_id: Optional[str] = None
    reason: Optional[str] = None


class _Issuer:
    """The authority as the token check reaches it: while ``offline`` it
    issues nothing; ``unavailable`` says the last issuance failed for
    want of an issuer rather than of budget."""

    def __init__(self, authority):
        self.authority = authority
        self.public_key = authority.public_key
        self.offline = False
        self.unavailable = False

    def issue(self, participant: str, period: int, blinded: List) -> List[int]:
        try:
            if self.offline:
                raise IssuerUnavailable("the labor authority is offline")
            return self.authority.issue(participant, period, blinded)
        except IssuerUnavailable:
            self.unavailable = True
            raise


class _PseudonymTokens(TokenVerifier):
    """The FLSA token check for updates naming a weekly pseudonym: the
    pseudonym's worker's wallet pays (the authority issues to it by
    worker name), and an issuer outage is its own rejection reason."""

    def __init__(self, constraint, issuer: _Issuer):
        super().__init__(constraint, authority=issuer)
        self.wallets: Dict[str, TokenWallet] = {}  # pseudonym -> wallet

    def wallet_for(self, producer: str) -> TokenWallet:
        return self.wallets[producer]

    def verify(self, update: Update, now: float):
        self.authority.unavailable = False
        outcome = super().verify(update, now)
        if self.authority.unavailable:
            return dataclasses.replace(outcome,
                                       failed_constraint=ISSUER_UNAVAILABLE)
        return outcome


class SeparSystem:
    """The full Separ deployment."""

    def __init__(
        self,
        platform_names: Sequence[str],
        weekly_hour_cap: int = 40,
        rsa_bits: int = 512,
        distributed_authority: int = 0,
    ):
        """``distributed_authority`` > 0 replaces the centralized token
        issuer with that many n-of-n share signers (addressing Separ's
        single-trusted-party limitation; see
        :mod:`repro.privacy.threshold_tokens`)."""
        if len(platform_names) < 2:
            raise PReVerError("Separ is a multi-platform system")
        self.clock = SimClock()
        self.weekly_hour_cap = weekly_hour_cap
        if distributed_authority > 0:
            from repro.privacy.threshold_tokens import DistributedTokenAuthority

            self.authority = DistributedTokenAuthority(
                signers=distributed_authority,
                budget_per_period=weekly_hour_cap,
                rsa_bits=rsa_bits,
            )
        else:
            self.authority = TokenAuthority(
                budget_per_period=weekly_hour_cap, rsa_bits=rsa_bits
            )
        self.authority_participant = Authority("labor-authority", external=True)
        tables = [f"tasks_{name}" for name in platform_names]
        self.coordinator = ShardedPReVer(
            [ShardSpec(name, (table,), partial(self._build_platform, name, table))
             for name, table in zip(platform_names, tables)],
            clock=self.clock, consensus="sharper",
        )
        self.regulation = upper_bound_regulation(
            name="flsa-40h",
            table=tables[0],
            column="hours",
            bound=weekly_hour_cap,
            match_columns=["pseudonym"],
            window=WindowSpec(time_column="completed_at", length=WEEK_SECONDS),
            authority=self.authority_participant.name,
        )
        self.regulation.tables = tuple(tables)
        self.regulation.signature = self.authority_participant.sign(
            self.regulation.body_bytes()
        )
        self._issuer = _Issuer(self.authority)
        self.verifier = _PseudonymTokens(self.regulation, self._issuer)
        self.coordinator.register_cross_shard_constraint(
            self.regulation, self.verifier
        )
        self.registry = self.verifier.registry
        self.blockchain = self.coordinator.replication.ledger  # SharPer
        self.platforms: Dict[str, Platform] = {
            spec.name: Platform(spec.name, spec.tables[0], shard, self.registry)
            for spec, shard in zip(self.coordinator.specs,
                                   self.coordinator.shards)
        }
        self.workers: Dict[str, Worker] = {}
        self._reasons = {
            self.regulation.constraint_id: "weekly hour cap reached",
            ISSUER_UNAVAILABLE: "authority unavailable",
            "token-double-spend": "double spend detected",
        }
        self._task_counter = 0

    def _build_platform(self, name: str, table: str) -> PReVer:
        database = Database(name)
        database.create_table(task_schema(table))
        return PReVer([database], clock=self.clock)

    @property
    def authority_offline(self) -> bool:
        """Separ's single point of failure: while True nothing is
        issued, so only tasks a wallet can already pay for pass."""
        return self._issuer.offline

    @authority_offline.setter
    def authority_offline(self, offline: bool) -> None:
        self._issuer.offline = offline

    # -- participants ---------------------------------------------------------

    def register_worker(self, name: str) -> Worker:
        worker = Worker(name, self.authority.public_key)
        self.workers[name] = worker
        return worker

    def current_period(self) -> int:
        return int(self.clock.now() // WEEK_SECONDS)

    # -- the update path (a crowdworking task completion) -----------------------

    def complete_task(
        self, worker_name: str, platform_name: str, hours: int,
        requester: str = "requester",
    ) -> TaskResult:
        """A worker+requester collaboration producing one update, under
        the worker's pseudonym for this period: the coordinator's token
        check spends ``hours`` tokens (topping the wallet up while the
        budget allows), then the platform's shard orders, applies and
        anchors the task."""
        worker = self.workers[worker_name]
        platform = self.platforms[platform_name]
        if hours <= 0:
            return TaskResult(False, reason="non-positive hours")
        pseudonym = worker.pseudonym(self.current_period())
        self.verifier.wallets[pseudonym] = worker.wallet
        self._task_counter += 1
        task_id = f"task-{self._task_counter:06d}"
        result = self.coordinator.submit(Update(
            table=platform.table,
            operation=UpdateOperation.INSERT,
            payload={
                "task_id": task_id,
                "pseudonym": pseudonym,
                "hours": hours,
                "requester": requester,
                "completed_at": self.clock.now(),
            },
            producers=[pseudonym],
            managers=[platform_name],
            update_id=task_id,
        ))
        if result.applied:
            return TaskResult(True, task_id=task_id)
        failed = result.outcome.failed_constraint
        return TaskResult(False, reason=self._reasons.get(failed, failed))

    def settle(self) -> None:
        """Drive the blockchain network to quiescence."""
        self.blockchain.run()

    # -- regulation accounting -----------------------------------------------------

    def hours_worked(self, worker_name: str, period: Optional[int] = None) -> int:
        """Ground truth across all platforms (only the worker and the
        authority could compute this; platforms cannot)."""
        period = self.current_period() if period is None else period
        pseudonym = self.workers[worker_name].pseudonym(period)
        return sum(
            row["hours"]
            for platform in self.platforms.values()
            for row in platform.tasks.lookup("pseudonym", pseudonym)
        )

    def check_lower_bound(self, worker_name: str, minimum: int,
                          period: Optional[int] = None) -> bool:
        period = self.current_period() if period is None else period
        pseudonym = self.workers[worker_name].pseudonym(period)
        return self.registry.check_lower_bound(period, pseudonym, minimum)

    def advance_weeks(self, weeks: float) -> None:
        self.clock.advance(weeks * WEEK_SECONDS)

    # -- the collusion surface (Separ's acknowledged limitation) --------------------

    def collusion_view(self, platform_names: Sequence[str]) -> dict:
        """Everything a coalition of platforms can pool: serial sets and
        pseudonym multisets.  Serials are unlinkable to issuance and
        pseudonyms rotate weekly, so the coalition learns per-pseudonym
        weekly totals — but under the no-collusion assumption each
        platform alone knows only its own share."""
        serials: List[str] = []
        per_pseudonym: Dict[str, int] = {}
        for name in platform_names:
            platform = self.platforms[name]
            serials.extend(platform.observed_serials)
            for pseudonym in platform.observed_pseudonyms:
                per_pseudonym[pseudonym] = per_pseudonym.get(pseudonym, 0) + 1
        return {"serials": serials, "pseudonym_counts": per_pseudonym}
