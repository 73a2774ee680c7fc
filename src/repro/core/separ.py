"""Separ — the worked instantiation of PReVer (Section 5).

Multi-platform crowdworking: workers are the data producers and owners;
the competing platforms (Uber, Lyft, ...) are mutually distrustful data
managers; a trusted third party is the external authority issuing the
public regulation (FLSA: at most 40 hours/week per worker across *all*
platforms).  Design choices, exactly as the paper describes Separ's:

* data and updates private, constraints public;
* centralized token-based enforcement: the authority issues 40
  blind-signed one-hour tokens per worker per week;
* global integrity state (the tokens spent) on a **sharded
  permissioned blockchain** (SharPer), replicated among the platforms;
* lower-bound regulations supported via per-period pseudonyms.

The known Separ limitations the paper lists are reproduced as explicit
behaviours the tests exercise: the trusted authority is a single point
(``authority_offline`` halts issuance), only bound constraints are
supported (richer SQL raises), and the no-collusion assumption is
surfaced by :meth:`collusion_view` showing what colluding platforms
can pool (serials and pseudonym counts — not worker identities).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.clock import SimClock
from repro.common.errors import ConstraintViolation, PReVerError
from repro.chain.sharper import ShardedLedger
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import (
    Constraint,
    WindowSpec,
    upper_bound_regulation,
)
from repro.model.participants import Authority, DataProducer
from repro.model.update import Update, UpdateOperation
from repro.privacy.tokens import (
    DoubleSpendError,
    IssuerUnavailable,
    SpendRegistry,
    TokenAuthority,
    TokenError,
    TokenWallet,
)

WEEK_SECONDS = 7 * 24 * 3600.0

TASK_SCHEMA = TableSchema.build(
    "tasks",
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
    """One crowdworking platform: a private task database plus the
    shared spend state."""

    def __init__(self, name: str):
        self.name = name
        self.database = Database(name)
        self.database.create_table(TASK_SCHEMA)
        self.observed_serials: List[str] = []
        self.observed_pseudonyms: List[str] = []

    def record_task(self, task_id: str, pseudonym: str, hours: int,
                    requester: str, at: float) -> None:
        self.database.insert(
            "tasks",
            {
                "task_id": task_id,
                "pseudonym": pseudonym,
                "hours": hours,
                "requester": requester,
                "completed_at": at,
            },
        )


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


class SeparSystem:
    """The full Separ deployment."""

    def __init__(
        self,
        platform_names: Sequence[str],
        weekly_hour_cap: int = 40,
        shards: int = 2,
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
        self.authority_offline = False
        self.registry = SpendRegistry(self.authority.public_key)
        self.platforms: Dict[str, Platform] = {
            name: Platform(name) for name in platform_names
        }
        shard_names = [f"sh{i}" for i in range(max(1, shards))]
        self.blockchain = ShardedLedger(shard_names, f=1)
        self._platform_shard = {
            name: shard_names[i % len(shard_names)]
            for i, name in enumerate(platform_names)
        }
        self.workers: Dict[str, Worker] = {}
        self.regulation = upper_bound_regulation(
            name="flsa-40h",
            table="tasks",
            column="hours",
            bound=weekly_hour_cap,
            match_columns=["pseudonym"],
            window=WindowSpec(time_column="completed_at", length=WEEK_SECONDS),
            authority=self.authority_participant.name,
        )
        self.regulation.signature = self.authority_participant.sign(
            self.regulation.body_bytes()
        )
        self._task_counter = 0

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
        """A worker+requester collaboration producing one update.

        Runs the Separ protocol: top up tokens if the budget allows,
        spend ``hours`` tokens at the platform (double-spend checked
        against the shared state), record the task under the worker's
        period pseudonym, and anchor the spend batch on the blockchain.
        """
        worker = self.workers[worker_name]
        platform = self.platforms[platform_name]
        period = self.current_period()
        if hours <= 0:
            return TaskResult(False, reason="non-positive hours")

        # Token acquisition (the authority is Separ's trust anchor).
        if worker.wallet.balance(period) < hours:
            if self.authority_offline:
                return TaskResult(False, reason="authority unavailable")
            needed = hours - worker.wallet.balance(period)
            try:
                worker.wallet.request_tokens(self.authority, period, needed)
            except IssuerUnavailable:
                return TaskResult(False, reason="authority unavailable")
            except TokenError:
                return TaskResult(False, reason="weekly hour cap reached")

        try:
            tokens = worker.wallet.take(period, hours)
        except TokenError:
            return TaskResult(False, reason="insufficient tokens")

        # Spend at the platform; platforms see serials + pseudonym only.
        pseudonym = worker.pseudonym(period)
        try:
            for token in tokens:
                self.registry.spend(token, platform_name)
                platform.observed_serials.append(token.serial)
        except DoubleSpendError:
            return TaskResult(False, reason="double spend detected")
        platform.observed_pseudonyms.append(pseudonym)

        # Record the private update on the platform's database.
        self._task_counter += 1
        task_id = f"task-{self._task_counter:06d}"
        platform.record_task(
            task_id, pseudonym, hours, requester, self.clock.now()
        )

        # Anchor the spend on the sharded blockchain (global state).
        self.blockchain.submit_intra(
            self._platform_shard[platform_name],
            {"pseudonym": pseudonym, "hours": hours, "platform": platform_name,
             "period": period},
        )
        return TaskResult(True, task_id=task_id)

    def settle(self) -> None:
        """Drive the blockchain network to quiescence."""
        self.blockchain.run()

    # -- regulation accounting -----------------------------------------------------

    def hours_worked(self, worker_name: str, period: Optional[int] = None) -> int:
        """Ground truth across all platforms (only the worker and the
        authority could compute this; platforms cannot)."""
        period = self.current_period() if period is None else period
        pseudonym = self.workers[worker_name].pseudonym(period)
        total = 0
        for platform in self.platforms.values():
            for row in platform.database.table("tasks").lookup(
                "pseudonym", pseudonym
            ):
                total += row["hours"]
        return total

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
        pseudonyms: List[str] = []
        for name in platform_names:
            serials.extend(self.platforms[name].observed_serials)
            pseudonyms.extend(self.platforms[name].observed_pseudonyms)
        per_pseudonym: Dict[str, int] = {}
        for pseudonym in pseudonyms:
            per_pseudonym[pseudonym] = per_pseudonym.get(pseudonym, 0) + 1
        return {"serials": serials, "pseudonym_counts": per_pseudonym}
