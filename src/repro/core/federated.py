"""Federated verification engines (Research Challenge 2).

Two mechanisms, matching the paper's centralized/decentralized split:

* :class:`TokenVerifier` — centralized token-based enforcement: a
  trusted authority issues blind-signed per-period budgets; platforms
  verify and spend tokens against a shared double-spend registry.
  Supports upper- and lower-bound regulations on COUNT/SUM with integer
  units; "token-based mechanisms can only address simple
  COUNT-aggregate queries" (the paper) is enforced fail-closed.
* :class:`MPCVerifier` — decentralized secure multi-party computation:
  the platforms jointly evaluate the regulation over bit-shared local
  aggregates, revealing only the decision bit.
"""

from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import PReVerError
from repro.common.metrics import MetricsRegistry
from repro.core.outcome import VerificationOutcome
from repro.core.verifiers import BaseVerifier, EngineError
from repro.model.constraints import Comparison, Constraint
from repro.model.update import Update
from repro.privacy import leakage as lk
from repro.privacy.mpc import MPCContext
from repro.privacy.tokens import (
    DoubleSpendError,
    SpendRegistry,
    TokenAuthority,
    TokenError,
    TokenWallet,
)


class TokenVerifier(BaseVerifier):
    """Centralized token-based regulation enforcement (Separ's core)."""

    name = "token"
    profile = lk.TOKEN_PROFILE

    def __init__(
        self,
        constraint: Constraint,
        authority: Optional[TokenAuthority] = None,
        registry: Optional[SpendRegistry] = None,
        period_of: Optional[Callable[[float], int]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__([constraint], metrics)
        if not constraint.is_aggregate:
            raise EngineError("token mechanism needs an aggregate constraint")
        if constraint.aggregate.func.upper() not in ("COUNT", "SUM"):
            raise EngineError(
                "token-based mechanisms only address COUNT/SUM budgets "
                "(the generalization gap the paper highlights)"
            )
        if constraint.comparison is not Comparison.LE:
            raise EngineError(
                "token spending enforces upper bounds; use "
                "check_lower_bounds() for GE regulations at period close"
            )
        self.constraint = constraint
        self.authority = authority or TokenAuthority(
            budget_per_period=int(constraint.bound), rsa_bits=512
        )
        self.registry = registry or SpendRegistry(self.authority.public_key)
        window = constraint.aggregate.window
        default_period = window.length if window else 7 * 24 * 3600.0
        self.period_of = period_of or (lambda now: int(now // default_period))
        self._wallets: Dict[str, TokenWallet] = {}

    def wallet_for(self, producer: str) -> TokenWallet:
        if producer not in self._wallets:
            self._wallets[producer] = TokenWallet(producer, self.authority.public_key)
        return self._wallets[producer]

    def units_of(self, update: Update) -> int:
        contribution = self.constraint.aggregate.contribution_of(update.payload)
        units = int(round(contribution))
        if abs(units - contribution) > 1e-9:
            raise EngineError("token units must be integers")
        if units < 0:
            raise EngineError("token units must be non-negative")
        return units

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        """Spend ``units`` tokens for the update's producer.

        The wallet lazily tops up from the authority (up to the budget);
        running out of budget *is* the regulation rejection.
        """
        period = self.period_of(now)
        producer = update.producers[0] if update.producers else "anonymous"
        wallet = self.wallet_for(producer)
        units = self.units_of(update)
        with self.metrics.timed("token.check"):
            if wallet.balance(period) < units:
                needed = units - wallet.balance(period)
                try:
                    wallet.request_tokens(self.authority, period, needed)
                except TokenError:
                    return self._outcome(
                        False, failed=self.constraint.constraint_id
                    )
            try:
                tokens = wallet.take(period, units)
            except TokenError:
                return self._outcome(False, failed=self.constraint.constraint_id)
            platform = update.managers[0] if update.managers else "platform"
            try:
                self.registry.spend(tokens, platform)
            except DoubleSpendError:
                return self._outcome(False, failed="token-double-spend")
        spent = [token.serial for token in tokens]
        for serial in spent:
            self._observe(("serial", serial))
        self.metrics.counter("token.spent").add(units)
        return self._outcome(True, serials=spent, period=period)

    def check_lower_bound(self, producer: str, period: int, minimum: int) -> bool:
        """Period-close GE regulation via per-pseudonym spend counts."""
        wallet = self.wallet_for(producer)
        return self.registry.check_lower_bound(
            period, wallet.pseudonym_for(period), minimum
        )


class MPCVerifier(BaseVerifier):
    """Decentralized secure multi-party verification.

    Each platform holds a local database; the regulation aggregates
    across all of them.  Per verification, each platform computes its
    *local* aggregate in the clear (its own data), then the platforms
    run the bitwise MPC protocol to test
    ``sum(local aggregates) + contribution <= bound``, revealing only
    the decision.
    """

    name = "mpc"
    profile = lk.MPC_PROFILE

    def __init__(
        self,
        databases: Sequence,            # one per platform
        constraint: Constraint,
        width: int = 12,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__([constraint], metrics)
        if not (constraint.is_aggregate and constraint.is_linear()):
            raise EngineError("MPCVerifier needs a linear aggregate constraint")
        if constraint.comparison not in (Comparison.LE, Comparison.GE):
            raise EngineError("MPCVerifier supports LE/GE bounds")
        if len(databases) < 2:
            raise EngineError("federated MPC needs at least 2 platforms")
        self.databases = list(databases)
        self.constraint = constraint
        self.width = width
        self.mpc_runs = 0

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        constraint = self.constraint
        submitting = 0  # index of the platform receiving the update
        if update.managers:
            for i, database in enumerate(self.databases):
                if database.name == update.managers[0]:
                    submitting = i
                    break
        local_values: List[int] = []
        for i, database in enumerate(self.databases):
            local = constraint.aggregate.evaluate_over(
                [database], update.table, update.payload, now
            )
            if i == submitting:
                local += constraint.aggregate.contribution_of(update.payload)
            value = int(round(local))
            if value < 0:
                raise EngineError("MPC bitwise protocol needs non-negative values")
            local_values.append(value)
        context = MPCContext(parties=len(self.databases), metrics=self.metrics)
        with self.metrics.timed("mpc.check"):
            within = context.verify_sum_upper_bound(
                local_values, int(constraint.bound), self.width
            )
        self.mpc_runs += 1
        if constraint.comparison is Comparison.GE:
            # GE: sum >= bound  <=>  not (sum <= bound - 1)
            context_ge = MPCContext(parties=len(self.databases), metrics=self.metrics)
            within = not context_ge.verify_sum_upper_bound(
                local_values, int(constraint.bound) - 1, self.width
            )
        self._observe(("decision", within))
        if not within:
            return self._outcome(False, failed=constraint.constraint_id)
        return self._outcome(True, parties=len(self.databases))
