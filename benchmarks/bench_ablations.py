"""Ablations for the design choices DESIGN.md calls out.

* A1 — Paillier CRT decryption vs the textbook path (the standard ~4x
  optimization the implementation carries);
* A3 — centralized vs distributed token issuance (the Separ
  future-work feature): the price of removing the trusted party;
* A4 — auditor strategy: incremental consistency proofs vs naive full
  rehash of the journal.
"""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.ledger.audit import LedgerAuditor
from repro.ledger.central import CentralLedger
from repro.privacy.threshold_tokens import DistributedTokenAuthority
from repro.privacy.tokens import TokenAuthority, TokenWallet

from _report import print_table


# -- A1: Paillier decryption paths ------------------------------------------------

def test_paillier_decrypt_plain(benchmark, paillier_keys):
    ciphertext = paillier_keys.public_key.encrypt(123456)
    benchmark.pedantic(
        lambda: paillier_keys.private_key.decrypt(ciphertext),
        rounds=10, iterations=3,
    )


def test_paillier_decrypt_crt(benchmark, paillier_keys):
    ciphertext = paillier_keys.public_key.encrypt(123456)
    benchmark.pedantic(
        lambda: paillier_keys.private_key.decrypt_crt(ciphertext),
        rounds=10, iterations=3,
    )


# -- A3: centralized vs distributed issuance ------------------------------------------

def test_centralized_issuance(benchmark):
    authority = TokenAuthority(budget_per_period=10**6, rsa_bits=512)
    wallet = TokenWallet("w", authority.public_key)
    benchmark.pedantic(
        lambda: wallet.request_tokens(authority, period=1, count=1),
        rounds=5, iterations=1,
    )


@pytest.mark.parametrize("signers", [2, 4, 8])
def test_distributed_issuance(benchmark, signers):
    authority = DistributedTokenAuthority(
        signers=signers, budget_per_period=10**6, rsa_bits=512
    )
    wallet = TokenWallet("w", authority.public_key)
    benchmark.pedantic(
        lambda: wallet.request_tokens(authority, period=1, count=1),
        rounds=5, iterations=1,
    )


# -- A4: auditor strategy -----------------------------------------------------------

def test_incremental_audit(benchmark):
    ledger = CentralLedger()
    for i in range(2000):
        ledger.append({"update": i})
    auditor = LedgerAuditor()
    auditor.audit(ledger)

    def round_trip():
        ledger.append({"update": -1})
        assert auditor.audit(ledger).ok

    benchmark.pedantic(round_trip, rounds=5, iterations=1)


def test_full_rehash_audit(benchmark):
    ledger = CentralLedger()
    for i in range(2000):
        ledger.append({"update": i})

    def full_rehash():
        ledger.append({"update": -1})
        tree = MerkleTree([e.leaf_bytes() for e in ledger.entries()])
        assert tree.root() == ledger.digest().root

    benchmark.pedantic(full_rehash, rounds=5, iterations=1)


def test_ablation_report(benchmark, capsys, paillier_keys):
    import time

    rows = []

    def sweep():
        rows.clear()
        # A1
        ct = paillier_keys.public_key.encrypt(42)
        start = time.perf_counter()
        for _ in range(20):
            paillier_keys.private_key.decrypt(ct)
        plain = (time.perf_counter() - start) / 20
        start = time.perf_counter()
        for _ in range(20):
            paillier_keys.private_key.decrypt_crt(ct)
        crt = (time.perf_counter() - start) / 20
        rows.append(["A1 paillier decrypt", f"plain {plain*1e6:.0f}us",
                     f"crt {crt*1e6:.0f}us", f"{plain/crt:.1f}x"])
        # A3
        central = TokenAuthority(budget_per_period=10**6, rsa_bits=512)
        wallet = TokenWallet("w", central.public_key)
        start = time.perf_counter()
        for _ in range(5):
            wallet.request_tokens(central, period=1, count=1)
        central_cost = (time.perf_counter() - start) / 5
        for signers in (2, 8):
            authority = DistributedTokenAuthority(
                signers=signers, budget_per_period=10**6, rsa_bits=512
            )
            dist_wallet = TokenWallet("w", authority.public_key)
            start = time.perf_counter()
            for _ in range(5):
                dist_wallet.request_tokens(authority, period=1, count=1)
            cost = (time.perf_counter() - start) / 5
            rows.append([
                f"A3 issuance, {signers} signers",
                f"central {central_cost*1e3:.2f}ms",
                f"distributed {cost*1e3:.2f}ms",
                f"{cost/central_cost:.1f}x",
            ])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print_table("Ablations", ["ablation", "baseline", "variant",
                                  "ratio"], rows)
