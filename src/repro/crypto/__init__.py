"""Cryptographic substrates, implemented from scratch.

PReVer's research challenges name a menu of cryptographic techniques;
this package provides working implementations of each building block:

* number theory: Miller–Rabin primality, modular inverse, CRT;
* a Schnorr group (prime-order subgroup of Z_p*) for commitments,
  signatures and sigma protocols;
* Paillier additively homomorphic encryption (RC1: compute on
  encrypted data);
* Pedersen commitments and Schnorr signatures;
* RSA and RSA blind signatures (RC2: unlinkable single-use tokens);
* Shamir and additive secret sharing plus Beaver triples (RC2: MPC);
* sigma-protocol zero-knowledge proofs with Fiat–Shamir (RC1:
  verifiable constraint execution);
* Merkle trees with inclusion and consistency proofs (RC4: ledgers).

Keys default to sizes that are *fast enough for a Python simulator*
(512-bit moduli); every generator takes a ``bits`` parameter so callers
can choose production sizes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.crypto.numbers import (
        is_probable_prime,
        generate_prime,
        generate_safe_prime,
        modinv,
        crt_pair,
    )
    from repro.crypto.group import SchnorrGroup
    from repro.crypto.paillier import (
        PaillierKeyPair,
        PaillierPublicKey,
        PaillierPrivateKey,
        PaillierCiphertext,
        generate_paillier_keypair,
    )
    from repro.crypto.commitments import PedersenCommitter, PedersenCommitment
    from repro.crypto.signatures import SchnorrSigner, SchnorrVerifier, SchnorrSignature
    from repro.crypto.rsa import RSAKeyPair, generate_rsa_keypair
    from repro.crypto.blind import BlindSigner, BlindClient, BlindedToken
    from repro.crypto.sharing import (
        additive_share,
        additive_reconstruct,
        shamir_share,
        shamir_reconstruct,
        BeaverTripleDealer,
    )
    from repro.crypto.merkle import MerkleTree, InclusionProof, ConsistencyProof
    from repro.crypto.hashing import sha256d, hash_to_int, prf
    from repro.crypto import zkp

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.crypto.numbers": (
        "is_probable_prime", "generate_prime", "generate_safe_prime", "modinv",
        "crt_pair",
    ),
    "repro.crypto.group": ("SchnorrGroup",),
    "repro.crypto.paillier": (
        "PaillierKeyPair", "PaillierPublicKey", "PaillierPrivateKey",
        "PaillierCiphertext", "generate_paillier_keypair",
    ),
    "repro.crypto.commitments": ("PedersenCommitter", "PedersenCommitment"),
    "repro.crypto.signatures": (
        "SchnorrSigner", "SchnorrVerifier", "SchnorrSignature",
    ),
    "repro.crypto.rsa": ("RSAKeyPair", "generate_rsa_keypair"),
    "repro.crypto.blind": ("BlindSigner", "BlindClient", "BlindedToken"),
    "repro.crypto.sharing": (
        "additive_share", "additive_reconstruct", "shamir_share",
        "shamir_reconstruct", "BeaverTripleDealer",
    ),
    "repro.crypto.merkle": (
        "MerkleTree", "InclusionProof", "ConsistencyProof",
    ),
    "repro.crypto.hashing": ("sha256d", "hash_to_int", "prf"),
    "repro.crypto.zkp": ("zkp",),
})

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_safe_prime",
    "modinv",
    "crt_pair",
    "SchnorrGroup",
    "PaillierKeyPair",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierCiphertext",
    "generate_paillier_keypair",
    "PedersenCommitter",
    "PedersenCommitment",
    "SchnorrSigner",
    "SchnorrVerifier",
    "SchnorrSignature",
    "RSAKeyPair",
    "generate_rsa_keypair",
    "BlindSigner",
    "BlindClient",
    "BlindedToken",
    "additive_share",
    "additive_reconstruct",
    "shamir_share",
    "shamir_reconstruct",
    "BeaverTripleDealer",
    "MerkleTree",
    "InclusionProof",
    "ConsistencyProof",
    "sha256d",
    "hash_to_int",
    "prf",
    "zkp",
]
