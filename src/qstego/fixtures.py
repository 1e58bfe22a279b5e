"""Shipped demo instances: small cover codes used by the simulations,
acceptance suite, and example configs.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    Isometry,
    QuantumChannel,
    identity_channel,
    standard_channel,
    tensor,
    tensor_power,
)
from .linalg import DensityMatrix, Povm, basis_state, maximally_entangled
from .protocols.codes import CcCode, EsCode, QcCode
from .protocols.resolvability import pretty_good_measurement

_KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
_KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def named_state(name: str) -> DensityMatrix:
    if name == "zero":
        return basis_state(0, 2).to_density()
    if name == "one":
        return basis_state(1, 2).to_density()
    if name == "plus":
        return DensityMatrix(np.outer(_KET_PLUS, _KET_PLUS.conj()))
    if name == "minus":
        return DensityMatrix(np.outer(_KET_MINUS, _KET_MINUS.conj()))
    if name == "maximally_mixed":
        return DensityMatrix(np.eye(2) / 2)
    raise ValueError(f"bad parameter: unknown state {name!r}")


def pgm_cc_cover(codewords, channel: QuantumChannel, n: int) -> CcCode:
    """CC cover code with the pretty-good measurement of its own outputs."""
    codewords = tuple(codewords)
    if not codewords:
        raise ValueError("bad parameter: no codewords")

    def pgm(outputs):
        return pretty_good_measurement(np.array([[out.data for out in outputs]]))[0]

    return CcCode(codewords=codewords, povm=pgm, channel=channel, n=n)


def repetition_qc_cover(p: float) -> QcCode:
    """3-qubit bit-flip repetition code against bit_flip(p)^(x3).

    The correctable Kraus set is (III, X1, X2, X3) in that order, so the
    Knill-Laflamme weights come out as ((1-p)^3, p(1-p)^2, ...).
    """
    v = np.zeros((8, 2), dtype=complex)
    v[0, 0] = 1.0  # |000>
    v[7, 1] = 1.0  # |111>
    encode = Isometry(v)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    corrections = [
        np.kron(np.kron(eye, eye), eye),
        np.kron(np.kron(x, eye), eye),
        np.kron(np.kron(eye, x), eye),
        np.kron(np.kron(eye, eye), x),
    ]
    decode = QuantumChannel(tuple(v.conj().T @ c for c in corrections))
    channel = tensor_power(standard_channel("bit_flip", p), 3)
    # Kraus index of X on qubit i within the product ordering (I=0, X=1)
    correctable = (0, 4, 2, 1)
    return QcCode(encode=encode, decode=decode, channel=channel, correctable=correctable, n=3)


def dephasing_es_cover(p: float = 0.5) -> EsCode:
    """Two-use ES cover: Phi^(2) rides use 1 untouched, a fixed |+> rides
    use 2 through dephasing(p); Bob's decoder keeps qubit 1.

    At p = 1/2 the second use is completely dephased, exposing exactly one
    uniform bit of shared randomness to the stego protocol.
    """
    channel = tensor(identity_channel(2), standard_channel("dephasing", p))
    phi = maximally_entangled(2).data.reshape(2, 2)  # A~ (x) A1
    plus = _KET_PLUS
    vec = np.einsum("ma,b->mab", phi, plus).reshape(-1)
    rho = DensityMatrix(np.outer(vec, vec.conj()))
    keep_first = QuantumChannel(
        tuple(np.kron(np.eye(2), np.eye(2)[j : j + 1, :]) for j in range(2))
    )
    return EsCode(m=2, rho=rho, decode=keep_first, channel=channel, n=2)


def split_cc_cover(p_block1: float = 0.5):
    """Split CC cover for the combined classical/entanglement demo.

    Single cover message; block 1 carries |+> through dephasing(p_block1)
    (purifying to a maximally entangled pair at p = 1/2), block 2 carries
    |0> through an identity degradation.
    """
    m1 = standard_channel("dephasing", p_block1)
    m2 = identity_channel(2)
    f1 = (named_state("plus"),)
    f2 = (named_state("zero"),)
    channel = tensor(m1, m2)
    codeword = DensityMatrix(np.kron(f1[0].data, f2[0].data))
    cover = CcCode(
        codewords=(codeword,),
        povm=Povm(np.eye(4)[None]),
        channel=channel,
        n=2,
    )
    return cover, f1, f2, m1, m2
