import numpy as np
import pytest

from qstego.channels import Isometry, identity_channel, standard_channel
from qstego.fixtures import dephasing_es_cover, named_state, pgm_cc_cover, repetition_qc_cover, split_cc_cover
from qstego.hashing import build_classical_hash, build_quantum_hash
from qstego.info import CqState, Pmf
from qstego.linalg import DensityMatrix, HermitianOperator, Povm, PureState, maximally_entangled
from qstego.protocols import (
    build_resolvability_codes,
    build_stego_cc_es,
    build_stego_cc_noiseless,
    build_stego_es_rs,
    build_stego_qc_cc,
    trivial_aligner_distiller,
)


def cq_state():
    return CqState(Pmf(np.array([0.5, 0.5])), (named_state("zero"), named_state("plus")))


#: class name -> a function that builds a new instance of it, the same content each time
VALUE_OBJECTS = {
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
    "PureState": lambda: PureState(np.array([1.0, 0.0], dtype=complex)),
    "HermitianOperator": lambda: HermitianOperator(np.eye(2, dtype=complex)),
    "Povm": lambda: Povm(np.eye(2)[None]),
    "KrausIndex": lambda: standard_channel("bit_flip", 0.1).kraus,
    "QuantumChannel": lambda: standard_channel("bit_flip", 0.1),
    "Isometry": lambda: Isometry(np.eye(2, dtype=complex)),
    "Pmf": lambda: Pmf(np.array([0.5, 0.5])),
    "CqState": cq_state,
    "HashEncoder": lambda: build_classical_hash([0.5, 0.25, 0.25], 2, 0.0, seed=0),
    "QuantumHashCode": lambda: build_quantum_hash(DensityMatrix(np.eye(2) / 2), 2, 0.0, seed=0),
    "CcCode": lambda: pgm_cc_cover([named_state("zero"), named_state("one")], identity_channel(2)),
    "QcCode": lambda: repetition_qc_cover(0.1),
    "EsCode": lambda: dephasing_es_cover(0.5),
    "ResolvabilityCode": lambda: build_resolvability_codes(cq_state(), 2, 1, [0])[0],
    "EdCode": lambda: trivial_aligner_distiller(maximally_entangled(2), 2, 1, 0.01),
    "StegoCcCode": lambda: build_stego_cc_noiseless(
        pgm_cc_cover([named_state("zero"), named_state("one")], identity_channel(2)), 1, 0.1, seed=0
    ),
    "StegoQcCcCode": lambda: build_stego_qc_cc(repetition_qc_cover(0.1), 2, 0.6, seed=0),
    "StegoEsRsCode": lambda: build_stego_es_rs(dephasing_es_cover(0.5), 2, 0.1, seed=0),
    "StegoCcEsCode": lambda: build_stego_cc_es(*split_cc_cover(0.5), 0.5, seed=0),
}


@pytest.mark.parametrize("name", VALUE_OBJECTS)
def test_compares_and_hashes_by_identity(name):
    # a value object holding arrays has no elementwise-safe generated __eq__
    # or __hash__, so it is the same object only as itself
    a, b = VALUE_OBJECTS[name](), VALUE_OBJECTS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert (a == b) is False and a != b
    assert len({a, b, a}) == 2
