from .codes import (
    CcCode,
    EdCode,
    EsCode,
    QcCode,
    ResolvabilityCode,
    StegoCcCode,
    StegoCcEsCode,
    StegoEsRsCode,
    StegoQcCcCode,
)
from .resolvability import build_resolvability_codes, pretty_good_measurement, resolvability_metrics
from .stego_cc import build_stego_cc_noiseless, build_stego_cc_noisy, side_states_from_degradation
from .stego_cc_es import build_stego_cc_es, trivial_aligner_distiller
from .stego_es_rs import build_stego_es_rs
from .stego_qc_cc import build_stego_qc_cc, orthogonalize_correctable_kraus
from .verifiers import (
    experiment_random_code_entropy,
    experiment_sutherland_bound,
    verify_gentle_composition,
    verify_pj_minentropy_bound,
)

__all__ = [
    "CcCode",
    "EdCode",
    "EsCode",
    "QcCode",
    "ResolvabilityCode",
    "StegoCcCode",
    "StegoCcEsCode",
    "StegoEsRsCode",
    "StegoQcCcCode",
    "build_resolvability_codes",
    "build_stego_cc_es",
    "build_stego_cc_noiseless",
    "build_stego_cc_noisy",
    "build_stego_es_rs",
    "build_stego_qc_cc",
    "experiment_random_code_entropy",
    "experiment_sutherland_bound",
    "orthogonalize_correctable_kraus",
    "pretty_good_measurement",
    "resolvability_metrics",
    "side_states_from_degradation",
    "trivial_aligner_distiller",
    "verify_gentle_composition",
    "verify_pj_minentropy_bound",
]
