"""Saturation-aware agreement, diversity, and polarization analysis of
approval elections: index computation, statistical-culture generators,
real-world data ingestion, and the map-of-elections experiments."""

from .agreement import (
    av_agr,
    central_vote,
    cntr_agr,
    jacc_agr,
    pair_agr,
    pcc_agr,
    pccplus_agr,
)
from .clustering import kmedoids_hamming, spectral_pcc
from .core import Election, ElectionStats, stats, subsample
from .divpol import (
    a_div,
    a_pol,
    cntr_div,
    cntr_pol,
    ham_single_to_unc,
    out_div,
    pair_pol,
    pcc_div,
    pcc_pol,
)
from .experiments import (
    INDEX_NAMES,
    Embedding,
    complementarity,
    correlations,
    evaluate_index,
    feature_vector,
    index_table,
    map_of_elections,
    mds_embed,
    resampling_experiment,
    synthetic_map_entries,
)
from .generators import CultureSpec, sample
from .io import ParseError, parse_pabulib, read_native, write_native

__version__ = "0.1.0"

__all__ = [
    "Election",
    "ElectionStats",
    "stats",
    "subsample",
    "av_agr",
    "central_vote",
    "cntr_agr",
    "pair_agr",
    "jacc_agr",
    "pcc_agr",
    "pccplus_agr",
    "kmedoids_hamming",
    "spectral_pcc",
    "a_div",
    "a_pol",
    "cntr_div",
    "pcc_div",
    "cntr_pol",
    "pcc_pol",
    "pair_pol",
    "ham_single_to_unc",
    "out_div",
    "CultureSpec",
    "sample",
    "ParseError",
    "parse_pabulib",
    "write_native",
    "read_native",
    "INDEX_NAMES",
    "evaluate_index",
    "Embedding",
    "feature_vector",
    "mds_embed",
    "resampling_experiment",
    "index_table",
    "map_of_elections",
    "synthetic_map_entries",
    "complementarity",
    "correlations",
    "__version__",
]
