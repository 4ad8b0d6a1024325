"""Quantum CSS code pairs from non-binary quasi-cyclic LDPC matrices.

Pipeline: orthogonal binary quasi-cyclic pair -> non-binary lift over
GF(2^p) -> code pair on pN qubits, whose binary matrices are the
companion-matrix images of the entries.  Those matrices are never
built: syndromes apply them one p x p image at a time, and the tests
build them to check orthogonality over GF(2).  Decoding is syndrome
sum-product over GF(2)^p with Walsh-Hadamard check-node convolution;
the harness runs seeded Monte Carlo block-error sweeps.
"""

from nbqc.gf2p import FieldSpec, make_field
from nbqc.qcpair import QCParams, QCPair, build_pair, expand, find_params, has_4cycle, validate_params
from nbqc.nblift import NBMatrix, cycle_structure, lift, lift_gamma, solve_delta, verify_orthogonal
from nbqc.binexpand import CssCodePair, expand_pair, read_matrix, write_matrix
from nbqc.channel import ChannelParams, sample_error
from nbqc.decoder import DecoderConfig, DecodeOutcome, SyndromeDecoder

__all__ = [
    "FieldSpec", "make_field",
    "QCParams", "QCPair", "build_pair", "expand", "find_params", "has_4cycle", "validate_params",
    "NBMatrix", "cycle_structure", "lift", "lift_gamma", "solve_delta", "verify_orthogonal",
    "CssCodePair", "expand_pair", "read_matrix", "write_matrix",
    "ChannelParams", "sample_error",
    "DecoderConfig", "DecodeOutcome", "SyndromeDecoder",
]
