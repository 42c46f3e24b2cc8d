"""Interactive certificates for sparse Krylov sequences over GF(p).

Each transcript kind is one engine.Kind record: KIND.header(mat, *values)
states the claim, and KIND.run(session, mat) proves or verifies it.
"""

from .applications import CHARPOLY, DET, MINPOLY
from .checkpoint import CHECKPOINT, DENSE
from .engine import (Accept, CostLedger, MalformedTranscript, Reject, Session,
                     parse_transcript)
from .field import FieldSpec
from .logdepth import COMBINATION, POWER, SEQUENCE
from .matrix import (ParseError, SparseMatrix, random_sparse, read_matrix,
                     write_matrix)
from .recursive import KLEVEL

__all__ = [
    "Accept",
    "CHARPOLY",
    "CHECKPOINT",
    "COMBINATION",
    "CostLedger",
    "DENSE",
    "DET",
    "FieldSpec",
    "KLEVEL",
    "MINPOLY",
    "MalformedTranscript",
    "POWER",
    "ParseError",
    "Reject",
    "SEQUENCE",
    "Session",
    "SparseMatrix",
    "parse_transcript",
    "random_sparse",
    "read_matrix",
    "write_matrix",
]
