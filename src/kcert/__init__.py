"""Interactive certificates for sparse Krylov sequences over GF(p).

Each transcript kind is one engine.Kind record: KIND.header(mat, *values)
states the claim, and KIND.run(session, mat) proves or verifies it.  BLOCKED
is the blocked sequence certificate at every depth of row delegation, which
`kcert prove` spells checkpoint (depth 0), dense (depth 1) and klevel:k.
"""

from .applications import CHARPOLY, DET, MINPOLY
from .checkpoint import BLOCKED
from .engine import (Accept, CostLedger, MalformedTranscript, Reject, Session,
                     parse_transcript)
from .field import FieldSpec
from .logdepth import COMBINATION, POWER, SEQUENCE
from .matrix import (ParseError, SparseMatrix, random_sparse, read_matrix,
                     write_matrix)

__all__ = [
    "Accept",
    "BLOCKED",
    "CHARPOLY",
    "COMBINATION",
    "CostLedger",
    "DET",
    "FieldSpec",
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
