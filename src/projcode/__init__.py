"""Binary [36,19,8] and [40,22,8] codes with projection decoding.

The codes are built from two additive GF(4) codes (``c4_9``, ``c4_10``)
via the weight-doubling embedding plus a parity tail (constructions O and
E in :mod:`projcode.projection`), giving four inequivalent binary codes.
:mod:`projcode.decoder` corrects every error of weight up to 3 by
projecting the received word back onto GF(4) and repairing columns.
"""

from .bitlin import BinaryLinearCode, CosetTable, parse_matrix
from .decoder import DecodeOutcome, DecoderContext, DecodeTrace, decode
from .projection import Variant, construct, has_projection
from .quaternary import QuaternaryCode, c4_9, c4_10, parse_gf4_matrix

__version__ = "0.1.0"

__all__ = [
    "BinaryLinearCode",
    "CosetTable",
    "DecodeOutcome",
    "DecodeTrace",
    "DecoderContext",
    "QuaternaryCode",
    "Variant",
    "c4_9",
    "c4_10",
    "construct",
    "decode",
    "has_projection",
    "parse_gf4_matrix",
    "parse_matrix",
    "__version__",
]
