"""Adaptive tabled-ANS text compression toolkit.

The adaptive coder transmits only the code bits, the dictionary (ordered by
last occurrence) and the token count; the decoder rebuilds the frequency
model as it goes. Static ranged and uniform spreads are included as
baselines, along with a single-file archive format, a CLI and a benchmark
harness; the benchmark also codes with the text-order spread, a size
yardstick whose table is the text itself, so no archive carries it. The
package exports compress and decompress (bytes to archive and back),
TokenizerMode and FansError; the rest lives in its own module.
"""

from .errors import FansError
from .pipeline import compress, decompress
from .tokenizer import TokenizerMode

__version__ = "0.1.0"

__all__ = ["FansError", "TokenizerMode", "compress", "decompress"]
