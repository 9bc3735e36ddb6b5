"""Adaptive tabled-ANS text compression toolkit.

The adaptive coder transmits only the code bits, the dictionary (ordered by
last occurrence) and the token count; the decoder rebuilds the frequency
model as it goes. Static ranged/uniform/text-order spreads are included as
baselines, along with a single-file archive format, a CLI and a benchmark
harness. compress and decompress turn bytes into an archive and back.
"""

from .bench import BenchRecord, bench_dir, bench_file, compute_entropy
from .bitio import BitStack, ByteImage, pack, read_varint, unpack, write_varint
from .container import (
    Archive,
    dict_filter,
    pack_archive,
    parse_dict_entries,
    unpack_archive,
)
from .errors import FansError
from .fam_codec import fam_decode, fam_encode
from .fam_model import build_dictionary
from .pipeline import compress, decompress
from .static_codec import (
    SpreadStrategy,
    SpreadTable,
    StaticFrequencies,
    build_spread,
    count_frequencies,
    static_decode,
    static_encode,
)
from .tokenizer import TokenizerMode, detokenize, tokenize

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "BenchRecord",
    "BitStack",
    "ByteImage",
    "FansError",
    "SpreadStrategy",
    "SpreadTable",
    "StaticFrequencies",
    "TokenizerMode",
    "bench_dir",
    "bench_file",
    "build_dictionary",
    "build_spread",
    "compress",
    "compute_entropy",
    "count_frequencies",
    "decompress",
    "detokenize",
    "dict_filter",
    "fam_decode",
    "fam_encode",
    "pack",
    "pack_archive",
    "parse_dict_entries",
    "read_varint",
    "static_decode",
    "static_encode",
    "tokenize",
    "unpack",
    "unpack_archive",
    "write_varint",
]
