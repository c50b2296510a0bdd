"""Dense bit-vector / bit-matrix arithmetic over GF(2).

Vectors and matrix rows are packed into Python integers (bit ``j`` of the
integer is element ``j``), so XOR-folds do word-level work while the public
interface stays element-wise and 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


class Gf2ShapeError(ValueError):
    """Raised when operand dimensions do not conform."""


def _pack(bits: Iterable[int]) -> tuple[int, int]:
    word = 0
    n = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"GF(2) element must be 0 or 1, got {b!r}")
        word |= int(b) << n
        n += 1
    return word, n


@dataclass(frozen=True)
class BitVector:
    """Immutable row vector over GF(2), packed into a single int."""

    word: int
    n: int

    @staticmethod
    def from_bits(bits: Iterable[int]) -> "BitVector":
        word, n = _pack(bits)
        return BitVector(word, n)

    @staticmethod
    def from_numpy(bits: np.ndarray) -> "BitVector":
        """The vector of a 1-d array of 0s and 1s, packed through bytes; any other
        array goes through from_bits, which raises its errors."""
        a = np.asarray(bits)
        if a.ndim != 1 or ((a != 0) & (a != 1)).any():
            return BitVector.from_bits(a.tolist())
        packed = np.packbits(a.astype(np.uint8), bitorder="little")
        return BitVector(int.from_bytes(packed.tobytes(), "little"), len(a))

    @staticmethod
    def zeros(n: int) -> "BitVector":
        if n < 0:
            raise ValueError(f"vector length must be >= 0, got {n}")
        return BitVector(0, n)

    @staticmethod
    def from_int(word: int, n: int) -> "BitVector":
        if word < 0 or word >> n:
            raise ValueError(f"word {word} does not fit in {n} bits")
        return BitVector(word, n)

    def __post_init__(self) -> None:
        if self.n < 0 or self.word < 0 or self.word >> self.n:
            raise ValueError(f"invalid BitVector(word={self.word}, n={self.n})")

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for length {self.n}")
        return (self.word >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.word >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise Gf2ShapeError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.word ^ other.word, self.n)

    def weight(self) -> int:
        return bin(self.word).count("1")

    def to_numpy(self) -> np.ndarray:
        raw = np.frombuffer(self.word.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.n, bitorder="little")

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self)})"


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix; each row packed into an int (bit j = column j)."""

    row_words: tuple[int, ...]
    ncols: int

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ncols: int | None = None) -> "BitMatrix":
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with zero rows")
            ncols = len(rows[0])
        words = []
        for r in rows:
            if len(r) != ncols:
                raise Gf2ShapeError(f"ragged rows: expected {ncols} columns, got {len(r)}")
            word, _ = _pack(r)
            words.append(word)
        return BitMatrix(tuple(words), ncols)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "BitMatrix":
        return BitMatrix((0,) * nrows, ncols)

    @staticmethod
    def from_numpy(a: np.ndarray) -> "BitMatrix":
        a = np.asarray(a)
        if a.ndim != 2:
            raise Gf2ShapeError(f"expected 2-d array, got shape {a.shape}")
        return BitMatrix.from_rows(a.astype(int).tolist(), a.shape[1])

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise ValueError(f"ncols must be >= 0, got {self.ncols}")
        for w in self.row_words:
            if w < 0 or w >> self.ncols:
                raise ValueError(f"row word {w} does not fit in {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.row_words)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> BitVector:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for shape {self.shape}")
        word = 0
        for i, w in enumerate(self.row_words):
            word |= ((w >> j) & 1) << i
        return BitVector(word, self.nrows)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(
            tuple(self.column(j).word for j in range(self.ncols)), self.nrows
        )

    def to_lists(self) -> list[list[int]]:
        return [[(w >> j) & 1 for j in range(self.ncols)] for w in self.row_words]

    def to_numpy(self) -> np.ndarray:
        return np.array(self.to_lists(), dtype=np.uint8).reshape(self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.row_words)

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


def gf2_vec_mat(v: BitVector, m: BitMatrix) -> BitVector:
    """Row vector times matrix over GF(2): result[j] = XOR_i v[i]*m[i][j]."""
    if v.n != m.nrows:
        raise Gf2ShapeError(
            f"dimension mismatch: vector of length {v.n} times {m.nrows}x{m.ncols} matrix"
        )
    acc = 0
    w = v.word
    i = 0
    while w:
        if w & 1:
            acc ^= m.row_words[i]
        w >>= 1
        i += 1
    return BitVector(acc, m.ncols)


def sample_uniform_matrix(
    rows: int, cols: int, rng_state: int | np.random.Generator | Sequence[int]
) -> BitMatrix:
    """Draw a uniformly random GF(2) matrix; a pure function of (rows, cols, seed)."""
    if rows < 0 or cols < 0:
        raise ValueError(f"shape must be nonnegative, got {rows}x{cols}")
    # default_rng returns a Generator it is given unchanged
    bits = np.random.default_rng(rng_state).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    return BitMatrix.from_numpy(bits)
