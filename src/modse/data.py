"""Byte-level tokens and a deterministic synthetic corpus of arithmetic expressions.

The tokenizer is plain bytes plus BOS/EOS markers (vocab 258). The synthetic
corpus is built from nested bracketed arithmetic, which gives the stream both
easy continuations (digits inside a number, forced closing brackets) and hard
ones (operator and operand choices at phrase boundaries).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .rng import stream_rng

BOS = 256
EOS = 257
VOCAB_SIZE = 258

_OPS = "+-*/"


def encode_doc(text: str) -> np.ndarray:
    body = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int32)
    return np.concatenate([[BOS], body, [EOS]]).astype(np.int32)


def corpus_from_docs(docs: list[str]) -> np.ndarray:
    if not docs:
        raise ValueError("corpus needs at least one document")
    return np.concatenate([encode_doc(d) for d in docs])


def _expression(rng: np.random.Generator, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return str(int(rng.integers(0, 100)))
    left = _expression(rng, depth - 1)
    right = _expression(rng, depth - 1)
    op = _OPS[int(rng.integers(0, len(_OPS)))]
    return f"({left}{op}{right})"


def synthetic_docs(seed: int, n_docs: int = 4000, max_depth: int = 4) -> list[str]:
    rng = stream_rng(seed, "data")
    return [_expression(rng, int(rng.integers(1, max_depth + 1))) for _ in range(n_docs)]


def synthetic_corpus(seed: int, n_docs: int = 4000, max_depth: int = 4) -> np.ndarray:
    return corpus_from_docs(synthetic_docs(seed, n_docs, max_depth))


def load_text_corpus(paths: list[str | Path]) -> np.ndarray:
    docs = []
    for p in paths:
        docs.append(Path(p).read_text(encoding="utf-8"))
    return corpus_from_docs(docs)


def window_starts(n_tokens: int, seq_len: int) -> np.ndarray:
    """Start offsets of the [seq_len+1]-token windows that tile a stream of
    n_tokens back to back, one every seq_len tokens; trailing tokens short of
    a full window are left out."""
    starts = np.arange(0, n_tokens - seq_len, seq_len)
    if len(starts) == 0:
        raise ValueError(f"corpus of {n_tokens} tokens is shorter than one window ({seq_len + 1})")
    return starts


class Batcher:
    """Deterministic stream of [batch, seq_len+1] windows over a token array.

    Window starts are fixed on the `window_starts` grid; their visit order is
    reshuffled every epoch from the root seed's "shuffle" stream, so the
    whole batch sequence is a function of (tokens, seq_len, batch_size, seed).
    """

    def __init__(self, tokens: np.ndarray, seq_len: int, batch_size: int, seed: int):
        tokens = np.asarray(tokens, dtype=np.int32)
        self._starts = window_starts(len(tokens), seq_len)
        self.tokens = tokens
        self.seq_len = seq_len
        self.batch_size = batch_size
        self._rng = stream_rng(seed, "shuffle")
        self._order = self._rng.permutation(self._starts)
        self._cursor = 0
        self.epoch = 0

    def next_batch(self) -> np.ndarray:
        rows = []
        for _ in range(self.batch_size):
            if self._cursor >= len(self._order):
                self._order = self._rng.permutation(self._starts)
                self._cursor = 0
                self.epoch += 1
            s = self._order[self._cursor]
            self._cursor += 1
            rows.append(self.tokens[s : s + self.seq_len + 1])
        return np.stack(rows)
