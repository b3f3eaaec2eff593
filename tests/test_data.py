import numpy as np
import pytest

from modse.data import (
    BOS,
    EOS,
    VOCAB_SIZE,
    Batcher,
    corpus_from_docs,
    encode_doc,
    synthetic_corpus,
    synthetic_docs,
    window_starts,
)
from modse.rng import stream_rng


class TestTokens:
    def test_encode_brackets_doc(self):
        doc = "(1+2)"
        tokens = encode_doc(doc)
        assert tokens[0] == BOS and tokens[-1] == EOS
        assert bytes(tokens[1:-1].tolist()).decode() == doc

    def test_vocab_covers_all_tokens(self):
        corpus = synthetic_corpus(0, n_docs=50)
        assert corpus.min() >= 0 and corpus.max() < VOCAB_SIZE

    def test_empty_doc_list_rejected(self):
        with pytest.raises(ValueError):
            corpus_from_docs([])


class TestSyntheticCorpus:
    def test_deterministic_per_seed(self):
        assert np.array_equal(synthetic_corpus(3, n_docs=20), synthetic_corpus(3, n_docs=20))
        assert not np.array_equal(synthetic_corpus(3, n_docs=20), synthetic_corpus(4, n_docs=20))

    def test_docs_are_wellformed_expressions(self):
        for doc in synthetic_docs(1, n_docs=30):
            assert doc.count("(") == doc.count(")")
            assert eval(doc, {"__builtins__": {}}) is not None  # arithmetic parses


class TestBatcher:
    def test_batch_shape(self):
        tokens = synthetic_corpus(0, n_docs=100)
        b = Batcher(tokens, seq_len=16, batch_size=4, seed=0)
        batch = b.next_batch()
        assert batch.shape == (4, 17)

    def test_windows_come_from_corpus(self):
        tokens = np.arange(100, dtype=np.int32) % 250
        b = Batcher(tokens, seq_len=10, batch_size=2, seed=0)
        for _ in range(3):
            for row in b.next_batch():
                start = row[0] % 250
                np.testing.assert_array_equal(row, (np.arange(start, start + 11)) % 250)

    def test_epoch_increments_when_windows_exhausted(self):
        tokens = np.zeros(105, dtype=np.int32)  # 10 windows of seq 10
        b = Batcher(tokens, seq_len=10, batch_size=4, seed=0)
        assert b.epoch == 0
        for _ in range(3):
            b.next_batch()
        assert b.epoch == 1

    def test_deterministic_sequence(self):
        tokens = synthetic_corpus(0, n_docs=100)
        a = Batcher(tokens, 16, 4, seed=9)
        b = Batcher(tokens, 16, 4, seed=9)
        for _ in range(5):
            np.testing.assert_array_equal(a.next_batch(), b.next_batch())

    def test_short_corpus_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            Batcher(np.zeros(5, dtype=np.int32), seq_len=10, batch_size=1, seed=0)

    @pytest.mark.parametrize("n_tokens, starts", [(11, [0]), (20, [0]), (21, [0, 10]), (35, [0, 10, 20])])
    def test_window_grid(self, n_tokens, starts):
        # a window holds seq_len + 1 tokens and the next one starts seq_len later
        assert window_starts(n_tokens, 10).tolist() == starts


class TestStreams:
    def test_named_streams_independent(self):
        a = stream_rng(0, "init").normal(size=4)
        b = stream_rng(0, "data").normal(size=4)
        assert not np.allclose(a, b)

    def test_same_name_same_seed_reproduces(self):
        assert np.array_equal(stream_rng(7, "init").normal(size=8), stream_rng(7, "init").normal(size=8))
