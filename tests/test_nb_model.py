"""``_nb_model`` (nb_lang_confusion) evaluates one ``math.log`` per
distinct (count + 1, denominator) and gathers: the model equals the
per-cell loop over every (vocabulary, language) pair."""

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def test_nb_model_matches_per_cell_logs(ray_session, tmp_path):
    from odinson_ray.pipelines.queries.text import _nb_model

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(40)]
    docs = [(str(rng.choice(["en", "de", "fr"])),
             " ".join(rng.choice(words, size=int(rng.integers(1, 12)))))
            for _ in range(60)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array([t for _, t in docs], pa.string()),
        "lang": pa.array([lg for lg, _ in docs], pa.string()),
    }), str(tmp_path / "documents.parquet"))

    langs, vocab, model, defaults, priors = _nb_model(str(tmp_path))

    counts = Counter((lg, tok) for lg, text in docs for tok in text.split(" "))
    v = len({tok for _, tok in counts})
    totals = Counter()
    for (lg, _), c in counts.items():
        totals[lg] += c
    assert langs == sorted({lg for lg, _ in docs})
    assert list(vocab) == sorted({tok for _, tok in counts})
    for j, lg in enumerate(langs):
        denom = totals[lg] + v
        assert defaults[j] == math.floor(1e6 * math.log(1.0 / denom))
        for i, tok in enumerate(vocab):
            c = counts.get((lg, tok), 0)
            assert model[i, j] == math.floor(1e6 * math.log((c + 1) / denom))
