"""TF-IDF, truncated SVD, and the 2-d discriminant projection."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from riskdomains.corpus import build_megadocuments, weak_label
from riskdomains.domains import CLASSIFIED_DOMAINS, Domain
from riskdomains.errors import DataError, NumericalError
from riskdomains.pipeline import PipelineOptions, train_pipeline
from riskdomains.textnorm import text_to_terms
from riskdomains.vectorspace import (
    SvdProjection,
    TfidfModel,
    Vocabulary,
    _fix_signs,
    fit_svd,
    fit_tfidf,
    lda_2d,
    project_all,
    vectorize_all,
)

TWO_DOCS = [Counter(["patient", "anxious"]), Counter(["patient", "calm"])]


def brute_force_vectorize(docs, doc):
    """Independent term-by-term evaluation of the weighting formula."""
    terms = sorted({t for d in docs for t in d})
    n = len(docs)
    weights = []
    for t in terms:
        df = sum(1 for d in docs if t in d)
        idf = math.log((1 + n) / (1 + df)) + 1
        weights.append(doc.get(t, 0) * idf)
    norm = math.sqrt(sum(w * w for w in weights))
    if norm == 0.0:
        return np.zeros(len(terms))
    return np.array([w / norm for w in weights])


def loop_vectorize(model, docs):
    """Reference TF-IDF rows, one document and one term at a time."""
    index, idf = model.vocabulary.index, model.idf
    indptr, indices, data = [0], [], []
    for doc in docs:
        cols, vals = [], []
        for term, count in doc.items():
            i = index.get(term)
            if i is not None:
                cols.append(i)
                vals.append(count * idf[i])
        if cols:
            order = np.argsort(cols)
            cols = np.asarray(cols, dtype=np.int64)[order]
            vals = np.asarray(vals, dtype=np.float64)[order]
            norm = float(np.sqrt(np.dot(vals, vals)))
            if norm > 0.0:
                vals = vals / norm
            indices.extend(cols.tolist())
            data.extend(vals.tolist())
        indptr.append(len(indices))
    return np.asarray(indptr), np.asarray(indices, dtype=np.int64), np.asarray(data)


def csr_bits(matrix):
    """indptr, indices and the bits of data, for bit-exact comparison."""
    return (
        np.asarray(matrix.indptr, dtype=np.int64).tolist(),
        np.asarray(matrix.indices, dtype=np.int64).tolist(),
        np.asarray(matrix.data, dtype=np.float64).view(np.int64).tolist(),
    )


class TestTfidf:
    def test_idf_examples(self):
        model = fit_tfidf(TWO_DOCS)
        idf = {t: model.idf[i] for t, i in model.vocabulary.index.items()}
        assert idf["patient"] == pytest.approx(1.0, abs=1e-12)
        assert idf["anxious"] == pytest.approx(math.log(1.5) + 1, abs=1e-12)
        assert idf["anxious"] == pytest.approx(1.405465, abs=1e-6)

    def test_idf_and_df_must_fit_vocabulary(self):
        vocabulary = fit_tfidf(TWO_DOCS).vocabulary
        column = vocabulary.df[:, None]
        with pytest.raises(DataError, match=r"size 3 .* shape \[3, 1\]"):
            Vocabulary(vocabulary.terms, column)

    @pytest.mark.parametrize(
        "terms", [("anxious", "patient", "calm"), ("anxious", "calm", "calm")]
    )
    def test_terms_must_be_strictly_increasing(self, terms):
        with pytest.raises(DataError, match="strictly increasing"):
            Vocabulary(terms, np.ones(3, dtype=np.int64))

    @pytest.mark.parametrize("bad_df", [0, -5, 3])
    def test_df_must_lie_in_one_to_corpus_size(self, bad_df):
        vocabulary = fit_tfidf(TWO_DOCS).vocabulary
        df = vocabulary.df.copy()
        df[0] = bad_df
        with pytest.raises(DataError, match=r"\[1, corpus_size 2\]"):
            TfidfModel(Vocabulary(vocabulary.terms, df), corpus_size=2)

    def test_single_document_idf_is_one(self):
        model = fit_tfidf([Counter(["a", "b", "c"])])
        assert np.allclose(model.idf, 1.0)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            fit_tfidf([])

    def test_vocabulary_is_sorted_and_dense(self):
        model = fit_tfidf(TWO_DOCS)
        terms = model.vocabulary.terms
        assert list(terms) == sorted(terms)
        assert sorted(model.vocabulary.index.values()) == list(range(len(terms)))
        assert np.all(model.vocabulary.df >= 1)

    def test_vectorize_unit_norm(self):
        model = fit_tfidf(TWO_DOCS)
        vector = vectorize_all(model, [Counter(["patient", "calm", "calm"])])[0]
        assert np.linalg.norm(vector.toarray()) == pytest.approx(1.0, abs=1e-12)

    def test_vectorize_all_unknown_is_flagged_zero(self):
        model = fit_tfidf(TWO_DOCS)
        vector = vectorize_all(model, [Counter(["nothing", "matches"])])[0]
        assert vector.nnz == 0

    def test_vectorize_known_example(self):
        # Hand computation: pre-norm weights (2*1.0, 1*(ln(1.5)+1)), then L2.
        model = fit_tfidf(TWO_DOCS)
        doc = Counter({"patient": 2, "anxious": 1})
        dense = vectorize_all(model, [doc]).toarray()[0]
        idx = model.vocabulary.index
        w_patient = 2.0
        w_anxious = math.log(1.5) + 1
        norm = math.hypot(w_patient, w_anxious)
        assert dense[idx["patient"]] == pytest.approx(w_patient / norm, abs=1e-12)
        assert dense[idx["anxious"]] == pytest.approx(w_anxious / norm, abs=1e-12)
        assert dense[idx["patient"]] == pytest.approx(0.8181802073667197, abs=1e-12)
        assert dense[idx["anxious"]] == pytest.approx(0.5749618667993135, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        vocabulary = [f"t{i}" for i in range(50)]
        for _ in range(10):
            n_docs = int(rng.integers(1, 21))
            docs = []
            for _ in range(n_docs):
                size = int(rng.integers(1, 12))
                docs.append(Counter(rng.choice(vocabulary, size=size).tolist()))
            model = fit_tfidf(docs)
            for doc in docs:
                expected = brute_force_vectorize(docs, doc)
                terms = sorted({t for d in docs for t in d})
                got = vectorize_all(model, [doc]).toarray()[0]
                ordered = np.array([got[model.vocabulary.index[t]] for t in terms])
                assert np.max(np.abs(ordered - expected)) < 1e-12

    def test_vectorize_all_matches_vectorize(self):
        model = fit_tfidf(TWO_DOCS)
        docs = [Counter(["patient"]), Counter(["anxious", "calm"]), Counter(["zzz"])]
        matrix = vectorize_all(model, docs)
        for i, doc in enumerate(docs):
            row = vectorize_all(model, [doc])
            assert np.allclose(matrix[i].toarray(), row.toarray())


    def test_generator_list_and_loop_reference_agree_bit_for_bit(self, small_corpus):
        paragraphs, _, lexicon = small_corpus
        corpus = weak_label(paragraphs, lexicon)
        term_docs = [text_to_terms(p.text, lexicon.fusion) for p, _ in corpus.entries]
        model = fit_tfidf(term_docs)
        megadocs = build_megadocuments(corpus, term_docs)
        # Paragraphs with unknown terms and none known, and the much longer
        # cosine megadocument rows.
        unseen = [
            text_to_terms(p.text + " zzyzx", lexicon.fusion) for p in paragraphs
        ]
        for docs in (term_docs, unseen + [Counter(["zzyzx"])],
                     [megadocs[d] for d in CLASSIFIED_DOMAINS]):
            from_list = csr_bits(vectorize_all(model, docs))
            from_generator = csr_bits(vectorize_all(model, (d for d in docs)))
            indptr, indices, data = loop_vectorize(model, docs)
            reference = (indptr.tolist(), indices.tolist(), data.view(np.int64).tolist())
            assert from_list == from_generator == reference


@pytest.mark.parametrize("kind", ["mlp", "mlp_nomwe", "rbf", "cosine"])
def test_vocabulary_pruned_terms_vectorize_to_the_same_bits(
    kind, small_corpus, trained_mlp, trained_mlp_nomwe, trained_rbf, trained_cosine
):
    pipeline = {
        "mlp": trained_mlp, "mlp_nomwe": trained_mlp_nomwe,
        "rbf": trained_rbf, "cosine": trained_cosine,
    }[kind].pipeline
    paragraphs, _, _ = small_corpus
    # Every third paragraph holds a word no term contains.
    texts = [p.text + " zzyzx" * (i % 3 == 0) for i, p in enumerate(paragraphs)]
    table, vocabulary = pipeline.lexicon.fusion, pipeline.tfidf.vocabulary
    assert "zzyzx" not in vocabulary.words
    bits = []
    for given in (None, vocabulary):
        matrix = vectorize_all(
            pipeline.tfidf, (text_to_terms(t, table, given) for t in texts)
        )
        bits.append((matrix.indptr.tolist(), matrix.indices.tolist(),
                     matrix.data.tobytes()))
    assert bits[0] == bits[1]


class TestSvd:
    @pytest.mark.parametrize(
        "components, singular_values",
        [(np.ones(4), np.ones(1)), (np.ones((2, 4)), np.ones(3))],
    )
    def test_projection_shapes_must_fit(self, components, singular_values):
        with pytest.raises(DataError, match="do not fit together"):
            SvdProjection(components, singular_values)

    def test_identity_singular_values(self):
        projection = fit_svd(sp.identity(3, format="csr"), k=3)
        assert np.allclose(projection.singular_values, [1.0, 1.0, 1.0], atol=1e-12)

    def test_rank_one(self):
        u = np.array([[2.0], [0.0], [0.0]])
        v = np.array([[0.0, 3.0, 0.0]])
        matrix = sp.csr_matrix(u @ v)
        projection = fit_svd(matrix, k=3)
        assert projection.singular_values[0] == pytest.approx(6.0, abs=1e-10)
        assert np.all(projection.singular_values[1:] <= 1e-10)

    def reconstruction_error(self, matrix, k):
        projection = fit_svd(matrix, k=k)
        scores = project_all(projection, matrix)
        approx = scores @ projection.components
        return np.linalg.norm(matrix.toarray() - approx) / np.linalg.norm(
            matrix.toarray()
        )

    def test_full_rank_reconstruction_small(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(12, 5))
        c = rng.normal(size=(5, 40))
        matrix = sp.csr_matrix(b @ c)
        assert self.reconstruction_error(matrix, k=5) <= 1e-8

    def test_full_rank_reconstruction_large(self):
        # Over 2 M elements: a dense SVD of this shape would be costly.
        rng = np.random.default_rng(4)
        b = rng.normal(size=(30, 8))
        c = rng.normal(size=(8, 70000))
        matrix = sp.csr_matrix(b @ c)
        assert matrix.shape[0] * matrix.shape[1] > 2_000_000
        assert self.reconstruction_error(matrix, k=8) <= 1e-8

    def test_orthonormal_rows_and_sorted_sigma(self):
        rng = np.random.default_rng(5)
        matrix = sp.csr_matrix(rng.normal(size=(20, 15)))
        projection = fit_svd(matrix, k=10)
        gram = projection.components @ projection.components.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-8
        sigma = projection.singular_values
        assert np.all(sigma[:-1] >= sigma[1:] - 1e-12)
        assert np.all(sigma >= 0)

    def test_zero_sigma_tail_still_orthonormal(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(10, 3))
        c = rng.normal(size=(3, 8))
        projection = fit_svd(sp.csr_matrix(b @ c), k=6)
        gram = projection.components @ projection.components.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8
        assert np.all(projection.singular_values[3:] <= 1e-8)

    def test_arpack_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        matrix = sp.csr_matrix(np.random.default_rng(9).normal(size=(15, 12)))
        with pytest.raises(NumericalError):
            fit_svd(matrix, k=6)

    def test_clamp_warns(self):
        matrix = sp.csr_matrix(np.eye(3))
        with pytest.warns(UserWarning):
            projection = fit_svd(matrix, k=100)
        assert projection.k == 3

    def test_all_zero_matrix(self):
        with pytest.raises(DataError):
            fit_svd(sp.csr_matrix((4, 5)), k=2)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        matrix = sp.csr_matrix(rng.normal(size=(15, 12)))
        first = fit_svd(matrix, k=6)
        second = fit_svd(matrix, k=6)
        assert np.array_equal(first.components, second.components)
        assert np.array_equal(first.singular_values, second.singular_values)

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)])
    def test_matches_svds_and_dense_svd(self, shape):
        # fit_svd runs the Lanczos step of svds but none of its dense SVD;
        # both references, their rows ordered and sign-fixed, agree with it
        # to rounding.
        rng = np.random.default_rng(10)
        dense = rng.normal(size=shape) * (rng.random(shape) < 0.4)
        matrix = sp.csr_matrix(dense)
        k = 8
        v0 = np.full(min(shape), 1.0 / np.sqrt(min(shape)))
        _, singular, components = scipy.sparse.linalg.svds(matrix, k=k, v0=v0)
        order = np.argsort(-singular, kind="stable")
        _, dense_singular, dense_components = scipy.linalg.svd(dense)
        projection = fit_svd(matrix, k=k)
        rows = projection.components
        assert rows.flags.f_contiguous
        assert np.all(rows[np.arange(k), np.abs(rows).argmax(axis=1)] > 0)
        for expected_sigma, expected_rows in [
            (singular[order], components[order]),
            (dense_singular[:k], dense_components[:k]),
        ]:
            sigma = projection.singular_values
            assert np.max(np.abs(sigma - expected_sigma) / expected_sigma) < 1e-12
            peaks = np.abs(expected_rows).argmax(axis=1)
            signs = np.sign(expected_rows[np.arange(k), peaks])
            cosines = np.sum(rows * expected_rows, axis=1) * signs
            assert np.min(cosines) >= 1 - 1e-12

    @pytest.mark.parametrize("shape", [(12, 50), (50, 12)])
    def test_rank_deficient_below_full_k(self, shape):
        # Rank 3, k 6 < min(N, V): three singular values are zero, and the
        # rows for them still complete an orthonormal basis.
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(shape[0], 3)) @ rng.normal(size=(3, shape[1]))
        matrix = sp.csr_matrix(dense)
        projection = fit_svd(matrix, k=6)
        rows = projection.components
        assert rows.flags.f_contiguous
        assert np.max(np.abs(rows @ rows.T - np.eye(6))) < 1e-8
        assert np.all(projection.singular_values[3:] <= 1e-8)
        approx = project_all(projection, matrix) @ rows
        assert np.linalg.norm(approx - dense) / np.linalg.norm(dense) < 1e-8

    def test_fix_signs_matches_row_loop(self):
        rng = np.random.default_rng(12)
        components = np.asfortranarray(rng.normal(size=(9, 30)))
        expected = components.copy()
        for row in expected:
            if row[np.argmax(np.abs(row))] < 0:
                row[...] = -row
        assert _fix_signs(components) is components
        assert components.flags.f_contiguous
        assert np.array_equal(components, expected)


def test_training_runs_no_dense_svd(small_corpus, monkeypatch):
    """k < min(N, V) takes one Lanczos run: neither svds nor a dense SVD."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for module, name in [(scipy.linalg, "svd"), (scipy.sparse.linalg, "svds")]:
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    paragraphs, _, lexicon = small_corpus
    trained = train_pipeline(paragraphs, lexicon, PipelineOptions(kind="cosine"))
    assert trained.pipeline.svd.k == PipelineOptions().svd_k
    assert calls == []


class TestProject:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.matrix = sp.csr_matrix(rng.normal(size=(10, 9)))
        self.projection = fit_svd(self.matrix, k=4)

    def test_zero_vector(self):
        out = project_all(self.projection, sp.csr_matrix((1, 9)))
        assert np.allclose(out, 0.0)

    def test_right_singular_vector_hits_axis(self):
        for i in range(4):
            v = sp.csr_matrix(self.projection.components[i])
            out = project_all(self.projection, v).ravel()
            expected = np.zeros(4)
            expected[i] = 1.0
            assert np.allclose(out, expected, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a = sp.csr_matrix(rng.normal(size=(1, 9)))
        b = sp.csr_matrix(rng.normal(size=(1, 9)))
        left = project_all(self.projection, a + b)
        right = project_all(self.projection, a) + project_all(self.projection, b)
        assert np.max(np.abs(left - right)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            project_all(self.projection, sp.csr_matrix((1, 5)))


class TestLda2d:
    def test_axis_follows_mean_separation(self):
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        vectors = np.vstack([base, base + np.array([1.0, 0.0])])
        labels = [Domain.MOOD] * 4 + [Domain.SUBSTANCE] * 4
        coords = lda_2d(vectors, labels)
        a = coords[:4]
        b = coords[4:]
        assert abs(a[:, 0].mean() - b[:, 0].mean()) > 0.1
        assert abs(a[:, 1].mean() - b[:, 1].mean()) < 1e-8

    def test_identical_means_collapse(self):
        rng = np.random.default_rng(11)
        cloud = rng.normal(size=(20, 5))
        vectors = np.vstack([cloud, cloud])
        labels = [Domain.MOOD] * 20 + [Domain.SUBSTANCE] * 20
        coords = lda_2d(vectors, labels)
        assert np.max(np.abs(coords)) < 1e-6

    def test_seven_classes_shape(self):
        rng = np.random.default_rng(12)
        vectors = []
        labels = []
        for i, domain in enumerate(CLASSIFIED_DOMAINS):
            vectors.append(rng.normal(size=(5, 10)) + 3 * np.eye(10)[i])
            labels.extend([domain] * 5)
        coords = lda_2d(np.vstack(vectors), labels)
        assert coords.shape == (35, 2)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(13)
        vectors = np.vstack(
            [rng.normal(size=(10, 4)), rng.normal(size=(10, 4)) + 2.0]
        )
        labels = [Domain.MOOD] * 10 + [Domain.SUBSTANCE] * 10
        one = lda_2d(vectors, labels)
        scaled = lda_2d(3.7 * vectors, labels)
        for axis in range(2):
            col = one[:, axis]
            col_scaled = scaled[:, axis]
            if np.dot(col, col_scaled) < 0:
                col_scaled = -col_scaled
            assert np.allclose(col, col_scaled, atol=1e-4)

    def test_fewer_than_two_classes(self):
        with pytest.raises(DataError):
            lda_2d(np.zeros((3, 2)), [Domain.MOOD] * 3)

    def test_label_count_mismatch(self):
        with pytest.raises(DataError):
            lda_2d(np.zeros((3, 2)), [Domain.MOOD] * 2)
