"""Threshold calibration, open-world assignment, and end-to-end scoring."""

import dataclasses
import warnings

import numpy as np
import pytest

from riskdomains import corpus, textnorm
from riskdomains.classify import (
    CosineModel,
    ThresholdSet,
    assign,
    calibrate,
    classify_batch,
    classify_paragraph,
    score_vectors,
)
from riskdomains.domains import CLASSIFIED_DOMAINS, Domain
from riskdomains.errors import ConfigError, DataError, NumericalError
from riskdomains.networks import init_mlp
from riskdomains.pipeline import DEFAULT_ALPHA, PipelineOptions, train_pipeline
from riskdomains.vectorspace import SvdProjection


def flat_thresholds(value: float) -> ThresholdSet:
    return ThresholdSet(alpha=0.0, means=np.full(7, value), sigmas=np.zeros(7))


def assign_row(scores, thresholds: ThresholdSet):
    """Labels of one known row through the matrix assign."""
    return assign(np.asarray(scores)[None, :], thresholds, np.ones(1, dtype=bool))[0]


def cosine_scores(x, megadocs):
    return score_vectors(CosineModel(np.asarray(megadocs, dtype=np.float64)), x)


class TestCalibrate:
    def test_hand_computed_threshold(self):
        # mean 0.4, population sigma sqrt(0.08/3); alpha 1.2.
        scores = np.tile(np.array([[0.2], [0.4], [0.6]]), (1, 7))
        result = calibrate(scores, alpha=1.2)
        expected = 0.4 + 1.2 * np.sqrt(((0.2 - 0.4) ** 2 + 0.0 + (0.6 - 0.4) ** 2) / 3)
        assert result.thresholds[0] == pytest.approx(expected, abs=1e-15)
        assert result.thresholds[0] == pytest.approx(0.5959591794226543, abs=1e-12)
        assert result.thresholds[0] == pytest.approx(0.595959, abs=1e-6)
        assert np.allclose(result.thresholds, result.thresholds[0])

    def test_alpha_zero_gives_means(self):
        rng = np.random.default_rng(0)
        scores = rng.random((40, 7))
        result = calibrate(scores, alpha=0.0)
        assert np.allclose(result.thresholds, scores.mean(axis=0), atol=1e-12)

    def test_single_scores_have_zero_sigma(self):
        scores = np.array([[0.1 * (i + 1) for i in range(7)]])
        result = calibrate(scores, alpha=5.0)
        assert np.allclose(result.sigmas, 0.0)
        assert np.allclose(result.thresholds, [0.1 * (i + 1) for i in range(7)])

    def test_population_sigma_not_sample(self):
        scores = np.tile(np.array([[0.0], [1.0]]), (1, 7))
        result = calibrate(scores, alpha=1.0)
        # Population sigma of {0, 1} is 0.5; the sample estimate would be ~0.707.
        assert result.sigmas[0] == pytest.approx(0.5, abs=1e-15)

    def test_threshold_identity(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(30, 7))
        result = calibrate(scores, alpha=0.78)
        assert np.allclose(
            result.thresholds, result.means + 0.78 * result.sigmas, atol=1e-15
        )
        assert np.all(result.sigmas >= 0.0)

    def test_non_finite_alpha(self):
        scores = np.zeros((3, 7))
        with pytest.raises(ConfigError):
            calibrate(scores, alpha=float("nan"))
        with pytest.raises(ConfigError):
            calibrate(scores, alpha=float("inf"))

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            calibrate(np.zeros((0, 7)), alpha=1.0)

    def test_wrong_column_count(self):
        with pytest.raises(DataError):
            calibrate(np.zeros((3, 6)), alpha=1.0)

    def test_default_alphas(self):
        assert DEFAULT_ALPHA == {"mlp": 0.78, "rbf": 1.2, "cosine": 2.2}


class TestAlphaMonotonicity:
    def test_qualifying_shrinks_as_alpha_grows(self):
        rng = np.random.default_rng(3)
        scores = rng.random((60, 7))
        previous_counts = None
        previous_other = None
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            thresholds = calibrate(scores, alpha=alpha)
            counts = []
            other = 0
            for labels in assign(scores, thresholds, np.ones(len(scores), dtype=bool)):
                if labels == [Domain.OTHER]:
                    counts.append(0)
                    other += 1
                else:
                    counts.append(len(labels))
            if previous_counts is not None:
                assert all(c <= p for c, p in zip(counts, previous_counts))
                assert other >= previous_other
            previous_counts = counts
            previous_other = other


class TestAssign:
    def test_all_below_is_other(self):
        assert assign_row(np.full(7, 0.1), flat_thresholds(0.5)) == [Domain.OTHER]

    def test_single_qualifier(self):
        scores = np.full(7, 0.1)
        scores[4] = 0.9
        assert assign_row(scores, flat_thresholds(0.5)) == [Domain.OCCUPATION]

    def test_descending_margin_order(self):
        scores = np.full(7, 0.1)
        scores[3] = 0.9  # Mood, margin 0.4
        scores[6] = 0.7  # Substance, margin 0.2
        assert assign_row(scores, flat_thresholds(0.5)) == [
            Domain.MOOD,
            Domain.SUBSTANCE,
        ]

    def test_margin_not_raw_score_orders(self):
        thresholds = ThresholdSet(
            alpha=0.0,
            means=np.array([0.1, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]),
            sigmas=np.zeros(7),
        )
        scores = np.array([0.6, 0.95, 0.0, 0.0, 0.0, 0.0, 0.0])
        # Appearance margin 0.5 beats ThoughtContent margin 0.05 despite
        # the lower raw score.
        assert assign_row(scores, thresholds) == [
            Domain.APPEARANCE,
            Domain.THOUGHT_CONTENT,
        ]

    def test_tie_breaks_on_domain_index(self):
        scores = np.full(7, 0.1)
        scores[0] = 0.7
        scores[6] = 0.7
        assert assign_row(scores, flat_thresholds(0.5)) == [
            Domain.APPEARANCE,
            Domain.SUBSTANCE,
        ]

    def test_exact_threshold_qualifies(self):
        scores = np.full(7, 0.1)
        scores[2] = 0.5
        assert assign_row(scores, flat_thresholds(0.5)) == [Domain.INTERPERSONAL]

    def test_other_is_exclusive(self):
        rng = np.random.default_rng(4)
        thresholds = flat_thresholds(0.5)
        for _ in range(200):
            labels = assign_row(rng.random(7), thresholds)
            assert labels
            if Domain.OTHER in labels:
                assert labels == [Domain.OTHER]

    def test_wrong_score_count(self):
        with pytest.raises(DataError):
            assign_row(np.zeros(6), flat_thresholds(0.5))
        with pytest.raises(DataError):
            assign(np.zeros(7), flat_thresholds(0.5), np.ones(1, dtype=bool))

    def test_unknown_row_is_other(self):
        scores = np.ones((1, 7))
        known = np.zeros(1, dtype=bool)
        assert assign(scores, flat_thresholds(0.5), known) == [[Domain.OTHER]]

    def test_rows_match_expected_lists(self):
        scores = np.full((4, 7), 0.1)
        scores[0, 3] = 0.9  # Mood, margin 0.4
        scores[0, 6] = 0.7  # Substance, margin 0.2
        scores[1, 0] = scores[1, 6] = 0.7  # tie: domain index order
        scores[2, 2] = 0.5  # exactly at the threshold
        scores[3] = 0.9  # above every threshold but unknown
        known = np.array([True, True, True, False])
        assert assign(scores, flat_thresholds(0.5), known) == [
            [Domain.MOOD, Domain.SUBSTANCE],
            [Domain.APPEARANCE, Domain.SUBSTANCE],
            [Domain.INTERPERSONAL],
            [Domain.OTHER],
        ]


class TestCosineBaseline:
    def test_identity_megadocs(self):
        scores = cosine_scores(np.eye(7)[3], np.eye(7))
        assert scores.shape == (1, 7)
        assert scores[0, 3] == pytest.approx(1.0, abs=1e-12)
        # Orthogonal pairs score exactly 0.
        assert np.array_equal(np.delete(scores[0], 3), np.zeros(6))

    def test_identical(self):
        megadocs = np.random.default_rng(6).normal(size=(7, 3))
        megadocs[0] = [0.3, -0.4, 1.2]
        scores = cosine_scores(megadocs[0], megadocs)
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        doc = np.zeros(7)
        doc[0] = doc[1] = 1.0
        scores = cosine_scores(doc, np.eye(7))
        assert scores[0, 0] == pytest.approx(0.7071067811865475, abs=1e-12)
        assert scores[0, 1] == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_forty_five_degrees_to_unnormalised_megadoc(self):
        megadocs = 3.0 * np.eye(7)
        megadocs[2] = 0.0
        megadocs[2, :2] = 1.0
        scores = cosine_scores(np.eye(7)[0], megadocs)
        assert scores[0, 2] == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_orthogonal(self):
        megadocs = np.eye(7)
        megadocs[4] = 0.0
        megadocs[4, 1] = 2.0
        scores = cosine_scores(np.eye(7)[0], megadocs)
        assert scores[0, 4] == 0.0

    def test_rows_map_to_domains(self):
        rng = np.random.default_rng(5)
        megadocs = rng.random((7, 10)) + 0.1
        scores = cosine_scores(megadocs[[5, 2]], megadocs)
        assert scores[0, 5] == pytest.approx(1.0, abs=1e-12)
        assert list(np.argmax(scores, axis=1)) == [5, 2]

    def test_within_unit_interval(self):
        rng = np.random.default_rng(10)
        megadocs = rng.normal(size=(7, 6))
        x = np.vstack([rng.normal(size=(20, 6)), megadocs, -megadocs])
        scores = cosine_scores(x, megadocs)
        assert np.all(np.abs(scores) <= 1.0)
        assert np.allclose(np.diag(scores[20:27]), 1.0)
        assert np.allclose(np.diag(scores[27:]), -1.0)

    def test_wrong_row_count(self):
        with pytest.raises(DataError):
            cosine_scores(np.ones(4), np.ones((6, 4)))

    def test_vectors_must_be_a_matrix(self):
        with pytest.raises(DataError, match=r"shape \[7\]"):
            CosineModel(np.ones(7))

    def test_zero_row_names_its_domain(self):
        vectors = np.eye(7)
        vectors[3] = 0.0
        with pytest.raises(DataError, match=str(CLASSIFIED_DOMAINS[3])):
            CosineModel(vectors)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError, match="zero vector"):
            cosine_scores(np.vstack([np.ones(7), np.zeros(7)]), np.eye(7))
        megadocs = np.eye(7)
        megadocs[4] = 0.0
        with pytest.raises(DataError, match="zero vector"):
            cosine_scores(np.ones(7), megadocs)


class TestClassifyText:
    @pytest.fixture(params=["cosine", "mlp", "rbf"])
    def trained(self, request, trained_cosine, trained_mlp, trained_rbf):
        return {
            "cosine": trained_cosine, "mlp": trained_mlp, "rbf": trained_rbf
        }[request.param]

    def test_empty_text_is_other_with_zero_scores(self, trained):
        labels, scores = classify_paragraph(trained.pipeline, "")
        assert labels == [Domain.OTHER]
        assert np.array_equal(scores, np.zeros(7))

    def test_unknown_words_are_other(self, trained):
        labels, scores = classify_paragraph(
            trained.pipeline, "zzyzx qwfp glorp blarn xylo"
        )
        assert labels == [Domain.OTHER]
        assert np.array_equal(scores, np.zeros(7))

    def test_deterministic(self, trained, small_corpus):
        paragraphs, _, _ = small_corpus
        text = paragraphs[0].text
        a_labels, a_scores = classify_paragraph(trained.pipeline, text)
        b_labels, b_scores = classify_paragraph(trained.pipeline, text)
        assert a_labels == b_labels
        assert np.array_equal(a_scores, b_scores)

    def test_batch_matches_singles(self, trained, small_corpus):
        # Batched rows run through differently shaped matmuls, so scores
        # agree with lone calls to roundoff, not bitwise.
        paragraphs, _, _ = small_corpus
        texts = [p.text for p in paragraphs[:5]] + [""]
        batch_labels, batch_scores = classify_batch(trained.pipeline, texts)
        for i, text in enumerate(texts):
            labels, scores = classify_paragraph(trained.pipeline, text)
            assert batch_labels[i] == labels
            assert np.allclose(batch_scores[i], scores, rtol=0.0, atol=1e-10)

    def test_substance_paragraph_leads_with_substance(self, trained, small_corpus):
        _, _, lexicon = small_corpus
        words = lexicon.keywords[Domain.SUBSTANCE][:8]
        text = " ".join(words * 2)
        labels, _ = classify_paragraph(trained.pipeline, text)
        assert labels[0] is Domain.SUBSTANCE

    def test_batch_output_shapes(self, trained, small_corpus):
        paragraphs, _, _ = small_corpus
        texts = [p.text for p in paragraphs[:9]]
        labels, scores = classify_batch(trained.pipeline, texts)
        assert len(labels) == 9
        assert scores.shape == (9, 7)


def test_non_finite_scores_raise_without_warnings(trained_mlp, small_corpus):
    """Finite weights whose products overflow: no NaN score is returned."""
    pipeline = trained_mlp.pipeline
    paragraphs, _, _ = small_corpus
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = dataclasses.replace(
            pipeline.scorer, w1=np.full_like(pipeline.scorer.w1, 1e308)
        )
        overflowing = dataclasses.replace(pipeline, scorer=huge)
        with pytest.raises(NumericalError, match="non-finite scores"):
            classify_batch(overflowing, [p.text for p in paragraphs[:20]])


class TestUnfittedPipeline:
    """A Pipeline is checked when it is built, so none is ever half fitted."""

    def test_unknown_kind(self, trained_mlp):
        with pytest.raises(ConfigError, match="forest"):
            dataclasses.replace(trained_mlp.pipeline, kind="forest")

    def test_missing_scorer_for_kind(self, trained_mlp):
        with pytest.raises(ConfigError, match="rbf"):
            dataclasses.replace(trained_mlp.pipeline, kind="rbf", scorer=None)

    def test_scorer_of_wrong_type_for_kind(self, trained_mlp):
        with pytest.raises(ConfigError, match="rbf"):
            dataclasses.replace(trained_mlp.pipeline, kind="rbf")

    def test_scorer_input_width_must_match_svd(self, trained_mlp):
        k = trained_mlp.pipeline.svd.k
        narrow = init_mlp(k - 1, np.random.default_rng(0))
        with pytest.raises(DataError, match=f"input dimension {k} does not match"):
            dataclasses.replace(trained_mlp.pipeline, scorer=narrow)

    def test_svd_must_fit_vocabulary(self, trained_mlp):
        svd = trained_mlp.pipeline.svd
        terms = svd.components.shape[1]
        narrow = SvdProjection(svd.components[:, 1:], svd.singular_values)
        with pytest.raises(DataError, match=f"do not fit {terms} terms"):
            dataclasses.replace(trained_mlp.pipeline, svd=narrow)


class TestThresholdSetValidation:
    def test_wrong_shape(self):
        with pytest.raises(ConfigError):
            ThresholdSet(alpha=1.0, means=np.zeros(6), sigmas=np.zeros(6))

    def test_negative_sigma(self):
        with pytest.raises(DataError, match="negative sigma"):
            ThresholdSet(alpha=1.0, means=np.zeros(7), sigmas=np.full(7, -0.1))

    @pytest.mark.parametrize("field", ["alpha", "thresholds", "means", "sigmas"])
    def test_non_finite_value(self, field):
        values = dict(alpha=1.0, means=np.zeros(7), sigmas=np.zeros(7))
        if field == "thresholds":
            # Finite means and sigmas whose derived thresholds overflow.
            values.update(means=np.full(7, 1e308), sigmas=np.full(7, 1e308))
        else:
            values[field] = np.inf if field == "alpha" else np.full(7, np.nan)
        with pytest.raises(DataError, match="non-finite"):
            ThresholdSet(**values)


def test_calibrated_pipelines_use_default_alphas(
    trained_cosine, trained_mlp, trained_rbf
):
    assert trained_mlp.pipeline.thresholds.alpha == DEFAULT_ALPHA["mlp"]
    assert trained_rbf.pipeline.thresholds.alpha == DEFAULT_ALPHA["rbf"]
    assert trained_cosine.pipeline.thresholds.alpha == DEFAULT_ALPHA["cosine"]


def test_training_and_classifying_build_no_phrase_table(
    small_corpus, trained_mlp, monkeypatch
):
    """The lexicon builds its fusion table once; the text path only reads it."""
    calls = []
    real = textnorm.phrase_table

    def spy(phrases):
        calls.append(phrases)
        return real(phrases)

    for module in (textnorm, corpus):
        monkeypatch.setattr(module, "phrase_table", spy)
    paragraphs, _, lexicon = small_corpus
    classify_batch(trained_mlp.pipeline, [p.text for p in paragraphs[:20]])
    train_pipeline(paragraphs, lexicon, PipelineOptions(kind="cosine"))
    assert calls == []
