"""Tests for the campaign classifier: features, L1 logistic regression,
cross-validation, labeling loop, end-to-end attribution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.util.rng import RandomStreams
from repro.classify import (
    CampaignClassifier,
    GroundTruthOracle,
    L1LogisticRegression,
    OneVsRestL1Logistic,
    Vocabulary,
    build_seed_labels,
    cross_validate_accuracy,
    extract_features,
    kfold_indices,
    vectorize,
)
from repro.classify.linear import (
    _log1pexp,
    _loss,
    _margins,
    _rowdot,
    _squares,
    soft_threshold,
)
from repro.seo.templates import assign_theme


class TestFeatureExtraction:
    def test_tag_and_attribute_tokens(self):
        features = extract_features('<html><body><div class="zc-main kw">x</div></body></html>')
        assert features["div"] == 1
        assert features["div.class"] == 1
        assert features["div.class~zc-main"] == 1
        assert features["div.class~kw"] == 1

    def test_value_normalization_strips_hosts(self):
        a = extract_features('<html><body><a href="http://a.com/p/x.html">l</a></body></html>')
        b = extract_features('<html><body><a href="http://b.net/p/x.html">l</a></body></html>')
        assert a == b

    def test_digit_runs_collapsed(self):
        a = extract_features('<html><body><img src="/images/sku-1234.jpg"/></body></html>')
        b = extract_features('<html><body><img src="/images/sku-9876.jpg"/></body></html>')
        assert a == b

    def test_comments_are_features(self):
        features = extract_features("<html><body><!--tpl:key:1234--></body></html>")
        assert any(name.startswith("comment=") for name in features)

    def test_campaign_themes_have_distinct_features(self):
        streams = RandomStreams(5)
        a_theme = assign_theme("ALPHA", streams)
        b_theme = assign_theme("BRAVO", streams)
        a = set(extract_features(a_theme.doorway_seo_page("t", "V", "s")))
        b = set(extract_features(b_theme.doorway_seo_page("t", "V", "s")))
        assert a - b and b - a


class TestVocabulary:
    def test_min_df_filters(self):
        maps = [extract_features("<html><body><p>x</p></body></html>"),
                extract_features("<html><body><p>y</p><i>z</i></body></html>")]
        vocab = Vocabulary(min_df=2).fit(maps)
        assert "p" in vocab
        assert "i" not in vocab

    def test_vectorize_shape(self):
        maps = [extract_features("<html><body><p>x</p></body></html>")] * 3
        vocab = Vocabulary().fit(maps)
        X = vectorize(maps, vocab)
        assert X.shape == (3, len(vocab))

    def test_unknown_features_ignored(self):
        train = [extract_features("<html><body><p>x</p></body></html>")]
        vocab = Vocabulary().fit(train)
        test = [extract_features("<html><body><table><tr><td>q</td></tr></table></body></html>")]
        X = vectorize(test, vocab)
        assert X.shape == (1, len(vocab))


class TestSoftThreshold:
    @given(st.floats(-100, 100), st.floats(0, 10))
    def test_shrinks_toward_zero(self, value, threshold):
        out = float(soft_threshold(np.array([value]), threshold)[0])
        assert abs(out) <= abs(value) + 1e-12
        if abs(value) <= threshold:
            assert out == 0.0


def _toy_problem(n=200, d=20, seed=0):
    rng = np.random.RandomState(seed)
    X = rng.randn(n, d)
    true_w = np.zeros(d)
    true_w[:3] = [2.0, -1.5, 1.0]
    y = np.where(X @ true_w + 0.3 > 0, 1.0, -1.0)
    return sparse.csr_matrix(X), y, true_w


class TestL1Logistic:
    def test_learns_separable_problem(self):
        X, y, _ = _toy_problem()
        model = L1LogisticRegression(lam=1e-3).fit(X, y)
        accuracy = np.mean((model.decision_function(X) >= 0) == (y > 0))
        assert accuracy > 0.95

    def test_accepts_01_labels(self):
        X, y, _ = _toy_problem()
        model = L1LogisticRegression(lam=1e-3).fit(X, (y > 0).astype(int))
        assert np.mean((model.decision_function(X) >= 0) == (y > 0)) > 0.95

    def test_rejects_nonbinary_labels(self):
        X, y, _ = _toy_problem()
        with pytest.raises(ValueError):
            L1LogisticRegression().fit(X, np.arange(X.shape[0]))

    def test_l1_produces_sparsity(self):
        """Higher lambda => fewer nonzero weights; irrelevant features die."""
        X, y, true_w = _toy_problem(n=400)
        light = L1LogisticRegression(lam=1e-4).fit(X, y)
        heavy = L1LogisticRegression(lam=5e-2).fit(X, y)
        assert heavy.nonzero_weights() <= light.nonzero_weights()
        assert heavy.nonzero_weights() <= 6  # only ~3 features matter

    def test_objective_decreases(self):
        X, y, _ = _toy_problem()
        model = L1LogisticRegression(lam=1e-3)
        w0 = np.zeros(X.shape[1])
        initial = model._objective(X, y, w0, 0.0)
        model.fit(X, y)
        final = model._objective(X, y, model.weights, model.bias)
        assert final < initial

    def test_predict_proba_in_unit_interval(self):
        X, y, _ = _toy_problem()
        model = L1LogisticRegression().fit(X, y)
        proba = model.predict_proba(X)
        assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_unfitted_raises(self):
        X, _, _ = _toy_problem()
        with pytest.raises(RuntimeError):
            L1LogisticRegression().decision_function(X)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            L1LogisticRegression(lam=-1.0)

    def test_refit_resets_n_iter(self):
        """A refit that takes no step reports zero iterations, not the
        previous fit's count."""
        X, y, _ = _toy_problem()
        model = L1LogisticRegression(lam=1e-3, max_iter=8).fit(X, y)
        assert model.n_iter_ == 8
        model.max_iter = 0
        model.fit(X, y)
        assert model.n_iter_ == 0
        assert not model.weights.any() and model.bias == 0.0


def _reference_fit(lam, max_iter, tol, X, y, with_n_iter=False):
    """The seed's ISTA loop, line for line: ``_objective``/``_gradient``
    recompute ``X @ w + b`` from scratch on every call, where the shipped
    solver carries the margins across iterations.  Both must land on the
    same bits.  ``with_n_iter`` also returns the accepted-step count."""
    model = L1LogisticRegression(lam=lam, max_iter=max_iter, tol=tol)
    y = np.asarray(y, dtype=np.float64)
    if set(np.unique(y).tolist()) <= {0.0, 1.0}:
        y = 2.0 * y - 1.0
    w = np.zeros(X.shape[1])
    b = 0.0
    step = 1.0
    n_iter = 0
    objective = model._objective(X, y, w, b)
    for _ in range(max_iter):
        grad_w, grad_b = model._gradient(X, y, w, b)
        improved = False
        for _ in range(40):
            w_new = soft_threshold(w - step * grad_w, step * lam)
            b_new = b - step * grad_b
            new_objective = model._objective(X, y, w_new, b_new)
            delta = w_new - w
            quad = (
                objective
                - lam * float(np.abs(w).sum())
                + float(grad_w @ delta)
                + grad_b * (b_new - b)
                + (float(delta @ delta) + (b_new - b) ** 2) / (2 * step)
                + lam * float(np.abs(w_new).sum())
            )
            if new_objective <= quad + 1e-12:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        n_iter += 1
        if objective - new_objective < tol * max(1.0, abs(objective)):
            w, b, objective = w_new, b_new, new_objective
            break
        w, b, objective = w_new, b_new, new_objective
        step = min(step * 1.5, 1e4)
    return (w, b, n_iter) if with_n_iter else (w, b)


class TestBatchedFitBitIdentity:
    """The batched, carried-margins proximal solver is bit-identical to the
    seed's per-class loop."""

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 5e-2])
    def test_weights_bit_identical_to_reference(self, lam):
        X, y, _ = _toy_problem(n=250, d=30, seed=3)
        model = L1LogisticRegression(lam=lam, max_iter=200).fit(X, y)
        ref_w, ref_b = _reference_fit(lam, 200, model.tol, X, y)
        assert np.array_equal(model.weights, ref_w)
        assert model.bias == ref_b

    def test_batched_primitives_match_per_class_arithmetic(self):
        """The row-wise forms the solver batches with give, row for row, the
        bits of the 1-D expressions a lone fit evaluates."""
        rng = np.random.RandomState(7)
        X = sparse.random(230, 580, density=0.09, format="csr", random_state=rng)
        w, delta = rng.randn(6, 580), rng.randn(6, 580)
        b, y = rng.randn(6), np.where(rng.rand(6, 230) < 0.5, 1.0, -1.0)
        margins = _margins(X, w, b)
        losses = _loss(y, margins)
        dots = _rowdot(w, delta)
        for k in range(6):
            assert np.array_equal(margins[k], X @ w[k] + float(b[k]))
            assert losses[k] == float(np.mean(_log1pexp(-y[k] * margins[k])))
            assert dots[k] == float(w[k] @ delta[k])
        steps = rng.randn(20000)
        assert _squares(steps).tolist() == [v ** 2 for v in steps.tolist()]

    def test_ovr_bit_identical_to_reference_per_class(self):
        """One batched fit of five classes equals five lone reference fits,
        with classes leaving the batch at different iterations: three by
        the ``tol`` rule, two at the ``max_iter`` cap."""
        rng = np.random.RandomState(1)
        centers = rng.randn(5, 12) * np.array([[3.0], [2.0], [1.0], [0.5], [0.2]])
        rows, labels = [], []
        for label, center in zip("abcde", centers):
            rows.append(rng.randn(40, 12) * 0.7 + center)
            labels.extend([label] * 40)
        X = sparse.csr_matrix(np.vstack(rows))
        lam, max_iter, tol = 1e-3, 40, 1e-4
        model = OneVsRestL1Logistic(lam=lam, max_iter=max_iter, tol=tol).fit(X, labels)
        for k, cls in enumerate(model.classes_):
            y = np.where(np.asarray(labels) == cls, 1.0, -1.0)
            ref_w, ref_b, ref_n_iter = _reference_fit(
                lam, max_iter, tol, X, y, with_n_iter=True)
            assert np.array_equal(model.coef_[k], ref_w), cls
            assert model.intercept_[k] == ref_b, cls
            assert model.n_iter_[k] == ref_n_iter, cls
        stops = sorted(model.n_iter_.tolist())
        assert stops[-2:] == [max_iter, max_iter]
        assert len(set(stops[:3])) > 1 and stops[2] < max_iter


class TestOneVsRest:
    def _multiclass(self, n_per=60, seed=1):
        rng = np.random.RandomState(seed)
        centers = {"a": [3, 0, 0], "b": [0, 3, 0], "c": [0, 0, 3]}
        rows, labels = [], []
        for label, center in centers.items():
            rows.append(rng.randn(n_per, 3) * 0.5 + center)
            labels.extend([label] * n_per)
        X = sparse.csr_matrix(np.vstack(rows))
        return X, labels

    def test_multiclass_accuracy(self):
        X, labels = self._multiclass()
        model = OneVsRestL1Logistic(lam=1e-3).fit(X, labels)
        predictions = model.predict(X)
        accuracy = np.mean([p == t for p, t in zip(predictions, labels)])
        assert accuracy > 0.95

    def test_probabilities_normalized(self):
        X, labels = self._multiclass()
        model = OneVsRestL1Logistic(lam=1e-3).fit(X, labels)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_confidence_pairs(self):
        X, labels = self._multiclass()
        model = OneVsRestL1Logistic(lam=1e-3).fit(X, labels)
        for label, confidence in model.predict_with_confidence(X[:10]):
            assert label in model.classes_
            assert 0 <= confidence <= 1

    def test_single_class_rejected(self):
        X, _ = self._multiclass()
        with pytest.raises(ValueError):
            OneVsRestL1Logistic().fit(X, ["same"] * X.shape[0])

    def test_mismatched_lengths_rejected(self):
        X, labels = self._multiclass()
        with pytest.raises(ValueError):
            OneVsRestL1Logistic().fit(X, labels[:-1])


class TestKFold:
    def test_folds_partition(self):
        folds = kfold_indices(103, 10, seed=3)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(103))

    def test_fold_sizes_balanced(self):
        folds = kfold_indices(100, 10)
        assert all(len(f) == 10 for f in folds)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(5, 10)


class TestClassifierEndToEnd:
    """Against the session study (small preset, real pipeline)."""

    def test_seed_labels_cover_known_campaigns_only(self, study):
        for page in study.labeled_pages:
            assert not page.campaign.startswith("BG.")

    def test_cv_accuracy_far_above_chance(self, study):
        maps = [extract_features(p.html) for p in study.labeled_pages]
        labels = [p.campaign for p in study.labeled_pages]
        k = min(5, len(labels))
        accuracy, _ = cross_validate_accuracy(maps, labels, k=k, seed=1)
        chance = 1.0 / len(set(labels))
        assert accuracy > chance * 3
        assert accuracy > 0.6

    def test_attribution_correctness(self, study):
        """Attributed PSRs should overwhelmingly match ground truth."""
        checked = correct = 0
        for record in study.dataset.records:
            if not record.campaign:
                continue
            truth = study.oracle.campaign_of_host(record.host)
            checked += 1
            if truth == record.campaign:
                correct += 1
        assert checked > 0
        assert correct / checked > 0.8

    def test_background_campaigns_stay_mostly_unknown(self, study):
        """Pages from outside the labeled universe should not be
        confidently claimed by known campaigns."""
        wrong_claims = 0
        bg_records = 0
        for record in study.dataset.records:
            truth = study.oracle.campaign_of_host(record.host)
            if truth is None or not truth.startswith("BG."):
                continue
            bg_records += 1
            if record.campaign:
                wrong_claims += 1
        if bg_records:
            assert wrong_claims / bg_records < 0.5

    def test_model_is_sparse(self, study):
        if study.classifier is None:
            pytest.skip("no classifier trained")
        sparsity = study.classifier.model.sparsity()
        vocab_size = len(study.classifier.vocabulary)
        # The small preset's vocabulary is tiny, so the bound is loose here;
        # the paper-scale benchmark asserts < 25% of a real vocabulary.
        for campaign, nonzero in sparsity.items():
            assert nonzero < vocab_size * 0.6
