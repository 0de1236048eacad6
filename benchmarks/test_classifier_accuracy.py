"""Section 4.2.2: campaign-classifier accuracy.

Paper: 10-fold cross-validation on 491 hand-labeled pages over 52 campaigns
yields 86.8% held-out accuracy, against a 1.9% uniform-random baseline; the
L1 regularizer keeps per-campaign models sparse ("a handful of HTML
features").
"""

from repro.classify import cross_validate_accuracy, extract_features

from benchlib import print_comparison


def test_classifier_cross_validation(paper_study):
    labeled = paper_study.labeled_pages
    assert len(labeled) >= 100
    feature_maps = [extract_features(p.html) for p in labeled]
    labels = [p.campaign for p in labeled]
    classes = len(set(labels))

    accuracy, fold_scores = cross_validate_accuracy(
        feature_maps, labels, k=10, seed=7)

    chance = 1.0 / classes
    print_comparison(
        "Section 4.2.2 classifier",
        [
            ("labeled pages", "491", str(len(labeled))),
            ("campaign classes", "52", str(classes)),
            ("10-fold CV accuracy", "86.8%", f"{accuracy:.1%}"),
            ("uniform-random baseline", "1.9%", f"{chance:.1%}"),
        ],
    )

    assert classes >= 30
    assert accuracy > 0.70
    assert accuracy > chance * 10
    # Sanity: folds individually far above chance.
    assert min(fold_scores) > chance * 5


def test_model_sparsity(paper_study):
    classifier = paper_study.classifier
    assert classifier is not None

    sparsity = classifier.model.sparsity()
    vocab = len(classifier.vocabulary)
    mean_nonzero = sum(sparsity.values()) / len(sparsity)
    print_comparison(
        "L1 sparsity",
        [
            ("vocabulary size", "tens of thousands of features", f"{vocab:,}"),
            ("mean nonzero weights/campaign", "a handful",
             f"{mean_nonzero:.0f} ({mean_nonzero / vocab:.1%} of features)"),
        ],
    )
    assert mean_nonzero < vocab * 0.25
