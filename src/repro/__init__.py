"""repro — a reproduction of "Search + Seizure: The Effectiveness of
Interventions on SEO Campaigns" (Wang et al., IMC 2014).

The package pairs a synthetic-but-faithful ecosystem simulator (SEO
campaigns marketing counterfeit luxury goods through poisoned search
results, plus the interventions deployed against them) with a from-scratch
implementation of the paper's full measurement pipeline: cloaking-detection
crawlers, an L1 logistic-regression campaign classifier, purchase-pair
order-volume estimation, and the intervention-effectiveness analyses behind
every table and figure.

Quickstart::

    from repro import StudyRun
    from repro.ecosystem import paper_preset

    results = StudyRun(paper_preset(scale=0.08)).execute()
    print(len(results.dataset), "poisoned search results")
"""

__version__ = "1.0.0"

__all__ = ["StudyRun", "StudyResults", "__version__"]


def __getattr__(name):
    # Resolved on first use (PEP 562): the study stack imports numpy,
    # scipy and networkx, which ``repro.lint`` and most CLI commands
    # never need.
    if name in ("StudyRun", "StudyResults"):
        from repro import study

        return getattr(study, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
