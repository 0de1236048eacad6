"""Shared helpers for benchmark reporting."""


def print_comparison(title: str, rows) -> None:
    """Uniform 'paper vs measured' block under each benchmark."""
    print()
    print(f"== {title} ==")
    width = max(len(r[0]) for r in rows)
    for name, paper, measured in rows:
        print(f"  {name:<{width}}  paper: {paper:<28} measured: {measured}")
