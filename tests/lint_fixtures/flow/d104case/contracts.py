"""Effect-contract fixture (D104 positive / negative / unknown / waived)."""

TOTALS = {}


# repro: effects=pure
def declared_pure_but_counts(name):
    TOTALS[name] = TOTALS.get(name, 0) + 1


# repro: effects=pure
def truly_pure(a, b):
    return a + b


# repro: effects=bogus
def unknown_contract():
    return 1


# repro: allow-D104 the counter is scratch state no artifact reads
# repro: effects=pure
def waived_impure(name):
    TOTALS[name] = TOTALS.get(name, 0) - 1
